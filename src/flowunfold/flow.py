"""Invertible generative model: actnorm, invertible 1x1 convolution, affine
coupling, squeeze, and their multi-scale composition.

Layer conventions
-----------------
Layers compute; the walk records and sums log-dets.  Every layer derives
what its weights fix in ``constants()`` and exposes four procedures on
batched (B, C, H, W) arrays, ``c`` being that result:

* ``forward(x, c) -> y``; a coupling returns ``(y, (clamped, s))``,
* ``backward(ctx, gy, glogdet) -> gx`` accumulating parameter gradients,
* ``inverse(y, c) -> x`` the exact algebraic inverse, a coupling's likewise,
* ``inverse_backward(ctx, gx) -> gy`` accumulating parameter gradients.

Every procedure reads the weights from ``c`` alone: a reverse rule's
``ctx`` is ``(x, c)``, x the layer's input in the forward direction (the
output of an inverse pass), and a coupling's ``(x, c, inside, s)``, with
its clamp's bool mask and its scale.  The actnorm's and the 1x1 conv's
log-dets are weight constants, H*W times the sum(log s) and the
log|det W| that ``c`` holds; a coupling's is the per-sample sum of the
clamped log-scale it returns with its scale s.  A layer writes in place
only into arrays it allocated itself (the relu, clamp and output
arithmetic of a coupling, say), never into its input, a cotangent it was
given or an entry of a record, which may be read again.

:class:`FlowModel` composes them from a table with one row per level.  Each
pass is one of two walks over it, down (squeeze, steps, split off) or up
(join, steps reversed, unsqueeze), made by :class:`FlowPlan`, the one
walker, whose table pairs each layer with its constants.  Its
``forward(x, record=None, ld=None)`` and ``inverse(z, record=None)``
append one record per step to ``record`` and add each step's log-det,
``(actnorm + 1x1) + coupling``, into ``ld``, each when given.  Inference
passes neither and :meth:`FlowModel.log_prob_batch` (the NLL and
pretraining's val pass) ``ld`` alone, so both drop each layer's output as
soon as the next layer has its own; training's passes record, into one
flat list that the reverse rule reads backwards and leaves intact.  A
record keeps activations only, one tuple per (actnorm, 1x1 conv,
coupling) step:

* forward, ``(x, inside, s)``: the step input, the coupling's clamp mask
  and scale;
* inverse, ``(u, inside, s)``: the coupling output, the mask and the
  scale; u is the coupling's input in the forward direction.

The reverse walks (:meth:`FlowModel.backward_forward` and
``backward_inverse``) walk the plan their pass walked: the weights do
not change between a pass and its reverse rule, so it is the same plan,
and the plan is the only reader of the flow's weights.  They rebuild the
actnorm and 1x1 outputs with those layers' own ``forward`` or
``inverse``, so bitwise the ones the pass made, and hand each layer its
context.  No record keeps a constant, so none keeps a plan alive.  A
coupling's record keeps the clamp's bool mask, not its hidden
activation, which its reverse rule rebuilds bitwise from the input taps
it gathers anyway (:class:`AffineCoupling`).

The flow's one cache of constants is its plan, every layer's
``constants()`` at one weight value, kept by :meth:`FlowModel.plan` while
the weights stay the same.  Actnorm is not fused into the 1x1 conv: that
would change the rounding.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .diff import ParamStore
from .errors import ConfigError, ShapeError, SingularMatrixError
from .numerics import (
    Prng,
    conv2d_circular_backward,
    conv_apply,
    conv_input_taps,
    conv_layout,
    small_det_inv,
)

__all__ = ["ActNorm", "InvConv1x1", "AffineCoupling", "FlowModel", "FlowPlan"]

LOG_2PI = math.log(2.0 * math.pi)
SCALE_CLAMP = 5.0
STD_FLOOR = 1e-6


def _squeeze_axes(x: np.ndarray, fh: int, fw: int) -> np.ndarray:
    """Space-to-depth on a (B, C, H, W) batch: (B, C*fh*fw, H/fh, W/fw).
    Each fh x fw spatial block maps to channels in row-major block order."""
    b, c, h, w = x.shape
    if h % fh or w % fw:
        raise ShapeError(f"squeeze: spatial dims {h}x{w} not divisible by {fh}x{fw}")
    return (
        x.reshape(b, c, h // fh, fh, w // fw, fw)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(b, c * fh * fw, h // fh, w // fw)
    )


def _unsqueeze_axes(x: np.ndarray, fh: int, fw: int) -> np.ndarray:
    """Exact inverse of :func:`_squeeze_axes`."""
    b, c, h, w = x.shape
    if c % (fh * fw):
        raise ShapeError(f"unsqueeze: channels {c} not divisible by {fh * fw}")
    return (
        x.reshape(b, c // (fh * fw), fh, fw, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(b, c // (fh * fw), h * fh, w * fw)
    )


def _random_orthogonal(rng: Prng, c: int) -> np.ndarray:
    """A c x c orthogonal matrix from the QR factors of a Gaussian draw."""
    q, r = np.linalg.qr(rng.gauss_array((c, c)))
    return q * np.sign(np.diag(r))[None, :]


def _copy(param):
    """A copy of a parameter's value: what a layer's ``constants()`` reads by
    default.  A plan reads views into its own copy of the weights instead."""
    return param.value.copy()


class ActNorm:
    """Per-channel affine map y = exp(log_scale) * x + bias."""

    def __init__(self, channels: int, store: ParamStore, prefix: str):
        self.channels = channels
        self.log_scale = store.add(prefix + ".log_scale", np.zeros(channels))
        self.bias = store.add(prefix + ".bias", np.zeros(channels))

    def data_init(self, x: np.ndarray) -> None:
        """Set parameters so the output of this batch has per-channel mean 0
        and variance 1.  Zero-variance channels get a std floor instead of
        an error."""
        mean = x.mean(axis=(0, 2, 3))
        std = np.maximum(x.std(axis=(0, 2, 3)), STD_FLOOR)
        self.log_scale.value[...] = -np.log(std)
        self.bias.value[...] = -mean / std

    def forward(self, x, c):
        s, _, bias, _ = c
        y = x * s
        y += bias
        return y

    def backward(self, ctx, gy, gld):
        x, (s, _, _, _) = ctx
        hw = x.shape[2] * x.shape[3]
        self.log_scale.grad += (gy * x * s).sum(axis=(0, 2, 3)) + hw * float(gld.sum())
        self.bias.grad += gy.sum(axis=(0, 2, 3))
        return gy * s

    def inverse(self, y, c):
        _, inv_s, bias, _ = c
        x = y - bias
        x *= inv_s
        return x

    def inverse_backward(self, ctx, gx):
        x, (_, inv_s, _, _) = ctx
        gy = gx * inv_s
        self.bias.grad -= gy.sum(axis=(0, 2, 3))
        self.log_scale.grad -= (gx * x).sum(axis=(0, 2, 3))
        return gy

    def constants(self, read=_copy):
        """(s, inv_s, bias, log_det): exp(+-log_scale) and the bias as the
        passes use them, shaped (C, 1, 1), and the log-det per pixel,
        sum(log_scale); each parameter taken by ``read`` (by default a
        copy), so none views the store."""
        log_scale = read(self.log_scale)
        return (np.exp(log_scale)[:, None, None], np.exp(-log_scale)[:, None, None],
                read(self.bias)[:, None, None], float(log_scale.sum()))


def _channel_outer(gy, x):
    """sum over batch and pixels of gy[b, o] x[b, i]: one batched matmul on
    (B, C, H*W) views, which numpy hands to BLAS where einsum would not."""
    b, c = x.shape[:2]
    return np.matmul(gy.reshape(b, c, -1), x.reshape(b, c, -1).transpose(0, 2, 1)).sum(0)


def _mix_channels(m, x):
    """m x per pixel for a (C, C) matrix m and a (B, C, H, W) batch: one
    batched matmul on the (B, C, H*W) view."""
    b, c, h, w = x.shape
    return np.matmul(m, x.reshape(b, c, h * w)).reshape(b, c, h, w)


class InvConv1x1:
    """Channel-mixing y = W x per pixel, a trainable generalization of a
    channel permutation; inverted via pivoted LU in :meth:`constants`."""

    def __init__(self, channels: int, store: ParamStore, prefix: str):
        self.channels = channels
        self.weight = store.add(prefix + ".weight", np.eye(channels))

    def forward(self, x, c):
        w, _, _ = c
        return _mix_channels(w, x)

    def backward(self, ctx, gy, gld):
        x, (w, inv, _) = ctx
        hw = x.shape[2] * x.shape[3]
        self.weight.grad += _channel_outer(gy, x)
        self.weight.grad += hw * float(gld.sum()) * inv.T
        return _mix_channels(w.T, gy)

    def inverse(self, y, c):
        _, inv, _ = c
        return _mix_channels(inv, y)

    def inverse_backward(self, ctx, gx):
        x, (_, inv, _) = ctx
        gy = _mix_channels(inv.T, gx)
        self.weight.grad -= _channel_outer(gy, x)
        return gy

    def constants(self, read=_copy):
        """(W, W^-1, log|det W|) for W = ``read(weight)`` (by default a
        copy), by pivoted LU.  A singular weight raises SingularMatrixError
        naming the weight."""
        return _invert_1x1([self], read)[0]


def _invert_1x1(layers, read) -> list:
    """:meth:`InvConv1x1.constants` of each 1x1 conv in ``layers``, with one
    stacked :func:`small_det_inv` per run of equal channel counts: one per
    channel count along a flow's walk, whose counts never decrease.  Each
    result is bitwise the one the weight gets alone.  A singular weight
    raises SingularMatrixError naming the first in ``layers``."""
    out = []
    for _, run in itertools.groupby(layers, key=lambda layer: layer.channels):
        run = list(run)
        weights = [read(layer.weight) for layer in run]
        try:
            dets, invs = small_det_inv(np.stack(weights))
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"{run[exc.index].weight.name}: {exc}") from exc
        out += [(w, inv, math.log(abs(float(det)))) for w, inv, det in zip(weights, invs, dets)]
    return out


def _coupling_net(xb, c):
    """A coupling's network on its passed-through half xb, shared by its
    forward and inverse, ``c`` its constants.  Returns (clamped, t, s):
    the clamped raw log-scale, the shift and exp(clamped).  The relu and
    the clamp run in place on the conv outputs; -SCALE_CLAMP < clamped <
    SCALE_CLAMP exactly where the raw log-scale is, so the clamp's reverse
    rule needs only that mask."""
    half, conv1, conv2, _, _ = c
    a1 = conv_apply(xb, conv1)
    np.maximum(a1, 0.0, out=a1)
    out = conv_apply(a1, conv2)
    clamped, t = out[:, :half], out[:, half:]
    np.maximum(clamped, -SCALE_CLAMP, out=clamped)
    np.minimum(clamped, SCALE_CLAMP, out=clamped)
    return clamped, t, np.exp(clamped)


def _inside(clamped):
    """Where the clamp passed the raw log-scale through: a bool mask, the
    one thing the clamp's reverse rule reads."""
    return (clamped > -SCALE_CLAMP) & (clamped < SCALE_CLAMP)


def _couple(x, half, s, t):
    """A coupling's output: x with its first ``half`` channels scaled by s
    and shifted by t, in a new array."""
    y = x.copy()
    ya = y[:, :half]
    ya *= s
    ya += t
    return y


def _uncouple(y, half, s, t):
    """The inverse of :func:`_couple`, in a new array."""
    x = y.copy()
    xa = x[:, :half]
    xa -= t
    xa /= s
    return x


class AffineCoupling:
    """Transforms the first half of the channels with scale/shift computed
    from the second half by a small circular-conv network.

    With the final convolution at zero the layer is the identity map with
    zero log-det, which is how training starts.

    Its reverse rules read the context ``(x, c, inside, s)``: its input
    in the forward direction (its output going back), its constants, the
    clamp's bool mask and the scale.  The hidden activation a1 (hidden
    channels, the widest array of the net) is not kept: the reverse rule
    gathers xb's taps once, rebuilds a1 from them with the forward's own
    operations and conv1 layout, so bitwise, and hands the same taps to
    the first conv's reverse rule, which would gather them anyway.
    """

    def __init__(self, channels: int, hidden: int, store: ParamStore, prefix: str):
        if channels % 2:
            raise ConfigError(f"coupling needs an even channel count, got {channels}")
        self.half = channels // 2
        self.w1 = store.add(prefix + ".conv1.weight", np.zeros((hidden, self.half, 3, 3)))
        self.b1 = store.add(prefix + ".conv1.bias", np.zeros(hidden))
        self.w2 = store.add(prefix + ".conv2.weight", np.zeros((channels, hidden, 3, 3)))
        self.b2 = store.add(prefix + ".conv2.bias", np.zeros(channels))

    def _net_backward(self, ctx, g_out):
        """:func:`_coupling_net`'s reverse rule into xb, given the cotangent
        ``g_out`` of (clamped, t) in one array the caller allocated: its
        first half is zeroed in place where the clamp is active.  a1 is
        rebuilt as :func:`_coupling_net` built it, from xb's taps gathered
        once for the rebuild and the first conv's reverse rule alike."""
        x, (half, conv1, _, w1, w2), inside, _ = ctx
        xb = x[:, half:]
        g_out[:, :half] *= inside
        patches = conv_input_taps(xb, w1)
        a1 = conv_apply(xb, conv1, patches)
        np.maximum(a1, 0.0, out=a1)
        g_a1, gw2, gb2 = conv2d_circular_backward(a1, w2, g_out)
        self.w2.grad += gw2
        self.b2.grad += gb2
        g_a1 *= a1 > 0.0
        g_xb, gw1, gb1 = conv2d_circular_backward(xb, w1, g_a1, patches)
        self.w1.grad += gw1
        self.b1.grad += gb1
        return g_xb

    def forward(self, x, c):
        clamped, t, s = _coupling_net(x[:, self.half :], c)
        return _couple(x, self.half, s, t), (clamped, s)

    def backward(self, ctx, gy, gld):
        xa, s = ctx[0][:, : self.half], ctx[-1]
        gya, gyb = gy[:, : self.half], gy[:, self.half :]
        g_out = np.empty_like(gy)  # cotangent of (clamped, t)
        g_clamped = np.multiply(gya, xa, out=g_out[:, : self.half])
        g_clamped *= s
        g_clamped += gld[:, None, None, None]
        g_out[:, self.half :] = gya
        gx = np.empty_like(gy)
        np.multiply(gya, s, out=gx[:, : self.half])
        np.add(gyb, self._net_backward(ctx, g_out), out=gx[:, self.half :])
        return gx

    def inverse(self, y, c):
        clamped, t, s = _coupling_net(y[:, self.half :], c)
        return _uncouple(y, self.half, s, t), (clamped, s)

    def inverse_backward(self, ctx, gx):
        xa, s = ctx[0][:, : self.half], ctx[-1]
        gxa, gxb = gx[:, : self.half], gx[:, self.half :]
        gy = np.empty_like(gx)
        gya = np.divide(gxa, s, out=gy[:, : self.half])
        g_out = np.empty_like(gx)  # cotangent of (clamped, t), negated below
        np.multiply(gxa, xa, out=g_out[:, : self.half])
        g_out[:, self.half :] = gya
        np.negative(g_out, out=g_out)
        np.add(gxb, self._net_backward(ctx, g_out), out=gy[:, self.half :])
        return gy

    def constants(self, read=_copy):
        """(half, conv1, conv2, w1, w2): each conv's kernel and bias, taken
        by ``read`` (by default a copy, so none views the store), laid out
        by :func:`conv_layout` for :func:`_coupling_net`, and the two
        kernels as they are, for the convs' reverse rules."""
        w1, w2 = read(self.w1), read(self.w2)
        return self.half, conv_layout(w1, read(self.b1)), conv_layout(w2, read(self.b2)), w1, w2


class _Level(NamedTuple):
    """One row of :class:`FlowModel`'s level table."""

    factors: tuple[int, int]  # squeeze factors (fh, fw)
    steps: list  # (actnorm, invconv, coupling) per step, in a plan each with its constants
    shape: tuple[int, int, int]  # the squeezed (C, H, W) the steps act on
    out: int  # leading channels written to the latent: C at the last level, else C // 2


def _geometry(shape, levels: int, depth: int) -> list:
    """(squeeze factors, squeezed (C, H, W), ``out``) per level of a flow
    on ``shape``: the rows of :class:`FlowModel`'s level table without
    their steps.  An impossible architecture raises ConfigError."""
    if levels < 1 or depth < 1:
        raise ConfigError(f"need levels >= 1 and depth >= 1, got {levels}, {depth}")
    c, h, w = shape
    rows = []
    for lvl in range(levels):
        fh = 2 if h % 2 == 0 else 1
        fw = 2 if w % 2 == 0 else 1
        if fh * fw == 1:
            raise ConfigError(
                f"level {lvl}: spatial dims {h}x{w} cannot squeeze "
                f"(input {shape} with {levels} levels)"
            )
        c, h, w = c * fh * fw, h // fh, w // fw
        out = c if lvl == levels - 1 else c // 2
        rows.append(((fh, fw), (c, h, w), out))
        c -= out
    return rows


def _step(channels: int, hidden: int, store: ParamStore, name: str) -> tuple:
    """One (actnorm, 1x1 conv, coupling) step, its parameters added to
    ``store`` under ``name``."""
    return (ActNorm(channels, store, name + ".actnorm"),
            InvConv1x1(channels, store, name + ".invconv"),
            AffineCoupling(channels, hidden, store, name + ".coupling"))


@functools.cache
def _step_size(channels: int, hidden: int) -> int:
    """The parameter values of one step, counted on a step built into a
    scratch store, so the layers stay the one statement of their shapes."""
    store = ParamStore()
    _step(channels, hidden, store, "step")
    return store.size


def _down(levels, x: np.ndarray, step) -> np.ndarray:
    """Images (B, C, H, W) to a flat (B, n) array over a level table: per
    level, squeeze, ``x = step(layers, x)`` per step, split off ``out``
    channels.  The table is a model's own, or a plan's (:class:`FlowPlan`),
    whose steps pair each layer with its constants."""
    b = x.shape[0]
    parts = []
    for level in levels:
        x = _squeeze_axes(x, *level.factors)
        for layers in level.steps:
            x = step(layers, x)
        parts.append(x[:, : level.out].reshape(b, -1))
        x = x[:, level.out :]
    return np.concatenate(parts, axis=1)


def _up(levels, z: np.ndarray, step) -> np.ndarray:
    """The reverse of :func:`_down` for (B, n) z: per level from the last,
    put the level's ``out`` channels of z before what the levels below
    returned, ``x = step(layers, x)`` per step in reverse, unsqueeze."""
    b, end = z.shape
    x = np.empty((b, 0) + levels[-1].shape[1:])  # nothing below the last level
    for level in reversed(levels):
        _, h, w = level.shape
        start = end - level.out * h * w
        x = np.concatenate([z[:, start:end].reshape(b, level.out, h, w), x], axis=1)
        end = start
        for layers in reversed(level.steps):
            x = step(layers, x)
        x = _unsqueeze_axes(x, *level.factors)
    return x


class FlowModel:
    """Multi-scale stack of invertible steps, built as the identity flow:
    zero actnorms and couplings, identity 1x1 convs.

    One row per level (:class:`_Level`): going down, each level squeezes,
    runs its (actnorm, 1x1 conv, coupling) steps, then writes its first
    ``out`` channels into the flat latent and passes the rest on; the last
    level writes all of its channels.  The squeeze factor is 2 along every
    even spatial axis (both axes on the standard even-sized inputs;
    degenerate shapes such as 1x1x2 squeeze only the even axis).
    Construction fails when some level cannot squeeze at all, which covers
    spatial dims not divisible by 2^levels.
    """

    def __init__(self, shape: tuple[int, int, int], levels: int, depth: int, hidden: int,
                 store: ParamStore, prefix: str = ""):
        self.shape = tuple(shape)
        self.levels = levels
        self.depth = depth
        self.hidden = hidden
        self.store = store

        first = store.size
        # room for every parameter up front, so adding them never moves the buffers
        store.reserve(first + FlowModel.param_count(self.shape, levels, depth, hidden))
        dot = prefix + "." if prefix else ""
        self._levels: list[_Level] = []
        for lvl, (factors, (c, h, w), out) in enumerate(_geometry(self.shape, levels, depth)):
            steps = [_step(c, hidden, store, f"{dot}level{lvl}.step{d}") for d in range(depth)]
            self._levels.append(_Level(factors, steps, (c, h, w), out))
        self.n = math.prod(self.shape)
        # this model's parameters, added in one run: their slice of store.values
        self.span = slice(first, store.size)
        self._plan = None  # the last FlowPlan built

    @staticmethod
    def param_count(shape: tuple[int, int, int], levels: int, depth: int, hidden: int) -> int:
        """The parameter values a model of this architecture adds to its
        store, found without building it, so a caller can reserve them;
        an impossible architecture raises ConfigError as construction
        would."""
        return depth * sum(_step_size(c, hidden) for _, (c, _, _), _ in
                           _geometry(tuple(shape), levels, depth))

    def _steps(self):
        return [step for level in self._levels for step in level.steps]

    # -- parameter fills ----------------------------------------------------------

    def random_init(self, rng: Prng) -> None:
        """Pretraining's starting point: rotation 1x1 convs (det +1),
        He-scaled first coupling convs; the final convs stay zero and the
        actnorms await :meth:`data_init`."""
        for _, iv, cp in self._steps():
            q = _random_orthogonal(rng, iv.channels)
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            iv.weight.value[...] = q
            fan_in = cp.half * 9
            cp.w1.value[...] = rng.gauss_array(cp.w1.value.shape) * math.sqrt(2.0 / fan_in)

    def randomize(self, rng: Prng, scale: float = 0.1) -> None:
        """Fill every parameter with small random values (test/self-check
        helper; keeps the 1x1 convs well away from singular)."""
        for an, iv, cp in self._steps():
            an.log_scale.value[...] = scale * rng.gauss_array(an.channels)
            an.bias.value[...] = scale * rng.gauss_array(an.channels)
            c = iv.channels
            iv.weight.value[...] = _random_orthogonal(rng, c) @ (
                np.eye(c) + scale * rng.gauss_array((c, c)))
            for p in (cp.w1, cp.b1, cp.w2, cp.b2):
                p.value[...] = scale * rng.gauss_array(p.value.shape)

    def mark_initialized(self) -> None:
        """Does nothing: a model is a valid flow from construction on.  Kept
        only because perfbench's workloads call it after a restore."""

    def plan(self) -> "FlowPlan":
        """The plan at the current weights, which walks every pass.  The last
        one built is kept with a copy of this model's slice of the store and
        reused while one comparison finds the slice equal.  Comparing values, rather than
        hooking each writer (Adam, restores, direct writes), stays right
        whatever changes the weights.  The plan is read once into a local:
        tiles on other threads may replace it between two reads.  A singular
        1x1 weight raises SingularMatrixError naming it, on every call."""
        weights = self.store.values[self.span]
        plan = self._plan
        if plan is None or not np.array_equal(plan.weights, weights):
            plan = self._plan = FlowPlan(self, weights.copy())
        return plan

    def copy_state_from(self, src: "FlowModel") -> None:
        """Copy parameter values from a model of identical architecture
        (weight untying: values copied, storage independent): one copy
        between the two spans, which equal architectures lay out alike."""
        mine = (self.shape, self.levels, self.depth, self.hidden)
        theirs = (src.shape, src.levels, src.depth, src.hidden)
        if mine != theirs:
            raise ConfigError(f"architecture mismatch: {mine} vs {theirs}")
        self.store.values[self.span] = src.store.values[src.span]

    # -- data-dependent initialization ----------------------------------------

    def data_init(self, batch: np.ndarray) -> None:
        """Initialize every actnorm so its post-activation is per-channel
        standardized on this batch, walking the model in composition order."""
        if batch.ndim != 4 or batch.shape[0] < 2:
            raise ConfigError("data_init needs a batch of at least 2 samples")

        def step(layers, x):
            actnorm, invconv, coupling = layers
            actnorm.data_init(x)
            x = invconv.forward(actnorm.forward(x, actnorm.constants()), invconv.constants())
            return coupling.forward(x, coupling.constants())[0]

        _down(self._levels, batch, step)

    # -- forward / inverse ----------------------------------------------------

    def forward_batch(self, x: np.ndarray):
        """Map (B, C, H, W) images to latents.

        Returns ``(z, logdet, ctx)`` where z has shape (B, n).  The latent is
        the concatenation, in level order, of each level's ``out`` leading
        channels (flattened C-major row-major): half of every level's
        channels, then all of the last level's.  ctx is the record
        :meth:`backward_forward` reads, one ``(x, inside, s)`` per step
        (see the module docstring).  The plan's recording walk."""
        ld, ctx = np.zeros(x.shape[:1]), []
        return self.plan().forward(x, ctx, ld), ld, ctx

    def backward_forward(self, ctx, gz: np.ndarray, glogdet: np.ndarray | None):
        """Cotangent of :meth:`forward_batch`: (gz, glogdet) -> gx, walking
        the plan the pass walked."""
        gld = np.zeros(gz.shape[0]) if glogdet is None else glogdet
        record = reversed(ctx)

        def step(layers, g):
            (actnorm, k_an), (invconv, k_iv), (coupling, k_cp) = layers
            x, inside, s = next(record)
            x_an = actnorm.forward(x, k_an)
            x_iv = invconv.forward(x_an, k_iv)
            g = coupling.backward((x_iv, k_cp, inside, s), g, gld)
            g = invconv.backward((x_an, k_iv), g, gld)
            return actnorm.backward((x, k_an), g, gld)

        return _up(self.plan().levels, gz, step)

    def inverse_batch(self, z: np.ndarray):
        """Map (B, n) latents back to images; exact layer-by-layer inverse.
        Returns ``(x, ctx)``, ctx the record :meth:`backward_inverse` reads,
        one ``(u, inside, s)`` per step (see the module docstring).  The
        plan's recording walk."""
        ctx = []
        return self.plan().inverse(z, ctx), ctx

    def backward_inverse(self, ctx, gx: np.ndarray):
        """Cotangent of :meth:`inverse_batch`: gx -> gz, walking the plan the
        pass walked."""
        record = reversed(ctx)

        def step(layers, g):
            (actnorm, k_an), (invconv, k_iv), (coupling, k_cp) = layers
            u, inside, s = next(record)
            x_iv = invconv.inverse(u, k_iv)
            x = actnorm.inverse(x_iv, k_an)
            g = actnorm.inverse_backward((x, k_an), g)
            g = invconv.inverse_backward((x_iv, k_iv), g)
            return coupling.inverse_backward((u, k_cp, inside, s), g)

        return _down(self.plan().levels, gx, step)

    # -- densities -------------------------------------------------------------

    def log_prob_batch(self, x: np.ndarray) -> np.ndarray:
        ld = np.zeros(x.shape[:1])
        z = self.plan().forward(x, ld=ld)
        return -0.5 * self.n * LOG_2PI - 0.5 * np.sum(z * z, axis=1) + ld


class FlowPlan:
    """A flow's constants at one value of its weights, built by
    :meth:`FlowModel.plan`, and the flow's one walker in each direction.

    It holds the model's level table with each layer paired with the
    constants it derives from the weights: ``constants()`` of each layer,
    reading views into ``weights``, the 1x1 weights of a channel count
    inverted as one stack.  Those are the actnorm's scale, inverse scale,
    bias and per-pixel log-det, the 1x1 weight, its inverse and log|det|,
    and each coupling conv's kernel, as it is and in its ``conv_layout``.
    ``weights`` is the copy of the model's store slice the plan was built
    from, so no constant views the store.  The layers are held only for
    their arithmetic, which reads nothing but the constants: the plan is
    the only reader of the flow's weights.  :meth:`forward` and
    :meth:`inverse` walk the table, recording and summing log-dets only
    when asked (see the module docstring), and the model's reverse walks
    walk it back.
    A plan keeps no reference to its model: a model keeps its plan, and a
    cycle between them would hold a discarded model's store until the
    cyclic garbage collector ran.
    """

    __slots__ = ("shape", "n", "weights", "levels", "_x0")

    def __init__(self, flow: FlowModel, weights: np.ndarray):
        self.shape, self.n = flow.shape, flow.n
        self.weights = weights
        base = flow.span.start

        def read(param):
            start = param.offset - base
            return weights[start : start + param.value.size].reshape(param.value.shape)

        inverted = iter(_invert_1x1([step[1] for step in flow._steps()], read))
        self.levels = [
            level._replace(steps=[((actnorm, actnorm.constants(read)), (invconv, next(inverted)),
                                   (coupling, coupling.constants(read)))
                                  for actnorm, invconv, coupling in level.steps])
            for level in flow._levels
        ]
        self._x0 = None

    def forward(self, x: np.ndarray, record: list | None = None,
                ld: np.ndarray | None = None) -> np.ndarray:
        """(B, C, H, W) images to (B, n) latents; see
        :meth:`FlowModel.forward_batch`.  Appends one ``(x, inside, s)``
        per step to ``record`` and adds the (B,) log-det to ``ld`` in
        place, each when given."""
        if x.shape[1:] != self.shape:
            raise ShapeError.mismatch("flow input", x.shape[1:], self.shape)

        def step(layers, x):
            (actnorm, k_an), (invconv, k_iv), (coupling, k_cp) = layers
            y = invconv.forward(actnorm.forward(x, k_an), k_iv)
            y, (clamped, s) = coupling.forward(y, k_cp)
            if record is not None:
                record.append((x, _inside(clamped), s))
            if ld is not None:
                hw = x.shape[2] * x.shape[3]
                # the step's log-det, (actnorm + 1x1) + coupling, then the total
                np.add(ld, hw * k_an[3] + hw * k_iv[2] + clamped.sum(axis=(1, 2, 3)), out=ld)
            return y

        return _down(self.levels, x, step)

    def inverse(self, z: np.ndarray, record: list | None = None) -> np.ndarray:
        """(B, n) latents to images; see :meth:`FlowModel.inverse_batch`.
        Appends one ``(u, inside, s)`` per step to ``record`` when given."""
        if z.ndim != 2 or z.shape[1] != self.n:
            raise ShapeError.mismatch("flow latent", z.shape, ("B", self.n))

        def step(layers, y):
            (actnorm, k_an), (invconv, k_iv), (coupling, k_cp) = layers
            u, (clamped, s) = coupling.inverse(y, k_cp)
            x = actnorm.inverse(invconv.inverse(u, k_iv), k_an)
            if record is not None:
                record.append((u, _inside(clamped), s))
            return x

        return _up(self.levels, z, step)

    def inverse_of_zero(self) -> np.ndarray:
        """The image of the zero latent, (1, C, H, W) and read-only: computed
        on the first call and kept with the plan.  Threads that race on the
        first call each compute the same array."""
        x0 = self._x0
        if x0 is None:
            x0 = self.inverse(np.zeros((1, self.n)))
            x0.flags.writeable = False
            self._x0 = x0
        return x0
