"""Invertible generative model: actnorm, invertible 1x1 convolution, affine
coupling, squeeze, and their multi-scale composition.

Layer conventions
-----------------
Every layer derives what its weights fix in ``constants()`` and exposes
four procedures on batched (B, C, H, W) arrays, ``c`` being that result:

* ``forward(x, c) -> (y, logdet, ctx)`` with per-sample ``logdet`` of shape (B,),
* ``backward(ctx, gy, glogdet) -> gx`` accumulating parameter gradients,
* ``inverse(y, c) -> (x, ctx)`` the exact algebraic inverse,
* ``inverse_backward(ctx, gx) -> gy`` accumulating parameter gradients.

A layer writes in place only into arrays it allocated itself (the relu,
clamp and output arithmetic of a coupling, say), never into its input, a
cotangent it was given or an entry of a record, which may be read again.
An output or log-det it returns, and not in its record, is the caller's to
write into: :class:`FlowModel` sums each step's log-dets in place.

:class:`FlowModel` composes them from a table with one row per level.  Each
pass is one of two walks over it, down (squeeze, steps, split off) or up
(join, steps reversed, unsqueeze).  A recording pass (the default) keeps
one flat list of layer contexts, which its reverse rule reads backwards and
leaves intact; training's passes record.  A context keeps what its reverse
rule cannot cheaply redo: a coupling's keeps the clamp's bool mask, not its
hidden activation, which the reverse rule rebuilds bitwise from the input
taps it gathers anyway (:class:`AffineCoupling`).
:meth:`FlowModel.log_prob_batch` (so the NLL and pretraining's val pass)
runs the forward walk without a record, dropping each layer's context as
soon as the next layer has its output.

The flow's one cache of constants is its plan (a :class:`FlowPlan`), every
layer's ``constants()`` at one weight value.  Every pass reads it: the
model's beside the layers, inference (the fold loop without a record and
the initial guess) alone, with no log-det and no context.  Both run the
same helpers (:func:`_scale_shift`, :func:`_mix_channels`,
:func:`_coupling_net`, :func:`_couple` and their inverses), so a plan pass
equals the recording pass bitwise.  Actnorm is not fused into the 1x1
conv: that would change the rounding.
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


def _scale_shift(x, s, bias):
    """ActNorm's map, shared by its forward and the plan walk: x * s + bias."""
    y = x * s
    y += bias
    return y


def _unshift_scale(y, bias, inv_s):
    """ActNorm's inverse map, shared like :func:`_scale_shift`."""
    x = y - bias
    x *= inv_s
    return x


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
        s, _, bias = c
        y = _scale_shift(x, s, bias)
        hw = x.shape[2] * x.shape[3]
        ld = np.full(x.shape[0], hw * float(self.log_scale.value.sum()))
        return y, ld, (x, s, hw)

    def backward(self, ctx, gy, gld):
        x, s, hw = ctx
        self.log_scale.grad += (gy * x * s).sum(axis=(0, 2, 3)) + hw * float(gld.sum())
        self.bias.grad += gy.sum(axis=(0, 2, 3))
        return gy * s

    def inverse(self, y, c):
        _, inv_s, bias = c
        x = _unshift_scale(y, bias, inv_s)
        return x, (x, inv_s)

    def inverse_backward(self, ctx, gx):
        x, inv_s = ctx
        gy = gx * inv_s
        self.bias.grad -= gy.sum(axis=(0, 2, 3))
        self.log_scale.grad -= (gx * x).sum(axis=(0, 2, 3))
        return gy

    def constants(self, read=_copy):
        """(s, inv_s, bias): exp(+-log_scale) and the bias as the passes use
        them, shaped (C, 1, 1), each parameter taken by ``read`` (by default
        a copy), so none views the store."""
        log_scale = read(self.log_scale)
        return (np.exp(log_scale)[:, None, None], np.exp(-log_scale)[:, None, None],
                read(self.bias)[:, None, None])


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
        w, inv, log_det = c
        y = _mix_channels(w, x)
        hw = x.shape[2] * x.shape[3]
        ld = np.full(x.shape[0], hw * log_det)
        return y, ld, (x, inv, hw)

    def backward(self, ctx, gy, gld):
        x, inv, hw = ctx
        self.weight.grad += _channel_outer(gy, x)
        self.weight.grad += hw * float(gld.sum()) * inv.T
        return _mix_channels(self.weight.value.T, gy)

    def inverse(self, y, c):
        _, inv, _ = c
        x = _mix_channels(inv, y)
        return x, (x, inv)

    def inverse_backward(self, ctx, gx):
        x, inv = ctx
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


def _coupling_net(xb, half, conv1, conv2):
    """A coupling's network on its passed-through half xb, shared by its
    passes and the plan walk: ``conv1`` and ``conv2`` are its two
    convolutions' kernels laid out by :func:`conv_layout`.  Returns
    (clamped, t, s): the clamped raw log-scale, the shift and
    exp(clamped).  The relu and the clamp run in place on the conv
    outputs; -SCALE_CLAMP < clamped < SCALE_CLAMP exactly where the raw
    log-scale is, so the clamp's reverse rule needs only that mask."""
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

    A pass records ``(xa, xb, inside, s)``: the two halves of the
    untransformed input, the clamp's bool mask and the scale.  The hidden
    activation a1 (hidden channels, the widest array of the net) is not
    kept: the reverse rule gathers xb's taps once, rebuilds a1 from them
    with the forward's own operations, so bitwise, and hands the same taps
    to the first conv's reverse rule, which would gather them anyway.
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
        _, xb, inside, _ = ctx
        g_out[:, : self.half] *= inside
        w1 = self.w1.value
        patches = conv_input_taps(xb, w1)
        a1 = conv_apply(xb, conv_layout(w1, self.b1.value), patches)
        np.maximum(a1, 0.0, out=a1)
        g_a1, gw2, gb2 = conv2d_circular_backward(a1, self.w2.value, g_out)
        self.w2.grad += gw2
        self.b2.grad += gb2
        g_a1 *= a1 > 0.0
        g_xb, gw1, gb1 = conv2d_circular_backward(xb, w1, g_a1, patches)
        self.w1.grad += gw1
        self.b1.grad += gb1
        return g_xb

    def forward(self, x, c):
        xa, xb = x[:, : self.half], x[:, self.half :]
        clamped, t, s = _coupling_net(xb, *c)
        y = _couple(x, self.half, s, t)
        ld = clamped.sum(axis=(1, 2, 3))
        return y, ld, (xa, xb, _inside(clamped), s)

    def backward(self, ctx, gy, gld):
        xa, s = ctx[0], ctx[-1]
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
        xb = y[:, self.half :]
        clamped, t, s = _coupling_net(xb, *c)
        x = _uncouple(y, self.half, s, t)
        return x, (x[:, : self.half], xb, _inside(clamped), s)

    def inverse_backward(self, ctx, gx):
        xa, s = ctx[0], ctx[-1]
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
        """(half, conv1, conv2), the arguments of :func:`_coupling_net` after
        xb: each conv's kernel and bias, taken by ``read`` (by default a
        copy, so no layout views the store), laid out by
        :func:`conv_layout`."""
        conv1 = conv_layout(read(self.w1), read(self.b1))
        conv2 = conv_layout(read(self.w2), read(self.b2))
        return self.half, conv1, conv2


class _Level(NamedTuple):
    """One row of :class:`FlowModel`'s level table."""

    factors: tuple[int, int]  # squeeze factors (fh, fw)
    steps: list  # (actnorm, invconv, coupling) per step, in composition order
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
    whose steps hold constants in place of layers."""
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
        """The plan at the current weights, which every pass reads.  The last
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
            layers[0].data_init(x)
            for layer in layers:
                x, _, _ = layer.forward(x, layer.constants())
            return x

        _down(self._levels, batch, step)

    # -- forward / inverse ----------------------------------------------------

    def forward_batch(self, x: np.ndarray, record: bool = True):
        """Map (B, C, H, W) images to latents.

        Returns ``(z, logdet, ctx)`` where z has shape (B, n).  The latent is
        the concatenation, in level order, of each level's ``out`` leading
        channels (flattened C-major row-major): half of every level's
        channels, then all of the last level's.  ctx is the record
        :meth:`backward_forward` reads, or None when ``record`` is false.
        """
        if x.shape[1:] != self.shape:
            raise ShapeError.mismatch("flow input", x.shape[1:], self.shape)
        ld = np.zeros(x.shape[0])
        ctx = [] if record else None
        constants = iter(self.plan().steps)

        def step(layers, x):
            actnorm, invconv, coupling = layers
            k_an, k_iv, k_cp = next(constants)
            x, step_ld, c_an = actnorm.forward(x, k_an)
            x, ld_iv, c_iv = invconv.forward(x, k_iv)
            x, ld_cp, c_cp = coupling.forward(x, k_cp)
            if record:
                ctx.extend((c_an, c_iv, c_cp))
            step_ld += ld_iv  # one step's log-det, then the total
            step_ld += ld_cp
            np.add(ld, step_ld, out=ld)
            return x

        return _down(self._levels, x, step), ld, ctx

    def backward_forward(self, ctx, gz: np.ndarray, glogdet: np.ndarray | None):
        """Cotangent of :meth:`forward_batch`: (gz, glogdet) -> gx."""
        gld = np.zeros(gz.shape[0]) if glogdet is None else glogdet
        record = reversed(ctx)

        def step(layers, g):
            for layer in reversed(layers):
                g = layer.backward(next(record), g, gld)
            return g

        return _up(self._levels, gz, step)

    def inverse_batch(self, z: np.ndarray):
        """Map (B, n) latents back to images; exact layer-by-layer inverse.
        Returns ``(x, ctx)``, ctx the record :meth:`backward_inverse` reads."""
        if z.shape[1] != self.n:
            raise ShapeError.mismatch("flow latent", z.shape[1:], (self.n,))
        ctx = []
        constants = reversed(self.plan().steps)

        def step(layers, x):
            actnorm, invconv, coupling = layers
            k_an, k_iv, k_cp = next(constants)
            x, c_cp = coupling.inverse(x, k_cp)
            x, c_iv = invconv.inverse(x, k_iv)
            x, c_an = actnorm.inverse(x, k_an)
            ctx.extend((c_cp, c_iv, c_an))
            return x

        return _up(self._levels, z, step), ctx

    def backward_inverse(self, ctx, gx: np.ndarray):
        """Cotangent of :meth:`inverse_batch`: gx -> gz."""
        record = reversed(ctx)

        def step(layers, g):
            for layer in layers:
                g = layer.inverse_backward(next(record), g)
            return g

        return _down(self._levels, gx, step)

    # -- densities -------------------------------------------------------------

    def log_prob_batch(self, x: np.ndarray) -> np.ndarray:
        z, ld, _ = self.forward_batch(x, record=False)
        return -0.5 * self.n * LOG_2PI - 0.5 * np.sum(z * z, axis=1) + ld


def _plan_forward_step(constants, x):
    """One step of :meth:`FlowPlan.forward`: actnorm, 1x1 conv, coupling."""
    (scale, _, bias), (w, _, _), (half, conv1, conv2) = constants
    x = _mix_channels(w, _scale_shift(x, scale, bias))
    _, t, s = _coupling_net(x[:, half:], half, conv1, conv2)
    return _couple(x, half, s, t)


def _plan_inverse_step(constants, x):
    """One step of :meth:`FlowPlan.inverse`, the layers in reverse."""
    (_, inv_s, bias), (_, inv, _), (half, conv1, conv2) = constants
    _, t, s = _coupling_net(x[:, half:], half, conv1, conv2)
    return _unshift_scale(_mix_channels(inv, _uncouple(x, half, s, t)), bias, inv_s)


class FlowPlan:
    """A flow's constants and inference passes at one value of its weights,
    built by :meth:`FlowModel.plan`.

    It holds the model's level table with each step's layers replaced by
    the constants they derive from the weights (``constants()`` of each
    layer, reading views into ``weights``; the 1x1 weights of a channel
    count are inverted as one stack): the actnorm's scale, inverse scale and
    bias, the 1x1 weight, its inverse and log|det|, and each coupling conv's
    kernel in its ``conv_layout``.
    The model's passes read them (:attr:`steps`); :meth:`forward` and
    :meth:`inverse` walk them with the layers' own arithmetic, so they
    equal the recording passes bitwise, but build no log-det and keep no
    context.  ``weights`` is the copy of the model's store slice the plan
    was built from; nothing in a plan views the store.
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
            level._replace(steps=[(actnorm.constants(read), next(inverted),
                                   coupling.constants(read))
                                  for actnorm, _, coupling in level.steps])
            for level in flow._levels
        ]
        self._x0 = None

    @property
    def steps(self) -> list:
        """Each step's constants in the order the down walk meets them."""
        return [step for level in self.levels for step in level.steps]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(B, C, H, W) images to (B, n) latents, as :meth:`FlowModel.forward_batch`."""
        if x.shape[1:] != self.shape:
            raise ShapeError.mismatch("flow input", x.shape[1:], self.shape)
        return _down(self.levels, x, _plan_forward_step)

    def inverse(self, z: np.ndarray) -> np.ndarray:
        """(B, n) latents to images, as :meth:`FlowModel.inverse_batch`."""
        if z.shape[1] != self.n:
            raise ShapeError.mismatch("flow latent", z.shape[1:], (self.n,))
        return _up(self.levels, z, _plan_inverse_step)

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
