"""Invertible generative model: actnorm, invertible 1x1 convolution, affine
coupling, squeeze, and their multi-scale composition.

Layer conventions
-----------------
Every layer exposes four procedures operating on batched (B, C, H, W) arrays:

* ``forward(x) -> (y, logdet, ctx)`` with per-sample ``logdet`` of shape (B,),
* ``backward(ctx, gy, glogdet) -> gx`` accumulating parameter gradients,
* ``inverse(y) -> (x, ctx)`` the exact algebraic inverse,
* ``inverse_backward(ctx, gx) -> gy`` accumulating parameter gradients.

The latent layout of the composed model is documented on
:meth:`FlowModel.forward_batch`.
"""

from __future__ import annotations

import math

import numpy as np

from .diff import ParamStore
from .errors import ConfigError, ShapeError, SingularMatrixError
from .numerics import Prng, conv2d_circular, conv2d_circular_backward, small_det_inv

__all__ = ["ActNorm", "InvConv1x1", "AffineCoupling", "FlowModel"]

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

    def forward(self, x):
        s = np.exp(self.log_scale.value)[None, :, None, None]
        y = x * s + self.bias.value[None, :, None, None]
        hw = x.shape[2] * x.shape[3]
        ld = np.full(x.shape[0], hw * float(self.log_scale.value.sum()))
        return y, ld, (x, s, hw)

    def backward(self, ctx, gy, gld):
        x, s, hw = ctx
        self.log_scale.grad += (gy * x * s).sum(axis=(0, 2, 3)) + hw * float(gld.sum())
        self.bias.grad += gy.sum(axis=(0, 2, 3))
        return gy * s

    def inverse(self, y):
        inv_s = np.exp(-self.log_scale.value)[None, :, None, None]
        x = (y - self.bias.value[None, :, None, None]) * inv_s
        return x, (x, inv_s)

    def inverse_backward(self, ctx, gx):
        x, inv_s = ctx
        gy = gx * inv_s
        self.bias.grad += -gy.sum(axis=(0, 2, 3))
        self.log_scale.grad += -(gx * x).sum(axis=(0, 2, 3))
        return gy


def _channel_outer(gy, x):
    """sum over batch and pixels of gy[b, o] x[b, i]: one batched matmul on
    (B, C, H*W) views, which numpy hands to BLAS where einsum would not."""
    b, c = x.shape[:2]
    return np.matmul(gy.reshape(b, c, -1), x.reshape(b, c, -1).transpose(0, 2, 1)).sum(0)


class InvConv1x1:
    """Channel-mixing y = W x per pixel, a trainable generalization of a
    channel permutation; inverted via pivoted LU once per weight value."""

    def __init__(self, channels: int, store: ParamStore, prefix: str):
        self.channels = channels
        self.weight = store.add(prefix + ".weight", np.eye(channels))
        self._cached = None  # (weight copy, det, inverse)

    def _det_inv(self):
        """det and inverse of the current weight, recomputed only when its
        value differs from the cached copy.  Comparing values, rather than
        hooking each writer (Adam, restores, direct writes), stays right
        whatever changes the weight; a singular weight raises, naming the
        weight, before it is cached, so it raises on every call.  The cache
        is read once into a local: tiles running on other threads may
        replace it between two reads."""
        w = self.weight.value
        cached = self._cached
        if cached is None or not np.array_equal(cached[0], w):
            try:
                det, inv = small_det_inv(w)
            except SingularMatrixError as exc:
                raise SingularMatrixError(f"{self.weight.name}: {exc}") from exc
            cached = self._cached = (w.copy(), det, inv)
        return cached[1], cached[2]

    def forward(self, x):
        det, inv = self._det_inv()
        y = np.einsum("oi,bihw->bohw", self.weight.value, x)
        hw = x.shape[2] * x.shape[3]
        ld = np.full(x.shape[0], hw * math.log(abs(det)))
        return y, ld, (x, inv, hw)

    def backward(self, ctx, gy, gld):
        x, inv, hw = ctx
        self.weight.grad += _channel_outer(gy, x)
        self.weight.grad += hw * float(gld.sum()) * inv.T
        return np.einsum("oi,bohw->bihw", self.weight.value, gy)

    def inverse(self, y):
        _, inv = self._det_inv()
        x = np.einsum("io,bohw->bihw", inv, y)
        return x, (x, inv)

    def inverse_backward(self, ctx, gx):
        x, inv = ctx
        gy = np.einsum("io,bihw->bohw", inv, gx)
        self.weight.grad -= _channel_outer(gy, x)
        return gy


class AffineCoupling:
    """Transforms the first half of the channels with scale/shift computed
    from the second half by a small circular-conv network.

    With the final convolution at zero the layer is the identity map with
    zero log-det, which is how training starts.
    """

    def __init__(self, channels: int, hidden: int, store: ParamStore, prefix: str):
        if channels % 2:
            raise ConfigError(f"coupling needs an even channel count, got {channels}")
        self.channels = channels
        self.half = channels // 2
        self.hidden = hidden
        self.w1 = store.add(prefix + ".conv1.weight", np.zeros((hidden, self.half, 3, 3)))
        self.b1 = store.add(prefix + ".conv1.bias", np.zeros(hidden))
        self.w2 = store.add(prefix + ".conv2.weight", np.zeros((channels, hidden, 3, 3)))
        self.b2 = store.add(prefix + ".conv2.bias", np.zeros(channels))

    def _net(self, xb):
        h1 = conv2d_circular(xb, self.w1.value, self.b1.value)
        a1 = np.maximum(h1, 0.0)
        out = conv2d_circular(a1, self.w2.value, self.b2.value)
        raw = out[:, : self.half]
        t = out[:, self.half :]
        clamped = np.clip(raw, -SCALE_CLAMP, SCALE_CLAMP)
        s = np.exp(clamped)
        return h1, a1, raw, t, clamped, s

    def _net_backward(self, xb, h1, a1, raw, g_raw, g_t):
        g_out = np.concatenate([g_raw, g_t], axis=1)
        g_a1, gw2, gb2 = conv2d_circular_backward(a1, self.w2.value, g_out)
        self.w2.grad += gw2
        self.b2.grad += gb2
        g_h1 = g_a1 * (h1 > 0.0)
        g_xb, gw1, gb1 = conv2d_circular_backward(xb, self.w1.value, g_h1)
        self.w1.grad += gw1
        self.b1.grad += gb1
        return g_xb

    def forward(self, x):
        xa, xb = x[:, : self.half], x[:, self.half :]
        h1, a1, raw, t, clamped, s = self._net(xb)
        ya = s * xa + t
        y = np.concatenate([ya, xb], axis=1)
        ld = clamped.sum(axis=(1, 2, 3))
        return y, ld, (xa, xb, h1, a1, raw, s)

    def backward(self, ctx, gy, gld):
        xa, xb, h1, a1, raw, s = ctx
        gya, gyb = gy[:, : self.half], gy[:, self.half :]
        g_xa = gya * s
        g_clamped = gya * xa * s + gld[:, None, None, None]
        inside = (raw > -SCALE_CLAMP) & (raw < SCALE_CLAMP)
        g_raw = g_clamped * inside
        g_xb = gyb + self._net_backward(xb, h1, a1, raw, g_raw, gya)
        return np.concatenate([g_xa, g_xb], axis=1)

    def inverse(self, y):
        ya, xb = y[:, : self.half], y[:, self.half :]
        h1, a1, raw, t, clamped, s = self._net(xb)
        xa = (ya - t) / s
        x = np.concatenate([xa, xb], axis=1)
        return x, (xa, xb, h1, a1, raw, s)

    def inverse_backward(self, ctx, gx):
        xa, xb, h1, a1, raw, s = ctx
        gxa, gxb = gx[:, : self.half], gx[:, self.half :]
        gya = gxa / s
        g_clamped = -gxa * xa
        inside = (raw > -SCALE_CLAMP) & (raw < SCALE_CLAMP)
        g_raw = g_clamped * inside
        gyb = gxb + self._net_backward(xb, h1, a1, raw, g_raw, -gya)
        return np.concatenate([gya, gyb], axis=1)


class _FlowStep:
    """One (actnorm, 1x1 conv, affine coupling) triple."""

    def __init__(self, channels, hidden, store, prefix):
        self.actnorm = ActNorm(channels, store, prefix + ".actnorm")
        self.invconv = InvConv1x1(channels, store, prefix + ".invconv")
        self.coupling = AffineCoupling(channels, hidden, store, prefix + ".coupling")
        self._layers = (self.actnorm, self.invconv, self.coupling)
        an, iv, cp = self._layers
        self.params = (an.log_scale, an.bias, iv.weight, cp.w1, cp.b1, cp.w2, cp.b2)

    def forward(self, x):
        ld = np.zeros(x.shape[0])
        ctxs = []
        for layer in self._layers:
            x, l, c = layer.forward(x)
            ld += l
            ctxs.append(c)
        return x, ld, ctxs

    def backward(self, ctxs, gy, gld):
        for layer, ctx in zip(reversed(self._layers), reversed(ctxs)):
            gy = layer.backward(ctx, gy, gld)
        return gy

    def inverse(self, y):
        ctxs = []
        for layer in reversed(self._layers):
            y, c = layer.inverse(y)
            ctxs.append(c)
        return y, ctxs

    def inverse_backward(self, ctxs, gx):
        for layer, ctx in zip(self._layers, reversed(ctxs)):
            gx = layer.inverse_backward(ctx, gx)
        return gx


class FlowModel:
    """Multi-scale stack of invertible steps, built as the identity flow:
    zero actnorms and couplings, identity 1x1 convs.

    A squeeze precedes each level; after every non-final level the first half
    of the channels splits off and is carried straight into the flat latent.
    The squeeze factor is 2 along every even spatial axis (both axes on the
    standard even-sized inputs; degenerate shapes such as 1x1x2 squeeze only
    the even axis).  Construction fails when some level cannot squeeze at
    all, which covers spatial dims not divisible by 2^levels.
    """

    def __init__(
        self,
        shape: tuple[int, int, int],
        levels: int,
        depth: int,
        hidden: int,
        store: ParamStore,
        prefix: str = "",
    ):
        if levels < 1 or depth < 1:
            raise ConfigError(f"need levels >= 1 and depth >= 1, got {levels}, {depth}")
        self.shape = tuple(shape)
        self.levels = levels
        self.depth = depth
        self.hidden = hidden
        self.store = store

        c, h, w = shape
        self._factors: list[tuple[int, int]] = []
        self._level_steps: list[list[_FlowStep]] = []
        self._split_shapes: list[tuple[int, int, int]] = []
        dot = prefix + "." if prefix else ""
        for lvl in range(levels):
            fh = 2 if h % 2 == 0 else 1
            fw = 2 if w % 2 == 0 else 1
            if fh * fw == 1:
                raise ConfigError(
                    f"level {lvl}: spatial dims {h}x{w} cannot squeeze "
                    f"(input {self.shape} with {levels} levels)"
                )
            c, h, w = c * fh * fw, h // fh, w // fw
            self._factors.append((fh, fw))
            steps = [
                _FlowStep(c, hidden, store, f"{dot}level{lvl}.step{d}")
                for d in range(depth)
            ]
            self._level_steps.append(steps)
            if lvl < levels - 1:
                self._split_shapes.append((c // 2, h, w))
                c -= c // 2
        self._final_shape = (c, h, w)
        self.n = int(np.prod(shape))

    # -- parameter fills ----------------------------------------------------------

    def _steps(self):
        for steps in self._level_steps:
            yield from steps

    def random_init(self, rng: Prng) -> None:
        """Pretraining's starting point: rotation 1x1 convs (det +1),
        He-scaled first coupling convs; the final convs stay zero and the
        actnorms await :meth:`data_init`."""
        for step in self._steps():
            q = _random_orthogonal(rng, step.invconv.channels)
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            step.invconv.weight.value[...] = q
            cp = step.coupling
            fan_in = cp.half * 9
            cp.w1.value[...] = rng.gauss_array(cp.w1.value.shape) * math.sqrt(2.0 / fan_in)

    def randomize(self, rng: Prng, scale: float = 0.1) -> None:
        """Fill every parameter with small random values (test/self-check
        helper; keeps the 1x1 convs well away from singular)."""
        for step in self._steps():
            an, iv, cp = step.actnorm, step.invconv, step.coupling
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

    def check_invertible(self) -> None:
        """Compute and cache every 1x1 conv's det and inverse; a singular
        weight raises SingularMatrixError naming it."""
        for step in self._steps():
            step.invconv._det_inv()

    def arch(self) -> tuple:
        return (self.shape, self.levels, self.depth, self.hidden)

    def copy_state_from(self, src: "FlowModel") -> None:
        """Copy parameter values from a model of identical architecture
        (weight untying: values copied, storage independent)."""
        if self.arch() != src.arch():
            raise ConfigError(f"architecture mismatch: {self.arch()} vs {src.arch()}")
        for dst_step, src_step in zip(self._steps(), src._steps()):
            for dst, value in zip(dst_step.params, src_step.params):
                dst.value[...] = value.value

    # -- data-dependent initialization ----------------------------------------

    def data_init(self, batch: np.ndarray) -> None:
        """Initialize every actnorm so its post-activation is per-channel
        standardized on this batch, walking the model in composition order."""
        if batch.ndim != 4 or batch.shape[0] < 2:
            raise ConfigError("data_init needs a batch of at least 2 samples")
        x = batch
        for lvl in range(self.levels):
            x = _squeeze_axes(x, *self._factors[lvl])
            for step in self._level_steps[lvl]:
                step.actnorm.data_init(x)
                x, _, _ = step.actnorm.forward(x)
                x, _, _ = step.invconv.forward(x)
                x, _, _ = step.coupling.forward(x)
            if lvl < self.levels - 1:
                x = x[:, self._split_shapes[lvl][0] :]

    # -- forward / inverse ----------------------------------------------------

    def forward_batch(self, x: np.ndarray):
        """Map (B, C, H, W) images to latents.

        Returns ``(z, logdet, ctx)`` where z has shape (B, n).  The latent is
        the concatenation, in level order, of each level's split-off half
        (flattened C-major row-major) followed by the final level's output.
        """
        if x.shape[1:] != self.shape:
            raise ShapeError.mismatch("flow input", x.shape[1:], self.shape)
        b = x.shape[0]
        ld = np.zeros(b)
        parts = []
        step_ctxs = []
        for lvl in range(self.levels):
            x = _squeeze_axes(x, *self._factors[lvl])
            lvl_ctxs = []
            for step in self._level_steps[lvl]:
                x, l, c = step.forward(x)
                ld += l
                lvl_ctxs.append(c)
            step_ctxs.append(lvl_ctxs)
            if lvl < self.levels - 1:
                half = self._split_shapes[lvl][0]
                parts.append(x[:, :half].reshape(b, -1))
                x = x[:, half:]
        parts.append(x.reshape(b, -1))
        return np.concatenate(parts, axis=1), ld, step_ctxs

    def backward_forward(self, ctx, gz: np.ndarray, glogdet: np.ndarray | None):
        """Cotangent of :meth:`forward_batch`: (gz, glogdet) -> gx."""
        b = gz.shape[0]
        gld = np.zeros(b) if glogdet is None else glogdet
        g_parts = self._slice_latent(gz)
        g = g_parts[-1].reshape((b,) + self._final_shape)
        for lvl in range(self.levels - 1, -1, -1):
            if lvl < self.levels - 1:
                split = g_parts[lvl].reshape((b,) + self._split_shapes[lvl])
                g = np.concatenate([split, g], axis=1)
            for step, c in zip(
                reversed(self._level_steps[lvl]), reversed(ctx[lvl])
            ):
                g = step.backward(c, g, gld)
            g = _unsqueeze_axes(g, *self._factors[lvl])
        return g

    def inverse_batch(self, z: np.ndarray):
        """Map (B, n) latents back to images; exact layer-by-layer inverse."""
        if z.shape[1] != self.n:
            raise ShapeError.mismatch("flow latent", z.shape[1:], (self.n,))
        b = z.shape[0]
        parts = self._slice_latent(z)
        x = parts[-1].reshape((b,) + self._final_shape)
        step_ctxs: list[list] = [None] * self.levels
        for lvl in range(self.levels - 1, -1, -1):
            if lvl < self.levels - 1:
                split = parts[lvl].reshape((b,) + self._split_shapes[lvl])
                x = np.concatenate([split, x], axis=1)
            lvl_ctxs = []
            for step in reversed(self._level_steps[lvl]):
                x, c = step.inverse(x)
                lvl_ctxs.append(c)
            step_ctxs[lvl] = lvl_ctxs[::-1]  # stored in forward step order
            x = _unsqueeze_axes(x, *self._factors[lvl])
        return x, step_ctxs

    def backward_inverse(self, ctx, gx: np.ndarray):
        """Cotangent of :meth:`inverse_batch`: gx -> gz."""
        b = gx.shape[0]
        g = gx
        g_parts = []
        for lvl in range(self.levels):
            g = _squeeze_axes(g, *self._factors[lvl])
            for step, c in zip(self._level_steps[lvl], ctx[lvl]):
                g = step.inverse_backward(c, g)
            if lvl < self.levels - 1:
                half = self._split_shapes[lvl][0]
                g_parts.append(g[:, :half].reshape(b, -1))
                g = g[:, half:]
        g_parts.append(g.reshape(b, -1))
        return np.concatenate(g_parts, axis=1)

    def _slice_latent(self, z):
        parts = []
        offset = 0
        for shape in self._split_shapes + [self._final_shape]:
            size = int(np.prod(shape))
            parts.append(z[:, offset : offset + size])
            offset += size
        return parts

    # -- densities -------------------------------------------------------------

    def log_prob_batch(self, x: np.ndarray) -> np.ndarray:
        z, ld, _ = self.forward_batch(x)
        return -0.5 * self.n * LOG_2PI - 0.5 * np.sum(z * z, axis=1) + ld
