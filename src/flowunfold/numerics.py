"""Dense-tensor substrate: deterministic RNG, circular 2-D convolution,
small-matrix linear algebra, Gaussian kernels.

Tensors are plain ``numpy.ndarray`` objects with dtype float64 and row-major
layout throughout the package; signals are C x H x W, batches B x C x H x W.
All operations here are pure functions of their inputs.

The circular convolution is im2col: one ``np.take`` over a cached flat index
gathers every wrapped tap of the input, and one matmul applies the kernel.
Its reverse rule gathers only the thinner of its two sides, because the
gather, not the matmul, is what costs: the output cotangent at the mirrored
taps when it has at most twice the input's channels (a coupling's second
conv, hidden -> C), otherwise the input as the forward pass does, with the
input gradient put back by a col2im ``np.take`` (a coupling's first conv,
C/2 -> hidden).  The forward pass keeps its own gather, so inference does the
same arithmetic whichever side the reverse rule picks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, SingularMatrixError

__all__ = [
    "Prng",
    "derive_seed",
    "conv2d_circular",
    "conv2d_circular_backward",
    "small_det_inv",
    "gaussian_kernel",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_SCALE = 1.0 / float(1 << 53)


def _mix64(z: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """SplitMix64 finalizer; works elementwise on uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class Prng:
    """SplitMix64 stream with uniform doubles and Box-Muller Gaussians.

    The state advances by the 64-bit golden-ratio constant per draw and the
    new state is passed through the SplitMix64 mixing function.  Uniform
    doubles take the top 53 bits of the mixed output, giving values in
    [0, 1).  Each Gaussian draw consumes exactly two consecutive uniforms
    (u1, u2) and returns sqrt(-2 ln(1 - u1)) * cos(2 pi u2); array draws of
    n Gaussians consume 2n uniforms (pairs yield cos/sin companions
    interleaved, a trailing odd sample discards its sin companion).  The
    integer and uniform streams are bit-for-bit reproducible for a given
    seed.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def next_u64(self) -> int:
        with np.errstate(over="ignore"):
            self.state = self.state + _GOLDEN
            return int(_mix64(self.state))

    def _u64_array(self, n: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            steps = np.arange(1, n + 1, dtype=np.uint64)
            out = _mix64(self.state + steps * _GOLDEN)
            self.state = self.state + np.uint64(n) * _GOLDEN
        return out

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * _U64_SCALE

    def uniform_array(self, shape) -> np.ndarray:
        n = int(np.prod(shape, dtype=np.int64)) if np.ndim(shape) else int(shape)
        bits = self._u64_array(n) >> np.uint64(11)
        return (bits.astype(np.float64) * _U64_SCALE).reshape(shape)

    def gauss(self) -> float:
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(2.0 * math.pi * u2)

    def gauss_array(self, shape) -> np.ndarray:
        n = int(np.prod(shape, dtype=np.int64)) if np.ndim(shape) else int(shape)
        pairs = (n + 1) // 2
        u = self.uniform_array(2 * pairs).reshape(pairs, 2)
        r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        ang = 2.0 * np.pi * u[:, 1]
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(ang)
        out[1::2] = r * np.sin(ang)
        return out[:n].reshape(shape)


def derive_seed(base: int, *words: int) -> int:
    """Deterministically fold integer words into a 64-bit sub-seed.

    Used to give every (epoch, sample) pair its own independent stream
    without any cross-run state.
    """
    with np.errstate(over="ignore"):
        h = np.uint64(base & 0xFFFFFFFFFFFFFFFF)
        for w in words:
            h = _mix64((h + _GOLDEN) ^ np.uint64(w & 0xFFFFFFFFFFFFFFFF))
    return int(h)


# Cache of wrap-around gather indices keyed by (H, W, kh, kw, direction):
# direction 1 is the forward taps, -1 the mirrored taps, "col2im" the mirrored
# taps offset into a tap-major (kh*kw*H*W) row.
_IDX_CACHE: dict[tuple, np.ndarray] = {}


def _circular_indices(h: int, w: int, kh: int, kw: int, sign: int = 1) -> np.ndarray:
    """(kh*kw, H*W) flat offsets rows[dr, r]*W + cols[dc, c] of the wrapped
    taps, ordered (dr, dc) by (r, c); ``sign=-1`` flips each tap offset."""
    key = (h, w, kh, kw, sign)
    idx = _IDX_CACHE.get(key)
    if idx is None:
        rows = (np.arange(h)[None, :] + sign * (np.arange(kh)[:, None] - kh // 2)) % h
        cols = (np.arange(w)[None, :] + sign * (np.arange(kw)[:, None] - kw // 2)) % w
        idx = (rows[:, None, :, None] * w + cols[None, :, None, :]).reshape(kh * kw, h * w)
        _IDX_CACHE[key] = idx
    return idx


def _col2im_indices(h: int, w: int, kh: int, kw: int) -> np.ndarray:
    """(kh*kw, H*W) indices t*H*W + mirrored offset into a tap-major row, so
    one ``np.take`` moves every tap's column back to the pixel it came from."""
    key = (h, w, kh, kw, "col2im")
    idx = _IDX_CACHE.get(key)
    if idx is None:
        taps = np.arange(kh * kw)[:, None] * (h * w)
        idx = _IDX_CACHE[key] = taps + _circular_indices(h, w, kh, kw, -1)
    return idx


def _gather_patches(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(B, Cin, H, W) -> (B, Cin*kh*kw, H*W) with circular boundary."""
    b, cin, h, w = x.shape
    idx = _circular_indices(h, w, kh, kw)
    patches = np.take(x.reshape(b, cin, h * w), idx, axis=2)  # (B, Cin, kh*kw, H*W)
    return patches.reshape(b, cin * kh * kw, h * w)


def conv2d_circular(
    x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """2-D convolution with wrap-around boundary.

    out(o, r, c) = bias(o) + sum_i,dr,dc x(i, (r+dr) mod H, (c+dc) mod W)
                   * kernel(o, i, dr+kh//2, dc+kw//2)

    x is a (B, Cin, H, W) batch; kernel is (Cout, Cin, kh, kw) with odd kh,
    kw; bias is (Cout,) or None for no bias.
    """
    b, cin, h, w = x.shape
    cout, kcin, kh, kw = kernel.shape
    if kcin != cin:
        raise ShapeError(
            f"conv2d_circular: kernel expects {kcin} input channels, "
            f"input has {cin} (input {tuple(x.shape[1:])}, kernel {tuple(kernel.shape)})"
        )
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d_circular: kernel dims must be odd, got {kh}x{kw}")
    patches = _gather_patches(x, kh, kw)
    out = kernel.reshape(cout, -1) @ patches  # (B, Cout, H*W) via broadcasting
    out = out.reshape(b, cout, h, w)
    if bias is not None:
        out += bias[None, :, None, None]
    return out


def conv2d_circular_backward(x: np.ndarray, kernel: np.ndarray, gout: np.ndarray):
    """Reverse-mode rule for :func:`conv2d_circular` on batched input.

    Returns (gx, gkernel, gbias) for cotangent ``gout`` of the output.  Each
    call gathers only its thinner side, so it moves min(Cout, 2*Cin) * kh*kw
    rows of H*W through ``np.take``, not the (Cin + Cout) * kh*kw of gathering
    both sides:

    * Cout <= 2*Cin: ``gout`` is gathered at the mirrored tap offsets into
      G (B, Cout*kh*kw, H*W).  Then gx = K^T G, a plain matmul with the
      kernel laid out (Cin, Cout*kh*kw), and gkernel = sum_b G_b x_b^T; x is
      never gathered.
    * otherwise: x is gathered as the forward pass does, into P, and
      gkernel = sum_b gout_b P_b^T.  gx is col2im: Z = K^T gout has one
      (Cin, tap) row per tap, and one ``np.take`` over a cached flat index
      moves each tap's row back by its offset before the taps are summed.

    The forward patches are not kept from the forward pass: with the cached
    index the gather is cheap, and keeping them would hold every coupling
    conv's im2col matrix in the reverse-sweep record.
    """
    b, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    taps, hw = kh * kw, h * w
    gout_mat = gout.reshape(b, cout, hw)
    gbias = gout_mat.sum(axis=(0, 2))
    if cout <= 2 * cin:
        g = np.take(gout_mat, _circular_indices(h, w, kh, kw, -1), axis=2)
        g = g.reshape(b, cout * taps, hw)
        gx = kernel.transpose(1, 0, 2, 3).reshape(cin, cout * taps) @ g
        gk = np.matmul(g, x.reshape(b, cin, hw).transpose(0, 2, 1)).sum(0)
        gkernel = gk.reshape(cout, taps, cin).transpose(0, 2, 1).reshape(kernel.shape)
    else:
        patches = _gather_patches(x, kh, kw)
        gkernel = np.matmul(gout_mat, patches.transpose(0, 2, 1)).sum(0).reshape(kernel.shape)
        z = kernel.reshape(cout, cin * taps).T @ gout_mat  # (B, Cin*kh*kw, H*W)
        cols = np.take(z.reshape(b, cin, taps * hw), _col2im_indices(h, w, kh, kw), axis=2)
        gx = cols.sum(axis=2)
    return gx.reshape(b, cin, h, w), gkernel, gbias


def small_det_inv(m: np.ndarray):
    """Determinant and inverse of a small square matrix via pivoted LU.

    Raises :class:`SingularMatrixError` when |det| < 1e-12 or det is not
    finite, which signals an invalid flow state upstream.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"small_det_inv: expected square matrix, got {m.shape}")
    det = float(np.linalg.det(m))
    if not math.isfinite(det) or abs(det) < 1e-12:
        raise SingularMatrixError(
            f"matrix of size {m.shape[0]} is numerically singular or not finite "
            f"(det={det:.3e})"
        )
    inverse = np.linalg.inv(m)
    return det, inverse


def gaussian_kernel(sigma: float, radius: int) -> np.ndarray:
    """Normalized isotropic Gaussian tap grid of size (2*radius+1)^2."""
    if sigma <= 0:
        raise ValueError(f"gaussian_kernel: sigma must be positive, got {sigma}")
    if radius < 1:
        raise ValueError(f"gaussian_kernel: radius must be >= 1, got {radius}")
    coords = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(coords[:, None] ** 2 + coords[None, :] ** 2) / (2.0 * sigma * sigma))
    return g / g.sum()
