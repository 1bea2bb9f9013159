"""Dense-tensor substrate: deterministic RNG, circular 2-D convolution,
small-matrix linear algebra, Gaussian kernels.

Tensors are plain ``numpy.ndarray`` objects with dtype float64 and row-major
layout throughout the package; signals are C x H x W, batches B x C x H x W.
All operations here are pure functions of their inputs.

The circular convolution is built from two gathers, each one ``take``
over a cached flat index, called as the array method: the ``np.take``
wrapper adds a Python call, which at 16x16 costs about a third of the
gather.  ``_im2col`` copies each pixel's wrapped taps, and ``_col2im``
applies every tap's kernel slice to the unshifted input first and then
moves each tap's product by its offset before the taps are summed; its
kernel rows and products are laid out tap-major, (tap, channel), so each
tap's moved products are one contiguous row and the sum over taps runs over
long rows.  Both directions gather only the thinner of their two sides,
because the gather, not the matmul, is what costs.  The forward pass is
im2col when the output has at least as many channels (a coupling's first
conv, C/2 -> hidden) and col2im when it has fewer (the second conv,
hidden -> C), moving Cout rows per tap instead of Cin.  The reverse rule
gathers the output cotangent at the mirrored taps when it has at most twice
the input's channels; otherwise it gathers the input for the kernel
gradient and puts the input gradient back by col2im at the mirrored taps.
The forward conv is a layout step, ``conv_layout`` (the kernel reshaped for
its side, a copy on the col2im side), and an apply step, ``conv_apply``; a
caller that convolves with one kernel many times, such as a flow's
inference plan, keeps the layout.  A caller that recomputes a conv's output
in its reverse rule instead of keeping it takes x's taps from
``conv_input_taps`` and hands them to both ``conv_apply`` and
``conv2d_circular_backward``, so the reverse rule's one gather of x serves
both.

Both gathers keep their temporaries, the ``take`` output and on the
col2im side the per-tap products, in one scratch buffer per thread
(``threading.local``), forward and backward alike, so they do not go back to
the allocator and fault in again on the next call.  Each thread's buffer
grows to the largest request it has seen, B*C*kh*kw*H*W values for an
im2col of C channels or 2*B*Cout*kh*kw*H*W for a col2im, and is then kept
for the thread's life.  For a K=3, L=2, D=4, hidden=16 net the forward
col2im of a first-level coupling's second conv sets its size, as every
backward gather is smaller: 2.4 MB in each tile worker at 64x64 and 0.6 MB
for a B=16 16x16 training step.  An untiled call, such as a whole-split
NLL, grows the calling thread's buffer to its own batch.  Nothing a call
returns aliases the buffer, except the taps ``conv_input_taps`` returns:
they must outlive the gathers between the two calls that read them, so
they live in a second buffer per thread, ``_SCRATCH.taps``, until that
thread's next ``conv_input_taps``.  A fresh array each time instead cost a
B=16 16x16 fine-tune step about 120 minor page faults, against 1-2.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from .errors import ShapeError, SingularMatrixError

__all__ = [
    "Prng",
    "derive_seed",
    "conv2d_circular",
    "conv2d_circular_backward",
    "conv_apply",
    "conv_input_taps",
    "conv_layout",
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
    [0, 1).  Gaussians come from pairs of consecutive uniforms (u1, u2),
    each pair giving sqrt(-2 ln(1 - u1)) * cos(2 pi u2) and its sin
    companion, interleaved; a draw of n Gaussians consumes 2 ceil(n / 2)
    uniforms, and a trailing odd sample discards its sin companion.  The
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


_SCRATCH = threading.local()  # .buf: this thread's conv temporaries; .taps: its input taps


def _scratch(size: int, slot: str = "buf") -> np.ndarray:
    """This thread's scratch buffer ``slot`` as ``size`` float64 values,
    grown to fit the largest request and then reused.  Its contents last
    only until the thread's next request for that slot, so no caller may
    return a view of ``buf``."""
    buf = getattr(_SCRATCH, slot, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_SCRATCH, slot, buf)
    return buf[:size]


@functools.cache
def _tap_indices(h: int, w: int, kh: int, kw: int, sign: int, channels: int = 0) -> np.ndarray:
    """(kh*kw, H*W) flat offsets rows[dr, r]*W + cols[dc, c] of the wrapped
    taps, ordered (dr, dc) by (r, c); ``sign=-1`` flips each tap offset.
    With ``channels`` > 0 it is col2im's (kh*kw, channels*H*W) index into
    products laid out (tap, channel, pixel): tap t reads its own block and
    moves each channel's row by its offset."""
    rows = (np.arange(h)[None, :] + sign * (np.arange(kh)[:, None] - kh // 2)) % h
    cols = (np.arange(w)[None, :] + sign * (np.arange(kw)[:, None] - kw // 2)) % w
    idx = (rows[:, None, :, None] * w + cols[None, :, None, :]).reshape(kh * kw, h * w)
    if not channels:
        return idx
    blocks = np.arange(kh * kw * channels).reshape(kh * kw, channels, 1) * (h * w)
    return (blocks + idx[:, None, :]).reshape(kh * kw, channels * h * w)


def _im2col(x: np.ndarray, kh: int, kw: int, sign: int, slot: str = "buf") -> np.ndarray:
    """(B, C, H, W) -> (B, C*kh*kw, H*W): each pixel's wrapped taps, gathered
    into the scratch buffer ``slot``."""
    b, c, h, w = x.shape
    out = _scratch(b * c * kh * kw * h * w, slot).reshape(b, c, kh * kw, h * w)
    x.reshape(b, c, h * w).take(_tap_indices(h, w, kh, kw, sign),
                                axis=2, mode="clip", out=out)
    return out.reshape(b, c * kh * kw, h * w)


def _col2im(kmat: np.ndarray, x: np.ndarray, kh: int, kw: int, sign: int) -> np.ndarray:
    """The sum over taps t of the tap-t rows of kmat x, each moved by tap t's
    offset, for ``kmat`` laid out (kh*kw*Cout, C), tap-major: a fresh
    (B, Cout, H*W) array; the products and their gather live in the scratch
    buffer.  Tap-major products make each tap's moved block one contiguous
    Cout*H*W row, so the sum over taps runs over long rows."""
    b, c, h, w = x.shape
    taps, hw = kh * kw, h * w
    cout = kmat.shape[0] // taps
    n = b * kmat.shape[0] * hw
    scratch = _scratch(2 * n)
    z = np.matmul(kmat, x.reshape(b, c, hw), out=scratch[:n].reshape(b, -1, hw))
    cols = scratch[n:].reshape(b, taps, cout * hw)
    z.reshape(b, -1).take(_tap_indices(h, w, kh, kw, sign, cout),
                          axis=1, mode="clip", out=cols)
    return cols.sum(axis=1).reshape(b, cout, hw)


def _gathers_input(cout: int, cin: int) -> bool:
    """Whether :func:`conv2d_circular_backward` gathers the conv's input x
    (rather than the output cotangent) for a kernel of these channels."""
    return cout > 2 * cin


def conv_layout(kernel: np.ndarray, bias: np.ndarray | None = None):
    """The layout step of :func:`conv2d_circular`: ``kernel`` (Cout, Cin, kh,
    kw, odd kh and kw) and ``bias`` (Cout,) or None, laid out for the side
    the conv gathers, as :func:`conv_apply` takes them.  With Cout >= Cin
    that is im2col and the kernel is a (Cout, Cin*kh*kw) view; otherwise
    col2im and a (kh*kw*Cout, Cin) copy, tap-major.  A caller that
    convolves with one kernel many times can keep the layout and call
    ``conv_apply`` alone."""
    cout, cin, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d_circular: kernel dims must be odd, got {kh}x{kw}")
    col2im = cout < cin
    if col2im:
        kmat = kernel.transpose(2, 3, 0, 1).reshape(kh * kw * cout, cin)
    else:
        kmat = kernel.reshape(cout, -1)
    return kmat, cout, kh, kw, col2im, None if bias is None else bias[None, :, None, None]


def conv_apply(x: np.ndarray, layout, patches: np.ndarray | None = None) -> np.ndarray:
    """The apply step of :func:`conv2d_circular`: convolve the (B, Cin, H, W)
    batch ``x`` with a kernel laid out by :func:`conv_layout`, whose input
    channels must be x's.  The result is a new array.  ``patches``, x's taps
    from :func:`conv_input_taps`, replace the gather of an im2col layout."""
    kmat, cout, kh, kw, col2im, bias = layout
    b, _, h, w = x.shape
    if col2im:
        out = _col2im(kmat, x, kh, kw, 1)
    else:
        if patches is None:
            patches = _im2col(x, kh, kw, 1)
        out = kmat @ patches  # (B, Cout, H*W) via broadcasting
    out = out.reshape(b, cout, h, w)
    if bias is not None:
        out += bias
    return out


def conv_input_taps(x: np.ndarray, kernel: np.ndarray) -> np.ndarray | None:
    """x's im2col taps when :func:`conv2d_circular_backward` gathers x for
    this kernel (Cout > 2*Cin, an im2col layout), else None: the
    ``patches`` that ``conv_apply`` and the reverse rule both take.  A
    caller that recomputes a conv's output for its reverse rule, rather
    than keeping it, so gathers x once for both.  The taps are a view of
    this thread's second scratch buffer, valid until its next call here;
    the gathers in between use the first."""
    cout, cin, kh, kw = kernel.shape
    return _im2col(x, kh, kw, 1, "taps") if _gathers_input(cout, cin) else None


def conv2d_circular(
    x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """2-D convolution with wrap-around boundary.

    out(o, r, c) = bias(o) + sum_i,dr,dc x(i, (r+dr) mod H, (c+dc) mod W)
                   * kernel(o, i, dr+kh//2, dc+kw//2)

    x is a (B, Cin, H, W) batch; kernel is (Cout, Cin, kh, kw) with odd kh,
    kw; bias is (Cout,) or None for no bias.  The result is a new array.
    With Cout >= Cin the output is K P for the gathered taps P of x (im2col);
    otherwise it is the col2im of K' x, the kernel laid out (Cout*kh*kw, Cin).
    It is :func:`conv_layout` then :func:`conv_apply`.
    """
    if kernel.shape[1] != x.shape[1]:
        raise ShapeError(
            f"conv2d_circular: kernel expects {kernel.shape[1]} input channels, "
            f"input has {x.shape[1]} (input {tuple(x.shape[1:])}, kernel {tuple(kernel.shape)})"
        )
    return conv_apply(x, conv_layout(kernel, bias))


def conv2d_circular_backward(x: np.ndarray, kernel: np.ndarray, gout: np.ndarray,
                             patches: np.ndarray | None = None):
    """Reverse-mode rule for :func:`conv2d_circular` on batched input.

    Returns (gx, gkernel, gbias) for cotangent ``gout`` of the output.  Each
    call gathers only its thinner side, so it moves min(Cout, 2*Cin) * kh*kw
    rows of H*W through ``take``, not the (Cin + Cout) * kh*kw of gathering
    both sides:

    * Cout <= 2*Cin: ``gout`` is gathered at the mirrored tap offsets into
      G (B, Cout*kh*kw, H*W).  Then gx = K^T G, a plain matmul with the
      kernel laid out (Cin, Cout*kh*kw), and gkernel = sum_b G_b x_b^T; x is
      never gathered.
    * otherwise: x is gathered as the forward pass does, into P, and
      gkernel = sum_b gout_b P_b^T; gx is the col2im of K^T gout at the
      mirrored offsets.  ``patches``, x's taps from
      :func:`conv_input_taps`, replace that gather.

    No caller keeps the forward patches in a record: with the cached index
    the gather is cheap, and keeping them would hold every coupling conv's
    im2col matrix in the reverse-sweep record.
    """
    b, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    gout_mat = gout.reshape(b, cout, h * w)
    gbias = gout_mat.sum(axis=(0, 2))
    if not _gathers_input(cout, cin):
        g = _im2col(gout, kh, kw, -1)
        gx = kernel.transpose(1, 0, 2, 3).reshape(cin, -1) @ g
        gk = np.matmul(g, x.reshape(b, cin, h * w).transpose(0, 2, 1)).sum(0)
        gkernel = gk.reshape(cout, kh * kw, cin).transpose(0, 2, 1).reshape(kernel.shape)
    else:
        if patches is None:
            patches = _im2col(x, kh, kw, 1)
        gkernel = np.matmul(gout_mat, patches.transpose(0, 2, 1)).sum(0).reshape(kernel.shape)
        # tap-major K^T as a transposed view, which BLAS rounds as it rounds
        # kernel.reshape(cout, -1).T; a contiguous copy can round otherwise
        kmat = kernel.transpose(0, 2, 3, 1).reshape(cout, kh * kw * cin).T
        gx = _col2im(kmat, gout, kh, kw, -1)
    return gx.reshape(b, cin, h, w), gkernel, gbias


def small_det_inv(m: np.ndarray):
    """Determinant and inverse of a small square matrix via pivoted LU, or
    of each matrix of an (S, n, n) stack: an array of S determinants and
    the S inverses.  ``np.linalg`` runs one LAPACK factorization per
    matrix of a stack, so each result is bitwise the one its matrix gets
    alone.

    Raises :class:`SingularMatrixError` when |det| < 1e-12 or det is not
    finite, which signals an invalid flow state upstream; for a stack, the
    error's ``index`` is the position of the first such matrix.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise ShapeError(f"small_det_inv: expected square matrix, got {m.shape}")
    det = np.linalg.det(m)
    bad = ~np.isfinite(det) | (np.abs(det) < 1e-12)
    if bad.any():
        index = int(np.argmax(bad)) if m.ndim == 3 else None
        raise SingularMatrixError(
            f"matrix of size {m.shape[-1]} is numerically singular or not finite "
            f"(det={float(det if index is None else det[index]):.3e})",
            index,
        )
    inverse = np.linalg.inv(m)
    return (float(det) if m.ndim == 2 else det), inverse


def gaussian_kernel(sigma: float, radius: int) -> np.ndarray:
    """Normalized isotropic Gaussian tap grid of size (2*radius+1)^2."""
    if sigma <= 0:
        raise ValueError(f"gaussian_kernel: sigma must be positive, got {sigma}")
    if radius < 1:
        raise ValueError(f"gaussian_kernel: radius must be >= 1, got {radius}")
    coords = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(coords[:, None] ** 2 + coords[None, :] ** 2) / (2.0 * sigma * sigma))
    return g / g.sum()
