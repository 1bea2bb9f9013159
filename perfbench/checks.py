"""Reference computations the benchmark checks the program against.

Nothing here calls flowunfold: each function re-derives a quantity from its
definition (the PGM and checkpoint formats, PSNR, the circular Gaussian blur
by FFT, the centred inpainting mask, Landweber iteration with shrinkage).
"""

from __future__ import annotations

import math
import re
import struct

import numpy as np


_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+255\s")


def read_pgm(path) -> np.ndarray:
    """Binary PGM (P5, maxval 255, no header comments) as a (H, W) uint8 array."""
    data = path.read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = int(header[1]), int(header[2])
    raster = data[header.end() :]
    if len(raster) != h * w:
        raise ValueError(f"{path}: raster holds {len(raster)} bytes, expected {h * w}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def write_pgm(path, pixels: np.ndarray) -> None:
    h, w = pixels.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (w, h) + pixels.astype(np.uint8).tobytes())


def pixels_to_image(pixels: np.ndarray) -> np.ndarray:
    """uint8 (H, W) -> float (1, H, W) in [-0.5, 0.5], the format's mapping."""
    return pixels[None].astype(float) / 255.0 - 0.5


def psnr_db(x_hat: np.ndarray, x: np.ndarray) -> float:
    mse = float(np.mean((np.asarray(x_hat) - np.asarray(x)) ** 2))
    return 10.0 * math.log10(1.0 / mse)


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Parse the checkpoint format: magic UNFW, u32 version, u64 count, then
    per entry u32 name length, name, u32 rank, u64 dims, f64 values."""
    data = path.read_bytes()
    if data[:4] != b"UNFW":
        raise ValueError(f"{path}: bad magic")
    version, count = struct.unpack_from("<IQ", data, 4)
    if version != 1:
        raise ValueError(f"{path}: version {version}")
    offset = 16
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, offset)
        name = data[offset + 4 : offset + 4 + name_len].decode()
        offset += 4 + name_len
        (rank,) = struct.unpack_from("<I", data, offset)
        dims = struct.unpack_from(f"<{rank}Q", data, offset + 4)
        offset += 4 + 8 * rank
        size = math.prod(dims)
        out[name] = np.frombuffer(data[offset : offset + 8 * size], dtype="<f8").reshape(dims)
        offset += 8 * size
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} bytes after the last entry")
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype="<f8")
    b = np.ascontiguousarray(b, dtype="<f8")
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class FftBlur:
    """Circular correlation with a normalised Gaussian, sigma and radius as
    the deblur task resolves them, computed in the Fourier domain."""

    def __init__(self, h: int, w: int, sigma: float = 1.0):
        radius = math.ceil(3 * sigma)
        offsets = np.arange(-radius, radius + 1)
        taps = np.exp(-(offsets[:, None] ** 2 + offsets[None, :] ** 2) / (2 * sigma * sigma))
        taps /= taps.sum()
        embedded = np.zeros((h, w))
        for i, dr in enumerate(offsets):
            for j, dc in enumerate(offsets):
                embedded[dr % h, dc % w] += taps[i, j]
        self.spectrum = np.fft.fft2(embedded)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.fft.ifft2(np.fft.fft2(x) * np.conj(self.spectrum)).real

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        return np.fft.ifft2(np.fft.fft2(v) * self.spectrum).real


class Masking:
    """The default inpainting operator: zero a centred square of side
    ceil(0.3 min(H, W))."""

    def __init__(self, h: int, w: int):
        side = math.ceil(0.3 * min(h, w))
        r0, c0 = (h - side) // 2, (w - side) // 2
        self.keep = np.ones((h, w))
        self.keep[r0 : r0 + side, c0 : c0 + side] = 0.0

    def apply(self, x):
        return x * self.keep

    adjoint = apply


def landweber(y: np.ndarray, op, mus, rhos) -> np.ndarray:
    """x_0 = 0; x <- x + mu_k A^T (y - A x), then divide by 1 + softplus(rho_k)
    on every fold but the last: what K folds of identity flows compute."""
    x = np.zeros_like(y)
    last = len(mus) - 1
    for k, (mu, rho) in enumerate(zip(mus, rhos)):
        x = x + mu * op.adjoint(y - op.apply(x))
        if k < last:
            x = x / (1.0 + float(np.logaddexp(0.0, rho)))
    return x


def fd_jacobian(f, x: np.ndarray, h: float = 1e-6, agree: float = 1e-7) -> np.ndarray:
    """Jacobian of f at x (a batch of one) by central differences, one row
    per input coordinate.  ReLU kinks and clamps make f only piecewise
    smooth, so a column whose estimates at steps h and h/2 disagree by more
    than ``agree`` crossed a kink and is estimated again at an eighth of the
    step, up to three times."""
    n = x.size

    def central(cols, step):
        basis = np.zeros((len(cols), n))
        basis[np.arange(len(cols)), cols] = step
        basis = basis.reshape((len(cols),) + x.shape[1:])
        return (f(x + basis) - f(x - basis)) / (2 * step)

    jac = np.empty((n, n))
    cols = np.arange(n)
    for _ in range(4):
        coarse, fine = central(cols, h), central(cols, h / 2)
        jac[cols] = fine
        cols = cols[np.max(np.abs(coarse - fine), axis=1) > agree]
        if len(cols) == 0:
            break
        h /= 8
    return jac
