"""Linear measurement operators and the noisy measurement synthesizer.

Each operator knows its image shape, applies to a single (C, H, W) image or a
(B, C, H, W) batch, and provides an exact adjoint.  All three kinds are
self-adjoint here (identity and mask are diagonal, the blur kernel is
even-symmetric under circular boundary), but callers must go through
``adjoint`` anyway so the data-consistency gradient stays correct if a
non-symmetric operator is ever added.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Prng, conv2d_circular, gaussian_kernel

__all__ = [
    "ForwardOp",
    "Identity",
    "CenterMask",
    "GaussianBlur",
    "make_measurement",
    "default_geometry",
    "operator_for_task",
]


class ForwardOp:
    """Contract: linear map with apply/adjoint over a fixed image shape."""

    kind = "abstract"

    def __init__(self, shape: tuple[int, int, int]):
        self.shape = tuple(shape)

    def _check(self, x: np.ndarray) -> None:
        if x.shape[-3:] != self.shape or x.ndim not in (3, 4):
            raise ShapeError.mismatch(f"{self.kind} input", x.shape, self.shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Identity(ForwardOp):
    """Denoising: A = I."""

    kind = "identity"

    def apply(self, x):
        self._check(x)
        return x.copy()

    def adjoint(self, v):
        self._check(v)
        return v.copy()


class CenterMask(ForwardOp):
    """Inpainting: zero a centered w x w window in every channel.

    Masked pixels are measured as exact zeros, keeping the operator square;
    a diagonal 0/1 projection, hence self-adjoint and idempotent.
    """

    kind = "center_mask"

    def __init__(self, shape, w: int):
        super().__init__(shape)
        _, h, wid = self.shape
        if not 1 <= w <= min(h, wid):
            raise ConfigError(f"mask width {w} outside [1, {min(h, wid)}]")
        self.w = w
        self.r0 = (h - w) // 2
        self.c0 = (wid - w) // 2

    def apply(self, x):
        self._check(x)
        y = x.copy()
        y[..., self.r0 : self.r0 + self.w, self.c0 : self.c0 + self.w] = 0.0
        return y

    adjoint = apply


class GaussianBlur(ForwardOp):
    """Deblurring: per-channel circular convolution with a normalized
    truncated Gaussian.  Even symmetry + circular boundary make the matrix
    symmetric, so the adjoint is the same convolution.

    The 2-D kernel is the outer product of its 1-D marginal with itself, so
    the blur runs as a row pass and then a column pass: 2(2r+1) taps per
    pixel, not (2r+1)^2, equal to the 2-D convolution up to rounding.
    """

    kind = "gaussian_blur"

    def __init__(self, shape, sigma_b: float, radius: int):
        super().__init__(shape)
        if sigma_b <= 0:
            raise ConfigError(f"blur sigma must be positive, got {sigma_b}")
        if radius < 1:
            raise ConfigError(f"blur radius must be >= 1, got {radius}")
        self.sigma_b = float(sigma_b)
        self.radius = int(radius)
        taps = gaussian_kernel(self.sigma_b, self.radius).sum(axis=0)
        self.row_kernel = taps[None, None, None, :]
        self.col_kernel = taps[None, None, :, None]

    def apply(self, x):
        self._check(x)
        # every channel of every image blurs as one single-channel image
        flat = x.reshape((-1, 1) + x.shape[-2:])
        rows = conv2d_circular(flat, self.row_kernel)
        return conv2d_circular(rows, self.col_kernel).reshape(x.shape)

    adjoint = apply


def make_measurement(
    op: ForwardOp, x: np.ndarray, sigma_n: float, rng: Prng
) -> np.ndarray:
    """y = A x + eta with eta i.i.d. Gaussian (mean 0, std sigma_n).

    sigma_n = 0 returns A x exactly, consuming no random draws.
    """
    if sigma_n < 0:
        raise ConfigError(f"noise std must be >= 0, got {sigma_n}")
    y = op.apply(x)
    if sigma_n > 0:
        y = y + sigma_n * rng.gauss_array(y.shape)
    return y


TASKS = ("denoise", "inpaint", "deblur")


def default_geometry(shape, mask_w: int, sigma_b: float, blur_radius: int):
    """Resolve the zero sentinels of the operator geometry:
    ``(mask_w or ceil(0.3 min(H, W)), blur_radius or ceil(3 sigma_b))``."""
    return (mask_w or -(-3 * min(shape[1], shape[2]) // 10),
            blur_radius or math.ceil(3 * sigma_b))


def operator_for_task(
    task: str,
    shape: tuple[int, int, int],
    mask_w: int = 0,
    sigma_b: float = 1.0,
    blur_radius: int = 0,
) -> ForwardOp:
    """Build the operator a task name calls for; a zero mask width or blur
    radius means its :func:`default_geometry` value."""
    mask_w, blur_radius = default_geometry(shape, mask_w, sigma_b, blur_radius)
    if task == "denoise":
        return Identity(shape)
    if task == "inpaint":
        return CenterMask(shape, mask_w)
    if task == "deblur":
        return GaussianBlur(shape, sigma_b, blur_radius)
    raise ConfigError(f"unknown task {task!r}, expected one of {TASKS}")
