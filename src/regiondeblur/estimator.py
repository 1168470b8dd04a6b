"""Blind kernel estimation by coarse-to-fine alternating minimization.

Each pyramid level alternates three steps: predict salient gradients from the
current latent image (Gaussian presmoothing, a few shock-filter iterations,
forward differences, keep only the strongest fraction), solve for the kernel
in the frequency domain with Tikhonov damping, then solve for the latent
image with a gradient-penalized Wiener filter. Kernels are upsampled
bilinearly between levels and re-projected onto the simplex-like constraint
set (non-negative, small entries zeroed, unit sum).

Callers choose only the kernel size (`EstimatorConfig`). Seven settings are
fixed module constants, collected in `SETTINGS`: the pyramid ratio between
levels, the iterations per level, the kernel solve's damping, the latent
solve's gradient penalty, the fraction of gradients kept, the number of
shock-filter iterations, and the presmoothing sigma.

Both solves work on real half spectra (rfft2/irfft2). Transforms per call:
predict_gradients none; solve_kernel five (four forward, one inverse);
solve_latent five (the kernel's OTF, the edge taper's circular blur forward
and back, the tapered image forward, the solution back), or three for a 1x1
kernel, which needs no taper. The taper reuses the Wiener solve's OTF, and
the gradient penalty |Dx|^2 + |Dy|^2 is closed-form, so no transform is
spent on data that depends only on the image shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from scipy import ndimage

from .errors import DegenerateInputError, DimensionError, ValidationError
from .imagecore import (
    Image, Kernel, _periodic_taper, _resample_to, kernel_otf, resample, taper_window,
)

_SHOCK_DT = 0.5
_LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])
_KERNEL_TAIL_DIVISOR = 20.0
_COARSEST_KERNEL_SIDE = 5

# Each setting is written once; labeling hashes them, with the kernel size,
# into a dataset's estimator fingerprint.
SETTINGS = MappingProxyType({
    "pyramid_ratio": 1.0 / math.sqrt(2.0),
    "iterations_per_level": 5,
    "kernel_reg": 5.0,
    "latent_reg": 2e-3,
    "gradient_keep_ratio": 0.10,
    "shock_iterations": 2,
    "presmooth_sigma": 1.0,
})
PYRAMID_RATIO = SETTINGS["pyramid_ratio"]
ITERATIONS_PER_LEVEL = SETTINGS["iterations_per_level"]
KERNEL_REG = SETTINGS["kernel_reg"]
LATENT_REG = SETTINGS["latent_reg"]
GRADIENT_KEEP_RATIO = SETTINGS["gradient_keep_ratio"]
SHOCK_ITERATIONS = SETTINGS["shock_iterations"]
PRESMOOTH_SIGMA = SETTINGS["presmooth_sigma"]


@dataclass(frozen=True)
class EstimatorConfig:
    kernel_size: int

    def __post_init__(self):
        if self.kernel_size < 3 or self.kernel_size % 2 == 0:
            raise ValidationError(f"kernel_size must be odd and >= 3, got {self.kernel_size}")


@dataclass(frozen=True)
class PyramidLevel:
    image: Image
    kernel_size: int
    scale: float


@dataclass(frozen=True)
class KernelEstimate:
    """Final kernel plus per-level snapshots; `degenerate` flags the delta fallback."""

    kernel: Kernel
    degenerate: bool
    per_level: tuple[Kernel, ...]


def _nearest_odd(value: float) -> int:
    return max(3, 2 * int(value // 2) + 1)


def build_pyramid(blurred: Image, cfg: EstimatorConfig) -> tuple[PyramidLevel, ...]:
    """Coarse-to-fine schedule; level count is the smallest n with
    kernel_size * ratio^(n-1) <= coarsest side (5)."""
    if 3 * cfg.kernel_size > min(blurred.shape):
        raise DimensionError(
            f"image dims {blurred.shape} must be at least 3x the kernel size {cfg.kernel_size}"
        )
    n = 1
    while cfg.kernel_size * PYRAMID_RATIO ** (n - 1) > _COARSEST_KERNEL_SIDE:
        n += 1
    levels = []
    for idx in range(n):
        scale = PYRAMID_RATIO ** (n - 1 - idx)
        size = _nearest_odd(cfg.kernel_size * scale)
        img = blurred if scale == 1.0 else resample(blurred, scale)
        levels.append(PyramidLevel(image=img, kernel_size=size, scale=scale))
    return tuple(levels)


def _forward_diff(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gx = np.zeros_like(arr)
    gy = np.zeros_like(arr)
    gx[:, :-1] = arr[:, 1:] - arr[:, :-1]
    gy[:-1, :] = arr[1:, :] - arr[:-1, :]
    return gx, gy


def _shock_step(arr: np.ndarray) -> np.ndarray:
    lap = ndimage.convolve(arr, _LAPLACIAN, mode="nearest")
    gy, gx = np.gradient(arr)
    return arr - np.sign(lap) * np.hypot(gx, gy) * _SHOCK_DT


def predict_gradients(latent: Image) -> tuple[np.ndarray, np.ndarray]:
    """Salient forward-difference gradients of the shock-sharpened latent image."""
    arr = ndimage.gaussian_filter(latent.pixels, PRESMOOTH_SIGMA, mode="nearest")
    for _ in range(SHOCK_ITERATIONS):
        arr = _shock_step(arr)
    gx, gy = _forward_diff(arr)
    mag = np.hypot(gx, gy)
    n = mag.size
    keep = max(1, int(math.floor(GRADIENT_KEEP_RATIO * n)))
    threshold = np.partition(mag.ravel(), n - keep)[n - keep]
    mask = (mag >= threshold) & (mag > 0)
    return gx * mask, gy * mask


def project_kernel(weights: np.ndarray) -> Kernel:
    """Clamp negatives, zero entries below max/20, renormalize to unit sum."""
    arr = np.asarray(weights, dtype=np.float64).copy()
    arr[arr < 0] = 0.0
    peak = arr.max(initial=0.0)
    if peak <= 0.0:
        raise DegenerateInputError("kernel projection received no positive mass")
    arr[arr < peak / _KERNEL_TAIL_DIVISOR] = 0.0
    return Kernel(arr / arr.sum())


def solve_kernel(
    grad_latent: tuple[np.ndarray, np.ndarray],
    grad_blurred: tuple[np.ndarray, np.ndarray],
    size: int,
    reg: float = KERNEL_REG,
) -> Kernel:
    """Least-squares kernel in the frequency domain, cropped and projected."""
    gx_s, gy_s = (np.asarray(g, dtype=np.float64) for g in grad_latent)
    gx_b, gy_b = (np.asarray(g, dtype=np.float64) for g in grad_blurred)
    if not (gx_s.shape == gy_s.shape == gx_b.shape == gy_b.shape):
        raise DimensionError("gradient maps must share one shape")
    if size < 1 or size % 2 == 0:
        raise ValidationError(f"kernel size must be odd and positive, got {size}")
    if size > min(gx_s.shape):
        raise DimensionError(f"kernel size {size} exceeds gradient map dims {gx_s.shape}")
    if not np.any(gx_s) and not np.any(gy_s):
        raise DegenerateInputError("latent gradients are identically zero")
    fx_s = np.fft.rfft2(gx_s)
    fy_s = np.fft.rfft2(gy_s)
    numerator = np.conj(fx_s) * np.fft.rfft2(gx_b) + np.conj(fy_s) * np.fft.rfft2(gy_b)
    denominator = _power(fx_s) + _power(fy_s) + reg
    full = np.fft.irfft2(numerator / denominator, s=gx_s.shape)
    half = size // 2
    block = np.roll(full, (half, half), axis=(0, 1))[:size, :size]
    return project_kernel(block)


def solve_latent(blurred: Image, k: Kernel, reg: float = LATENT_REG) -> Image:
    """Gradient-penalized Wiener deconvolution with edge-tapered boundaries."""
    if not (reg > 0):
        raise ValidationError(f"reg must be positive, got {reg!r}")
    shape = blurred.shape
    otf = kernel_otf(k.weights, shape)
    pixels = blurred.pixels
    if k.side_h > 1 or k.side_w > 1:
        pixels = _periodic_taper(pixels, otf, (k.side_h // 2, k.side_w // 2))
    denominator = _power(otf) + reg * _gradient_penalty(shape)
    latent = np.fft.irfft2(np.conj(otf) * np.fft.rfft2(pixels) / denominator, s=shape)
    return Image(latent)


def deconvolve(blurred: Image, kernel: Kernel, reg: float = LATENT_REG) -> Image:
    """Recover the latent image under ``kernel``, clipped to [0, 1]."""
    return Image(np.clip(solve_latent(blurred, kernel, reg).pixels, 0.0, 1.0))


def _power(spectrum: np.ndarray) -> np.ndarray:
    return spectrum.real ** 2 + spectrum.imag ** 2


@functools.lru_cache(maxsize=64)
def _difference_power(n: int, count: int) -> np.ndarray:
    """|1 - exp(-2 pi i f / n)|^2, the power of a forward difference along a
    side of n pixels, for the first `count` frequencies f."""
    power = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(count) / n)
    power.flags.writeable = False
    return power


def _gradient_penalty(shape: tuple[int, int]) -> np.ndarray:
    """|Dx|^2 + |Dy|^2 of the forward differences on the half spectrum."""
    h, w = shape
    return _difference_power(h, h)[:, None] + _difference_power(w, w // 2 + 1)[None, :]


def _recenter(k: Kernel) -> Kernel:
    rows, cols = np.indices(k.weights.shape)
    mass = k.weights.sum()
    dr = int(round((k.side_h - 1) / 2.0 - float((rows * k.weights).sum() / mass)))
    dc = int(round((k.side_w - 1) / 2.0 - float((cols * k.weights).sum() / mass)))
    if dr == 0 and dc == 0:
        return k
    shifted = np.zeros_like(k.weights)
    src_r = slice(max(0, -dr), k.side_h - max(0, dr))
    dst_r = slice(max(0, dr), k.side_h - max(0, -dr))
    src_c = slice(max(0, -dc), k.side_w - max(0, dc))
    dst_c = slice(max(0, dc), k.side_w - max(0, -dc))
    shifted[dst_r, dst_c] = k.weights[src_r, src_c]
    total = shifted.sum()
    if total <= 0:
        return k
    return Kernel(shifted / total)


def _upsample_kernel(k: Kernel, new_size: int) -> Kernel:
    if new_size == k.side_h and new_size == k.side_w:
        return k
    return project_kernel(_resample_to(k.weights, new_size, new_size))


def estimate_kernel(blurred: Image, cfg: EstimatorConfig) -> KernelEstimate:
    """Run the full coarse-to-fine loop on one blurred image.

    A flat input (no usable gradients at the coarsest level) returns the
    delta kernel with `degenerate=True` instead of raising.
    """
    pyramid = build_pyramid(blurred, cfg)
    kernel: Kernel | None = None
    per_level: list[Kernel] = []
    for level_index, level in enumerate(pyramid):
        observed = level.image.pixels
        window = taper_window(observed.shape, (level.kernel_size, level.kernel_size))
        gx_b, gy_b = _forward_diff(observed)
        gx_b, gy_b = gx_b * window, gy_b * window
        if kernel is None:
            latent = level.image
            current = Kernel.delta(level.kernel_size)
        else:
            current = _upsample_kernel(kernel, level.kernel_size)
        solved = False
        for iteration in range(ITERATIONS_PER_LEVEL):
            if kernel is not None or iteration > 0:
                latent = deconvolve(level.image, current)
            gx_s, gy_s = predict_gradients(latent)
            gx_s, gy_s = gx_s * window, gy_s * window
            try:
                current = solve_kernel((gx_s, gy_s), (gx_b, gy_b), level.kernel_size)
                solved = True
            except DegenerateInputError:
                pass
        if level_index == 0 and not solved:
            delta = Kernel.delta(cfg.kernel_size)
            return KernelEstimate(kernel=delta, degenerate=True, per_level=(Kernel.delta(level.kernel_size),))
        current = _recenter(current)
        per_level.append(current)
        kernel = current
    return KernelEstimate(kernel=kernel, degenerate=False, per_level=tuple(per_level))

