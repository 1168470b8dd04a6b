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
shock-filter iterations, and the presmoothing sigma. `estimate_kernel`
returns only the final kernel and whether it fell back to the delta.
`deconvolve` is the one clip-and-solve step, always at `LATENT_REG`: the
estimator's latent updates and every caller that deblurs an image share it.
`solve_latent` keeps its weight as a parameter for tests that vary it.

Both solves work on real half spectra (rfft2/irfft2). Transforms per call:
predict_gradients none; solve_kernel three (the two latent gradients
forward, the solution back), as its caller passes the observed gradients'
half spectra; solve_latent five (the kernel's OTF, the edge taper's
circular blur forward and back, the tapered image forward, the solution
back), or three for a 1x1 kernel, which needs no taper. The taper reuses
the Wiener solve's OTF, and the gradient penalty |Dx|^2 + |Dy|^2 is
closed-form, so no transform is spent on data that depends only on the
image shape.

`estimate_kernel` transforms the observed gradients once per level (2
transforms) and calls `solve_kernel` and `deconvolve` on every iteration
(8 transforms), so a level makes 42 transforms and the first level 37, as
it skips one latent solve.

The module imports only numpy. Presmoothing is
`scipy.ndimage.gaussian_filter(mode="nearest")` to the bit, and the shock
filter the step that `ndimage.convolve` and `np.gradient` would build, so
scipy serves only as the tests' oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DegenerateInputError, DimensionError, ValidationError
from .imagecore import (
    Image, Kernel, _periodic_taper, _resample_to, kernel_otf, resample, taper_window,
)

_SHOCK_DT = 0.5
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


def _gaussian_taps(sigma: float) -> np.ndarray:
    """The taps `ndimage.gaussian_filter` correlates with (truncated at 4 sigma)."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    taps = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    taps = (taps / taps.sum())[::-1]
    taps.flags.writeable = False
    return taps


_PRESMOOTH_TAPS = _gaussian_taps(PRESMOOTH_SIGMA)


@dataclass(frozen=True)
class EstimatorConfig:
    kernel_size: int

    def __post_init__(self):
        if self.kernel_size < 3 or self.kernel_size % 2 == 0:
            raise ValidationError(f"kernel_size must be odd and >= 3, got {self.kernel_size}")

    @classmethod
    def for_kernel(cls, kernel: Kernel) -> "EstimatorConfig":
        """The config that can represent ``kernel``: sized at its longer side."""
        return cls(kernel_size=max(kernel.side_h, kernel.side_w))


@dataclass(frozen=True)
class PyramidLevel:
    image: Image
    kernel_size: int


@dataclass(frozen=True)
class KernelEstimate:
    """Final kernel; `degenerate` flags the delta fallback."""

    kernel: Kernel
    degenerate: bool


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
        levels.append(PyramidLevel(image=img, kernel_size=size))
    return tuple(levels)


def _forward_diff(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gx = np.zeros_like(arr)
    gy = np.zeros_like(arr)
    gx[:, :-1] = arr[:, 1:] - arr[:, :-1]
    gy[:-1, :] = arr[1:, :] - arr[:-1, :]
    return gx, gy


def _shock_step(arr: np.ndarray) -> np.ndarray:
    """One shock-filter step from a single edge-padded copy of `arr`.

    The Laplacian adds its taps in `ndimage.convolve`'s order and the
    central differences are `np.gradient`'s (halved inside, one-sided at
    the edges), so the step is bit-identical to one built from those. The
    pad's corners are never read."""
    h, w = arr.shape
    padded = np.empty((h + 2, w + 2))
    padded[1:-1, 1:-1] = arr
    padded[0, 1:-1] = arr[0]
    padded[-1, 1:-1] = arr[-1]
    padded[1:-1, 0] = arr[:, 0]
    padded[1:-1, -1] = arr[:, -1]
    up, down = padded[:-2, 1:-1], padded[2:, 1:-1]
    left, right = padded[1:-1, :-2], padded[1:-1, 2:]
    lap = up + left
    lap += arr * -4.0
    lap += right
    lap += down
    # Across the pad a central difference is the one-sided one.
    gx = right - left
    gx[:, 1:-1] *= 0.5
    gy = down - up
    gy[1:-1] *= 0.5
    return arr - np.sign(lap) * np.hypot(gx, gy) * _SHOCK_DT


def _smooth_columns(arr: np.ndarray) -> np.ndarray:
    """`arr` correlated with `_PRESMOOTH_TAPS` along axis 0, edges replicated,
    summed as `ndimage.correlate1d` sums symmetric taps: the centre tap's
    product, then for each mirrored pair from the outermost in, the pair's
    sum times its tap, added in place. Along axis 0 each shifted window is
    one contiguous block, and one scratch buffer holds each pair's product,
    so the pass allocates nothing per tap."""
    r = len(_PRESMOOTH_TAPS) // 2
    n = len(arr)
    padded = np.empty((n + 2 * r,) + arr.shape[1:])
    padded[r:r + n] = arr
    padded[:r] = arr[0]
    padded[r + n:] = arr[-1]
    out = padded[r:r + n] * _PRESMOOTH_TAPS[r]
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(padded[r - j:r - j + n], padded[r + j:r + j + n], pair)
        pair *= _PRESMOOTH_TAPS[r + j]
        out += pair
    return out


def _presmooth(pixels: np.ndarray) -> np.ndarray:
    """`ndimage.gaussian_filter(pixels, PRESMOOTH_SIGMA, mode="nearest")` bit
    for bit: its `correlate1d` pass along axis 0, then the one along axis 1
    (run on the transpose), each with ndimage's symmetric-tap arithmetic in
    ndimage's order. The result is C-contiguous, like ndimage's."""
    return np.ascontiguousarray(_smooth_columns(_smooth_columns(pixels).T).T)


def predict_gradients(latent: Image) -> tuple[np.ndarray, np.ndarray]:
    """Salient forward-difference gradients of the shock-sharpened latent image."""
    arr = _presmooth(latent.pixels)
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
    observed_spectra: tuple[np.ndarray, np.ndarray],
    size: int,
    reg: float = KERNEL_REG,
) -> Kernel:
    """Least-squares kernel in the frequency domain, cropped and projected.

    `observed_spectra` are the rfft2 half spectra of the observed gradients,
    which stay fixed while the latent gradients change."""
    gx_s, gy_s = (np.asarray(g, dtype=np.float64) for g in grad_latent)
    fx_b, fy_b = (np.asarray(f) for f in observed_spectra)
    h, w = gx_s.shape
    if gy_s.shape != (h, w):
        raise DimensionError("gradient maps must share one shape")
    if not (fx_b.shape == fy_b.shape == (h, w // 2 + 1)):
        raise DimensionError(
            f"spectra must be ({h}, {w // 2 + 1}), got {fx_b.shape} and {fy_b.shape}")
    if size < 1 or size % 2 == 0:
        raise ValidationError(f"kernel size must be odd and positive, got {size}")
    if size > min(h, w):
        raise DimensionError(f"kernel size {size} exceeds gradient map dims {gx_s.shape}")
    if not np.any(gx_s) and not np.any(gy_s):
        raise DegenerateInputError("latent gradients are identically zero")
    fx_s = np.fft.rfft2(gx_s)
    fy_s = np.fft.rfft2(gy_s)
    numerator = np.conj(fx_s) * fx_b + np.conj(fy_s) * fy_b
    denominator = _power(fx_s) + _power(fy_s) + reg
    full = np.fft.irfft2(numerator / denominator, s=gx_s.shape)
    # Rows and columns -size//2 .. size//2 of the circular solution, wrapped,
    # are the kernel centred on the origin.
    offsets = np.arange(size) - size // 2
    block = full.take(offsets, axis=0, mode="wrap").take(offsets, axis=1, mode="wrap")
    return project_kernel(block)


def solve_latent(blurred: Image, k: Kernel, reg: float = LATENT_REG) -> Image:
    """Gradient-penalized Wiener deconvolution with edge-tapered boundaries."""
    if not (reg > 0):
        raise ValidationError(f"reg must be positive, got {reg!r}")
    pixels, shape = blurred.pixels, blurred.shape
    otf = kernel_otf(k.weights, shape)
    if k.side_h > 1 or k.side_w > 1:
        pixels = _periodic_taper(pixels, otf, taper_window(shape, (k.side_h // 2, k.side_w // 2)))
    denominator = _power(otf) + reg * _gradient_penalty(shape)
    return Image(np.fft.irfft2(np.conj(otf) * np.fft.rfft2(pixels) / denominator, s=shape))


def deconvolve(blurred: Image, kernel: Kernel) -> Image:
    """Recover the latent image under ``kernel`` at `LATENT_REG`, clipped to [0, 1]."""
    return Image(np.clip(solve_latent(blurred, kernel).pixels, 0.0, 1.0))


def _power(spectrum: np.ndarray) -> np.ndarray:
    return spectrum.real ** 2 + spectrum.imag ** 2


def _difference_power(n: int, count: int) -> np.ndarray:
    """|1 - exp(-2 pi i f / n)|^2, the power of a forward difference along a
    side of n pixels, for the first `count` frequencies f."""
    return 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(count) / n)


@functools.lru_cache(maxsize=64)
def _gradient_penalty(shape: tuple[int, int]) -> np.ndarray:
    """|Dx|^2 + |Dy|^2 of the forward differences on the half spectrum."""
    h, w = shape
    penalty = _difference_power(h, h)[:, None] + _difference_power(w, w // 2 + 1)[None, :]
    penalty.flags.writeable = False
    return penalty


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
    for level_index, level in enumerate(pyramid):
        size = level.kernel_size
        # The observed gradients' spectra stay fixed for the whole level.
        window = taper_window(level.image.shape, (size, size))
        gx_b, gy_b = _forward_diff(level.image.pixels)
        observed_spectra = (np.fft.rfft2(gx_b * window), np.fft.rfft2(gy_b * window))
        if kernel is None:
            latent = level.image
            current = Kernel.delta(size)
        else:
            current = _upsample_kernel(kernel, size)
        solved = False
        for iteration in range(ITERATIONS_PER_LEVEL):
            if kernel is not None or iteration > 0:
                latent = deconvolve(level.image, current)
            gx_s, gy_s = predict_gradients(latent)
            try:
                current = solve_kernel((gx_s * window, gy_s * window), observed_spectra, size)
                solved = True
            except DegenerateInputError:
                pass
        if level_index == 0 and not solved:
            return KernelEstimate(kernel=Kernel.delta(cfg.kernel_size), degenerate=True)
        kernel = _recenter(current)
    return KernelEstimate(kernel=kernel, degenerate=False)
