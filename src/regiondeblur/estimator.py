"""Blind kernel estimation by coarse-to-fine alternating minimization.

Each pyramid level alternates three steps: predict salient gradients from the
current latent image (Gaussian presmoothing, a few shock-filter iterations,
forward differences, keep only the strongest fraction), solve for the kernel
in the frequency domain with Tikhonov damping, then solve for the latent
image with a gradient-penalized Wiener filter. Kernels are upsampled
bilinearly between levels and re-projected onto the simplex-like constraint
set (non-negative, small entries zeroed, unit sum).
"""

from __future__ import annotations

import math
import subprocess
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import (
    DegenerateInputError,
    DimensionError,
    EstimatorError,
    ValidationError,
)
from .imagecore import (
    Image,
    Kernel,
    _resample_to,
    edge_taper,
    kernel_otf,
    read_kernel,
    resample,
    taper_window,
    write_image,
)

_SHOCK_DT = 0.5
_LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])
_KERNEL_TAIL_DIVISOR = 20.0
_COARSEST_KERNEL_SIDE = 5


@dataclass(frozen=True)
class EstimatorConfig:
    kernel_size: int
    pyramid_ratio: float = 1.0 / math.sqrt(2.0)
    iterations_per_level: int = 5
    kernel_reg: float = 5.0
    latent_reg: float = 2e-3
    gradient_keep_ratio: float = 0.10
    shock_iterations: int = 2
    presmooth_sigma: float = 1.0

    def __post_init__(self):
        if self.kernel_size < 3 or self.kernel_size % 2 == 0:
            raise ValidationError(f"kernel_size must be odd and >= 3, got {self.kernel_size}")
        if not (0.0 < self.pyramid_ratio < 1.0):
            raise ValidationError(f"pyramid_ratio must lie in (0, 1), got {self.pyramid_ratio!r}")
        if self.iterations_per_level < 1:
            raise ValidationError(f"iterations_per_level must be >= 1, got {self.iterations_per_level}")
        if not (self.kernel_reg > 0):
            raise ValidationError(f"kernel_reg must be positive, got {self.kernel_reg!r}")
        if not (self.latent_reg > 0):
            raise ValidationError(f"latent_reg must be positive, got {self.latent_reg!r}")
        if not (0.0 < self.gradient_keep_ratio <= 1.0):
            raise ValidationError(
                f"gradient_keep_ratio must lie in (0, 1], got {self.gradient_keep_ratio!r}"
            )
        if self.shock_iterations < 0:
            raise ValidationError(f"shock_iterations must be >= 0, got {self.shock_iterations}")
        if self.presmooth_sigma < 0:
            raise ValidationError(f"presmooth_sigma must be >= 0, got {self.presmooth_sigma!r}")


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
    while cfg.kernel_size * cfg.pyramid_ratio ** (n - 1) > _COARSEST_KERNEL_SIDE:
        n += 1
    levels = []
    for idx in range(n):
        scale = cfg.pyramid_ratio ** (n - 1 - idx)
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


def predict_gradients(latent: Image, cfg: EstimatorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Salient forward-difference gradients of the shock-sharpened latent image."""
    arr = latent.pixels
    if cfg.presmooth_sigma > 0:
        arr = ndimage.gaussian_filter(arr, cfg.presmooth_sigma, mode="nearest")
    for _ in range(cfg.shock_iterations):
        arr = _shock_step(arr)
    gx, gy = _forward_diff(arr)
    mag = np.hypot(gx, gy)
    n = mag.size
    keep = max(1, int(math.floor(cfg.gradient_keep_ratio * n)))
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
    reg: float = 5.0,
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
    fx_s = np.fft.fft2(gx_s)
    fy_s = np.fft.fft2(gy_s)
    numerator = np.conj(fx_s) * np.fft.fft2(gx_b) + np.conj(fy_s) * np.fft.fft2(gy_b)
    denominator = np.abs(fx_s) ** 2 + np.abs(fy_s) ** 2 + reg
    full = np.fft.ifft2(numerator / denominator).real
    half = size // 2
    block = np.roll(full, (half, half), axis=(0, 1))[:size, :size]
    return project_kernel(block)


def solve_latent(blurred: Image, k: Kernel, reg: float = 2e-3) -> Image:
    """Gradient-penalized Wiener deconvolution with edge-tapered boundaries."""
    if not (reg > 0):
        raise ValidationError(f"reg must be positive, got {reg!r}")
    tapered = edge_taper(blurred, k)
    shape = tapered.shape
    otf = kernel_otf(k.weights, shape)
    dx = kernel_otf(np.array([[1.0, -1.0]]), shape) if shape[1] > 1 else 0.0
    dy = kernel_otf(np.array([[1.0], [-1.0]]), shape) if shape[0] > 1 else 0.0
    penalty = np.abs(dx) ** 2 + np.abs(dy) ** 2
    denominator = np.abs(otf) ** 2 + reg * penalty
    latent = np.fft.ifft2(np.conj(otf) * np.fft.fft2(tapered.pixels) / denominator).real
    return Image(latent)


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
            latent = Image(np.clip(solve_latent(level.image, current, cfg.latent_reg).pixels, 0.0, 1.0))
        solved = False
        for _ in range(cfg.iterations_per_level):
            gx_s, gy_s = predict_gradients(latent, cfg)
            gx_s, gy_s = gx_s * window, gy_s * window
            try:
                current = solve_kernel((gx_s, gy_s), (gx_b, gy_b), level.kernel_size, cfg.kernel_reg)
                solved = True
            except DegenerateInputError:
                pass
            latent = Image(np.clip(solve_latent(level.image, current, cfg.latent_reg).pixels, 0.0, 1.0))
        if level_index == 0 and not solved:
            delta = Kernel.delta(cfg.kernel_size)
            return KernelEstimate(kernel=delta, degenerate=True, per_level=(Kernel.delta(level.kernel_size),))
        current = _recenter(current)
        per_level.append(current)
        kernel = current
    return KernelEstimate(kernel=kernel, degenerate=False, per_level=tuple(per_level))


class BlindEstimator:
    """Pluggable wrapper: estimator = BlindEstimator(cfg); estimator(image)."""

    def __init__(self, cfg: EstimatorConfig):
        self.cfg = cfg

    def with_kernel_size(self, size: int) -> "BlindEstimator":
        return BlindEstimator(replace(self.cfg, kernel_size=size))

    def __call__(self, blurred: Image) -> KernelEstimate:
        return estimate_kernel(blurred, self.cfg)


class ExternalEstimator:
    """Adapter that shells out to `command blurred.pfm kernel_size out.txt`."""

    def __init__(self, command, kernel_size: int, timeout: float = 300.0):
        self.command = tuple(str(c) for c in command)
        self.kernel_size = int(kernel_size)
        self.timeout = float(timeout)

    def with_kernel_size(self, size: int) -> "ExternalEstimator":
        return ExternalEstimator(self.command, size, self.timeout)

    def __call__(self, blurred: Image) -> KernelEstimate:
        with tempfile.TemporaryDirectory(prefix="regiondeblur-ext-") as tmp:
            in_path = Path(tmp) / "blurred.pfm"
            out_path = Path(tmp) / "kernel.txt"
            write_image(blurred, in_path)
            argv = [*self.command, str(in_path), str(self.kernel_size), str(out_path)]
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=self.timeout
                )
            except subprocess.TimeoutExpired as exc:
                raise EstimatorError(f"external estimator timed out after {self.timeout}s") from exc
            if proc.returncode != 0:
                detail = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else ""
                raise EstimatorError(
                    f"external estimator exited with code {proc.returncode}: {detail}"
                )
            if not out_path.exists():
                raise EstimatorError("external estimator wrote no kernel file")
            k = read_kernel(out_path)
            return KernelEstimate(kernel=k, degenerate=False, per_level=(k,))
