"""Deterministic synthetic scenes and kernels for demos and self-tests.

Everything here is seeded; the same arguments always produce the same
pixels, which keeps corpus generation and the test suite reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .imagecore import Image, Kernel, convolve_direct

_BLUR3 = Kernel(np.full((3, 3), 1.0 / 9.0))


def _span(centre: float, half: float, side: int) -> slice:
    """Pixels within `half` of `centre` along one axis, padded by one pixel
    and clipped to [0, side)."""
    return slice(max(math.floor(centre - half) - 1, 0), min(math.floor(centre + half) + 2, side))


def textured_scene(side: int = 256, seed: int = 0, blobs: int = 40) -> Image:
    """Disks and rectangles at random intensities: edges at every orientation.
    Each blob's mask is evaluated on its padded bounding box only."""
    if side < 8:
        raise ValidationError(f"side must be at least 8, got {side}")
    rng = np.random.default_rng(seed)
    img = np.full((side, side), 0.5)
    for _ in range(blobs):
        intensity = rng.uniform(0.05, 0.95)
        cy, cx = rng.uniform(0, side, 2)
        radius = rng.uniform(side / 16, side / 5)
        if rng.uniform() < 0.5:
            box = (_span(cy, radius, side), _span(cx, radius, side))
            rows, cols = np.ogrid[box]
            mask = (rows - cy) ** 2 + (cols - cx) ** 2 <= radius ** 2
        else:
            h = rng.uniform(side / 16, side / 4)
            w = rng.uniform(side / 16, side / 4)
            box = (_span(cy, h / 2, side), _span(cx, w / 2, side))
            rows, cols = np.ogrid[box]
            mask = (np.abs(rows - cy) <= h / 2) & (np.abs(cols - cx) <= w / 2)
        img[box][mask] = intensity
    grain = rng.uniform(-1.0, 1.0, (side, side))
    grain = convolve_direct(Image(np.clip(grain * 0.5 + 0.5, 0, 1)), _BLUR3).pixels
    img = img + 0.06 * (grain - grain.mean())
    return Image(np.clip(img, 0.0, 1.0))


def stripe_texture(side: int, period: int = 2, horizontal: bool = False) -> Image:
    """Black and white square-wave stripes; fine periods give edges closer than a blur kernel."""
    if period < 2:
        raise ValidationError(f"period must be at least 2, got {period}")
    axis = np.arange(side)
    wave = np.where((axis % period) < period / 2, 1.0, 0.0)
    img = np.tile(wave[:, None], (1, side)) if horizontal else np.tile(wave[None, :], (side, 1))
    return Image(img.astype(np.float64))


def flat_patch(side: int, value: float = 0.5) -> Image:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"value must lie in [0, 1], got {value!r}")
    return Image(np.full((side, side), float(value)))


def smooth_ramp(side: int, low: float = 0.35, high: float = 0.65) -> Image:
    """Gentle diagonal gradient: finite everywhere, no usable edges."""
    axis = np.linspace(0.0, 1.0, side)
    ramp = (axis[:, None] + axis[None, :]) / 2.0
    return Image(low + (high - low) * ramp)


def eval_scene(side: int = 160, seed: int = 0, stripe_period: int = 2) -> Image:
    """Quadrant test scene: texture, fine stripes, flat, and a soft ramp."""
    if side % 2:
        raise ValidationError(f"side must be even, got {side}")
    half = side // 2
    img = np.empty((side, side))
    img[:half, :half] = textured_scene(half, seed=seed, blobs=24).pixels
    img[:half, half:] = stripe_texture(half, period=stripe_period).pixels
    img[half:, :half] = flat_patch(half, 0.4).pixels
    img[half:, half:] = smooth_ramp(half).pixels
    return Image(img)


def random_motion_kernel(side: int = 13, seed: int = 0) -> Kernel:
    """Camera-shake style kernel from a smoothed random walk of 6 * side
    steps."""
    if side < 3 or side % 2 == 0:
        raise ValidationError(f"kernel side must be odd and >= 3, got {side}")
    rng = np.random.default_rng(seed)
    # All steps' noise in one draw reads the same stream as a draw per step.
    vr, vc = rng.normal(0.0, 0.4, 2).tolist()
    noise = rng.normal(0.0, 0.25, (6 * side, 2)).tolist()
    # Below side - 1, so every step's four bilinear taps fall in the grid.
    top = side - 1.001
    pr = pc = side / 2.0
    grid = [[0.0] * side for _ in range(side)]
    for nr, nc in noise:
        vr, vc = 0.85 * vr + nr, 0.85 * vc + nc
        pr, pc = min(max(pr + vr, 0.0), top), min(max(pc + vc, 0.0), top)
        r0, c0 = int(pr), int(pc)
        fr, fc = pr - r0, pc - c0
        grid[r0][c0] += (1 - fr) * (1 - fc)
        grid[r0][c0 + 1] += (1 - fr) * fc
        grid[r0 + 1][c0] += fr * (1 - fc)
        grid[r0 + 1][c0 + 1] += fr * fc
    grid = np.array(grid)
    blurred = convolve_direct(Image(grid / grid.max()), _BLUR3).pixels
    return Kernel(blurred / blurred.sum())

