"""Bit-identity guards for the demo scenes and kernels.

`random_motion_kernel` runs its walk on Python floats from one draw of the
whole noise stream, and `textured_scene` paints each blob on its padded
bounding box. The reference copies below are the per-step numpy walk and
the full-image masks they replace; every output must match them bit for bit.
"""

import numpy as np
import pytest

from regiondeblur.demodata import (
    _BLUR3,
    eval_scene,
    flat_patch,
    random_motion_kernel,
    smooth_ramp,
    stripe_texture,
    textured_scene,
)
from regiondeblur.imagecore import Image, Kernel, convolve_direct


def _reference_motion_kernel(side, seed):
    rng = np.random.default_rng(seed)
    grid = np.zeros((side, side))
    pos = np.array([side / 2.0, side / 2.0])
    vel = rng.normal(0.0, 0.4, 2)
    for _ in range(6 * side):
        vel = 0.85 * vel + rng.normal(0.0, 0.25, 2)
        pos = np.clip(pos + vel, 0.0, side - 1.001)
        r0, c0 = int(pos[0]), int(pos[1])
        fr, fc = pos[0] - r0, pos[1] - c0
        grid[r0, c0] += (1 - fr) * (1 - fc)
        if c0 + 1 < side:
            grid[r0, c0 + 1] += (1 - fr) * fc
        if r0 + 1 < side:
            grid[r0 + 1, c0] += fr * (1 - fc)
        if r0 + 1 < side and c0 + 1 < side:
            grid[r0 + 1, c0 + 1] += fr * fc
    blurred = np.array(convolve_direct(Image(grid / max(grid.max(), 1e-12)), _BLUR3).pixels)
    blurred[blurred < 0] = 0.0
    total = blurred.sum()
    if total <= 0:
        blurred[side // 2, side // 2] = 1.0
        total = 1.0
    return Kernel(blurred / total)


def _reference_textured_scene(side, seed, blobs):
    rng = np.random.default_rng(seed)
    img = np.full((side, side), 0.5)
    rows, cols = np.mgrid[0:side, 0:side]
    for _ in range(blobs):
        intensity = rng.uniform(0.05, 0.95)
        cy, cx = rng.uniform(0, side, 2)
        radius = rng.uniform(side / 16, side / 5)
        if rng.uniform() < 0.5:
            mask = (rows - cy) ** 2 + (cols - cx) ** 2 <= radius ** 2
        else:
            h = rng.uniform(side / 16, side / 4)
            w = rng.uniform(side / 16, side / 4)
            mask = (np.abs(rows - cy) <= h / 2) & (np.abs(cols - cx) <= w / 2)
        img[mask] = intensity
    grain = rng.uniform(-1.0, 1.0, (side, side))
    grain = convolve_direct(Image(np.clip(grain * 0.5 + 0.5, 0, 1)), _BLUR3).pixels
    img = img + 0.06 * (grain - grain.mean())
    return Image(np.clip(img, 0.0, 1.0))


def _reference_eval_scene(side, seed, stripe_period):
    half = side // 2
    img = np.empty((side, side))
    img[:half, :half] = _reference_textured_scene(half, seed, 24).pixels
    img[:half, half:] = stripe_texture(half, period=stripe_period).pixels
    img[half:, :half] = flat_patch(half, 0.4).pixels
    img[half:, half:] = smooth_ramp(half).pixels
    return Image(img)


def _clipped_steps(side, seed):
    """How many steps of the reference walk the clip moves."""
    rng = np.random.default_rng(seed)
    pos = np.array([side / 2.0, side / 2.0])
    vel = rng.normal(0.0, 0.4, 2)
    hits = 0
    for _ in range(6 * side):
        vel = 0.85 * vel + rng.normal(0.0, 0.25, 2)
        moved = pos + vel
        pos = np.clip(moved, 0.0, side - 1.001)
        hits += not np.array_equal(pos, moved)
    return hits


def _border_blobs(side, seed, blobs):
    """How many of the reference scene's blobs reach past the image border."""
    rng = np.random.default_rng(seed)
    crossing = 0
    for _ in range(blobs):
        rng.uniform(0.05, 0.95)
        cy, cx = rng.uniform(0, side, 2)
        half_h = half_w = rng.uniform(side / 16, side / 5)
        if rng.uniform() >= 0.5:
            half_h = rng.uniform(side / 16, side / 4) / 2
            half_w = rng.uniform(side / 16, side / 4) / 2
        crossing += (min(cy - half_h, cx - half_w) < 0
                     or max(cy + half_h, cx + half_w) > side - 1)
    return crossing


@pytest.mark.parametrize("side", range(3, 56, 2))
def test_motion_kernel_matches_the_per_step_walk(side):
    for seed in range(12):
        expected = _reference_motion_kernel(side, seed).weights
        assert np.array_equal(random_motion_kernel(side, seed=seed).weights, expected)


@pytest.mark.parametrize("side", range(3, 56, 2))
def test_motion_kernel_is_a_normalised_non_negative_kernel(side):
    """Over 100 seeds, every walk's taps land in the grid and its blurred
    mass is positive, so the kernel needs no clamp or fallback."""
    for seed in range(100):
        weights = random_motion_kernel(side, seed=seed).weights
        assert weights.shape == (side, side)
        assert np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12


def test_motion_kernel_guards_cover_clipped_walks():
    assert all(_clipped_steps(3, seed) > 0 for seed in range(12))
    assert all(_clipped_steps(11, seed) > 0 for seed in range(5))


@pytest.mark.parametrize("side", [8, 9, 13, 16, 31, 47, 64, 97, 160, 229, 288, 384])
@pytest.mark.parametrize("blobs", [18, 24, 40])
def test_textured_scene_matches_the_full_image_masks(side, blobs):
    for seed in range(3):
        expected = _reference_textured_scene(side, seed, blobs).pixels
        assert np.array_equal(textured_scene(side, seed=seed, blobs=blobs).pixels, expected)
    assert sum(_border_blobs(side, seed, blobs) for seed in range(3)) > 0


@pytest.mark.parametrize("side", [16, 64, 96, 160, 384])
def test_eval_scene_matches_the_full_image_masks(side):
    for seed, period in ((0, 2), (7, 3), (20, 4)):
        expected = _reference_eval_scene(side, seed, period).pixels
        assert np.array_equal(eval_scene(side, seed=seed, stripe_period=period).pixels, expected)
