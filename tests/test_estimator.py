import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from regiondeblur import estimator
from regiondeblur.demodata import random_motion_kernel, textured_scene
from regiondeblur.errors import (
    DegenerateInputError,
    DimensionError,
    ValidationError,
)
from regiondeblur.estimator import (
    GRADIENT_KEEP_RATIO,
    ITERATIONS_PER_LEVEL,
    KERNEL_REG,
    LATENT_REG,
    PRESMOOTH_SIGMA,
    SHOCK_ITERATIONS,
    EstimatorConfig,
    _forward_diff,
    _gradient_penalty,
    _presmooth,
    _recenter,
    _shock_step,
    _upsample_kernel,
    build_pyramid,
    deconvolve,
    estimate_kernel,
    predict_gradients,
    project_kernel,
    solve_kernel,
    solve_latent,
)
from regiondeblur.imagecore import (
    BoundaryMode,
    Image,
    Kernel,
    convolve_direct,
    convolve_fft,
    kernel_otf,
    taper_window,
    write_image,
)
from regiondeblur.kernelsim import kernel_similarity
from regiondeblur.synthesis import NoiseModel, blur_image


def test_config_rejects_even_kernel_size():
    with pytest.raises(ValidationError):
        EstimatorConfig(kernel_size=10)


def test_pyramid_schedule_for_size_27():
    img = Image(np.random.default_rng(0).uniform(0, 1, (96, 96)))
    pyr = build_pyramid(img, EstimatorConfig(kernel_size=27))
    assert [lvl.kernel_size for lvl in pyr] == [5, 7, 9, 13, 19, 27]
    assert pyr[-1].image is img


def test_pyramid_schedule_for_size_13():
    img = Image(np.random.default_rng(1).uniform(0, 1, (64, 64)))
    pyr = build_pyramid(img, EstimatorConfig(kernel_size=13))
    assert [lvl.kernel_size for lvl in pyr] == [5, 7, 9, 13]


def test_pyramid_level_dims_shrink_with_scale():
    img = Image(np.random.default_rng(2).uniform(0, 1, (80, 60)))
    pyr = build_pyramid(img, EstimatorConfig(kernel_size=13))
    for lvl in pyr[:-1]:
        assert lvl.image.height < img.height
        assert lvl.image.width < img.width


def test_pyramid_rejects_kernel_too_large_for_image():
    img = Image(np.zeros((30, 30)))
    with pytest.raises(DimensionError):
        build_pyramid(img, EstimatorConfig(kernel_size=11))


def test_predict_gradients_concentrate_on_step_edge():
    px = np.full((64, 64), 0.2)
    px[:, 32:] = 0.8
    gx, gy = predict_gradients(Image(px))
    nz_cols = np.unique(np.nonzero(gx)[1])
    assert len(nz_cols) > 0
    assert nz_cols.min() >= 26 and nz_cols.max() <= 38
    assert not np.any(gy)


def test_predict_gradients_flat_image_is_all_zero():
    gx, gy = predict_gradients(Image(np.full((32, 32), 0.7)))
    assert not np.any(gx)
    assert not np.any(gy)


def test_project_kernel_clamps_and_trims_tail():
    raw = np.zeros((3, 3))
    raw[1, 1] = 1.0
    raw[0, 0] = -0.4
    raw[2, 2] = 0.01
    k = project_kernel(raw)
    assert k.weights[0, 0] == 0.0
    assert k.weights[2, 2] == 0.0
    assert k.weights[1, 1] == 1.0


def test_project_kernel_rejects_no_positive_mass():
    with pytest.raises(DegenerateInputError):
        project_kernel(np.full((3, 3), -1.0))


def _circular_diff(arr):
    gx = np.roll(arr, -1, axis=1) - arr
    gy = np.roll(arr, -1, axis=0) - arr
    return gx, gy


def _spectra(grads):
    """The half spectra `solve_kernel` takes for the observed gradients."""
    return tuple(np.fft.rfft2(g) for g in grads)


def test_solve_kernel_identity_gives_delta():
    img = textured_scene(64, seed=5)
    grads = _circular_diff(img.pixels)
    k = solve_kernel(grads, _spectra(grads), 9)
    assert kernel_similarity(k, Kernel.delta(9)) >= 0.99


def test_solve_kernel_recovers_forward_model():
    latent = textured_scene(64, seed=6)
    true_k = random_motion_kernel(9, seed=7)
    otf = kernel_otf(true_k.weights, latent.shape)
    blurred = np.fft.irfft2(np.fft.rfft2(latent.pixels) * otf, s=latent.shape)
    k = solve_kernel(_circular_diff(latent.pixels), _spectra(_circular_diff(blurred)), 9)
    assert kernel_similarity(k, true_k) >= 0.9


def test_solve_kernel_rejects_zero_latent_gradients():
    zeros = np.zeros((32, 32))
    ones = np.ones((32, 32))
    with pytest.raises(DegenerateInputError):
        solve_kernel((zeros, zeros), _spectra((ones, ones)), 5)


def test_solve_kernel_rejects_mismatched_shapes():
    a = np.zeros((16, 16))
    for grad_latent, observed_spectra in [
        ((a, np.zeros((16, 17))), _spectra((a, a))),
        ((a, a), _spectra((a, np.zeros((17, 16))))),
        ((a, a), (np.fft.fft2(a), np.fft.fft2(a))),  # full spectra, not half
    ]:
        with pytest.raises(DimensionError):
            solve_kernel(grad_latent, observed_spectra, 5)


def test_solve_latent_recovers_smooth_image_through_identity():
    n = 64
    x = np.arange(n)
    smooth = 0.5 + 0.2 * np.cos(2 * np.pi * x[None, :] / n) * np.cos(2 * np.pi * x[:, None] / n)
    img = Image(smooth)
    latent = solve_latent(img, Kernel.delta(1), reg=1e-10)
    assert np.max(np.abs(latent.pixels - img.pixels)) < 1e-6


def test_solve_latent_sharpens_blurred_texture():
    sharp = textured_scene(96, seed=8)
    k = random_motion_kernel(11, seed=9)
    otf = kernel_otf(k.weights, sharp.shape)
    blurred = Image(np.clip(np.fft.irfft2(np.fft.rfft2(sharp.pixels) * otf, s=sharp.shape), 0, 1))
    restored = solve_latent(blurred, k)
    interior = slice(12, -12)
    err_restored = np.mean(np.abs(restored.pixels[interior, interior] - sharp.pixels[interior, interior]))
    err_blurred = np.mean(np.abs(blurred.pixels[interior, interior] - sharp.pixels[interior, interior]))
    assert err_restored < 0.5 * err_blurred


def test_solve_latent_rejects_non_positive_reg():
    img = Image(np.full((16, 16), 0.5))
    with pytest.raises(ValidationError):
        solve_latent(img, Kernel.delta(1), reg=0.0)


def test_gradient_penalty_is_cached_and_read_only():
    penalty = _gradient_penalty((40, 37))
    assert _gradient_penalty((40, 37)) is penalty
    assert not penalty.flags.writeable
    assert penalty.shape == (40, 19)


# The full-spectrum formulation the half-spectrum solves must reproduce:
# complex fft2/ifft2 everywhere, and the edge taper as a valid convolution
# of the wrap-padded image.

def _full_otf(weights, shape):
    arr = np.asarray(weights, dtype=np.float64)
    big = np.zeros(shape)
    big[:arr.shape[0], :arr.shape[1]] = arr
    big = np.roll(big, (-(arr.shape[0] // 2), -(arr.shape[1] // 2)), axis=(0, 1))
    return np.fft.fft2(big)


def _solve_latent_fft2(pixels, k, reg):
    ph, pw = k.side_h // 2, k.side_w // 2
    tapered = pixels
    if ph or pw:
        blurred = convolve_fft(Image(pixels), k, BoundaryMode.PERIODIC).pixels
        w2 = taper_window(pixels.shape, (ph, pw))
        tapered = w2 * pixels + (1.0 - w2) * blurred
    shape = pixels.shape
    otf = _full_otf(k.weights, shape)
    dx = _full_otf([[1.0, -1.0]], shape) if shape[1] > 1 else 0.0
    dy = _full_otf([[1.0], [-1.0]], shape) if shape[0] > 1 else 0.0
    denominator = np.abs(otf) ** 2 + reg * (np.abs(dx) ** 2 + np.abs(dy) ** 2)
    return np.fft.ifft2(np.conj(otf) * np.fft.fft2(tapered) / denominator).real


def _solve_kernel_fft2(grad_latent, grad_blurred, size, reg):
    fx_s, fy_s = (np.fft.fft2(g) for g in grad_latent)
    fx_b, fy_b = (np.fft.fft2(g) for g in grad_blurred)
    numerator = np.conj(fx_s) * fx_b + np.conj(fy_s) * fy_b
    full = np.fft.ifft2(numerator / (np.abs(fx_s) ** 2 + np.abs(fy_s) ** 2 + reg)).real
    half = size // 2
    return project_kernel(np.roll(full, (half, half), axis=(0, 1))[:size, :size])


@pytest.mark.parametrize("shape", [(40, 40), (40, 37), (37, 42), (33, 33)])
@pytest.mark.parametrize("kernel_shape", [(1, 1), (3, 5), (5, 3), (9, 9)])
def test_solve_latent_matches_the_full_spectrum_solve(shape, kernel_shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1] + kernel_shape[0])
    pixels = rng.uniform(0, 1, shape)
    weights = rng.uniform(0, 1, kernel_shape)
    k = Kernel(weights / weights.sum())
    for reg in (2e-3, 0.5):
        latent = solve_latent(Image(pixels), k, reg).pixels
        assert latent.shape == shape
        assert np.max(np.abs(latent - _solve_latent_fft2(pixels, k, reg))) < 1e-12


@pytest.mark.parametrize("shape", [(48, 48), (48, 45), (45, 50)])
@pytest.mark.parametrize("size", [5, 9])
def test_solve_kernel_matches_the_full_spectrum_solve(shape, size):
    latent = textured_scene(64, seed=shape[1] + size).pixels[:shape[0], :shape[1]]
    true_k = random_motion_kernel(size, seed=shape[0] + size)
    blurred = convolve_direct(Image(latent), true_k, BoundaryMode.PERIODIC).pixels
    grad_latent = _circular_diff(latent)
    grad_blurred = _circular_diff(blurred)
    for reg in (5.0, 0.01):
        got = solve_kernel(grad_latent, _spectra(grad_blurred), size, reg).weights
        expected = _solve_kernel_fft2(grad_latent, grad_blurred, size, reg).weights
        assert np.max(np.abs(got - expected)) < 1e-12


_TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
               "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


@pytest.fixture
def transform_calls(monkeypatch):
    """Count every numpy.fft / scipy.fft transform the code under test makes."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module in (np.fft, scipy.fft):
        for name in _TRANSFORMS:
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
    return calls


def _blurred_patch(seed):
    sharp = textured_scene(64, seed=seed)
    return blur_image(sharp, random_motion_kernel(15, seed=seed + 1), NoiseModel(sigma=1.0, seed=seed))


def test_solve_latent_makes_at_most_five_transforms(transform_calls):
    img = _blurred_patch(30)
    transform_calls.clear()  # the input's FFT blur is not under test
    solve_latent(img, random_motion_kernel(15, seed=32))
    assert len(transform_calls) <= 5


def test_estimate_kernel_fft_budget(transform_calls):
    """64 px patch at k=15 (5 pyramid levels): 357 transforms with complex
    FFTs and a separate edge-taper convolution, 270 with the half-spectrum
    solves, 245 once no latent solve runs without a gradient prediction
    reading it, 205 once the observed gradients are transformed once per
    level. Per level that is 2 transforms plus 8 per iteration (3 for the
    kernel solve, 5 for the latent solve), less the latent solve the first
    level skips: 42 * levels - 5, where it was 50 * levels - 5."""
    img = _blurred_patch(33)
    transform_calls.clear()  # the input's FFT blur is not under test
    estimate = estimate_kernel(img, EstimatorConfig(kernel_size=15))
    assert not estimate.degenerate
    assert len(transform_calls) <= 205


@pytest.fixture
def solve_calls(monkeypatch):
    """Count the calls that reach the public `solve_kernel` and
    `solve_latent`, and the kernel solves that raise."""
    calls = {"solve_kernel": 0, "solve_latent": 0, "raised": 0}

    def counted(name):
        fn = getattr(estimator, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except DegenerateInputError:
                calls["raised"] += 1
                raise
        return wrapper

    for name in ("solve_kernel", "solve_latent"):
        monkeypatch.setattr(estimator, name, counted(name))
    return calls


def test_estimate_kernel_runs_every_step_through_the_public_solves(solve_calls):
    """Each level solves the kernel on every iteration and the latent image
    on every one but the first level's first."""
    img = _blurred_patch(33)
    cfg = EstimatorConfig(kernel_size=15)
    levels = len(build_pyramid(img, cfg))
    assert not estimate_kernel(img, cfg).degenerate
    assert solve_calls == {"solve_kernel": ITERATIONS_PER_LEVEL * levels,
                           "solve_latent": ITERATIONS_PER_LEVEL * levels - 1, "raised": 0}


def test_estimate_kernel_degenerate_solves_raise_through_solve_kernel(solve_calls):
    estimate = estimate_kernel(Image(np.full((48, 48), 0.6)), EstimatorConfig(kernel_size=9))
    assert estimate.degenerate
    assert solve_calls == {"solve_kernel": ITERATIONS_PER_LEVEL,
                           "solve_latent": ITERATIONS_PER_LEVEL - 1,
                           "raised": ITERATIONS_PER_LEVEL}


def test_estimate_kernel_flat_image_degenerates_to_delta():
    estimate = estimate_kernel(Image(np.full((48, 48), 0.6)), EstimatorConfig(kernel_size=9))
    assert estimate.degenerate
    assert estimate.kernel.weights[4, 4] == 1.0


def test_estimate_kernel_is_deterministic():
    blurred = textured_scene(64, seed=10)
    cfg = EstimatorConfig(kernel_size=9)
    a = estimate_kernel(blurred, cfg)
    b = estimate_kernel(blurred, cfg)
    assert np.array_equal(a.kernel.weights, b.kernel.weights)


def test_estimate_kernel_reports_every_level(roundtrip_cases):
    """Every round trip's coarse-to-fine run ends in a kernel of the requested side."""
    assert len(roundtrip_cases) == 10
    for case in roundtrip_cases:
        estimate = case["estimate"]
        assert estimate.kernel.weights.shape == (case["side"], case["side"])
        assert not estimate.degenerate


# The estimator loop as it was before its per-level invariants were hoisted:
# presmoothing by `gaussian_filter`, each shock step from `ndimage.convolve`
# and `np.gradient`, a five-transform kernel solve that transforms the
# observed gradients on every iteration, and kernels placed and cropped with
# `np.roll`. The estimator must reproduce it bit for bit.

_LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])


def _reference_shock_step(arr):
    lap = ndimage.convolve(arr, _LAPLACIAN, mode="nearest")
    gy, gx = np.gradient(arr)
    return arr - np.sign(lap) * np.hypot(gx, gy) * 0.5


def _reference_predict_gradients(pixels):
    arr = ndimage.gaussian_filter(pixels, PRESMOOTH_SIGMA, mode="nearest")
    for _ in range(SHOCK_ITERATIONS):
        arr = _reference_shock_step(arr)
    gx, gy = _forward_diff(arr)
    mag = np.hypot(gx, gy)
    n = mag.size
    keep = max(1, int(math.floor(GRADIENT_KEEP_RATIO * n)))
    threshold = np.partition(mag.ravel(), n - keep)[n - keep]
    mask = (mag >= threshold) & (mag > 0)
    return gx * mask, gy * mask


def _power(spectrum):
    return spectrum.real ** 2 + spectrum.imag ** 2


def _reference_solve_kernel(grad_latent, grad_blurred, size):
    (gx_s, gy_s), (gx_b, gy_b) = grad_latent, grad_blurred
    if not np.any(gx_s) and not np.any(gy_s):
        raise DegenerateInputError("latent gradients are identically zero")
    fx_s = np.fft.rfft2(gx_s)
    fy_s = np.fft.rfft2(gy_s)
    numerator = np.conj(fx_s) * np.fft.rfft2(gx_b) + np.conj(fy_s) * np.fft.rfft2(gy_b)
    denominator = _power(fx_s) + _power(fy_s) + KERNEL_REG
    full = np.fft.irfft2(numerator / denominator, s=gx_s.shape)
    half = size // 2
    return project_kernel(np.roll(full, (half, half), axis=(0, 1))[:size, :size])


def _roll_otf(weights, shape):
    kh, kw = weights.shape
    big = np.zeros(shape)
    big[:kh, :kw] = weights
    return np.fft.rfft2(np.roll(big, (-(kh // 2), -(kw // 2)), axis=(0, 1)))


def _reference_deconvolve(pixels, k):
    shape = pixels.shape
    otf = _roll_otf(k.weights, shape)
    if k.side_h > 1 or k.side_w > 1:
        blurred = np.fft.irfft2(otf * np.fft.rfft2(pixels), s=shape)
        w2 = taper_window(shape, (k.side_h // 2, k.side_w // 2))
        pixels = w2 * pixels + (1.0 - w2) * blurred
    denominator = _power(otf) + LATENT_REG * _gradient_penalty(shape)
    latent = np.fft.irfft2(np.conj(otf) * np.fft.rfft2(pixels) / denominator, s=shape)
    return np.clip(latent, 0.0, 1.0)


def _reference_estimate_kernel(blurred, cfg):
    kernel = None
    for level_index, level in enumerate(build_pyramid(blurred, cfg)):
        observed = level.image.pixels
        window = taper_window(observed.shape, (level.kernel_size, level.kernel_size))
        gx_b, gy_b = (g * window for g in _forward_diff(observed))
        if kernel is None:
            latent = observed
            current = Kernel.delta(level.kernel_size)
        else:
            current = _upsample_kernel(kernel, level.kernel_size)
        solved = False
        for iteration in range(ITERATIONS_PER_LEVEL):
            if kernel is not None or iteration > 0:
                latent = _reference_deconvolve(observed, current)
            gx_s, gy_s = _reference_predict_gradients(latent)
            try:
                current = _reference_solve_kernel((gx_s * window, gy_s * window), (gx_b, gy_b),
                                                  level.kernel_size)
                solved = True
            except DegenerateInputError:
                pass
        if level_index == 0 and not solved:
            return Kernel.delta(cfg.kernel_size).weights, True
        kernel = _recenter(current)
    return kernel.weights, False


def _assert_matches_reference(blurred, kernel_size):
    cfg = EstimatorConfig(kernel_size=kernel_size)
    estimate = estimate_kernel(blurred, cfg)
    weights, degenerate = _reference_estimate_kernel(blurred, cfg)
    assert estimate.degenerate == degenerate
    assert np.array_equal(estimate.kernel.weights, weights)


@settings(max_examples=25)
@given(
    height=st.integers(32, 96),
    width=st.integers(32, 96),
    half=st.integers(1, 7),
    seed=st.integers(0, 2**16),
)
def test_estimate_kernel_matches_the_reference_loop_bit_for_bit(height, width, half, seed):
    largest = (min(height, width) // 3 - 1) | 1  # the largest odd k with 3k <= the side
    kernel_size = min(2 * half + 1, largest)
    sharp = textured_scene(max(height, width), seed=seed).pixels[:height, :width]
    true_kernel = random_motion_kernel(kernel_size, seed=seed + 1)
    blurred = blur_image(Image(sharp), true_kernel, NoiseModel(sigma=1.0, seed=seed + 2))
    _assert_matches_reference(blurred, kernel_size)


def test_estimate_kernel_matches_the_reference_loop_at_the_paper_size():
    """228 px with k=27: every spectrum is over numpy's 256 KiB threshold
    for reusing a temporary's buffer, which can reorder a product."""
    sharp = textured_scene(228, seed=41)
    blurred = blur_image(sharp, random_motion_kernel(27, seed=42), NoiseModel(sigma=1.0, seed=43))
    _assert_matches_reference(blurred, 27)


def test_estimate_kernel_matches_the_reference_loop_on_a_flat_patch():
    _assert_matches_reference(Image(np.full((48, 48), 0.6)), 9)


def test_deconvolve_matches_the_reference_at_384_px():
    sharp = textured_scene(384, seed=44)
    k = random_motion_kernel(27, seed=45)
    blurred = blur_image(sharp, k, NoiseModel(sigma=1.0, seed=46))
    assert np.array_equal(deconvolve(blurred, k).pixels, _reference_deconvolve(blurred.pixels, k))


@pytest.mark.parametrize("shape", [(48, 48), (48, 45), (45, 50)])
@pytest.mark.parametrize("size", [1, 5, 9, 45])
def test_solve_kernel_matches_the_reference_solve(shape, size):
    latent = textured_scene(64, seed=shape[1] + size).pixels[:shape[0], :shape[1]]
    blurred = convolve_direct(Image(latent), random_motion_kernel(9, seed=size)).pixels
    grads = (_forward_diff(latent), _forward_diff(blurred))
    got = solve_kernel(grads[0], _spectra(grads[1]), size).weights
    assert np.array_equal(got, _reference_solve_kernel(*grads, size).weights)


@pytest.mark.parametrize("shape", [(2, 2), (2, 5), (5, 2), (23, 23), (40, 37)])
def test_shock_step_matches_convolve_and_gradient(shape):
    arr = np.random.default_rng(shape[0] * 100 + shape[1]).uniform(0, 1, shape)
    assert np.array_equal(_shock_step(arr), _reference_shock_step(arr))


@pytest.mark.parametrize("shape", [(1, 1), (3, 8), (23, 23), (40, 37)])
def test_presmoothing_matches_gaussian_filter(shape):
    pixels = np.random.default_rng(shape[0] * 100 + shape[1]).uniform(0, 1, shape)
    expected = ndimage.gaussian_filter(pixels, PRESMOOTH_SIGMA, mode="nearest")
    assert np.array_equal(_presmooth(pixels), expected)
