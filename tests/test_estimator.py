import numpy as np
import pytest

from regiondeblur.demodata import random_motion_kernel, textured_scene
from regiondeblur.errors import (
    DegenerateInputError,
    DimensionError,
    EstimatorError,
    ValidationError,
)
from regiondeblur.estimator import (
    BlindEstimator,
    EstimatorConfig,
    ExternalEstimator,
    build_pyramid,
    estimate_kernel,
    predict_gradients,
    project_kernel,
    solve_kernel,
    solve_latent,
)
from regiondeblur.imagecore import Image, Kernel, kernel_otf, write_image
from regiondeblur.kernelsim import kernel_similarity


def test_config_rejects_even_kernel_size():
    with pytest.raises(ValidationError):
        EstimatorConfig(kernel_size=10)


def test_config_rejects_ratio_outside_unit_interval():
    with pytest.raises(ValidationError):
        EstimatorConfig(kernel_size=9, pyramid_ratio=1.5)


def test_pyramid_schedule_for_size_27():
    img = Image(np.random.default_rng(0).uniform(0, 1, (96, 96)))
    pyr = build_pyramid(img, EstimatorConfig(kernel_size=27))
    assert [lvl.kernel_size for lvl in pyr] == [5, 7, 9, 13, 19, 27]
    assert pyr[-1].scale == 1.0
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
    gx, gy = predict_gradients(Image(px), EstimatorConfig(kernel_size=9))
    nz_cols = np.unique(np.nonzero(gx)[1])
    assert len(nz_cols) > 0
    assert nz_cols.min() >= 26 and nz_cols.max() <= 38
    assert not np.any(gy)


def test_predict_gradients_flat_image_is_all_zero():
    gx, gy = predict_gradients(Image(np.full((32, 32), 0.7)), EstimatorConfig(kernel_size=9))
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


def test_solve_kernel_identity_gives_delta():
    img = textured_scene(64, seed=5)
    grads = _circular_diff(img.pixels)
    k = solve_kernel(grads, grads, 9)
    assert kernel_similarity(k, Kernel.delta(9)).value >= 0.99


def test_solve_kernel_recovers_forward_model():
    latent = textured_scene(64, seed=6)
    true_k = random_motion_kernel(9, seed=7)
    otf = kernel_otf(true_k.weights, latent.shape)
    blurred = np.fft.ifft2(np.fft.fft2(latent.pixels) * otf).real
    k = solve_kernel(_circular_diff(latent.pixels), _circular_diff(blurred), 9)
    assert kernel_similarity(k, true_k).value >= 0.9


def test_solve_kernel_rejects_zero_latent_gradients():
    zeros = np.zeros((32, 32))
    ones = np.ones((32, 32))
    with pytest.raises(DegenerateInputError):
        solve_kernel((zeros, zeros), (ones, ones), 5)


def test_solve_kernel_rejects_mismatched_shapes():
    a = np.zeros((16, 16))
    b = np.zeros((16, 17))
    with pytest.raises(DimensionError):
        solve_kernel((a, a), (b, b), 5)


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
    blurred = Image(np.clip(np.fft.ifft2(np.fft.fft2(sharp.pixels) * otf).real, 0, 1))
    restored = solve_latent(blurred, k)
    interior = slice(12, -12)
    err_restored = np.mean(np.abs(restored.pixels[interior, interior] - sharp.pixels[interior, interior]))
    err_blurred = np.mean(np.abs(blurred.pixels[interior, interior] - sharp.pixels[interior, interior]))
    assert err_restored < 0.5 * err_blurred


def test_solve_latent_rejects_non_positive_reg():
    img = Image(np.full((16, 16), 0.5))
    with pytest.raises(ValidationError):
        solve_latent(img, Kernel.delta(1), reg=0.0)


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
    for case in roundtrip_cases:
        estimate = case["estimate"]
        pyr_sizes = [k.side_h for k in estimate.per_level]
        assert pyr_sizes[-1] == case["side"]
        assert all(s <= case["side"] for s in pyr_sizes)
        assert not estimate.degenerate


def test_estimate_kernel_refines_across_levels(roundtrip_cases):
    improved = 0
    for case in roundtrip_cases:
        coarse = kernel_similarity(case["estimate"].per_level[0], case["true_kernel"]).value
        if case["similarity"] >= coarse:
            improved += 1
    assert improved >= 7


def test_blind_estimator_with_kernel_size_returns_new_instance():
    base = BlindEstimator(EstimatorConfig(kernel_size=13))
    resized = base.with_kernel_size(9)
    assert resized.cfg.kernel_size == 9
    assert base.cfg.kernel_size == 13


def _write_stub(tmp_path, body):
    stub = tmp_path / "stub.py"
    stub.write_text("import sys\n" + body)
    return stub


def test_external_estimator_runs_command(tmp_path):
    stub = _write_stub(
        tmp_path,
        "open(sys.argv[3], 'w').write('3 3\\n0 0 0\\n0 1 0\\n0 0 0\\n')\n",
    )
    est = ExternalEstimator(["python3", str(stub)], kernel_size=3)
    result = est(textured_scene(32, seed=11))
    assert result.kernel.weights[1, 1] == 1.0
    assert not result.degenerate


def test_external_estimator_propagates_requested_size(tmp_path):
    stub = _write_stub(
        tmp_path,
        "s = int(sys.argv[2])\n"
        "rows = [' '.join(['0'] * s) for _ in range(s)]\n"
        "mid = s // 2\n"
        "cells = rows[mid].split(); cells[mid] = '1'; rows[mid] = ' '.join(cells)\n"
        "open(sys.argv[3], 'w').write(f'{s} {s}\\n' + '\\n'.join(rows) + '\\n')\n",
    )
    est = ExternalEstimator(["python3", str(stub)], kernel_size=5).with_kernel_size(7)
    result = est(textured_scene(32, seed=12))
    assert result.kernel.weights.shape == (7, 7)


def test_external_estimator_nonzero_exit_is_error(tmp_path):
    stub = _write_stub(tmp_path, "sys.exit(3)\n")
    est = ExternalEstimator(["python3", str(stub)], kernel_size=3)
    with pytest.raises(EstimatorError):
        est(textured_scene(32, seed=13))


def test_external_estimator_missing_output_is_error(tmp_path):
    stub = _write_stub(tmp_path, "pass\n")
    est = ExternalEstimator(["python3", str(stub)], kernel_size=3)
    with pytest.raises(EstimatorError):
        est(textured_scene(32, seed=14))


def test_external_estimator_timeout_is_error(tmp_path):
    stub = _write_stub(tmp_path, "import time\ntime.sleep(30)\n")
    est = ExternalEstimator(["python3", str(stub)], kernel_size=3, timeout=0.5)
    with pytest.raises(EstimatorError):
        est(textured_scene(32, seed=15))
