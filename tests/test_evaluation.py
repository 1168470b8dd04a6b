import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regiondeblur import evaluation
from regiondeblur.classifier import build_small_resnet
from regiondeblur.demodata import eval_scene, random_motion_kernel
from regiondeblur.errors import DegenerateDenominatorError, DimensionError, ValidationError
from regiondeblur.estimator import EstimatorConfig, estimate_kernel
from regiondeblur.evaluation import (
    EVAL_CSV_HEADER,
    EVAL_METHODS,
    EvalRecord,
    align_to_reference,
    error_ratio,
    evaluate_pipeline,
    psnr,
    success_curve,
    success_thresholds,
    write_eval_csv,
    write_success_curve_svg,
)
from regiondeblur.imagecore import Image, Kernel, read_image, write_image, write_kernel
from regiondeblur.selector import score_patches
from regiondeblur.synthesis import (
    NoiseModel,
    PatchGridSpec,
    PatchRef,
    derive_seed,
    generate_corpus,
    patch_grid,
)


def _img(arr):
    return Image(np.asarray(arr, dtype=np.float64))


def test_error_ratio_is_one_for_the_baseline_itself():
    rng = np.random.default_rng(0)
    reference = _img(rng.uniform(size=(12, 12)))
    baseline = _img(rng.uniform(size=(12, 12)))
    assert error_ratio(baseline, reference, baseline) == 1.0


def test_error_ratio_is_zero_for_a_perfect_restoration():
    rng = np.random.default_rng(1)
    reference = _img(rng.uniform(size=(10, 10)))
    baseline = _img(rng.uniform(size=(10, 10)))
    assert error_ratio(reference, reference, baseline) == 0.0


def test_error_ratio_margin_ignores_border_damage():
    rng = np.random.default_rng(2)
    ref = rng.uniform(size=(16, 16))
    base = np.array(ref)
    base[8, 8] += 0.5
    est = np.array(ref)
    est[0, 0] = 1.0
    est[15, 15] = 0.0
    assert error_ratio(_img(est), _img(ref), _img(base)) > 0.0
    assert error_ratio(_img(est), _img(ref), _img(base), margin=2) == 0.0


def test_error_ratio_rejects_degenerate_denominator():
    ref = _img(np.full((8, 8), 0.5))
    est = _img(np.zeros((8, 8)))
    with pytest.raises(DegenerateDenominatorError):
        error_ratio(est, ref, ref)


def test_error_ratio_rejects_shape_mismatch_and_overcrop():
    a = _img(np.zeros((8, 8)))
    b = _img(np.zeros((8, 9)))
    with pytest.raises(DimensionError):
        error_ratio(a, b, a)
    with pytest.raises(DimensionError):
        error_ratio(a, a, a, margin=4)


def test_align_recovers_a_known_shift():
    rng = np.random.default_rng(3)
    reference = rng.uniform(size=(24, 24))
    shifted = np.roll(reference, (2, -1), axis=(0, 1))
    aligned = align_to_reference(_img(shifted), _img(reference), margin=3)
    assert np.array_equal(aligned.pixels, reference)


def test_align_leaves_registered_images_alone():
    rng = np.random.default_rng(4)
    reference = _img(rng.uniform(size=(20, 20)))
    aligned = align_to_reference(reference, reference, margin=2)
    assert np.array_equal(aligned.pixels, reference.pixels)


def test_align_validates_its_window():
    img = _img(np.zeros((16, 16)))
    with pytest.raises(ValidationError, match="margin must be non-negative"):
        align_to_reference(img, img, margin=-1)
    with pytest.raises(DimensionError, match="leaves no interior"):
        align_to_reference(img, img, margin=8)
    with pytest.raises(DimensionError, match="shape mismatch"):
        align_to_reference(img, _img(np.zeros((16, 17))), margin=1)


def _reference_align(image, reference, max_shift, margin):
    """The original search: roll the whole image for every shift."""
    if max_shift == 0:
        return image
    ref = reference.pixels[margin:reference.height - margin, margin:reference.width - margin]
    best_ssd, best_shift = math.inf, (0, 0)
    for dy in range(-max_shift, max_shift + 1):
        for dx in range(-max_shift, max_shift + 1):
            shifted = np.roll(image.pixels, (dy, dx), axis=(0, 1))
            inner = shifted[margin:shifted.shape[0] - margin, margin:shifted.shape[1] - margin]
            ssd = float(np.sum((inner - ref) ** 2))
            if ssd < best_ssd:
                best_ssd, best_shift = ssd, (dy, dx)
    return _img(np.roll(image.pixels, best_shift, axis=(0, 1)))


@st.composite
def _alignment_cases(draw):
    height, width = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    margin = draw(st.integers(0, (min(height, width) - 1) // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    reference = rng.uniform(size=(height, width))
    kind = draw(st.sampled_from(["random", "flat", "quantized", "shifted", "ulp-apart"]))
    if kind == "random":
        image = rng.uniform(size=(height, width))
    elif kind == "flat":
        image = np.full((height, width), rng.uniform())
    elif kind == "quantized":
        levels = draw(st.integers(1, 3))
        reference = np.round(reference * levels) / levels
        image = np.round(rng.uniform(size=(height, width)) * levels) / levels
    elif kind == "shifted":
        shift = rng.integers(-margin, margin + 1, size=2)
        image = np.roll(reference, tuple(shift), axis=(0, 1))
    else:
        image = reference * (1.0 + 2.0 ** -52 * rng.integers(-2, 3, size=(height, width)))
    return _img(image), _img(reference), margin


@settings(max_examples=300)
@given(_alignment_cases())
def test_align_matches_the_roll_loop(case):
    image, reference, margin = case
    aligned = align_to_reference(image, reference, margin)
    assert np.array_equal(aligned.pixels, _reference_align(image, reference, margin, margin).pixels)


def test_psnr_known_values():
    ref = _img(np.zeros((10, 10)))
    off_by_tenth = _img(np.full((10, 10), 0.1))
    off_by_half = _img(np.full((10, 10), 0.5))
    assert psnr(off_by_tenth, ref) == pytest.approx(20.0, abs=1e-12)
    assert psnr(off_by_half, ref) == pytest.approx(10.0 * math.log10(4.0), abs=1e-12)
    assert psnr(ref, ref) == math.inf


def test_success_thresholds_span_one_to_five():
    ts = success_thresholds()
    assert len(ts) == 41
    assert ts[0] == 1.0
    assert ts[-1] == 5.0
    assert ts[5] == 1.5


def test_success_curve_is_monotone_and_ignores_nan():
    ratios = [1.0, 1.2, 2.0, 4.9, math.nan]
    thresholds, fractions = success_curve(ratios)
    assert fractions == sorted(fractions)
    assert fractions[0] == pytest.approx(0.2)
    assert fractions[-1] == pytest.approx(0.8)
    with pytest.raises(ValidationError):
        success_curve([])


def _records():
    return [
        EvalRecord("img0", "gt", 1.0, 31.5, 1.0, 10, 20, "ok"),
        EvalRecord("img0", "whole", math.inf, math.nan, 0.25, None, None, "ok"),
        EvalRecord("img1", "top", math.nan, math.nan, math.nan, None, None, "error:DimensionError"),
    ]


def test_write_eval_csv_layout(tmp_path):
    path = tmp_path / "results.csv"
    write_eval_csv(_records(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == EVAL_CSV_HEADER
    assert lines[1] == "img0,gt,1.0,31.5,1.0,10,20,ok"
    assert lines[2] == "img0,whole,inf,nan,0.25,,,ok"
    assert lines[3] == "img1,top,nan,nan,nan,,,error:DimensionError"
    assert path.read_text().endswith("\n")


def test_success_curve_svg_structure(tmp_path):
    path = tmp_path / "curve.svg"
    thresholds, fractions = success_curve([1.0, 1.3, 2.2])
    write_success_curve_svg({"top": (thresholds, fractions), "whole": (thresholds, fractions)}, path)
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert "<metadata>" in text
    meta = text.split("<metadata>")[1].split("</metadata>")[0]
    rows = [r for r in meta.strip().splitlines() if r]
    assert rows[0] == "threshold,top,whole"
    assert len(rows) == 1 + len(thresholds)
    assert rows[1].startswith("1.0,")


@pytest.fixture(scope="module")
def eval_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval_corpus")
    sharp = root / "sharp"
    kernels = root / "kernels"
    sharp.mkdir()
    kernels.mkdir()
    for i in range(2):
        write_image(eval_scene(64, seed=10 + i), sharp / f"img{i}.pgm")
    write_kernel(random_motion_kernel(7, seed=50), kernels / "k.txt")
    with pytest.warns(UserWarning):
        return generate_corpus(sharp, kernels, NoiseModel(sigma=1.0, seed=3), root / "corpus")


def test_evaluate_pipeline_controls_and_failures(eval_corpus, tmp_path):
    """Each row names the patch its method estimated from: `top` the one the
    classifier ranks first, `random` the pick seeded by the image index,
    `center` the centred one; `whole`, `gt` and error rows name none. A 1x1
    true kernel cannot size the estimator, so that image's estimating methods
    become error rows while its `gt` control is still scored."""
    grid = PatchGridSpec(patch_size=32, stride=32)
    cfg = EstimatorConfig(kernel_size=7)
    net = build_small_resnet(seed=5, input_side=32)
    write_kernel(Kernel.delta(1), tmp_path / "delta.txt")
    delta = replace(eval_corpus.entries[0], kernel_path=str(tmp_path / "delta.txt"))
    manifest = replace(eval_corpus, entries=[*eval_corpus.entries, delta])
    records = evaluate_pipeline(manifest, grid, cfg, net=net, methods=EVAL_METHODS, master_seed=9)
    assert [r.method for r in records] == list(EVAL_METHODS) * 3
    for index, entry in enumerate(manifest.entries):
        blurred = read_image(manifest.resolve(entry.blurred_path))
        refs = patch_grid(blurred, grid)
        picks = {
            "top": score_patches(net, blurred, grid.stride)[0].ref,
            "random": refs[int(np.random.default_rng(derive_seed(9, index)).integers(len(refs)))],
            "center": PatchRef(16, 16, 32),
        }
        for r in records[5 * index:5 * index + 5]:
            if r.method == "gt":
                assert (r.error_ratio, r.similarity, r.status) == (1.0, 1.0, "ok")
            elif index == 2:
                assert r.status == "error:ValidationError"
                assert math.isnan(r.error_ratio) and math.isnan(r.similarity)
            else:
                assert r.status in ("ok", "degenerate")
            pick = None if r.status.startswith("error:") else picks.get(r.method)
            expected = (None, None) if pick is None else (pick.row0, pick.col0)
            assert (r.patch_row, r.patch_col) == expected


def test_evaluate_pipeline_estimates_a_non_square_kernel_at_its_longer_side(wide_kernel_corpus,
                                                                           monkeypatch):
    """An 11 x 15 true kernel is estimated at 15, and every alignment shifts
    by at most, and drops a border of, 7 px: half that side."""
    sides, margins = [], []

    def spy_estimate(blurred, cfg):
        sides.append(cfg.kernel_size)
        return estimate_kernel(blurred, cfg)

    def spy_align(image, reference, margin):
        margins.append(margin)
        return align_to_reference(image, reference, margin)

    monkeypatch.setattr(evaluation, "estimate_kernel", spy_estimate)
    monkeypatch.setattr(evaluation, "align_to_reference", spy_align)
    records = evaluate_pipeline(wide_kernel_corpus, PatchGridSpec(patch_size=48, stride=48),
                                EstimatorConfig(kernel_size=7), methods=("whole", "center", "gt"))
    assert sides == [15, 15]
    assert margins == [7] * 3
    assert [r.status for r in records] == ["ok"] * 3


def test_evaluate_pipeline_tries_each_baseline_once(eval_corpus, monkeypatch):
    """A baseline that cannot be computed is one attempt per image, and
    every method of that image becomes an error row."""
    attempts = []

    def failing_deconvolve(blurred, kernel):
        attempts.append(kernel)
        raise DimensionError("no baseline")

    monkeypatch.setattr(evaluation, "deconvolve", failing_deconvolve)
    records = evaluate_pipeline(eval_corpus, PatchGridSpec(patch_size=32, stride=32),
                                EstimatorConfig(kernel_size=7), methods=("gt", "center", "whole"))
    assert [(r.method, r.status) for r in records] == [
        (m, "error:DimensionError") for m in ("gt", "center", "whole")] * 2
    assert len(attempts) == 2


def test_evaluate_pipeline_random_is_seed_stable(eval_corpus):
    grid = PatchGridSpec(patch_size=32, stride=32)
    cfg = EstimatorConfig(kernel_size=7)
    a = evaluate_pipeline(eval_corpus, grid, cfg, methods=("random",), master_seed=4)
    b = evaluate_pipeline(eval_corpus, grid, cfg, methods=("random",), master_seed=4)
    c = evaluate_pipeline(eval_corpus, grid, cfg, methods=("random",), master_seed=5)
    assert a == b
    assert [(r.patch_row, r.patch_col) for r in a] != [(r.patch_row, r.patch_col) for r in c]


def test_evaluate_pipeline_validates_inputs(eval_corpus):
    grid = PatchGridSpec(patch_size=32, stride=32)
    cfg = EstimatorConfig(kernel_size=7)
    with pytest.raises(ValidationError):
        evaluate_pipeline(eval_corpus, grid, cfg, methods=("bogus",))
    with pytest.raises(ValidationError):
        evaluate_pipeline(eval_corpus, grid, cfg, methods=("top",))
