"""End-to-end acceptance gate.

Each test checks one release criterion and prints a single verdict line,
bypassing output capture so the verdicts survive in piped logs. Thresholds
marked as calibrated were measured once on this exact seeded setup and then
frozen; they are not tuned per run.
"""

import hashlib
import json
import math
import statistics
import time

import numpy as np
import pytest
from conftest import FIXTURE_SECONDS
from test_imagecore import conv_oracle

from regiondeblur.classifier import (
    Conv2d,
    Dense,
    GlobalAveragePool,
    Network,
    ReLU,
    ResidualBlock,
    bce_loss,
    bce_with_logits,
    build_small_resnet,
    train,
)
from regiondeblur.cli import EXIT_OK, main
from regiondeblur.demodata import eval_scene, random_motion_kernel, textured_scene
from regiondeblur.errors import ValidationError
from regiondeblur.estimator import EstimatorConfig
from regiondeblur.evaluation import error_ratio, evaluate_pipeline
from regiondeblur.imagecore import BoundaryMode, Image, Kernel, convolve_direct, convolve_fft, write_image, write_kernel
from regiondeblur.kernelsim import kernel_similarity
from regiondeblur.synthesis import NoiseModel, PatchGridSpec, generate_corpus


def _report(capsys, number, name, t0, ok, limit=None, detail="", extra_seconds=0.0):
    elapsed = time.perf_counter() - t0 + extra_seconds
    within = limit is None or elapsed < limit
    verdict = "PASS" if ok and within else "FAIL"
    line = f"[ACCEPTANCE {number}] {name}: {verdict} ({elapsed:.1f}s)"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, f"{line} {detail}".strip()
    assert within, f"{line} exceeded the {limit}s budget"


def _random_kernel(rng, side):
    raw = rng.uniform(0.0, 1.0, (side, side))
    return Kernel(raw / raw.sum())


def test_acceptance_1_convolution_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_fft = worst_oracle = 0.0
    for case in range(50):
        side = 64 if case < 3 else int(rng.integers(8, 41))
        kside = 13 if case < 3 else int(rng.integers(1, 5)) * 2 + 1
        image = Image(rng.uniform(0.0, 1.0, (side, side)))
        kernel = _random_kernel(rng, kside)
        mode = BoundaryMode.PERIODIC if case % 2 else BoundaryMode.REPLICATE
        direct = convolve_direct(image, kernel, mode)
        fft = convolve_fft(image, kernel, mode)
        worst_fft = max(worst_fft, float(np.max(np.abs(fft.pixels - direct.pixels))))
        oracle = conv_oracle(image.pixels.tolist(), kernel.weights.tolist(), mode)
        worst_oracle = max(worst_oracle, float(np.max(np.abs(direct.pixels - oracle))))
    ok = worst_fft < 1e-8 and worst_oracle < 1e-12
    _report(capsys, 1, "convolution routes agree", t0, ok, limit=10,
            detail=f"fft-direct {worst_fft:.2e}, direct-oracle {worst_oracle:.2e}")


def test_acceptance_2_error_ratio_identities(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    for case in range(10):
        side = int(rng.integers(12, 40))
        margin = int(rng.integers(0, 4))
        reference = Image(rng.uniform(0.0, 1.0, (side, side)))
        baseline = Image(rng.uniform(0.0, 1.0, (side, side)))
        ok = ok and error_ratio(baseline, reference, baseline, margin) == 1.0
        ok = ok and error_ratio(reference, reference, baseline, margin) == 0.0
    _report(capsys, 2, "error ratio identities", t0, ok, limit=5)


def test_acceptance_3_cross_entropy_values(capsys):
    t0 = time.perf_counter()
    coin = bce_loss(np.array([0.5]), np.array([1.0]))
    two = bce_loss(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
    expected_two = (-math.log(0.9) - math.log(0.8)) / 2.0
    ok = abs(coin - math.log(2.0)) < 1e-12 and abs(two - 0.164252) < 1e-6
    _report(capsys, 3, "cross-entropy reference values", t0, ok,
            detail=f"ln2 err {abs(coin - math.log(2.0)):.2e}, "
                   f"two-sample {two:.9f} vs {expected_two:.9f}")


def test_acceptance_4_gradient_check(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    net = Network(
        [Conv2d(1, 4, 3, 2, rng), ReLU(), ResidualBlock(4, 6, 2, rng),
         GlobalAveragePool(), Dense(6, 1, rng)],
        input_side=8, standardize=False,
    )
    # biases moved off zero so no ReLU pre-activation sits exactly on its kink
    brng = np.random.default_rng(32)
    for p in net.parameters():
        if p.ndim == 1:
            p[...] = brng.normal(0.0, 0.05, p.shape)
    x = np.random.default_rng(33).uniform(0.0, 1.0, (3, 8, 8))
    y = np.array([1.0, 0.0, 1.0])

    tape = []
    z = net.logits(x, tape)
    _, dz = bce_with_logits(z, y)

    h = 1e-5
    worst = 0.0
    checked = 0
    for p, g in zip(net.parameters(), net.backward(tape, dz), strict=True):
        flat, gflat = p.reshape(-1), g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = bce_with_logits(net.logits(x), y)[0]
            flat[idx] = orig - h
            down = bce_with_logits(net.logits(x), y)[0]
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-8))
            checked += 1
    ok = worst < 1e-4
    _report(capsys, 4, "analytic gradients match finite differences", t0, ok, limit=60,
            detail=f"worst rel err {worst:.2e} over {checked} parameters")


def test_acceptance_5_similarity_properties(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(20):
        k = _random_kernel(rng, int(rng.integers(1, 8)) * 2 + 1)
        ok = ok and kernel_similarity(k, k) == 1.0
    small = _random_kernel(rng, 5).weights
    a = np.zeros((11, 11))
    b = np.zeros((11, 11))
    a[0:5, 0:5] = small
    b[4:9, 6:11] = small
    ok = ok and kernel_similarity(Kernel(a), Kernel(b)) == 1.0
    probe = _random_kernel(rng, 7)
    ok = ok and kernel_similarity(Kernel(a), probe) == kernel_similarity(Kernel(b), probe)
    in_range = True
    for _ in range(200):
        x = _random_kernel(rng, int(rng.integers(1, 8)) * 2 + 1)
        y = _random_kernel(rng, int(rng.integers(1, 8)) * 2 + 1)
        s = kernel_similarity(x, y)
        t = kernel_similarity(y, x)
        ok = ok and s == t
        in_range = in_range and 0.0 <= s <= 1.0
    ok = ok and in_range
    _report(capsys, 5, "kernel similarity properties", t0, ok, limit=5)


def test_acceptance_6_blind_round_trip(roundtrip_cases, capsys):
    t0 = time.perf_counter()
    # Calibration (frozen): noiseless 128px scenes, kernel sides 9-15, one
    # pilot run scored 0.9137, 0.9885, 0.9765, 0.9910, 0.9690, 0.9886,
    # 0.8997, 0.9609, 0.9916, 0.9711 -- all ten clear 0.8, so the bar below
    # stays at 8 of 10 over 0.8.
    threshold = 0.8
    sims = [c["similarity"] for c in roundtrip_cases]
    hits = sum(1 for s in sims if s >= threshold)
    ok = hits >= 8
    _report(capsys, 6, "blind estimation round trip", t0, ok, limit=300,
            detail=f"{hits}/10 at sim >= {threshold}: " + ", ".join(f"{s:.4f}" for s in sims),
            extra_seconds=FIXTURE_SECONDS.get("roundtrip_cases", 0.0))


def test_acceptance_7_training_sanity(acceptance_dataset, trained_model, capsys):
    t0 = time.perf_counter()
    samples = acceptance_dataset["samples"]
    positives = sum(s.label for s in samples)
    balanced = abs(positives - len(samples) // 2) <= 20

    held_out = trained_model["held_out"]
    x = np.stack([s.patch.pixels for s in held_out])
    truth = np.array([s.label for s in held_out])
    probs = trained_model["net"].forward_batch(x)
    accuracy = float(np.mean((probs >= 0.5).astype(int) == truth))

    rerun = train(build_small_resnet(seed=11, input_side=64),
                  trained_model["train_set"], trained_model["config"])
    probs_again = rerun.network.forward_batch(x)
    deterministic = np.array_equal(probs, probs_again) and all(
        a.mean_loss == b.mean_loss for a, b in zip(trained_model["epochs"], rerun.epochs)
    )

    ok = balanced and accuracy >= 0.75 and deterministic
    _report(capsys, 7, "classifier training sanity", t0, ok, limit=900,
            detail=f"balance {positives}/{len(samples)}, held-out accuracy {accuracy:.3f}, "
                   f"deterministic={deterministic}",
            extra_seconds=FIXTURE_SECONDS.get("acceptance_dataset", 0.0)
            + FIXTURE_SECONDS.get("trained_model", 0.0))


def test_acceptance_8_region_selection_beats_baselines(trained_model, tmp_path_factory, capsys):
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("acceptance_corpus")
    sharp = root / "sharp"
    kernels = root / "kernels"
    sharp.mkdir()
    kernels.mkdir()
    for i in range(10):
        write_image(eval_scene(160, seed=5000 + i, stripe_period=2 + i % 3),
                    sharp / f"scene{i:02d}.pgm")
    write_kernel(random_motion_kernel(9, seed=70), kernels / "k09.txt")
    write_kernel(random_motion_kernel(13, seed=71), kernels / "k13.txt")
    with pytest.warns(UserWarning):
        manifest = generate_corpus(sharp, kernels, NoiseModel(sigma=1.0, seed=8), root / "corpus")

    records = evaluate_pipeline(
        manifest, PatchGridSpec(patch_size=64, stride=32), EstimatorConfig(kernel_size=13),
        net=trained_model["net"], methods=("top", "random", "whole", "gt"), master_seed=0,
    )
    by_method = {}
    for r in records:
        by_method.setdefault(r.method, []).append(r.error_ratio)
    mean_top = statistics.mean(by_method["top"])
    mean_random = statistics.mean(by_method["random"])
    median_top = statistics.median(by_method["top"])
    median_whole = statistics.median(by_method["whole"])
    control = all(er == 1.0 for er in by_method["gt"])
    ok = (len(records) == 80 and control
          and mean_top <= mean_random and median_top <= median_whole)
    _report(capsys, 8, "selected regions beat baselines", t0, ok, limit=1200,
            detail=f"mean top {mean_top:.2f} vs random {mean_random:.2f}; "
                   f"median top {median_top:.2f} vs whole {median_whole:.2f}")


def _run_pipeline(root, sharp, kernels, jobs="1"):
    corpus = root / "corpus"
    dataset = root / "dataset"
    model = root / "model"
    evaldir = root / "eval"
    assert main(["synthesize", "--sharp-dir", str(sharp), "--kernel-dir", str(kernels),
                 "--out-dir", str(corpus), "--sigma", "1.0", "--seed", "5",
                 "--jobs", jobs]) == EXIT_OK
    assert main(["label", "--manifest", str(corpus / "manifest.json"),
                 "--out-dir", str(dataset), "--patch-size", "32", "--stride", "32",
                 "--kernel-size", "7", "--lambda", "0.6", "--jobs", jobs]) == EXIT_OK
    assert main(["train", "--dataset", str(dataset / "dataset.json"),
                 "--out-dir", str(model), "--epochs", "6", "--batch-size", "8",
                 "--learning-rate", "0.01", "--seed", "3"]) == EXIT_OK
    assert main(["evaluate", "--manifest", str(corpus / "manifest.json"),
                 "--model", str(model / "model.bin"), "--out-dir", str(evaldir),
                 "--patch-size", "32", "--stride", "32"]) == EXIT_OK
    return {
        "manifest": (corpus / "manifest.json").read_bytes(),
        "blurred": {p.name: p.read_bytes() for p in sorted(corpus.glob("*.pfm"))},
        "dataset": (dataset / "dataset.json").read_bytes(),
        "model": hashlib.sha256((model / "model.bin").read_bytes()).hexdigest(),
        "csv": (evaldir / "results.csv").read_bytes(),
    }


def test_acceptance_9_pipeline_determinism(tmp_path_factory, capsys):
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("determinism")
    sharp = root / "sharp"
    kernels = root / "kernels"
    sharp.mkdir()
    kernels.mkdir()
    for i in range(3):
        write_image(eval_scene(64, seed=20 + i), sharp / f"scene{i}.pgm")
    write_kernel(random_motion_kernel(7, seed=60), kernels / "k.txt")

    first = _run_pipeline(root / "a", sharp, kernels, jobs="1")
    second = _run_pipeline(root / "b", sharp, kernels, jobs="1")
    parallel = _run_pipeline(root / "c", sharp, kernels, jobs="4")

    rerun_same = first == second
    jobs_same = first == parallel
    ok = rerun_same and jobs_same
    _report(capsys, 9, "pipeline rerun is byte-identical", t0, ok,
            detail=f"rerun={rerun_same}, jobs 1 vs 4={jobs_same}")
