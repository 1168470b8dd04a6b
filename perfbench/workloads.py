"""The benchmark's workloads: `label`, `train` and `deblur`.

Each workload has a seeded set-up that writes or builds its inputs, a unit
of work that is timed in a closed loop (one client, the next unit starts
when the previous one ends), and checks on every unit's outputs. The
program receives only the generated inputs; the seed never reaches it.

- `label` runs `regiondeblur label` through `cli.main` on a demo-style
  corpus at `--jobs 2`. The blind estimator and kernel similarity do nearly
  all the work; the classifier does none.
- `train` runs `classifier.train` on family-labeled 64 px patches. The CNN's
  forward and backward passes do nearly all the work; the estimator does
  none, so an estimator change should leave it unchanged.
- `deblur` runs `evaluate_pipeline(methods=("top", "gt"))` one 384 px image
  at a time: score 64 candidate 228 px patches, estimate a 27 px kernel from
  the best one, deconvolve, align and score. Same two layers as above, used
  differently: forward-only scoring on large batches and a few large FFTs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from regiondeblur import (
    classifier,
    cli,
    demodata,
    estimator,
    evaluation,
    imagecore,
    kernelsim,
    labeling,
    selector,
    synthesis,
)
from regiondeblur.classifier import Network, TrainConfig, TrainingSample
from regiondeblur.synthesis import CorpusManifest, NoiseModel, PatchGridSpec

SETUP_REPEATS = 3
LABEL_JOBS = 2
NOISE_SIGMA = 1.0
# Layer groups of build_small_resnet's seven layers, in order.
RESNET_GROUPS = ("stem", "stem", "res1", "res2", "res3", "head", "head")


@dataclass(frozen=True)
class Sizes:
    """Input sizes. `FULL` is what the benchmark measures; `TINY` keeps the
    benchmark's own tests fast."""

    label_side: int = 160
    label_scenes: int = 6
    label_kernels: tuple = (11, 13, 15)
    label_patch: int = 64
    label_stride: int = 32
    label_kernel_size: int = 15
    label_units: int = 3
    train_count: int = 400
    train_held_out: int = 80
    train_epochs: int = 6
    train_units: int = 3
    deblur_side: int = 384
    deblur_texture: int = 288
    deblur_scenes: int = 4
    deblur_kernel_size: int = 27
    deblur_kernels: int = 2
    deblur_patch: int = 228
    deblur_stride: int = 20
    scorer_count: int = 160
    scorer_epochs: int = 8


FULL = Sizes()
TINY = Sizes(
    label_side=96, label_scenes=2, label_kernels=(9,), label_kernel_size=9, label_units=1,
    train_count=80, train_held_out=16, train_epochs=1, train_units=1,
    deblur_side=128, deblur_texture=96, deblur_scenes=1, deblur_kernel_size=9,
    deblur_kernels=1, deblur_patch=64, deblur_stride=32, scorer_count=32, scorer_epochs=1,
)


@dataclass
class Outcome:
    """What one run produced: per-unit times and item counts (untraced
    runs), the span window and both pass times (traced runs), the quality
    figure, per-layer values known only to the workload, and the check
    tally."""

    unit_seconds: list = field(default_factory=list)
    unit_items: list = field(default_factory=list)
    window: tuple = (0, 0)
    traced_s: float = math.nan
    untraced_s: float = math.nan
    quality: float = math.nan
    layer_values: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def closed_loop(seconds: float, min_units: int, unit) -> list:
    """Run `unit(i)` back to back: at least `min_units` times, then while
    another unit of average length still fits in `seconds`."""
    durations: list[float] = []
    start = time.perf_counter()
    i = 0
    while i < min_units or (time.perf_counter() - start) + statistics.fmean(durations) <= seconds:
        t0 = time.perf_counter()
        unit(i)
        durations.append(time.perf_counter() - t0)
        i += 1
    return durations


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _traced_pass(outcome: Outcome, tracer, fn, *args):
    """Run `fn` with the tracer installed, then uninstall it; record the
    pass's span window and wall time."""
    begin = tracer.mark()
    result, outcome.traced_s = _timed(fn, *args)
    tracer.close()
    outcome.window = (begin, tracer.mark())
    return result


def _guarded(outcome: Outcome, items: int, fn, *args):
    """Run one unit; an exception counts all its items as failed."""
    try:
        return fn(*args)
    except Exception:
        outcome.fail(items, traceback.format_exc(limit=4))
        return None


def _family_patches(count: int, side: int, seed) -> list[TrainingSample]:
    """Blurred patches labeled by family: textured is 1; stripes, flat and
    ramp are 0. Two in five are textured."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(count):
        kind = i % 5
        if kind in (0, 1):
            sharp = demodata.textured_scene(side, seed=int(rng.integers(1 << 31)), blobs=18)
        elif kind == 2:
            sharp = demodata.stripe_texture(side, period=int(rng.integers(2, 5)),
                                            horizontal=bool(rng.integers(2)))
        elif kind == 3:
            sharp = demodata.flat_patch(side, float(rng.uniform(0.2, 0.8)))
        else:
            low = float(rng.uniform(0.3, 0.4))
            sharp = demodata.smooth_ramp(side, low, low + 0.25)
        kernel = demodata.random_motion_kernel((9, 11, 13)[i % 3], seed=int(rng.integers(1 << 31)))
        noise = NoiseModel(sigma=NOISE_SIGMA, seed=int(rng.integers(1 << 31)))
        samples.append(TrainingSample(patch=synthesis.blur_image(sharp, kernel, noise),
                                      label=int(kind in (0, 1))))
    return samples


def _write_corpus(root: Path, scenes, kernels, seed: int) -> CorpusManifest:
    (root / "sharp").mkdir(parents=True)
    (root / "kernels").mkdir()
    for i, scene in enumerate(scenes):
        imagecore.write_image(scene, root / "sharp" / f"scene{i:02d}.pgm")
    for i, kernel in enumerate(kernels):
        imagecore.write_kernel(kernel, root / "kernels" / f"motion{i:02d}.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # kernels below the paper's 11 px range
        return synthesis.generate_corpus(root / "sharp", root / "kernels",
                                         NoiseModel(sigma=NOISE_SIGMA, seed=seed), root / "corpus")


# Counters a traced span adds from its call's arguments and result.
def _bytes_read(args, kwargs, result) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _bytes_written(args, kwargs, result) -> dict:
    return {"bytes": Path(args[1]).stat().st_size}


def _patches(args, kwargs, result) -> dict:
    return {"patches": len(result)}


def _degenerate(args, kwargs, result) -> dict:
    return {"degenerate": int(result.degenerate)}


def instrument(tracer) -> None:
    """Install the traced run's wrappers on the public functions of each
    package module and on the FFT transforms."""
    for module, attrs in (
        (imagecore, {"read_image": _bytes_read, "write_image": _bytes_written,
                     "convolve_direct": None}),
        (synthesis, {"generate_corpus": None, "blur_image": None}),
        (estimator, {"estimate_kernel": _degenerate, "build_pyramid": None,
                     "predict_gradients": None, "solve_kernel": None, "solve_latent": None}),
        (kernelsim, {"kernel_similarity": None}),
        (classifier, {"train": None}),
        (selector, {"score_patches": _patches}),
        (labeling, {"build_dataset": None}),
        (evaluation, {"evaluate_pipeline": None, "align_to_reference": None}),
        (cli, {"main": None}),
    ):
        for attr, count in attrs.items():
            tracer.trace_function(module, attr, count)
    tracer.count_ffts()


def instrument_network(tracer, net: Network) -> None:
    for group, layer in zip(RESNET_GROUPS, net.layers):
        tracer.trace_method(layer, "forward", f"classifier.{group}.forward")
        tracer.trace_method(layer, "backward", f"classifier.{group}.backward")
    tracer.trace_method(net, "forward_batch", "classifier.forward_batch", _patches)
    tracer.trace_method(net, "backward", "classifier.backward")


# ---------------------------------------------------------------------------
# label

def label_setup(root: Path, seed: int, sizes: Sizes) -> dict:
    rng = np.random.default_rng([seed, 1])
    scenes = []
    for i in range(sizes.label_scenes):
        scene_seed = int(rng.integers(1 << 31))
        if i % 2 == 0:
            scenes.append(demodata.eval_scene(sizes.label_side, seed=scene_seed,
                                              stripe_period=2 + i % 3))
        else:
            scenes.append(demodata.textured_scene(sizes.label_side, seed=scene_seed))
    kernels = [demodata.random_motion_kernel(side, seed=int(rng.integers(1 << 31)))
               for side in sizes.label_kernels]
    manifest = _write_corpus(root, scenes, kernels, seed)
    return {"manifest": root / "corpus" / "manifest.json", "root": root,
            "patches": len(manifest.entries) * len(synthesis.patch_grid(
                scenes[0], PatchGridSpec(sizes.label_patch, sizes.label_stride)))}


def label_unit(state: dict, sizes: Sizes, jobs: int, out_dir: Path) -> bytes:
    """One `regiondeblur label` run; returns the dataset.json bytes."""
    argv = ["label", "--manifest", str(state["manifest"]), "--out-dir", str(out_dir),
            "--patch-size", str(sizes.label_patch), "--stride", str(sizes.label_stride),
            "--kernel-size", str(sizes.label_kernel_size), "--lambda", "0.6",
            "--jobs", str(jobs)]
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # class-balance advice
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"regiondeblur label exited with code {code}")
    return (out_dir / "dataset.json").read_bytes()


def _check_label(outcome: Outcome, data: bytes | None, reference: bytes | None,
                 expected: int, what: str) -> None:
    outcome.attempted += expected
    if data is None:
        return  # counted by _guarded
    if reference is not None and data != reference:
        outcome.fail(expected, f"{what}: dataset.json differs from the first run")
        return
    rows = json.loads(data)["samples"]
    if len(rows) != expected:
        outcome.fail(expected, f"{what}: {len(rows)} rows, expected {expected}")
        return
    for row in rows:
        sim = row["similarity"]
        if not (math.isfinite(sim) and 0.0 <= sim <= 1.0) or row["status"] not in ("ok", "degenerate"):
            outcome.fail(1, f"{what}: bad row {row}")


def _label_quality(data: bytes | None) -> float:
    if data is None:
        return math.nan
    return statistics.fmean(row["similarity"] for row in json.loads(data)["samples"])


def label_measure(state: dict, sizes: Sizes, seconds: float) -> Outcome:
    outcome = Outcome()
    outputs: list = []

    def unit(i):
        out = state["root"] / f"run{i}"
        outputs.append(_guarded(outcome, state["patches"], label_unit, state, sizes, LABEL_JOBS, out))
        _check_label(outcome, outputs[-1], outputs[0], state["patches"], f"pass {i}")

    outcome.unit_seconds = closed_loop(seconds, sizes.label_units, unit)
    outcome.unit_items = [state["patches"]] * len(outcome.unit_seconds)
    outcome.quality = _label_quality(outputs[0])
    return outcome


def label_traced(state: dict, sizes: Sizes, tracer) -> Outcome:
    """Jobs-1 run traced, so all spans stay in this process, then jobs-1 and
    jobs-2 runs untraced. All three datasets must be byte-identical."""
    outcome = Outcome()
    patches, root = state["patches"], state["root"]
    traced = _traced_pass(outcome, tracer, _guarded, outcome, patches, label_unit,
                          state, sizes, 1, root / "traced")
    _check_label(outcome, traced, None, patches, "traced jobs 1")
    seconds = {}
    for jobs in (1, LABEL_JOBS):
        data, seconds[jobs] = _timed(_guarded, outcome, patches, label_unit,
                                     state, sizes, jobs, root / f"untraced{jobs}")
        _check_label(outcome, data, traced, patches, f"untraced jobs {jobs}")
    outcome.untraced_s = seconds[1]
    outcome.layer_values["labeling.parallel_efficiency"] = seconds[1] / (LABEL_JOBS * seconds[LABEL_JOBS])
    outcome.quality = _label_quality(traced)
    return outcome


# ---------------------------------------------------------------------------
# train

def _train_config(sizes: Sizes) -> TrainConfig:
    return TrainConfig(learning_rate=0.001, momentum=0.9, batch_size=32,
                       epochs=sizes.train_epochs, seed=17, input_side=64)


def train_setup(root: Path, seed: int, sizes: Sizes) -> dict:
    samples = _family_patches(sizes.train_count, 64, [seed, 5])
    cut = sizes.train_count - sizes.train_held_out
    held_out = samples[cut:]
    cfg = _train_config(sizes)
    return {
        "train_set": samples[:cut],
        "held_x": np.stack([s.patch.pixels for s in held_out]),
        "held_y": np.array([s.label for s in held_out]),
        "steps": (cut // cfg.batch_size) * cfg.batch_size * cfg.epochs,
    }


def train_unit(state: dict, sizes: Sizes, tracer=None) -> np.ndarray:
    """Train from a fixed initialisation, then score the held-out patches."""
    net = classifier.build_small_resnet(seed=11, input_side=64)
    if tracer is not None:
        instrument_network(tracer, net)
    result = classifier.train(net, state["train_set"], _train_config(sizes))
    if not all(math.isfinite(e.mean_loss) for e in result.epochs):
        raise FloatingPointError("training loss is not finite")
    return net.forward_batch(state["held_x"])


def _check_train(outcome: Outcome, probs, reference, n: int, what: str) -> None:
    outcome.attempted += n
    if probs is None:
        return  # counted by _guarded
    bad = ~(np.isfinite(probs) & (probs >= 0.0) & (probs <= 1.0))
    if reference is not None:
        bad |= probs != reference
    if bad.any():
        outcome.fail(int(bad.sum()), f"{what}: {int(bad.sum())} held-out scores are bad or differ")


def _accuracy(state: dict, probs) -> float:
    if probs is None:
        return math.nan
    return float(np.mean((probs >= 0.5).astype(int) == state["held_y"]))


def train_measure(state: dict, sizes: Sizes, seconds: float) -> Outcome:
    outcome = Outcome()
    outputs: list = []
    n = len(state["held_y"])

    def unit(i):
        outputs.append(_guarded(outcome, n, train_unit, state, sizes))
        _check_train(outcome, outputs[-1], outputs[0], n, f"pass {i}")

    outcome.unit_seconds = closed_loop(seconds, sizes.train_units, unit)
    outcome.unit_items = [state["steps"]] * len(outcome.unit_seconds)
    outcome.quality = _accuracy(state, outputs[0])
    return outcome


def train_traced(state: dict, sizes: Sizes, tracer) -> Outcome:
    outcome = Outcome()
    n = len(state["held_y"])
    traced = _traced_pass(outcome, tracer, _guarded, outcome, n, train_unit, state, sizes, tracer)
    plain, outcome.untraced_s = _timed(_guarded, outcome, n, train_unit, state, sizes)
    _check_train(outcome, traced, None, n, "traced")
    _check_train(outcome, plain, traced, n, "untraced vs traced")
    outcome.quality = _accuracy(state, traced)
    return outcome


# ---------------------------------------------------------------------------
# deblur

def _deblur_scene(sizes: Sizes, seed: int, index: int) -> imagecore.Image:
    """An eval_scene (texture, stripes, flat, ramp quadrants) whose textured
    corner is enlarged so some candidate patches are texture only, turned by
    a seeded multiple of 90 degrees so the texture moves between corners."""
    rng = np.random.default_rng([seed, 3, index])
    pixels = demodata.eval_scene(sizes.deblur_side, seed=int(rng.integers(1 << 31)),
                                 stripe_period=2 + index % 3).pixels.copy()
    t = sizes.deblur_texture
    pixels[:t, :t] = demodata.textured_scene(t, seed=int(rng.integers(1 << 31))).pixels
    return imagecore.Image(np.rot90(pixels, int(rng.integers(4))).copy())


def deblur_setup(root: Path, seed: int, sizes: Sizes) -> dict:
    """Train the patch scorer on family-labeled 64 px patches, then reuse its
    layers at the 228 px input side (the network is fully convolutional with
    global pooling), and synthesize the 384 px corpus."""
    small = classifier.build_small_resnet(seed=11, input_side=64)
    classifier.train(small, _family_patches(sizes.scorer_count, 64, [seed, 4]),
                     TrainConfig(learning_rate=0.001, momentum=0.9, batch_size=32,
                                 epochs=sizes.scorer_epochs, seed=17, input_side=64))
    net = Network(small.layers, input_side=sizes.deblur_patch)
    rng = np.random.default_rng([seed, 2])
    kernels = [demodata.random_motion_kernel(sizes.deblur_kernel_size, seed=int(rng.integers(1 << 31)))
               for _ in range(sizes.deblur_kernels)]
    scenes = [_deblur_scene(sizes, seed, i) for i in range(sizes.deblur_scenes)]
    manifest = _write_corpus(root, scenes, kernels, seed)
    singles = [CorpusManifest(entries=[e], master_seed=manifest.master_seed,
                              sigma=manifest.sigma, base_dir=manifest.base_dir)
               for e in manifest.entries]
    return {"net": net, "images": singles, "seed": seed}


def deblur_unit(state: dict, sizes: Sizes, index: int) -> list:
    manifest = state["images"][index % len(state["images"])]
    return evaluation.evaluate_pipeline(
        manifest, PatchGridSpec(sizes.deblur_patch, sizes.deblur_stride),
        estimator.EstimatorConfig(kernel_size=sizes.deblur_kernel_size),
        net=state["net"], methods=("top", "gt"), master_seed=state["seed"])


def _record_problem(records, reference) -> str | None:
    if reference is not None and records != reference:
        return "records differ from the first pass"
    by_method = {r.method: r for r in records}
    if set(by_method) != {"top", "gt"}:
        return f"methods {sorted(by_method)}"
    if by_method["gt"].error_ratio != 1.0:
        return f"gt error ratio {by_method['gt'].error_ratio!r} is not exactly 1"
    for r in records:
        if r.status.startswith("error:"):
            return f"{r.method} status {r.status}"
        if not (0.0 <= r.similarity <= 1.0):
            return f"{r.method} similarity {r.similarity!r} outside [0, 1]"
        if not (math.isfinite(r.error_ratio) and math.isfinite(r.psnr_db)):
            return f"{r.method} error ratio or PSNR not finite"
    return None


def _check_deblur(outcome: Outcome, records, reference, what: str) -> None:
    outcome.attempted += 1
    if records is None:
        return
    problem = _record_problem(records, reference)
    if problem is not None:
        outcome.fail(1, f"{what}: {problem}")


def _deblur_quality(outcome: Outcome, first_pass: list) -> None:
    tops = [r for records in first_pass if records for r in records if r.method == "top"]
    if len(tops) != len(first_pass):
        return
    outcome.quality = statistics.fmean(r.similarity for r in tops)
    outcome.layer_values["evaluation.median_error_ratio"] = statistics.median(r.error_ratio for r in tops)
    outcome.layer_values["evaluation.median_psnr_db"] = statistics.median(r.psnr_db for r in tops)


def deblur_measure(state: dict, sizes: Sizes, seconds: float) -> Outcome:
    outcome = Outcome()
    outputs: list = []
    n = len(state["images"])

    def unit(i):
        outputs.append(_guarded(outcome, 1, deblur_unit, state, sizes, i))
        _check_deblur(outcome, outputs[-1], outputs[i - n] if i >= n else None, f"image {i}")

    outcome.unit_seconds = closed_loop(seconds, n, unit)
    outcome.unit_items = [1] * len(outcome.unit_seconds)
    _deblur_quality(outcome, outputs[:n])
    return outcome


def deblur_traced(state: dict, sizes: Sizes, tracer) -> Outcome:
    outcome = Outcome()
    n = len(state["images"])

    def one_pass():
        return [_guarded(outcome, 1, deblur_unit, state, sizes, i) for i in range(n)]

    instrument_network(tracer, state["net"])
    traced = _traced_pass(outcome, tracer, one_pass)
    plain, outcome.untraced_s = _timed(one_pass)
    for i in range(n):
        _check_deblur(outcome, traced[i], None, f"traced image {i}")
        _check_deblur(outcome, plain[i], traced[i], f"untraced image {i}")
    _deblur_quality(outcome, traced)
    return outcome


WORKLOADS = {
    "label": (label_setup, label_measure, label_traced),
    "train": (train_setup, train_measure, train_traced),
    "deblur": (deblur_setup, deblur_measure, deblur_traced),
}
