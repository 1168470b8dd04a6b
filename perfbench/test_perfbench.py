"""The benchmark's own tests.

Run from the repository root with `PYTHONPATH=src python3 -m pytest perfbench`.
The smoke runs use `--tiny` inputs, so the whole file takes well under a
minute.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Span, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], float) and math.isfinite(printed["value"])
        if not trace:
            assert printed["value"] > 0, m["name"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "label", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _traced(unit, tracer_holder: list):
    tracer = Tracer()
    tracer_holder.append(tracer)
    workloads.instrument(tracer)
    try:
        return unit(tracer)
    finally:
        tracer.close()


def test_tracing_changes_no_output(tmp_path):
    sizes = workloads.TINY
    state = workloads.label_setup(tmp_path / "label", 5, sizes)
    plain = workloads.label_unit(state, sizes, 1, tmp_path / "plain")
    tracers: list = []
    traced = _traced(lambda t: workloads.label_unit(state, sizes, 1, tmp_path / "traced"), tracers)
    assert traced == plain
    assert tracers[0].aggregate()["estimator.estimate_kernel"].calls == len(json.loads(plain)["samples"])

    state = workloads.train_setup(tmp_path / "train", 5, sizes)
    plain = workloads.train_unit(state, sizes)
    traced = _traced(lambda t: workloads.train_unit(state, sizes, t), tracers)
    assert np.array_equal(traced, plain)
    assert tracers[1].aggregate()["classifier.res1.backward"].calls > 0

    state = workloads.deblur_setup(tmp_path / "deblur", 5, sizes)
    plain = workloads.deblur_unit(state, sizes, 0)
    traced = _traced(lambda t: workloads.deblur_unit(state, sizes, 0), tracers)
    assert traced == plain
    assert tracers[2].aggregate()["selector.score_patches"].calls == 1


def test_tracer_restores_every_original():
    import numpy.fft

    from regiondeblur import estimator, evaluation, labeling

    before = (estimator.estimate_kernel, labeling.estimate_kernel, evaluation.solve_latent,
              numpy.fft.fft2)
    net = workloads.classifier.build_small_resnet(seed=0, input_side=64)
    with Tracer() as tracer:
        workloads.instrument(tracer)
        workloads.instrument_network(tracer, net)
        assert labeling.estimate_kernel is estimator.estimate_kernel is not before[0]
        assert "forward" in vars(net.layers[0])
    after = (estimator.estimate_kernel, labeling.estimate_kernel, evaluation.solve_latent,
             numpy.fft.fft2)
    assert after == before
    assert "forward" not in vars(net.layers[0])


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans.extend([
        Span("a", 0.0, 10.0),
        Span("b", 1.0, 4.0, parent=0),
        Span("c", 2.0, 3.0, parent=1),
        Span("b", 5.0, 7.0, parent=0),
        Span("a", 11.0, 12.0),
    ])
    stats = tracer.aggregate()
    assert (stats["a"].calls, stats["a"].busy_s, stats["a"].self_s) == (2, 11.0, 6.0)
    assert (stats["b"].busy_s, stats["b"].self_s) == (5.0, 4.0)
    assert stats["c"].self_s == 1.0
    assert tracer.covered_seconds(0, 5) == 11.0
    assert tracer.aggregate(1, 3)["b"].self_s == 2.0
