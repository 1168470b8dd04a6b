"""Benchmark of the regiondeblur pipeline: `label`, `train` and `deblur`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload label --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

`--trace 0` measures the end-to-end metrics with nothing instrumented.
`--trace 1` installs the outside-in tracer (perfbench/tracer.py), runs one
fixed pass of the workload traced and one untraced, and reports the
per-layer metrics; its span file goes to `.bench_out/`. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; metric names and units come from BENCHMARK.json. `--workload
all` runs every workload, untraced and traced, each in a fresh process.

The program is imported from `src/` of the checkout, as the tier-1 tests
do, with BLAS and OpenMP pools held to one thread. A failed output check
prints its reason on standard error and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("label", "train", "deblur")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def environment(steal_at_start: float | None) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "steal_s": None if steal_at_start is None else steal_seconds() - steal_at_start,
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak among its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(outcome, setup_seconds: list) -> dict:
    # Throughput averages the whole measured period: the host's speed drifts
    # over seconds, and a mean over all units is steadier than a median of
    # the three or four units a run holds.
    return {
        "setup_s": statistics.median(setup_seconds),
        "throughput_per_s": sum(outcome.unit_items) / sum(outcome.unit_seconds),
        "latency_p50_s": statistics.median(outcome.unit_seconds),
        "peak_rss_mb": peak_rss_mb(),
        "completed_fraction": 1.0 - outcome.failed / max(outcome.attempted, 1),
        "quality": outcome.quality,
    }


def per_layer(tracer, outcome) -> dict:
    begin, end = outcome.window
    run = tracer.aggregate(begin, end)
    setup = tracer.aggregate(0, begin)
    values = {}
    for name, st in run.items():
        layer, _, what = name.rpartition(".")
        if what in ("forward", "backward") and layer.count(".") == 1:
            values[f"{layer}.{what}_s"] = st.busy_s
            continue
        values[f"{name}.calls"] = st.calls
        values[f"{name}.busy_s"] = st.busy_s
        values[f"{name}.self_s"] = st.self_s
        for key, count in st.counts.items():
            if not key.startswith("fft_"):
                values[f"{name}.{key}"] = count
    estimate = run.get("estimator.estimate_kernel")
    if estimate is not None:
        values["estimator.estimate_kernel.p50_ms"] = estimate.percentile_ms(0.50)
        values["estimator.estimate_kernel.p95_ms"] = estimate.percentile_ms(0.95)
        values["estimator.degenerate_fraction"] = estimate.counts["degenerate"] / estimate.calls
        values["estimator.fft_calls_per_estimate"] = estimate.counts["fft_calls"] / estimate.calls
        values["estimator.fft_bytes_per_estimate"] = estimate.counts["fft_bytes"] / estimate.calls
    solve = run.get("estimator.solve_kernel")
    values["estimator.solve_kernel.failed"] = solve.raised if solve is not None else 0
    for name in ("synthesis.generate_corpus", "imagecore.convolve_direct"):
        values[f"{name}.busy_s"] = setup[name].busy_s if name in setup else 0.0
    values["trace.overhead_fraction"] = outcome.traced_s / outcome.untraced_s - 1.0
    values["trace.coverage_fraction"] = tracer.covered_seconds(begin, end) / outcome.traced_s
    return {**values, **outcome.layer_values}


def run_one(args) -> int:
    steal_at_start = steal_seconds()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    import regiondeblur

    if not Path(regiondeblur.__file__).resolve().is_relative_to(SRC):
        print(f"error: regiondeblur imported from {regiondeblur.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    sizes = workloads.TINY if args.tiny else workloads.FULL
    setup, measure, traced = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setup_seconds = []
    try:
        if args.trace:
            tracer = Tracer()
            workloads.instrument(tracer)
            state = setup(work / "setup", args.seed, sizes)
            outcome = traced(state, sizes, tracer)
            values = per_layer(tracer, outcome)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                         {"workload": args.workload, "seed": args.seed,
                          "environment": environment(steal_at_start)})
        else:
            for i in range(workloads.SETUP_REPEATS):
                t0 = time.perf_counter()
                state = setup(work / f"setup{i}", args.seed, sizes)
                setup_seconds.append(time.perf_counter() - t0)
            outcome = measure(state, sizes, args.seconds)
            values = end_to_end(outcome, setup_seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for spec in declared_metrics(args.trace):
        value = float(values.get(spec["name"], 0.0))
        if not math.isfinite(value):
            outcome.fail(0, f"metric {spec['name']} is not finite")
            value = None
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not outcome.problems and outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "unit_seconds": outcome.unit_seconds, "setup_seconds": setup_seconds,
        "environment": environment(steal_at_start),
    }))
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    failed = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                argv.append("--tiny")
            proc = subprocess.run(argv, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = proc.returncode == 0 and result.get("correct") is True
            failed |= not ok
            print(f"== {workload} --trace {trace}: {'ok' if ok else 'FAILED'} "
                  f"(attempted {result.get('attempted')}, failed {result.get('failed')})")
            for name, m in result.get("metrics", {}).items():
                print(f"  {name:48s} {m['value']!s:>24} {m['unit']}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "regiondeblur" / "__init__.py").is_file():
        print(f"error: no regiondeblur package under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
