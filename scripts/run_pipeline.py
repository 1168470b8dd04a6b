"""Run the full pipeline end to end in one workspace.

Synthesizes a blurred corpus from demo inputs, labels its patches, trains the
patch classifier, and benchmarks region selection, all through the CLI entry
points so the run matches what a user would type by hand.
"""

import argparse
import sys
from pathlib import Path

from regiondeblur.cli import main as cli


def run(argv: list[str]) -> None:
    print("$ regiondeblur " + " ".join(argv))
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--inputs", default="demo_inputs", help="directory from make_demo_inputs.py")
    ap.add_argument("--workspace", default="pipeline_run", help="output directory")
    ap.add_argument("--patch-size", type=int, default=64)
    ap.add_argument("--stride", type=int, default=32)
    ap.add_argument("--kernel-size", type=int, default=15)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--epochs", type=int, default=12)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    inputs = Path(args.inputs)
    ws = Path(args.workspace)
    run(["synthesize",
         "--sharp-dir", str(inputs / "sharp"), "--kernel-dir", str(inputs / "kernels"),
         "--out-dir", str(ws / "corpus"), "--sigma", str(args.sigma),
         "--jobs", str(args.jobs)])
    run(["label",
         "--manifest", str(ws / "corpus" / "manifest.json"), "--out-dir", str(ws / "dataset"),
         "--patch-size", str(args.patch_size), "--stride", str(args.stride),
         "--kernel-size", str(args.kernel_size),
         "--jobs", str(args.jobs)])
    run(["train",
         "--dataset", str(ws / "dataset" / "dataset.json"), "--out-dir", str(ws / "model"),
         "--epochs", str(args.epochs), "--batch-size", "8", "--learning-rate", "0.01"])
    run(["evaluate",
         "--manifest", str(ws / "corpus" / "manifest.json"),
         "--model", str(ws / "model" / "model.bin"), "--out-dir", str(ws / "eval"),
         "--patch-size", str(args.patch_size), "--stride", str(args.stride)])
    print(f"done; see {ws / 'eval' / 'results.csv'} and {ws / 'eval' / 'success_curve.svg'}")


if __name__ == "__main__":
    main()
