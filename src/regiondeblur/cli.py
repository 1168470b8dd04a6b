"""Command-line entry points for the region-selection deblurring pipeline.

Subcommands cover the whole workflow: synthesize a blurred corpus, label its
patches with the built-in estimator, train the patch classifier, rank patches
of a single image, deblur an image from its best patch, and benchmark
selection strategies against baselines.

Option precedence is builtin defaults, then a ``--config`` JSON file, then
explicit flags. Every run that owns an output directory echoes its resolved
options to ``run_config.json`` there.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .classifier import (
    TrainConfig,
    build_small_resnet,
    load_model,
    save_model,
    train,
    write_training_log,
)
from .errors import (
    ModelFormatError,
    ParseError,
    RegionDeblurError,
    ValidationError,
)
from .estimator import LATENT_REG, EstimatorConfig, deconvolve, estimate_kernel
from .evaluation import (
    EVAL_METHODS,
    evaluate_pipeline,
    success_curve,
    write_eval_csv,
    write_success_curve_svg,
)
from .imagecore import read_image, write_image, write_kernel
from .kernelsim import LabelConfig
from .labeling import (
    LabeledDataset,
    build_dataset,
    class_balance_report,
    load_training_samples,
)
from .selector import annotate_selection, score_patches, select_top
from .synthesis import (
    CorpusManifest,
    NoiseModel,
    PatchGridSpec,
    extract,
    generate_corpus,
    write_json,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FORMAT = 3
EXIT_FAILURE = 4


# The option converters. Each takes a flag's string or a config file's JSON
# value, and argparse names it in its error message ("invalid integer value").

def integer(value) -> int:
    """An integer or its decimal string; an integral float is accepted, a boolean is not."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def number(value) -> float:
    """A finite number or its string; a boolean, NaN or infinity is rejected."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    result = float(value)
    if not math.isfinite(result):
        raise ValueError(f"expected a finite number, got {value!r}")
    return result


class Option(NamedTuple):
    """A default of None marks the option required."""

    conv: Callable
    default: object
    help: str | None = None
    flag: str | None = None


_COMMAND_OPTIONS = {
    "synthesize": {
        "sharp_dir": Option(str, None),
        "kernel_dir": Option(str, None),
        "out_dir": Option(str, None),
        "sigma": Option(number, 4.0, "noise std on the 0-255 scale"),
        "seed": Option(integer, 0),
        "jobs": Option(integer, 1),
    },
    "label": {
        "manifest": Option(str, None),
        "out_dir": Option(str, None),
        "patch_size": Option(integer, 228),
        "stride": Option(integer, 20),
        "kernel_size": Option(integer, 27),
        "threshold": Option(number, 0.75, "similarity threshold separating good from bad patches",
                            flag="--lambda"),
        "jobs": Option(integer, 1),
    },
    "train": {
        "dataset": Option(str, None),
        "out_dir": Option(str, None),
        "epochs": Option(integer, 20),
        "batch_size": Option(integer, 32),
        "learning_rate": Option(number, 0.001),
        "momentum": Option(number, 0.9),
        "seed": Option(integer, 0),
    },
    "select": {
        "model": Option(str, None),
        "image": Option(str, None),
        "stride": Option(integer, 20),
        "top": Option(integer, 5),
        "out_json": Option(str, ""),
        "out_annotated": Option(str, ""),
    },
    "deblur": {
        "model": Option(str, None),
        "image": Option(str, None),
        "kernel_size": Option(integer, None),
        "out_dir": Option(str, None),
        "stride": Option(integer, 20),
        "latent_reg": Option(number, LATENT_REG),
    },
    "evaluate": {
        "manifest": Option(str, None),
        "model": Option(str, ""),
        "out_dir": Option(str, None),
        "patch_size": Option(integer, 228),
        "stride": Option(integer, 20),
        "kernel_size": Option(integer, 27),
        "methods": Option(str, "top,random,whole,center,gt",
                          "comma-separated subset of " + ",".join(EVAL_METHODS)),
        "seed": Option(integer, 0),
    },
}


def _flag(name: str, option: Option) -> str:
    """``--name-with-dashes`` unless the option spells its flag otherwise."""
    return option.flag or "--" + name.replace("_", "-")


def resolve_options(command: str, args: argparse.Namespace) -> dict:
    """Merge builtin defaults, the optional config file, and explicit flags."""
    spec = _COMMAND_OPTIONS[command]
    merged = {name: opt.default for name, opt in spec.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"config file {config_path} is not valid UTF-8 JSON: {exc}")
        if not isinstance(raw, dict):
            raise ValidationError(f"config file {config_path} must hold a JSON object")
        for key, value in raw.items():
            if key not in spec:
                raise ValidationError(f"config key {key!r} is not an option of {command!r}")
            if value is None:
                raise ValidationError(f"config key {key!r} has a bad value: null")
            try:
                merged[key] = spec[key].conv(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"config key {key!r} has a bad value: {exc}")
    for name in spec:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    for name, opt in spec.items():
        if merged[name] is None:
            raise ValidationError(f"missing required option {_flag(name, opt)}")
    return merged


def _echo_config(command: str, options: dict, out_dir: Path) -> None:
    payload = {"command": command, "options": options}
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "run_config.json", payload)


def _cmd_synthesize(opts: dict) -> int:
    out_dir = Path(opts["out_dir"])
    noise = NoiseModel(sigma=opts["sigma"], seed=opts["seed"])
    manifest = generate_corpus(
        opts["sharp_dir"], opts["kernel_dir"], noise, out_dir, jobs=opts["jobs"]
    )
    _echo_config("synthesize", opts, out_dir)
    print(f"synthesized {len(manifest.entries)} blurred images into {out_dir}")
    return EXIT_OK


def _cmd_label(opts: dict) -> int:
    manifest = CorpusManifest.load(opts["manifest"])
    grid = PatchGridSpec(patch_size=opts["patch_size"], stride=opts["stride"])
    est_cfg = EstimatorConfig(kernel_size=opts["kernel_size"])
    label_cfg = LabelConfig(threshold=opts["threshold"])
    out_dir = Path(opts["out_dir"])
    dataset = build_dataset(manifest, grid, est_cfg, label_cfg, out_dir, jobs=opts["jobs"])
    _echo_config("label", opts, out_dir)
    report = class_balance_report(dataset)
    print(
        f"labeled {report['total']} patches: {report['positives']} positive, "
        f"{report['negatives']} negative, {report['degenerate']} degenerate"
    )
    return EXIT_OK


def _cmd_train(opts: dict) -> int:
    dataset = LabeledDataset.load(opts["dataset"])
    samples = load_training_samples(dataset)
    if not samples:
        raise ValidationError("dataset has no samples")
    cfg = TrainConfig(
        learning_rate=opts["learning_rate"],
        momentum=opts["momentum"],
        batch_size=opts["batch_size"],
        epochs=opts["epochs"],
        seed=opts["seed"],
        input_side=samples[0].patch.height,
    )
    net = build_small_resnet(seed=cfg.seed, input_side=cfg.input_side)
    result = train(net, samples, cfg)
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(result.network, out_dir / "model.bin")
    write_training_log(result.epochs, out_dir / "training_log.csv")
    _echo_config("train", opts, out_dir)
    last = result.epochs[-1]
    print(
        f"trained on {len(samples)} samples for {cfg.epochs} epochs; "
        f"final loss {last.mean_loss:.4f}, train accuracy {last.accuracy:.3f}"
    )
    return EXIT_OK


def _cmd_select(opts: dict) -> int:
    net = load_model(opts["model"])
    image = read_image(opts["image"])
    grid = PatchGridSpec(patch_size=net.input_side, stride=opts["stride"])
    ranked = select_top(score_patches(net, image, grid), opts["top"])
    for rp in ranked:
        print(f"{rp.ref.row0} {rp.ref.col0} {rp.score:.6f}")
    if opts["out_json"]:
        rows = [
            {"row0": rp.ref.row0, "col0": rp.ref.col0, "size": rp.ref.size,
             "score": rp.score}
            for rp in ranked
        ]
        write_json(opts["out_json"], rows)
    if opts["out_annotated"]:
        write_image(annotate_selection(image, ranked[0].ref), opts["out_annotated"])
    return EXIT_OK


def _cmd_deblur(opts: dict) -> int:
    net = load_model(opts["model"])
    image = read_image(opts["image"])
    grid = PatchGridSpec(patch_size=net.input_side, stride=opts["stride"])
    cfg = EstimatorConfig(kernel_size=opts["kernel_size"])
    best = select_top(score_patches(net, image, grid), 1)[0]
    estimate = estimate_kernel(extract(image, best.ref), cfg)
    if estimate.degenerate:
        print(
            "warning: kernel estimation degenerated to the identity; "
            "output equals the input",
            file=sys.stderr,
        )
    latent = deconvolve(image, estimate.kernel, opts["latent_reg"])
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_kernel(estimate.kernel, out_dir / "kernel.txt")
    write_image(latent, out_dir / "deblurred.pfm")
    write_image(latent, out_dir / "deblurred.pgm")
    write_image(annotate_selection(image, best.ref), out_dir / "selection.pgm")
    _echo_config("deblur", opts, out_dir)
    print(
        f"deblurred {opts['image']} from patch "
        f"({best.ref.row0}, {best.ref.col0}) scored {best.score:.4f}"
    )
    return EXIT_OK


def _cmd_evaluate(opts: dict) -> int:
    manifest = CorpusManifest.load(opts["manifest"])
    methods = tuple(m.strip() for m in opts["methods"].split(",") if m.strip())
    net = load_model(opts["model"]) if opts["model"] else None
    grid = PatchGridSpec(patch_size=opts["patch_size"], stride=opts["stride"])
    est_cfg = EstimatorConfig(kernel_size=opts["kernel_size"])
    records = evaluate_pipeline(
        manifest, grid, est_cfg, net=net, methods=methods, master_seed=opts["seed"]
    )
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_eval_csv(records, out_dir / "results.csv")
    curves = {}
    for method in methods:
        ratios = [r.error_ratio for r in records if r.method == method]
        curves[method] = success_curve(ratios)
    write_success_curve_svg(curves, out_dir / "success_curve.svg")
    _echo_config("evaluate", opts, out_dir)
    for method in methods:
        ratios = [
            r.error_ratio for r in records
            if r.method == method and not math.isnan(r.error_ratio)
        ]
        if ratios:
            print(
                f"{method}: mean ER {statistics.fmean(ratios):.3f}, "
                f"median ER {statistics.median(ratios):.3f} ({len(ratios)} images)"
            )
        else:
            print(f"{method}: no successful runs")
    return EXIT_OK


_COMMANDS = {
    "synthesize": (_cmd_synthesize, "blur sharp images with kernels and noise"),
    "label": (_cmd_label, "label corpus patches with the built-in estimator"),
    "train": (_cmd_train, "train the patch classifier on a labeled dataset"),
    "select": (_cmd_select, "rank the patches of one image"),
    "deblur": (_cmd_deblur, "deblur one image from its best patch"),
    "evaluate": (_cmd_evaluate, "benchmark selection strategies on a corpus"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regiondeblur",
        description="Blind deblurring that picks its estimation region with a learned classifier.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text) in _COMMANDS.items():
        p = subparsers.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file with option defaults for this command")
        for name, opt in _COMMAND_OPTIONS[command].items():
            p.add_argument(_flag(name, opt), dest=name, type=opt.conv, help=opt.help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return EXIT_OK if code == 0 else EXIT_VALIDATION
    try:
        return args.func(resolve_options(args.command, args))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ParseError, ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except RegionDeblurError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
