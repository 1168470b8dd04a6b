import json
from pathlib import Path

import numpy as np
import pytest

from regiondeblur.cli import (
    EXIT_FORMAT,
    EXIT_OK,
    EXIT_VALIDATION,
    JOBS_ENV_VAR,
    build_parser,
    main,
    resolve_options,
)
from regiondeblur.demodata import eval_scene, flat_patch, random_motion_kernel
from regiondeblur.errors import ValidationError
from regiondeblur.evaluation import EVAL_CSV_HEADER
from regiondeblur.imagecore import write_image, write_kernel


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full CLI run: synthesize, label, train. Later tests reuse it."""
    root = tmp_path_factory.mktemp("pipeline")
    sharp = root / "sharp"
    kernels = root / "kernels"
    sharp.mkdir()
    kernels.mkdir()
    for i in range(3):
        write_image(eval_scene(64, seed=20 + i), sharp / f"scene{i}.pgm")
    write_kernel(random_motion_kernel(7, seed=60), kernels / "k.txt")
    corpus = root / "corpus"
    assert main([
        "synthesize", "--sharp-dir", str(sharp), "--kernel-dir", str(kernels),
        "--out-dir", str(corpus), "--sigma", "1.0", "--seed", "5",
    ]) == EXIT_OK
    dataset = root / "dataset"
    assert main([
        "label", "--manifest", str(corpus / "manifest.json"),
        "--out-dir", str(dataset), "--patch-size", "32", "--stride", "32",
        "--kernel-size", "7", "--lambda", "0.6",
    ]) == EXIT_OK
    model = root / "model"
    assert main([
        "train", "--dataset", str(dataset / "dataset.json"),
        "--out-dir", str(model), "--epochs", "6", "--batch-size", "8",
        "--learning-rate", "0.01", "--seed", "3",
    ]) == EXIT_OK
    return {
        "root": root, "sharp": sharp, "kernels": kernels, "corpus": corpus,
        "dataset": dataset, "model": model / "model.bin",
        "blurred": corpus / "blur_scene0_k.pfm",
    }


def test_synthesize_outputs(pipeline):
    corpus = pipeline["corpus"]
    assert (corpus / "manifest.json").exists()
    run = json.loads((corpus / "run_config.json").read_text())
    assert run["command"] == "synthesize"
    assert run["options"]["sigma"] == 1.0
    assert run["options"]["seed"] == 5
    assert pipeline["blurred"].exists()


def test_synthesize_jobs_do_not_change_bytes(pipeline, tmp_path):
    base_args = [
        "synthesize", "--sharp-dir", str(pipeline["sharp"]),
        "--kernel-dir", str(pipeline["kernels"]), "--sigma", "1.0", "--seed", "5",
    ]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(base_args + ["--out-dir", str(a), "--jobs", "1"]) == EXIT_OK
    assert main(base_args + ["--out-dir", str(b), "--jobs", "2"]) == EXIT_OK
    names = sorted(p.name for p in a.glob("*.pfm"))
    assert names == sorted(p.name for p in b.glob("*.pfm"))
    assert names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_label_outputs_and_lambda_flag(pipeline):
    dataset = pipeline["dataset"]
    rows = json.loads((dataset / "dataset.json").read_text())
    assert rows["threshold"] == 0.6
    assert len(rows["samples"]) == 12
    run = json.loads((dataset / "run_config.json").read_text())
    assert run["options"]["threshold"] == 0.6


def test_train_outputs(pipeline):
    model_dir = pipeline["model"].parent
    assert pipeline["model"].exists()
    log = (model_dir / "training_log.csv").read_text().splitlines()
    assert log[0] == "epoch,mean_loss,train_accuracy"
    assert len(log) == 7


def test_select_prints_ranked_patches(pipeline, capsys, tmp_path):
    out_json = tmp_path / "ranked.json"
    out_pgm = tmp_path / "annotated.pgm"
    assert main([
        "select", "--model", str(pipeline["model"]),
        "--image", str(pipeline["blurred"]), "--stride", "32", "--top", "2",
        "--out-json", str(out_json), "--out-annotated", str(out_pgm),
    ]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    first = lines[0].split()
    assert len(first) == 3
    ranked = json.loads(out_json.read_text())
    assert [r["size"] for r in ranked] == [32, 32]
    assert ranked[0]["score"] >= ranked[1]["score"]
    assert out_pgm.exists()


def test_deblur_outputs(pipeline, tmp_path):
    out = tmp_path / "deblur"
    assert main([
        "deblur", "--model", str(pipeline["model"]),
        "--image", str(pipeline["blurred"]), "--kernel-size", "7",
        "--stride", "32", "--out-dir", str(out),
    ]) == EXIT_OK
    for name in ("kernel.txt", "deblurred.pfm", "deblurred.pgm", "selection.pgm", "run_config.json"):
        assert (out / name).exists()


def test_deblur_degenerate_is_a_soft_failure(pipeline, tmp_path, capsys):
    flat = tmp_path / "flat.pgm"
    write_image(flat_patch(64, 0.5), flat)
    out = tmp_path / "deblur_flat"
    assert main([
        "deblur", "--model", str(pipeline["model"]), "--image", str(flat),
        "--kernel-size", "7", "--stride", "32", "--out-dir", str(out),
    ]) == EXIT_OK
    assert "degenerate" in capsys.readouterr().err
    assert (out / "deblurred.pfm").exists()


def test_evaluate_outputs(pipeline, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--manifest", str(pipeline["corpus"] / "manifest.json"),
        "--model", str(pipeline["model"]), "--out-dir", str(out),
        "--patch-size", "32", "--stride", "32", "--kernel-size", "7",
        "--methods", "gt,center,top",
    ]) == EXIT_OK
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == EVAL_CSV_HEADER
    assert len(lines) == 10
    assert (out / "success_curve.svg").exists()
    printed = capsys.readouterr().out
    assert "gt:" in printed


def test_config_file_sits_between_defaults_and_flags(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma": 2.0, "seed": 7}))
    out = tmp_path / "out"
    assert main([
        "synthesize", "--config", str(cfg),
        "--sharp-dir", str(pipeline["sharp"]), "--kernel-dir", str(pipeline["kernels"]),
        "--out-dir", str(out), "--sigma", "3.0",
    ]) == EXIT_OK
    run = json.loads((out / "run_config.json").read_text())
    assert run["options"]["sigma"] == 3.0
    assert run["options"]["seed"] == 7
    assert run["options"]["jobs"] == 1


def test_unknown_config_key_is_rejected(pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strides": 4}))
    code = main([
        "synthesize", "--config", str(cfg),
        "--sharp-dir", str(pipeline["sharp"]), "--kernel-dir", str(pipeline["kernels"]),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_VALIDATION
    assert "strides" in capsys.readouterr().err


def test_malformed_config_json_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code = main([
        "synthesize", "--config", str(cfg),
        "--sharp-dir", "a", "--kernel-dir", "b", "--out-dir", "c",
    ])
    assert code == EXIT_VALIDATION
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, flags, expected", [
    ("label", {"store_patches": True}, [], True),
    ("label", {"store_patches": False}, [], False),
    ("label", {"store_patches": "true"}, [], True),
    ("label", {"store_patches": "false"}, [], False),
    ("label", {}, [], False),
    ("label", {}, ["--store-patches"], True),
    ("label", {"store_patches": "false"}, ["--store-patches"], True),
    ("label", {"store_patches": True}, ["--store-patches", "false"], False),
    ("label", {"store_patches": "yes"}, [], None),
    ("label", {"store_patches": 1}, [], None),
    ("synthesize", {"sigma": "abc"}, [], None),
    ("synthesize", {"seed": None}, [], None),
])
def test_option_values_go_through_their_converter(tmp_path, capsys, command, config, flags,
                                                  expected):
    """Config values and flags convert alike; a bad config value exits 2 naming its key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    required = {
        "label": ["--manifest", "m.json"],
        "synthesize": ["--sharp-dir", "a", "--kernel-dir", "b"],
    }[command]
    argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out"), *required, *flags]
    key = next(iter(config), "store_patches")
    if expected is None:
        assert main(argv) == EXIT_VALIDATION
        assert key in capsys.readouterr().err
    else:
        assert resolve_options(command, build_parser().parse_args(argv))[key] is expected


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_non_positive_jobs_are_rejected(pipeline, tmp_path, capsys, jobs):
    code = main([
        "synthesize", "--sharp-dir", str(pipeline["sharp"]),
        "--kernel-dir", str(pipeline["kernels"]), "--out-dir", str(tmp_path / "out"),
        "--jobs", jobs,
    ])
    assert code == EXIT_VALIDATION
    assert "jobs" in capsys.readouterr().err


def test_missing_required_option(capsys):
    assert main(["label", "--out-dir", "somewhere"]) == EXIT_VALIDATION
    assert "--manifest" in capsys.readouterr().err


def test_argparse_failures_and_help(capsys):
    assert main([]) == EXIT_VALIDATION
    assert main(["no-such-command"]) == EXIT_VALIDATION
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


def test_missing_model_file_is_a_format_error(tmp_path, capsys):
    image = tmp_path / "img.pgm"
    write_image(flat_patch(32, 0.5), image)
    code = main(["select", "--model", str(tmp_path / "no.bin"), "--image", str(image)])
    assert code == EXIT_FORMAT
    capsys.readouterr()


def test_corrupt_model_file_is_a_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00" * 64)
    image = tmp_path / "img.pgm"
    write_image(flat_patch(32, 0.5), image)
    assert main(["select", "--model", str(bad), "--image", str(image)]) == EXIT_FORMAT
    capsys.readouterr()


def test_even_kernel_size_is_a_validation_error(pipeline, tmp_path, capsys):
    code = main([
        "deblur", "--model", str(pipeline["model"]),
        "--image", str(pipeline["blurred"]), "--kernel-size", "8",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_VALIDATION
    capsys.readouterr()


def test_jobs_default_comes_from_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "3")
    args = build_parser().parse_args([
        "synthesize", "--sharp-dir", "a", "--kernel-dir", "b", "--out-dir", "c",
    ])
    assert resolve_options("synthesize", args)["jobs"] == 3


def test_garbled_jobs_env_is_rejected(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "many")
    args = build_parser().parse_args([
        "synthesize", "--sharp-dir", "a", "--kernel-dir", "b", "--out-dir", "c",
    ])
    with pytest.raises(ValidationError):
        resolve_options("synthesize", args)
