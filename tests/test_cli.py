import json
import math
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import regiondeblur
from regiondeblur.classifier import (
    Conv2d,
    Dense,
    GlobalAveragePool,
    Network,
    build_small_resnet,
    save_model,
)
from regiondeblur.cli import (
    _COMMANDS,
    EXIT_FORMAT,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    main,
    resolve_options,
)
from regiondeblur.demodata import eval_scene, flat_patch, random_motion_kernel, textured_scene
from regiondeblur.estimator import EstimatorConfig, deconvolve, estimate_kernel
from regiondeblur.evaluation import EVAL_CSV_HEADER
from regiondeblur.imagecore import (
    Image,
    Kernel,
    encode_pfm,
    encode_pgm,
    read_image,
    write_image,
    write_kernel,
)
from regiondeblur.synthesis import PatchRef, extract


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


def _run_config(out_dir: Path) -> dict:
    return json.loads((out_dir / "run_config.json").read_text())


def test_synthesize_outputs(pipeline):
    corpus = pipeline["corpus"]
    assert (corpus / "manifest.json").exists()
    assert _run_config(corpus) == {"command": "synthesize", "options": {
        "sharp_dir": str(pipeline["sharp"]), "kernel_dir": str(pipeline["kernels"]),
        "out_dir": str(corpus), "sigma": 1.0, "seed": 5, "jobs": 1,
    }}
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
    assert _run_config(dataset) == {"command": "label", "options": {
        "manifest": str(pipeline["corpus"] / "manifest.json"), "out_dir": str(dataset),
        "patch_size": 32, "stride": 32, "kernel_size": 7, "threshold": 0.6, "jobs": 1,
    }}


def test_train_outputs(pipeline):
    model_dir = pipeline["model"].parent
    assert pipeline["model"].exists()
    log = (model_dir / "training_log.csv").read_text().splitlines()
    assert log[0] == "epoch,mean_loss,train_accuracy"
    assert len(log) == 7
    assert _run_config(model_dir) == {"command": "train", "options": {
        "dataset": str(pipeline["dataset"] / "dataset.json"), "out_dir": str(model_dir),
        "epochs": 6, "batch_size": 8, "learning_rate": 0.01, "momentum": 0.9, "seed": 3,
    }}


def test_select_prints_ranked_patches(pipeline, capsys, tmp_path, monkeypatch):
    """`select` has no output directory, so it echoes no run_config.json,
    not even into the working directory."""
    monkeypatch.chdir(tmp_path)
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
    assert sorted(p.name for p in tmp_path.iterdir()) == ["annotated.pgm", "ranked.json"]


def test_deblur_outputs(pipeline, tmp_path, capsys):
    """deblur estimates from the patch `select` ranks first and deconvolves as evaluate does."""
    image, model = str(pipeline["blurred"]), str(pipeline["model"])
    assert main(["select", "--model", model, "--image", image, "--stride", "32", "--top", "1"]) == EXIT_OK
    row0, col0, _ = capsys.readouterr().out.split()
    out = tmp_path / "deblur"
    assert main([
        "deblur", "--model", model, "--image", image, "--kernel-size", "7",
        "--stride", "32", "--out-dir", str(out),
    ]) == EXIT_OK
    assert f"from patch ({row0}, {col0})" in capsys.readouterr().out
    for name in ("kernel.txt", "deblurred.pfm", "deblurred.pgm", "selection.pgm"):
        assert (out / name).exists()
    assert _run_config(out) == {"command": "deblur", "options": {
        "model": model, "image": image, "kernel_size": 7, "out_dir": str(out), "stride": 32,
    }}
    blurred = read_image(image)
    ref = PatchRef(int(row0), int(col0), 32)
    kernel = estimate_kernel(extract(blurred, ref), EstimatorConfig(kernel_size=7)).kernel
    write_kernel(kernel, tmp_path / "expected.txt")
    assert (out / "kernel.txt").read_bytes() == (tmp_path / "expected.txt").read_bytes()
    latent = deconvolve(blurred, kernel)
    assert (out / "deblurred.pfm").read_bytes() == encode_pfm(latent)


def test_deblur_has_no_latent_weight_option(pipeline, tmp_path, capsys):
    """deblur deconvolves at the estimator's fixed weight, by flag or config file alike."""
    argv = [
        "deblur", "--model", str(pipeline["model"]), "--image", str(pipeline["blurred"]),
        "--kernel-size", "7", "--stride", "32", "--out-dir", str(tmp_path / "out"),
    ]
    assert main(argv + ["--latent-reg", "0.01"]) == EXIT_VALIDATION
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"latent_reg": 0.01}))
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg)]) == EXIT_VALIDATION
    assert "config key 'latent_reg' is not an option of 'deblur'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_evaluate_has_no_kernel_size_option(pipeline, tmp_path, capsys, via):
    """evaluate estimates at each true kernel's side, so a kernel size is
    refused by flag or config file alike, before anything is written."""
    out = tmp_path / "eval"
    argv = [
        "evaluate", "--manifest", str(pipeline["corpus"] / "manifest.json"), "--out-dir", str(out),
        "--patch-size", "32", "--stride", "32", "--methods", "gt",
    ]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel_size": 15}))
    extra = ["--kernel-size", "15"] if via == "flag" else ["--config", str(cfg)]
    assert main(argv + extra) == EXIT_VALIDATION
    err = capsys.readouterr().err
    if via == "flag":
        assert "unrecognized arguments: --kernel-size 15" in err
    else:
        assert "config key 'kernel_size' is not an option of 'evaluate'" in err
    assert not out.exists()


def test_select_rejects_top_below_one_before_reading_the_model(tmp_path, capsys):
    image = tmp_path / "img.pgm"
    write_image(flat_patch(32, 0.5), image)
    argv = ["select", "--model", str(tmp_path / "no.bin"), "--image", str(image), "--top", "0"]
    assert main(argv) == EXIT_VALIDATION
    assert "top must be positive, got 0" in capsys.readouterr().err


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


def test_deblur_degenerate_deconvolves_with_a_delta(tmp_path, capsys):
    """A zero-weight model scores every patch 0.5, so the flat top-left
    corner ranks first and its estimate degenerates; the textured image is
    then deconvolved with a 7 px delta, which does not return it unchanged."""
    pixels = textured_scene(96, seed=0).pixels.copy()
    pixels[:32, :32] = 0.5
    write_image(Image(pixels), tmp_path / "img.pfm")
    layers = [Conv2d(1, 2, 3, 2), GlobalAveragePool(), Dense(2, 1)]
    save_model(Network(layers, input_side=32), tmp_path / "model.bin")
    out = tmp_path / "out"
    assert main([
        "deblur", "--model", str(tmp_path / "model.bin"), "--image", str(tmp_path / "img.pfm"),
        "--kernel-size", "7", "--stride", "32", "--out-dir", str(out),
    ]) == EXIT_OK
    captured = capsys.readouterr()
    assert "the image was deconvolved with a delta kernel" in captured.err
    assert "from patch (0, 0) scored 0.5000" in captured.out
    image = read_image(tmp_path / "img.pfm")
    assert (out / "deblurred.pfm").read_bytes() == encode_pfm(deconvolve(image, Kernel.delta(7)))
    assert (out / "deblurred.pfm").read_bytes() != encode_pfm(image)


def test_evaluate_outputs(pipeline, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--manifest", str(pipeline["corpus"] / "manifest.json"),
        "--model", str(pipeline["model"]), "--out-dir", str(out),
        "--patch-size", "32", "--stride", "32", "--methods", "gt,center,top",
    ]) == EXIT_OK
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == EVAL_CSV_HEADER
    assert len(lines) == 10
    assert (out / "success_curve.svg").exists()
    assert _run_config(out) == {"command": "evaluate", "options": {
        "manifest": str(pipeline["corpus"] / "manifest.json"), "model": str(pipeline["model"]),
        "out_dir": str(out), "patch_size": 32, "stride": 32, "methods": "gt,center,top",
        "seed": 0,
    }}
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["gt", "center", "top"]


def test_evaluate_turns_a_failing_image_into_status_rows(pipeline, tmp_path, capsys):
    """A valid 1x1 kernel cannot size the estimator: its images' `center`
    rows become errors while their `gt` rows and every other image are
    scored. A kernel file that cannot be decoded still exits 3 and echoes
    no run_config.json."""
    kernels = tmp_path / "kernels"
    kernels.mkdir()
    write_kernel(Kernel.delta(1), kernels / "d.txt")
    shutil.copy(pipeline["kernels"] / "k.txt", kernels / "k.txt")
    corpus = tmp_path / "corpus"
    with pytest.warns(UserWarning):
        assert main([
            "synthesize", "--sharp-dir", str(pipeline["sharp"]), "--kernel-dir", str(kernels),
            "--out-dir", str(corpus), "--sigma", "1.0",
        ]) == EXIT_OK
    argv = [
        "evaluate", "--manifest", str(corpus / "manifest.json"), "--out-dir", str(tmp_path / "eval"),
        "--patch-size", "32", "--stride", "32", "--methods", "gt,center",
    ]
    assert main(argv) == EXIT_OK
    rows = [line.split(",") for line in (tmp_path / "eval" / "results.csv").read_text().splitlines()[1:]]
    assert len(rows) == 12
    for row in rows:
        failing = row[0].endswith("_d") and row[1] == "center"
        assert (row[-1] == "error:ValidationError") == failing
        assert row[-1] != "ok" or math.isfinite(float(row[2]))
    (kernels / "d.txt").write_text("1 1\nx\n")
    (tmp_path / "eval" / "run_config.json").unlink()
    assert main(argv) == EXIT_FORMAT
    assert "d.txt" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "run_config.json").exists()


def test_evaluate_rejects_a_patch_size_its_model_cannot_score(pipeline, tmp_path, capsys):
    """`top` with a 48 px grid and a 32 px model would pick 32 px patches
    beside the other methods' 48 px ones, so it exits 2 and writes nothing."""
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--manifest", str(pipeline["corpus"] / "manifest.json"),
        "--model", str(pipeline["model"]), "--out-dir", str(out),
        "--patch-size", "48", "--stride", "16", "--methods", "top,gt",
    ]) == EXIT_VALIDATION
    assert "patch size 48" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("methods, message", [
    ("", "no evaluation methods requested"),
    (",", "no evaluation methods requested"),
    ("gt,gt", "must not repeat, got gt,gt"),
    ("top", "method 'top' needs a trained classifier"),
], ids=["empty", "comma", "repeated", "top-without-model"])
def test_evaluate_rejects_an_empty_or_repeated_method_list(pipeline, tmp_path, capsys, methods,
                                                           message):
    """The method list, and `top`'s need for `--model`, are checked before any
    image is read, so nothing is written, run_config.json included."""
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--manifest", str(pipeline["corpus"] / "manifest.json"), "--out-dir", str(out),
        "--patch-size", "32", "--stride", "32", "--methods", methods,
    ]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("methods", ["", "gt,gt", "gt,bogus"])
def test_evaluate_checks_methods_before_reading_any_file(tmp_path, capsys, methods):
    """A keyless manifest and an unreadable model are never opened when the
    method list is wrong: the run exits 2, not 3."""
    (tmp_path / "m.json").write_text("{}")
    (tmp_path / "bad.bin").write_bytes(b"not a model")
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--manifest", str(tmp_path / "m.json"), "--model", str(tmp_path / "bad.bin"),
        "--out-dir", str(out), "--methods", methods,
    ]) == EXIT_VALIDATION
    assert "evaluation method" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_reads_the_model_only_for_top(pipeline, tmp_path):
    """Without `top`, a corrupt `--model` is not read and changes no byte."""
    (tmp_path / "bad.bin").write_bytes(b"not a model")
    argv = [
        "evaluate", "--manifest", str(pipeline["corpus"] / "manifest.json"),
        "--patch-size", "32", "--stride", "32", "--methods", "gt",
    ]
    plain, bad = tmp_path / "plain", tmp_path / "bad"
    assert main(argv + ["--out-dir", str(plain)]) == EXIT_OK
    assert main(argv + ["--out-dir", str(bad), "--model", str(tmp_path / "bad.bin")]) == EXIT_OK
    assert (bad / "results.csv").read_bytes() == (plain / "results.csv").read_bytes()


def test_readme_walkthrough_parses():
    """Every `regiondeblur` command in the README's walkthrough uses only current options."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    commands = [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("regiondeblur ")
    ]
    assert sorted({argv[0] for argv in commands}) == sorted(_COMMANDS)
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: regiondeblur {shlex.join(argv)}")


def test_label_records_the_manifest_file_it_read(pipeline, tmp_path, capsys):
    """A manifest not named manifest.json yields a dataset that train can load."""
    for name in ("sharp", "kernels", "corpus"):
        shutil.copytree(pipeline[name], tmp_path / name)
    corpus = tmp_path / "corpus"
    (corpus / "manifest.json").rename(corpus / "m.json")
    dataset = tmp_path / "dataset"
    assert main([
        "label", "--manifest", str(corpus / "m.json"), "--out-dir", str(dataset),
        "--patch-size", "32", "--stride", "32", "--kernel-size", "7",
    ]) == EXIT_OK
    assert json.loads((dataset / "dataset.json").read_text())["manifest_path"].endswith("m.json")
    assert main([
        "train", "--dataset", str(dataset / "dataset.json"), "--out-dir", str(tmp_path / "model"),
        "--epochs", "1", "--batch-size", "8",
    ]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("config, flags", [({}, ["--lambda", "1.0"]), ({"threshold": 0}, [])],
                         ids=["flag-1.0", "config-0"])
def test_label_rejects_a_threshold_outside_the_open_unit_interval(pipeline, tmp_path, capsys,
                                                                   config, flags):
    """A threshold of 0 or 1 labels every patch alike, so it exits 2 and
    leaves no out_dir, run_config.json included, whether it comes from the
    flag or from the config file."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([
        "label", "--config", str(cfg), "--manifest", str(pipeline["corpus"] / "manifest.json"),
        "--out-dir", str(out), "--patch-size", "32", "--stride", "32", "--kernel-size", "7",
        *flags,
    ])
    assert code == EXIT_VALIDATION
    assert "threshold must lie in (0, 1)" in capsys.readouterr().err
    assert not (out / "run_config.json").exists()
    assert not out.exists()


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
    for data in (b"{not json", b'{"sigma": "\xff"}'):
        cfg.write_bytes(data)
        code = main([
            "synthesize", "--config", str(cfg),
            "--sharp-dir", "a", "--kernel-dir", "b", "--out-dir", "c",
        ])
        assert code == EXIT_VALIDATION
        assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, flags, expected", [
    ("synthesize", {"sigma": "abc"}, [], None),
    ("synthesize", {"seed": None}, [], None),
    ("synthesize", {"out_dir": None}, [], None),
    ("label", {"manifest": None}, [], None),
    ("synthesize", {"jobs": 2.0}, [], 2),
    ("synthesize", {"jobs": 1.7}, [], None),
    ("synthesize", {"jobs": True}, [], None),
    ("synthesize", {"seed": "1.5"}, [], None),
    ("synthesize", {"sigma": False}, [], None),
    ("synthesize", {"sigma": math.nan}, [], None),
    ("synthesize", {"sigma": -math.inf}, [], None),
    ("synthesize", {"sigma": 10 ** 400}, [], None),
    ("synthesize", {}, ["--jobs", "1.7"], None),
    ("synthesize", {}, ["--sigma", "nan"], None),
    ("train", {}, ["--learning-rate", "nan"], None),
    ("train", {}, ["--momentum", "inf"], None),
])
def test_option_values_go_through_their_converter(tmp_path, capsys, command, config, flags,
                                                  expected):
    """Config values and flags convert alike; a bad config value exits 2 naming its key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    required = {
        "label": ["--manifest", "m.json"],
        "synthesize": ["--sharp-dir", "a", "--kernel-dir", "b"],
        "train": ["--dataset", "d.json"],
    }[command]
    argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out"), *required, *flags]
    key = next(iter(config)) if config else flags[0][2:].replace("-", "_")
    if expected is None:
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert key in err or key.replace("_", "-") in err
    else:
        assert resolve_options(command, build_parser().parse_args(argv))[key] is expected


@pytest.mark.parametrize("jobs, sharp_names, message", [
    ("0", ["a.pgm"], "jobs"),
    ("-3", ["a.pgm"], "jobs"),
    ("1", ["a.pgm", "a.pfm"], "duplicate output name blur_a_k.pfm"),
], ids=["jobs-0", "jobs-minus-3", "duplicate-stem"])
def test_rejected_synthesize_leaves_no_out_dir(pipeline, tmp_path, capsys, jobs, sharp_names,
                                               message):
    sharp = tmp_path / "sharp"
    sharp.mkdir()
    for name in sharp_names:
        write_image(eval_scene(32, seed=1), sharp / name)
    code = main([
        "synthesize", "--sharp-dir", str(sharp),
        "--kernel-dir", str(pipeline["kernels"]), "--out-dir", str(tmp_path / "out"),
        "--jobs", jobs,
    ])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["1", "4"])
def test_undecodable_sharp_image_leaves_no_out_dir(pipeline, tmp_path, capsys, jobs):
    """A sharp image is decoded before out_dir is made, so it exits 3 with nothing written."""
    sharp = tmp_path / "sharp"
    sharp.mkdir()
    write_image(eval_scene(32, seed=1), sharp / "a.pgm")
    (sharp / "b.pfm").write_bytes(b"Pf\n1 1\n-1.0\n" + np.array([np.nan], dtype="<f4").tobytes())
    code = main([
        "synthesize", "--sharp-dir", str(sharp),
        "--kernel-dir", str(pipeline["kernels"]), "--out-dir", str(tmp_path / "out"),
        "--jobs", jobs,
    ])
    assert code == EXIT_FORMAT
    assert "b.pfm" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_required_option(capsys):
    assert main(["label", "--out-dir", "somewhere"]) == EXIT_VALIDATION
    assert "--manifest" in capsys.readouterr().err


def test_argparse_failures_and_help(capsys):
    assert main([]) == EXIT_VALIDATION
    assert main(["no-such-command"]) == EXIT_VALIDATION
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


def test_module_entry_point_lists_every_command():
    """``python -m regiondeblur --help`` runs `main` and names all six commands."""
    env = {**os.environ, "PYTHONPATH": str(Path(regiondeblur.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "regiondeblur", "--help"], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == EXIT_OK, result.stderr
    for command in ("synthesize", "label", "train", "select", "deblur", "evaluate"):
        assert command in result.stdout


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


def test_malformed_model_header_is_a_format_error(malformed_model, tmp_path, capsys):
    image = tmp_path / "img.pgm"
    write_image(flat_patch(32, 0.5), image)
    assert main(["select", "--model", str(malformed_model), "--image", str(image)]) == EXIT_FORMAT
    assert str(malformed_model) in capsys.readouterr().err


_DATASET_HEAD = '"threshold": 0.5, "estimator_fingerprint": "x", "manifest_path": "manifest.json"'
_ENTRY = '{"sharp_path": "a.pgm", "kernel_path": "k.txt", "blurred_path": "b.pfm", "sigma": 1, "seed": 0}'
_ROW = ('{"image_id": "b", "image_index": 0, "row0": 0, "col0": 0, "size": 8, '
        '"similarity": 0.5, "label": 1, "status": "ok"}')


def _dataset(row: str) -> str:
    """A dataset whose manifest is manifest.json beside it, holding `row`. It
    keeps the `storage` key that earlier versions wrote and the reader ignores."""
    return '{' + _DATASET_HEAD + ', "storage": "refs", "samples": [' + row + ']}'


@pytest.mark.parametrize("command, text", [
    ("label", '{"entries": ['),
    ("label", '[1, 2]'),
    ("label", '{"master_seed": 1}'),
    ("label", '{"entries": [{"sharp_path": "a.pgm"}]}'),
    ("label", '{"entries": [7]}'),
    ("train", '{"samples": ['),
    ("train", '"samples"'),
    ("train", '{' + _DATASET_HEAD + '}'),
    ("train", '{"samples": []}'),
    ("train", '{' + _DATASET_HEAD + ', "samples": [{"image_id": "a", "image_index": 0}]}'),
    ("train", '{' + _DATASET_HEAD + ', "samples": ["row"]}'),
    ("label", '{"entries": [' + _ENTRY.replace('"b.pfm"', '3') + ']}'),
    ("label", '{"entries": [' + _ENTRY.replace('"seed": 0', '"seed": "0"') + ']}'),
    ("train", _dataset(_ROW.replace('"image_index": 0', '"image_index": "0"'))),
    ("train", _dataset(_ROW.replace('"label": 1', '"label": true'))),
    ("train", _dataset(_ROW.replace('"row0": 0', '"row0": 0.5'))),
    ("train", _dataset(_ROW.replace('"row0": 0', '"row0": -1'))),
    ("train", _dataset(_ROW.replace('"size": 8', '"size": 0'))),
    ("train", _dataset(_ROW.replace('"label": 1', '"label": 2'))),
    ("train", _dataset(_ROW).replace('"manifest_path": "manifest.json", ', '')),
    ("train", _dataset(_ROW).replace('"manifest.json"', 'null')),
])
def test_malformed_manifest_or_dataset_is_a_format_error(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    (tmp_path / "manifest.json").write_text('{"entries": [' + _ENTRY + ']}')
    flag = {"label": "--manifest", "train": "--dataset"}[command]
    assert main([command, flag, str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_FORMAT
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ('"image_index": 0', '"image_index": 1'),
    ('"image_index": 0', '"image_index": -1'),
    ('"col0": 0', '"col0": 9'),
    ('"row0": 0', '"row0": 90'),
    ('"size": 8', '"size": 500'),
    ('"size": 8', '"size": 4'),
], ids=["1", "-1", "col0-9", "row0-90", "size-500", "size-4"])
def test_dataset_row_outside_the_manifest_is_a_format_error(tmp_path, capsys, old, new):
    """A row naming an image the manifest lacks, a patch that does not fit
    its 16 px image, or a patch of another size than row 0's exits 3 naming
    the dataset and the row."""
    (tmp_path / "manifest.json").write_text('{"entries": [' + _ENTRY + ']}')
    write_image(flat_patch(16, 0.5), tmp_path / "b.pfm")
    path = tmp_path / "input.json"
    path.write_text(_dataset(_ROW + ", " + _ROW.replace(old, new)))
    assert main(["train", "--dataset", str(path), "--out-dir", str(tmp_path / "out"),
                 "--batch-size", "1"]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert str(tmp_path) in err and "row 1" in err


_DELETE = object()
_FUZZ_TARGETS = st.one_of(
    st.tuples(st.none(), st.sampled_from(
        ["samples", "threshold", "estimator_fingerprint", "manifest_path", "storage"])),
    st.tuples(st.integers(0, 8), st.sampled_from(
        ["image_id", "image_index", "row0", "col0", "size", "similarity", "label", "status"])),
)
_FUZZ_VALUES = st.one_of(
    st.just(_DELETE), st.none(), st.booleans(),
    st.sampled_from([10 ** 30, -10 ** 30, math.nan, math.inf, -math.inf]),
    st.integers(-1, 600), st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    """A 24 px corpus image and a dataset of its nine 16 px patches at stride 4."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "manifest.json").write_text('{"entries": [' + _ENTRY + ']}')
    write_image(eval_scene(24, seed=1), root / "b.pfm")
    rows = [{**json.loads(_ROW), "row0": r, "col0": c, "size": 16, "label": (r + c) // 4 % 2}
            for r in (0, 4, 8) for c in (0, 4, 8)]
    return root, {**json.loads(_dataset("")), "samples": rows}


@given(target=_FUZZ_TARGETS, value=_FUZZ_VALUES)
def test_edited_dataset_values_exit_cleanly(fuzz_dataset, target, value):
    """Replacing or deleting any one dataset or row value never raises: train
    succeeds, rejects its input (2) or reports a malformed file (3)."""
    root, base = fuzz_dataset
    data = json.loads(json.dumps(base))
    row, key = target
    record = data if row is None else data["samples"][row]
    if value is _DELETE:
        del record[key]
    else:
        record[key] = value
    path = root / "dataset.json"
    path.write_text(json.dumps(data))
    code = main(["train", "--dataset", str(path), "--out-dir", str(root / "out"),
                 "--epochs", "1", "--batch-size", "1"])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_FORMAT)


_MODEL_EDITS = st.one_of(
    st.tuples(st.just("value"), st.one_of(
        st.tuples(st.none(), st.sampled_from(
            ["input_side", "standardize", "layers", "param_count", "sha256"])),
        st.tuples(st.integers(0, 6), st.sampled_from(
            ["type", "in_channels", "out_channels", "kernel_size", "stride",
             "in_features", "out_features"])),
    ), _FUZZ_VALUES),
    st.tuples(st.just("flip"), st.integers(0, 1 << 12), st.integers(1, 255)),
)


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    """A saved 32 px model and a 40 px image it scores four patches of."""
    root = tmp_path_factory.mktemp("fuzz_model")
    save_model(build_small_resnet(seed=0, input_side=32), root / "model.bin")
    write_image(eval_scene(40, seed=2), root / "image.pfm")
    return root, (root / "model.bin").read_bytes()


@given(edit=_MODEL_EDITS)
def test_edited_model_file_exits_cleanly(fuzz_model, edit):
    """Replacing or deleting one header value, or flipping the bits of one
    byte in the magic, version, header length, header or first parameter,
    never raises: select succeeds, rejects its input (2) or reports a
    malformed file (3)."""
    root, data = fuzz_model
    (header_len,) = struct.unpack_from("<Q", data, 12)
    if edit[0] == "value":
        _, (layer, key), value = edit
        header = json.loads(data[20:20 + header_len])
        record = header if layer is None else header["layers"][layer]
        if value is _DELETE:
            record.pop(key, None)
        else:
            record[key] = value
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        data = data[:12] + struct.pack("<Q", len(blob)) + blob + data[20 + header_len:]
    else:
        _, position, mask = edit
        position %= 20 + header_len + 8
        data = data[:position] + bytes([data[position] ^ mask]) + data[position + 1:]
    path = root / "edited.bin"
    path.write_bytes(data)
    code = main(["select", "--model", str(path), "--image", str(root / "image.pfm"),
                 "--stride", "8"])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_FORMAT)


def _edit_bytes(data: bytes, position: int, cut: int, insert: bytes) -> bytes:
    position %= len(data) + 1
    return data[:position] + insert + data[position + cut:]


_BYTE_EDITS = dict(position=st.integers(0, 1 << 12), cut=st.integers(0, 4),
                   insert=st.binary(max_size=4))


@pytest.fixture(scope="module")
def fuzz_readers(tmp_path_factory):
    """Valid bytes of a 24 px PGM, a 24 px PFM and an 11 x 11 kernel file."""
    root = tmp_path_factory.mktemp("fuzz_readers")
    write_kernel(random_motion_kernel(11, seed=61), root / "k.txt")
    return root, {
        "a.pgm": encode_pgm(eval_scene(24, seed=3)),
        "b.pfm": encode_pfm(eval_scene(24, seed=4)),
        "k.txt": (root / "k.txt").read_bytes(),
    }


@given(name=st.sampled_from(["a.pgm", "b.pfm", "k.txt"]),
       position=st.one_of(st.integers(0, 24), st.integers(0, 1 << 12)),
       cut=st.integers(0, 4), insert=st.binary(max_size=4))
def test_edited_image_or_kernel_bytes_exit_cleanly(fuzz_readers, name, position, cut, insert):
    """Replacing up to four bytes of a PGM, PFM or kernel file by up to four
    others, mostly in the header, never raises: synthesize succeeds, rejects
    its input (2) or reports a malformed file (3)."""
    root, files = fuzz_readers
    for directory in ("sharp", "kernels"):
        shutil.rmtree(root / directory, ignore_errors=True)
        (root / directory).mkdir()
    for file_name, data in files.items():
        if file_name == name:
            data = _edit_bytes(data, position, cut, insert)
        (root / ("kernels" if file_name == "k.txt" else "sharp") / file_name).write_bytes(data)
    code = main(["synthesize", "--sharp-dir", str(root / "sharp"),
                 "--kernel-dir", str(root / "kernels"), "--out-dir", str(root / "out")])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_FORMAT)


@pytest.fixture(scope="module")
def fuzz_manifest(tmp_path_factory):
    """A one-image corpus of a 24 px scene and a 5 x 5 kernel, and its manifest bytes."""
    root = tmp_path_factory.mktemp("fuzz_manifest")
    (root / "sharp").mkdir()
    (root / "kernels").mkdir()
    write_image(eval_scene(24, seed=5), root / "sharp" / "a.pgm")
    write_kernel(random_motion_kernel(5, seed=62), root / "kernels" / "k.txt")
    with pytest.warns(UserWarning, match="outside the usual"):
        assert main(["synthesize", "--sharp-dir", str(root / "sharp"), "--kernel-dir",
                     str(root / "kernels"), "--out-dir", str(root / "corpus")]) == EXIT_OK
    return root, (root / "corpus" / "manifest.json").read_bytes()


@given(**_BYTE_EDITS)
def test_edited_manifest_bytes_exit_cleanly(fuzz_manifest, position, cut, insert):
    """Replacing up to four bytes of a manifest by up to four others never
    raises: label succeeds, rejects its input (2) or reports a malformed
    file (3)."""
    root, data = fuzz_manifest
    path = root / "corpus" / "edited.json"
    path.write_bytes(_edit_bytes(data, position, cut, insert))
    code = main(["label", "--manifest", str(path), "--out-dir", str(root / "out"),
                 "--patch-size", "16", "--stride", "8", "--kernel-size", "5"])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_FORMAT)


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    """Valid config bytes for select (a 32 px model on a 40 px image) and for
    synthesize (a 24 px scene and an 11 x 11 kernel)."""
    root = tmp_path_factory.mktemp("fuzz_config")
    save_model(build_small_resnet(seed=0, input_side=32), root / "model.bin")
    write_image(eval_scene(40, seed=2), root / "image.pfm")
    (root / "sharp").mkdir()
    (root / "kernels").mkdir()
    write_image(eval_scene(24, seed=6), root / "sharp" / "a.pgm")
    write_kernel(random_motion_kernel(11, seed=63), root / "kernels" / "k.txt")
    configs = {
        "select": {"model": str(root / "model.bin"), "image": str(root / "image.pfm"),
                   "stride": 8, "top": 2},
        "synthesize": {"sharp_dir": str(root / "sharp"), "kernel_dir": str(root / "kernels"),
                       "sigma": 2.0, "seed": 4},
    }
    return root, {command: json.dumps(cfg).encode() for command, cfg in configs.items()}


@given(command=st.sampled_from(["select", "synthesize"]), **_BYTE_EDITS)
def test_edited_config_bytes_exit_cleanly(fuzz_config, command, position, cut, insert):
    """Replacing up to four bytes of a --config file by up to four others
    never raises: the command succeeds, rejects its input (2) or reports a
    malformed file (3). synthesize takes --out-dir and --jobs as flags, which
    win over anything the edit puts in the file."""
    root, configs = fuzz_config
    path = root / "config.json"
    path.write_bytes(_edit_bytes(configs[command], position, cut, insert))
    flags = ["--out-dir", str(root / "out"), "--jobs", "1"] if command == "synthesize" else []
    code = main([command, "--config", str(path), *flags])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_FORMAT)


@pytest.mark.parametrize("name, data", [
    ("k.txt", b"1 1\n1\xe9\n"),
    ("k.txt", b"1 1\nnan\n"),
    ("a.pfm", b"Pf\n1 1\n-1.0\n" + np.array([np.nan], dtype="<f4").tobytes()),
    ("a.pfm", b"Pf\n1 1\nnan\n" + np.array([0.5], dtype="<f4").tobytes()),
    ("k.txt", b"2 2\n0.25 0.25\n0.25 0.25\n"),
    ("k.txt", b"1 3\n-0.5 1.0 0.5\n"),
    ("k.txt", b"1 1\n1.002\n"),
], ids=["kernel-non-ascii", "kernel-nan", "pfm-nan-pixel", "pfm-nan-scale",
        "kernel-even-side", "kernel-negative-weight", "kernel-sum-off-one"])
def test_malformed_image_or_kernel_file_is_a_format_error(tmp_path, capsys, name, data):
    sharp, kernels = tmp_path / "sharp", tmp_path / "kernels"
    sharp.mkdir()
    kernels.mkdir()
    write_image(flat_patch(16, 0.5), sharp / "a.pfm")
    write_kernel(Kernel.delta(11), kernels / "k.txt")
    (kernels if name == "k.txt" else sharp).joinpath(name).write_bytes(data)
    code = main([
        "synthesize", "--sharp-dir", str(sharp), "--kernel-dir", str(kernels),
        "--out-dir", str(tmp_path / "out"), "--jobs", "1",
    ])
    assert code == EXIT_FORMAT
    err = capsys.readouterr().err
    assert "offset" in err
    assert name in err


def test_even_kernel_size_is_a_validation_error(pipeline, tmp_path, capsys):
    code = main([
        "deblur", "--model", str(pipeline["model"]),
        "--image", str(pipeline["blurred"]), "--kernel-size", "8",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == EXIT_VALIDATION
    capsys.readouterr()
