import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from regiondeblur.cli import (
    EXIT_FORMAT,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    main,
    resolve_options,
)
from regiondeblur.demodata import eval_scene, flat_patch, random_motion_kernel
from regiondeblur.estimator import LATENT_REG, EstimatorConfig, deconvolve, estimate_kernel
from regiondeblur.evaluation import EVAL_CSV_HEADER
from regiondeblur.imagecore import Kernel, encode_pfm, read_image, write_image, write_kernel
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
    for name in ("kernel.txt", "deblurred.pfm", "deblurred.pgm", "selection.pgm", "run_config.json"):
        assert (out / name).exists()
    blurred = read_image(image)
    ref = PatchRef(int(row0), int(col0), 32)
    kernel = estimate_kernel(extract(blurred, ref), EstimatorConfig(kernel_size=7)).kernel
    write_kernel(kernel, tmp_path / "expected.txt")
    assert (out / "kernel.txt").read_bytes() == (tmp_path / "expected.txt").read_bytes()
    latent = deconvolve(blurred, kernel, LATENT_REG)
    assert (out / "deblurred.pfm").read_bytes() == encode_pfm(latent)


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


def test_evaluate_rejects_a_patch_size_its_model_cannot_score(pipeline, tmp_path, capsys):
    """`top` with a 48 px grid and a 32 px model exits 2 and writes nothing."""
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--manifest", str(pipeline["corpus"] / "manifest.json"),
        "--model", str(pipeline["model"]), "--out-dir", str(out),
        "--patch-size", "48", "--stride", "16", "--kernel-size", "7",
        "--methods", "top,gt",
    ]) == EXIT_VALIDATION
    assert "patch size 48" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_non_positive_jobs_are_rejected(pipeline, tmp_path, capsys, jobs):
    code = main([
        "synthesize", "--sharp-dir", str(pipeline["sharp"]),
        "--kernel-dir", str(pipeline["kernels"]), "--out-dir", str(tmp_path / "out"),
        "--jobs", jobs,
    ])
    assert code == EXIT_VALIDATION
    assert "jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
