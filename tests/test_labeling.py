from pathlib import Path

import numpy as np
import pytest

from regiondeblur.demodata import eval_scene, flat_patch, random_motion_kernel
from regiondeblur.errors import ValidationError
from regiondeblur.estimator import EstimatorConfig
from regiondeblur.imagecore import write_image, write_kernel
from regiondeblur.kernelsim import LabelConfig
from regiondeblur.labeling import (
    STATUS_DEGENERATE,
    LabeledDataset,
    build_dataset,
    class_balance_report,
    estimator_fingerprint,
    load_training_samples,
)
from regiondeblur.synthesis import CorpusManifest, NoiseModel, PatchGridSpec, generate_corpus

GRID = PatchGridSpec(patch_size=24, stride=24)
EST = EstimatorConfig(kernel_size=7)
LABELS = LabelConfig(threshold=0.5)


@pytest.fixture(scope="module")
def scene_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("scene_corpus")
    sharp = root / "sharp"
    kernels = root / "kernels"
    sharp.mkdir()
    kernels.mkdir()
    for i in range(2):
        write_image(eval_scene(48, seed=i), sharp / f"scene{i}.pgm")
    write_kernel(random_motion_kernel(7, seed=40), kernels / "k.txt")
    with pytest.warns(UserWarning):
        return generate_corpus(sharp, kernels, NoiseModel(sigma=0.0, seed=1), root / "corpus")


@pytest.fixture(scope="module")
def flat_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("flat_corpus")
    sharp = root / "sharp"
    kernels = root / "kernels"
    sharp.mkdir()
    kernels.mkdir()
    write_image(flat_patch(48, 0.5), sharp / "flat.pgm")
    write_kernel(random_motion_kernel(7, seed=41), kernels / "k.txt")
    with pytest.warns(UserWarning):
        return generate_corpus(sharp, kernels, NoiseModel(sigma=0.0, seed=2), root / "corpus")


def test_build_dataset_labels_every_patch(scene_corpus):
    ds = build_dataset(scene_corpus, GRID, EST, LABELS)
    assert len(ds.samples) == 8
    assert ds.threshold == 0.5
    for s in ds.samples:
        assert 0.0 <= s.similarity <= 1.0
        if s.status == STATUS_DEGENERATE:
            assert s.similarity == 0.0 and s.label == 0
        else:
            assert s.label == int(s.similarity >= 0.5)
    assert [s.image_index for s in ds.samples] == [0] * 4 + [1] * 4
    corners = [(s.ref.row0, s.ref.col0) for s in ds.samples[:4]]
    assert corners == [(0, 0), (0, 24), (24, 0), (24, 24)]
    # Each image is estimated at its true kernel's size (7), not the
    # configured 9, which would need patches of at least 27 px.
    assert build_dataset(scene_corpus, GRID, EstimatorConfig(kernel_size=9), LABELS).samples == ds.samples


def test_build_dataset_jobs_do_not_change_result(scene_corpus, tmp_path):
    a = build_dataset(scene_corpus, GRID, EST, LABELS, tmp_path / "a", jobs=1)
    b = build_dataset(scene_corpus, GRID, EST, LABELS, tmp_path / "b", jobs=2)
    assert a.estimator_fingerprint == b.estimator_fingerprint == estimator_fingerprint(EST)
    assert (tmp_path / "a" / "dataset.json").read_bytes() == (tmp_path / "b" / "dataset.json").read_bytes()


def test_flat_corpus_degenerates(flat_corpus):
    ds = build_dataset(flat_corpus, GRID, EST, LABELS)
    assert all(s.status == STATUS_DEGENERATE for s in ds.samples)
    assert all(s.label == 0 and s.similarity == 0.0 for s in ds.samples)


def test_dataset_save_load_round_trip(scene_corpus, tmp_path):
    out = tmp_path / "ds"
    ds = build_dataset(scene_corpus, GRID, EST, LABELS, out)
    loaded = LabeledDataset.load(out / "dataset.json")
    assert loaded.threshold == ds.threshold
    assert loaded.estimator_fingerprint == ds.estimator_fingerprint
    assert loaded.samples == ds.samples
    assert loaded.manifest_path is not None
    samples = load_training_samples(loaded)
    assert len(samples) == 8


def test_class_balance_report_counts_and_warns(flat_corpus):
    ds = build_dataset(flat_corpus, GRID, EST, LABELS)
    with pytest.warns(UserWarning, match="skewed"):
        report = class_balance_report(ds)
    assert report["total"] == 4
    assert report["positives"] == 0
    assert report["degenerate"] == 4


def test_estimator_fingerprint_tracks_config():
    a = estimator_fingerprint(EstimatorConfig(kernel_size=7))
    b = estimator_fingerprint(EstimatorConfig(kernel_size=7))
    c = estimator_fingerprint(EstimatorConfig(kernel_size=9))
    assert a == b
    assert a != c
    assert len(a) == 16
    # Pinned: a changed setting or a renamed key would change every dataset.json.
    assert a == "a68a4449c252ed14"
    assert estimator_fingerprint(EstimatorConfig(kernel_size=13)) == "e7795b9e95993aa9"
    assert estimator_fingerprint(EstimatorConfig(kernel_size=27)) == "236714d47cd048e4"


def test_build_dataset_rejects_empty_manifest():
    empty = CorpusManifest(entries=[])
    with pytest.raises(ValidationError):
        build_dataset(empty, GRID, EST, LABELS)


def test_unsaved_dataset_has_no_corpus_to_load_from(scene_corpus):
    with pytest.raises(ValidationError, match="manifest"):
        load_training_samples(build_dataset(scene_corpus, GRID, EST, LABELS))


@pytest.mark.parametrize("name", ["refs_dataset.json", "patches_dataset.json"])
def test_earlier_dataset_files_train_from_the_corpus(scene_corpus, tmp_path, name):
    """Datasets written by earlier versions, one with `"storage": "refs"` and
    one with `"storage": "patches"` and a `patch_path` per row, load and cut
    their patches from the corpus; the stored patch files are not read."""
    old_dir = scene_corpus.base_dir.parent / name.removesuffix(".json")
    old_dir.mkdir(exist_ok=True)
    old_path = old_dir / "dataset.json"
    old_path.write_text((Path(__file__).parent / "data" / name).read_text())
    old = LabeledDataset.load(old_path)
    fresh = build_dataset(scene_corpus, GRID, EST, LABELS, tmp_path / "fresh")
    assert old.samples == fresh.samples
    assert old.estimator_fingerprint == fresh.estimator_fingerprint
    a, b = load_training_samples(old), load_training_samples(fresh)
    assert len(a) == len(b) == 8
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.patch.pixels, sb.patch.pixels)
        assert sa.label == sb.label
