import numpy as np
import pytest

from regiondeblur.demodata import eval_scene, flat_patch, random_motion_kernel
from regiondeblur.errors import ValidationError
from regiondeblur.estimator import BlindEstimator, EstimatorConfig, KernelEstimate
from regiondeblur.imagecore import Kernel, write_image, write_kernel
from regiondeblur.kernelsim import LabelConfig
from regiondeblur.labeling import (
    STATUS_DEGENERATE,
    STATUS_OK,
    LabeledDataset,
    build_dataset,
    class_balance_report,
    estimator_fingerprint,
    load_training_samples,
    relabel,
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
    assert ds.storage == "refs"
    for s in ds.samples:
        assert 0.0 <= s.similarity <= 1.0
        if s.status == STATUS_DEGENERATE:
            assert s.similarity == 0.0 and s.label == 0
        else:
            assert s.label == int(s.similarity >= 0.5)
    assert [s.image_index for s in ds.samples] == [0] * 4 + [1] * 4
    corners = [(s.ref.row0, s.ref.col0) for s in ds.samples[:4]]
    assert corners == [(0, 0), (0, 24), (24, 0), (24, 24)]


def test_build_dataset_jobs_do_not_change_result(scene_corpus):
    a = build_dataset(scene_corpus, GRID, EST, LABELS, jobs=1)
    b = build_dataset(scene_corpus, GRID, EST, LABELS, jobs=2)
    assert a.to_dict() == b.to_dict()


def test_flat_corpus_degenerates(flat_corpus):
    ds = build_dataset(flat_corpus, GRID, EST, LABELS)
    assert all(s.status == STATUS_DEGENERATE for s in ds.samples)
    assert all(s.label == 0 and s.similarity == 0.0 for s in ds.samples)


def test_store_patches_round_trip(scene_corpus, tmp_path):
    out = tmp_path / "ds"
    stored = build_dataset(scene_corpus, GRID, EST, LABELS, out, store_patches=True)
    assert stored.storage == "patches"
    assert all(s.patch_path is not None for s in stored.samples)
    from_refs = build_dataset(scene_corpus, GRID, EST, LABELS)
    a = load_training_samples(stored)
    b = load_training_samples(from_refs, manifest=scene_corpus)
    assert len(a) == len(b) == 8
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.patch.pixels, sb.patch.pixels)
        assert sa.label == sb.label


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


def test_relabel_reapplies_threshold_without_estimating(scene_corpus):
    ds = build_dataset(scene_corpus, GRID, EST, LABELS)
    strict = relabel(ds, LabelConfig(threshold=0.999))
    lax = relabel(ds, LabelConfig(threshold=1e-9))
    assert all(s.label == 0 for s in strict.samples if s.similarity < 0.999)
    for s in lax.samples:
        if s.status == STATUS_DEGENERATE:
            assert s.label == 0
        else:
            assert s.label == 1
    assert [s.similarity for s in strict.samples] == [s.similarity for s in ds.samples]


def test_class_balance_report_counts_and_warns(flat_corpus):
    ds = build_dataset(flat_corpus, GRID, EST, LABELS)
    with pytest.warns(UserWarning, match="skewed"):
        report = class_balance_report(ds)
    assert report["total"] == 4
    assert report["positives"] == 0
    assert report["degenerate"] == 4


class SizeRecordingEstimator:
    def __init__(self, size=3):
        self.size = size
        self.sizes_requested = []

    def with_kernel_size(self, size):
        clone = SizeRecordingEstimator(size)
        clone.sizes_requested = self.sizes_requested
        self.sizes_requested.append(size)
        return clone

    def __call__(self, patch):
        k = Kernel.delta(self.size)
        return KernelEstimate(kernel=k, degenerate=False, per_level=(k,))


def test_custom_estimator_gets_matched_kernel_size(scene_corpus):
    est = SizeRecordingEstimator()
    ds = build_dataset(scene_corpus, GRID, EST, LABELS, estimator=est)
    assert set(est.sizes_requested) == {7}
    assert ds.estimator_fingerprint != estimator_fingerprint(EST)
    assert all(s.status == STATUS_OK for s in ds.samples)


def test_custom_estimator_runs_in_a_pool_like_the_default(scene_corpus):
    pooled = build_dataset(scene_corpus, GRID, EST, LABELS, estimator=BlindEstimator(EST), jobs=2)
    assert pooled.samples == build_dataset(scene_corpus, GRID, EST, LABELS).samples


def test_estimator_fingerprint_tracks_config():
    a = estimator_fingerprint(EstimatorConfig(kernel_size=7))
    b = estimator_fingerprint(EstimatorConfig(kernel_size=7))
    c = estimator_fingerprint(EstimatorConfig(kernel_size=9))
    assert a == b
    assert a != c
    assert len(a) == 16


def test_build_dataset_rejects_empty_manifest():
    empty = CorpusManifest(entries=[])
    with pytest.raises(ValidationError):
        build_dataset(empty, GRID, EST, LABELS)


def test_store_patches_requires_out_dir(scene_corpus):
    with pytest.raises(ValidationError):
        build_dataset(scene_corpus, GRID, EST, LABELS, store_patches=True)
