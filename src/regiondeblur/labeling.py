"""Produce labeled training patches from a synthetic blur corpus.

Every grid patch of every blurred image is pushed through a kernel
estimator; the similarity between the estimated and true kernels decides the
patch label. Datasets serialize to a JSON index whose paths are relative to
the index file, with the patches themselves stored either as references back
into the corpus or as standalone float images.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .classifier import TrainingSample
from .errors import ValidationError
from .estimator import BlindEstimator, EstimatorConfig
# Unused here, but perfbench's tracer test reads `labeling.estimate_kernel`.
from .estimator import estimate_kernel  # noqa: F401
from .imagecore import read_image, read_kernel, write_image
from .kernelsim import LabelConfig, kernel_similarity, label
from .synthesis import CorpusManifest, PatchGridSpec, PatchRef, extract, map_jobs, patch_grid

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"


@dataclass(frozen=True)
class LabeledSample:
    image_id: str
    image_index: int
    ref: PatchRef
    similarity: float
    label: int
    status: str
    patch_path: str | None = None


@dataclass
class LabeledDataset:
    """Labeled patches plus enough provenance to rebuild or reload them."""

    samples: tuple[LabeledSample, ...]
    threshold: float
    estimator_fingerprint: str
    storage: str = "refs"
    manifest_path: str | None = None
    base_dir: Path | None = None

    def __post_init__(self):
        if self.storage not in ("refs", "patches"):
            raise ValidationError(f"storage must be 'refs' or 'patches', got {self.storage!r}")

    def positive_fraction(self) -> float:
        if not self.samples:
            raise ValidationError("dataset is empty")
        return sum(s.label for s in self.samples) / len(self.samples)

    def to_dict(self) -> dict:
        rows = []
        for s in self.samples:
            row = {
                "image_id": s.image_id,
                "image_index": s.image_index,
                "row0": s.ref.row0,
                "col0": s.ref.col0,
                "size": s.ref.size,
                "similarity": s.similarity,
                "label": s.label,
                "status": s.status,
            }
            if s.patch_path is not None:
                row["patch_path"] = s.patch_path
            rows.append(row)
        return {
            "threshold": self.threshold,
            "estimator_fingerprint": self.estimator_fingerprint,
            "storage": self.storage,
            "manifest_path": self.manifest_path,
            "samples": rows,
        }

    def save(self, path) -> None:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        self.base_dir = path.parent

    @staticmethod
    def load(path) -> "LabeledDataset":
        path = Path(path)
        raw = json.loads(path.read_text())
        samples = tuple(
            LabeledSample(
                image_id=row["image_id"],
                image_index=row["image_index"],
                ref=PatchRef(row["row0"], row["col0"], row["size"]),
                similarity=row["similarity"],
                label=row["label"],
                status=row["status"],
                patch_path=row.get("patch_path"),
            )
            for row in raw["samples"]
        )
        return LabeledDataset(
            samples=samples,
            threshold=raw["threshold"],
            estimator_fingerprint=raw["estimator_fingerprint"],
            storage=raw["storage"],
            manifest_path=raw.get("manifest_path"),
            base_dir=path.parent,
        )


def estimator_fingerprint(cfg: EstimatorConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _label_one_image(task):
    """Worker: similarity of every grid patch of one blurred image."""
    blurred_path, kernel_path, grid, estimator, match = task
    blurred = read_image(blurred_path)
    true_kernel = read_kernel(kernel_path)
    if match:
        estimator = estimator.with_kernel_size(true_kernel.side_h)
    rows = []
    for ref in patch_grid(blurred, grid):
        estimate = estimator(extract(blurred, ref))
        if estimate.degenerate:
            rows.append((ref, 0.0, STATUS_DEGENERATE))
        else:
            sim = kernel_similarity(estimate.kernel, true_kernel)
            rows.append((ref, sim.value, STATUS_OK))
    return rows


def build_dataset(manifest: CorpusManifest, grid: PatchGridSpec,
                  est_cfg: EstimatorConfig, label_cfg: LabelConfig,
                  out_dir=None, *, store_patches: bool = False, jobs: int = 1,
                  estimator=None, match_kernel_size: bool = True) -> LabeledDataset:
    """Label every patch of every corpus image against its true kernel.

    Images are labeled in ``jobs`` worker processes (``jobs`` must be >= 1;
    1 runs in-process) and reassembled in manifest order, so the dataset is
    identical for any job count. ``estimator`` defaults to
    ``BlindEstimator(est_cfg)``; a custom one must be picklable when
    ``jobs > 1``.
    """
    if not manifest.entries:
        raise ValidationError("corpus manifest has no entries")
    if store_patches and out_dir is None:
        raise ValidationError("store_patches requires an output directory")
    worker_estimator = BlindEstimator(est_cfg) if estimator is None else estimator
    tasks = [
        (manifest.resolve(e.blurred_path), manifest.resolve(e.kernel_path), grid,
         worker_estimator, match_kernel_size)
        for e in manifest.entries
    ]
    results = map_jobs(_label_one_image, tasks, jobs)

    out_dir = Path(out_dir) if out_dir is not None else None
    patch_dir = None
    if store_patches:
        patch_dir = out_dir / "patches"
        patch_dir.mkdir(parents=True, exist_ok=True)

    samples = []
    for index, (entry, rows) in enumerate(zip(manifest.entries, results)):
        image_id = Path(entry.blurred_path).stem
        blurred = read_image(manifest.resolve(entry.blurred_path)) if store_patches else None
        for ref, sim, status in rows:
            lab = 0 if status == STATUS_DEGENERATE else label(sim, label_cfg)
            patch_path = None
            if store_patches:
                name = f"{image_id}_r{ref.row0}_c{ref.col0}.pfm"
                write_image(extract(blurred, ref), patch_dir / name)
                patch_path = f"patches/{name}"
            samples.append(LabeledSample(
                image_id=image_id,
                image_index=index,
                ref=ref,
                similarity=sim,
                label=lab,
                status=status,
                patch_path=patch_path,
            ))

    fingerprint = (
        estimator_fingerprint(est_cfg)
        if estimator is None
        else hashlib.sha256(f"custom:{type(estimator).__name__}".encode()).hexdigest()[:16]
    )
    dataset = LabeledDataset(
        samples=tuple(samples),
        threshold=label_cfg.threshold,
        estimator_fingerprint=fingerprint,
        storage="patches" if store_patches else "refs",
        manifest_path=None,
        base_dir=out_dir,
    )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        if manifest.base_dir is not None:
            dataset.manifest_path = os.path.relpath(manifest.base_dir / "manifest.json", out_dir)
        dataset.save(out_dir / "dataset.json")
    return dataset


def relabel(dataset: LabeledDataset, label_cfg: LabelConfig) -> LabeledDataset:
    """Reapply a threshold to stored similarities without re-estimating."""
    samples = tuple(
        replace(s, label=0 if s.status == STATUS_DEGENERATE else label(s.similarity, label_cfg))
        for s in dataset.samples
    )
    return LabeledDataset(
        samples=samples,
        threshold=label_cfg.threshold,
        estimator_fingerprint=dataset.estimator_fingerprint,
        storage=dataset.storage,
        manifest_path=dataset.manifest_path,
        base_dir=dataset.base_dir,
    )


def class_balance_report(dataset: LabeledDataset) -> dict:
    """Class counts plus a warning when the split strays from roughly 1:1."""
    positives = sum(s.label for s in dataset.samples)
    total = len(dataset.samples)
    if total == 0:
        raise ValidationError("dataset is empty")
    fraction = positives / total
    report = {
        "total": total,
        "positives": positives,
        "negatives": total - positives,
        "positive_fraction": fraction,
        "degenerate": sum(1 for s in dataset.samples if s.status == STATUS_DEGENERATE),
    }
    if not 0.3 <= fraction <= 0.7:
        warnings.warn(
            f"label balance is skewed: {fraction:.2f} positive; "
            "consider adjusting the similarity threshold",
            stacklevel=2,
        )
    return report


def load_training_samples(dataset: LabeledDataset, manifest: CorpusManifest | None = None):
    """Materialize dataset rows as in-memory training samples."""
    base = dataset.base_dir if dataset.base_dir is not None else Path(".")
    out: list[TrainingSample] = []
    if dataset.storage == "patches":
        for s in dataset.samples:
            if s.patch_path is None:
                raise ValidationError(f"sample {s.image_id} has no stored patch")
            patch = read_image(base / s.patch_path)
            out.append(TrainingSample(patch=patch, label=s.label, similarity=s.similarity))
        return out
    if manifest is None:
        if dataset.manifest_path is None:
            raise ValidationError("reference dataset needs a corpus manifest to load patches")
        manifest = CorpusManifest.load(base / dataset.manifest_path)
    cache: dict[int, object] = {}
    for s in dataset.samples:
        if s.image_index not in cache:
            entry = manifest.entries[s.image_index]
            cache[s.image_index] = read_image(manifest.resolve(entry.blurred_path))
        patch = extract(cache[s.image_index], s.ref)
        out.append(TrainingSample(patch=patch, label=s.label, similarity=s.similarity))
    return out
