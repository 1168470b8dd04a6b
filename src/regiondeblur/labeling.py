"""Produce labeled training patches from a synthetic blur corpus.

Every grid patch of every blurred image is pushed through the blind kernel
estimator; the similarity between the estimated and true kernels decides the
patch label. A dataset is a JSON index of patch references (image index,
corner, side) into the corpus named by its manifest path, which is relative
to the index file; training cuts the patches out of the blurred images.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

from .classifier import TrainingSample
from .errors import DimensionError, ParseError, ValidationError
from .estimator import SETTINGS, EstimatorConfig, estimate_kernel
from .imagecore import read_image, read_kernel
from .kernelsim import kernel_similarity
from .synthesis import (
    CorpusManifest,
    PatchGridSpec,
    PatchRef,
    extract,
    map_jobs,
    patch_grid,
    read_json,
    typed_fields,
    write_json,
)

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"

_DATASET_TYPES = {"samples": (list,), "threshold": (int, float), "estimator_fingerprint": (str,),
                  "manifest_path": (str,)}
_ROW_TYPES = {"image_id": (str,), "image_index": (int,), "row0": (int,), "col0": (int,),
              "size": (int,), "similarity": (int, float), "label": (int,), "status": (str,)}


@dataclass(frozen=True)
class LabeledSample:
    image_id: str
    image_index: int
    ref: PatchRef
    similarity: float
    label: int
    status: str

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValidationError(f"label must be 0 or 1, got {self.label!r}")


@dataclass
class LabeledDataset:
    """Labeled patch references plus enough provenance to rebuild or reload them."""

    samples: tuple[LabeledSample, ...]
    threshold: float
    estimator_fingerprint: str
    manifest_path: str | None = None
    base_dir: Path | None = None

    def to_dict(self) -> dict:
        rows = []
        for s in self.samples:
            row = asdict(s)
            row.update(row.pop("ref"))
            rows.append(row)
        return {
            "threshold": self.threshold,
            "estimator_fingerprint": self.estimator_fingerprint,
            "manifest_path": self.manifest_path,
            "samples": rows,
        }

    def save(self, path) -> None:
        path = Path(path)
        write_json(path, self.to_dict())
        self.base_dir = path.parent

    @staticmethod
    def load(path) -> "LabeledDataset":
        """Read a dataset index; wrong types and out-of-range values raise ParseError."""
        path = Path(path)
        raw = typed_fields(read_json(path, "dataset"), _DATASET_TYPES, f"dataset {path}")
        samples = []
        try:
            for i, row in enumerate(raw["samples"]):
                row = typed_fields(row, _ROW_TYPES, f"dataset {path} row {i}")
                ref = PatchRef(row.pop("row0"), row.pop("col0"), row.pop("size"))
                samples.append(LabeledSample(ref=ref, **row))
            return LabeledDataset(
                samples=tuple(samples),
                threshold=raw["threshold"],
                estimator_fingerprint=raw["estimator_fingerprint"],
                manifest_path=raw["manifest_path"],
                base_dir=path.parent,
            )
        except ValidationError as exc:
            raise ParseError(f"dataset {path}: {exc}") from None


def estimator_fingerprint(cfg: EstimatorConfig) -> str:
    blob = json.dumps({**SETTINGS, **asdict(cfg)}, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _label_one_image(task):
    """Worker: similarity of every grid patch of one blurred image."""
    blurred_path, kernel_path, grid = task
    blurred = read_image(blurred_path)
    true_kernel = read_kernel(kernel_path)
    cfg = EstimatorConfig.for_kernel(true_kernel)
    rows = []
    for ref in patch_grid(blurred, grid):
        estimate = estimate_kernel(extract(blurred, ref), cfg)
        if estimate.degenerate:
            rows.append((ref, 0.0, STATUS_DEGENERATE))
        else:
            rows.append((ref, kernel_similarity(estimate.kernel, true_kernel), STATUS_OK))
    return rows


def build_dataset(manifest: CorpusManifest, grid: PatchGridSpec,
                  est_cfg: EstimatorConfig, threshold: float,
                  out_dir=None, *, jobs: int = 1) -> LabeledDataset:
    """Label every patch of every corpus image against its true kernel.

    A patch is labeled 1 when the similarity of its estimated kernel to the
    true one is at least ``threshold``, which must lie strictly between 0
    and 1, and 0 otherwise. A degenerate estimate is recorded with
    similarity 0.0, so it is always labeled 0. The threshold is checked
    before any work is done or ``out_dir`` is made.

    Images are labeled in ``jobs`` worker processes (``jobs`` must be >= 1;
    1 runs in-process) and reassembled in manifest order, so the dataset is
    identical for any job count. Each image is estimated at its true
    kernel's longer side (`EstimatorConfig.for_kernel`); ``est_cfg`` only
    enters the estimator fingerprint. With ``out_dir`` the index is saved
    there as ``dataset.json``; its manifest path points at the manifest's
    file if the manifest has a ``base_dir``.
    """
    if not (0.0 < threshold < 1.0):
        raise ValidationError(f"threshold must lie in (0, 1), got {threshold!r}")
    if not manifest.entries:
        raise ValidationError("corpus manifest has no entries")
    tasks = [
        (manifest.resolve(e.blurred_path), manifest.resolve(e.kernel_path), grid)
        for e in manifest.entries
    ]
    results = map_jobs(_label_one_image, tasks, jobs)

    samples = []
    for index, (entry, rows) in enumerate(zip(manifest.entries, results)):
        image_id = Path(entry.blurred_path).stem
        for ref, sim, status in rows:
            samples.append(LabeledSample(
                image_id=image_id,
                image_index=index,
                ref=ref,
                similarity=sim,
                label=int(sim >= threshold),
                status=status,
            ))

    dataset = LabeledDataset(
        samples=tuple(samples),
        threshold=threshold,
        estimator_fingerprint=estimator_fingerprint(est_cfg),
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if manifest.base_dir is not None:
            dataset.manifest_path = os.path.relpath(manifest.base_dir / manifest.file_name, out_dir)
        dataset.save(out_dir / "dataset.json")
    return dataset


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
        "degenerate": sum(1 for s in dataset.samples if s.status == STATUS_DEGENERATE),
    }
    if not 0.3 <= fraction <= 0.7:
        warnings.warn(
            f"label balance is skewed: {fraction:.2f} positive; "
            "consider adjusting the similarity threshold",
            stacklevel=2,
        )
    return report


def load_training_samples(dataset: LabeledDataset) -> list[TrainingSample]:
    """Cut every dataset row's patch out of its blurred corpus image. A row
    naming an image the manifest lacks, a patch that does not fit its image,
    or a patch side other than row 0's is a ParseError naming the dataset and
    the row."""
    if dataset.manifest_path is None:
        raise ValidationError("dataset has no corpus manifest to load patches from")
    base = dataset.base_dir if dataset.base_dir is not None else Path(".")
    manifest = CorpusManifest.load(base / dataset.manifest_path)
    images = {}
    out = []
    for i, s in enumerate(dataset.samples):
        where = f"dataset in {base} row {i}"
        if s.ref.size != dataset.samples[0].ref.size:
            raise ParseError(f"{where} names a {s.ref.size} px patch, but row 0 "
                             f"names a {dataset.samples[0].ref.size} px one")
        if s.image_index not in images:
            if not 0 <= s.image_index < len(manifest.entries):
                raise ParseError(f"{where} names image {s.image_index}, but the manifest "
                                 f"in {manifest.base_dir} has {len(manifest.entries)} entries")
            entry = manifest.entries[s.image_index]
            images[s.image_index] = read_image(manifest.resolve(entry.blurred_path))
        try:
            patch = extract(images[s.image_index], s.ref)
        except DimensionError as exc:
            raise ParseError(f"{where}: {exc}") from None
        out.append(TrainingSample(patch=patch, label=s.label))
    return out
