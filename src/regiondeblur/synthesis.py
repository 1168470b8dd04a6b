"""Synthetic blur corpus generation and patch-grid bookkeeping.

A corpus pairs every sharp image with every kernel, blurs with replicate-pad
convolution plus clamped i.i.d. Gaussian noise, and records the pairing in a
JSON manifest with per-pair seeds derived from the master seed by splitmix64.
"""

from __future__ import annotations

import itertools
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import DimensionError, ParseError, ValidationError
from .imagecore import (
    BoundaryMode,
    Image,
    Kernel,
    convolve_direct,
    read_image,
    read_kernel,
    write_image,
)

PAPER_KERNEL_RANGE = (11, 55)
SIGMA_CONVENTION = "gaussian-std-on-0-255-scale"

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One splitmix64 output step (finalizer of the given 64-bit state)."""
    z = (state + _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master_seed: int, index: int) -> int:
    """Seed for item `index` of a run: splitmix64 stream seeded at the master."""
    if index < 0:
        raise ValidationError(f"index must be non-negative, got {index}")
    return splitmix64((master_seed + index * _GOLDEN64) & _MASK64)


@dataclass(frozen=True)
class NoiseModel:
    """Additive Gaussian noise; sigma follows the 0..255 intensity convention."""

    sigma: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if not (self.sigma >= 0):
            raise ValidationError(f"sigma must be non-negative, got {self.sigma!r}")


@dataclass(frozen=True)
class PatchGridSpec:
    patch_size: int = 228
    stride: int = 20

    def __post_init__(self):
        if self.patch_size < 1:
            raise ValidationError(f"patch_size must be positive, got {self.patch_size}")
        if self.stride < 1:
            raise ValidationError(f"stride must be positive, got {self.stride}")


@dataclass(frozen=True)
class PatchRef:
    """Top-left corner and side of a square patch."""

    row0: int
    col0: int
    size: int

    def __post_init__(self):
        if self.row0 < 0 or self.col0 < 0:
            raise ValidationError(f"patch corner must be non-negative, got {(self.row0, self.col0)}")
        if self.size < 1:
            raise ValidationError(f"patch size must be positive, got {self.size}")


def read_json(path: Path, what: str):
    """Decode a JSON file; anything that is not JSON is a ParseError."""
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ParseError(f"{what} {path} is not valid JSON: {exc}") from exc


def write_json(path, value) -> None:
    """Write `value` as canonical JSON: sorted keys, two-space indent, final newline."""
    Path(path).write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")


def typed_fields(record, types: dict[str, tuple[type, ...]], what: str) -> dict:
    """The named fields of a decoded JSON object, each of one of its listed
    types (a bool is no number); a field whose types include NoneType may be
    absent. Anything else is a ParseError."""
    if not isinstance(record, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(record).__name__}")
    fields = {name: record.get(name) for name in types}
    for name, value in fields.items():
        kinds = types[name]
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            names = "/".join(kind.__name__ for kind in kinds)
            raise ParseError(f"{what} needs {name!r} as {names}, got {value!r}")
    return fields


_ENTRY_TYPES = {"sharp_path": (str,), "kernel_path": (str,), "blurred_path": (str,),
                "sigma": (int, float), "seed": (int,)}


@dataclass(frozen=True)
class CorpusEntry:
    sharp_path: str
    kernel_path: str
    blurred_path: str
    sigma: float
    seed: int


@dataclass
class CorpusManifest:
    """Corpus index; all paths are relative to the manifest's directory,
    ``base_dir``, which holds it as ``file_name``."""

    entries: list[CorpusEntry]
    master_seed: int = 0
    sigma: float = 4.0
    sigma_convention: str = SIGMA_CONVENTION
    base_dir: Path | None = None
    file_name: str = "manifest.json"

    def to_dict(self) -> dict:
        return {
            "entries": [asdict(e) for e in self.entries],
            "master_seed": self.master_seed,
            "sigma": self.sigma,
            "sigma_convention": self.sigma_convention,
        }

    def save(self, path) -> None:
        path = Path(path)
        write_json(path, self.to_dict())
        self.base_dir, self.file_name = path.parent, path.name

    @staticmethod
    def load(path) -> "CorpusManifest":
        path = Path(path)
        raw = read_json(path, "manifest")
        listed = typed_fields(raw, {"entries": (list,)}, f"manifest {path}")["entries"]
        entries = [CorpusEntry(**typed_fields(e, _ENTRY_TYPES, f"manifest {path} entry {i}"))
                   for i, e in enumerate(listed)]
        return CorpusManifest(
            entries=entries,
            master_seed=raw.get("master_seed", 0),
            sigma=raw.get("sigma", 4.0),
            sigma_convention=raw.get("sigma_convention", SIGMA_CONVENTION),
            base_dir=path.parent,
            file_name=path.name,
        )

    def resolve(self, relative: str) -> Path:
        base = self.base_dir if self.base_dir is not None else Path(".")
        return base / relative


def blur_image(sharp: Image, k: Kernel, noise: NoiseModel) -> Image:
    """Replicate-pad blur plus clamped Gaussian noise, seeded and deterministic."""
    conv = convolve_direct(sharp, k, BoundaryMode.REPLICATE)
    rng = np.random.default_rng(noise.seed)
    noisy = conv.pixels + rng.normal(0.0, noise.sigma / 255.0, conv.pixels.shape)
    return Image(np.clip(noisy, 0.0, 1.0))


def patch_grid(img: Image, spec: PatchGridSpec) -> list[PatchRef]:
    """Row-major list of grid patches; floor((dim - size) / stride) + 1 per axis."""
    h, w = img.shape
    if spec.patch_size > h or spec.patch_size > w:
        raise DimensionError(
            f"patch size {spec.patch_size} exceeds image dims {(h, w)}"
        )
    n_rows = (h - spec.patch_size) // spec.stride + 1
    n_cols = (w - spec.patch_size) // spec.stride + 1
    return [
        PatchRef(i * spec.stride, j * spec.stride, spec.patch_size)
        for i in range(n_rows)
        for j in range(n_cols)
    ]


def extract(img: Image, ref: PatchRef) -> Image:
    """Copy out the square patch named by `ref`."""
    h, w = img.shape
    if ref.row0 + ref.size > h or ref.col0 + ref.size > w:
        raise DimensionError(f"patch {ref} does not fit image dims {(h, w)}")
    return Image(img.pixels[ref.row0:ref.row0 + ref.size, ref.col0:ref.col0 + ref.size].copy())


def _warn_kernel_range(path: Path, k: Kernel) -> None:
    lo, hi = PAPER_KERNEL_RANGE
    if not (lo <= k.side_h <= hi and lo <= k.side_w <= hi):
        warnings.warn(
            f"kernel {path.name} is {k.side_h}x{k.side_w}, outside the usual {lo}-{hi} range"
        )


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValidationError(f"jobs must be positive, got {jobs}")


def map_jobs(fn, tasks, jobs: int) -> list:
    """`[fn(t) for t in tasks]`, spread over `jobs` worker processes when
    jobs > 1. Results keep task order, so they do not depend on `jobs`."""
    _check_jobs(jobs)
    if jobs == 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def _synthesize_pair(args) -> None:
    sharp_path, kernel_path, out_path, sigma, seed = args
    sharp = read_image(sharp_path)
    k = read_kernel(kernel_path)
    blurred = blur_image(sharp, k, NoiseModel(sigma=sigma, seed=seed))
    write_image(blurred, out_path)


def generate_corpus(sharp_dir, kernel_dir, noise: NoiseModel, out_dir, *, jobs: int = 1) -> CorpusManifest:
    """Blur every (sharp, kernel) pair into out_dir and write manifest.json."""
    _check_jobs(jobs)
    sharp_dir, kernel_dir, out_dir = Path(sharp_dir), Path(kernel_dir), Path(out_dir)
    sharp_files = sorted(
        p for p in sharp_dir.iterdir() if p.suffix.lower() in (".pgm", ".pfm")
    )
    kernel_files = sorted(p for p in kernel_dir.iterdir() if p.suffix.lower() == ".txt")
    if not sharp_files:
        raise ValidationError(f"no .pgm/.pfm images found in {sharp_dir}")
    if not kernel_files:
        raise ValidationError(f"no .txt kernels found in {kernel_dir}")
    for kf in kernel_files:
        _warn_kernel_range(kf, read_kernel(kf))
    out_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    tasks = []
    seen = set()
    for index, (sp, kf) in enumerate(itertools.product(sharp_files, kernel_files)):
        name = f"blur_{sp.stem}_{kf.stem}.pfm"
        if name in seen:
            raise ValidationError(f"duplicate output name {name}; rename inputs")
        seen.add(name)
        seed = derive_seed(noise.seed, index)
        tasks.append((str(sp), str(kf), str(out_dir / name), noise.sigma, seed))
        entries.append(
            CorpusEntry(
                sharp_path=os.path.relpath(sp, out_dir),
                kernel_path=os.path.relpath(kf, out_dir),
                blurred_path=name,
                sigma=noise.sigma,
                seed=seed,
            )
        )

    map_jobs(_synthesize_pair, tasks, jobs)

    manifest = CorpusManifest(entries=entries, master_seed=noise.seed, sigma=noise.sigma)
    manifest.save(out_dir / "manifest.json")
    return manifest
