"""Rank image patches by classifier score and mark the selected one."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import Network
from .errors import ValidationError
from .imagecore import Image
from .synthesis import PatchGridSpec, PatchRef, extract, patch_grid

# Patches extracted and scored per forward_batch call.
_BATCH_SIZE = 64
_BORDER = 3


@dataclass(frozen=True)
class RankedPatch:
    ref: PatchRef
    score: float


def score_patches(net: Network, image: Image, grid: PatchGridSpec) -> list[RankedPatch]:
    """Score every grid patch; ties rank earlier (row-major) patches first."""
    refs = patch_grid(image, grid)
    scores = np.empty(len(refs))
    for start in range(0, len(refs), _BATCH_SIZE):
        chunk = refs[start:start + _BATCH_SIZE]
        batch = np.stack([extract(image, r).pixels for r in chunk])
        scores[start:start + len(chunk)] = net.forward_batch(batch)
    order = sorted(range(len(refs)), key=lambda i: (-scores[i], refs[i].row0, refs[i].col0))
    return [RankedPatch(ref=refs[i], score=float(scores[i])) for i in order]


def select_top(ranked: list[RankedPatch], k: int = 1) -> list[RankedPatch]:
    if k < 1:
        raise ValidationError(f"k must be positive, got {k}")
    if not ranked:
        raise ValidationError("no patches to select from")
    return list(ranked[:k])


def annotate_selection(image: Image, ref: PatchRef) -> Image:
    """Burn a solid border `_BORDER` pixels wide around the patch into a copy."""
    px = np.array(image.pixels)
    r0, c0, s = ref.row0, ref.col0, ref.size
    if r0 < 0 or c0 < 0 or r0 + s > px.shape[0] or c0 + s > px.shape[1]:
        raise ValidationError(f"patch {ref} falls outside a {px.shape} image")
    b = min(_BORDER, s // 2) or 1
    px[r0:r0 + b, c0:c0 + s] = 1.0
    px[r0 + s - b:r0 + s, c0:c0 + s] = 1.0
    px[r0:r0 + s, c0:c0 + b] = 1.0
    px[r0:r0 + s, c0 + s - b:c0 + s] = 1.0
    return Image(px)
