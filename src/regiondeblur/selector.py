"""Rank image patches by classifier score and mark the selected one."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classifier import Network
from .errors import ValidationError
from .imagecore import Image
from .synthesis import PatchGridSpec, PatchRef, patch_grid

_BORDER = 3


@dataclass(frozen=True)
class RankedPatch:
    ref: PatchRef
    score: float


def score_patches(net: Network, image: Image, stride: int) -> list[RankedPatch]:
    """Score each ``net.input_side`` grid patch, a view; ties rank earlier (row-major) patches first."""
    side = net.input_side
    refs = patch_grid(image, PatchGridSpec(patch_size=side, stride=stride))
    windows = sliding_window_view(image.pixels, (side, side))
    scores = net.forward_batch([windows[r.row0, r.col0] for r in refs])
    order = sorted(range(len(refs)), key=lambda i: (-scores[i], refs[i].row0, refs[i].col0))
    return [RankedPatch(ref=refs[i], score=float(scores[i])) for i in order]


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
