import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from regiondeblur.classifier import (
    Conv2d,
    Dense,
    GlobalAveragePool,
    Network,
    build_small_resnet,
    _LOGIT_CAP,
    _sigmoid,
)
from regiondeblur.demodata import eval_scene
from regiondeblur.errors import DimensionError, ValidationError
from regiondeblur.imagecore import Image
from regiondeblur.selector import (
    RankedPatch,
    annotate_selection,
    score_patches,
)
from regiondeblur.synthesis import PatchGridSpec, PatchRef, extract, patch_grid


def zero_net(side=16):
    layers = [Conv2d(1, 2, 3, 2), GlobalAveragePool(), Dense(2, 1)]
    return Network(layers, input_side=side, standardize=False)


def seeded_net(side=16, seed=0):
    rng = np.random.default_rng(seed)
    layers = [Conv2d(1, 2, 3, 2, rng), GlobalAveragePool(), Dense(2, 1, rng)]
    return Network(layers, input_side=side, standardize=False)


def test_score_patches_covers_whole_grid():
    net = seeded_net()
    image = eval_scene(64, seed=0)
    ranked = score_patches(net, image, 16)
    assert len(ranked) == 16
    assert all(r.ref.size == net.input_side for r in ranked)
    scores = [r.score for r in ranked]
    assert scores == sorted(scores, reverse=True)


def test_score_patches_ties_rank_row_major():
    net = zero_net()
    image = Image(np.full((48, 48), 0.5))
    ranked = score_patches(net, image, 16)
    corners = [(r.ref.row0, r.ref.col0) for r in ranked]
    assert corners == [(r, c) for r in (0, 16, 32) for c in (0, 16, 32)]
    assert all(r.score == 0.5 for r in ranked)


def _reference_scores(net, image, grid, batch_size=64, probabilities=None):
    """Copy each chunk of `batch_size` grid patches out and stack them before
    scoring: the chunked loop that views of the image replaced. Scores come
    from `probabilities(batch)`, by default `net.forward_batch`."""
    refs = patch_grid(image, grid)
    scores = np.empty(len(refs))
    for start in range(0, len(refs), batch_size):
        chunk = refs[start:start + batch_size]
        batch = np.stack([extract(image, r).pixels for r in chunk])
        scores[start:start + len(chunk)] = (probabilities or net.forward_batch)(batch)
    order = sorted(range(len(refs)), key=lambda i: (-scores[i], refs[i].row0, refs[i].col0))
    return [RankedPatch(ref=refs[i], score=float(scores[i])) for i in order]


@pytest.mark.parametrize("side, image_side, stride", [(48, 80, 4), (228, 384, 52)])
def test_views_score_as_the_chunked_copies_do(side, image_side, stride):
    # 81 patches of 48 px run in 28-patch tiles that straddle the reference's
    # 64-patch chunks; 228 px patches run one per tile.
    net = build_small_resnet(seed=side, input_side=side)
    image = eval_scene(image_side, seed=7)
    grid = PatchGridSpec(patch_size=side, stride=stride)
    assert score_patches(net, image, stride) == _reference_scores(net, image, grid)


def test_float32_scores_rank_a_228_px_grid_as_float64_does():
    net = build_small_resnet(seed=3, input_side=228)
    image = eval_scene(384, seed=11)
    grid = PatchGridSpec(patch_size=228, stride=52)
    ranked = score_patches(net, image, grid.stride)
    want = _reference_scores(net, image, grid, probabilities=lambda batch: _sigmoid(
        np.clip(net.logits(batch), -_LOGIT_CAP, _LOGIT_CAP)))
    scores = [r.score for r in want]
    assert len(want) == 16 and max(scores) - min(scores) > 1e-3
    assert [r.ref for r in ranked] == [r.ref for r in want]
    assert max(abs(r.score - w.score) for r, w in zip(ranked, want)) < 1e-6


def test_score_patches_memory_is_one_tile_not_one_chunk():
    # 64 patches of 228 px: the chunked copies peaked at 53 MB.
    net = build_small_resnet(seed=0, input_side=228)
    image = eval_scene(384, seed=3)
    grid = PatchGridSpec(patch_size=228, stride=20)
    assert len(patch_grid(image, grid)) == 64
    score_patches(net, image, 228)
    tracemalloc.start()
    try:
        score_patches(net, image, grid.stride)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_forward_batch_takes_a_list_of_views():
    net = build_small_resnet(seed=1, input_side=228)
    windows = sliding_window_view(eval_scene(240, seed=4).pixels, (228, 228))
    views = [windows[0, 0], windows[12, 5], windows[6, 12]]
    assert np.array_equal(net.forward_batch(views), net.forward_batch(np.stack(views)))
    with pytest.raises(DimensionError, match="does not match network input side 228"):
        net.forward_batch(views + [windows[0, 0, :227, :227]])


def test_annotate_selection_burns_border_only():
    image = Image(np.zeros((32, 32)))
    ref = PatchRef(4, 8, 16)
    out = annotate_selection(image, ref)
    assert out.pixels[4, 8] == 1.0
    assert out.pixels[4 + 15, 8 + 15] == 1.0
    assert out.pixels[4 + 8, 8 + 8] == 0.0
    assert out.pixels[0, 0] == 0.0
    assert np.array_equal(image.pixels, np.zeros((32, 32)))


def test_annotate_selection_rejects_out_of_bounds():
    image = Image(np.zeros((16, 16)))
    with pytest.raises(ValidationError):
        annotate_selection(image, PatchRef(8, 8, 16))
