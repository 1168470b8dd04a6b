import numpy as np
import pytest

from regiondeblur.classifier import Conv2d, Dense, GlobalAveragePool, Network
from regiondeblur.demodata import eval_scene
from regiondeblur.errors import ValidationError
from regiondeblur import selector
from regiondeblur.imagecore import Image
from regiondeblur.selector import (
    RankedPatch,
    annotate_selection,
    score_patches,
    select_top,
)
from regiondeblur.synthesis import PatchGridSpec, PatchRef


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
    grid = PatchGridSpec(patch_size=16, stride=16)
    ranked = score_patches(net, image, grid)
    assert len(ranked) == 16
    scores = [r.score for r in ranked]
    assert scores == sorted(scores, reverse=True)


def test_score_patches_ties_rank_row_major():
    net = zero_net()
    image = Image(np.full((48, 48), 0.5))
    ranked = score_patches(net, image, PatchGridSpec(patch_size=16, stride=16))
    corners = [(r.ref.row0, r.ref.col0) for r in ranked]
    assert corners == [(r, c) for r in (0, 16, 32) for c in (0, 16, 32)]
    assert all(r.score == 0.5 for r in ranked)


def test_score_patches_batch_size_changes_nothing_material(monkeypatch):
    # BLAS blocking may shift scores by an ulp, but ranking must hold
    net = seeded_net(seed=3)
    image = eval_scene(64, seed=1)
    grid = PatchGridSpec(patch_size=16, stride=8)
    large = score_patches(net, image, grid)
    monkeypatch.setattr(selector, "_BATCH_SIZE", 1)
    small = score_patches(net, image, grid)
    assert [r.ref for r in small] == [r.ref for r in large]
    assert np.allclose([r.score for r in small], [r.score for r in large], atol=1e-9)


def test_select_top_truncates_and_validates():
    ranked = [RankedPatch(ref=PatchRef(0, 0, 8), score=0.9),
              RankedPatch(ref=PatchRef(0, 8, 8), score=0.4)]
    assert select_top(ranked, 1) == [ranked[0]]
    assert select_top(ranked, 5) == ranked
    with pytest.raises(ValidationError):
        select_top(ranked, 0)
    with pytest.raises(ValidationError):
        select_top([], 1)


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
