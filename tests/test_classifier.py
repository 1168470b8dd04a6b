import ctypes
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from regiondeblur import classifier
from regiondeblur.classifier import (
    Conv2d,
    Dense,
    GlobalAveragePool,
    Network,
    ReLU,
    ResidualBlock,
    TrainConfig,
    TrainingSample,
    bce_loss,
    bce_with_logits,
    build_small_resnet,
    load_model,
    save_model,
    train,
    write_training_log,
    _Layer,
    _LAYER_TYPES,
    _LOGIT_CAP,
    _STANDARDIZE_EPS,
    _im2col,
    _layer_args,
    _sigmoid,
)
from regiondeblur.demodata import eval_scene
from regiondeblur.errors import DimensionError, ModelFormatError, ValidationError
from regiondeblur.imagecore import Image
from regiondeblur.synthesis import map_jobs


def toy_net(seed=0, side=8, standardize=False):
    rng = np.random.default_rng(seed)
    layers = [
        Conv2d(1, 4, 3, 2, rng),
        ReLU(),
        ResidualBlock(4, 6, 2, rng),
        GlobalAveragePool(),
        Dense(6, 1, rng),
    ]
    return Network(layers, input_side=side, standardize=standardize)


def bright_dark_samples(count, side=12, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(count):
        lab = i % 2
        base = 0.8 if lab else 0.2
        px = np.clip(base + rng.normal(0, 0.05, (side, side)), 0, 1)
        samples.append(TrainingSample(patch=Image(px), label=lab))
    return samples


# ---------------------------------------------------------------------------
# architecture


def test_default_architecture_shape():
    net = build_small_resnet(seed=0, input_side=64)
    kinds = [d["type"] for d in net.descriptors()]
    assert kinds == ["conv", "relu", "residual", "residual", "residual",
                     "global_average_pool", "dense"]
    stem = net.descriptors()[0]
    assert stem["kernel_size"] == 7 and stem["stride"] == 2 and stem["out_channels"] == 16
    stages = [d for d in net.descriptors() if d["type"] == "residual"]
    assert [(d["in_channels"], d["out_channels"], d["stride"]) for d in stages] == [
        (16, 16, 2), (16, 32, 2), (32, 64, 2)]


class MaxPool(_Layer):
    """A windowed pooling layer that is not in the layer table."""

    kind = "max_pool"

    def out_shape(self, shape):
        return (shape[0], shape[1] // 2, shape[2] // 2)


def test_no_windowed_pooling_anywhere():
    rng = np.random.default_rng(0)
    layers = [Conv2d(1, 4, 3, 1, rng), MaxPool(), GlobalAveragePool(), Dense(4, 1, rng)]
    with pytest.raises(ValidationError, match="MaxPool"):
        Network(layers, input_side=16)
    net = build_small_resnet(seed=0, input_side=64)
    assert all(type(layer) in _LAYER_TYPES.values() for layer in net.layers)


_EXAMPLE_ARGS = {"conv": (3, 5, 3, 2), "relu": (), "residual": (4, 8, 2),
                 "global_average_pool": (), "dense": (6, 2)}


@pytest.mark.parametrize("kind", sorted(_LAYER_TYPES))
def test_layer_descriptor_round_trip(kind):
    layer = _LAYER_TYPES[kind](*_EXAMPLE_ARGS[kind])
    cls, args = _layer_args(layer.descriptor())
    rebuilt = cls(*args)
    assert type(rebuilt) is type(layer)
    assert rebuilt.descriptor() == layer.descriptor()
    assert [p.shape for p in rebuilt.parameters()] == [p.shape for p in layer.parameters()]


@pytest.mark.parametrize("cls, args", [
    (Conv2d, (1, 16, 7, 2)), (ResidualBlock, (4, 4, 1)), (ResidualBlock, (4, 4, 2)),
    (ResidualBlock, (4, 8, 1)), (Dense, (64, 1)), (ReLU, ()), (GlobalAveragePool, ()),
])
def test_parameter_count_matches_built_layer(cls, args):
    assert cls.parameter_count(*args) == sum(p.size for p in cls(*args).parameters())


def test_network_rejects_channel_mismatch():
    rng = np.random.default_rng(0)
    layers = [Conv2d(1, 4, 3, 2, rng), Conv2d(8, 4, 3, 1, rng),
              GlobalAveragePool(), Dense(4, 1, rng)]
    with pytest.raises(ValidationError):
        Network(layers, input_side=16)


def test_network_rejects_dense_without_pooling():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        Network([Conv2d(1, 4, 3, 2, rng), Dense(4, 1, rng)], input_side=16)


def test_network_rejects_multi_logit_head():
    rng = np.random.default_rng(0)
    layers = [Conv2d(1, 4, 3, 2, rng), GlobalAveragePool(), Dense(4, 3, rng)]
    with pytest.raises(ValidationError):
        Network(layers, input_side=16)


def test_zero_weight_network_outputs_half():
    layers = [Conv2d(1, 4, 3, 2), GlobalAveragePool(), Dense(4, 1)]
    net = Network(layers, input_side=8, standardize=False)
    probs = net.forward_batch(np.random.default_rng(1).uniform(0, 1, (3, 8, 8)))
    assert np.array_equal(probs, np.full(3, 0.5))


def test_forward_rejects_wrong_patch_side():
    net = toy_net()
    with pytest.raises(DimensionError):
        net.forward_batch(np.zeros((1, 9, 9)))


def test_probabilities_stay_strictly_inside_unit_interval():
    net = toy_net(seed=3)
    for p in net.parameters():
        p *= 100.0
    probs = net.forward_batch(np.random.default_rng(2).uniform(0, 1, (4, 8, 8)))
    assert np.all(probs > 0.0)
    assert np.all(probs < 1.0)


def test_standardization_makes_affine_shifts_invisible():
    net = toy_net(seed=4, standardize=True)
    x = np.random.default_rng(5).uniform(0.2, 0.8, (2, 8, 8))
    base = net.forward_batch(x)
    shifted = net.forward_batch(0.5 * x + 0.2)
    assert np.allclose(base, shifted, atol=1e-6)


@pytest.mark.parametrize("side, count", [(64, 37), (100, 13), (228, 3)])
def test_tiled_inference_matches_the_whole_batch_pass(side, count):
    # Tiles hold 16, 6 and 1 patches: 37 and 13 patches end in a partial tile.
    net = build_small_resnet(seed=2, input_side=side)
    x = np.random.default_rng(side).uniform(0, 1, (count, side, side))
    assert np.array_equal(net.logits(x), net.logits(x, tape=[]))
    assert net.logits(x[:0]).shape == (0,)


def _float64_probabilities(net, batch):
    """forward_batch's probabilities with the whole pass in float64."""
    return _sigmoid(np.clip(net.logits(batch), -_LOGIT_CAP, _LOGIT_CAP))


def _scene_patches(count, side, seed):
    rng = np.random.default_rng(seed)
    scene = eval_scene(2 * side, seed=seed).pixels
    corners = rng.integers(0, side + 1, (count, 2))
    return np.stack([scene[r:r + side, c:c + side] for r, c in corners])


def test_scoring_pass_stays_within_1e6_of_float64_and_ranks_alike():
    # 37 patches of 64 px run as two 16-patch tiles and a partial one of 5.
    net = build_small_resnet(seed=5, input_side=64)
    x = _scene_patches(37, 64, seed=9)
    probs = net.forward_batch(x)
    want = _float64_probabilities(net, x)
    assert probs.dtype == np.float64 and np.ptp(want) > 1e-3
    assert np.max(np.abs(probs - want)) < 1e-6
    assert np.array_equal(np.argsort(-probs, kind="stable"), np.argsort(-want, kind="stable"))


def test_scoring_pass_sees_weights_edited_in_place():
    """Each scoring pass casts the current weights, so nothing goes stale
    after training or any other in-place edit."""
    net = build_small_resnet(seed=6, input_side=64)
    x = _scene_patches(8, 64, seed=10)
    before = net.forward_batch(x)
    rng = np.random.default_rng(11)
    for p in net.parameters():
        p += rng.normal(0.0, 0.05, p.shape)
    after = net.forward_batch(x)
    assert np.max(np.abs(after - before)) > 1e-3
    assert np.max(np.abs(after - _float64_probabilities(net, x))) < 1e-6


@pytest.mark.parametrize("side", [64, 228])
def test_mixed_patch_sides_raise_dimension_error_at_any_tile_size(side):
    # 64 px patches share a 16-patch tile; a 228 px patch is a tile alone.
    net = build_small_resnet(seed=0, input_side=side)
    good = np.zeros((side, side))
    with pytest.raises(DimensionError, match=f"does not match network input side {side}"):
        net.forward_batch([good, np.zeros((side - 1, side - 1))])
    with pytest.raises(DimensionError, match=r"expected \(N, side, side\) patches"):
        net.logits([good, good[None]])


def test_inference_memory_is_bounded_per_tile():
    # A whole-batch pass of 64 x 228 px patches needs 53 MB to standardize
    # them and 326 MB for the stem's im2col columns; one tile holds one patch.
    net = build_small_resnet(seed=0, input_side=228)
    x = np.random.default_rng(0).uniform(0, 1, (64, 228, 228))
    net.forward_batch(x[:1])
    tracemalloc.start()
    try:
        net.forward_batch(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts minor page faults under glibc malloc")
def test_training_step_reuses_freed_memory():
    """A steady-state training step, the float32 one `train` takes, faults
    no fresh pages in: the memory the previous step's tape freed stays in the
    process. Without that, a batch-32, 64 px float64 step took about 6,500
    minor faults. Steady steps take a dozen or so, but one now and then takes
    several hundred, so the bar is on the median of five steps after two
    warm-up steps."""
    import resource

    net = build_small_resnet(seed=0, input_side=64)
    x = np.random.default_rng(1).uniform(0, 1, (32, 64, 64))
    y = np.arange(32) % 2

    def step():
        tape = []
        _, dz = bce_with_logits(net._logits(x, tape, np.float32), y)
        net.backward(tape, dz)

    step()
    step()
    faults = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert statistics.median(faults) < 500, faults


# ---------------------------------------------------------------------------
# tiles on threads


def _force_tile_workers(monkeypatch, workers):
    monkeypatch.setattr(classifier, "_tile_workers", lambda tiles: min(tiles, workers))


def _in_parameter_order(net, grads):
    """The `(d_weight, d_bias)` pairs of a layer-level gradient dict, listed
    like `net.parameters()`."""
    return [g for layer in net.layers for wb in layer.weighted() for g in grads[wb]]


def _whole_batch_step(net, x, y):
    """Logits, loss and parameter gradients of one step as a whole-batch
    taped pass computes them: every layer runs once on the whole batch and
    accumulates straight into one gradient dict."""
    z = x.reshape(len(x), 1, net.input_side, net.input_side)
    z = (z - z.mean(axis=(2, 3), keepdims=True)) / (z.std(axis=(2, 3), keepdims=True) + _STANDARDIZE_EPS)
    tape = []
    for layer in net.layers:
        z = layer.forward(z, tape)
    z = z.reshape(-1)
    loss, dz = bce_with_logits(z, y)
    grads = {}
    d = dz.reshape(-1, 1)
    for index in range(len(tape) - 1, -1, -1):
        layer, saved = tape[index]
        d = layer.backward(d, saved, grads, input_grad=index > 0)
    return z, loss, _in_parameter_order(net, grads)


@pytest.mark.parametrize("workers", [1, 2])
def test_tiled_training_step_matches_the_whole_batch_step(monkeypatch, workers):
    # 37 patches of 64 px: two full 16-patch tiles and a partial one of 5.
    _force_tile_workers(monkeypatch, workers)
    net = build_small_resnet(seed=3, input_side=64)
    x = _scene_patches(37, 64, seed=12)
    y = (np.arange(37) % 3 == 0).astype(np.float64)
    want_z, want_loss, want_grads = _whole_batch_step(net, x, y)
    tape = []
    z = net.logits(x, tape)
    loss, dz = bce_with_logits(z, y)
    grads = net.backward(tape, dz)
    assert np.array_equal(z, want_z) and loss == want_loss
    for got, want in zip(grads, want_grads, strict=True):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _tape_columns(tile_tape):
    """The im2col columns that every convolution on one tile's tape saved."""
    cols = []
    for layer, saved in tile_tape:
        if isinstance(layer, Conv2d):
            cols.append(saved[1])
        elif isinstance(layer, ResidualBlock):
            cols.extend(_tape_columns(saved[0]))
    return cols


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_training_step_stays_near_the_float64_step(seed):
    """The step `train` takes runs its trunk in float32 on 37 patches of 64 px
    (three tiles): logits within 1e-5 of the float64 step's, and float64
    gradients each within 1e-4 of its float64 array's largest entry. Only
    `Network.logits` tapes float64 columns."""
    net = build_small_resnet(seed=seed, input_side=64)
    x = _scene_patches(37, 64, seed=20 + seed)
    y = (np.arange(37) % 3 == 0).astype(np.float64)
    tape64, tape32 = [], []
    z64 = net.logits(x, tape64)
    z32 = net._logits(x, tape32, np.float32)
    assert z32.dtype == np.float64 and np.max(np.abs(z32 - z64)) < 1e-5
    for tape, dtype in ((tape64, np.float64), (tape32, np.float32)):
        assert len(tape[0][1]) == 3
        cols = [c for tile_tape in tape[0][1] for c in _tape_columns(tile_tape)]
        assert len(cols) == 3 * 10 and all(c.dtype == dtype for c in cols)
        block, saved = tape[0][1][0][2]  # res1 of the first tile
        assert block.backward(np.ones(saved[2].shape), saved, {}).dtype == dtype
    want = net.backward(tape64, bce_with_logits(z64, y)[1])
    got = net.backward(tape32, bce_with_logits(z32, y)[1])
    for g, w in zip(got, want, strict=True):
        assert g.dtype == np.float64 and g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-4 * np.max(np.abs(w))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_headless_network_trains_its_trunk_alone(monkeypatch, tmp_path, workers):
    """A network whose trunk ends at its last layer tapes no head: its
    3 tiles' gradients still match the whole-batch step on any thread count."""
    _force_tile_workers(monkeypatch, workers)
    rng = np.random.default_rng(5)
    layers = [Conv2d(1, 4, 3, 2, rng), ReLU(), Conv2d(4, 1, 3, 1, rng), GlobalAveragePool()]
    save_model(Network(layers, input_side=64), tmp_path / "model.bin")
    net = load_model(tmp_path / "model.bin")
    x = _scene_patches(37, 64, seed=13)
    y = (np.arange(37) % 2 == 0).astype(np.float64)
    want_z, want_loss, want_grads = _whole_batch_step(net, x, y)
    tape = []
    z = net.logits(x, tape)
    loss, dz = bce_with_logits(z, y)
    assert len(tape) == 1 and len(tape[0][1]) == 3
    assert np.array_equal(z, want_z) and loss == want_loss
    for got, want in zip(net.backward(tape, dz), want_grads, strict=True):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_training_gives_the_same_bytes_on_any_thread_count(monkeypatch, tmp_path):
    """One, two and three threads (batch 48 makes three tiles), switching
    every 10 us: a gradient update lost or folded out of order would change
    the bytes."""
    patches = _scene_patches(96, 64, seed=13)
    samples = [TrainingSample(patch=Image(p), label=int(i % 3 == 0)) for i, p in enumerate(patches)]
    held_out = _scene_patches(20, 64, seed=14)
    cfg = TrainConfig(learning_rate=0.01, batch_size=48, epochs=2, seed=15, input_side=64)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            _force_tile_workers(monkeypatch, workers)
            net = build_small_resnet(seed=16, input_side=64)
            train(net, samples, cfg)
            save_model(net, tmp_path / f"{workers}.bin")
            runs.append((net.parameters(), (tmp_path / f"{workers}.bin").read_bytes(),
                         net.forward_batch(held_out)))
    finally:
        sys.setswitchinterval(interval)
    params_1, model_1, probs_1 = runs[0]
    for params, model, probs in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(params_1, params))
        assert model == model_1
        assert np.array_equal(probs, probs_1)


_BLAS_PROBE = """
import hashlib
import numpy as np
from regiondeblur.classifier import TrainConfig, TrainingSample, build_small_resnet, train
from regiondeblur.imagecore import Image
patches = np.random.default_rng(21).uniform(0, 1, (96, 64, 64))
samples = [TrainingSample(patch=Image(p), label=i % 2) for i, p in enumerate(patches)]
net = build_small_resnet(seed=22, input_side=64)
train(net, samples, TrainConfig(learning_rate=0.01, batch_size=48, epochs=2, seed=23))
held_out = net.forward_batch(np.random.default_rng(24).uniform(0, 1, (40, 64, 64)))
print(hashlib.sha256(b"".join(p.tobytes() for p in net.parameters())).hexdigest())
print(hashlib.sha256(held_out.tobytes()).hexdigest())
"""
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_training_gives_the_same_bytes_at_any_blas_thread_count():
    """OpenBLAS reads its thread count when it loads, so each count trains
    in a process of its own: the float32 GEMMs of 2 epochs on 96 random
    64 px patches (three tiles a step) give the same parameter bytes and
    held-out probabilities on one BLAS thread, on two, and with no thread
    variable set at all (the library's default, which each pass holds to
    one thread)."""
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    base["PYTHONPATH"] = str(Path(classifier.__file__).parents[1])
    digests = []
    for env in ({**base, "OPENBLAS_NUM_THREADS": "1"}, {**base, "OPENBLAS_NUM_THREADS": "2"}, base):
        result = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.split())
    assert [len(d) for d in digests[0]] == [64, 64]
    assert digests[0] == digests[1] == digests[2]


def _blas_counts():
    """Each OpenBLAS the classifier holds to one thread, read in the calling
    thread through the handle it sets the count with."""
    libraries = classifier._openblas_libraries()
    if not libraries:
        pytest.skip("no OpenBLAS with a thread-count setter is loaded")
    counts = []
    for library in libraries:
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            if hasattr(library, name):
                get_threads = getattr(library, name)
                get_threads.argtypes, get_threads.restype = (), ctypes.c_int
                counts.append(get_threads())
                break
        else:
            pytest.skip("the loaded OpenBLAS exports no thread-count getter")
    return counts


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at two threads, so a pass that leaked its one
    thread would show; the old counts come back afterwards."""
    _blas_counts()
    setters = [library.openblas_set_num_threads_local for library in classifier._openblas_libraries()]
    previous = [set_threads(2) for set_threads in setters]
    yield [2] * len(setters)
    for set_threads, count in zip(setters, previous):
        set_threads(count)


def test_a_pass_holds_blas_to_one_thread_and_restores_the_count(monkeypatch, two_blas_threads):
    _force_tile_workers(monkeypatch, 2)
    net = build_small_resnet(seed=6, input_side=64)
    x = _scene_patches(37, 64, seed=17)
    seen = []
    stem_forward, head_forward = net.layers[0].forward, net.layers[-1].forward

    def counting(forward):
        def wrapped(*args):
            seen.append((threading.get_ident(), _blas_counts()))
            return forward(*args)
        return wrapped

    net.layers[0].forward, net.layers[-1].forward = counting(stem_forward), counting(head_forward)
    tape = []
    z = net.logits(x, tape)
    assert _blas_counts() == two_blas_threads
    net.backward(tape, bce_with_logits(z, np.arange(37) % 2)[1])
    assert _blas_counts() == two_blas_threads
    net.forward_batch(x)
    assert _blas_counts() == two_blas_threads
    # Three tiles on the pool and the head in the caller, for each forward pass.
    assert len(seen) == 8 and len({ident for ident, _ in seen}) > 1
    assert all(counts == [1] * len(two_blas_threads) for _, counts in seen)


def test_a_pass_that_raises_restores_the_blas_count(monkeypatch, two_blas_threads):
    _force_tile_workers(monkeypatch, 2)
    net = build_small_resnet(seed=7, input_side=64)

    def fail(*args):
        raise RuntimeError("tile failed")

    net.layers[0].forward = fail
    with pytest.raises(RuntimeError, match="tile failed"):
        net.forward_batch(_scene_patches(37, 64, seed=18))
    assert _blas_counts() == two_blas_threads


@pytest.mark.parametrize("workers", [1, 2])
def test_passes_run_where_no_openblas_is_found(monkeypatch, workers):
    """With no library to set, a pass runs at whatever BLAS count the process
    has, and returns the same bits."""
    _force_tile_workers(monkeypatch, workers)
    net = build_small_resnet(seed=8, input_side=64)
    x = _scene_patches(37, 64, seed=19)
    y = np.arange(37) % 2

    def step():
        tape = []
        z = net._logits(x, tape, np.float32)
        return [z, *net.backward(tape, bce_with_logits(z, y)[1]), net.forward_batch(x)]

    want = step()
    monkeypatch.setattr(classifier, "_openblas_libraries", lambda: ())
    for got, expected in zip(step(), want, strict=True):
        assert np.array_equal(got, expected)


def test_no_tile_thread_outlives_its_pass(monkeypatch):
    _force_tile_workers(monkeypatch, 2)
    net = build_small_resnet(seed=4, input_side=64)
    x = _scene_patches(37, 64, seed=15)
    ran_on = set()
    stem_forward = net.layers[0].forward

    def forward(*args):
        ran_on.add(threading.get_ident())
        return stem_forward(*args)

    net.layers[0].forward = forward
    before = threading.active_count()
    tape = []
    z = net.logits(x, tape)
    assert threading.active_count() == before
    net.backward(tape, bce_with_logits(z, np.arange(37) % 2)[1])
    assert threading.active_count() == before
    net.forward_batch(x)
    assert threading.active_count() == before
    assert ran_on and threading.get_ident() not in ran_on


def test_worker_processes_start_after_a_threaded_training_pass(monkeypatch):
    _force_tile_workers(monkeypatch, 2)
    patches = _scene_patches(32, 64, seed=16)
    samples = [TrainingSample(patch=Image(p), label=i % 2) for i, p in enumerate(patches)]
    train(build_small_resnet(seed=5, input_side=64), samples,
          TrainConfig(batch_size=32, epochs=1, input_side=64))
    assert map_jobs(abs, [-1, -2, 3], jobs=2) == [1, 2, 3]


# ---------------------------------------------------------------------------
# loss


def test_bce_loss_is_zero_on_exact_match():
    assert bce_loss([1.0, 0.0, 1.0], [1, 0, 1]) == 0.0


def test_bce_loss_half_prediction_is_log_two():
    assert abs(bce_loss([0.5], [1]) - math.log(2.0)) < 1e-12
    assert abs(bce_loss([0.5], [0]) - math.log(2.0)) < 1e-12


def test_bce_loss_two_sample_reference_value():
    # mean of -ln(0.9) and -ln(0.8)
    assert abs(bce_loss([0.9, 0.2], [1, 0]) - 0.164252033) < 1e-6


def test_bce_loss_wrong_side_saturation_is_finite():
    value = bce_loss([0.0, 1.0], [1, 0])
    assert math.isfinite(value)
    assert value > 100.0


def test_bce_loss_validates_inputs():
    with pytest.raises(ValidationError):
        bce_loss([1.2], [1])
    with pytest.raises(ValidationError):
        bce_loss([0.5], [0.5])
    with pytest.raises(DimensionError):
        bce_loss([0.5, 0.5], [1])


def test_bce_with_logits_matches_probability_form():
    z = np.array([0.3, -1.2, 2.0])
    y = np.array([1.0, 0.0, 1.0])
    probs = 1.0 / (1.0 + np.exp(-z))
    loss, _grad = bce_with_logits(z, y)
    assert abs(loss - bce_loss(probs, y)) < 1e-12


def test_bce_with_logits_gradient_sign():
    loss, grad = bce_with_logits(np.array([5.0]), np.array([0.0]))
    assert grad[0] > 0.0
    loss, grad = bce_with_logits(np.array([-5.0]), np.array([1.0]))
    assert grad[0] < 0.0


# ---------------------------------------------------------------------------
# gradients


def _padded_im2col(padded, k, stride, oh, ow):
    n, c = padded.shape[:2]
    cols = np.empty((n, c, k, k, oh, ow))
    for u in range(k):
        for v in range(k):
            cols[:, :, u, v] = padded[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride]
    return cols.reshape(n, c * k * k, oh * ow)


def _padded_col2im(dcols, padded_shape, k, stride, oh, ow):
    n, c = padded_shape[:2]
    dcols = dcols.reshape(n, c, k, k, oh, ow)
    dpadded = np.zeros(padded_shape)
    for u in range(k):
        for v in range(k):
            dpadded[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride] += dcols[:, :, u, v]
    return dpadded


def _padded_conv(conv, x, dout):
    """Reference conv pass on an explicitly zero-padded copy of the input:
    output, weight gradient, bias gradient and input gradient."""
    n = x.shape[0]
    k, s, p = conv.kernel_size, conv.stride, conv.pad
    oh, ow = dout.shape[2:]
    padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = _padded_im2col(padded, k, s, oh, ow)
    w2 = conv.weight.reshape(conv.out_channels, -1)
    out = (np.matmul(w2, cols) + conv.bias[:, None]).reshape(dout.shape)
    dout2 = dout.reshape(n, conv.out_channels, oh * ow)
    grad_weight = np.zeros_like(conv.weight)
    grad_weight += np.matmul(dout2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(conv.weight.shape)
    grad_bias = np.zeros_like(conv.bias)
    grad_bias += dout2.sum(axis=(0, 2))
    dpadded = _padded_col2im(np.matmul(w2.T, dout2), padded.shape, k, s, oh, ow)
    return out, grad_weight, grad_bias, dpadded[:, :, p:p + x.shape[2], p:p + x.shape[3]]


@given(n=st.integers(0, 3), c=st.integers(1, 4), out_channels=st.integers(1, 3),
       k=st.sampled_from([1, 3, 5, 7]), stride=st.sampled_from([1, 2]),
       h=st.integers(1, 12), w=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_conv_matches_the_padded_reference_bit_for_bit(n, c, out_channels, k, stride, h, w, seed):
    """Columns read straight from the unpadded input give the same bits as
    im2col on an np.pad copy, forward and backward, for sides smaller than
    the kernel too."""
    rng = np.random.default_rng(seed)
    conv = Conv2d(c, out_channels, k, stride, rng)
    conv.bias[...] = rng.normal(size=out_channels)
    x = rng.normal(size=(n, c, h, w))
    tape = []
    out = conv.forward(x, tape)
    dout = rng.normal(size=out.shape)
    grads = {}
    dx = conv.backward(dout, tape[0][1], grads)
    expected = _padded_conv(conv, x, dout)
    for got, want in zip((out, *grads[conv], dx), expected):
        assert got.shape == want.shape and np.array_equal(got, want)


@given(n=st.integers(0, 3), c=st.integers(1, 4), out_channels=st.integers(1, 3),
       k=st.sampled_from([1, 3, 5, 7]), stride=st.sampled_from([1, 2]),
       h=st.integers(1, 12), w=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_float32_conv_stays_near_the_padded_reference(n, c, out_channels, k, stride, h, w, seed):
    """A float32 input keeps float32 through im2col (exact copies of its
    values) and the convolution, whose output stays within float32
    rounding of the float64 reference."""
    rng = np.random.default_rng(seed)
    conv = Conv2d(c, out_channels, k, stride, rng)
    conv.bias[...] = rng.normal(size=out_channels)
    x = rng.normal(size=(n, c, h, w)).astype(np.float32)
    oh, ow = conv.out_hw(h, w)
    cols = _im2col(x, k, stride, conv.pad, oh, ow)
    padded = np.pad(x, ((0, 0), (0, 0), (conv.pad, conv.pad), (conv.pad, conv.pad)))
    assert cols.dtype == np.float32
    assert np.array_equal(cols, _padded_im2col(padded, k, stride, oh, ow))
    out = conv.forward(x)
    want = _padded_conv(conv, x.astype(np.float64), np.zeros((n, out_channels, oh, ow)))[0]
    assert out.dtype == np.float32 and out.shape == want.shape
    np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("first", ["conv", "residual"])
def test_backward_skips_only_the_discarded_input_gradient(first):
    rng = np.random.default_rng(12)
    head = [GlobalAveragePool(), Dense(8, 1, rng)]
    layers = ([Conv2d(1, 8, 3, 2, rng), ReLU()] if first == "conv"
              else [ResidualBlock(1, 8, 2, rng)]) + head
    net = Network(layers, input_side=12)
    x = rng.uniform(0, 1, (4, 12, 12))
    tape = []
    _, dz = bce_with_logits(net.logits(x, tape), np.array([1.0, 0.0, 1.0, 0.0]))
    skipped = net.backward(tape, dz)
    grads = {}
    d = dz.reshape(-1, 1)
    for layer, saved in reversed(tape[1:]):
        d = layer.backward(d, saved, grads)
    tile, tile_tapes = tape[0]
    dx = []
    for d, tile_tape in zip(np.split(d, range(tile, len(d), tile)), tile_tapes, strict=True):
        for layer, saved in reversed(tile_tape):
            d = layer.backward(d, saved, grads)
        dx.append(d)
    assert np.concatenate(dx).shape == (4, 1, 12, 12)
    assert all(np.array_equal(a, b) for a, b in zip(skipped, _in_parameter_order(net, grads), strict=True))


def test_backward_matches_finite_differences():
    net = toy_net(seed=7)
    # biases moved off zero so no ReLU pre-activation sits exactly on its kink
    brng = np.random.default_rng(8)
    for p in net.parameters():
        if p.ndim == 1:
            p[...] = brng.normal(0.0, 0.05, p.shape)
    x = np.random.default_rng(9).uniform(0, 1, (3, 8, 8))
    y = np.array([1.0, 0.0, 1.0])

    tape = []
    z = net.logits(x, tape)
    _, dz = bce_with_logits(z, y)

    h = 1e-5
    worst = 0.0
    for p, g in zip(net.parameters(), net.backward(tape, dz), strict=True):
        flat, gflat = p.reshape(-1), g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = bce_with_logits(net.logits(x), y)[0]
            flat[idx] = orig - h
            down = bce_with_logits(net.logits(x), y)[0]
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-8))
    assert worst < 1e-4


def test_backward_returns_fresh_gradients_and_layers_keep_none():
    """Two backward passes over one tape (three tiles) return equal lists in
    `parameters()` order whose arrays are new: none shares memory with
    another or with a parameter, and no layer keeps a gradient attribute."""
    net = build_small_resnet(seed=6, input_side=64)
    x = _scene_patches(37, 64, seed=17)
    tape = []
    _, dz = bce_with_logits(net.logits(x, tape), np.arange(37) % 2)
    first, second = net.backward(tape, dz), net.backward(tape, dz)
    params = net.parameters()
    assert [g.shape for g in first] == [p.shape for p in params]
    assert all(np.array_equal(a, b) for a, b in zip(first, second, strict=True))
    arrays = first + second + params
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    for layer in [*net.layers, *(wb for layer in net.layers for wb in layer.weighted())]:
        assert not [name for name in vars(layer) if "grad" in name]


def test_duplicated_batch_keeps_mean_gradient():
    net = toy_net(seed=10)
    x = np.random.default_rng(11).uniform(0, 1, (1, 8, 8))
    y = np.array([1.0])

    tape = []
    _, dz = bce_with_logits(net.logits(x, tape), y)
    single = net.backward(tape, dz)

    x2 = np.concatenate([x, x])
    y2 = np.array([1.0, 1.0])
    tape = []
    _, dz2 = bce_with_logits(net.logits(x2, tape), y2)
    for a, b in zip(single, net.backward(tape, dz2), strict=True):
        assert np.allclose(a, b, atol=1e-12)


def test_saturated_correct_predictions_are_stationary():
    net = toy_net(seed=12)
    net.layers[-1].bias[...] = 50.0
    x = np.random.default_rng(13).uniform(0, 1, (4, 8, 8))
    y = np.ones(4)
    tape = []
    _, dz = bce_with_logits(net.logits(x, tape), y)
    assert max(float(np.max(np.abs(g))) for g in net.backward(tape, dz)) < 1e-6


# ---------------------------------------------------------------------------
# training


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=-0.1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=bad)
    with pytest.raises(ValidationError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=0)


def test_training_sample_label_validation():
    with pytest.raises(ValidationError):
        TrainingSample(patch=Image(np.zeros((4, 4))), label=2)


def test_train_rejects_fewer_samples_than_one_batch():
    net = toy_net(side=12)
    samples = bright_dark_samples(4)
    with pytest.raises(ValidationError):
        train(net, samples, TrainConfig(batch_size=8, epochs=1, input_side=12))


def test_train_rejects_mismatched_patch_size():
    net = toy_net(side=12)
    samples = bright_dark_samples(8, side=10)
    with pytest.raises(DimensionError):
        train(net, samples, TrainConfig(batch_size=4, epochs=1, input_side=12))


def test_train_separates_bright_from_dark():
    net = toy_net(seed=14, side=12, standardize=False)
    samples = bright_dark_samples(48, seed=15)
    cfg = TrainConfig(learning_rate=0.05, momentum=0.9, batch_size=16, epochs=25,
                      seed=16, input_side=12)
    result = train(net, samples, cfg)
    assert result.epochs[-1].mean_loss < result.epochs[0].mean_loss
    probs = net.forward_batch(np.stack([s.patch.pixels for s in samples]))
    preds = (probs >= 0.5).astype(int)
    labels = np.array([s.label for s in samples])
    assert float((preds == labels).mean()) == 1.0


def test_zero_learning_rate_keeps_loss_constant():
    net = toy_net(seed=17, side=12)
    samples = bright_dark_samples(32, seed=18)
    cfg = TrainConfig(learning_rate=0.0, momentum=0.9, batch_size=8, epochs=5,
                      seed=19, input_side=12)
    result = train(net, samples, cfg)
    losses = [e.mean_loss for e in result.epochs]
    assert max(losses) - min(losses) < 1e-12


def test_training_is_seeded():
    samples = bright_dark_samples(32, seed=20)
    cfg = TrainConfig(learning_rate=0.01, batch_size=8, epochs=3, seed=21, input_side=12)
    net_a = toy_net(seed=22, side=12)
    net_b = toy_net(seed=22, side=12)
    train(net_a, samples, cfg)
    train(net_b, samples, cfg)
    for pa, pb in zip(net_a.parameters(), net_b.parameters()):
        assert np.array_equal(pa, pb)


def test_training_log_csv(tmp_path):
    net = toy_net(seed=23, side=12)
    samples = bright_dark_samples(16, seed=24)
    cfg = TrainConfig(learning_rate=0.01, batch_size=8, epochs=2, seed=25, input_side=12)
    result = train(net, samples, cfg)
    path = tmp_path / "log.csv"
    write_training_log(result.epochs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_loss,train_accuracy"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip_is_bit_exact(tmp_path):
    net = build_small_resnet(seed=26, input_side=16)
    x = np.random.default_rng(27).uniform(0, 1, (3, 16, 16))
    before = net.forward_batch(x)
    path = tmp_path / "model.bin"
    save_model(net, path)
    loaded = load_model(path)
    assert loaded.input_side == 16
    assert loaded.standardize == net.standardize
    for pa, pb in zip(net.parameters(), loaded.parameters()):
        assert np.array_equal(pa, pb)
    assert np.array_equal(before, loaded.forward_batch(x))


def test_save_is_canonical(tmp_path):
    net = build_small_resnet(seed=28, input_side=16)
    save_model(net, tmp_path / "a.bin")
    save_model(load_model(tmp_path / "a.bin"), tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    net = build_small_resnet(seed=29, input_side=16)
    save_model(net, path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_unsupported_version(tmp_path):
    path = tmp_path / "model.bin"
    save_model(build_small_resnet(seed=30, input_side=16), path)
    data = bytearray(path.read_bytes())
    data[8] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_corrupted_payload(tmp_path):
    path = tmp_path / "model.bin"
    save_model(build_small_resnet(seed=31, input_side=16), path)
    data = bytearray(path.read_bytes())
    data[-5] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "model.bin"
    save_model(build_small_resnet(seed=32, input_side=16), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_malformed_header(malformed_model):
    with pytest.raises(ModelFormatError):
        load_model(malformed_model)
