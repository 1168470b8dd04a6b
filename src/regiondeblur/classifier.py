"""Binary patch classifier built directly on NumPy.

The network is a small residual net: a 7x7 stride-2 stem, three residual
stages at 16/32/64 channels (each downsampling once with stride-2
convolutions, never with pooling), global average pooling, and a dense head
whose scalar logit passes through a sigmoid. Patches are standardized to zero
mean and unit variance per sample before the stem. Training is plain SGD with
classical momentum; gradients come from a hand-written reverse pass.

`_LAYER_TYPES` is the only list of layer types: each `_Layer` subclass
declares its header descriptor and its output shape, and a `Network` accepts
no other layer, so nothing downsamples by windowed pooling.

Every pass, taped or not, standardizes the patches and runs the layers up
to the global pooling (the trunk) on tiles of about 2**16 input pixels, and
the dense head once, in the calling thread, on the stacked pooled features.
The tiles run on a thread pool that lives for one pass, with one thread per
tile and at most one per usable CPU (inline on one CPU); numpy releases the
GIL in its loops and matrix products, so a batch-32 training step of 64 px
patches runs its two tiles on two cores. A taped pass keeps one tape per
tile in the tape's first entry. `Network.backward` runs the head's entries
back in the calling thread, then each tile's tape on the same kind of pool
into a gradient dict of the tile's own, and adds the tiles' dicts in tile
order into the one whose arrays it returns, so layers hold no gradients. Tile
boundaries come from the pixel budget alone, so logits, gradients and the
stored model are the same bytes on any number of CPUs, and an untaped
pass's memory is bounded per tile, not per batch. Scoring
(`Network.forward_batch`) and each training step run the trunk in float32:
each tile is standardized in float64 and then cast, each convolution casts
the current weights to its input's dtype, and the pooled features return to
float64 for the head. A convolution's backward runs in its saved columns'
dtype and adds its gradients into float64 arrays, so training keeps float64
master weights, momentum, loss and head (mixed-precision training,
Micikevicius et al., ICLR 2018). `Network.logits`, its taped pass and the
stored model stay in float64. Convolutions read their im2col columns
straight from the unpadded input. The first pass of any network sets glibc's
malloc to keep freed memory in one arena shared by every thread, so later
passes reuse it instead of faulting it in.

Models serialize to a self-describing container: magic bytes, a format
version, a JSON layer-descriptor header carrying a SHA-256 payload checksum,
and the little-endian float64 parameters.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import hashlib
import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, ModelFormatError, ParseError, ValidationError
from .imagecore import Image
from .synthesis import typed_fields

MODEL_MAGIC = b"PATCHNET"
MODEL_VERSION = 1
_HEADER_TYPES = {"input_side": (int,), "standardize": (bool,), "layers": (list,),
                 "param_count": (int,), "sha256": (str,)}
_LOGIT_CAP = 35.0
# Input pixels per tile of the trunk: one 228 px patch, or sixteen 64 px
# patches.
_TILE_PIXELS = 1 << 16
_STANDARDIZE_EPS = 1e-8
# glibc `mallopt` parameters, from <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


@functools.cache
def _keep_freed_memory() -> None:
    """Let the process keep the heap memory a CNN pass frees, so the next
    pass reuses it instead of faulting fresh pages in: glibc stops trimming
    the heap top below 512 MiB and stops mmapping blocks below 32 MiB (the
    largest fixed threshold it accepts). It also keeps one malloc arena, so
    the tile threads reuse the same freed memory rather than each growing a
    heap of its own, which cost a training run ~8% more peak RSS. Runs
    once, on the first pass and before any tile thread starts, so commands
    that never run the CNN keep the default allocator; does nothing where
    the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 512 << 20)
    mallopt(_M_ARENA_MAX, 1)


def _tile_workers(tiles: int) -> int:
    """Threads for a pass over `tiles` tiles: at most one per tile and one per
    CPU this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(tiles, cpus or 1)


def _map_tiles(fn, tiles: list) -> list:
    """`[fn(t) for t in tiles]` over the tiles of one pass, on a thread pool
    whose threads are joined before this returns, so none outlives the pass
    (and a later fork copies none); inline when there is one worker.
    Results keep tile order."""
    workers = _tile_workers(len(tiles))
    if workers <= 1:
        return [fn(t) for t in tiles]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, tiles))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# layers

def _tap_spans(k: int, stride: int, pad: int, size: int, out: int) -> list[tuple[int, int, slice]]:
    """Per kernel offset along one axis: the output indices [lo, hi) whose
    input index ``stride * i + offset - pad`` lies inside [0, size) rather than
    in the zero padding, and the slice of input indices they read."""
    spans = []
    for offset in range(-pad, k - pad):
        lo = min(out, max(0, -(offset // stride)))
        hi = max(lo, min(out, (size - 1 - offset) // stride + 1))
        start = stride * lo + offset
        reads = slice(start, start + stride * (hi - lo), stride) if hi > lo else slice(0, 0)
        spans.append((lo, hi, reads))
    return spans


def _im2col(x: np.ndarray, k: int, stride: int, pad: int, oh: int, ow: int) -> np.ndarray:
    """Columns of the zero-padded input, in its dtype, read straight from the
    unpadded one: each tap copies its in-bounds rectangle and zeros only the
    rows and columns that would read padding."""
    n, c, h, w = x.shape
    row_spans = _tap_spans(k, stride, pad, h, oh)
    col_spans = _tap_spans(k, stride, pad, w, ow)
    cols = np.empty((n, c, k, k, oh, ow), dtype=x.dtype)
    for u, (lo, hi, _) in enumerate(row_spans):
        cols[:, :, u, :, :lo] = 0.0
        cols[:, :, u, :, hi:] = 0.0
    for v, (lo, hi, _) in enumerate(col_spans):
        cols[:, :, :, v, :, :lo] = 0.0
        cols[:, :, :, v, :, hi:] = 0.0
    for u, (r0, r1, rows) in enumerate(row_spans):
        for v, (c0, c1, cs) in enumerate(col_spans):
            cols[:, :, u, v, r0:r1, c0:c1] = x[:, :, rows, cs]
    return cols.reshape(n, c * k * k, oh * ow)


def _col2im(dcols: np.ndarray, shape, k: int, stride: int, pad: int, oh: int, ow: int) -> np.ndarray:
    """Input gradient of `_im2col`, in `dcols`' dtype: each tap adds its
    in-bounds rectangle back, in the same tap order, and what fell on the
    padding is dropped."""
    n, c, h, w = shape
    dcols = dcols.reshape(n, c, k, k, oh, ow)
    col_spans = _tap_spans(k, stride, pad, w, ow)
    dx = np.zeros(shape, dtype=dcols.dtype)
    for u, (r0, r1, rows) in enumerate(_tap_spans(k, stride, pad, h, oh)):
        for v, (c0, c1, cs) in enumerate(col_spans):
            dx[:, :, rows, cs] += dcols[:, :, u, v, r0:r1, c0:c1]
    return dx


class _Layer:
    """One CNN layer type: ``kind`` names it in the model header and ``fields``
    lists its constructor arguments in constructor order. ``backward(dout,
    saved, grads, input_grad=True)`` always adds its parameter gradients to
    ``grads``, which maps each weighted layer to its ``(d_weight, d_bias)``
    pair, and returns the input gradient, or None when called with
    ``input_grad=False``."""

    kind: str
    fields: tuple[str, ...] = ()

    def descriptor(self) -> dict:
        return {"type": self.kind, **{name: getattr(self, name) for name in self.fields}}

    @classmethod
    def parameter_count(cls, *args: int) -> int:
        """Parameters a layer built from ``args`` holds, found without building it."""
        return 0

    def out_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        return shape

    def weighted(self) -> list[_WeightBias]:
        """The weight/bias pairs this layer holds, in parameter order."""
        return []

    def parameters(self) -> list[np.ndarray]:
        return [p for wb in self.weighted() for p in (wb.weight, wb.bias)]


class _WeightBias(_Layer):
    """A layer whose parameters are one weight array and one bias vector."""

    def _init_parameters(self, shape: tuple[int, ...], n_out: int, scale: float,
                         rng: np.random.Generator | None) -> None:
        self.weight = np.zeros(shape) if rng is None else rng.normal(0.0, scale, shape)
        self.bias = np.zeros(n_out)

    def weighted(self) -> list[_WeightBias]:
        return [self]

    def _accumulate(self, grads: dict, d_weight: np.ndarray, d_bias: np.ndarray) -> None:
        """Add to this layer's pair in ``grads``, a zero pair on first use."""
        if self not in grads:
            grads[self] = (np.zeros_like(self.weight), np.zeros_like(self.bias))
        for total, d in zip(grads[self], (d_weight, d_bias)):
            total += d


class Conv2d(_WeightBias):
    """Strided 2-D convolution layer with same-style padding (kernel_size // 2)."""

    kind = "conv"
    fields = ("in_channels", "out_channels", "kernel_size", "stride")

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, rng: np.random.Generator | None = None):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ValidationError(f"conv kernel size must be odd, got {kernel_size}")
        if stride not in (1, 2):
            raise ValidationError(f"conv stride must be 1 or 2, got {stride}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = kernel_size // 2
        fan_in = in_channels * kernel_size * kernel_size
        self._init_parameters((out_channels, in_channels, kernel_size, kernel_size),
                              out_channels, math.sqrt(2.0 / fan_in), rng)

    @classmethod
    def parameter_count(cls, in_channels: int, out_channels: int, kernel_size: int,
                        stride: int = 1) -> int:
        return out_channels * (in_channels * kernel_size * kernel_size + 1)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        oh = (h + 2 * self.pad - self.kernel_size) // self.stride + 1
        ow = (w + 2 * self.pad - self.kernel_size) // self.stride + 1
        if oh < 1 or ow < 1:
            raise DimensionError(f"conv collapses {h}x{w} input to nothing")
        return oh, ow

    def out_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(shape) != 3:
            raise ValidationError("convolution after pooling is not supported")
        if shape[0] != self.in_channels:
            raise ValidationError(
                f"layer expects {self.in_channels} channels, pipeline carries {shape[0]}"
            )
        return (self.out_channels, *self.out_hw(shape[1], shape[2]))

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise DimensionError(f"conv expects {self.in_channels} channels, got {c}")
        oh, ow = self.out_hw(h, w)
        cols = _im2col(x, self.kernel_size, self.stride, self.pad, oh, ow)
        # In the input's dtype: a no-op for float64, a fresh cast of the
        # current weights for the float32 scoring and training passes.
        w2 = self.weight.reshape(self.out_channels, -1).astype(x.dtype, copy=False)
        out = np.matmul(w2, cols) + self.bias.astype(x.dtype, copy=False)[:, None]
        out = out.reshape(n, self.out_channels, oh, ow)
        if tape is not None:
            tape.append((self, (x.shape, cols, oh, ow)))
        return out

    def backward(self, dout: np.ndarray, saved, grads: dict,
                 input_grad: bool = True) -> np.ndarray | None:
        shape, cols, oh, ow = saved
        n = dout.shape[0]
        # In the saved columns' dtype, as the forward pass ran.
        dout2 = dout.reshape(n, self.out_channels, oh * ow).astype(cols.dtype, copy=False)
        w2 = self.weight.reshape(self.out_channels, -1).astype(cols.dtype, copy=False)
        self._accumulate(grads,
                         np.matmul(dout2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(self.weight.shape),
                         dout2.sum(axis=(0, 2)))
        if not input_grad:
            return None
        dcols = np.matmul(w2.T, dout2)
        return _col2im(dcols, shape, self.kernel_size, self.stride, self.pad, oh, ow)


class ReLU(_Layer):
    kind = "relu"

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        out = np.maximum(x, 0.0)
        if tape is not None:
            tape.append((self, x > 0))
        return out

    def backward(self, dout: np.ndarray, saved, grads: dict,
                 input_grad: bool = True) -> np.ndarray | None:
        return dout * saved if input_grad else None


class ResidualBlock(_Layer):
    """conv3x3(stride) -> relu -> conv3x3 -> add shortcut -> relu.

    The shortcut is the identity when shapes allow, otherwise a 1x1
    stride-matched projection convolution.
    """

    kind = "residual"
    fields = ("in_channels", "out_channels", "stride")

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 rng: np.random.Generator | None = None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride, rng)
        self.conv2 = Conv2d(out_channels, out_channels, 3, 1, rng)
        if self._projects(in_channels, out_channels, stride):
            self.projection = Conv2d(in_channels, out_channels, 1, stride, rng)
        else:
            self.projection = None

    @staticmethod
    def _projects(in_channels: int, out_channels: int, stride: int) -> bool:
        return stride != 1 or in_channels != out_channels

    @classmethod
    def parameter_count(cls, in_channels: int, out_channels: int, stride: int = 1) -> int:
        count = (Conv2d.parameter_count(in_channels, out_channels, 3)
                 + Conv2d.parameter_count(out_channels, out_channels, 3))
        if cls._projects(in_channels, out_channels, stride):
            count += Conv2d.parameter_count(in_channels, out_channels, 1)
        return count

    def out_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        return self.conv2.out_shape(self.conv1.out_shape(shape))

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        inner: list | None = [] if tape is not None else None
        a = self.conv1.forward(x, inner)
        r = np.maximum(a, 0.0)
        body = self.conv2.forward(r, inner)
        shortcut = self.projection.forward(x, inner) if self.projection is not None else x
        s = body + shortcut
        out = np.maximum(s, 0.0)
        if tape is not None:
            tape.append((self, (inner, a > 0, s > 0)))
        return out

    def backward(self, dout: np.ndarray, saved, grads: dict,
                 input_grad: bool = True) -> np.ndarray | None:
        inner, mask_a, mask_s = saved
        ds = dout * mask_s
        dr = self.conv2.backward(ds, inner[1][1], grads)
        da = dr * mask_a
        dx = self.conv1.backward(da, inner[0][1], grads, input_grad)
        shortcut = ds if self.projection is None else self.projection.backward(ds, inner[2][1], grads, input_grad)
        return dx + shortcut if input_grad else None

    def weighted(self) -> list[_WeightBias]:
        return [c for c in (self.conv1, self.conv2, self.projection) if c is not None]


class GlobalAveragePool(_Layer):
    kind = "global_average_pool"

    def out_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(shape) != 3:
            raise ValidationError("global average pooling needs a (channels, height, width) input")
        return shape[:1]

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        out = x.mean(axis=(2, 3))
        if tape is not None:
            tape.append((self, x.shape))
        return out

    def backward(self, dout: np.ndarray, saved, grads: dict,
                 input_grad: bool = True) -> np.ndarray | None:
        n, c, h, w = saved
        return np.broadcast_to(dout[:, :, None, None], (n, c, h, w)) / (h * w) if input_grad else None


class Dense(_WeightBias):
    kind = "dense"
    fields = ("in_features", "out_features")

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        self.in_features = in_features
        self.out_features = out_features
        self._init_parameters((in_features, out_features), out_features,
                              math.sqrt(1.0 / in_features), rng)

    @classmethod
    def parameter_count(cls, in_features: int, out_features: int) -> int:
        return (in_features + 1) * out_features

    def out_shape(self, shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(shape) != 1:
            raise ValidationError("dense head requires global average pooling first")
        if shape[0] != self.in_features:
            raise ValidationError(
                f"dense expects {self.in_features} features, pipeline carries {shape[0]}"
            )
        return (self.out_features,)

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise DimensionError(f"dense expects (N, {self.in_features}), got {x.shape}")
        out = x @ self.weight + self.bias
        if tape is not None:
            tape.append((self, x))
        return out

    def backward(self, dout: np.ndarray, saved, grads: dict,
                 input_grad: bool = True) -> np.ndarray | None:
        self._accumulate(grads, saved.T @ dout, dout.sum(axis=0))
        return dout @ self.weight.T if input_grad else None


_LAYER_TYPES = {cls.kind: cls for cls in (Conv2d, ReLU, ResidualBlock, GlobalAveragePool, Dense)}


# ---------------------------------------------------------------------------
# network

class Network:
    """Ordered layer stack ending in a single-logit dense head."""

    def __init__(self, layers, input_side: int, standardize: bool = True):
        self.layers = list(layers)
        self.input_side = int(input_side)
        self.standardize = bool(standardize)
        self._validate_shapes()

    def _validate_shapes(self) -> None:
        """Check the per-sample shape through every layer and record where the
        trunk ends: at the first layer whose output is 1-D."""
        if self.input_side < 1:
            raise ValidationError(f"input_side must be positive, got {self.input_side}")
        shape = (1, self.input_side, self.input_side)
        self._trunk_end = None
        for index, layer in enumerate(self.layers):
            if type(layer) not in _LAYER_TYPES.values():
                raise ValidationError(f"unsupported layer type {type(layer).__name__}")
            shape = layer.out_shape(shape)
            if self._trunk_end is None and len(shape) == 1:
                self._trunk_end = index + 1
        if shape != (1,):
            raise ValidationError(f"network must end in a single logit, got output shape {shape}")

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters()]

    def descriptors(self) -> list[dict]:
        return [layer.descriptor() for layer in self.layers]

    def _prepare(self, batch) -> np.ndarray:
        """Stack `batch` in float64 as (N, 1, side, side), checking each patch
        first, so a wrong shape fails the same way whatever shares its tile."""
        side = self.input_side
        for patch in batch:
            shape = np.shape(patch)
            if len(shape) != 2:
                raise DimensionError(f"expected (N, side, side) patches, got one of shape {shape}")
            if shape != (side, side):
                raise DimensionError(f"patch side {shape} does not match network input side {side}")
        return np.asarray(batch, dtype=np.float64).reshape(len(batch), 1, side, side)

    def logits(self, batch, tape: list | None = None) -> np.ndarray:
        """One float64 logit per patch of `batch`, an (N, side, side) array or a
        sequence of (side, side) patches. A tile of about `_TILE_PIXELS` input
        pixels is the only copy of the input. A tape's first entry is the
        trunk's, `(tile, [one tape per tile])`, and the head's entries
        follow. Every logit is bit-identical to a whole-batch pass, with or
        without a tape."""
        return self._logits(batch, tape, np.float64)

    def _logits(self, batch, tape: list | None, dtype) -> np.ndarray:
        """The trunk runs in `dtype` on tiles, each checked, stacked and
        standardized in float64 on its own, and the head in float64 on the
        stacked pooled features."""
        _keep_freed_memory()
        tile = max(1, _TILE_PIXELS // self.input_side ** 2)
        # An empty batch is one empty tile.
        tiles = [(start, None if tape is None else []) for start in range(0, max(len(batch), 1), tile)]

        def trunk(args) -> np.ndarray:
            start, tile_tape = args
            y = self._prepare(batch[start:start + tile])
            if self.standardize:  # per sample, so a tile gets the whole batch's bits
                mean = y.mean(axis=(2, 3), keepdims=True)
                y = (y - mean) / (y.std(axis=(2, 3), keepdims=True) + _STANDARDIZE_EPS)
            y = y.astype(dtype, copy=False)
            for layer in self.layers[:self._trunk_end]:
                y = layer.forward(y, tile_tape)
            return y

        x = np.concatenate(_map_tiles(trunk, tiles)).astype(np.float64, copy=False)
        if tape is not None:
            tape.append((tile, [t for _, t in tiles]))
        for layer in self.layers[self._trunk_end:]:
            x = layer.forward(x, tape)
        return x.reshape(-1)

    def backward(self, tape: list, dlogits: np.ndarray) -> list[np.ndarray]:
        """Fresh parameter gradients of the pass on `tape`, in `parameters()`
        order. The head runs backward in the calling thread; each tile's tape
        then runs on a pass-local thread pool into a gradient dict of the
        tile's own, and those are added in tile order. The network's input
        gradient is never used, so each tile's first entry skips it."""
        grads: dict = {}
        d = np.asarray(dlogits, dtype=np.float64).reshape(-1, 1)
        for layer, saved in reversed(tape[1:]):
            d = layer.backward(d, saved, grads)
        tile, tile_tapes = tape[0]

        def tile_backward(args) -> dict:
            d, tile_tape = args
            tile_grads: dict = {}
            for index in range(len(tile_tape) - 1, -1, -1):
                layer, saved = tile_tape[index]
                d = layer.backward(d, saved, tile_grads, index > 0)
            return tile_grads

        douts = np.split(d, range(tile, len(d), tile))
        for tile_grads in _map_tiles(tile_backward, list(zip(douts, tile_tapes))):
            for wb, (d_weight, d_bias) in tile_grads.items():
                wb._accumulate(grads, d_weight, d_bias)
        return [g for layer in self.layers for wb in layer.weighted() for g in grads[wb]]

    def forward_batch(self, batch) -> np.ndarray:
        """Probability per patch, for ranking: the trunk runs in float32 on
        weights cast afresh each call, so an in-place edit always shows."""
        z = np.clip(self._logits(batch, None, np.float32), -_LOGIT_CAP, _LOGIT_CAP)
        return _sigmoid(z)


def build_small_resnet(seed: int = 0, input_side: int = 228) -> Network:
    """The default architecture: 7x7/2 stem into 16/32/64 residual stages."""
    rng = np.random.default_rng(seed)
    layers = [
        Conv2d(1, 16, 7, 2, rng),
        ReLU(),
        ResidualBlock(16, 16, 2, rng),
        ResidualBlock(16, 32, 2, rng),
        ResidualBlock(32, 64, 2, rng),
        GlobalAveragePool(),
        Dense(64, 1, rng),
    ]
    return Network(layers, input_side=input_side)


def _layer_args(desc) -> tuple[type[_Layer], list[int]]:
    """Layer class and constructor arguments of a descriptor holding exactly
    `type` and positive-int `fields`."""
    kind = desc.get("type") if isinstance(desc, dict) else None
    cls = _LAYER_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ModelFormatError(f"unknown layer descriptor {desc!r}")
    if set(desc) != {"type", *cls.fields}:
        raise ModelFormatError(f"{kind} descriptor needs exactly the fields {cls.fields}, got {desc!r}")
    args = [desc[name] for name in cls.fields]
    if not all(type(a) is int and a >= 1 for a in args):
        raise ModelFormatError(f"{kind} descriptor fields must be positive integers, got {desc!r}")
    return cls, args


# ---------------------------------------------------------------------------
# loss

def bce_loss(predicted, labels) -> float:
    """Mean binary cross-entropy of probabilities against hard labels.

    Saturated predictions on the wrong side produce a large finite loss; the
    loss is exactly zero only when every prediction matches its label.
    """
    p = np.asarray(predicted, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if p.size != y.size:
        raise DimensionError(f"got {p.size} predictions for {y.size} labels")
    if p.size == 0:
        raise DimensionError("need at least one sample")
    if np.any((p < 0) | (p > 1)) or not np.all(np.isfinite(p)):
        raise ValidationError("predictions must lie in [0, 1]")
    if not np.all((y == 0) | (y == 1)):
        raise ValidationError("labels must be 0 or 1")
    tiny = np.finfo(np.float64).tiny
    per_sample = np.where(y == 1.0, -np.log(np.maximum(p, tiny)), -np.log(np.maximum(1.0 - p, tiny)))
    return float(per_sample.mean())


def bce_with_logits(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss and d(loss)/d(logits) straight from logits; saturation-safe."""
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if z.size != y.size or z.size == 0:
        raise DimensionError(f"got {z.size} logits for {y.size} labels")
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    dz = (_sigmoid(z) - y) / z.size
    return loss, dz


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0
    input_side: int = 228

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValidationError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValidationError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be positive, got {self.batch_size}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be positive, got {self.epochs}")
        if self.input_side < 1:
            raise ValidationError(f"input_side must be positive, got {self.input_side}")


@dataclass(frozen=True)
class TrainingSample:
    patch: Image
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValidationError(f"label must be 0 or 1, got {self.label!r}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_loss: float
    accuracy: float


@dataclass
class TrainResult:
    network: Network
    epochs: list[EpochStats]


def train(net: Network, samples, cfg: TrainConfig) -> TrainResult:
    """SGD with classical momentum: v <- m*v - lr*g, theta <- theta + v.

    Each step's trunk runs forward and backward in float32; the parameters,
    velocities, loss and the gradients they take stay float64. Samples are
    reshuffled each epoch with a seeded generator and the final incomplete
    batch is dropped, so the per-epoch loss log is only strictly constant at
    lr=0 when the sample count is a multiple of the batch size.
    """
    samples = list(samples)
    if not samples:
        raise ValidationError("training set is empty")
    if len(samples) < cfg.batch_size:
        raise ValidationError(
            f"need at least one full batch ({cfg.batch_size}), got {len(samples)} samples"
        )
    for s in samples:
        if s.patch.shape != (net.input_side, net.input_side):
            raise DimensionError(
                f"sample patch {s.patch.shape} does not match network input side {net.input_side}"
            )
    x_all = np.stack([s.patch.pixels for s in samples])
    y_all = np.array([float(s.label) for s in samples])
    params = net.parameters()
    velocity = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(cfg.seed)
    log: list[EpochStats] = []
    n = len(samples)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        correct = 0
        seen = 0
        for b in range(n // cfg.batch_size):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            tape: list = []
            z = net._logits(x_all[idx], tape, np.float32)
            loss, dz = bce_with_logits(z, y_all[idx])
            losses.append(loss)
            correct += int(((z >= 0).astype(np.float64) == y_all[idx]).sum())
            seen += len(idx)
            for p, v, g in zip(params, velocity, net.backward(tape, dz)):
                v *= cfg.momentum
                v -= cfg.learning_rate * g
                p += v
        log.append(EpochStats(epoch=epoch, mean_loss=float(np.mean(losses)), accuracy=correct / seen))
    return TrainResult(network=net, epochs=log)


def write_training_log(epochs, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss", "train_accuracy"])
        for e in epochs:
            writer.writerow([e.epoch, repr(e.mean_loss), repr(e.accuracy)])


# ---------------------------------------------------------------------------
# model container

def save_model(net: Network, path) -> None:
    payload = b"".join(np.ascontiguousarray(p, dtype="<f8").tobytes() for p in net.parameters())
    header = {
        "input_side": net.input_side,
        "standardize": net.standardize,
        "layers": net.descriptors(),
        "param_count": int(sum(p.size for p in net.parameters())),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = (
        MODEL_MAGIC
        + struct.pack("<I", MODEL_VERSION)
        + struct.pack("<Q", len(header_bytes))
        + header_bytes
        + payload
    )
    Path(path).write_bytes(blob)


def load_model(path) -> Network:
    data = Path(path).read_bytes()
    if len(data) < len(MODEL_MAGIC) + 12:
        raise ModelFormatError(f"model file {path} is truncated")
    if data[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelFormatError(f"bad magic bytes in {path}")
    pos = len(MODEL_MAGIC)
    (version,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if version != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {version} in {path}")
    (header_len,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    if len(data) < pos + header_len:
        raise ModelFormatError(f"model header truncated in {path}")
    try:
        header = json.loads(data[pos:pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"unreadable model header in {path}: {exc}") from None
    try:
        header = typed_fields(header, _HEADER_TYPES, "model header")
        specs = [_layer_args(d) for d in header["layers"]]
    except (ParseError, ModelFormatError) as exc:
        raise ModelFormatError(f"inconsistent model header in {path}: {exc}") from None
    # Counted from the fields before any layer allocates its arrays, so a
    # header naming a huge layer is rejected without trying to allocate it.
    count = sum(cls.parameter_count(*args) for cls, args in specs)
    payload = data[pos + header_len:]
    if header["param_count"] != count or len(payload) != 8 * count:
        raise ModelFormatError(f"model payload or param_count in {path} does not match "
                               f"the {count} parameters of its layers")
    try:
        net = Network([cls(*args) for cls, args in specs], input_side=header["input_side"],
                      standardize=header["standardize"])
    except ValidationError as exc:
        raise ModelFormatError(f"inconsistent model header in {path}: {exc}") from None
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise ModelFormatError(f"model checksum mismatch in {path}")
    offset = 0
    for p in net.parameters():
        nbytes = p.size * 8
        p[...] = np.frombuffer(payload[offset:offset + nbytes], dtype="<f8").reshape(p.shape)
        offset += nbytes
    return net
