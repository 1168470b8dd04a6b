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

Inference (a forward pass without a tape) runs the layers up to the global
pooling on tiles of about 2**16 input pixels, so its memory is bounded per
tile rather than growing with the batch; training keeps whole-batch passes.

Models serialize to a self-describing container: magic bytes, a format
version, a JSON layer-descriptor header carrying a SHA-256 payload checksum,
and the little-endian float64 parameters.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
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
# Input pixels per tile of an untaped forward pass: one 228 px patch, or
# sixteen 64 px patches.
_TILE_PIXELS = 1 << 16
_STANDARDIZE_EPS = 1e-8


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# layers

def _im2col(padded: np.ndarray, k: int, stride: int, oh: int, ow: int) -> np.ndarray:
    n, c = padded.shape[:2]
    cols = np.empty((n, c, k, k, oh, ow))
    for u in range(k):
        for v in range(k):
            cols[:, :, u, v] = padded[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride]
    return cols.reshape(n, c * k * k, oh * ow)


def _col2im(dcols: np.ndarray, padded_shape, k: int, stride: int, oh: int, ow: int) -> np.ndarray:
    n, c = padded_shape[:2]
    dcols = dcols.reshape(n, c, k, k, oh, ow)
    dpadded = np.zeros(padded_shape)
    for u in range(k):
        for v in range(k):
            dpadded[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride] += dcols[:, :, u, v]
    return dpadded


class _Layer:
    """One CNN layer type: ``kind`` names it in the model header and ``fields``
    lists its constructor arguments in constructor order. ``backward`` always
    accumulates parameter gradients and returns the input gradient, or None
    when called with ``input_grad=False``."""

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

    def parameters(self) -> list[np.ndarray]:
        return []

    def gradients(self) -> list[np.ndarray]:
        return []


class _WeightBias(_Layer):
    """A layer whose parameters are one weight array and one bias vector."""

    def _init_parameters(self, shape: tuple[int, ...], n_out: int, scale: float,
                         rng: np.random.Generator | None) -> None:
        self.weight = np.zeros(shape) if rng is None else rng.normal(0.0, scale, shape)
        self.bias = np.zeros(n_out)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


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
        p = self.pad
        padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        cols = _im2col(padded, self.kernel_size, self.stride, oh, ow)
        w2 = self.weight.reshape(self.out_channels, -1)
        out = np.matmul(w2, cols) + self.bias[:, None]
        out = out.reshape(n, self.out_channels, oh, ow)
        if tape is not None:
            tape.append((self, (padded.shape, cols, oh, ow)))
        return out

    def backward(self, dout: np.ndarray, saved, input_grad: bool = True) -> np.ndarray | None:
        padded_shape, cols, oh, ow = saved
        n = dout.shape[0]
        dout2 = dout.reshape(n, self.out_channels, oh * ow)
        w2 = self.weight.reshape(self.out_channels, -1)
        self.grad_weight += np.matmul(dout2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(self.weight.shape)
        self.grad_bias += dout2.sum(axis=(0, 2))
        if not input_grad:
            return None
        dcols = np.matmul(w2.T, dout2)
        dpadded = _col2im(dcols, padded_shape, self.kernel_size, self.stride, oh, ow)
        p = self.pad
        return dpadded[:, :, p:padded_shape[2] - p, p:padded_shape[3] - p] if p else dpadded


class ReLU(_Layer):
    kind = "relu"

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        out = np.maximum(x, 0.0)
        if tape is not None:
            tape.append((self, x > 0))
        return out

    def backward(self, dout: np.ndarray, saved, input_grad: bool = True) -> np.ndarray | None:
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

    def backward(self, dout: np.ndarray, saved, input_grad: bool = True) -> np.ndarray | None:
        inner, mask_a, mask_s = saved
        ds = dout * mask_s
        dr = self.conv2.backward(ds, inner[1][1])
        da = dr * mask_a
        dx = self.conv1.backward(da, inner[0][1], input_grad)
        shortcut = ds if self.projection is None else self.projection.backward(ds, inner[2][1], input_grad)
        return dx + shortcut if input_grad else None

    def _convs(self) -> list[Conv2d]:
        return [c for c in (self.conv1, self.conv2, self.projection) if c is not None]

    def parameters(self) -> list[np.ndarray]:
        return [p for conv in self._convs() for p in conv.parameters()]

    def gradients(self) -> list[np.ndarray]:
        return [g for conv in self._convs() for g in conv.gradients()]


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

    def backward(self, dout: np.ndarray, saved, input_grad: bool = True) -> np.ndarray | None:
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

    def backward(self, dout: np.ndarray, saved, input_grad: bool = True) -> np.ndarray | None:
        self.grad_weight += saved.T @ dout
        self.grad_bias += dout.sum(axis=0)
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

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.gradients()]

    def zero_gradients(self) -> None:
        for g in self.gradients():
            g[...] = 0.0

    def descriptors(self) -> list[dict]:
        return [layer.descriptor() for layer in self.layers]

    def _prepare(self, batch: np.ndarray) -> np.ndarray:
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 3:
            raise DimensionError(f"expected (N, side, side) patches, got {x.shape}")
        x = x[:, None]
        if x.shape[2] != self.input_side or x.shape[3] != self.input_side:
            raise DimensionError(
                f"patch side {x.shape[2:]} does not match network input side {self.input_side}"
            )
        if self.standardize:
            mean = x.mean(axis=(2, 3), keepdims=True)
            std = x.std(axis=(2, 3), keepdims=True)
            x = (x - mean) / (std + _STANDARDIZE_EPS)
        return x

    def logits(self, batch: np.ndarray, tape: list | None = None) -> np.ndarray:
        """One logit per patch. The trunk runs on tiles and the head on the
        stacked pooled features. Without a tape a tile holds about
        `_TILE_PIXELS` input pixels, so memory stays bounded per tile; with
        one the whole batch is a single tile, so the tape records each layer
        once. Every logit is bit-identical either way."""
        x = self._prepare(batch)
        tile = max(1, _TILE_PIXELS // self.input_side ** 2 if tape is None else len(x))
        pooled = []
        for start in range(0, max(len(x), 1), tile):  # an empty batch is one empty tile
            y = x[start:start + tile]
            for layer in self.layers[:self._trunk_end]:
                y = layer.forward(y, tape)
            pooled.append(y)
        x = np.concatenate(pooled)
        for layer in self.layers[self._trunk_end:]:
            x = layer.forward(x, tape)
        return x.reshape(-1)

    def backward(self, tape: list, dlogits: np.ndarray) -> None:
        """Accumulate parameter gradients; the network's input gradient is
        never used, so the first layer skips it."""
        d = np.asarray(dlogits, dtype=np.float64).reshape(-1, 1)
        for index in range(len(tape) - 1, -1, -1):
            layer, saved = tape[index]
            d = layer.backward(d, saved, input_grad=index > 0)

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        z = np.clip(self.logits(batch), -_LOGIT_CAP, _LOGIT_CAP)
        return _sigmoid(z)


def build_small_resnet(seed: int = 0, input_side: int = 228, *, standardize: bool = True) -> Network:
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
    return Network(layers, input_side=input_side, standardize=standardize)


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
        if self.learning_rate < 0:
            raise ValidationError(f"learning_rate must be >= 0, got {self.learning_rate!r}")
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

    Samples are reshuffled each epoch with a seeded generator and the final
    incomplete batch is dropped, so the per-epoch loss log is only strictly
    constant at lr=0 when the sample count is a multiple of the batch size.
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
            z = net.logits(x_all[idx], tape)
            loss, dz = bce_with_logits(z, y_all[idx])
            losses.append(loss)
            correct += int(((z >= 0).astype(np.float64) == y_all[idx]).sum())
            seen += len(idx)
            net.zero_gradients()
            net.backward(tape, dz)
            for p, v, g in zip(params, velocity, net.gradients()):
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
