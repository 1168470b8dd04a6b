"""Binary patch classifier built directly on NumPy.

The network is a small residual net: a 7x7 stride-2 stem, three residual
stages at 16/32/64 channels (each downsampling once with stride-2
convolutions, never with pooling), global average pooling, and a dense head
whose scalar logit passes through a sigmoid. Patches are standardized to zero
mean and unit variance per sample before the stem. Training is plain SGD with
classical momentum; gradients come from a hand-written reverse pass.

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

from .errors import DimensionError, ModelFormatError, ValidationError
from .imagecore import Image

MODEL_MAGIC = b"PATCHNET"
MODEL_VERSION = 1
_LOGIT_CAP = 35.0
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


class Conv2d:
    """Strided 2-D convolution layer with same-style padding (kernel_size // 2)."""

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
        scale = math.sqrt(2.0 / fan_in)
        if rng is None:
            self.weight = np.zeros((out_channels, in_channels, kernel_size, kernel_size))
        else:
            self.weight = rng.normal(0.0, scale, (out_channels, in_channels, kernel_size, kernel_size))
        self.bias = np.zeros(out_channels)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        oh = (h + 2 * self.pad - self.kernel_size) // self.stride + 1
        ow = (w + 2 * self.pad - self.kernel_size) // self.stride + 1
        if oh < 1 or ow < 1:
            raise DimensionError(f"conv collapses {h}x{w} input to nothing")
        return oh, ow

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

    def backward(self, dout: np.ndarray, saved) -> np.ndarray:
        padded_shape, cols, oh, ow = saved
        n = dout.shape[0]
        dout2 = dout.reshape(n, self.out_channels, oh * ow)
        w2 = self.weight.reshape(self.out_channels, -1)
        self.grad_weight += np.matmul(dout2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(self.weight.shape)
        self.grad_bias += dout2.sum(axis=(0, 2))
        dcols = np.matmul(w2.T, dout2)
        dpadded = _col2im(dcols, padded_shape, self.kernel_size, self.stride, oh, ow)
        p = self.pad
        return dpadded[:, :, p:padded_shape[2] - p, p:padded_shape[3] - p] if p else dpadded

    def parameters(self):
        return [self.weight, self.bias]

    def gradients(self):
        return [self.grad_weight, self.grad_bias]

    def descriptor(self) -> dict:
        return {
            "type": "conv",
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel_size": self.kernel_size,
            "stride": self.stride,
        }


class ReLU:
    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        out = np.maximum(x, 0.0)
        if tape is not None:
            tape.append((self, x > 0))
        return out

    def backward(self, dout: np.ndarray, saved) -> np.ndarray:
        return dout * saved

    def parameters(self):
        return []

    def gradients(self):
        return []

    def descriptor(self) -> dict:
        return {"type": "relu"}


class ResidualBlock:
    """conv3x3(stride) -> relu -> conv3x3 -> add shortcut -> relu.

    The shortcut is the identity when shapes allow, otherwise a 1x1
    stride-matched projection convolution.
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 rng: np.random.Generator | None = None):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride, rng)
        self.conv2 = Conv2d(out_channels, out_channels, 3, 1, rng)
        if stride != 1 or in_channels != out_channels:
            self.projection = Conv2d(in_channels, out_channels, 1, stride, rng)
        else:
            self.projection = None

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        return self.conv2.out_hw(*self.conv1.out_hw(h, w))

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

    def backward(self, dout: np.ndarray, saved) -> np.ndarray:
        inner, mask_a, mask_s = saved
        ds = dout * mask_s
        dr = self.conv2.backward(ds, inner[1][1])
        da = dr * mask_a
        dx = self.conv1.backward(da, inner[0][1])
        if self.projection is not None:
            dx = dx + self.projection.backward(ds, inner[2][1])
        else:
            dx = dx + ds
        return dx

    def parameters(self):
        params = self.conv1.parameters() + self.conv2.parameters()
        if self.projection is not None:
            params += self.projection.parameters()
        return params

    def gradients(self):
        grads = self.conv1.gradients() + self.conv2.gradients()
        if self.projection is not None:
            grads += self.projection.gradients()
        return grads

    def descriptor(self) -> dict:
        return {
            "type": "residual",
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "stride": self.stride,
        }


class GlobalAveragePool:
    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        out = x.mean(axis=(2, 3))
        if tape is not None:
            tape.append((self, x.shape))
        return out

    def backward(self, dout: np.ndarray, saved) -> np.ndarray:
        n, c, h, w = saved
        return np.broadcast_to(dout[:, :, None, None], (n, c, h, w)) / (h * w)

    def parameters(self):
        return []

    def gradients(self):
        return []

    def descriptor(self) -> dict:
        return {"type": "global_average_pool"}


class Dense:
    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        self.in_features = in_features
        self.out_features = out_features
        scale = math.sqrt(1.0 / in_features)
        if rng is None:
            self.weight = np.zeros((in_features, out_features))
        else:
            self.weight = rng.normal(0.0, scale, (in_features, out_features))
        self.bias = np.zeros(out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise DimensionError(f"dense expects (N, {self.in_features}), got {x.shape}")
        out = x @ self.weight + self.bias
        if tape is not None:
            tape.append((self, x))
        return out

    def backward(self, dout: np.ndarray, saved) -> np.ndarray:
        self.grad_weight += saved.T @ dout
        self.grad_bias += dout.sum(axis=0)
        return dout @ self.weight.T

    def parameters(self):
        return [self.weight, self.bias]

    def gradients(self):
        return [self.grad_weight, self.grad_bias]

    def descriptor(self) -> dict:
        return {"type": "dense", "in_features": self.in_features, "out_features": self.out_features}


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
        if self.input_side < 1:
            raise ValidationError(f"input_side must be positive, got {self.input_side}")
        c, h, w = 1, self.input_side, self.input_side
        pooled = False
        features = None
        for layer in self.layers:
            if isinstance(layer, (Conv2d, ResidualBlock)):
                if pooled:
                    raise ValidationError("convolution after pooling is not supported")
                if layer.in_channels != c:
                    raise ValidationError(
                        f"layer expects {layer.in_channels} channels, pipeline carries {c}"
                    )
                h, w = layer.out_hw(h, w)
                c = layer.out_channels
            elif isinstance(layer, ReLU):
                continue
            elif isinstance(layer, GlobalAveragePool):
                pooled = True
                features = c
            elif isinstance(layer, Dense):
                if not pooled:
                    raise ValidationError("dense head requires global average pooling first")
                if layer.in_features != features:
                    raise ValidationError(
                        f"dense expects {layer.in_features} features, pipeline carries {features}"
                    )
                features = layer.out_features
            else:
                raise ValidationError(f"unsupported layer type {type(layer).__name__}")
        if features != 1:
            raise ValidationError(f"network must end in a single logit, got {features}")

    def assert_stride_only_downsampling(self) -> None:
        """Structural check: no windowed pooling layers anywhere in the stack."""
        allowed = (Conv2d, ReLU, ResidualBlock, GlobalAveragePool, Dense)
        for layer in self.layers:
            if not isinstance(layer, allowed):
                raise ValidationError(f"unexpected layer type {type(layer).__name__}")
            name = type(layer).__name__.lower()
            if "pool" in name and not isinstance(layer, GlobalAveragePool):
                raise ValidationError(f"windowed pooling layer {name} is not allowed")

    def parameters(self) -> list[np.ndarray]:
        params = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> list[np.ndarray]:
        grads = []
        for layer in self.layers:
            grads.extend(layer.gradients())
        return grads

    def zero_gradients(self) -> None:
        for g in self.gradients():
            g[...] = 0.0

    def descriptors(self) -> list[dict]:
        return [layer.descriptor() for layer in self.layers]

    def _prepare(self, batch: np.ndarray) -> np.ndarray:
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim == 2:
            x = x[None]
        if x.ndim == 3:
            x = x[:, None]
        if x.ndim != 4 or x.shape[1] != 1:
            raise DimensionError(f"expected (N, side, side) patches, got {x.shape}")
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
        x = self._prepare(batch)
        for layer in self.layers:
            x = layer.forward(x, tape)
        return x.reshape(-1)

    def backward(self, tape: list, dlogits: np.ndarray) -> None:
        d = np.asarray(dlogits, dtype=np.float64).reshape(-1, 1)
        for layer, saved in reversed(tape):
            d = layer.backward(d, saved)

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        z = np.clip(self.logits(batch), -_LOGIT_CAP, _LOGIT_CAP)
        return _sigmoid(z)

    def forward(self, patch: Image) -> float:
        return float(self.forward_batch(patch.pixels[None])[0])


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


def _layer_from_descriptor(desc: dict):
    kind = desc.get("type")
    if kind == "conv":
        return Conv2d(desc["in_channels"], desc["out_channels"], desc["kernel_size"], desc["stride"])
    if kind == "relu":
        return ReLU()
    if kind == "residual":
        return ResidualBlock(desc["in_channels"], desc["out_channels"], desc["stride"])
    if kind == "global_average_pool":
        return GlobalAveragePool()
    if kind == "dense":
        return Dense(desc["in_features"], desc["out_features"])
    raise ModelFormatError(f"unknown layer descriptor type {kind!r}")


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
    similarity: float = 0.0

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
    pos += header_len
    payload = data[pos:]
    expected = header.get("param_count", 0) * 8
    if len(payload) != expected:
        raise ModelFormatError(
            f"model payload is {len(payload)} bytes, expected {expected} in {path}"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise ModelFormatError(f"model checksum mismatch in {path}")
    layers = [_layer_from_descriptor(d) for d in header.get("layers", [])]
    try:
        net = Network(layers, input_side=header["input_side"], standardize=header.get("standardize", True))
    except (KeyError, ValidationError) as exc:
        raise ModelFormatError(f"inconsistent model header in {path}: {exc}") from None
    offset = 0
    for p in net.parameters():
        nbytes = p.size * 8
        p[...] = np.frombuffer(payload[offset:offset + nbytes], dtype="<f8").reshape(p.shape)
        offset += nbytes
    return net
