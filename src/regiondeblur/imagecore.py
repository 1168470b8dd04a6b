"""Image and kernel containers plus the shared pixel-level operations.

Images are grayscale float64 matrices with intensities nominally in [0, 1].
Kernels are small odd-sided non-negative matrices summing to one. File I/O
covers 8-bit binary PGM, grayscale float32 PFM, and a plain-text kernel
format (header line "side_h side_w" followed by row-major weights).
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import signal

from .errors import DimensionError, ParseError, ValidationError

KERNEL_SUM_TOL = 1e-6
KERNEL_FILE_SUM_TOL = 1e-4
LUMA_WEIGHTS = (0.299, 0.587, 0.114)

_WHITESPACE = b" \t\r\n\f\v"


class BoundaryMode(str, enum.Enum):
    """How pixels beyond the image border are defined during convolution."""

    REPLICATE = "replicate"
    PERIODIC = "periodic"
    EDGE_TAPER = "edge-taper"


def _as_float_matrix(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"{what} must be a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite values")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Image:
    """Grayscale image: a read-only float64 matrix in row-major order."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _as_float_matrix(self.pixels, "image"))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.pixels.shape


@dataclass(frozen=True, eq=False)
class Kernel:
    """Blur kernel: odd-sided, non-negative, weights summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _as_float_matrix(self.weights, "kernel")
        if arr.shape[0] % 2 == 0 or arr.shape[1] % 2 == 0:
            raise ValidationError(f"kernel sides must be odd, got {arr.shape}")
        if np.any(arr < 0):
            raise ValidationError("kernel weights must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > KERNEL_SUM_TOL:
            raise ValidationError(f"kernel weights must sum to 1, got {total!r}")
        object.__setattr__(self, "weights", arr)

    @property
    def side_h(self) -> int:
        return self.weights.shape[0]

    @property
    def side_w(self) -> int:
        return self.weights.shape[1]

    @staticmethod
    def delta(side: int = 1) -> "Kernel":
        """Identity kernel of the given odd side."""
        if side < 1 or side % 2 == 0:
            raise ValidationError(f"delta kernel side must be odd and positive, got {side}")
        arr = np.zeros((side, side))
        arr[side // 2, side // 2] = 1.0
        return Kernel(arr)


def rgb_to_gray(rgb) -> np.ndarray:
    """Collapse an (H, W, 3) array to grayscale with the usual luma weights."""
    arr = np.asarray(rgb, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise DimensionError(f"expected an (H, W, 3) array, got shape {arr.shape}")
    r, g, b = LUMA_WEIGHTS
    return r * arr[:, :, 0] + g * arr[:, :, 1] + b * arr[:, :, 2]


# ---------------------------------------------------------------------------
# convolution

def _pad_extend(arr: np.ndarray, pad_h: int, pad_w: int, mode: BoundaryMode) -> np.ndarray:
    if pad_h == 0 and pad_w == 0:
        return arr
    pads = ((pad_h, pad_h), (pad_w, pad_w))
    if mode is BoundaryMode.REPLICATE:
        return np.pad(arr, pads, mode="edge")
    if mode is BoundaryMode.PERIODIC:
        return np.pad(arr, pads, mode="wrap")
    if mode is BoundaryMode.EDGE_TAPER:
        rep = np.pad(arr, pads, mode="edge")
        per = np.pad(arr, pads, mode="wrap")
        h, w = arr.shape
        rows = np.arange(-pad_h, h + pad_h, dtype=np.float64)
        cols = np.arange(-pad_w, w + pad_w, dtype=np.float64)
        dr = np.maximum(0.0, np.maximum(-rows, rows - (h - 1))) / max(pad_h, 1)
        dc = np.maximum(0.0, np.maximum(-cols, cols - (w - 1))) / max(pad_w, 1)
        t = np.maximum(dr[:, None], dc[None, :])
        c = 0.5 * (1.0 - np.cos(np.pi * np.clip(t, 0.0, 1.0)))
        return (1.0 - c) * rep + c * per
    raise ValidationError(f"unknown boundary mode {mode!r}")


def _check_kernel_fits(img: Image, k: Kernel) -> None:
    if k.side_h > img.height or k.side_w > img.width:
        raise DimensionError(
            f"kernel {k.weights.shape} does not fit image {img.pixels.shape}"
        )


def convolve_direct(img: Image, k: Kernel, mode: BoundaryMode = BoundaryMode.REPLICATE) -> Image:
    """True convolution (kernel flipped) by direct summation on a padded image."""
    _check_kernel_fits(img, k)
    padded = _pad_extend(img.pixels, k.side_h // 2, k.side_w // 2, mode)
    return Image(signal.convolve2d(padded, k.weights, mode="valid"))


def convolve_fft(img: Image, k: Kernel, mode: BoundaryMode = BoundaryMode.REPLICATE) -> Image:
    """Same operation as convolve_direct, evaluated through FFTs."""
    _check_kernel_fits(img, k)
    padded = _pad_extend(img.pixels, k.side_h // 2, k.side_w // 2, mode)
    return Image(signal.fftconvolve(padded, k.weights, mode="valid"))


# ---------------------------------------------------------------------------
# resampling

def _axis_coords(n_in: int, n_out: int) -> np.ndarray:
    if n_out == 1:
        return np.array([(n_in - 1) / 2.0])
    return np.arange(n_out, dtype=np.float64) * ((n_in - 1) / (n_out - 1))


def _resample_to(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = arr.shape
    if (out_h, out_w) == (h, w):
        return arr.copy()
    rs = _axis_coords(h, out_h)
    cs = _axis_coords(w, out_w)
    r0 = np.clip(np.floor(rs).astype(int), 0, h - 1)
    c0 = np.clip(np.floor(cs).astype(int), 0, w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (rs - r0)[:, None]
    fc = (cs - c0)[None, :]
    a00 = arr[np.ix_(r0, c0)]
    a01 = arr[np.ix_(r0, c1)]
    a10 = arr[np.ix_(r1, c0)]
    a11 = arr[np.ix_(r1, c1)]
    return (1 - fr) * ((1 - fc) * a00 + fc * a01) + fr * ((1 - fc) * a10 + fc * a11)


def resample(img: Image, scale: float) -> Image:
    """Bilinear resample; output dims are round(input dims * scale), half up."""
    if not (scale > 0) or not math.isfinite(scale):
        raise ValidationError(f"scale must be a positive finite number, got {scale!r}")
    out_h = int(math.floor(img.height * scale + 0.5))
    out_w = int(math.floor(img.width * scale + 0.5))
    if out_h < 1 or out_w < 1:
        raise DimensionError(f"scale {scale!r} produces an empty image")
    return Image(_resample_to(img.pixels, out_h, out_w))


# ---------------------------------------------------------------------------
# frequency-domain helpers shared with the estimator

def kernel_otf(weights, shape: tuple[int, int]) -> np.ndarray:
    """Optical transfer function: kernel embedded at the origin, then FFT'd."""
    arr = np.asarray(weights, dtype=np.float64)
    kh, kw = arr.shape
    h, w = shape
    if kh > h or kw > w:
        raise DimensionError(f"kernel {arr.shape} does not fit field {shape}")
    big = np.zeros(shape)
    big[:kh, :kw] = arr
    big = np.roll(big, (-(kh // 2), -(kw // 2)), axis=(0, 1))
    return np.fft.fft2(big)


def taper_window(shape: tuple[int, int], taper: tuple[int, int]) -> np.ndarray:
    """Separable raised-cosine window: 1 inside, rising over `taper` pixels
    (per axis, at most half the side) at every border."""
    def ramp(n: int, t: int) -> np.ndarray:
        w = np.ones(n)
        t = min(t, n // 2)
        if t > 0:
            edge = 0.5 * (1.0 - np.cos(np.pi * np.arange(1, t + 1) / (t + 1.0)))
            w[:t] = edge
            w[n - t:] = edge[::-1]
        return w

    return ramp(shape[0], taper[0])[:, None] * ramp(shape[1], taper[1])[None, :]


def edge_taper(img: Image, k: Kernel) -> Image:
    """Blend the border band toward a periodic blur so FFT deconvolution rings less."""
    _check_kernel_fits(img, k)
    ph, pw = k.side_h // 2, k.side_w // 2
    if ph == 0 and pw == 0:
        return img
    blurred = convolve_fft(img, k, BoundaryMode.PERIODIC).pixels
    w2 = taper_window(img.shape, (ph, pw))
    return Image(w2 * img.pixels + (1.0 - w2) * blurred)


# ---------------------------------------------------------------------------
# file I/O

def _next_token(data: bytes, pos: int) -> tuple[bytes, int, int]:
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise ParseError("unexpected end of header", offset=pos)
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    return data[start:pos], pos, start


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    tok, pos, start = _next_token(data, pos)
    try:
        value = int(tok)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {tok!r}", offset=start) from None
    if value <= 0:
        raise ParseError(f"{what} must be positive, got {value}", offset=start)
    return value, pos


def decode_pgm(data: bytes) -> Image:
    tok, pos, start = _next_token(data, 0)
    if tok != b"P5":
        raise ParseError(f"not a binary PGM (magic {tok!r})", offset=start)
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    tok, pos, start = _next_token(data, pos)
    try:
        maxval = int(tok)
    except ValueError:
        raise ParseError(f"expected integer maxval, got {tok!r}", offset=start) from None
    if maxval != 255:
        raise ParseError(f"only maxval 255 is supported, got {maxval}", offset=start)
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise ParseError("missing whitespace after maxval", offset=pos)
    pos += 1
    end = pos + width * height
    if len(data) < end:
        raise ParseError(
            f"truncated pixel payload: expected {width * height} bytes, got {len(data) - pos}",
            offset=len(data),
        )
    arr = np.frombuffer(data[pos:end], dtype=np.uint8).reshape(height, width)
    return Image(arr / 255.0)


def encode_pgm(img: Image) -> bytes:
    q = np.floor(np.clip(img.pixels, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + q.tobytes()


def decode_pfm(data: bytes) -> Image:
    tok, pos, start = _next_token(data, 0)
    if tok == b"PF":
        raise ParseError("color PFM is not supported, expected grayscale 'Pf'", offset=start)
    if tok != b"Pf":
        raise ParseError(f"not a grayscale PFM (magic {tok!r})", offset=start)
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    tok, pos, start = _next_token(data, pos)
    try:
        scale = float(tok)
    except ValueError:
        raise ParseError(f"expected float scale, got {tok!r}", offset=start) from None
    if scale == 0:
        raise ParseError("scale must be non-zero", offset=start)
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise ParseError("missing whitespace after scale", offset=pos)
    pos += 1
    count = width * height * 4
    if len(data) < pos + count:
        raise ParseError(
            f"truncated pixel payload: expected {count} bytes, got {len(data) - pos}",
            offset=len(data),
        )
    dtype = "<f4" if scale < 0 else ">f4"
    arr = np.frombuffer(data[pos:pos + count], dtype=dtype).reshape(height, width)
    return Image(arr[::-1].astype(np.float64))


def encode_pfm(img: Image) -> bytes:
    header = f"Pf\n{img.width} {img.height}\n-1.0\n".encode("ascii")
    return header + img.pixels.astype("<f4")[::-1].tobytes()


def read_image(path) -> Image:
    """Read a PGM or PFM file, dispatching on the magic bytes."""
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic == b"P5":
        return decode_pgm(data)
    if magic in (b"Pf", b"PF"):
        return decode_pfm(data)
    raise ParseError(f"unrecognized image magic {magic!r} in {path}", offset=0)


def write_image(img: Image, path) -> None:
    """Write a PGM (quantized) or PFM (float32) file, dispatching on the suffix."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".pgm":
        path.write_bytes(encode_pgm(img))
    elif suffix == ".pfm":
        path.write_bytes(encode_pfm(img))
    else:
        raise ValidationError(f"unsupported image suffix {path.suffix!r} for {path}")


def read_kernel(path) -> Kernel:
    """Read the plain-text kernel format and validate its invariants."""
    text = Path(path).read_text(encoding="ascii")
    spans = [(m.group(0), m.start()) for m in re.finditer(r"\S+", text)]
    if len(spans) < 2:
        raise ParseError(f"kernel file {path} lacks a size header", offset=len(text))
    try:
        side_h = int(spans[0][0])
        side_w = int(spans[1][0])
    except ValueError:
        raise ParseError(f"kernel size header must be two integers in {path}", offset=spans[0][1]) from None
    expected = side_h * side_w
    body = spans[2:]
    if len(body) != expected:
        raise ParseError(
            f"kernel file {path} has {len(body)} weights, expected {expected}",
            offset=body[-1][1] if body else len(text),
        )
    values = []
    for tok, off in body:
        try:
            values.append(float(tok))
        except ValueError:
            raise ParseError(f"bad kernel weight {tok!r} in {path}", offset=off) from None
    arr = np.array(values).reshape(side_h, side_w)
    if side_h % 2 == 0 or side_w % 2 == 0:
        raise ValidationError(f"kernel sides must be odd, got {side_h}x{side_w} in {path}")
    if np.any(arr < 0):
        raise ValidationError(f"kernel weights must be non-negative in {path}")
    total = float(arr.sum())
    if abs(total - 1.0) > KERNEL_FILE_SUM_TOL:
        raise ValidationError(f"kernel weights sum to {total!r} in {path}, expected 1")
    if abs(total - 1.0) > KERNEL_SUM_TOL:
        # Text roundoff gate passed; snap the tiny residual so the invariant holds.
        arr = arr / total
    return Kernel(arr)


def write_kernel(k: Kernel, path) -> None:
    lines = [f"{k.side_h} {k.side_w}"]
    for row in k.weights:
        lines.append(" ".join(f"{v:.12g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
