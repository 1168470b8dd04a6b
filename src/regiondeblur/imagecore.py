"""Image and kernel containers plus the shared pixel-level operations.

Images are grayscale float64 matrices with intensities nominally in [0, 1].
Kernels are small odd-sided non-negative matrices summing to one. File I/O
covers 8-bit binary PGM, grayscale float32 PFM, and a plain-text kernel
format (header line "side_h side_w" followed by row-major weights).
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, ParseError, ValidationError

KERNEL_SUM_TOL = 1e-6
KERNEL_FILE_SUM_TOL = 1e-4

_WHITESPACE = b" \t\r\n\f\v"


class BoundaryMode(str, enum.Enum):
    """How pixels beyond the image border are defined during convolution."""

    REPLICATE = "replicate"
    PERIODIC = "periodic"


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
    raise ValidationError(f"unknown boundary mode {mode!r}")


def _check_kernel_fits(img: Image, k: Kernel) -> None:
    if k.side_h > img.height or k.side_w > img.width:
        raise DimensionError(
            f"kernel {k.weights.shape} does not fit image {img.pixels.shape}"
        )


def convolve_direct(img: Image, k: Kernel, mode: BoundaryMode = BoundaryMode.REPLICATE) -> Image:
    """True convolution (kernel flipped) by direct summation on a padded image.

    Each tap adds its weighted shifted image, kernel rows outer and columns
    inner. That is `scipy.signal.convolve2d(padded, w, "valid")` to the bit
    for 3x3 and for one row or column of up to 7 taps or one column of 9;
    for a 1x9 row or a square of 5 or more scipy sums in another order, and
    the last bits differ."""
    _check_kernel_fits(img, k)
    kh, kw = k.weights.shape
    padded = _pad_extend(img.pixels, kh // 2, kw // 2, mode)
    h, w = img.shape
    out = np.zeros((h, w))
    for i in range(kh):
        for j in range(kw):
            out += k.weights[i, j] * padded[kh - 1 - i:kh - 1 - i + h, kw - 1 - j:kw - 1 - j + w]
    return Image(out)


def _fast_len(n: int) -> int:
    """Smallest 5-smooth length >= n: `scipy.fft.next_fast_len(n, real=True)`."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def convolve_fft(img: Image, k: Kernel, mode: BoundaryMode = BoundaryMode.REPLICATE) -> Image:
    """Same operation as convolve_direct, evaluated through FFTs.

    Repeats `scipy.signal.fftconvolve(padded, w, "valid")` step for step, so
    the bits are its own: an axis where the kernel is one tap wide is not
    transformed, every other axis is zero-padded to its 5-smooth fast length,
    the inverse is left unnormalized and scaled once by the product of those
    lengths."""
    _check_kernel_fits(img, k)
    kh, kw = k.weights.shape
    padded = _pad_extend(img.pixels, kh // 2, kw // 2, mode)
    axes = tuple(a for a in (0, 1) if k.weights.shape[a] > 1)
    if not axes:
        return Image(padded * k.weights)
    fshape = [_fast_len(padded.shape[a] + k.weights.shape[a] - 1) for a in axes]
    spectrum = (np.fft.rfftn(padded, fshape, axes=axes)
                * np.fft.rfftn(k.weights, fshape, axes=axes))
    if len(axes) == 2:
        spectrum = np.fft.ifft(spectrum, axis=0, norm="forward")
    full = np.fft.irfft(spectrum, n=fshape[-1], axis=axes[-1], norm="forward")
    full *= 1.0 / math.prod(fshape)
    h, w = img.shape
    return Image(full[kh - 1:kh - 1 + h, kw - 1:kw - 1 + w])


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
    """Half-spectrum optical transfer function: the kernel embedded with its
    centre at the origin, then rfft2'd. Invert with irfft2(..., s=shape)."""
    arr = np.asarray(weights, dtype=np.float64)
    kh, kw = arr.shape
    h, w = shape
    if kh > h or kw > w:
        raise DimensionError(f"kernel {arr.shape} does not fit field {shape}")
    # Each quadrant of the kernel goes to the matching corner of the field.
    ph, pw = kh // 2, kw // 2
    big = np.zeros(shape)
    big[:kh - ph, :kw - pw] = arr[ph:, pw:]
    big[:kh - ph, w - pw:] = arr[ph:, :pw]
    big[h - ph:, :kw - pw] = arr[:ph, pw:]
    big[h - ph:, w - pw:] = arr[:ph, :pw]
    return np.fft.rfft2(big)


def _taper_ramp(n: int, t: int) -> np.ndarray:
    ramp = np.ones(n)
    t = min(t, n // 2)
    if t > 0:
        edge = 0.5 * (1.0 - np.cos(np.pi * np.arange(1, t + 1) / (t + 1.0)))
        ramp[:t] = edge
        ramp[n - t:] = edge[::-1]
    return ramp


@functools.lru_cache(maxsize=64)
def taper_window(shape: tuple[int, int], taper: tuple[int, int]) -> np.ndarray:
    """Separable raised-cosine window: 1 inside, rising over `taper` pixels
    (per axis, at most half the side) at every border. Cached; read-only."""
    window = _taper_ramp(shape[0], taper[0])[:, None] * _taper_ramp(shape[1], taper[1])[None, :]
    window.flags.writeable = False
    return window


def _periodic_taper(pixels: np.ndarray, otf: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Blend `pixels` toward their circular blur by `otf` where `window`
    (a `taper_window` of the pixels' shape) falls below 1.

    Circular convolution equals the valid convolution of the periodically
    padded image with the centred kernel, so one OTF serves both this blur
    and any Wiener solve that follows."""
    # The spectrum of `pixels` stays a temporary of this expression: from
    # 256 KiB numpy then multiplies into it in place, as `spectrum * otf`.
    # A caller-held spectrum would be multiplied as `otf * spectrum`, and
    # the complex product's last bits depend on the operand order.
    blurred = np.fft.irfft2(otf * np.fft.rfft2(pixels), s=pixels.shape)
    return window * pixels + (1.0 - window) * blurred


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
    if scale == 0 or not math.isfinite(scale):
        raise ParseError(f"scale must be finite and non-zero, got {tok!r}", offset=start)
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
    raw = np.frombuffer(data[pos:pos + count], dtype=dtype)
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise ParseError(f"non-finite pixel {float(raw[bad[0]])!r}", offset=pos + 4 * int(bad[0]))
    return Image(raw.reshape(height, width)[::-1].astype(np.float64))


def encode_pfm(img: Image) -> bytes:
    header = f"Pf\n{img.width} {img.height}\n-1.0\n".encode("ascii")
    return header + img.pixels.astype("<f4")[::-1].tobytes()


def read_image(path) -> Image:
    """Read a PGM or PFM file, dispatching on the magic bytes."""
    data = Path(path).read_bytes()
    magic = data[:2]
    try:
        if magic == b"P5":
            return decode_pgm(data)
        if magic in (b"Pf", b"PF"):
            return decode_pfm(data)
    except ParseError as exc:
        raise ParseError(f"{exc.reason} in {path}", offset=exc.offset) from None
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
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"kernel file {path} is not ASCII text", offset=exc.start) from None
    spans = [(m.group(0), m.start()) for m in re.finditer(r"\S+", text)]
    if len(spans) < 2:
        raise ParseError(f"kernel file {path} lacks a size header", offset=len(text))
    try:
        side_h = int(spans[0][0])
        side_w = int(spans[1][0])
    except ValueError:
        side_h = side_w = 0
    if side_h < 1 or side_w < 1:
        raise ParseError(f"kernel size header must be two positive integers in {path}",
                         offset=spans[0][1])
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
            value = float(tok)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ParseError(f"bad kernel weight {tok!r} in {path}", offset=off)
        values.append(value)
    arr = np.array(values).reshape(side_h, side_w)
    total = float(arr.sum())
    if abs(total - 1.0) > KERNEL_FILE_SUM_TOL:
        raise ParseError(f"kernel weights sum to {total!r} in {path}, expected 1", offset=body[0][1])
    if abs(total - 1.0) > KERNEL_SUM_TOL:
        # Text roundoff gate passed; snap the tiny residual so the invariant holds.
        arr = arr / total
    try:
        return Kernel(arr)
    except ValidationError as exc:  # an even side or a negative weight
        raise ParseError(f"{exc} in {path}", offset=spans[0][1]) from None


def write_kernel(k: Kernel, path) -> None:
    lines = [f"{k.side_h} {k.side_w}"]
    for row in k.weights:
        lines.append(" ".join(f"{v:.12g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
