import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given
from hypothesis import strategies as st
from scipy import signal

from regiondeblur.demodata import _BLUR3
from regiondeblur.errors import DimensionError, ParseError, ValidationError
from regiondeblur.imagecore import (
    BoundaryMode,
    Image,
    Kernel,
    _fast_len,
    _pad_extend,
    _periodic_taper,
    _taper_ramp,
    convolve_direct,
    convolve_fft,
    decode_pfm,
    decode_pgm,
    encode_pfm,
    encode_pgm,
    kernel_otf,
    read_kernel,
    resample,
    taper_window,
    write_kernel,
)


def conv_oracle(img_rows, k_rows, mode):
    """Reference convolution on plain Python lists; no vector tricks."""
    h, w = len(img_rows), len(img_rows[0])
    kh, kw = len(k_rows), len(k_rows[0])
    ph, pw = kh // 2, kw // 2
    out = [[0.0] * w for _ in range(h)]
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    rr = r + ph - i
                    cc = c + pw - j
                    if mode is BoundaryMode.PERIODIC:
                        rr %= h
                        cc %= w
                    else:
                        rr = min(max(rr, 0), h - 1)
                        cc = min(max(cc, 0), w - 1)
                    acc += k_rows[i][j] * img_rows[rr][cc]
            out[r][c] = acc
    return np.array(out)


def random_kernel(rng, side):
    raw = rng.uniform(0.0, 1.0, (side, side))
    return Kernel(raw / raw.sum())


# ---------------------------------------------------------------------------
# containers


def test_image_rejects_non_2d():
    with pytest.raises(DimensionError):
        Image(np.zeros(5))


def test_image_rejects_nan():
    px = np.zeros((3, 3))
    px[1, 1] = np.nan
    with pytest.raises(ValidationError):
        Image(px)


def test_image_pixels_read_only():
    img = Image(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1.0


def test_kernel_rejects_even_side():
    with pytest.raises(ValidationError):
        Kernel(np.full((2, 3), 1.0 / 6.0))


def test_kernel_rejects_negative_weight():
    arr = np.zeros((3, 3))
    arr[0, 0] = -0.1
    arr[1, 1] = 1.1
    with pytest.raises(ValidationError):
        Kernel(arr)


def test_kernel_rejects_bad_sum():
    arr = np.zeros((3, 3))
    arr[1, 1] = 1.0 + 1e-4
    with pytest.raises(ValidationError):
        Kernel(arr)


def test_kernel_delta_is_centered():
    k = Kernel.delta(5)
    assert k.weights[2, 2] == 1.0
    assert k.weights.sum() == 1.0


# ---------------------------------------------------------------------------
# convolution


@pytest.mark.parametrize("mode", [BoundaryMode.REPLICATE, BoundaryMode.PERIODIC])
def test_convolve_direct_matches_oracle(mode):
    rng = np.random.default_rng(42)
    for trial in range(4):
        side = rng.integers(8, 20)
        img = Image(rng.uniform(0, 1, (side, side + 3)))
        k = random_kernel(rng, int(rng.choice([3, 5, 7])))
        got = convolve_direct(img, k, mode).pixels
        want = conv_oracle(img.pixels.tolist(), k.weights.tolist(), mode)
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("mode", list(BoundaryMode))
def test_convolve_fft_matches_direct(mode):
    rng = np.random.default_rng(43)
    for trial in range(4):
        img = Image(rng.uniform(0, 1, (24, 17)))
        k = random_kernel(rng, 5)
        d = convolve_direct(img, k, mode).pixels
        f = convolve_fft(img, k, mode).pixels
        assert np.max(np.abs(d - f)) < 1e-8


# `scipy.signal` is the oracle here only: the package itself never imports it.
DIRECT_EXACT_SHAPES = [(1, 1), (1, 3), (3, 1), (3, 3), (1, 5), (5, 1), (1, 7), (7, 1), (9, 1)]


@pytest.mark.parametrize("mode", list(BoundaryMode))
@pytest.mark.parametrize("shape", DIRECT_EXACT_SHAPES)
def test_convolve_direct_is_convolve2d_bit_for_bit(mode, shape):
    rng = np.random.default_rng([47, *shape])
    for trial in range(40):
        img = Image(rng.uniform(0, 1, (int(rng.integers(9, 70)), int(rng.integers(9, 70)))))
        raw = rng.uniform(0, 1, shape)
        k = Kernel(raw / raw.sum())
        padded = _pad_extend(img.pixels, shape[0] // 2, shape[1] // 2, mode)
        want = signal.convolve2d(padded, k.weights, mode="valid")
        assert np.array_equal(convolve_direct(img, k, mode).pixels, want)


@pytest.mark.parametrize("mode", list(BoundaryMode))
@pytest.mark.parametrize("side", [160, 384])
def test_convolve_direct_keeps_the_demo_blur_bits(mode, side):
    img = Image(np.random.default_rng(side).uniform(0, 1, (side, side)))
    padded = _pad_extend(img.pixels, 1, 1, mode)
    want = signal.convolve2d(padded, _BLUR3.weights, mode="valid")
    assert np.array_equal(convolve_direct(img, _BLUR3, mode).pixels, want)


@pytest.mark.parametrize("shape", [(1, 9), (5, 5), (7, 7)])
def test_convolve_direct_is_within_a_few_ulps_of_convolve2d_elsewhere(shape):
    """convolve2d sums these taps in another order, so their last bits move."""
    rng = np.random.default_rng([48, *shape])
    for trial in range(10):
        img = Image(rng.uniform(0, 1, (40, 53)))
        raw = rng.uniform(0, 1, shape)
        k = Kernel(raw / raw.sum())
        padded = _pad_extend(img.pixels, shape[0] // 2, shape[1] // 2, BoundaryMode.REPLICATE)
        want = signal.convolve2d(padded, k.weights, mode="valid")
        assert np.max(np.abs(convolve_direct(img, k).pixels - want)) <= 1e-14


@pytest.mark.parametrize("mode", list(BoundaryMode))
def test_convolve_fft_is_fftconvolve_bit_for_bit(mode):
    """Kernels of 5-27 px, as blur_image sends here, plus kernels one tap
    wide, whose axis fftconvolve does not transform."""
    rng = np.random.default_rng(49)
    sides = [5, 7, 11, 15, 21, 27]
    shapes = [(5, 5), (5, 27), (27, 5), (27, 27), (1, 1), (1, 11), (15, 1)]
    shapes += [(int(rng.choice(sides)), int(rng.choice(sides))) for _ in range(33)]
    for trial, (kh, kw) in enumerate(shapes):
        square = trial % 4 == 0
        h = int(rng.integers(max(kh, kw if square else 1, 16), 421))
        w = h if square else int(rng.integers(max(kw, 16), 421))
        img = Image(rng.uniform(0, 1, (h, w)))
        raw = rng.uniform(0, 1, (kh, kw))
        k = Kernel(raw / raw.sum())
        padded = _pad_extend(img.pixels, kh // 2, kw // 2, mode)
        want = signal.fftconvolve(padded, k.weights, mode="valid")
        assert np.array_equal(convolve_fft(img, k, mode).pixels, want), (h, w, kh, kw)


def test_fast_len_is_scipy_next_fast_len():
    got = [_fast_len(n) for n in range(1, 5000)]
    assert got == [scipy.fft.next_fast_len(n, True) for n in range(1, 5000)]


def test_convolve_delta_is_identity():
    rng = np.random.default_rng(44)
    img = Image(rng.uniform(0, 1, (12, 12)))
    out = convolve_direct(img, Kernel.delta(5))
    assert np.array_equal(out.pixels, img.pixels)


def test_convolve_rejects_oversized_kernel():
    img = Image(np.zeros((4, 4)))
    with pytest.raises(DimensionError):
        convolve_direct(img, Kernel(np.full((5, 5), 1 / 25)))


def test_edge_taper_preprocess_keeps_interior():
    rng = np.random.default_rng(46)
    img = Image(rng.uniform(0, 1, (40, 40)))
    k = random_kernel(rng, 7)
    window = taper_window(img.shape, (3, 3))
    tapered = _periodic_taper(img.pixels, kernel_otf(k.weights, img.shape), window)
    assert tapered.shape == img.shape
    assert np.array_equal(tapered[10:-10, 10:-10], img.pixels[10:-10, 10:-10])


def test_taper_window_is_cached_and_read_only():
    window = taper_window((40, 37), (3, 5))
    assert taper_window((40, 37), (3, 5)) is window
    assert not window.flags.writeable
    assert np.array_equal(window, _taper_ramp(40, 3)[:, None] * _taper_ramp(37, 5)[None, :])


@pytest.mark.parametrize("kernel_shape", [(1, 1), (1, 5), (3, 1), (7, 7), (9, 9)])
@pytest.mark.parametrize("shape", [(9, 9), (16, 15), (15, 16)])
def test_kernel_otf_centres_the_kernel_on_the_origin(shape, kernel_shape):
    """Bit for bit the transform of the kernel rolled to the origin."""
    weights = np.random.default_rng(shape[1] * 10 + kernel_shape[0]).uniform(0, 1, kernel_shape)
    big = np.zeros(shape)
    big[:kernel_shape[0], :kernel_shape[1]] = weights
    rolled = np.roll(big, (-(kernel_shape[0] // 2), -(kernel_shape[1] // 2)), axis=(0, 1))
    assert np.array_equal(kernel_otf(weights, shape), np.fft.rfft2(rolled))


@pytest.mark.parametrize("kernel_shape", [(3, 5), (5, 3), (7, 7)])
@pytest.mark.parametrize("shape", [(36, 36), (36, 35), (35, 38)])
def test_edge_taper_matches_the_wrap_padded_convolution(shape, kernel_shape):
    rng = np.random.default_rng(shape[1] * 10 + kernel_shape[1])
    pixels = rng.uniform(0, 1, shape)
    weights = rng.uniform(0, 1, kernel_shape)
    k = Kernel(weights / weights.sum())
    blurred = convolve_fft(Image(pixels), k, BoundaryMode.PERIODIC).pixels
    taper = (kernel_shape[0] // 2, kernel_shape[1] // 2)
    w2 = taper_window(shape, taper)
    expected = w2 * pixels + (1.0 - w2) * blurred
    tapered = _periodic_taper(pixels, kernel_otf(k.weights, shape), w2)
    assert np.max(np.abs(tapered - expected)) < 1e-12


# ---------------------------------------------------------------------------
# resampling


def test_resample_ramp_columns():
    img = Image(np.array([[0.0, 1.0], [0.0, 1.0]]))
    out = resample(img, 2.0)
    assert out.shape == (4, 4)
    assert np.allclose(out.pixels[0], [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-15)


def test_resample_identity_is_exact():
    rng = np.random.default_rng(47)
    img = Image(rng.uniform(0, 1, (9, 7)))
    out = resample(img, 1.0)
    assert np.array_equal(out.pixels, img.pixels)


def test_resample_dims_round_half_up():
    img = Image(np.zeros((5, 5)))
    assert resample(img, 0.5).shape == (3, 3)
    assert resample(img, 0.3).shape == (2, 2)


def test_resample_to_single_pixel_uses_center():
    img = Image(np.array([[0.0, 1.0], [2.0, 3.0]]) / 3.0)
    out = resample(img, 0.25)
    assert out.shape == (1, 1)
    assert out.pixels[0, 0] == pytest.approx(np.mean(img.pixels), abs=1e-12)


def test_resample_rejects_collapse_to_nothing():
    img = Image(np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        resample(img, 0.1)


@given(st.integers(2, 30), st.integers(2, 30), st.floats(0.2, 3.0))
def test_resample_dims_formula(h, w, scale):
    img = Image(np.zeros((h, w)))
    oh = math.floor(h * scale + 0.5)
    ow = math.floor(w * scale + 0.5)
    if oh < 1 or ow < 1:
        with pytest.raises(DimensionError):
            resample(img, scale)
    else:
        assert resample(img, scale).shape == (oh, ow)


# ---------------------------------------------------------------------------
# PGM


def test_pgm_round_trip_idempotent():
    rng = np.random.default_rng(48)
    img = Image(rng.uniform(0, 1, (11, 13)))
    once = encode_pgm(img)
    again = encode_pgm(decode_pgm(once))
    assert once == again


def test_pgm_quantization_rounds_half_up():
    img = Image(np.array([[0.0, 0.5 / 255, 1.5 / 255, 1.0]]).reshape(2, 2))
    data = encode_pgm(img)
    decoded = decode_pgm(data)
    raster = np.round(decoded.pixels * 255).astype(int)
    assert raster.tolist() == [[0, 1], [2, 255]]


def test_pgm_rejects_bad_magic():
    with pytest.raises(ParseError):
        decode_pgm(b"P6 2 2 255 \x00\x00\x00\x00")


def test_pgm_rejects_wrong_maxval():
    with pytest.raises(ParseError):
        decode_pgm(b"P5 1 1 65535 \x00\x00")


def test_pgm_truncated_raster_reports_offset():
    with pytest.raises(ParseError) as err:
        decode_pgm(b"P5 2 2 255 \x00")
    assert "offset" in str(err.value)


def test_pgm_comments_are_skipped():
    data = b"P5 # trailing\n2 1 # size\n255\n\x00\xff"
    img = decode_pgm(data)
    assert img.pixels[0, 1] == 1.0


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_pgm_quantization_idempotent_property(h, w, seed):
    rng = np.random.default_rng(seed)
    img = Image(rng.uniform(0, 1, (h, w)))
    first = decode_pgm(encode_pgm(img))
    second = decode_pgm(encode_pgm(first))
    assert np.array_equal(first.pixels, second.pixels)


# ---------------------------------------------------------------------------
# PFM


def test_pfm_round_trip_byte_exact():
    rng = np.random.default_rng(49)
    img = Image(rng.uniform(0, 1, (7, 5)).astype(np.float32).astype(np.float64))
    data = encode_pfm(img)
    decoded = decode_pfm(data)
    assert np.array_equal(decoded.pixels, img.pixels)
    assert encode_pfm(decoded) == data


def test_pfm_rejects_color_variant():
    with pytest.raises(ParseError):
        decode_pfm(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)


def test_pfm_truncated_payload_reports_offset():
    data = b"Pf\n2 2\n-1.0\n" + b"\x00" * 8
    with pytest.raises(ParseError) as err:
        decode_pfm(data)
    assert str(len(data)) in str(err.value)


def test_pfm_rows_stored_bottom_up():
    img = Image(np.array([[0.0, 0.0], [1.0, 1.0]]))
    data = encode_pfm(img)
    raw = np.frombuffer(data[data.index(b"-1.0\n") + 5:], dtype="<f4")
    assert raw[:2].tolist() == [1.0, 1.0]


def test_pfm_positive_scale_means_big_endian():
    payload = np.array([0.25], dtype=">f4").tobytes()
    img = decode_pfm(b"Pf\n1 1\n1.0\n" + payload)
    assert img.pixels[0, 0] == 0.25


@pytest.mark.parametrize("scale", [b"nan", b"-nan", b"inf", b"-inf"])
def test_pfm_non_finite_scale_is_parse_error(scale):
    payload = np.array([0.25, 0.5], dtype="<f4").tobytes()
    with pytest.raises(ParseError):
        decode_pfm(b"Pf\n2 1\n" + scale + b"\n" + payload)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_pfm_non_finite_pixel_is_parse_error(value):
    header = b"Pf\n2 1\n-1.0\n"
    with pytest.raises(ParseError) as err:
        decode_pfm(header + np.array([0.25, value], dtype="<f4").tobytes())
    assert str(len(header) + 4) in str(err.value)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_pfm_round_trip_property(h, w, seed):
    rng = np.random.default_rng(seed)
    img = Image(rng.uniform(0, 1, (h, w)).astype(np.float32).astype(np.float64))
    assert np.array_equal(decode_pfm(encode_pfm(img)).pixels, img.pixels)


# ---------------------------------------------------------------------------
# kernel files


def test_kernel_file_round_trip(tmp_path):
    rng = np.random.default_rng(50)
    k = random_kernel(rng, 7)
    path = tmp_path / "k.txt"
    write_kernel(k, path)
    back = read_kernel(path)
    assert back.weights.shape == (7, 7)
    assert np.allclose(back.weights, k.weights, atol=1e-12)


def test_kernel_file_renormalizes_small_deviation(tmp_path):
    weights = np.full((3, 3), (1.0 + 5e-5) / 9.0)
    lines = ["3 3"] + [" ".join(f"{v:.12g}" for v in row) for row in weights]
    path = tmp_path / "k.txt"
    path.write_text("\n".join(lines) + "\n")
    k = read_kernel(path)
    assert abs(float(k.weights.sum()) - 1.0) <= 1e-6


def test_kernel_file_rejects_large_deviation(tmp_path):
    weights = np.full((3, 3), 1.002 / 9.0)
    lines = ["3 3"] + [" ".join(f"{v:.12g}" for v in row) for row in weights]
    path = tmp_path / "k.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        read_kernel(path)


def test_kernel_file_rejects_even_side(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("2 2\n0.25 0.25\n0.25 0.25\n")
    with pytest.raises(ParseError):
        read_kernel(path)


def test_kernel_file_rejects_negative_weight(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("1 3\n-0.5 1.0 0.5\n")
    with pytest.raises(ParseError):
        read_kernel(path)


def test_kernel_file_malformed_number_reports_offset(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("3 3\n0.1 0.1 0.1\n0.1 oops 0.1\n0.1 0.1 0.1\n")
    with pytest.raises(ParseError) as err:
        read_kernel(path)
    assert "offset" in str(err.value)


def test_kernel_file_wrong_count_is_parse_error(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("3 3\n0.5 0.5\n")
    with pytest.raises(ParseError):
        read_kernel(path)


@pytest.mark.parametrize("body", [
    b"1 1\n1.0\xe9\n",
    b"1 1\nnan\n",
    b"1 3\n0.5 inf 0.5\n",
    b"1 1\n-infinity\n",
    b"-1 -3\n0.5 0.25 0.25\n",
    b"0 0\n",
], ids=["non-ascii", "nan", "inf", "-infinity", "negative-sides", "zero-sides"])
def test_malformed_kernel_file_is_parse_error(tmp_path, body):
    path = tmp_path / "k.txt"
    path.write_bytes(body)
    with pytest.raises(ParseError):
        read_kernel(path)
