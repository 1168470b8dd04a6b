import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regiondeblur.demodata import random_motion_kernel
from regiondeblur.errors import ValidationError
from regiondeblur.imagecore import Kernel
from regiondeblur.kernelsim import kernel_similarity


def random_kernel(seed, side):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0, 1, (side, side))
    return Kernel(raw / raw.sum())


def test_row_vs_column_hand_value():
    row = Kernel(np.full((1, 3), 1.0 / 3.0))
    col = Kernel(np.full((3, 1), 1.0 / 3.0))
    # best shift overlaps one cell: (1/9) / (1/sqrt(3) * 1/sqrt(3)) = 1/3
    assert kernel_similarity(row, col) == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("side", [1, 3, 5, 7])
def test_delta_vs_box_analytic_family(side):
    delta = Kernel.delta(1)
    box = Kernel(np.full((side, side), 1.0 / side ** 2))
    assert kernel_similarity(delta, box) == pytest.approx(1.0 / side, abs=1e-12)


def test_identity_is_exactly_one():
    for seed in range(5):
        k = random_kernel(seed, 2 * (seed % 3) + 3)
        assert kernel_similarity(k, k) == 1.0


def test_shift_invariance_is_exact():
    base = random_kernel(7, 3)
    centered = np.zeros((7, 7))
    centered[2:5, 2:5] = base.weights
    cornered = np.zeros((7, 7))
    cornered[0:3, 0:3] = base.weights
    probe = random_kernel(8, 5)
    a = kernel_similarity(probe, Kernel(centered))
    b = kernel_similarity(probe, Kernel(cornered))
    assert a == b


def test_symmetry_is_exact():
    for seed in range(6):
        a = random_kernel(seed, 5)
        b = random_motion_kernel(7, seed=seed + 50)
        assert kernel_similarity(a, b) == kernel_similarity(b, a)


def test_mixed_shapes_are_accepted():
    a = Kernel(np.full((1, 5), 0.2))
    b = random_kernel(3, 7)
    value = kernel_similarity(a, b)
    assert 0.0 < value <= 1.0


def test_raw_arrays_are_accepted():
    a = np.array([[0.0, 2.0], [1.0, 1.0]])
    assert kernel_similarity(a, a) == 1.0


def test_zero_mass_kernel_is_rejected():
    with pytest.raises(ValidationError):
        kernel_similarity(np.zeros((3, 3)), np.ones((3, 3)))
    # Neither square sum is zero, but their product underflows.
    faint = np.full((1, 1), 8.84388657e-128)
    with pytest.raises(ValidationError):
        kernel_similarity(faint, faint)


def test_negative_weights_are_rejected():
    bad = np.array([[1.0, -0.5], [0.5, 0.0]])
    with pytest.raises(ValidationError):
        kernel_similarity(bad, np.ones((2, 2)))


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.sampled_from([3, 5, 7]), st.sampled_from([3, 5, 7]))
def test_similarity_stays_in_unit_interval(seed_a, seed_b, side_a, side_b):
    a = random_kernel(seed_a, side_a)
    b = random_kernel(seed_b, side_b)
    value = kernel_similarity(a, b)
    assert type(value) is float
    assert 0.0 <= value <= 1.0


def test_blend_toward_target_raises_similarity():
    a = random_kernel(21, 5)
    b = random_kernel(22, 5)
    sims = []
    for t in (0.0, 0.5, 1.0):
        mix = (1 - t) * b.weights + t * a.weights
        sims.append(kernel_similarity(a, Kernel(mix / mix.sum())))
    assert sims[0] < sims[1] < sims[2]
    assert sims[2] == 1.0


def _reference_similarity(k_est, k_true) -> float:
    """The original double loop: math.fsum over every shift."""
    a = np.asarray(k_est.weights if isinstance(k_est, Kernel) else k_est, dtype=np.float64)
    b = np.asarray(k_true.weights if isinstance(k_true, Kernel) else k_true, dtype=np.float64)

    def exact(values):
        return math.fsum(values[values != 0.0].tolist())

    sq_a, sq_b = exact(a * a), exact(b * b)
    if sq_a * sq_b == 0.0:
        raise ValidationError("cannot score an all-zero kernel or normalize a vanishing one")
    if (b.shape, b.tobytes()) < (a.shape, a.tobytes()):
        a, b = b, a
        sq_a, sq_b = sq_b, sq_a
    ha, wa = a.shape
    hb, wb = b.shape
    canvas = np.zeros((hb + 2 * (ha - 1), wb + 2 * (wa - 1)))
    canvas[ha - 1:ha - 1 + hb, wa - 1:wa - 1 + wb] = b
    best = 0.0
    for i in range(hb + ha - 1):
        for j in range(wb + wa - 1):
            s = exact(a * canvas[i:i + ha, j:j + wa])
            if s > best:
                best = s
    return min(1.0, best / math.sqrt(sq_a * sq_b))


# Few distinct values make sparse kernels and shifts that tie exactly; terms
# an ulp apart make shifts whose float sums order differently from their
# exact sums.
_ULP = 2.0 ** -52
_CELL = st.one_of(
    st.sampled_from([0.0, 0.0, 0.0, 1.0, 0.5, 1.0 / 3.0, 0.1, 1e-3]),
    st.sampled_from([1.0 + _ULP, _ULP, 0.5 * _ULP, 0.75 * _ULP]),
    st.floats(0.0, 1.0, allow_subnormal=False),
)


@st.composite
def _weights(draw):
    shape = draw(st.tuples(st.integers(1, 9), st.integers(1, 9)))
    cells = draw(st.lists(_CELL, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    arr = np.array(cells).reshape(shape)
    if not np.any(arr):
        arr[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] = 1.0
    return arr


@settings(max_examples=300, deadline=None)
@given(_weights(), _weights())
def test_similarity_is_bit_identical_to_the_double_loop(a, b):
    try:
        expected = _reference_similarity(a, b)
    except ValidationError:  # a square sum, or their product, that underflows to zero
        with pytest.raises(ValidationError):
            kernel_similarity(a, b)
        return
    assert kernel_similarity(a, b) == expected
    assert kernel_similarity(b, a) == expected


@pytest.mark.parametrize("a, b", [
    (np.ones((1, 1)), np.ones((1, 1))),
    (np.ones((1, 1)), np.full((3, 5), 0.5)),
    (np.full((5, 3), 0.2), np.full((3, 5), 0.2)),
    (np.eye(7), np.eye(7)[::-1]),
    (np.eye(9), np.ones((1, 9))),
    # The float maximum is not at the shift with the largest exact sum.
    (np.array([[0.5 * _ULP, 0.5 * _ULP, 1.0 + _ULP, 0.75 * _ULP]]),
     np.array([[1.0, 0.75 * _ULP, 1.0, 1.0 + _ULP, 0.0]])),
    (np.array([[1.0 + _ULP, 0.0, 0.75 * _ULP, 0.5 * _ULP]]),
     np.array([[1.0 + _ULP, 1.0, 0.5 * _ULP, 1.0, 1.0 + _ULP]])),
])
def test_similarity_matches_the_double_loop_on_tied_shifts(a, b):
    assert kernel_similarity(a, b) == _reference_similarity(a, b)
    assert kernel_similarity(b, a) == _reference_similarity(b, a)


def test_motion_kernels_match_the_double_loop():
    for seed in range(20):
        a = random_motion_kernel(15, seed=seed)
        b = random_motion_kernel((11, 13, 15)[seed % 3], seed=seed + 100)
        assert kernel_similarity(a, b) == _reference_similarity(a, b)
