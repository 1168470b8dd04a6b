"""Kernel similarity: how well an estimated blur kernel matches the true one.

Similarity is the maximum normalized cross-correlation over all integer 2-D
shifts: the best overlap sum divided by the product of the L2 norms. The best
overlap is the largest correctly rounded (math.fsum) per-shift sum, so
identical kernels score exactly 1.0 and the score is exactly invariant to
translating either kernel. All shifts are first summed at once in floating
point; only those whose float sum lies within the rounding bound of the float
maximum are summed again with math.fsum. `labeling.build_dataset` turns a
similarity into a patch label with one threshold.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .imagecore import Kernel

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)


def _weights_of(k) -> np.ndarray:
    arr = k.weights if isinstance(k, Kernel) else np.asarray(k, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(f"kernel weights must be a non-empty 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("kernel weights contain non-finite values")
    if np.any(arr < 0):
        raise ValidationError("kernel weights must be non-negative")
    return np.ascontiguousarray(arr, dtype=np.float64)


def _exact_sum(values: np.ndarray) -> float:
    nz = values[values != 0.0]
    return math.fsum(nz.tolist())


def kernel_similarity(k_est, k_true) -> float:
    """Best-aligned normalized cross-correlation of two kernels, in [0, 1].

    Accepts Kernel values or raw non-negative 2-D arrays; the score ignores
    positive rescaling of either argument. Raises ValidationError when either
    kernel has no mass, or so little that the product of the squared norms
    underflows to zero.
    """
    a = _weights_of(k_est)
    b = _weights_of(k_true)
    sq_a = _exact_sum(a * a)
    sq_b = _exact_sum(b * b)
    if sq_a * sq_b == 0.0:
        raise ValidationError("cannot score an all-zero kernel or normalize a vanishing one")
    # Canonical operand order makes the score exactly symmetric.
    if (b.shape, b.tobytes()) < (a.shape, a.tobytes()):
        a, b = b, a
        sq_a, sq_b = sq_b, sq_a
    ha, wa = a.shape
    hb, wb = b.shape
    canvas = np.zeros((hb + 2 * (ha - 1), wb + 2 * (wa - 1)))
    canvas[ha - 1:ha - 1 + hb, wa - 1:wa - 1 + wb] = b
    windows = sliding_window_view(canvas, (ha, wa))
    sums = np.einsum("ijkl,kl->ij", windows, a)
    # Every product is non-negative, so each float sum lies within `slack`
    # of its exact value; only shifts within twice that of the float
    # maximum can hold the exact maximum, and only those get math.fsum.
    # (An overflowed maximum makes the bound NaN, which keeps every shift.)
    top = float(sums.max())
    n = a.size
    slack = (n + 2) * _EPS * top + n * _TINY
    best = 0.0
    for i, j in zip(*np.nonzero(~(sums < top - 2.0 * slack))):
        s = _exact_sum(a * windows[i, j])
        if s > best:
            best = s
    return min(1.0, best / math.sqrt(sq_a * sq_b))
