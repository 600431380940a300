"""Classical distribution subroutines: the two-sample L2 tester and the 2/3-quasinorm functional."""

from __future__ import annotations

import numpy as np

from .linalg import ValidationError, spectral_quasinorm
from .spectrum import _lightest


def _paired_counts(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two histograms, or two (r, k) stacks of them, as int64 arrays, each
    check made once: the shapes agree and no count is negative."""
    a = np.asarray(x, dtype=np.int64)
    b = np.asarray(y, dtype=np.int64)
    if a.shape != b.shape:
        raise ValidationError(f"count shapes differ: {a.shape} vs {b.shape}")
    if a.ndim not in (1, 2) or min(a.min(initial=0), b.min(initial=0)) < 0:
        raise ValidationError("counts must be a nonnegative vector or a stack of them")
    return a, b


def _statistic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = a.astype(float), b.astype(float)
    return ((a - b) ** 2 - a - b).sum(axis=-1)


def l2_statistic(x, y):
    """Z = sum_i [(X_i - Y_i)^2 - X_i - Y_i] of two count vectors; one value
    per row of two (r, k) stacks.

    Under multinomial sampling of N draws from p and q,
    E[Z] = N^2 ||p - q||_2^2 - N(||p||_2^2 + ||q||_2^2); the O(N) term is the
    price of eschewing Poissonization and is dwarfed by the N^2 threshold.
    """
    z = _statistic(*_paired_counts(x, y))
    return float(z) if z.ndim == 0 else z


def l2_two_sample_test(x, y, eps: float):
    """Accept/reject equality of two sampled distributions at L2 gap eps.

    ``x`` and ``y`` are one pair of count vectors or two (r, k) stacks
    compared row by row; paired rows must have the same sample size N. A
    pair rejects when Z > N^2 eps^2 / 2; ties accept. Returns True on
    accept: a bool for one pair, a boolean array with one entry per row for
    stacks.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    a, b = _paired_counts(x, y)
    n, m = a.sum(axis=-1), b.sum(axis=-1)
    if np.any(m != n):
        raise ValidationError(f"sample sizes differ: {n} vs {m}")
    # N^2 in float64: as int64 it overflows once N exceeds about 3e9 copies,
    # which conditional stages at small eps reach.
    accept = np.asarray(_statistic(a, b) <= np.asarray(n, dtype=float) ** 2 * eps**2 / 2)
    return bool(accept) if accept.ndim == 0 else accept


def l23_functional(p, eps: float) -> float:
    """||p^{-max}_{-eps}||_{2/3}: drop the top entry, then the smallest entries
    greedily up to eps total mass, and return the 2/3-quasinorm of the rest."""
    arr = np.asarray(p, dtype=float).copy()
    if arr.size == 0:
        return 0.0
    arr[int(np.argmax(arr))] = 0.0
    arr[_lightest(arr, eps)] = 0.0
    return spectral_quasinorm(arr, 2 / 3)
