"""Classical distribution subroutines: the two-sample L2 tester and the 2/3-quasinorm functional."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError
from .spectrum import _greedy_prefix


@dataclass(frozen=True)
class SampleCounts:
    """Histogram of N samples over a finite domain, or an (r, k) stack of them.

    A stack holds one histogram per row; the testers below compare two stacks
    row by row.
    """

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", c)
        if c.ndim not in (1, 2) or (c < 0).any():
            raise ValidationError("counts must be a nonnegative vector or a stack of them")

    @property
    def total(self):
        """Sample size N: an int, or an array with one N per row of a stack."""
        t = self.counts.sum(axis=-1)
        return int(t) if t.ndim == 0 else t


def l2_statistic(x: SampleCounts, y: SampleCounts):
    """Z = sum_i [(X_i - Y_i)^2 - X_i - Y_i]; one value per row of a stack.

    Under multinomial sampling of N draws from p and q,
    E[Z] = N^2 ||p - q||_2^2 - N(||p||_2^2 + ||q||_2^2); the O(N) term is the
    price of eschewing Poissonization and is dwarfed by the N^2 threshold.
    """
    if x.counts.shape != y.counts.shape:
        raise ValidationError(f"count shapes differ: {x.counts.shape} vs {y.counts.shape}")
    a = x.counts.astype(float)
    b = y.counts.astype(float)
    z = ((a - b) ** 2 - a - b).sum(axis=-1)
    return float(z) if z.ndim == 0 else z


def l2_two_sample_test(x: SampleCounts, y: SampleCounts, eps: float):
    """Accept/reject equality of two sampled distributions at L2 gap eps.

    ``x`` and ``y`` are one pair of histograms or two (r, k) stacks compared
    row by row; paired rows must have the same sample size N. A pair rejects
    when Z > N^2 eps^2 / 2; ties accept. Returns True on accept: a bool for
    one pair, a boolean array with one entry per row for stacks.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    z = l2_statistic(x, y)
    n = x.total
    if np.any(y.total != n):
        raise ValidationError(f"sample sizes differ: {n} vs {y.total}")
    # N^2 in float64: as int64 it overflows once N exceeds about 3e9 copies,
    # which conditional stages at small eps reach.
    accept = np.asarray(z <= np.asarray(n, dtype=float) ** 2 * eps**2 / 2)
    return bool(accept) if accept.ndim == 0 else accept


def l23_functional(p, eps: float) -> float:
    """||p^{-max}_{-eps}||_{2/3}: drop the top entry, then the smallest entries
    greedily up to eps total mass, and return the 2/3-quasinorm of the rest."""
    arr = np.asarray(p, dtype=float).copy()
    if arr.size == 0:
        return 0.0
    arr[int(np.argmax(arr))] = 0.0
    support = np.flatnonzero(arr > 0)
    order = support[np.lexsort((support, arr[support]))]
    arr[_greedy_prefix(order, arr, eps)] = 0.0
    total = float((arr ** (2 / 3)).sum())
    return total ** 1.5
