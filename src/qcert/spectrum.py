"""Spectrum bucketing, mass removal, and predicted copy-complexity values.

A spectrum is the eigenvalue list of a diagonal reference state. Buckets
are dyadic: index i belongs to bucket j iff lambda_i in [2^-(j+1), 2^-j).
The half-open convention puts boundary values in the lower-exponent bucket
so the buckets form an exact partition of the support; zero entries belong
to no bucket.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import ValidationError


def _floored_log(d: int, eps: float) -> float:
    """Natural log of d/eps, floored at 1 to avoid division blow-up."""
    return max(math.log(d / eps), 1.0)


@dataclass(frozen=True)
class Spectrum:
    """Nonnegative eigenvalues summing to 1; entry order carries the index labels."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if lam.ndim != 1 or lam.size == 0:
            raise ValidationError("spectrum must be a nonempty 1-d sequence")
        if (lam < 0).any():
            raise ValidationError(f"negative eigenvalue: min = {lam.min():.3e}")
        total = lam.sum()
        if not abs(total - 1.0) <= 1e-9:  # a NaN entry makes the sum NaN: rejected
            raise ValidationError(f"spectrum sums to {float(total)!r}, not 1 within 1e-9")

    @property
    def dim(self) -> int:
        return int(self.lambdas.size)

    @classmethod
    def from_json(cls, text: str) -> "Spectrum":
        """A JSON list of eigenvalues, or an object holding one under "lambdas"."""
        try:
            data = json.loads(text)
            lam = np.asarray(data["lambdas"] if isinstance(data, dict) else data, dtype=float)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValidationError(f"not a list of eigenvalues nor an object with one under "
                                  f"'lambdas': {exc!r}") from None
        return cls(lam)


def bucket_index(lam: float) -> int:
    """Bucket j with lam in [2^-(j+1), 2^-j); exact, via frexp."""
    _, e = math.frexp(lam)
    return max(-e, 0)


@dataclass(frozen=True)
class BucketDecomposition:
    """Partition of the support of a spectrum into dyadic buckets."""

    ambient_dim: int
    by_level: dict[int, np.ndarray] = field(repr=False)

    @property
    def levels(self) -> list[int]:
        return sorted(self.by_level)

    def indices(self, j: int) -> np.ndarray:
        return self.by_level[j]

    def size(self, j: int) -> int:
        return int(self.by_level[j].size)

    def level_array(self) -> np.ndarray:
        """Per-index bucket level; -1 for indices outside every bucket."""
        out = np.full(self.ambient_dim, -1, dtype=int)
        for j, idx in self.by_level.items():
            out[idx] = j
        return out


def bucketize_values(values) -> BucketDecomposition:
    lam = np.asarray(values, dtype=float)
    by_level: dict[int, list[int]] = {}
    for i, v in enumerate(lam):
        if v <= 0:
            continue
        by_level.setdefault(bucket_index(v), []).append(i)
    packed = {j: np.asarray(ix, dtype=int) for j, ix in by_level.items()}
    return BucketDecomposition(ambient_dim=lam.size, by_level=packed)


def bucketize(spec: Spectrum) -> BucketDecomposition:
    """Bucket the support of a spectrum; zero entries are skipped."""
    return bucketize_values(spec.lambdas)


@dataclass(frozen=True)
class MassRemovalResult:
    """Outcome of one of the three mass-removal procedures.

    ``effective`` is the variant's final spectrum (defines d_eff and the
    fidelity input). For the lower-nonadaptive variant, ``trimmed`` has the
    heaviest entry plus the low-mass tail zeroed (the 2/5-norm object) and
    ``kept`` has tail plus light buckets zeroed (the 1/2-norm object).
    """

    tail: tuple[int, ...]
    top_index: int | None
    effective: np.ndarray
    d_eff: int
    removed_mass: float
    trimmed: np.ndarray | None = None
    kept: np.ndarray | None = None


def _check_eps(eps: float):
    if not 0 < eps < 1:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")


def _greedy_prefix(order: np.ndarray, lam: np.ndarray, cap: float) -> np.ndarray:
    """Largest prefix of ``order`` whose lambda-mass stays <= cap."""
    mass = np.cumsum(lam[order])
    slack = 1e-12 * max(cap, 1.0)  # absorb cumsum roundoff at exact boundaries
    take = int(np.searchsorted(mass, cap + slack, side="right"))
    return order[:take]


def remove_mass_lower_nonadaptive(spec: Spectrum, eps: float) -> MassRemovalResult:
    """Tail/light-bucket removal used by the nonadaptive lower bound.

    Support indices are sorted ascending by lambda_i / d_{j(i)}^2 (ties by
    original index); the tail is the largest prefix of mass <= 3*eps. Light
    buckets are those whose surviving mass is <= 2*eps/log(d/eps). The
    effective spectrum additionally drops the smallest survivors greedily,
    capped at 2*eps of extra mass.
    """
    _check_eps(eps)
    lam = spec.lambdas
    d = spec.dim
    buckets = bucketize(spec)
    level = buckets.level_array()
    sizes = {j: buckets.size(j) for j in buckets.levels}

    support = np.flatnonzero(lam > 0)
    ratio = np.array([lam[i] / sizes[level[i]] ** 2 for i in support])
    order = support[np.lexsort((support, ratio))]
    tail = _greedy_prefix(order, lam, 3 * eps)
    tail_set = set(tail.tolist())

    light_cut = 2 * eps / _floored_log(d, eps)
    light: list[int] = []
    for j in buckets.levels:
        idx = buckets.indices(j)
        surviving = [i for i in idx.tolist() if i not in tail_set]
        if surviving and lam[surviving].sum() <= light_cut:
            light.extend(surviving)
    light_arr = np.asarray(sorted(light), dtype=int)

    top = int(np.argmax(lam))
    trimmed = lam.copy()
    trimmed[tail] = 0.0
    trimmed[top] = 0.0

    kept = lam.copy()
    kept[tail] = 0.0
    kept[light_arr] = 0.0

    survivors = np.flatnonzero(kept > 0)
    surv_order = survivors[np.lexsort((survivors, kept[survivors]))]
    extra = _greedy_prefix(surv_order, kept, 2 * eps)
    effective = kept.copy()
    effective[extra] = 0.0

    return MassRemovalResult(
        tail=tuple(sorted(tail.tolist())),
        top_index=top,
        effective=effective,
        d_eff=int((effective > 0).sum()),
        removed_mass=float(1.0 - effective.sum()),
        trimmed=trimmed,
        kept=kept,
    )


def remove_mass_adaptive(spec: Spectrum, eps: float) -> MassRemovalResult:
    """Adaptive-lower-bound removal: plain ascending sort, mass cap 4*eps,
    then the largest entry is zeroed as well. Zero entries sort first and
    join the tail for free."""
    _check_eps(eps)
    lam = spec.lambdas
    idx = np.arange(spec.dim)
    order = np.lexsort((idx, lam))
    tail = _greedy_prefix(order, lam, 4 * eps)

    top = int(np.argmax(lam))
    effective = lam.copy()
    effective[tail] = 0.0
    effective[top] = 0.0

    return MassRemovalResult(
        tail=tuple(sorted(tail.tolist())),
        top_index=top,
        effective=effective,
        d_eff=int((effective > 0).sum()),
        removed_mass=float(1.0 - effective.sum()),
    )


def remove_mass_upper(spec: Spectrum, eps: float) -> MassRemovalResult:
    """Upper-bound removal: ascending sort, mass cap eps^2/20, no top removal.

    Zero eigenvalues sort first and always belong to the tail; certification
    relies on this so the kernel of a rank-deficient reference state stays
    covered by the tail projector.
    """
    _check_eps(eps)
    lam = spec.lambdas
    idx = np.arange(spec.dim)
    order = np.lexsort((idx, lam))
    tail = _greedy_prefix(order, lam, eps**2 / 20)

    effective = lam.copy()
    effective[tail] = 0.0

    return MassRemovalResult(
        tail=tuple(sorted(tail.tolist())),
        top_index=None,
        effective=effective,
        d_eff=int((effective > 0).sum()),
        removed_mass=float(1.0 - effective.sum()),
    )


def _rate(d: int, d_eff: int, exponent: float, effective: np.ndarray, eps: float) -> float:
    """d * d_eff^exponent * F(normalized effective, mm) / eps^2, unit constants."""
    total = effective.sum()
    if total <= 0 or d_eff == 0:
        return 0.0
    half_norm = float(np.sqrt(effective).sum() ** 2)  # Schatten-1/2 of the raw survivors
    fid = half_norm / (d * total**2)
    return d * d_eff**exponent * fid / eps**2


@dataclass(frozen=True)
class PredictedBounds:
    """Leading-order copy-complexity values with all polylog factors set to 1."""

    lower_nonadaptive: float
    lower_adaptive: float
    upper: float
    log_factor: float
    degenerate: bool


def predicted_bounds(spec: Spectrum, eps: float) -> PredictedBounds:
    """Evaluate the three rate formulas with their respective mass removals."""
    _check_eps(eps)
    d = spec.dim
    res_n = remove_mass_lower_nonadaptive(spec, eps)
    res_a = remove_mass_adaptive(spec, eps)
    res_u = remove_mass_upper(spec, eps)

    lower_n = _rate(d, res_n.d_eff, 0.5, res_n.effective, eps)
    lower_a = _rate(d, res_a.d_eff, 1 / 3, res_a.effective, eps)
    upper = _rate(d, res_u.d_eff, 0.5, res_u.effective, eps)
    degenerate = res_n.d_eff == 0 or res_a.d_eff == 0 or res_u.d_eff == 0
    return PredictedBounds(
        lower_nonadaptive=lower_n,
        lower_adaptive=lower_a,
        upper=upper,
        log_factor=_floored_log(d, eps),
        degenerate=degenerate,
    )
