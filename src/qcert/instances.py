"""Hard alternative ensembles: bucketwise Paninski, off-diagonal isometry, corner.

Each constructor produces density matrices at a prescribed trace distance
from a diagonal reference state; preconditions guarantee positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, ValidationError
from .rng import block_haar, haar_isometry
from .spectrum import BucketDecomposition, Spectrum, bucketize

ZETA_RESIDUAL = 1e-10


class InfeasibleError(ValidationError):
    """Requested parameters violate a validity precondition."""

    def __init__(self, message: str, max_eps: float | None = None):
        super().__init__(message)
        self.max_eps = max_eps


class EnsembleUnavailableError(InfeasibleError):
    """The construction is vacuous for this spectrum (no multi-element bucket);
    the classical lower-bound path applies instead."""


@dataclass(frozen=True)
class PaninskiInstance:
    """Paired +/- diagonal perturbations per multi-element bucket.

    eps_per_bucket[j] <= 2^-(j+1) keeps the perturbed spectrum nonnegative;
    the magnitudes satisfy sum_j 2*floor(d_j/2)*eps_j = eps.
    """

    buckets: BucketDecomposition
    eps: float
    eps_per_bucket: dict[int, float]

    def __post_init__(self):
        total = 0.0
        for j, e in self.eps_per_bucket.items():
            dj = self.buckets.size(j)
            if e > 2.0 ** (-j - 1) + 1e-12:
                raise ValidationError(f"eps_{j} = {e} exceeds 2^-(j+1)")
            total += 2 * (dj // 2) * e
        if abs(total - self.eps) > 1e-8:
            raise ValidationError(f"bucket magnitudes sum to {total!r}, want {self.eps}")


def _magnitudes(zeta: float, multi: list[tuple[int, int]]) -> dict[int, float]:
    """eps_j = min(2^-(j+1), zeta 2^(-2(j+1)/3) d_j^(2/3)) for each bucket (j, d_j)."""
    return {j: min(2.0 ** (-j - 1), zeta * 2.0 ** (-2 * (j + 1) / 3) * dj ** (2 / 3))
            for j, dj in multi}


def _magnitude_sum(zeta: float, multi: list[tuple[int, int]]) -> float:
    """sum_j 2 floor(d_j/2) eps_j; at zeta = inf every eps_j is its cap 2^-(j+1)."""
    mags = _magnitudes(zeta, multi)
    return sum(2 * (dj // 2) * mags[j] for j, dj in multi)


def tune_paninski(spec: Spectrum, eps: float) -> PaninskiInstance:
    """Solve for the normalizer zeta by bisection so the magnitudes sum to eps."""
    buckets = bucketize(spec)
    multi = [(j, buckets.size(j)) for j in buckets.levels if buckets.size(j) > 1]
    if not multi:
        raise EnsembleUnavailableError(
            "no bucket has more than one element; the ensemble is vacuous "
            "(classical lower-bound path applies)"
        )
    saturation = _magnitude_sum(math.inf, multi)
    if eps > saturation + 1e-12:
        raise InfeasibleError(
            f"eps = {eps} exceeds the saturation value {saturation}", max_eps=saturation
        )

    if eps >= saturation - 1e-12:
        zeta = math.inf
    else:
        hi = 2.0 ** max(j for j, _ in multi)
        while _magnitude_sum(hi, multi) < eps:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if _magnitude_sum(mid, multi) < eps:
                lo = mid
            else:
                hi = mid
            if abs(_magnitude_sum(hi, multi) - eps) <= ZETA_RESIDUAL:
                break
        zeta = hi

    return PaninskiInstance(buckets, eps, _magnitudes(zeta, multi))


def perturbation_diagonal(inst: PaninskiInstance) -> np.ndarray:
    """The +/-eps_j diagonal, paired within the leading 2*floor(d_j/2) bucket coords."""
    diag = np.zeros(inst.buckets.ambient_dim)
    for j, e in inst.eps_per_bucket.items():
        idx = inst.buckets.indices(j)
        half = len(idx) // 2
        diag[idx[:half]] = e
        diag[idx[half : 2 * half]] = -e
    return diag


def sample_paninski(sigma: DensityMatrix, inst: PaninskiInstance,
                    rng: np.random.Generator) -> DensityMatrix:
    """One draw sigma + U^dag E U with a fresh block-Haar U."""
    if sigma.dim != inst.buckets.ambient_dim:
        raise ValidationError("state dimension does not match the tuned instance")
    u = block_haar(inst.buckets, rng)
    pert = u.conj().T @ np.diag(perturbation_diagonal(inst)).astype(complex) @ u
    return DensityMatrix(sigma.mat + pert)


@dataclass(frozen=True)
class OffDiagInstance:
    """A scaled Haar isometry planted between two bucket index sets.

    For distinct buckets the sets are S_j (rows) and S_j' (cols) with
    d_j >= d_j'; for j = j' a bucket of size > 1 splits into contiguous
    halves of sizes ceil(d_j/2), floor(d_j/2).
    """

    j_row: int
    j_col: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    eps: float
    max_eps: float

    @property
    def amplitude(self) -> float:
        return self.eps / (2 * len(self.cols))


def plan_offdiag(
    spec: Spectrum,
    eps: float,
    j_row: int | None = None,
    j_col: int | None = None,
) -> OffDiagInstance:
    """Choose the bucket pair and validate the feasibility bound on eps.

    Defaults: rows from the bucket maximizing d_j, columns from the bucket
    maximizing d_j^2 2^-j (ties to the smaller level).
    """
    buckets = bucketize(spec)
    levels = buckets.levels
    if not levels:
        raise ValidationError("empty spectrum")
    if j_row is None:
        j_row = min(levels, key=lambda j: (-buckets.size(j), j))
    if j_col is None:
        j_col = min(levels, key=lambda j: (-(buckets.size(j) ** 2) * 2.0 ** (-j), j))
    if buckets.size(j_row) < buckets.size(j_col):
        j_row, j_col = j_col, j_row

    if j_row == j_col:
        idx = buckets.indices(j_row)
        if len(idx) < 2:
            raise InfeasibleError(f"bucket {j_row} has a single element; no split possible")
        half = -(-len(idx) // 2)
        rows, cols = idx[:half], idx[half:]
    else:
        rows, cols = buckets.indices(j_row), buckets.indices(j_col)

    max_eps = len(cols) * 2.0 ** (-(j_row + j_col) / 2)
    if eps > max_eps + 1e-12:
        raise InfeasibleError(
            f"eps = {eps} exceeds the positivity bound {max_eps} for buckets "
            f"({j_row}, {j_col})",
            max_eps=max_eps,
        )
    return OffDiagInstance(j_row, j_col, tuple(rows.tolist()), tuple(cols.tolist()), eps, max_eps)


def build_offdiag(sigma: DensityMatrix, inst: OffDiagInstance,
                  rng: np.random.Generator) -> DensityMatrix:
    """sigma plus the Hermitian dilation of amplitude * W, W a Haar isometry."""
    w = haar_isometry(len(inst.rows), len(inst.cols), rng)
    mat = sigma.mat.copy()
    block = inst.amplitude * w
    mat[np.ix_(inst.rows, inst.cols)] += block
    mat[np.ix_(inst.cols, inst.rows)] += block.conj().T
    return DensityMatrix(mat)


def plan_corner(spec: Spectrum, eps: float) -> tuple[int, int]:
    """(top, second): the two largest entries, which a +/- eps/2 off-diagonal
    perturbation couples, ties to the smaller index."""
    lam = spec.lambdas
    if lam.size < 2:
        raise InfeasibleError("corner construction needs dimension >= 2")
    order = np.lexsort((np.arange(lam.size), -lam))
    top, second = int(order[0]), int(order[1])
    if lam[top] < 0.75:
        raise InfeasibleError(f"largest entry {lam[top]} < 3/4")
    if eps > 0.5:
        raise InfeasibleError(f"eps = {eps} > 1/2", max_eps=0.5)
    return top, second


def build_corner(sigma: DensityMatrix, eps: float, u: int) -> DensityMatrix:
    """The corner state: diagonal shifted by -/+ eps^2/4, off-diagonal (eps/2)*u.

    Positivity is checked numerically; it can genuinely fail when the
    second-largest entry is below ~eps^2/8, in which case the hypothesis
    violation is reported rather than silently clipped.
    """
    if u not in (-1, 1):
        raise ValidationError(f"u must be +1 or -1, got {u}")
    i1, i2 = plan_corner(Spectrum(sigma.diagonal()), eps)
    mat = sigma.mat.copy()
    mat[i1, i1] -= eps**2 / 4
    mat[i2, i2] += eps**2 / 4
    mat[i1, i2] += (eps / 2) * u
    mat[i2, i1] += (eps / 2) * u
    try:
        return DensityMatrix(mat)
    except ValidationError as exc:
        raise InfeasibleError(
            f"corner perturbation is not positive for this spectrum: {exc}"
        ) from exc


def corner_ensemble(sigma: DensityMatrix, eps: float) -> list[DensityMatrix]:
    """The two equally likely corner alternatives."""
    return [build_corner(sigma, eps, +1), build_corner(sigma, eps, -1)]
