"""Exact Weingarten calculus and small-instance transcript-divergence oracles.

These are the ground-truth routes used to validate the Monte Carlo moment
estimates and the mixture-vs-product divergence bounds on instances small
enough to enumerate.

The Weingarten layer works on the characters of S_k, so its cost grows with
the number of partitions of k, not with k!. The characters chi_lam(mu) come
from the Murnaghan-Nakayama rule, chi_lam(1) from the hook-length formula and
s_lam(1^d) from the hook-content formula. With them (Collins & Sniady,
Comm. Math. Phys. 264, 2006)

    Wg(mu, d) = (1/k!^2) sum_{lam |- k, l(lam) <= d} chi_lam(1)^2 chi_lam(mu) / s_lam(1^d)

and, with p_i = Tr(M^i) and s_lam(M) = sum_mu chi_lam(mu) p_mu(M) / z_mu,

    E_U[Tr(A U^dag B U)^k] = sum_lam chi_lam(1) s_lam(A) s_lam(B) / s_lam(1^d),

which is the Weingarten double sum over S_k x S_k regrouped by irreducible
characters. The same layer gives the exact second moment of the basic
tester's statistic Z = sum_i x_i^2, x_i = u_i^dag M u_i, for the columns u_i
of a Haar U. With F = sum_{lam |- 4} s_lam(M) chi_lam / prod_cells (d + content),

    E[Z^2] = d E[x_1^4] + d (d-1) E[x_1^2 x_2^2],
    E[x_1^4] = 24 s_(4)(M) / (d (d+1) (d+2) (d+3)),
    E[x_1^2 x_2^2] = F(1^4) + 2 F(2,1,1) + F(2,2).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DensityMatrix, ValidationError, check_hermitian
from .measurement import Basis, _block, outcome_distribution, phi_table
from .rng import haar_blocks

MAX_ORDER = 6
# exact_transcript_divergence refuses schedules with more transcripts than this.
MAX_TRANSCRIPTS = 10**6

# verify_moments_basic: the stated (d^-4) second-moment bound's multiplier, and
# the number of Haar unitaries drawn per stack (part of its stream contract).
_SECOND_MOMENT_MULTIPLIER = 1.5
_MOMENTS_CHUNK = 100_000


@lru_cache(maxsize=None)
def _partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of k in descending parts, from (k,) down to (1,) * k."""

    def descending(n: int, largest: int):
        if n == 0:
            yield ()
            return
        for first in range(min(n, largest), 0, -1):
            for rest in descending(n - first, first):
                yield (first,) + rest

    return tuple(descending(k, k))


@lru_cache(maxsize=None)
def _character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi_lam on cycle type mu, by the Murnaghan-Nakayama rule on beta-numbers.

    With beta_i = lam_i + len(lam) - 1 - i, removing a rim hook of length r
    moves one beta-number b to a free slot b - r >= 0. The hook's leg length
    is the number of beta-numbers strictly between b - r and b.
    """
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    n = len(lam)
    beta = [part + n - 1 - i for i, part in enumerate(lam)]
    total = 0
    for b in beta:
        if b < r or b - r in beta:
            continue
        leg = sum(b - r < c < b for c in beta)
        moved = sorted((b - r if c == b else c for c in beta), reverse=True)
        smaller = tuple(p for p in (c - (n - 1 - i) for i, c in enumerate(moved)) if p)
        total += (-1) ** leg * _character(smaller, rest)
    return total


@lru_cache(maxsize=None)
def _character_table(k: int) -> np.ndarray:
    """chi[i, j] = chi_lam(mu) for lam = _partitions(k)[i], mu = _partitions(k)[j]."""
    parts = _partitions(k)
    table = np.array([[_character(lam, mu) for mu in parts] for lam in parts], dtype=np.int64)
    table.flags.writeable = False  # shared by every caller of the cache
    return table


def _hooks_and_contents(lam: tuple[int, ...]) -> list[tuple[int, int]]:
    """(hook length, content j - i) of every cell (i, j) of the Young diagram of lam."""
    column_heights = [sum(part > j for part in lam) for j in range(lam[0])]
    return [(part - j + column_heights[j] - i - 1, j - i)
            for i, part in enumerate(lam) for j in range(part)]


def _dimension(lam: tuple[int, ...]) -> int:
    """chi_lam(1) = k! / prod of the hook lengths (hook-length formula)."""
    hooks = math.prod(h for h, _ in _hooks_and_contents(lam))
    return math.factorial(sum(lam)) // hooks


def _content_product(lam: tuple[int, ...], d: int) -> int:
    """prod over cells of (d + content).

    By the hook-content and hook-length formulas,
    s_lam(1^d) = prod (d + content) / prod hook = chi_lam(1) * this / k!.
    """
    return math.prod(d + c for _, c in _hooks_and_contents(lam))


@lru_cache(maxsize=None)
def _centralizer(mu: tuple[int, ...]) -> int:
    """z_mu = prod_i i^{m_i} m_i!, where m_i counts the parts of mu equal to i."""
    return math.prod(i**m * math.factorial(m) for i, m in Counter(mu).items())


def _check_order(order: int, d: int) -> None:
    if order < 1 or order > MAX_ORDER:
        raise ValidationError(f"order must be in 1..{MAX_ORDER}, got {order}")
    if d < order:
        raise ValidationError(f"need d >= order (d={d}, order={order})")


def _schur(mat: np.ndarray, order: int) -> np.ndarray:
    """s_lam(M) = sum_mu chi_lam(mu) p_mu(M) / z_mu for lam in _partitions(order),
    with p_i = Tr(M^i)."""
    acc = np.eye(mat.shape[0], dtype=complex)
    p = []
    for _ in range(order):
        acc = acc @ mat
        p.append(float(np.trace(acc).real))
    parts = _partitions(order)
    p_mu = np.array([math.prod(p[c - 1] for c in mu) for mu in parts])
    z = np.array([_centralizer(mu) for mu in parts], dtype=float)
    return _character_table(order) @ (p_mu / z)


class WeingartenTable:
    """Weingarten function values for S_order at one dimension, keyed by cycle type."""

    def __init__(self, order: int, values: dict[tuple[int, ...], float]):
        self.order = order
        self.values = values

    def __call__(self, cycle_type) -> float:
        key = tuple(cycle_type)
        if key not in self.values:
            raise ValidationError(f"{key} is not a cycle type of S_{self.order}")
        return self.values[key]


@lru_cache(maxsize=None)
def weingarten_table(order: int, d: int) -> WeingartenTable:
    """Wg(mu, d) for every cycle type mu of S_order, from the characters of S_order.

    Evaluates (1/k!^2) sum_lam chi_lam(1)^2 chi_lam(mu) / s_lam(1^d), which is
    sum_lam chi_lam(1) chi_lam(mu) / (k! prod_cells (d + content)), once per
    cycle type. The sum is taken exactly over a common integer denominator,
    so each value is rounded to float once. Requires d >= order, so every
    partition lam has at most d parts and s_lam(1^d) > 0.
    """
    _check_order(order, d)
    parts = _partitions(order)
    chi = _character_table(order)
    products = [_content_product(lam, d) for lam in parts]
    common = math.lcm(*products)
    weights = [_dimension(lam) * (common // prod) for lam, prod in zip(parts, products)]
    denominator = math.factorial(order) * common
    values = {mu: sum(w * int(chi[i, j]) for i, w in enumerate(weights)) / denominator
              for j, mu in enumerate(parts)}
    return WeingartenTable(order, values)


def haar_moment(a, b, order: int) -> float:
    """E_U[Tr(A U^dag B U)^order] as a sum over the partitions lam of order.

    Computes sum_lam chi_lam(1) s_lam(A) s_lam(B) / s_lam(1^d) with
    s_lam(M) = sum_mu chi_lam(mu) p_mu(M) / z_mu and p_i = Tr(M^i); d is the
    matrix dimension and must be >= order.
    """
    ma, mb = check_hermitian(a), check_hermitian(b)
    if ma.shape != mb.shape:
        raise ValidationError("A and B must share a dimension")
    d = ma.shape[0]
    _check_order(order, d)
    # chi_lam(1) / s_lam(1^d) = k! / prod_cells (d + content)
    weight = np.array([math.factorial(order) / _content_product(lam, d)
                       for lam in _partitions(order)])
    return float(np.sum(weight * _schur(ma, order) * _schur(mb, order)))


def _ez2_exact(mat: np.ndarray, d: int) -> float:
    """Exact E[Z^2] for Z = sum_i x_i^2, x_i = u_i^dag M u_i, over Haar U; needs d >= 4.

    F(sigma) = sum_lam s_lam(M) chi_lam(sigma) / prod_cells (d + content)
    is the class function sum_tau p_tau(M) Wg(sigma^-1 tau). Summing F over
    S_4 keeps only lam = (4), so E[x_1^4] = 24 s_(4)(M) / (d (d+1) (d+2) (d+3)),
    and E[x_1^2 x_2^2] sums F over the four permutations preserving {1, 2}
    and {3, 4}.
    """
    parts = _partitions(4)  # (4,) first
    coef = _schur(mat, 4) / np.array([_content_product(lam, d) for lam in parts], dtype=float)
    f = dict(zip(parts, coef @ _character_table(4)))
    e4 = 24 * coef[0]
    e22 = f[(1, 1, 1, 1)] + 2 * f[(2, 1, 1)] + f[(2, 2)]
    return float(d * e4 + d * (d - 1) * e22)


@dataclass
class MomentsReport:
    """Monte Carlo check of the Haar-basis squared-overlap moments."""

    d: int
    samples: int
    frobenius_sq: float
    ez_mc: float
    ez_se: float
    ez_exact: float
    ez2_mc: float
    ez2_se: float
    ez2_bound: float
    first_ok: bool
    second_ok: bool
    ez2_exact: float | None = None


def verify_moments_basic(m, samples: int, rng: np.random.Generator) -> MomentsReport:
    """Estimate E[Z], E[Z^2] for Z = sum_i (u_i^dag M u_i)^2 by Monte Carlo.

    The first clause passes when the estimate matches the exact mean within
    3 standard errors. The second compares E[Z^2] for traceless M against
    1.5 ||M||_HS^4 / d^4 (_SECOND_MOMENT_MULTIPLIER).

    That d^-4 clause cannot hold for any nonzero traceless M at d >= 2:
    E[Z^2] >= (E[Z])^2 = ||M||_HS^4/(d+1)^2, which exceeds 1.5 ||M||_HS^4/d^4.
    So `second_ok` is False there by construction and only reports that the
    stated bound fails. The quantity to check is `ez2_exact` (exact from the
    S_4 characters, d >= 4), whose true scale is ||M||_HS^4/d^2.

    Each chunk of up to _MOMENTS_CHUNK samples is one Haar stack, read
    sub-stack by sub-stack from ``haar_blocks``, which streams the real parts
    and, at d <= 6, orthonormalises by Gram-Schmidt. Each sub-stack is
    measured as a throwaway ``Basis.trusted``, which forms no U^dag U. Only
    the per-sample Z (8 * take bytes) and a fixed number of sub-stacks are
    held, whatever d^2 * samples, and the estimates equal those of the
    one-shot stack bit for bit.
    """
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    mat = check_hermitian(m)
    d = mat.shape[0]
    tr = float(np.trace(mat).real)
    hs2 = float(np.trace(mat @ mat).real)
    block = _block(mat)

    z_sum = z2_sum = z4_sum = 0.0
    done = 0
    while done < samples:
        take = min(_MOMENTS_CHUNK, samples - done)
        z = np.empty(take)
        start = 0
        for q in haar_blocks(d, rng, take):
            x = Basis.trusted(q).weights(block)
            z[start:start + len(q)] = (x**2).sum(axis=1)
            start += len(q)
        z_sum += z.sum()
        z2_sum += (z**2).sum()
        z4_sum += (z**4).sum()
        done += take
    ez_mc = z_sum / samples
    ez2_mc = z2_sum / samples
    ez_se = math.sqrt(max(z2_sum / samples - ez_mc**2, 0.0) / samples)
    ez2_se = math.sqrt(max(z4_sum / samples - ez2_mc**2, 0.0) / samples)

    ez_exact = (tr**2 + hs2) / (d + 1)
    ez2_exact = _ez2_exact(mat, d) if d >= 4 else None
    bound = _SECOND_MOMENT_MULTIPLIER * hs2**2 / d**4
    return MomentsReport(
        d=d,
        samples=samples,
        frobenius_sq=hs2,
        ez_mc=float(ez_mc),
        ez_se=float(ez_se),
        ez_exact=float(ez_exact),
        ez2_mc=float(ez2_mc),
        ez2_se=float(ez2_se),
        ez2_bound=float(bound),
        first_ok=bool(abs(ez_mc - ez_exact) <= 3 * ez_se),
        second_ok=bool(ez2_mc - 3 * ez2_se <= bound),
        ez2_exact=ez2_exact,
    )


@dataclass
class DivergenceReport:
    """Exact transcript-level divergences between the null product law and a mixture."""

    tv: float
    chi2: float
    kl: float
    num_transcripts: int
    min_likelihood_ratio: float
    p0: np.ndarray
    p1: np.ndarray


def _product_distribution(state, schedule: Basis) -> np.ndarray:
    """Law of the whole transcript, first copy major: one stacked outcome law, folded."""
    out = np.ones(1)
    for row in outcome_distribution(state, schedule):
        out = np.outer(out, row).ravel()
    return out


def transcript_count(d: int, copies: int) -> int:
    """d**copies, the transcripts of a rank-1 schedule of ``copies`` bases in
    dimension d; past MAX_TRANSCRIPTS, a ValidationError that gives both."""
    size = d ** min(copies, 64)  # at d >= 2, 64 copies pass the limit already
    if size > MAX_TRANSCRIPTS:
        shown = size if copies <= 64 else f"more than {size}"
        raise ValidationError(f"transcript space d**copies = {d}**{copies} = {shown} "
                              f"exceeds MAX_TRANSCRIPTS = {MAX_TRANSCRIPTS}")
    return size


def exact_transcript_divergence(sigma: DensityMatrix, ensemble,
                                schedule: Basis) -> DivergenceReport:
    """TV / chi-squared / KL between measuring sigma and measuring the mixture.

    ``schedule`` is a nonadaptive rank-1 schedule held as one (N, d, d)
    ``Basis`` stack, one basis per copy, so it has d**N transcripts, at most
    MAX_TRANSCRIPTS; N may be 0. Rank 1 loses nothing: refining a POVM into
    rank-1 elements never lowers the divergence (data processing).
    ``ensemble`` is a nonempty iterable of equally likely states, such as a
    finite ensemble's list or a generator of Monte Carlo parameter draws,
    which is read once, one state at a time; the mixture's law is the sum of
    the states' transcript laws over their count.
    """
    if schedule.u.ndim != 3:
        raise ValidationError(f"schedule must be an (N, d, d) stack, got {schedule.u.shape}")
    size = transcript_count(schedule.dim, schedule.u.shape[0])
    p0 = _product_distribution(sigma, schedule)
    p1 = np.zeros_like(p0)
    count = 0
    for state in ensemble:
        p1 += _product_distribution(state, schedule)
        count += 1
    if not count:
        raise ValidationError("the ensemble holds no state")
    p1 /= count

    tv = float(np.abs(p1 - p0).sum() / 2)
    pos = p0 > 0
    if ((~pos) & (p1 > 1e-15)).any():
        chi2 = math.inf
        kl = math.inf
    else:
        chi2 = float(((p1[pos] - p0[pos]) ** 2 / p0[pos]).sum())
        mask = pos & (p1 > 0)
        kl = float((p1[mask] * np.log(p1[mask] / p0[mask])).sum())
    ratios = p1[pos] / p0[pos]
    return DivergenceReport(
        tv=tv,
        chi2=chi2,
        kl=kl,
        num_transcripts=int(size),
        min_likelihood_ratio=float(ratios.min()) if ratios.size else 1.0,
        p0=p0,
        p1=p1,
    )


def phi_pairs_finite(m, sigma, ensemble) -> list[float]:
    """phi over all ordered pairs of a finite ensemble's equally likely states
    (for the moment-method bound with exact pair averaging). The ensemble is
    read once, so a generator gives the pairs of the states it yields."""
    return phi_table(m, sigma, list(ensemble)).ravel().tolist()


def ingster_bound(phi_samples, num_copies: int) -> tuple[float, float]:
    """Moment-method chi-squared bound E[(1 + phi)^N] - 1 with its standard error."""
    arr = np.asarray(phi_samples, dtype=float)
    if arr.size == 0:
        raise ValidationError("need at least one phi sample")
    if (1 + arr <= 0).any():
        raise ValidationError("1 + phi must stay positive")
    vals = (1 + arr) ** num_copies
    est = float(vals.mean() - 1.0)
    se = float(vals.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return est, se

