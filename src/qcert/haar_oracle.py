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

The class data is computed once per process. Per order k (``_classes``):
the partitions, chi_lam(mu) (a read-only table, and its columns as Python
ints), z_mu and chi_lam(1), from one walk over the hooks and contents of each
lam. Per (k, d) (``_classes_at``): the content products prod_cells (d + content)
and the weights k! / product, as read-only arrays. A call then does only
matrix work. ``haar_moment`` forms Tr(A^i) and Tr(B^i) for i = 1..k in one
stacked pass of k - 1 matmuls, starting from A and B, and combines them with
the cached tables. ``_ez2_exact`` does the same for one matrix at k = 4.
``weingarten_table``, which is cached per (k, d), makes one exact integer sum
per cycle type.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DensityMatrix, ValidationError, check_hermitian
from .measurement import Basis, _block, outcome_distribution
from .rng import _check_count, haar_blocks

MAX_ORDER = 6
# exact_transcript_divergence refuses schedules with more transcripts than this.
MAX_TRANSCRIPTS = 10**6

# verify_moments_basic: the stated (d^-4) second-moment bound's multiplier, and
# the number of Haar unitaries drawn per stack (part of its stream contract).
_SECOND_MOMENT_MULTIPLIER = 1.5
_MOMENTS_CHUNK = 100_000


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


def _hooks_and_contents(lam: tuple[int, ...]) -> list[tuple[int, int]]:
    """(hook length, content j - i) of every cell (i, j) of the Young diagram of lam."""
    column_heights = [sum(part > j for part in lam) for j in range(lam[0])]
    return [(part - j + column_heights[j] - i - 1, j - i)
            for i, part in enumerate(lam) for j in range(part)]


def _read_only(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False  # shared by every caller of the cache
    return out


@dataclass(frozen=True)
class _Classes:
    """The class data of S_k that depends on k alone; ``_classes`` builds it once per k.

    Row i of ``chi`` is lam = parts[i] and column j is mu = parts[j], so the
    trivial character is row 0 and the identity class (1^k) the last column.
    """

    parts: tuple[tuple[int, ...], ...]
    chi: np.ndarray  # chi[i, j] = chi_lam(mu), exact in float64, the dtype it multiplies
    columns: tuple[tuple[int, ...], ...]  # chi[:, j] as Python ints, for exact sums
    z: np.ndarray  # z_mu = prod_i i^{m_i} m_i!, m_i the parts of mu equal to i
    dims: tuple[int, ...]  # chi_lam(1) = k! / prod of the hook lengths
    contents: tuple[tuple[int, ...], ...]  # the content j - i of every cell of lam
    # cycles[j] indexes Tr(M^c) for each part c of mu = parts[j] in the row
    # (Tr M, ..., Tr M^k, 1); the trailing 1 pads mu to k factors.
    cycles: np.ndarray


@lru_cache(maxsize=None)
def _classes(k: int) -> _Classes:
    parts = _partitions(k)
    rows = [[_character(lam, mu) for mu in parts] for lam in parts]
    cells = [_hooks_and_contents(lam) for lam in parts]
    return _Classes(
        parts=parts,
        chi=_read_only(rows, float),
        columns=tuple(zip(*rows)),
        z=_read_only([math.prod(i**m * math.factorial(m) for i, m in Counter(mu).items())
                      for mu in parts], float),
        dims=tuple(math.factorial(k) // math.prod(h for h, _ in lam_cells) for lam_cells in cells),
        contents=tuple(tuple(c for _, c in lam_cells) for lam_cells in cells),
        cycles=_read_only([[c - 1 for c in mu] + [k] * (k - len(mu)) for mu in parts], np.intp),
    )


@dataclass(frozen=True)
class _ClassesAtD:
    """The class data of S_k at dimension d; ``_classes_at`` builds it once per (k, d).

    By the hook-content and hook-length formulas,
    s_lam(1^d) = prod_cells (d + content) / prod hook = chi_lam(1) * product / k!.
    """

    products: tuple[int, ...]  # prod_cells (d + content) of each lam
    divisors: np.ndarray  # the same as floats
    weights: np.ndarray  # chi_lam(1) / s_lam(1^d) = k! / product


@lru_cache(maxsize=None)
def _classes_at(k: int, d: int) -> _ClassesAtD:
    products = tuple(math.prod(d + c for c in contents) for contents in _classes(k).contents)
    return _ClassesAtD(
        products=products,
        divisors=_read_only(products, float),
        weights=_read_only([math.factorial(k) / prod for prod in products], float),
    )


def _check_order(order: int, d: int) -> None:
    """Integers (not bools, by rng._check_count) with 1 <= order <= MAX_ORDER and d >= order."""
    _check_count("order", order, 1)
    if order > MAX_ORDER:
        raise ValidationError(f"order must be in 1..{MAX_ORDER}, got {order}")
    _check_count("d", d, order)


def _schur(mats: np.ndarray, order: int) -> np.ndarray:
    """s[n, i] = s_lam(M_n) = sum_mu chi_lam(mu) p_mu(M_n) / z_mu for lam =
    _partitions(order)[i] and each M_n of a complex (N, d, d) stack, with
    p_i = Tr(M^i).

    The powers M^2, ..., M^order come from order - 1 stacked matmuls, which give
    each matrix the bits of its own matmul chain, and each trace sums its
    diagonal as np.trace does; p_mu multiplies its factors left to right.
    """
    cls = _classes(order)
    diagonals = np.zeros((len(mats), order + 1, mats.shape[-1]), dtype=complex)
    diagonals[:, order, 0] = 1  # a row that sums to exactly 1 pads each p_mu
    power = mats
    for i in range(order):
        if i:
            power = power @ mats
        diagonals[:, i] = power.diagonal(axis1=1, axis2=2)
    traces = np.add.reduce(diagonals, axis=-1).real
    p_mu = np.multiply.reduce(traces[:, cls.cycles], axis=-1)
    # one matrix-vector product per matrix: a single (p_mu / z) @ chi.T gemm rounds differently
    return (cls.chi @ (p_mu / cls.z)[..., None])[..., 0]


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


@lru_cache(maxsize=None, typed=True)
def weingarten_table(order: int, d: int) -> WeingartenTable:
    """Wg(mu, d) for every cycle type mu of S_order, from the characters of S_order.

    Evaluates (1/k!^2) sum_lam chi_lam(1)^2 chi_lam(mu) / s_lam(1^d), which is
    sum_lam chi_lam(1) chi_lam(mu) / (k! prod_cells (d + content)), once per
    cycle type. The sum is taken exactly over a common integer denominator,
    so each value is rounded to float once. Requires d >= order, so every
    partition lam has at most d parts and s_lam(1^d) > 0. The cache is typed,
    so 2.0 or True never reach a cached table of order 2 or 1: every new type
    of argument is validated.
    """
    _check_order(order, d)
    cls, at_d = _classes(order), _classes_at(order, d)
    common = math.lcm(*at_d.products)
    weights = [dim * (common // prod) for dim, prod in zip(cls.dims, at_d.products)]
    denominator = math.factorial(order) * common
    values = {mu: sum(w * c for w, c in zip(weights, column)) / denominator
              for mu, column in zip(cls.parts, cls.columns)}
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
    sa, sb = _schur(np.array((ma, mb)), order)
    return float(np.add.reduce(_classes_at(order, d).weights * sa * sb))


def _ez2_exact(mat: np.ndarray, d: int) -> float:
    """Exact E[Z^2] for Z = sum_i x_i^2, x_i = u_i^dag M u_i, over Haar U; needs d >= 4.

    F(sigma) = sum_lam s_lam(M) chi_lam(sigma) / prod_cells (d + content)
    is the class function sum_tau p_tau(M) Wg(sigma^-1 tau). Summing F over
    S_4 keeps only lam = (4), so E[x_1^4] = 24 s_(4)(M) / (d (d+1) (d+2) (d+3)),
    and E[x_1^2 x_2^2] sums F over the four permutations preserving {1, 2}
    and {3, 4}.
    """
    cls = _classes(4)  # (4,) first
    coef = _schur(np.asarray(mat, dtype=complex)[None], 4)[0] / _classes_at(4, d).divisors
    f = dict(zip(cls.parts, coef @ cls.chi))
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

