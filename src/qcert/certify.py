"""State certification: the basic Haar-basis tester and the bucketwise certifier.

Both testers consume copies exclusively through one :class:`CopySource`
(physical randomness) plus an :class:`RngHandle` stream (classical
randomness), so verdicts and copy counts are reproducible bit-for-bit.
``certify`` works in sigma's eigenbasis on ``src.rotated(V)`` and runs its
conditional basic tests on ``.conditional(indices)`` views of it; every view
charges the caller's source.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .classical import l2_two_sample_test
from .linalg import DensityMatrix, ValidationError, hermitian_eig
from .measurement import (
    BudgetExhaustedError,
    Basis,
    outcome_distribution,
    sampling_probs,
)
from .rng import RngHandle, haar_unitary
from .spectrum import Spectrum, bucketize_values, remove_mass_upper

# Calibrated once so a single basic round has power >= 2/3 at d = 16,
# eps_HS = 0.3 (see tests/test_certify.py::test_single_round_calibration).
DEFAULT_C_BASIC = 48.0
DEFAULT_C_TRACE = 80.0
DEFAULT_L2_SCALE = 0.5

# basic_certify stacks at most this many complex entries (128 KiB) of k x k
# matrices per chunk of rounds, which bounds the memory that batching adds.
_CHUNK_ENTRIES = 8192


@dataclass(frozen=True)
class CertifyConfig:
    """Tunable constants for the certifiers; the defaults are calibrated.

    ``eps`` and ``delta`` are unread: both certifiers take them as arguments.
    The fields stay only because ``benchmarks/workloads.py`` constructs them.
    """

    eps: float = 0.3
    delta: float = 0.1
    c_basic: float = DEFAULT_C_BASIC

    def __post_init__(self):
        if self.c_basic <= 0:
            raise ValidationError(f"c_basic must be positive, got {self.c_basic}")


DEFAULT_CONFIG = CertifyConfig()


@dataclass
class Verdict:
    answer: str  # "YES", "NO", or "INCONCLUSIVE"
    copies_used: int
    diagnostics: dict = field(default_factory=dict)


def _check_delta(delta: float):
    if not 0 < delta < 1:
        raise ValidationError(f"delta must lie in (0, 1), got {delta}")


def _rounds(delta: float) -> int:
    """Majority-vote round count: standard Chernoff margin for error delta."""
    return max(1, math.ceil(18 * math.log(1 / delta)))


def basic_certify(src, sigma: DensityMatrix, eps: float, delta: float,
                  cfg: CertifyConfig = DEFAULT_CONFIG, *, rng: RngHandle) -> Verdict:
    """Haar-basis tester: YES if rho = sigma, NO if ||rho - sigma||_HS > eps.

    Each round measures ceil(c_basic sqrt(d)/eps^2) copies in a fresh
    Haar-random basis, samples a same-size reference from sigma's outcome
    law, and runs the two-sample L2 test at gap DEFAULT_L2_SCALE * eps / sqrt(d);
    the verdict is the majority over the rounds.

    All classical randomness comes from one generator, ``rng.generator()``
    (stream layout v3), in two steps. Charge: ``src.charge`` pays for every
    round up front, drawing all rounds' discards in one call (none on a full
    source) and charging round by round; when the budget runs out in round
    k, rounds before k are charged, no round is simulated and the answer is
    INCONCLUSIVE. Simulate: the rounds run in chunks of
    max(1, _CHUNK_ENTRIES // d^2), at most 128 KiB of stacked d x d matrices,
    and the chunk size is part of the stream contract: each chunk draws its
    Ginibre stack (all real parts, then all imaginary parts), then, round by
    round, the measured and the reference multinomial, in one stacked call.
    Simulation stops at the first chunk boundary where the majority is
    fixed, so the answer is that of all rounds while ``copies_used`` counts
    the copies every round spends. Diagnostics: ``rounds`` charged,
    ``rounds_run`` simulated, and ``rejections`` among the rounds run.

    Once per call: the round constants and the charge. Nothing is gathered
    or scanned: the source holds rho's measured block from the moment it is
    made, and sigma's was read when it was built, each in ``block_form``.
    Once per chunk: one Haar stack from
    ``haar_unitary``, one validated Born kernel per block, one clip and one row
    sum normalising every measured row, one multinomial call, and
    one row-wise L2 test whose checks (shapes, nonnegative counts, equal
    totals) each run once.
    """
    if not 0 < eps <= 2:
        raise ValidationError(f"eps must lie in (0, 2], got {eps}")
    _check_delta(delta)
    d = src.dim
    if sigma.dim != d:
        raise ValidationError(f"source dim {d} != sigma dim {sigma.dim}")
    start = src.copies_used
    if d == 1:
        return Verdict("YES", 0, {"trivial": "only one state exists in dimension 1"})

    n_copies = math.ceil(cfg.c_basic * math.sqrt(d) / eps**2)
    l2_gap = DEFAULT_L2_SCALE * eps / math.sqrt(d)
    rounds = _rounds(delta)
    chunk = max(1, _CHUNK_ENTRIES // d**2)
    gen = rng.generator()
    try:
        src.charge(n_copies, rounds, gen)
    except BudgetExhaustedError as exc:
        return Verdict("INCONCLUSIVE", src.copies_used - start, {"budget": str(exc)})
    run = rejections = 0
    # NO once rejections pass half the rounds; YES once acceptances reach the rest
    while rejections <= rounds // 2 and run - rejections < rounds - rounds // 2:
        m = Basis.trusted(haar_unitary(d, gen, size=min(chunk, rounds - run)))
        probs = sampling_probs(src.law(m))
        p_sigma = outcome_distribution(sigma, m)
        counts = gen.multinomial(n_copies, np.concatenate((probs, p_sigma), 1).reshape(-1, 2, d))
        accepted = l2_two_sample_test(counts[:, 0], counts[:, 1], l2_gap)
        rejections += len(accepted) - int(np.count_nonzero(accepted))
        run += len(accepted)
    answer = "NO" if rejections > rounds // 2 else "YES"
    return Verdict(answer, src.copies_used - start, {
        "rounds": rounds, "rounds_run": run, "rejections": rejections,
        "copies_per_round": n_copies,
    })


def _fraction_test(src, view, n: int, rng) -> float:
    """Observed fraction of n copies of ``src`` landing in ``view``'s subset.

    Measuring {Pi, I - Pi} charges n copies; the count landing in Pi is one
    binomial draw at Tr(Pi rho), the view's acceptance, clipped to [0, 1]
    against the trace tolerance of a ``DensityMatrix``.
    """
    src.charge(n, 1, rng)
    return rng.binomial(n, min(max(view.acceptance, 0.0), 1.0)) / n


def _diagonalize(sigma: DensityMatrix) -> tuple[Spectrum, np.ndarray | None]:
    """sigma's spectrum, plus its eigenbasis map, or None when sigma has no
    nonzero off-diagonal entry (``sigma.block`` is then its real diagonal)."""
    lam, vec = sigma.block, None
    if lam.ndim == 2:
        lam, vec = hermitian_eig(sigma.mat)
    lam = np.clip(lam, 0.0, None)
    return Spectrum(lam / lam.sum()), vec


def certify(src, sigma: DensityMatrix, eps: float, delta: float,
            cfg: CertifyConfig = DEFAULT_CONFIG, *, rng: RngHandle) -> Verdict:
    """Bucketwise certifier: YES if rho = sigma, NO if ||rho - sigma||_1 > eps.

    Scenario 1 checks the mass of the low-eigenvalue tail. Then each bucket
    (scenario 3) and each bucket pair, larger bucket first (scenario 4), is
    one stage with the same rule: measure the fraction f of copies landing
    in the stage's indices; answer NO if f >= Tr + margin, where Tr is
    sigma's trace there; skip the stage if f < gate = eps / (40 m^2);
    otherwise run basic_certify on the conditional view at
    eps_hs = min(eps / (c m^2 Tr) / sqrt(|indices|), 2). A bucket uses
    margin = gate, c = 20 and delta / m; a pair uses margin = eps / (20 m^2),
    c = 10 and delta / m^2. The off-diagonal tail/bulk scenario needs no
    separate test: it is excluded once scenario 1 passes. The first NO wins.
    """
    if not 0 < eps < 1:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    _check_delta(delta)
    if src.dim != sigma.dim:
        raise ValidationError(f"source dim {src.dim} != sigma dim {sigma.dim}")
    start = src.copies_used
    diag: dict = {"scenario1": None, "scenario3": [], "scenario4": []}

    spec, rotation = _diagonalize(sigma)
    if rotation is not None:
        src = src.rotated(rotation)
    d = spec.dim

    removal = remove_mass_upper(spec, eps)
    buckets = bucketize_values(removal.effective)
    lam = spec.lambdas
    m_factor = max(math.log(10 * d / eps**2), 1.0)
    tail = np.asarray(removal.tail, dtype=int)

    try:
        # Scenario 1: mass on the removed tail.
        # an empty tail is never measured, so it charges no copies
        n1 = math.ceil(DEFAULT_C_TRACE * math.log(2 / delta) / eps**2) if tail.size else 0
        frac = (_fraction_test(src, src.conditional(tail), n1, rng.child("s1").generator())
                if n1 else 0.0)
        diag["scenario1"] = {"fraction": frac, "threshold": eps**2 / 5, "copies": n1}
        if frac >= eps**2 / 5:
            return Verdict("NO", src.copies_used - start, diag)

        levels = buckets.levels
        n_trace = math.ceil(
            20 * DEFAULT_C_TRACE * m_factor**4 * math.log(4 * max(len(levels), 1) / delta) / eps**2
        )
        gate = eps / (40 * m_factor**2)

        # Scenarios 3 and 4, one stage each:
        # (entries, label, indices, rng, NO margin, eps_hs scale, stage delta).
        stages = [(diag["scenario3"], {"bucket": j}, buckets.indices(j), rng.child("s3", j),
                   gate, 20 * m_factor**2, delta / m_factor) for j in levels]
        for j, jp in itertools.combinations(levels, 2):
            if buckets.size(jp) > buckets.size(j):
                j, jp = jp, j
            idx = np.sort(np.concatenate([buckets.indices(j), buckets.indices(jp)]))
            stages.append((diag["scenario4"], {"pair": (j, jp)}, idx, rng.child("s4", j, jp),
                           eps / (20 * m_factor**2), 10 * m_factor**2, delta / m_factor**2))

        for entries, label, idx, gen, margin, scale, stage_delta in stages:
            trace = float(lam[idx].sum())
            view = src.conditional(idx)
            frac = _fraction_test(src, view, n_trace, gen.child("trace").generator())
            entry = {**label, "trace": trace, "fraction": frac, "skipped": False}
            entries.append(entry)
            if frac >= trace + margin:
                return Verdict("NO", src.copies_used - start, diag)
            if frac < gate:
                entry["skipped"] = True  # conditional path pointless below the trace gate
                continue
            eps_hs = min(eps / (scale * trace) / math.sqrt(len(idx)), 2.0)
            sub_sigma = DensityMatrix.from_diagonal(lam[idx] / trace)
            verdict = basic_certify(view, sub_sigma, eps_hs, stage_delta, cfg,
                                    rng=gen.child("basic"))
            entry["basic"] = verdict.answer
            if verdict.answer != "YES":
                return Verdict(verdict.answer, src.copies_used - start, diag)
    except BudgetExhaustedError as exc:
        diag["budget"] = str(exc)
        return Verdict("INCONCLUSIVE", src.copies_used - start, diag)

    return Verdict("YES", src.copies_used - start, diag)
