"""The four workloads: inputs made from the seed, the timed jobs and their output checks.

A workload is a list of jobs run one after another (a closed loop with one
caller). For the certify and oracle workloads each job is one op; in
``sweep-lowd`` the jobs are ``cli.minimal_copies`` calls and the ops are the
``basic_certify`` calls they make, recorded by a wrapper on
``qcert.cli.basic_certify``.

The oracle workload draws its inputs from a fixed, seeded catalogue of
``CATALOGUE_SIZE`` entries; the workload seed picks the entries. That keeps
the seed in charge of the inputs while every exact value still has a reference
captured in ``reference.json`` (see ``capture_reference.py``).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import qcert

cli = importlib.import_module("qcert.cli")
haar_oracle = importlib.import_module("qcert.haar_oracle")

EPS = 0.3
DELTA = 0.2
SWEEP_TARGET = 0.9
REL_TOL = 1e-10

CATALOGUE_SEED = 20210226
CATALOGUE_SIZE = 16
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Verify checks that are red at this commit by design (README "Known red test").
EXPECTED_RED = ("moments-second-d2", "moments-second-d4", "moments-second-d8")

# Sizes per workload. "toy" runs in about a second and serves the self-tests.
SIZES = {
    "full": {
        # d -> null trials. The d=64 trials alternate with the other ops; one
        # op sits above them and three below, so the median op is a d=64 trial.
        "highd_null": {32: 1, 64: 3, 128: 1},
        "highd_median_d": 64,
        "highd_alt_d": 128,
        "rotated_d": 64,
        # with one early-exiting offdiag trial, the median is a null trial
        "rotated_null": 3,
        "sweep_dims": (4, 8, 16, 32),
        "sweep_trials": 40,
        "wg_orders": (2, 3, 4, 5, 6),
        "moment_orders": (2, 4, 6),
        # haar_moment order 4 runs on this many pairs per dimension. About as
        # many oracle ops are faster than these few-ms calls as are slower,
        # so the median op lands inside this group.
        "k4_pairs": 5,
    },
    "toy": {
        "highd_null": {8: 1, 16: 2},
        "highd_median_d": 16,
        "highd_alt_d": 32,
        "rotated_d": 8,
        "rotated_null": 1,
        "sweep_dims": (4,),
        "sweep_trials": 4,
        "wg_orders": (2, 3, 4),
        "moment_orders": (2, 4),
        "k4_pairs": 2,
    },
}
WG_DIMS = (6, 8)
PAIR_DIMS = (6, 8)
MOMENT_DIMS = (4, 8)
MOMENT_SAMPLES = 20_000
CORNER_ARGS = ("divergence", "--family", "spiked", "--d", "4", "--ensemble", "corner",
               "--eps", "0.3", "--copies", "5", "--schedules", "5", "--format", "json")
PANINSKI_ARGS = ("divergence", "--family", "mm", "--d", "4", "--ensemble", "paninski",
                 "--eps", "0.3", "--copies", "4", "--schedules", "3", "--param-draws", "200",
                 "--format", "json")
VERIFY_ARGS = ("verify", "--samples", "20000", "--fuzz", "20", "--schedules", "5")


@dataclass
class Job:
    """One timed call plus the untimed steps that summarise and check its result."""

    label: str
    call: Callable[[], object]
    summarize: Callable[[object], dict]
    check: Callable[[dict], str | None]  # failure reason, or None when the output is right
    truth: str | None = None  # "null" or "alt" for verdict ops
    upper: float | None = None  # predicted_bounds(...).upper for certify ops


@dataclass
class Workload:
    jobs: list[Job]
    inner_ops: bool = False  # ops are the basic_certify calls made inside the jobs
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------- helpers


def linear_spectrum(d: int) -> qcert.Spectrum:
    lam = np.arange(1, d + 1, dtype=float)
    return qcert.Spectrum(lam / lam.sum())


def tail_state(spec: qcert.Spectrum, eps: float) -> qcert.DensityMatrix:
    """Move eps^2/4 mass into the removed tail, taken evenly from the other entries.

    ``cli.hidden_state("tail")`` takes the whole shift from the top entry,
    which goes negative for the linear spectrum at d=128, so the shift is
    spread in proportion over every entry outside the tail.
    """
    tail = list(qcert.remove_mass_upper(spec, eps).tail)
    lam = spec.lambdas.copy()
    shift = eps**2 / 4
    keep = np.ones(lam.size, dtype=bool)
    keep[tail] = False
    lam[keep] *= 1 - shift / lam[keep].sum()
    lam[tail] += shift / len(tail)
    return qcert.DensityMatrix.from_diagonal(lam)


def _verdict(v) -> dict:
    return {"answer": v.answer, "copies": int(v.copies_used)}


def verdict_failure(out: dict) -> str | None:
    """An INCONCLUSIVE verdict or a verdict that charged no copies is a failed op."""
    if out["answer"] not in ("YES", "NO"):
        return f"answer {out['answer']}"
    if out["copies"] <= 0:
        return f"copies {out['copies']}"
    return None


def _relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def _close(value: float, reference: float, what: str) -> str | None:
    err = _relative_error(value, reference)
    return None if err <= REL_TOL else f"{what}: {value!r} vs reference {reference!r} (rel {err:.1e})"


def catalogue_hermitian(tag: int, d: int, index: int, part: int) -> np.ndarray:
    gen = np.random.default_rng([CATALOGUE_SEED, tag, d, index, part])
    x = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    return (x + x.conj().T) / 2


def catalogue_pair(d: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    return catalogue_hermitian(0, d, index, 0), catalogue_hermitian(0, d, index, 1)


def catalogue_traceless(d: int, index: int) -> np.ndarray:
    m = catalogue_hermitian(1, d, index, 0)
    return m - np.trace(m).real / d * np.eye(d)


def run_cli(argv) -> tuple[int, dict]:
    """Run ``qcert`` in-process with its stdout captured; returns (exit code, JSON)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, json.loads(buf.getvalue())


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------- certify workloads


def _certify_job(label, truth, rho, sigma, spec, handle) -> Job:
    cfg = qcert.CertifyConfig(eps=EPS, delta=DELTA)

    def call():
        src = qcert.CopySource(rho)
        return qcert.certify(src, sigma, EPS, DELTA, cfg, rng=handle.child("algo"))

    return Job(label, call, _verdict, verdict_failure, truth=truth,
               upper=qcert.predicted_bounds(spec, EPS).upper)


def certify_highd(seed: int, size: dict) -> Workload:
    root = qcert.RngHandle(seed).child("certify-highd")
    groups = {}
    for d, trials in size["highd_null"].items():
        spec = linear_spectrum(d)
        sigma = qcert.DensityMatrix.from_diagonal(spec.lambdas)
        groups[d] = [_certify_job(f"null-d{d}", "null", sigma, sigma, spec,
                                  root.child("null", d, t)) for t in range(trials)]
    d = size["highd_alt_d"]
    spec = linear_spectrum(d)
    sigma = qcert.DensityMatrix.from_diagonal(spec.lambdas)
    handle = root.child("offdiag", d)
    rho = cli.hidden_state("offdiag", spec, EPS, handle.child("state"))
    offdiag = _certify_job(f"offdiag-d{d}", "alt", rho, sigma, spec, handle)
    tail = _certify_job(f"tail-d{d}", "alt", tail_state(spec, EPS), sigma, spec,
                        root.child("tail", d, 0))
    # The median group alternates with the other ops, so its trials are spread
    # over the whole pass and not over one burst of host noise.
    median = groups.pop(size["highd_median_d"])
    others = [job for dim in sorted(groups) for job in groups[dim]] + [offdiag, tail]
    jobs = [job for pair in itertools.zip_longest(median, others) for job in pair if job]
    return Workload(jobs)


def certify_rotated(seed: int, size: dict) -> Workload:
    d = size["rotated_d"]
    spec = linear_spectrum(d)
    root = qcert.RngHandle(seed).child("certify-rotated")
    v = qcert.haar_unitary(d, root.child("basis").generator())

    def rotate(m):
        return qcert.DensityMatrix(v @ m @ v.conj().T)

    sigma = rotate(np.diag(spec.lambdas).astype(complex))
    jobs = []
    for t in range(size["rotated_null"]):
        jobs.append(_certify_job(f"null-d{d}", "null", sigma, sigma, spec, root.child("null", t)))
    handle = root.child("offdiag", 0)
    rho = rotate(cli.hidden_state("offdiag", spec, EPS, handle.child("state")).mat)
    jobs.append(_certify_job(f"offdiag-d{d}", "alt", rho, sigma, spec, handle))
    return Workload(jobs)


# ---------------------------------------------------------------- sweep


def sweep_lowd(seed: int, size: dict) -> Workload:
    def job(d):
        return Job(
            f"minimal_copies-d{d}",
            lambda: cli.minimal_copies(d, EPS, seed, size["sweep_trials"], SWEEP_TARGET),
            lambda n: {"min_copies": int(n)},
            lambda out: None if out["min_copies"] >= 1 else f"min_copies {out['min_copies']}",
        )

    return Workload([job(d) for d in size["sweep_dims"]], inner_ops=True)


# ---------------------------------------------------------------- oracle


def partitions(n: int, largest: int | None = None):
    """Integer partitions of n in descending parts, i.e. the cycle types of S_n."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def cycle_type(perm) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def orthogonality_error(values: dict, order: int, d: int) -> float:
    """max over classes sigma of |sum_tau Wg(sigma tau^-1) d^#cycles(tau) - [sigma = e]|."""
    perms = list(itertools.permutations(range(order)))
    worst = 0.0
    for ct in partitions(order):
        sigma = [0] * order  # one permutation of cycle type ct
        pos = 0
        for length in ct:
            for i in range(length):
                sigma[pos + i] = pos + (i + 1) % length
            pos += length
        total = 0.0
        for tau in perms:
            inv = [0] * order
            for i, j in enumerate(tau):
                inv[j] = i
            rel = tuple(sigma[inv[i]] for i in range(order))
            total += values[repr(cycle_type(rel))] * float(d) ** len(cycle_type(tau))
        worst = max(worst, abs(total - (1.0 if ct == (1,) * order else 0.0)))
    return worst


def order2_closed_form(a: np.ndarray, b: np.ndarray) -> float:
    """E_U[Tr(A U^dag B U)^2] from the two order-2 Weingarten values."""
    d = a.shape[0]
    ta, tb = np.trace(a).real, np.trace(b).real
    ta2, tb2 = np.trace(a @ a).real, np.trace(b @ b).real
    wg_e = 1 / (d * d - 1)
    wg_t = -1 / (d * (d * d - 1))
    return float(wg_e * (ta**2 * tb**2 + ta2 * tb2) + wg_t * (ta**2 * tb2 + ta2 * tb**2))


def oracle_exact(seed: int, size: dict) -> Workload:
    ref = load_reference()
    gen = np.random.default_rng(seed)
    pairs = {d: [int(i) for i in gen.choice(CATALOGUE_SIZE, size["k4_pairs"], replace=False)]
             for d in PAIR_DIMS}
    moment_index, divergence_index, verify_index = (int(i) for i in gen.integers(
        CATALOGUE_SIZE, size=3))
    jobs = []

    for order in size["wg_orders"]:
        for d in WG_DIMS:
            def summarize(table, order=order):
                return {"values": {repr(ct): float(table(ct)) for ct in partitions(order)}}

            def check(out, order=order, d=d):
                err = orthogonality_error(out["values"], order, d)
                return None if err <= 1e-9 else f"orthogonality error {err:.2e}"

            jobs.append(Job(f"weingarten_table-k{order}-d{d}",
                            lambda order=order, d=d: haar_oracle.weingarten_table(order, d),
                            summarize, check))

    for d in PAIR_DIMS:
        for n, index in enumerate(pairs[d]):
            a, b = catalogue_pair(d, index)
            for order in size["moment_orders"] if n == 0 else (4,):
                if order == 2:
                    def check(out, a=a, b=b):
                        return _close(out["value"], order2_closed_form(a, b),
                                      "order-2 closed form")
                else:
                    reference = ref["haar_moment"][f"d{d}"][index][f"k{order}"]

                    def check(out, reference=reference):
                        return _close(out["value"], reference, "haar_moment")
                jobs.append(Job(
                    f"haar_moment-k{order}-d{d}",
                    lambda a=a, b=b, order=order: haar_oracle.haar_moment(a, b, order),
                    lambda value: {"value": float(value)}, check))

    for d in MOMENT_DIMS:
        m = catalogue_traceless(d, moment_index)
        reference = ref["ez2_exact"][f"d{d}"][moment_index]
        hs2 = float(np.trace(m @ m).real)

        def check(out, reference=reference, hs2=hs2, d=d):
            return (_close(out["ez_exact"], hs2 / (d + 1), "E[Z] closed form")
                    or _close(out["ez2_exact"], reference, "exact E[Z^2]"))

        gen_seed = [seed, d]
        jobs.append(Job(
            f"verify_moments_basic-d{d}",
            lambda m=m, gen_seed=gen_seed: haar_oracle.verify_moments_basic(
                m, MOMENT_SAMPLES, np.random.default_rng(gen_seed)),
            lambda rep: {"ez_exact": rep.ez_exact, "ez2_exact": rep.ez2_exact,
                         "ez_mc": rep.ez_mc, "ez2_mc": rep.ez2_mc},
            check))

    for kind, args in (("corner", CORNER_ARGS), ("paninski", PANINSKI_ARGS)):
        argv = list(args) + ["--seed", str(divergence_index)]
        reference = ref[f"divergence_{kind}"][divergence_index]

        def check(out, reference=reference):
            if out["rc"] != 0:
                return f"exit code {out['rc']}"
            for got, want in zip(out["rows"], reference, strict=True):
                bad = (_close(got[0], want[0], "TV") or _close(got[1], want[1], "chi2"))
                if bad:
                    return bad
            return None

        jobs.append(Job(f"divergence-{kind}", lambda argv=argv: run_cli(argv),
                        lambda res: {"rc": res[0],
                                     "rows": [[r["tv"], r["chi2"]] for r in res[1]["rows"]]},
                        check))

    reference = ref["verify"][verify_index]

    def verify_check(out, reference=reference):
        if out["checks"] != reference:
            changed = sorted(k for k in set(out["checks"]) | set(reference)
                             if out["checks"].get(k) != reference.get(k))
            return f"check status changed: {changed}"
        red = sorted(k for k, ok in out["checks"].items() if not ok)
        if red != sorted(EXPECTED_RED):
            return f"red checks {red}, expected {sorted(EXPECTED_RED)}"
        return None if out["rc"] == 1 else f"exit code {out['rc']}, expected 1"

    argv = list(VERIFY_ARGS) + ["--seed", str(verify_index)]
    jobs.append(Job("verify", lambda: run_cli(argv),
                    lambda res: {"rc": res[0],
                                 "checks": {c["check"]: c["ok"] for c in res[1]["checks"]}},
                    verify_check))
    return Workload(jobs, meta={
        "pairs": pairs, "moment": moment_index, "divergence": divergence_index,
        "verify": verify_index})


BUILDERS = {
    "certify-highd": certify_highd,
    "certify-rotated": certify_rotated,
    "sweep-lowd": sweep_lowd,
    "oracle-exact": oracle_exact,
}


def build(name: str, seed: int, size: str = "full") -> Workload:
    return BUILDERS[name](seed, SIZES[size])
