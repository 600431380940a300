"""Batch experiment driver.

Subcommands: gen-sigma, certify, sweep, verify, bounds, divergence.
Tables go to CSV, reports to JSON; every output embeds the resolved config
and master seed so a rerun reproduces the data rows byte for byte (the
wall-time column is informational and excluded from that guarantee).
Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import time

import numpy as np

from .certify import CertifyConfig, basic_certify, certify
from .classical import l23_functional
from .instances import (
    EnsembleUnavailableError,
    build_corner,
    build_offdiag,
    corner_ensemble,
    plan_offdiag,
    sample_paninski,
    tune_paninski,
)
from .haar_oracle import (
    divergence_from_weights,
    exact_transcript_divergence,
    ingster_bound,
    transcript_count,
    verify_moments_basic,
)
from .linalg import (PSD_TOL, DensityMatrix, ValidationError, spectral_fidelity_mm,
                     spectral_quasinorm, trace_distance)
from .measurement import (Basis, CopySource, ensemble_weights, outcome_distribution,
                          phi_from_weights)
from .rng import RngHandle, ginibre, haar_draws
from .spectrum import (
    Spectrum,
    predicted_bounds,
    remove_mass_lower_nonadaptive,
    remove_mass_upper,
)


def make_spectrum(family: str, d: int, rank: int | None = None, ratio: float = 0.5,
                  path: str | None = None) -> Spectrum:
    """Reference-state families used across the experiments."""
    if family != "file" and d < 1:
        raise ValidationError(f"--d must be >= 1, got {d}")
    if family == "mm":
        return Spectrum(np.full(d, 1.0 / d))
    if family == "rank-mm":
        if rank is None or not 1 <= rank <= d:
            raise ValidationError(f"rank-mm needs --rank in 1..d, got {rank}")
        lam = np.zeros(d)
        lam[:rank] = 1.0 / rank
        return Spectrum(lam)
    if family == "spiked":
        # dimension d+1: one heavy entry 1 - 1/d plus d entries of 1/d^2
        lam = np.full(d + 1, 1.0 / d**2)
        lam[0] = 1.0 - 1.0 / d
        return Spectrum(lam)
    if family == "geometric":
        if not math.isfinite(ratio) or ratio < 0:
            raise ValidationError(f"--ratio must be finite and >= 0, got {ratio}")
        with np.errstate(over="ignore"):
            lam = ratio ** np.arange(d)
            total = lam.sum()
        if not math.isfinite(total):
            raise ValidationError(f"--ratio {ratio} at d = {d}: sum of ratio**k, k < d, overflows")
        return Spectrum(lam / total)
    if family == "file":
        if not path:
            raise ValidationError("family 'file' needs --input")
        try:
            with open(path) as fh:
                return Spectrum.from_json(fh.read())
        except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, or a bad spectrum
            raise ValidationError(f"--input {path}: {exc}") from None
    raise ValidationError(f"unknown family {family!r}")


def hidden_state(kind: str, spec: Spectrum, eps: float, rng: RngHandle) -> DensityMatrix:
    """Draw the certification target for one trial. ``cmd_certify`` draws
    Paninski targets itself, from an instance tuned once per run."""
    if kind == "tail":
        # move eps^2/4 extra mass into the removed tail, taken from the top entry
        removal = remove_mass_upper(spec, eps)
        if not removal.tail:
            raise ValidationError("spectrum has no removable tail at this eps")
        lam = spec.lambdas.copy()
        shift = eps**2 / 4
        top = int(np.argmax(lam))
        lam[top] -= shift
        lam[list(removal.tail)] += shift / len(removal.tail)
        if lam[top] < -PSD_TOL:  # the one entry the shift lowers
            raise ValidationError(f"tail alternative needs the largest entry "
                                  f"{spec.lambdas[top]:.6g} >= eps^2/4 = {shift:.6g}")
        return DensityMatrix.from_diagonal(lam)
    if kind == "spike":
        d = spec.dim
        if d < 2:
            raise ValidationError("spike alternative needs --d >= 2")
        if not eps > 0:
            raise ValidationError(f"spike alternative needs eps > 0, got {eps}")
        beta = min(eps / np.sqrt(1 - 1 / d), 1.0)
        z = ginibre(d, rng.generator())[:, 0]  # the first column of a Haar unitary, up to phase
        v = z / np.linalg.norm(z)
        # diag(lambdas) bit for bit as DensityMatrix.from_diagonal stores it;
        # a mix of a validated spectrum and a pure state, beta in [0, 1], is a
        # state, so neither is validated
        sigma_m = np.diag(spec.lambdas).astype(complex)
        return DensityMatrix.trusted((1 - beta) * sigma_m + beta * np.outer(v, v.conj()))
    sigma = DensityMatrix.from_diagonal(spec.lambdas)
    if kind == "null":
        return sigma
    if kind == "offdiag":
        inst = plan_offdiag(spec, eps)
        return build_offdiag(sigma, inst, rng.generator())
    if kind == "corner":
        u = 1 if rng.generator().random() < 0.5 else -1
        return build_corner(sigma, eps, u)
    raise ValidationError(f"unknown hidden-state family {kind!r}")


def _finite(obj):
    """``obj`` with every NaN or infinite float replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return None
    return obj


def _emit(args, payload: dict, rows: list[dict] | None = None, header: list[str] | None = None):
    """Write JSON (reports) or config-prefixed CSV (tables). JSON is strict:
    a non-finite float is written as null."""
    if getattr(args, "format", "json") == "json":  # reports take no --format
        out = dict(payload)
        if rows is not None:
            out["rows"] = rows
        text = json.dumps(_finite(out), indent=2, default=float, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        buf.write("# " + json.dumps(payload, default=float) + "\n")
        writer = csv.DictWriter(buf, fieldnames=header or (list(rows[0]) if rows else []))
        writer.writeheader()
        for row in rows or []:
            writer.writerow(row)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolved(args, **extra) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func",) and v is not None}
    cfg.update(extra)
    return cfg


def cmd_gen_sigma(args) -> int:
    spec = make_spectrum(args.family, args.d, args.rank, args.ratio, args.input)
    _emit(args, {"config": _resolved(args), "lambdas": list(spec.lambdas)})
    return 0


def _count_flags(args, *flags: str, least: int = 1) -> None:
    """Usage error naming the first count flag below ``least``; an unset flag passes."""
    for flag in flags:
        value = getattr(args, flag.replace("-", "_"))
        if value is not None and value < least:
            raise ValidationError(f"--{flag} must be >= {least}, got {value}")


def _one_certify_trial(args, spec: Spectrum, inst, trial: int) -> dict:
    """Trial ``trial`` of a ``certify`` run; ``inst`` is the run's Paninski instance."""
    handle = RngHandle(args.seed).child("trial", trial)
    sigma = DensityMatrix.from_diagonal(spec.lambdas)
    if args.hidden == "paninski":  # drawn from the instance tuned once per run
        rho = sample_paninski(sigma, inst, handle.child("state").generator())
    else:
        rho = hidden_state(args.hidden, spec, args.eps, handle.child("state"))
    src = CopySource(rho, args.budget)
    t0 = time.perf_counter()
    run = basic_certify if args.algorithm == "basic" else certify
    verdict = run(src, sigma, args.eps, args.delta, rng=handle.child("algo"))
    wall_ms = (time.perf_counter() - t0) * 1e3
    return {
        "trial": trial,
        "seed": args.seed,
        "hidden": args.hidden,
        "verdict": verdict.answer,
        "copies": verdict.copies_used,
        "wall_ms": round(wall_ms, 3),
    }


def cmd_certify(args) -> int:
    _count_flags(args, "trials", "threads")
    _count_flags(args, "budget", least=0)
    if not args.eps > 0:  # offdiag and corner states fail on a NaN eps
        raise ValidationError(f"--eps must be > 0, got {args.eps}")
    spec = make_spectrum(args.family, args.d, args.rank, args.ratio, args.input)
    # the Paninski instance depends on the spectrum and eps alone
    inst = tune_paninski(spec, args.eps) if args.hidden == "paninski" else None
    trial = functools.partial(_one_certify_trial, args, spec, inst)
    # a fork-based pool starts every worker on the first submit, so never ask
    # for more processes than there are trials or CPUs
    workers = min(args.threads, args.trials, os.cpu_count() or 1)
    if workers > 1:
        # imported here: the module pulls in multiprocessing, which no other
        # command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(trial, range(args.trials)))
    else:
        rows = list(map(trial, range(args.trials)))
    yes = sum(r["verdict"] == "YES" for r in rows)
    yes_rate = yes / args.trials
    summary = {
        "trials": args.trials,
        "yes_rate": yes_rate,
        # under the null the correct verdict is YES; under every alternative
        # family it is NO
        "error_rate": 1 - yes_rate if args.hidden == "null" else yes_rate,
        "mean_copies": float(np.mean([r["copies"] for r in rows])),
    }
    _emit(args, {"config": _resolved(args), "summary": summary}, rows,
          header=["trial", "seed", "hidden", "verdict", "copies", "wall_ms"])
    return 0


# the error a sweep probe's basic_certify is run at: a majority of 3 rounds
SWEEP_DELTA = 0.85


def sweep_success(d: int, eps: float, seed: int, trials: int, target: float,
                  n_copies: int) -> bool:
    """Whether basic_certify at ``n_copies`` per round (majority of 3 rounds)
    is right on at least a ``target`` share of ``trials`` trials under both
    hypotheses: YES on I/d, NO on the spike alternative.

    Trial t of hypothesis h draws from
    ``RngHandle(seed).child("sweep", d, n_copies, t).child(h)`` alone (the
    spike state from ``.child("state")`` of the trial's handle), so trials can
    be skipped or reordered without moving what the others draw. A hypothesis
    stops once it has ``need`` right verdicts, the least k with
    ``k / trials >= target``; the probe stops with False once either
    hypothesis has more than ``trials - need`` wrong ones. The answer is
    that of running every trial and testing ``min(right) / trials >= target``.

    The next trial goes to the unfinished hypothesis with the most wrong
    verdicts, ties to the one with fewer trials run, then to null; while the
    wrong counts are level this alternates null and alt. A succeeding probe
    makes the same calls under any order, since each hypothesis runs until its
    own ``need``-th right verdict; a failing one reaches its deciding wrong
    verdict sooner, since the hypothesis nearer to failing gets the trials.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if not 0 < target <= 1:
        raise ValidationError(f"target must lie in (0, 1], got {target}")
    # the same float comparison as the share test, not ceil(target * trials),
    # which is 56 for 0.55 * 100
    need = next(k for k in range(trials + 1) if k / trials >= target)
    spec = Spectrum(np.full(d, 1.0 / d))
    sigma = DensityMatrix.from_diagonal(spec.lambdas)
    # basic_certify runs ceil(c_basic sqrt(d) / eps^2) copies per round;
    # step c_basic down past the roundoff that would make that n + 1
    c_basic = n_copies * eps**2 / math.sqrt(d)
    while math.ceil(c_basic * math.sqrt(d) / eps**2) > n_copies:
        c_basic = math.nextafter(c_basic, 0.0)
    cfg = CertifyConfig(c_basic=c_basic)
    probe = RngHandle(seed).child("sweep", d, n_copies)
    right = {"null": 0, "alt": 0}
    wrong = {"null": 0, "alt": 0}
    while True:
        unfinished = [hyp for hyp in ("null", "alt") if right[hyp] < need]
        if not unfinished:
            return True
        # max keeps the first of equal keys, so null wins a full tie
        hyp = max(unfinished, key=lambda h: (wrong[h], -right[h] - wrong[h]))
        handle = probe.child(right[hyp] + wrong[hyp])
        rho = sigma if hyp == "null" else hidden_state("spike", spec, eps, handle.child("state"))
        verdict = basic_certify(CopySource(rho), sigma, eps, SWEEP_DELTA, cfg,
                                rng=handle.child(hyp))
        if verdict.answer == ("YES" if hyp == "null" else "NO"):
            right[hyp] += 1
        else:
            wrong[hyp] += 1
            if wrong[hyp] > trials - need:
                return False


def minimal_copies(d: int, eps: float, seed: int, trials: int, target: float) -> int:
    """Doubling plus bisection for the least per-round copy count reaching the
    target success rate on both hypotheses (majority of 3 rounds).

    Each probe is ``sweep_success``, which stops a probe's trials once its
    comparison with the target is fixed and gives its next trial to the
    hypothesis with the most wrong verdicts; the probes, and so the result,
    are those of running all ``trials`` trials at every probe. A succeeding
    probe costs what it cost under strict null/alt alternation, because each
    hypothesis still runs until its own ``need``-th right verdict; only
    failing probes get cheaper. The first probe rejects ``trials < 1`` and a
    target outside (0, 1].
    """

    def success(n_copies: int) -> bool:
        return sweep_success(d, eps, seed, trials, target, n_copies)

    n = 16
    while not success(n):
        n *= 2
        if n > 10**7:
            raise ValidationError("sweep failed to reach the target success rate")
    lo, hi = n // 2, n
    for _ in range(8):
        mid = (lo + hi) // 2
        if mid == lo:
            break
        if success(mid):
            hi = mid
        else:
            lo = mid
    return hi


def cmd_sweep(args) -> int:
    _count_flags(args, "trials")
    try:
        dims = [int(x) for x in args.d_list.split(",")]
    except ValueError:
        raise ValidationError(
            f"--d-list must be comma-separated integers, got {args.d_list!r}") from None
    if min(dims) < 2:
        raise ValidationError(f"--d-list entries must be >= 2, got {args.d_list!r}")
    if len(set(dims)) < len(dims):
        raise ValidationError(f"--d-list entries must be distinct, got {args.d_list!r}")
    if not 0 < args.target <= 1:
        raise ValidationError(f"--target must lie in (0, 1], got {args.target}")
    # the capped spike alternative sits at HS distance sqrt(1 - 1/d) from I/d
    reach = math.sqrt(1 - 1 / min(dims))
    if not 0 < args.eps <= reach:
        raise ValidationError(f"--eps must lie in (0, sqrt(1 - 1/d)] = (0, {reach:.6g}] "
                              f"for d = {min(dims)}, got {args.eps}")
    rows = []
    for d in dims:
        n = minimal_copies(d, args.eps, args.seed, args.trials, args.target)
        rows.append({"d": d, "min_copies_per_round": n})
    # the fit and monotone read the rows in increasing d; the rows keep the order of --d-list
    copies = [r["min_copies_per_round"] for r in sorted(rows, key=lambda r: r["d"])]
    x, y = np.log(sorted(dims)), np.log(copies)
    payload = {"config": _resolved(args), "slope": None, "slope_ci95": None}
    if len(dims) >= 2:
        slope, intercept = np.polyfit(x, y, 1)
        payload["slope"] = float(slope)
        payload["monotone"] = bool(np.all(np.diff(copies) >= 0))
    else:
        payload["note"] = "slope undefined with a single dimension"
    if len(dims) >= 3:  # two points fit exactly: no residual to take a spread from
        resid = y - (slope * x + intercept)
        se = float(np.sqrt((resid**2).sum() / (len(dims) - 2) / ((x - x.mean()) ** 2).sum()))
        payload["slope_ci95"] = [float(slope - 1.96 * se), float(slope + 1.96 * se)]
    _emit(args, payload, rows, header=["d", "min_copies_per_round"])
    return 0


def cmd_bounds(args) -> int:
    spec = make_spectrum(args.family, args.d, args.rank, args.ratio, args.input)
    eps = args.eps
    bounds = predicted_bounds(spec, eps)
    removal = remove_mass_lower_nonadaptive(spec, eps)
    report = {
        "config": _resolved(args),
        "bounds": dataclasses.asdict(bounds),
        # a diagonal matrix's sorted diagonal is its spectrum: no d x d eigensolve
        "trimmed_norm_2_5": spectral_quasinorm(np.sort(removal.trimmed), 2 / 5)
        if removal.trimmed.sum() > 0 else 0.0,
        "kept_norm_1_2": spectral_quasinorm(np.sort(removal.kept), 0.5)
        if removal.kept.sum() > 0 else 0.0,
        "d_eff": removal.d_eff,
        "fidelity_mm": spectral_fidelity_mm(np.sort(spec.lambdas)),
        "classical_l23_over_eps2": l23_functional(spec.lambdas, eps) / eps**2,
    }
    try:
        tune_paninski(spec, eps)
        report["paninski_available"] = True
    except EnsembleUnavailableError:
        report["paninski_available"] = False
        report["classical_path"] = "all buckets are singletons; classical bound applies"
    except ValidationError:
        report["paninski_available"] = False
    _emit(args, report)
    return 0


def haar_schedule(d: int, copies: int, gen) -> Basis:
    """A nonadaptive schedule of ``copies`` Haar bases, drawn one after
    another from ``gen`` as one ``haar_draws`` stack, as one (copies, d, d)
    ``Basis`` stack."""
    return Basis.trusted(haar_draws([d], gen, copies)[0])


# qcert divergence draws its Paninski parameter states in stacks of at most
# this many, so its memory is bounded whatever --param-draws is.
PARAM_DRAW_STACK = 64


def _corner_rows(sigma: DensityMatrix, ens: list, schedule: Basis):
    """The exact divergences and the Ingster bound (with its SE) of a finite
    ensemble under one schedule, from one weighing of sigma and of the states."""
    p0, w = outcome_distribution(sigma, schedule), ensemble_weights(schedule, ens)
    phis = phi_from_weights(p0, w).ravel()
    return divergence_from_weights(p0, [w]), ingster_bound(phis, len(schedule.u))


def cmd_divergence(args) -> int:
    _count_flags(args, "copies", "schedules")
    if args.ensemble == "paninski":
        _count_flags(args, "param-draws")
    spec = make_spectrum(args.family, args.d, args.rank, args.ratio, args.input)
    try:
        transcript_count(spec.dim, args.copies)
    except ValidationError as exc:
        raise ValidationError(f"--copies {args.copies}: {exc}") from None
    sigma = DensityMatrix.from_diagonal(spec.lambdas)
    if args.ensemble == "corner":
        ens = corner_ensemble(sigma, args.eps)
    else:  # argparse admits only corner and paninski
        inst = tune_paninski(spec, args.eps)
    handle = RngHandle(args.seed).child("divergence")
    rows = []
    worst = {"tv": 0.0, "chi2": 0.0, "kl": 0.0}
    for s in range(args.schedules):
        schedule = haar_schedule(spec.dim, args.copies, handle.child("schedule", s).generator())
        if args.ensemble == "corner":
            rep, (bound, se) = _corner_rows(sigma, ens, schedule)
        else:
            gen, count = handle.child("draws", s).generator(), args.param_draws
            draws = (state for start in range(0, count, PARAM_DRAW_STACK)
                     for state in sample_paninski(sigma, inst, gen,
                                                  min(PARAM_DRAW_STACK, count - start)))
            rep = exact_transcript_divergence(sigma, draws, schedule)
            bound = se = float("nan")
        rows.append({
            "schedule": s, "tv": rep.tv, "chi2": rep.chi2, "kl": rep.kl,
            "min_likelihood_ratio": rep.min_likelihood_ratio,
            "ingster_bound": bound, "ingster_se": se,
        })
        for k in worst:
            worst[k] = max(worst[k], getattr(rep, k))
    _emit(args, {"config": _resolved(args), "worst": worst}, rows,
          header=["schedule", "tv", "chi2", "kl", "min_likelihood_ratio",
                  "ingster_bound", "ingster_se"])
    return 0


def cmd_verify(args) -> int:
    _count_flags(args, "samples", "fuzz", "schedules")
    handle = RngHandle(args.seed)
    checks: list[dict] = []

    def record(name: str, ok: bool, **info):
        checks.append({"check": name, "ok": bool(ok), **info})

    # Haar-basis moment identities at small dimension.
    for d in (2, 4, 8):
        m = np.diag([1.0] * (d // 2) + [-1.0] * (d // 2)).astype(complex)
        rep = verify_moments_basic(m, args.samples, handle.child("moments", d).generator())
        record(f"moments-mean-d{d}", rep.first_ok, estimate=rep.ez_mc, exact=rep.ez_exact,
               se=rep.ez_se)
        record(f"moments-second-d{d}", rep.second_ok, estimate=rep.ez2_mc, bound=rep.ez2_bound,
               exact=rep.ez2_exact)

    # Instance validity fuzzing (small batteries; the test suite runs the full ones).
    spec = make_spectrum("mm", 16, None, 0.5, None)
    sigma = DensityMatrix.from_diagonal(spec.lambdas)
    inst = tune_paninski(spec, 0.2)
    ok = True
    for t in range(args.fuzz):
        rho = sample_paninski(sigma, inst, handle.child("fuzz-paninski", t).generator())
        ok &= abs(trace_distance(sigma, rho) - 0.2) < 1e-8
    record("paninski-distance", ok, trials=args.fuzz)

    corner_sigma = DensityMatrix.from_diagonal([0.8, 0.2])
    ens = corner_ensemble(corner_sigma, 0.3)
    want = 2 * np.sqrt(0.3**4 / 16 + 0.3**2 / 4)
    ok = all(abs(trace_distance(corner_sigma, s) - want) < 1e-10 for s in ens)
    record("corner-distance", ok, expected=want)

    # Corner likelihood-ratio floor over random rank-1 schedules.
    floor = (1 - 32 * 0.3**2 / 9) ** (5 / 2)
    ok = True
    worst = 1.0
    for s in range(args.schedules):
        schedule = haar_schedule(2, 5, handle.child("corner-bound", s).generator())
        rep = exact_transcript_divergence(corner_sigma, ens, schedule)
        worst = min(worst, rep.min_likelihood_ratio)
        ok &= rep.min_likelihood_ratio >= floor - 1e-12 and rep.tv <= 1 - floor + 1e-12
    record("corner-likelihood-floor", ok, floor=floor, worst_ratio=worst)

    # Moment-method bound dominates the exact chi-squared (finite ensemble).
    ok = True
    for s in range(args.schedules):
        schedule = haar_schedule(2, 4, handle.child("ingster", s).generator())
        rep, (bound, se) = _corner_rows(corner_sigma, ens, schedule)
        ok &= rep.chi2 <= bound + 3 * se + 1e-12
    record("ingster-dominates-chi2", ok)

    payload = {"config": _resolved(args), "checks": checks,
               "all_ok": all(c["ok"] for c in checks)}
    _emit(args, payload)
    return 0 if payload["all_ok"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qcert`` parser, built once per process: parsing leaves it
    unchanged, and each ``parse_args`` call returns a new namespace."""
    parser = argparse.ArgumentParser(prog="qcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family=True, seed=True, table=True):
        """--out always; --seed for randomized commands; --format for tables."""
        if seed:
            p.add_argument("--seed", type=int, default=0, help="master seed (decimal 64-bit)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if table:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if family:
            p.add_argument("--family", default="mm",
                           choices=("mm", "rank-mm", "spiked", "geometric", "file"))
            p.add_argument("--d", type=int, default=8)
            p.add_argument("--rank", type=int, default=None)
            p.add_argument("--ratio", type=float, default=0.5)
            p.add_argument("--input", default=None, help="spectrum JSON for family=file")

    p = sub.add_parser("gen-sigma", help="emit a reference spectrum as JSON")
    common(p, seed=False, table=False)
    p.set_defaults(func=cmd_gen_sigma)

    p = sub.add_parser("certify", help="run certification trials")
    common(p)
    p.add_argument("--threads", type=int, default=1, help="processes to spread trials over")
    p.add_argument("--algorithm", choices=("certify", "basic"), default="certify")
    p.add_argument("--hidden", default="null",
                   choices=("null", "paninski", "offdiag", "corner", "tail", "spike"))
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="minimal-copy sweep across dimensions")
    common(p, family=False)
    p.add_argument("--d-list", default="4,8,16,32")
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--target", type=float, default=0.9)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="predicted copy-complexity report for a spectrum")
    common(p, seed=False, table=False)
    p.add_argument("--eps", type=float, default=0.3)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="moment/instance/divergence verification battery")
    common(p, family=False, table=False)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--fuzz", type=int, default=100)
    p.add_argument("--schedules", type=int, default=20)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("divergence", help="exact transcript divergences for an ensemble")
    common(p)
    p.add_argument("--ensemble", choices=("corner", "paninski"), default="corner")
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--copies", type=int, default=5)
    p.add_argument("--schedules", type=int, default=10)
    p.add_argument("--param-draws", type=int, default=1000)
    p.set_defaults(func=cmd_divergence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except ValidationError as exc:
        parser.exit(2, f"qcert: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
