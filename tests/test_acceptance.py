"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 1's second clause checks the Haar-basis second moment E[Z^2] two
ways: the Monte Carlo estimate must match the exact value (the order-4
Weingarten oracle at d >= 4, a closed form at d = 2) within 3 standard
errors, and the exact value must lie in the attainable range
(E[Z])^2 <= E[Z^2] <= 1.5 ||M||^4/d^2. A d^-4 form of the bound cannot hold
for any nonzero traceless M, since E[Z^2] >= (E[Z])^2 = ||M||^4/(d+1)^2;
`qcert verify` reports that form, as failing, in its `moments-second-*`
checks (see README.md, "Second-moment bound").
"""

import math

import numpy as np
import pytest

from qcert.certify import CertifyConfig, basic_certify, certify
from qcert.cli import haar_schedule
from qcert.haar_oracle import (
    exact_transcript_divergence,
    haar_moment,
    ingster_bound,
    phi_pairs_finite,
    verify_moments_basic,
    weingarten_table,
)
from qcert.instances import (
    build_corner,
    build_offdiag,
    corner_ensemble,
    plan_offdiag,
    sample_paninski,
    tune_paninski,
)
from qcert.linalg import DensityMatrix, trace_distance
from qcert.measurement import Basis, CopySource, outcome_distribution
from qcert.rng import RngHandle, haar_unitary
from qcert.spectrum import Spectrum, bucketize, predicted_bounds

from conftest import (
    exact_paninski_g2,
    random_density,
    random_psd,
    random_spectrum_values,
    random_traceless,
    rng_for,
)
from reference import (
    OFFDIAG_G2_CONSTANT,
    PANINSKI_G2_CONSTANT,
    assemble_block,
    corner_trace_distance,
    is_psd,
    project_povm_to_blocks,
    random_povm,
    schur_psd_check,
)

SEED = 424242


def report(num: int, ok: bool, detail: str = ""):
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_moment_identities():
    """Moment identities at d in {2,4,8}, 1e5 Haar samples."""
    first_ok, second_ok, details = True, True, []
    gen_handle = RngHandle(SEED)
    for d in (2, 4, 8):
        m = np.diag([1.0] * (d // 2) + [-1.0] * (d // 2)).astype(complex)
        rep = verify_moments_basic(m, 100_000, gen_handle.child("c1", d).generator())
        if d == 2:
            # M = diag(1, -1): x = u1^dag M u1 = 2|a|^2 - 1 with |a|^2 uniform on
            # [0, 1], so x is uniform on [-1, 1]; u2^dag M u2 = Tr M - x = -x.
            # Hence Z = 2x^2 and E[Z^2] = 4 E[x^4] = 4/5.
            ez2_exact = 4 / 5
        else:
            ez2_exact = rep.ez2_exact
        scale_bound = 1.5 * rep.frobenius_sq**2 / d**2
        first_ok &= rep.first_ok
        second_ok &= abs(rep.ez2_mc - ez2_exact) <= 3 * rep.ez2_se
        second_ok &= rep.ez_exact**2 <= ez2_exact <= scale_bound
        details.append(
            f"d={d}: E[Z]={rep.ez_mc:.5f} (exact {rep.ez_exact:.5f}), "
            f"E[Z^2]={rep.ez2_mc:.5f} +- {rep.ez2_se:.5f} (exact {ez2_exact:.6f}, "
            f"1.5||M||^4/d^2 = {scale_bound:.5f})"
        )
    report(1, first_ok and second_ok, "; ".join(details))
    assert first_ok, "mean clause must match the exact value within 3 standard errors"
    assert second_ok, (
        "E[Z^2] must match its exact value within 3 standard errors, and the exact "
        "value must satisfy (E[Z])^2 <= E[Z^2] <= 1.5 ||M||^4/d^2: " + "; ".join(details)
    )


def test_criterion_02_weingarten_exactness():
    """Closed-form order-2 values and Monte Carlo agreement for 20 fuzzed cases."""
    ok = True
    for d in range(2, 9):
        wg = weingarten_table(2, d)
        ok &= abs(wg((1, 1)) - 1 / (d**2 - 1)) <= 1e-12
        ok &= abs(wg((2,)) - (-1 / (d * (d**2 - 1)))) <= 1e-12

    gen = rng_for("c2")
    cases_checked = 0
    worst_sigma = 0.0
    for d in (2, 3, 4):
        cases = []
        for _ in range(7):
            a = random_traceless(d, gen) + np.eye(d) * gen.standard_normal() * 0.3
            b = random_traceless(d, gen) + np.eye(d) * gen.standard_normal() * 0.3
            order = int(gen.integers(1, min(3, d) + 1))  # exact table needs d >= order
            cases.append((a, b, order, haar_moment(a, b, order)))
        sums = np.zeros(len(cases))
        sq_sums = np.zeros(len(cases))
        n_total, chunk = 1_000_000, 100_000
        done = 0
        while done < n_total:
            us = haar_unitary(d, gen, size=chunk)
            # Tr(A U^dag B U) = sum (B U) * conj(U A) for Hermitian A. With
            # cols[k, (n, l)] = U_n[k, l], B U and U A are one product each.
            cols = us.transpose(1, 0, 2).reshape(d, chunk * d)
            for k, (a, b, order, _) in enumerate(cases):
                bu = (b @ cols).reshape(d, chunk, d)
                ua = (cols.reshape(d * chunk, d) @ a).reshape(d, chunk, d)
                t = np.einsum("knl,knl->n", bu, ua.conj()).real ** order
                sums[k] += t.sum()
                sq_sums[k] += (t**2).sum()
            done += chunk
        for k, (a, b, order, exact) in enumerate(cases):
            mean = sums[k] / n_total
            se = math.sqrt(max(sq_sums[k] / n_total - mean**2, 0.0) / n_total)
            dev = abs(mean - exact) / se if se > 0 else 0.0
            worst_sigma = max(worst_sigma, dev)
            ok &= dev <= 4.0
            cases_checked += 1
    report(2, ok, f"{cases_checked} fuzzed cases, worst deviation {worst_sigma:.2f} sigma")
    assert ok


def test_criterion_03_instance_validity_fuzzing():
    """1000 seeded draws per family: positivity, trace, and exact distances."""
    ok = True
    gen = rng_for("c3")

    spec = Spectrum(np.array([0.16, 0.16, 0.16, 0.16, 0.09, 0.09, 0.09, 0.09]))
    sigma = DensityMatrix.from_diagonal(spec.lambdas)
    inst = tune_paninski(spec, 0.2)
    for _ in range(1000):
        rho = sample_paninski(sigma, inst, gen)
        lam = np.linalg.eigvalsh(rho.mat)
        ok &= lam[0] >= -1e-9 and abs(np.trace(rho.mat).real - 1) <= 1e-9
        ok &= abs(trace_distance(sigma, rho) - 0.2) <= 1e-8

    off = plan_offdiag(spec, 0.25, j_row=2, j_col=3)
    for _ in range(1000):
        rho = build_offdiag(sigma, off, gen)
        lam = np.linalg.eigvalsh(rho.mat)
        ok &= lam[0] >= -1e-9 and abs(np.trace(rho.mat).real - 1) <= 1e-9
        ok &= abs(trace_distance(sigma, rho) - 0.25) <= 1e-8

    for _ in range(1000):
        top = gen.uniform(0.76, 0.92)
        rest = 1 - top
        eps = gen.uniform(0.05, min(0.5, 2 * math.sqrt(0.8 * rest)))
        second = gen.uniform(eps**2 / 4, rest)  # keeps the 2x2 determinant nonnegative
        lam = np.array([top, second, rest - second])
        csigma = DensityMatrix.from_diagonal(lam)
        u = 1 if gen.random() < 0.5 else -1
        rho = build_corner(csigma, eps, u)
        spec_lam = np.linalg.eigvalsh(rho.mat)
        ok &= spec_lam[0] >= -1e-9 and abs(np.trace(rho.mat).real - 1) <= 1e-9
        ok &= abs(trace_distance(csigma, rho) - corner_trace_distance(eps)) <= 1e-10

    report(3, ok, "paninski/offdiag/corner x1000 draws")
    assert ok


def test_criterion_04_corner_lower_bound_oracle():
    """Every transcript likelihood ratio respects the closed-form floor."""
    eps, ncopies = 0.3, 5
    floor = (1 - 32 * eps**2 / 9) ** (ncopies / 2)
    sigma = DensityMatrix.from_diagonal([0.8, 0.2])
    ens = corner_ensemble(sigma, eps)
    gen = rng_for("c4")
    ok = True
    worst = 1.0
    for _ in range(50):
        rep = exact_transcript_divergence(sigma, ens, haar_schedule(2, ncopies, gen))
        worst = min(worst, rep.min_likelihood_ratio)
        ok &= rep.min_likelihood_ratio >= floor - 1e-12
        ok &= rep.tv <= 1 - floor + 1e-12
    report(4, ok, f"floor {floor:.5f}, worst observed ratio {worst:.5f}")
    assert ok


def test_criterion_05_ingster_consistency():
    """Exact chi-squared never exceeds the moment-method bound (corner, N <= 4)."""
    sigma = DensityMatrix.from_diagonal([0.8, 0.2])
    ens = corner_ensemble(sigma, 0.3)
    gen = rng_for("c5")
    ok = True
    for ncopies in (1, 2, 3, 4):
        for _ in range(10):
            sched = haar_schedule(2, ncopies, gen)
            rep = exact_transcript_divergence(sigma, ens, sched)
            bounds = []
            for u in sched.u:
                est, se = ingster_bound(phi_pairs_finite(Basis(u), sigma, ens), ncopies)
                bounds.append(est + 3 * se)
            ok &= rep.chi2 <= max(bounds) + 1e-12
    report(5, ok, "chi2 <= max_t E[(1+phi_t)^N] - 1 on all instances")
    assert ok


def _power_sigma_d16():
    return DensityMatrix.from_diagonal(np.array([0.2] * 4 + [0.2 / 12] * 12))


def _scaled_paninski(sigma, target_hs, rng):
    from qcert.rng import block_haar

    lam = sigma.diagonal()
    buckets = bucketize(Spectrum(lam / lam.sum()))
    best = max((j for j in buckets.levels if buckets.size(j) > 1), key=lambda j: 2.0**-j)
    idx = buckets.indices(best)
    k2 = 2 * (len(idx) // 2)
    amp = target_hs / math.sqrt(k2)
    pert = np.zeros(sigma.dim)
    pert[idx[: k2 // 2]] = amp
    pert[idx[k2 // 2 : k2]] = -amp
    u = block_haar(buckets, rng)
    return DensityMatrix(sigma.mat + u.conj().T @ np.diag(pert).astype(complex) @ u)


def test_criterion_06_basic_certify_power_and_scaling():
    """Error <= 0.15 at d=16 and a sqrt(d)-compatible minimal-copy exponent."""
    from qcert.cli import minimal_copies

    sigma = _power_sigma_d16()
    cfg = CertifyConfig()
    err_null = err_alt = 0
    trials = 200
    for t in range(trials):
        handle = RngHandle(SEED).child("c6", t)
        v = basic_certify(CopySource(sigma), sigma, 0.3, 0.1, cfg, rng=handle.child("n"))
        err_null += v.answer != "YES"
        rho = _scaled_paninski(sigma, 0.3, handle.child("draw").generator())
        v = basic_certify(CopySource(rho), sigma, 0.3, 0.1, cfg, rng=handle.child("a"))
        err_alt += v.answer != "NO"
    power_ok = err_null / trials <= 0.15 and err_alt / trials <= 0.15

    dims = [4, 8, 16, 32]
    mins = [minimal_copies(d, 0.3, SEED, trials=200, target=0.9) for d in dims]
    slope = float(np.polyfit(np.log(dims), np.log(mins), 1)[0])
    scaling_ok = 0.3 <= slope <= 0.7
    # d = 4 sits above the sqrt(d) trend (gap anticoncentration is weakest
    # there), so monotonicity is expected, and checked, from d = 8 upward
    monotone = bool(np.all(np.diff(mins[1:]) >= 0))

    report(
        6,
        power_ok and scaling_ok and monotone,
        f"errors null={err_null/trials:.3f} alt={err_alt/trials:.3f}; "
        f"min copies {dict(zip(dims, mins))}, slope {slope:.3f}",
    )
    assert power_ok and scaling_ok and monotone


def test_criterion_07_full_certify_end_to_end():
    """YES-rate >= 0.8 under the null; NO-rate >= 0.8 against both alternatives."""
    lam = np.array([0.16, 0.16, 0.16, 0.16, 0.119, 0.119, 0.119, 0.003])
    spec = Spectrum(lam)
    sigma = DensityMatrix.from_diagonal(lam)
    cfg = CertifyConfig()
    eps, delta, trials = 0.3, 0.2, 100

    yes = 0
    for t in range(trials):
        v = certify(CopySource(sigma), sigma, eps, delta, cfg,
                    rng=RngHandle(SEED).child("c7n", t))
        yes += v.answer == "YES"

    off_inst = plan_offdiag(spec, eps, j_row=2, j_col=3)
    no_off = 0
    for t in range(trials):
        handle = RngHandle(SEED).child("c7o", t)
        rho = build_offdiag(sigma, off_inst, handle.child("draw").generator())
        v = certify(CopySource(rho), sigma, eps, delta, cfg, rng=handle.child("run"))
        no_off += v.answer == "NO"

    tail_lam = lam.copy()
    tail_lam[0] -= eps**2 / 4
    tail_lam[7] += eps**2 / 4
    tail_rho = DensityMatrix.from_diagonal(tail_lam)
    no_tail = 0
    for t in range(trials):
        v = certify(CopySource(tail_rho), sigma, eps, delta, cfg,
                    rng=RngHandle(SEED).child("c7t", t))
        no_tail += v.answer == "NO"

    ok = yes / trials >= 0.8 and no_off / trials >= 0.8 and no_tail / trials >= 0.8
    report(7, ok, f"yes={yes/trials:.2f} no_offdiag={no_off/trials:.2f} "
                  f"no_tail={no_tail/trials:.2f}")
    assert ok


def test_criterion_08_bound_formulas():
    """Exact maximally mixed value and the spiked family's sqrt(d) growth."""
    d, eps = 16, 0.02
    out = predicted_bounds(Spectrum(np.full(d, 1 / d)), eps)
    mm_ok = out.lower_nonadaptive == pytest.approx(d**1.5 / eps**2, rel=1e-12)

    dims = [16, 64, 256, 1024]
    vals = []
    for dd in dims:
        lam = np.full(dd + 1, 1.0 / dd**2)
        lam[0] = 1 - 1.0 / dd
        eps_d = 1.0 / (4 * dd**2)
        vals.append(predicted_bounds(Spectrum(lam), eps_d).lower_nonadaptive * eps_d**2)
    slope = float(np.polyfit(np.log(dims), np.log(vals), 1)[0])
    spiked_ok = 0.35 <= slope <= 0.65

    report(8, mm_ok and spiked_ok,
           f"mm exact d^1.5/eps^2; spiked growth exponent {slope:.3f}")
    assert mm_ok and spiked_ok


def test_criterion_09_block_povm_pushforward():
    """100 fuzzed (POVM, block-diagonal state) pairs: exact pushforward."""
    gen = rng_for("c9")
    ok = True
    worst = 0.0
    for _ in range(100):
        lam = np.array([0.2, 0.2, 0.17, 0.17, 0.13, 0.13])
        buckets = bucketize(Spectrum(lam))
        m = random_povm(6, int(gen.integers(2, 7)), gen)
        refined, fmap = project_povm_to_blocks(m, buckets)
        blocks = np.zeros((6, 6), dtype=complex)
        for j in buckets.levels:
            idx = buckets.indices(j)
            sub = random_density(len(idx), gen).mat * lam[idx].sum()
            blocks[np.ix_(idx, idx)] = sub
        rho = DensityMatrix(blocks)
        p_orig = outcome_distribution(rho, m)
        p_ref = outcome_distribution(rho, refined)
        pushed = np.zeros(len(m))
        for k, label in enumerate(refined.labels):
            pushed[fmap[label]] += p_ref[k]
        dev = np.abs(pushed - p_orig).max()
        worst = max(worst, dev)
        ok &= dev <= 1e-10
    report(9, ok, f"worst pushforward deviation {worst:.2e}")
    assert ok


def test_criterion_10_property_suites():
    """1000 seeded cases per elementary fact and second-moment constant."""
    ok = True
    gen = rng_for("c10")

    # trace inequality for PSD block matrices
    for _ in range(1000):
        m = random_psd(6, gen)
        k = int(gen.integers(1, 6))
        a, b, c = m[:k, :k], m[:k, k:], m[k:, k:]
        b1 = np.abs(np.linalg.svd(b, compute_uv=False)).sum()
        ok &= np.trace(a).real * np.trace(c).real >= b1**2 - 1e-9
        ok &= b1 <= np.trace(m).real / 2 + 1e-9

    # Schur-complement test agrees with the assembled eigensolver
    checked = 0
    while checked < 1000:
        m = random_psd(6, gen) + gen.uniform(-0.3, 0.5) * np.eye(6)
        a, b, c = m[:3, :3], m[:3, 3:], m[3:, 3:]
        if min(np.linalg.eigvalsh(a)[0], np.linalg.eigvalsh(c)[0]) <= 1e-9:
            continue
        ok &= schur_psd_check(a, b, c) == is_psd(assemble_block(a, b, c))
        checked += 1

    # bucket max dominates the quasinorm (a <= b domain)
    for _ in range(1000):
        lam = random_spectrum_values(int(gen.integers(2, 24)), gen)
        buckets = bucketize(Spectrum(lam))
        sizes = {j: buckets.size(j) for j in buckets.levels}
        b_exp = float(gen.uniform(0.2, 3.0))
        a_exp = float(gen.uniform(0.1, 1.0)) * b_exp
        q = a_exp / b_exp
        p_vec = np.concatenate([np.full(dj, 2.0**-j) for j, dj in sizes.items()])
        quasi = float((p_vec**q).sum() ** (1 / q))
        lhs = max(dj**b_exp * 2.0 ** (-a_exp * j) for j, dj in sizes.items())
        ok &= lhs >= len(sizes) ** (-b_exp) * quasi ** (-a_exp) - 1e-12

    # geometric-gap norm comparison
    for _ in range(1000):
        mlen = int(gen.integers(2, 12))
        c_ratio = float(gen.uniform(1.05, 4.0))
        ratios = gen.uniform(c_ratio, c_ratio * 2, size=mlen - 1)
        v = np.concatenate([[1.0], 1 / np.cumprod(ratios)]) * gen.uniform(0.1, 10)
        p_exp = float(gen.uniform(0.2, 3.0))
        q_exp = float(gen.uniform(0.2, 3.0))
        ok &= (v**p_exp).sum() ** (1 / p_exp) >= (
            (1 - c_ratio**-q_exp) ** (1 / q_exp) * (v**q_exp).sum() ** (1 / q_exp) - 1e-12
        )

    # sorted-mixture tail conclusion
    for _ in range(1000):
        mlen = int(gen.integers(1, 8))
        nlen = int(gen.integers(1, 8))
        u = np.cumprod(gen.uniform(2.0, 3.0, size=mlen)) * gen.uniform(1e-4, 1e-2)
        v = np.sort(gen.uniform(1e-5, 1e-1, size=nlen))
        dmult = gen.integers(2, 10, size=nlen)
        eps = float(gen.uniform(1e-4, 0.2))
        entries = [(float(x), 1, "u", k) for k, x in enumerate(u)]
        entries += [(float(x), int(dmult[k]), "v", k) for k, x in enumerate(v)]
        entries.sort(key=lambda t: t[0])
        total, s_idx = 0.0, -1
        for pos, (w, dstar, _, _) in enumerate(entries):
            if total + w * dstar <= 3 * eps + 1e-15:
                total += w * dstar
                s_idx = pos
            else:
                break
        bmax = -1
        for pos in range(s_idx + 1):
            if entries[pos][2] == "v":
                bmax = max(bmax, entries[pos][3])
        if bmax != nlen - 1:
            ok &= (v[: bmax + 2] * dmult[: bmax + 2]).sum() > eps - 1e-15

    # second-moment constants (exact order-2 route, audited constants)
    for _ in range(1000):
        dj = int(gen.integers(2, 9))
        j = int(gen.integers(0, 6))
        lam_b = gen.uniform(2.0 ** (-j - 1), 2.0**-j, size=dj)
        eps_j = float(gen.uniform(0, 2.0 ** (-j - 1)))
        val = exact_paninski_g2(lam_b, eps_j, gen)
        ok &= val <= PANINSKI_G2_CONSTANT * 2.0 ** (2 * j) * eps_j**2 / dj + 1e-12

    for _ in range(1000):
        d_row = int(gen.integers(2, 9))
        d_col = int(gen.integers(1, d_row + 1))
        j_row = int(gen.integers(0, 5))
        j_col = int(gen.integers(j_row, 6))
        lam_row = gen.uniform(2.0 ** (-j_row - 1), 2.0**-j_row, size=d_row)
        lam_col = gen.uniform(2.0 ** (-j_col - 1), 2.0**-j_col, size=d_col)
        eps = float(gen.uniform(0, d_col * 2.0 ** (-(j_row + j_col) / 2)))
        u = haar_unitary(d_row + d_col, gen)
        total = 0.0
        for z in range(d_row + d_col):
            vfull = u[:, z]
            vj, vjp = vfull[:d_row], vfull[d_row:]
            sigma_v = np.abs(vj) ** 2 @ lam_row + np.abs(vjp) ** 2 @ lam_col
            overlap2 = (np.linalg.norm(vj) ** 2) * (np.linalg.norm(vjp) ** 2) / (2 * d_row)
            total += (eps / d_col) ** 2 * overlap2 / sigma_v
        ok &= total <= OFFDIAG_G2_CONSTANT * eps**2 / (d_col**2 * 2.0 ** (-j_col)) + 1e-12

    report(10, ok, "tracepsd/schur/optimize/geoseries/sort-mix/second-moment x1000")
    assert ok
