import importlib
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcert.certify import (
    DEFAULT_L2_SCALE,
    CertifyConfig,
    _fraction_test,
    basic_certify,
    certify,
)
from qcert import cli
from qcert.cli import hidden_state, minimal_copies
from qcert.instances import build_offdiag, plan_offdiag, sample_paninski, tune_paninski
from qcert.linalg import DensityMatrix, ValidationError
from qcert.measurement import (
    Basis,
    BudgetExhaustedError,
    CopySource,
    outcome_distribution,
    sampling_probs,
)
from qcert.rng import RngHandle, ginibre, haar_unitary
from qcert.spectrum import Spectrum

from conftest import count_checked_bases, measure, random_density, rng_for
from reference import Povm, dense_basis_povm, eager_minimal_copies, eager_success


CFG = CertifyConfig()


def two_bucket_sigma():
    lam = np.array([0.16, 0.16, 0.16, 0.16, 0.119, 0.119, 0.119, 0.003])
    return Spectrum(lam), DensityMatrix.from_diagonal(lam)


def embedded_reference(rho: DensityMatrix, idx, u):
    """Law and acceptance of a conditional basis measurement, computed from
    the dense (k+1, d, d) POVM: |u_z><u_z| on the subset block, plus the
    discard element I - sum."""
    d, k = rho.dim, len(idx)
    embedded = np.zeros((k + 1, d, d), dtype=complex)
    for z, element in enumerate(dense_basis_povm(u).elements):
        embedded[z][np.ix_(idx, idx)] = element
    embedded[k] = np.eye(d) - embedded[:k].sum(axis=0)
    p_full = outcome_distribution(rho, Povm(embedded))
    accept = p_full[:-1].sum()
    return p_full[:-1] / accept, accept


def scaled_paninski_hs(sigma: DensityMatrix, target_hs: float, rng) -> DensityMatrix:
    """A bucket-rotated paired perturbation scaled to a fixed HS distance."""
    from qcert.rng import block_haar
    from qcert.spectrum import bucketize

    lam = sigma.diagonal()
    buckets = bucketize(Spectrum(lam / lam.sum()))
    best = max((j for j in buckets.levels if buckets.size(j) > 1),
               key=lambda j: 2.0**-j)
    idx = buckets.indices(best)
    k2 = 2 * (len(idx) // 2)
    amp = target_hs / np.sqrt(k2)
    assert amp <= lam[idx].min() + 1e-12, "target HS distance infeasible for this spectrum"
    pert = np.zeros(sigma.dim)
    pert[idx[: k2 // 2]] = amp
    pert[idx[k2 // 2 : k2]] = -amp
    u = block_haar(buckets, rng)
    return DensityMatrix(sigma.mat + u.conj().T @ np.diag(pert).astype(complex) @ u)


class TestBasicCertify:
    def test_dimension_one_trivial_yes(self):
        sigma = DensityMatrix.from_diagonal([1.0])
        v = basic_certify(CopySource(sigma), sigma, 0.3, 0.1, CFG,
                          rng=RngHandle(7).child("basic"))
        assert v.answer == "YES" and v.copies_used == 0

    def test_deterministic_under_seed(self):
        sigma = DensityMatrix.maximally_mixed(4)
        runs = []
        for _ in range(2):
            src = CopySource(sigma)
            v = basic_certify(src, sigma, 0.4, 0.3, CFG, rng=RngHandle(3).child("det"))
            runs.append((v.answer, v.copies_used))
        assert runs[0] == runs[1]

    def test_budget_exhaustion_inconclusive(self):
        sigma = DensityMatrix.maximally_mixed(4)
        src = CopySource(sigma, budget=5)
        v = basic_certify(src, sigma, 0.3, 0.2, CFG, rng=RngHandle(7).child("basic"))
        assert v.answer == "INCONCLUSIVE"
        assert v.copies_used <= 5

    def test_null_acceptance_d8(self):
        sigma = DensityMatrix.maximally_mixed(8)
        wrong = 0
        for t in range(60):
            src = CopySource(sigma)
            v = basic_certify(src, sigma, 0.3, 0.1, CFG, rng=RngHandle(11).child("null", t))
            wrong += v.answer != "YES"
        assert wrong <= 3

    def test_rejects_hs_far_state(self):
        spec, sigma = two_bucket_sigma()
        wrong = 0
        for t in range(60):
            rho = scaled_paninski_hs(sigma, 0.3, RngHandle(12).child("alt", t).generator())
            src = CopySource(rho)
            v = basic_certify(src, sigma, 0.3, 0.1, CFG, rng=RngHandle(12).child("run", t))
            wrong += v.answer != "NO"
        assert wrong <= 3

    def test_copy_accounting(self):
        sigma = DensityMatrix.maximally_mixed(4)
        src = CopySource(sigma)
        v = basic_certify(src, sigma, 0.5, 0.4, CFG, rng=RngHandle(7).child("basic"))
        assert v.copies_used == src.copies_used


class TestConditionalSource:
    def test_full_projector_passthrough(self):
        sigma = DensityMatrix.maximally_mixed(4)
        src = CopySource(sigma)
        cond = src.conditional(range(4))
        counts = measure(cond, Basis(np.eye(4)), 100, rng_for("cert", "pass"))
        assert counts.sum() == 100
        assert src.copies_used == 100  # no discards

    def test_aligned_pure_state_accepts_always(self):
        lam = np.zeros(4)
        lam[0] = 1.0
        src = CopySource(DensityMatrix.from_diagonal(lam))
        cond = src.conditional([0])
        m = Basis(np.eye(1))
        counts = measure(cond, m, 1, rng_for("cert", "aligned"))
        assert counts.tolist() == [1] and src.copies_used == 1

    def test_discard_rate(self):
        lam = np.array([0.3, 0.3, 0.2, 0.2])
        src = CopySource(DensityMatrix.from_diagonal(lam))
        cond = src.conditional([0, 1])
        n = 10_000
        measure(cond, Basis(np.eye(2)), n, rng_for("cert", "disc"))
        physical = src.copies_used
        discard_rate = (physical - n) / physical
        want = 0.4
        se = np.sqrt(want * (1 - want) / physical)
        assert abs(discard_rate - want) <= 4 * se

    def test_conditional_outcome_law(self):
        lam = np.array([0.5, 0.25, 0.125, 0.125])
        src = CopySource(DensityMatrix.from_diagonal(lam))
        cond = src.conditional([0, 1])
        counts = measure(cond, Basis(np.eye(2)), 50_000, rng_for("cert", "law"))
        freq = counts / counts.sum()
        assert abs(freq[0] - 2 / 3) <= 0.01

    def test_budget_charged_for_discards(self):
        lam = np.array([0.01, 0.99])
        src = CopySource(DensityMatrix.from_diagonal(lam), budget=50)
        cond = src.conditional([0])
        with pytest.raises(BudgetExhaustedError):
            for _ in range(50):
                measure(cond, Basis(np.eye(1)), 1, rng_for("cert", "bud"))

    @pytest.mark.parametrize("indices", [[], [-1], [0, 4]])
    def test_subset_outside_the_state_rejected(self, indices):
        with pytest.raises(ValidationError):
            CopySource(DensityMatrix.maximally_mixed(4)).conditional(indices)

    def test_zero_acceptance_raises_without_charge(self):
        src = CopySource(DensityMatrix.from_diagonal([0.5, 0.5, 0.0]))
        with pytest.raises(BudgetExhaustedError):
            measure(src.conditional([2]), Basis(np.eye(1)), 1, rng_for("cert", "zero"))
        assert src.copies_used == 0

    @pytest.mark.parametrize("d", [1, 2, 7, 32])
    def test_law_and_acceptance_match_embedded_povm(self, d):
        gen = rng_for("cert", "embed", d)
        rho = random_density(d, gen)
        idx = np.sort(gen.choice(d, size=(d + 1) // 2, replace=False))
        u = haar_unitary(len(idx), gen)
        law, accept = embedded_reference(rho, idx, u)
        weights = Basis(u).weights(rho.mat[np.ix_(idx, idx)])
        assert abs(weights.sum() - accept) <= 1e-12
        assert np.abs(weights / weights.sum() - law).max() <= 1e-12
        # the view draws its discards, then its counts, from that law and acceptance
        n = 1000
        src = CopySource(rho)
        view = src.conditional(idx)
        assert abs(view.acceptance - accept) <= 1e-12
        counts = measure(view, Basis(u), n, rng_for("cert", "draw", d))
        ref = rng_for("cert", "draw", d)
        accept = view.acceptance
        discards = int(ref.negative_binomial(n, accept)) if accept < 1.0 - 1e-12 else 0
        assert src.copies_used == n + discards
        assert counts.tolist() == ref.multinomial(n, law).tolist()

    def test_discards_beyond_int64_raise_without_charge(self):
        # 1e15 accepted copies at acceptance 1e-5 need about 1e20 discards
        src = CopySource(DensityMatrix.from_diagonal([1e-5, 1 - 1e-5]))
        view = src.conditional([0])
        with pytest.raises(BudgetExhaustedError):
            view.charge(10**15, 3, rng_for("cert", "headroom"))
        assert src.copies_used == 0
        # and a basic tester that would need them answers INCONCLUSIVE
        src = CopySource(DensityMatrix.from_diagonal([5e-6, 5e-6, 1 - 1e-5]))
        v = basic_certify(src.conditional([0, 1]), DensityMatrix.maximally_mixed(2),
                          1e-7, 0.3, CFG, rng=RngHandle(7).child("basic"))
        assert v.answer == "INCONCLUSIVE" and v.copies_used == src.copies_used == 0

    def test_charge_past_float64_integers_is_exact(self):
        # 1e13 accepted copies at acceptance 7.5e-5: about 1.3e17 discards per
        # batch, past 2^53, and over 111 batches a total past 2^63
        src = CopySource(DensityMatrix.from_diagonal([7.5e-5, 1 - 7.5e-5]))
        view = src.conditional([0])
        n, batches = 10**13, 111
        view.charge(n, batches, rng_for("cert", "headroom-ok"))
        discards = rng_for("cert", "headroom-ok").negative_binomial(
            n, view.acceptance, size=batches).tolist()
        assert min(discards) > 2**53
        total = batches * n + sum(discards)
        assert total > 2**63
        assert type(src.copies_used) is int and src.copies_used == total

    @pytest.mark.parametrize("k", [0, 1, 20, 41])
    def test_budget_running_out_in_round_k(self, k, monkeypatch):
        """basic_certify charges every round before simulating any: a budget
        that runs out in round k charges exactly the rounds before k, draws
        no Haar basis and answers INCONCLUSIVE."""
        src = CopySource(DensityMatrix.from_diagonal([0.2, 0.2, 0.2, 0.4]))
        sigma = DensityMatrix.maximally_mixed(3)
        rng = RngHandle(5).child("round-k")
        n, rounds = math.ceil(CFG.c_basic * math.sqrt(3) / 0.5**2), 42  # delta = 0.1
        view = src.conditional([0, 1, 2])
        discards = rng.generator().negative_binomial(n, view.acceptance, size=rounds).tolist()
        charges = [n + x for x in discards]
        budget = sum(charges[:k + 1]) - 1
        drawn = []

        def recording(*args, **kwargs):
            drawn.append(args)
            return haar_unitary(*args, **kwargs)

        # qcert.certify, the attribute, is the function; patch the module
        monkeypatch.setattr(importlib.import_module("qcert.certify"), "haar_unitary", recording)
        v = basic_certify(CopySource(src.state, budget).conditional([0, 1, 2]), sigma, 0.5, 0.1,
                          CFG, rng=rng)
        assert v.answer == "INCONCLUSIVE" and v.copies_used == sum(charges[:k])
        assert drawn == []
        # one more copy pays for round k too
        v = basic_certify(CopySource(src.state, budget + 1).conditional([0, 1, 2]), sigma, 0.5,
                          0.1, CFG, rng=rng)
        assert v.copies_used == sum(charges[:k + 1])


class TestRotatedView:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 24), r=st.integers(1, 4),
           conditional=st.booleans())
    def test_matches_direct_path_for_diagonal_state(self, seed, d, r, conditional):
        """For diagonal rho and Haar V, measuring CopySource(V rho V^dag).rotated(V)
        gives the law and acceptance of measuring rho directly, within 1e-12."""
        gen = RngHandle(seed).child("rotated").generator()
        rho = DensityMatrix.from_diagonal(gen.dirichlet(np.ones(d)))
        v = haar_unitary(d, gen)
        direct = CopySource(rho)
        rotated = CopySource(DensityMatrix(v @ rho.mat @ v.conj().T)).rotated(v)
        if conditional:
            idx = np.sort(gen.choice(d, size=int(gen.integers(1, d + 1)), replace=False))
            direct, rotated = direct.conditional(idx), rotated.conditional(idx)
        m = Basis(haar_unitary(direct.dim, gen, size=r))
        assert np.abs(rotated.law(m) - direct.law(m)).max() <= 1e-12
        assert abs(rotated.acceptance - direct.acceptance) <= 1e-12


class TestFractionTest:
    def test_binomial_is_multinomial_first_count(self):
        """numpy draws multinomial(n, [p, 1 - p])[0] as binomial(n, p): the
        same value from the same generator state."""
        for seed in range(2000):
            gen = np.random.default_rng(seed)
            n = int(gen.integers(1, 10**7))
            p = float(gen.random())
            a, b = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
            assert a.binomial(n, p) == b.multinomial(n, [p, 1 - p])[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_projector_measurement(self, seed):
        """Same fraction and copies as measuring the dense {Pi, I - Pi} POVM
        with one multinomial draw, as the fraction test did before."""
        gen = rng_for("fraction", seed)
        rho = random_density(6, gen)
        idx = np.array([0, 2, 3])
        src = CopySource(rho)
        frac = _fraction_test(src, idx, 5000, rng_for("fraction-draw", seed))
        ref_gen = rng_for("fraction-draw", seed)
        pi = np.zeros((6, 6), dtype=complex)
        pi[idx, idx] = 1.0
        m = Povm(np.stack([pi, np.eye(6) - pi]))
        counts = ref_gen.multinomial(5000, sampling_probs(outcome_distribution(rho, m)))
        assert frac == counts[0] / 5000
        assert src.copies_used == 5000

    def test_acceptance_clipped_to_unit_interval(self):
        """A subset holding the whole trace may sum past 1 by rounding."""
        lam = np.array([0.5 + 4e-10, 0.5, 0.0])
        src = CopySource(DensityMatrix.from_diagonal(lam))
        assert src.conditional([0, 1]).acceptance > 1.0
        assert _fraction_test(src, [0, 1], 100, rng_for("fraction-clip")) == 1.0


class TestCertify:
    def test_null_yes(self):
        spec, sigma = two_bucket_sigma()
        v = certify(CopySource(sigma), sigma, 0.3, 0.2, CFG, rng=RngHandle(1).child("n"))
        assert v.answer == "YES"

    def test_offdiag_alternative_rejected_via_scenario4(self):
        spec, sigma = two_bucket_sigma()
        inst = plan_offdiag(spec, 0.3, j_row=2, j_col=3)
        rho = build_offdiag(sigma, inst, RngHandle(2).generator())
        v = certify(CopySource(rho), sigma, 0.3, 0.2, CFG, rng=RngHandle(2).child("o"))
        assert v.answer == "NO"
        assert v.diagnostics["scenario4"]  # reached the pair stage

    def test_tail_alternative_rejected_via_scenario1(self):
        spec, sigma = two_bucket_sigma()
        lam = spec.lambdas.copy()
        shift = 0.3**2 / 4
        lam[0] -= shift
        lam[7] += shift
        rho = DensityMatrix.from_diagonal(lam)
        v = certify(CopySource(rho), sigma, 0.3, 0.2, CFG, rng=RngHandle(3).child("t"))
        assert v.answer == "NO"
        assert v.diagnostics["scenario1"]["fraction"] >= 0.3**2 / 5
        assert not v.diagnostics["scenario3"]  # first NO wins, loop never entered

    def test_copy_accounting_exact(self):
        spec, sigma = two_bucket_sigma()
        src = CopySource(sigma)
        v = certify(src, sigma, 0.3, 0.2, CFG, rng=RngHandle(4).child("c"))
        assert v.copies_used == src.copies_used

    def test_deterministic_verdict_and_copies(self):
        spec, sigma = two_bucket_sigma()
        results = []
        for _ in range(2):
            src = CopySource(sigma)
            v = certify(src, sigma, 0.3, 0.2, CFG, rng=RngHandle(5).child("d"))
            results.append((v.answer, v.copies_used))
        assert results[0] == results[1]

    def test_general_sigma_rotated_internally(self):
        # non-diagonal sigma: rotate a two-bucket state by a fixed unitary
        spec, diag_sigma = two_bucket_sigma()
        u = haar_unitary(8, rng_for("cert", "rot"))
        sigma = DensityMatrix(u @ diag_sigma.mat @ u.conj().T)
        v = certify(CopySource(sigma), sigma, 0.3, 0.25, CFG, rng=RngHandle(6).child("r"))
        assert v.answer == "YES"

    def test_one_diagonal_rule(self, monkeypatch):
        """Whether sigma is diagonal is read from ``diagonal_entries``: a
        diagonal sigma built three ways gives one verdict and copy count
        without a rotation, and one 1e-13 off-diagonal entry is enough to
        send sigma through its eigenbasis."""
        spec, sigma = two_bucket_sigma()
        mat = np.diag(spec.lambdas).astype(complex)
        rotations = []
        rotated = CopySource.rotated
        monkeypatch.setattr(CopySource, "rotated",
                            lambda src, v: rotations.append(v) or rotated(src, v))

        def run(s):
            v = certify(CopySource(s), s, 0.3, 0.2, CFG, rng=RngHandle(7).child("diag"))
            return v.answer, v.copies_used

        runs = {run(s) for s in (sigma, DensityMatrix(mat), DensityMatrix.trusted(mat))}
        assert len(runs) == 1 and rotations == []
        mat[0, 1] = mat[1, 0] = 1e-13
        run(DensityMatrix(mat))
        assert len(rotations) == 1

    def test_budget_inconclusive(self):
        spec, sigma = two_bucket_sigma()
        v = certify(CopySource(sigma, budget=100), sigma, 0.3, 0.2, CFG,
                    rng=RngHandle(7).child("b"))
        assert v.answer == "INCONCLUSIVE"

    def test_budget_inconclusive_inside_conditional_stage(self):
        # exhaust the budget deep inside a conditional basic run; the verdict
        # must surface as inconclusive, never as a YES built on partial data
        spec, sigma = two_bucket_sigma()
        probe = CopySource(sigma)
        full = certify(probe, sigma, 0.3, 0.2, CFG, rng=RngHandle(7).child("b2"))
        assert full.answer == "YES"
        src = CopySource(sigma, budget=full.copies_used // 2)
        v = certify(src, sigma, 0.3, 0.2, CFG, rng=RngHandle(7).child("b2"))
        assert v.answer == "INCONCLUSIVE"
        assert v.copies_used <= full.copies_used // 2

    def test_kernel_mass_rejected_for_rank_deficient_sigma(self):
        # mass hidden on the kernel of a rank-deficient sigma must trip the
        # tail projector (the kernel coordinates belong to the removed tail)
        sigma = DensityMatrix.from_diagonal([0.5, 0.5, 0.0, 0.0])
        lam = np.array([0.45, 0.45, 0.05, 0.05])
        rho = DensityMatrix.from_diagonal(lam)
        wrong = 0
        for t in range(20):
            v = certify(CopySource(rho), sigma, 0.3, 0.2, CFG,
                        rng=RngHandle(9).child("k", t))
            wrong += v.answer != "NO"
        assert wrong <= 1

    def test_rank_deficient_null_accepts(self):
        sigma = DensityMatrix.from_diagonal([0.5, 0.5, 0.0, 0.0])
        v = certify(CopySource(sigma), sigma, 0.3, 0.2, CFG, rng=RngHandle(10).child("rk"))
        assert v.answer == "YES"

    def test_paninski_alternative_rejected(self):
        # a bucket-level perturbation lands in scenario 3
        spec, sigma = two_bucket_sigma()
        inst = tune_paninski(spec, 0.3)
        wrong = 0
        for t in range(10):
            rho = sample_paninski(sigma, inst, RngHandle(8).child("p", t).generator())
            v = certify(CopySource(rho), sigma, 0.3, 0.2, CFG,
                        rng=RngHandle(8).child("pr", t))
            wrong += v.answer != "NO"
        assert wrong <= 1

    def test_scenario1_reports_the_copies_it_charged(self):
        """An empty tail is never measured and reports 0 copies; a nonempty
        one reports n1, which a budget of exactly n1 pays for before the
        first stage runs out."""
        mm = DensityMatrix.maximally_mixed(4)
        v = certify(CopySource(mm), mm, 0.3, 0.2, CFG, rng=RngHandle(1))
        assert v.diagnostics["scenario1"] == {"fraction": 0.0, "threshold": 0.3**2 / 5,
                                              "copies": 0}
        _, sigma = two_bucket_sigma()  # its smallest entry forms the tail
        n1 = math.ceil(80 * math.log(2 / 0.2) / 0.3**2)
        v = certify(CopySource(sigma, budget=n1), sigma, 0.3, 0.2, CFG, rng=RngHandle(1))
        assert v.answer == "INCONCLUSIVE" and v.copies_used == n1
        assert v.diagnostics["scenario1"]["copies"] == n1

    def test_pinned_seed_verdicts_and_copies(self):
        """Fixed seeds give fixed verdicts and copy counts, and conjugating
        both sigma and rho by one Haar unitary changes neither."""
        lam = np.arange(1, 17, dtype=float)
        spec = Spectrum(lam / lam.sum())
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        h = RngHandle(0).child("g", 16)
        rho = hidden_state("offdiag", spec, 0.3, h.child("state"))
        v = haar_unitary(16, h.child("basis").generator())
        for conj in (lambda s: s, lambda s: DensityMatrix(v @ s.mat @ v.conj().T)):
            for state, want in ((sigma, ("YES", 2731284986281)), (rho, ("NO", 734819880964))):
                verdict = certify(CopySource(conj(state)), conj(sigma), 0.3, 0.2, CFG,
                                  rng=h.child("algo"))
                assert (verdict.answer, verdict.copies_used) == want


def linear_spectrum(d: int) -> Spectrum:
    lam = np.arange(1, d + 1, dtype=float)
    return Spectrum(lam / lam.sum())


def stages(buckets: int, pairs: int, last: str = "YES") -> list:
    """(label, skipped, basic answer) of each scenario-3 and scenario-4 stage
    run: ``buckets`` bucket stages, then ``pairs`` pair stages, the last stage
    answering ``last`` and all others YES."""
    out = [("bucket", False, "YES")] * buckets + [("pair", False, "YES")] * pairs
    out[-1] = (out[-1][0], False, last)
    return out


def test_drawn_bases_skip_the_unitarity_check(monkeypatch):
    """basic_certify and certify measure the Haar stacks they draw through
    ``Basis.trusted``: seeded runs (pinned in TestPinnedRuns) form no U^dag U
    and keep their verdicts and copy counts."""
    checked = count_checked_bases(monkeypatch)
    spec = linear_spectrum(16)
    sigma = DensityMatrix.from_diagonal(spec.lambdas)
    v = certify(CopySource(sigma), sigma, 0.3, 0.2, CFG,
                rng=RngHandle(1).child("pinned", 16, "null").child("algo"))
    assert (v.answer, v.copies_used) == ("YES", 2731283517342)
    src = CopySource(DensityMatrix.maximally_mixed(16)).conditional(range(8))
    v = basic_certify(src, DensityMatrix.maximally_mixed(8), 0.3, 0.1, CFG,
                      rng=RngHandle(1).child("pinned-basic", 8))
    assert (v.answer, v.copies_used) == ("YES", 127020)
    assert checked == []


class TestPinnedRuns:
    """Verdicts and copy counts of seeded runs, pinned exactly. Every value
    depends on the Ginibre, discard and multinomial draws, so a change that
    moves any draw of stream layout v3 fails here and must re-pin on purpose."""

    # the stages each certify run went through, in order; the first NO or
    # INCONCLUSIVE ends the run
    STAGES = {
        (8, "null", None): stages(4, 6),
        (8, "offdiag", None): stages(1, 0, "NO"),
        (16, "null", None): stages(5, 10),
        (16, "offdiag", None): stages(1, 0, "NO"),
        (32, "null", None): stages(5, 10),
        (32, "offdiag", None): stages(1, 0, "NO"),
        (16, "null", 10**12): stages(5, 1, "INCONCLUSIVE"),
    }

    @pytest.mark.parametrize("d, hidden, budget, want", [
        (8, "null", None, ("YES", 554604613595)),
        (8, "offdiag", None, ("NO", 167842054525)),
        (16, "null", None, ("YES", 2731283517342)),
        (16, "offdiag", None, ("NO", 734820537047)),
        (32, "null", None, ("YES", 11188586390118)),
        (32, "offdiag", None, ("NO", 3035555600635)),
        # the budget runs out inside a conditional basic test
        (16, "null", 10**12, ("INCONCLUSIVE", 996836397130)),
    ])
    def test_certify_linear_spectrum(self, d, hidden, budget, want):
        spec = linear_spectrum(d)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        h = RngHandle(1).child("pinned", d, hidden)
        rho = hidden_state(hidden, spec, 0.3, h.child("state"))
        v = certify(CopySource(rho, budget), sigma, 0.3, 0.2,
                    CFG, rng=h.child("algo"))
        assert (v.answer, v.copies_used) == want
        run = v.diagnostics["scenario3"] + v.diagnostics["scenario4"]
        assert [("bucket" if "bucket" in e else "pair", e["skipped"], e.get("basic"))
                for e in run] == self.STAGES[d, hidden, budget]

    @pytest.mark.parametrize("d, want", [
        (2, ("YES", 63391, 0, 42)),
        (8, ("YES", 127020, 1, 42)),
        (32, ("YES", 253582, 0, 24)),
    ])
    def test_basic_certify_maximally_mixed(self, d, want):
        # I/d measured through a conditional view of I/2d, so the copy count
        # includes the drawn discards; at d = 32 the chunks hold 8 rounds and
        # the majority is fixed after 3 of them
        src = CopySource(DensityMatrix.maximally_mixed(2 * d)).conditional(range(d))
        v = basic_certify(src, DensityMatrix.maximally_mixed(d), 0.3, 0.1, CFG,
                          rng=RngHandle(1).child("pinned-basic", d))
        diag = v.diagnostics
        assert (v.answer, v.copies_used, diag["rejections"], diag["rounds_run"]) == want

    @pytest.mark.parametrize("d, want", [(4, 303), (8, 258)])
    def test_minimal_copies(self, d, want):
        assert minimal_copies(d, 0.3, 1, 20, 0.9) == want

    @pytest.mark.parametrize("d", [4, 8])
    def test_minimal_copies_runs_the_counts_it_probes(self, d, monkeypatch):
        # every probe n, a doubling step or a bisection midpoint, runs exactly
        # n copies per round (roundoff in c_basic used to make 384 run 385)
        seen = []

        def recording(*args, **kwargs):
            verdict = basic_certify(*args, **kwargs)
            seen.append(verdict.diagnostics["copies_per_round"])
            return verdict

        monkeypatch.setattr(cli, "basic_certify", recording)
        n = minimal_copies(d, 0.3, 1, 20, 0.9)
        probes = list(dict.fromkeys(seen))
        top = probes.index(max(probes))
        assert probes[:top + 1] == [16 * 2**i for i in range(top + 1)]
        lo, hi = probes[top] // 2, probes[top]
        for mid in probes[top + 1:]:
            assert mid == (lo + hi) // 2
            lo, hi = (lo, mid) if n <= mid else (mid, hi)
        assert hi == n


def round_guard_case(kind: str, d: int):
    """(source, sigma) of one ``TestRoundPins`` case: a full source on
    a diagonal state tested against another diagonal sigma; a conditional
    view of a diagonal state on d of its 2d coordinates, tested against its
    own block; a conditional view of a Haar-rotated diagonal state, whose
    measured block is dense, against the normalised block diagonal; or the
    conditional case on a budget that runs out before the last round."""
    gen = rng_for("round-guard", kind, d)
    if kind == "diagonal":
        rho = DensityMatrix.from_diagonal(gen.dirichlet(np.ones(d)))
        return CopySource(rho), DensityMatrix.from_diagonal(gen.dirichlet(np.ones(d)))
    lam = gen.dirichlet(np.ones(2 * d))
    idx = np.sort(gen.choice(2 * d, size=d, replace=False))
    # 21 of the 42 rounds' accepted copies: the discards exhaust it sooner
    budget = 21 * math.ceil(192 * math.sqrt(d)) if kind == "budget" else None
    src = CopySource(DensityMatrix.from_diagonal(lam), budget)
    if kind == "rotated":
        src = src.rotated(haar_unitary(2 * d, gen))
    src = src.conditional(idx)
    block = np.diagonal(src.state.mat)[idx].real
    return src, DensityMatrix.from_diagonal(block / block.sum())


class TestRoundPins:
    """Seeded basic_certify runs on each kind of source the certifier
    measures, pinned exactly: (answer, copies, rounds_run, rejections), and
    None for the two counts when the budget runs out before any round runs.
    The chunk holds 2048, 910, 128, 7 and 1 rounds at d = 2, 3, 8, 33, 96."""

    PINS = {
        ("diagonal", 2): ("NO", 11424, 42, 28),
        ("diagonal", 3): ("NO", 13986, 42, 28),
        ("diagonal", 8): ("NO", 22848, 42, 41),
        ("diagonal", 33): ("NO", 46326, 42, 26),
        ("diagonal", 96): ("YES", 79044, 25, 4),
        ("conditional", 2): ("YES", 13110, 42, 1),
        ("conditional", 3): ("YES", 23661, 42, 2),
        ("conditional", 8): ("YES", 49298, 42, 2),
        ("conditional", 33): ("YES", 116656, 28, 1),
        ("conditional", 96): ("YES", 165055, 21, 0),
        ("rotated", 2): ("NO", 22738, 42, 26),
        ("rotated", 3): ("NO", 27536, 42, 26),
        ("rotated", 8): ("YES", 44548, 42, 15),
        ("rotated", 33): ("YES", 91521, 28, 5),
        ("rotated", 96): ("YES", 157463, 21, 0),
        ("budget", 2): ("INCONCLUSIVE", 5309, None, None),
        ("budget", 3): ("INCONCLUSIVE", 6156, None, None),
        ("budget", 8): ("INCONCLUSIVE", 10980, None, None),
        ("budget", 33): ("INCONCLUSIVE", 22383, None, None),
        ("budget", 96): ("INCONCLUSIVE", 35558, None, None),
    }

    @pytest.mark.parametrize("kind", ["diagonal", "conditional", "rotated", "budget"])
    @pytest.mark.parametrize("d", [2, 3, 8, 33, 96])
    def test_verdicts_and_counts(self, kind, d):
        src, sigma = round_guard_case(kind, d)
        v = basic_certify(src, sigma, 0.5, 0.1, CFG, rng=RngHandle(5).child("round-guard", d))
        diag = v.diagnostics
        got = (v.answer, v.copies_used, diag.get("rounds_run"), diag.get("rejections"))
        assert got == self.PINS[kind, d]

    @pytest.mark.parametrize("kind, gathered, counted, run",
                             [("rotated", 1, 0, 28), ("mixed", 0, 0, 21), ("row0", 1, 1, 28)])
    def test_blocks_read_once_per_call(self, kind, gathered, counted, run, monkeypatch):
        """Over 3 or more chunks of 7 rounds, a conditional view gathers its
        block at most once and counts its nonzeros at most once. A dense
        block shows an off-diagonal entry in its first row and is not
        counted; a diagonal state, read when it was built, is measured
        through its entries; a dense block whose first row is diagonal is
        counted on the first chunk only."""
        if kind == "rotated":
            src, sigma = round_guard_case("rotated", 33)
        elif kind == "mixed":
            src = CopySource(DensityMatrix.maximally_mixed(66)).conditional(range(0, 66, 2))
            sigma = DensityMatrix.maximally_mixed(33)
        else:
            mat = np.zeros((66, 66), dtype=complex)
            mat[0, 0], mat[1:, 1:] = 0.5, 0.5 * random_density(65, rng_for("round-guard", "row0")).mat
            src = CopySource(DensityMatrix(mat)).conditional(range(0, 66, 2))
            sigma = DensityMatrix.maximally_mixed(33)
        counts, gathers = [], []
        count_nonzero, ix = np.count_nonzero, np.ix_
        monkeypatch.setattr(np, "count_nonzero",
                            lambda a, *args: (np.ndim(a) == 2 and counts.append(np.shape(a)))
                            or count_nonzero(a, *args))
        monkeypatch.setattr(np, "ix_", lambda *args: gathers.append(len(args)) or ix(*args))
        v = basic_certify(src, sigma, 0.5, 0.1, CFG, rng=RngHandle(5).child("round-guard", 33))
        assert v.diagnostics["rounds_run"] == run
        assert counts == [(33, 33)] * counted and len(gathers) == gathered


class TestLazySweep:
    """A sweep probe stops its trials once the comparison with the target is
    fixed; its answers, and so minimal_copies' results, are those of running
    every trial (``reference.eager_success``)."""

    @staticmethod
    def record_calls(monkeypatch):
        """Patch cli.basic_certify to log (trial, hypothesis, right verdict)."""
        calls = []

        def recording(src, sigma, *args, rng, **kwargs):
            verdict = basic_certify(src, sigma, *args, rng=rng, **kwargs)
            hyp = "null" if src.state is sigma else "alt"
            calls.append((rng.stream[-2], hyp, verdict.answer == ("YES" if hyp == "null" else "NO")))
            return verdict

        monkeypatch.setattr(cli, "basic_certify", recording)
        return calls

    @pytest.mark.parametrize("d, seed, trials, target, n, want", [
        # 55 of 100 right: 55 / 100 >= 0.55, though ceil(0.55 * 100) is 56
        (4, 1, 100, 0.55, 80, True),
        (4, 1, 100, 0.55, 88, False),
        (4, 2, 10, 1.0, 512, False),
        (4, 2, 10, 1.0, 1024, True),
        (8, 1, 7, 0.8, 256, False),
        (8, 1, 7, 0.8, 512, True),
        (16, 2, 13, 0.55, 64, True),
        (32, 1, 40, 0.9, 16, False),
    ])
    def test_probe_matches_all_trials(self, d, seed, trials, target, n, want):
        assert (eager_success(d, 0.3, seed, trials, n) >= target) is want
        assert cli.sweep_success(d, 0.3, seed, trials, target, n) is want

    @pytest.mark.parametrize("d", [4, 8])
    @pytest.mark.parametrize("trials, target", [(13, 0.55), (10, 1.0), (20, 0.9)])
    def test_minimal_copies_matches_all_trials(self, d, trials, target):
        assert minimal_copies(d, 0.3, 2, trials, target) == \
            eager_minimal_copies(d, 0.3, 2, trials, target)

    @pytest.mark.parametrize("n, bound", [(16, 8), (4, 6)])
    def test_below_threshold_stops_at_the_deciding_failure(self, n, bound, monkeypatch):
        # need = 36 of 40, so 5 wrong verdicts of one hypothesis fix False
        trials, need = 40, 36
        calls = self.record_calls(monkeypatch)
        assert not cli.sweep_success(32, 0.3, 1, trials, 0.9, n)
        _, hyp, right = calls[-1]
        verdicts = [ok for _, h, ok in calls if h == hyp]
        assert not right and verdicts.count(False) == trials - need + 1
        # the hypotheses alternate, null first, up to the first wrong verdict;
        # then only the hypothesis holding it runs, here the deciding one. So
        # the calls are its trials - need + 1 wrong and its right verdicts,
        # plus the other's calls, at most one per trial the deciding one ran
        # up to its first wrong verdict: 5 + 0 + 1 at n = 4, 5 + 1 + 2 at
        # n = 16 (10 and 12 under strict alternation)
        first = next(i for i, (_, _, ok) in enumerate(calls) if not ok)
        alternating = [("null", "alt")[i % 2] for i in range(first + 1)]
        assert [h for _, h, _ in calls[:first + 1]] == alternating
        assert all(h == hyp for _, h, _ in calls[first:])
        upto_first = verdicts.index(False) + 1
        assert len(calls) <= trials - need + 1 + verdicts.count(True) + upto_first == bound

    @pytest.mark.parametrize("wrong, calls", [
        # every verdict right: strict null/alt alternation, 2 need calls
        (set(), [(t, h) for t in range(8) for h in ("null", "alt")]),
        # alt wrong from its first trial: alt runs alone to its third wrong
        ({(t, "alt") for t in range(10)}, [(0, "null"), (0, "alt"), (1, "alt"), (2, "alt")]),
        # null wrong from trial 6 on: null runs alone from its first wrong
        ({(t, "null") for t in range(6, 10)},
         [(t, h) for t in range(6) for h in ("null", "alt")]
         + [(6, "null"), (7, "null"), (8, "null")]),
    ])
    def test_next_trial_goes_to_the_hypothesis_nearest_to_failing(self, wrong, calls, monkeypatch):
        # 10 trials at target 0.8: need = 8, so a third wrong verdict fixes False
        made = []
        probe = RngHandle(4).child("sweep", 8, 64)

        def scripted(src, sigma, eps, delta, cfg, rng):
            hyp = "null" if src.state is sigma else "alt"
            t = rng.stream[-2]
            assert rng == probe.child(t).child(hyp)
            made.append((t, hyp))
            answers = ("YES", "NO") if hyp == "null" else ("NO", "YES")
            return types.SimpleNamespace(answer=answers[(t, hyp) in wrong])

        monkeypatch.setattr(cli, "basic_certify", scripted)
        assert cli.sweep_success(8, 0.3, 4, 10, 0.8, 64) is (not wrong)
        assert made == calls

    def test_fewer_calls_than_all_trials(self, monkeypatch):
        calls = self.record_calls(monkeypatch)
        lazy = minimal_copies(8, 0.3, 1, 20, 0.9)
        lazy_calls = list(calls)
        calls.clear()
        assert eager_minimal_copies(8, 0.3, 1, 20, 0.9) == lazy
        # 412 calls under strict null/alt alternation
        assert len(lazy_calls) == 371 < len(calls)

    @pytest.mark.parametrize("trials, target", [
        (0, 0.9), (-1, 0.9), (20, 0.0), (20, -0.5), (20, 1.5), (20, float("nan")),
    ])
    def test_bad_trials_or_target_is_a_validation_error(self, trials, target):
        with pytest.raises(ValidationError):
            minimal_copies(4, 0.3, 1, trials, target)

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_spike_matches_the_validated_sigma_mixture(self, d):
        spec = Spectrum(np.full(d, 1.0 / d))
        h = RngHandle(3).child("spike", d)
        beta = min(0.3 / np.sqrt(1 - 1 / d), 1.0)
        z = ginibre(d, h.generator())[:, 0]
        v = z / np.linalg.norm(z)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        want = DensityMatrix((1 - beta) * sigma.mat + beta * np.outer(v, v.conj())).mat
        got = hidden_state("spike", spec, 0.3, h).mat
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("eps", [0.0, -0.1, float("nan")])
    def test_spike_needs_positive_eps(self, eps):
        # beta must lie in [0, 1] for the unchecked mixture to be a state
        with pytest.raises(ValidationError):
            hidden_state("spike", Spectrum(np.full(4, 0.25)), eps, RngHandle(3))

    def test_sweep_solves_only_for_sigma(self, monkeypatch):
        # the spike mixtures are built unchecked, and sigma = I/d is checked
        # from its diagonal entries: no probe solves for eigenvalues
        probes, solves = [], []
        success, eigvalsh = cli.sweep_success, np.linalg.eigvalsh
        monkeypatch.setattr(cli, "sweep_success", lambda *a: probes.append(a) or success(*a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: solves.append(a) or eigvalsh(*a))
        assert minimal_copies(4, 0.4, 1, 6, 0.5) == 32
        assert len(probes) == 6 and solves == []


class TestScaling:
    def test_total_copies_scale_with_dimension(self):
        """Copies under the null on maximally mixed states grow as d^beta,
        beta in [1.2, 1.8]. Measured at small eps where the polylog drift in
        the per-bucket thresholds contributes less than 0.3 to the exponent."""
        eps, delta = 0.002, 0.2
        cfg = CertifyConfig()
        copies = []
        dims = [4, 8, 16]
        for d in dims:
            sigma = DensityMatrix.maximally_mixed(d)
            v = certify(CopySource(sigma), sigma, eps, delta, cfg,
                        rng=RngHandle(3).child("beta", d))
            assert v.answer == "YES"
            copies.append(v.copies_used)
        beta = float(np.polyfit(np.log(dims), np.log(copies), 1)[0])
        assert 1.2 <= beta <= 1.8, f"beta = {beta}, copies = {copies}"


class TestCalibration:
    def test_single_round_calibration(self):
        """Single-round power >= 2/3 at d = 16, eps_HS = 0.3 (fixes c_basic/l2_scale)."""
        lam = np.array([0.2] * 4 + [0.2 / 12] * 12)
        sigma = DensityMatrix.from_diagonal(lam)
        ok_null = ok_alt = 0
        trials = 150
        for t in range(trials):
            handle = RngHandle(100).child("cal", t)
            v = basic_certify(CopySource(sigma), sigma, 0.3, 0.95, CFG,
                              rng=handle.child("null"))
            ok_null += v.answer == "YES"
            rho = scaled_paninski_hs(sigma, 0.3, handle.child("draw").generator())
            v = basic_certify(CopySource(rho), sigma, 0.3, 0.95, CFG,
                              rng=handle.child("alt"))
            ok_alt += v.answer == "NO"
        assert ok_null / trials >= 2 / 3
        assert ok_alt / trials >= 2 / 3


def per_round_basic_certify(src, sigma, eps, delta, cfg, rng):
    """basic_certify in stream layout v3 with every round simulated, one at a
    time: one generator per call; all rounds' discards from one negative
    binomial draw (none on a full source), charged round by round against
    ``src``'s budget; then per chunk of max(1, 8192 // d^2) rounds one
    Ginibre stack, and per round one QR, one measured and one reference
    multinomial and one L2 test. Charges nothing to ``src``. Returns (answer,
    copies charged, the per-round rejections, or None when INCONCLUSIVE)."""
    d = src.dim
    n = math.ceil(cfg.c_basic * math.sqrt(d) / eps**2)
    gap = DEFAULT_L2_SCALE * eps / math.sqrt(d)
    rounds = max(1, math.ceil(18 * math.log(1 / delta)))
    chunk = max(1, 8192 // d**2)
    gen = rng.generator()
    discards = [0] * rounds
    if src.acceptance < 1.0 - 1e-12:
        discards = gen.negative_binomial(n, src.acceptance, size=rounds).tolist()
    copies = 0
    for k in discards:
        if src.budget is not None and copies + n + k > src.budget:
            return "INCONCLUSIVE", copies, None
        copies += n + k
    rejected = []
    for first in range(0, rounds, chunk):
        for z in ginibre(d, gen, size=min(chunk, rounds - first)):
            q, r = np.linalg.qr(z)
            m = Basis(q * (np.diag(r) / np.abs(np.diag(r))))
            p = np.clip(src.law(m), 0.0, None)
            x = gen.multinomial(n, p / p.sum()).astype(float)
            y = gen.multinomial(n, outcome_distribution(sigma, m)).astype(float)
            rejected.append(float(((x - y) ** 2 - x - y).sum()) > n**2 * gap**2 / 2)
    return ("NO" if 2 * sum(rejected) > rounds else "YES"), copies, rejected


def source_case(seed: int, d: int, conditional: bool, alternative: bool):
    """A source factory (budget -> CopySource) on a d-dim state and the sigma
    it is tested against: a full source, or a conditional view on d of the
    coordinates of a larger random state; sigma equals the measured state,
    or is an independent random state when ``alternative``."""
    gen = np.random.default_rng(seed)
    if conditional:
        full = random_density(d + int(gen.integers(1, 5)), gen)
        idx = np.sort(gen.choice(full.dim, size=d, replace=False))
        block = full.mat[np.ix_(idx, idx)]
        measured = DensityMatrix(block / np.trace(block).real)
        make = lambda budget: CopySource(full, budget).conditional(idx)
    else:
        measured = random_density(d, gen)
        make = lambda budget: CopySource(measured, budget)
    sigma = random_density(d, gen) if alternative else measured
    return make, sigma


class TestBatchedRounds:
    """basic_certify charges every round, then simulates chunks of stacked
    bases until the majority is fixed; its answer and copies must equal the
    loop that simulates every round one at a time from the same stream."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 40), rounds=st.integers(1, 120),
           eps=st.floats(0.25, 1.5), conditional=st.booleans(), alternative=st.booleans(),
           budget_frac=st.none() | st.floats(0.0, 1.2))
    # one chunk of 101 rounds at d = 9, the budget running out in its middle
    @example(seed=1, d=9, rounds=120, eps=0.5, conditional=True, alternative=False,
             budget_frac=0.5)
    # chunks of 9 rounds at d = 30, the budget running out inside the fifth
    @example(seed=2, d=30, rounds=100, eps=0.5, conditional=False, alternative=True,
             budget_frac=0.41)
    # about 1.4e10 copies per round: N^2 overflows int64, and a threshold
    # computed in int64 would reject these null rounds
    @example(seed=3, d=8, rounds=30, eps=1e-4, conditional=True, alternative=False,
             budget_frac=None)
    def test_matches_per_round_loop(self, seed, d, rounds, eps, conditional, alternative,
                                    budget_frac):
        delta = math.exp(-(rounds - 0.5) / 18)
        make, sigma = source_case(seed, d, conditional, alternative)
        rng = RngHandle(seed).child("batched")
        budget = None
        if budget_frac is not None:
            total = per_round_basic_certify(make(None), sigma, eps, delta, CFG, rng)[1]
            budget = int(budget_frac * total)
        src = make(budget)
        v = basic_certify(src, sigma, eps, delta, CFG, rng=rng)
        answer, copies, rejected = per_round_basic_certify(make(budget), sigma, eps, delta,
                                                           CFG, rng)
        assert (v.answer, v.copies_used) == (answer, copies)
        assert src.copies_used == v.copies_used
        if answer == "INCONCLUSIVE":
            return
        # the simulation stops at the first chunk boundary where the majority is fixed
        chunk = max(1, 8192 // d**2)
        for run in range(chunk, rounds + chunk, chunk):
            run = min(run, rounds)
            no = sum(rejected[:run])
            if no > rounds // 2 or run - no >= rounds - rounds // 2:
                break
        diag = v.diagnostics
        assert diag["rounds"] == rounds and diag["rounds_run"] == run <= rounds
        assert diag["rejections"] == sum(rejected[:run])

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40), r=st.integers(1, 12),
           conditional=st.booleans())
    def test_stacked_law_rows(self, seed, d, r, conditional):
        """Each row of a stacked law is the law of its basis held alone, and
        sums to the source's acceptance within 1e-9: exactly 1 on a full
        source, in (0, 1] on a conditional view."""
        make, _ = source_case(seed, d, conditional, False)
        src = make(None)
        us = haar_unitary(d, RngHandle(seed).generator(), size=r)
        p = src.law(Basis(us))
        assert p.shape == (r, d)
        for t in range(r):
            assert np.array_equal(p[t], src.law(Basis(us[t])))
        assert np.abs(p.sum(axis=-1) - src.acceptance).max() <= 1e-9
        if conditional:
            assert 0 < src.acceptance <= 1 + 1e-12
        else:
            assert src.acceptance == 1.0
        assert src.copies_used == 0

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40), r=st.integers(1, 6),
           n=st.integers(1, 5000), conditional=st.booleans())
    def test_charge_is_accepted_plus_discards(self, seed, d, r, n, conditional):
        make, _ = source_case(seed, d, conditional, False)
        src = make(None)
        src.charge(n, r, RngHandle(seed).child("charge").generator())
        twin = RngHandle(seed).child("charge").generator()
        accept = src.acceptance
        discards = [0] * r
        if accept < 1 - 1e-12:
            discards = twin.negative_binomial(n, accept, size=r).tolist()
        assert src.copies_used == r * n + sum(discards)
        counts = measure(src, Basis(haar_unitary(d, twin)), n, twin)
        assert counts.sum() == n
