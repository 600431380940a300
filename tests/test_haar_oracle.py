import dataclasses
import itertools
import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from qcert import haar_oracle
from qcert import rng as rng_module
from qcert.cli import haar_schedule
from qcert.haar_oracle import (
    _classes,
    _classes_at,
    _ez2_exact,
    _partitions,
    exact_transcript_divergence,
    haar_moment,
    ingster_bound,
    verify_moments_basic,
    weingarten_table,
)
from qcert.instances import corner_ensemble
from qcert.linalg import DensityMatrix, ValidationError
from qcert.measurement import Basis, phi_table
from qcert.rng import haar_unitary

import reference
from conftest import random_hermitian, random_traceless, rng_for


@dataclass(frozen=True)
class Permutation:
    """A permutation in one-line notation: the S_k enumeration the references
    below are built from."""

    one_line: tuple[int, ...]

    @property
    def cycle_type(self) -> tuple[int, ...]:
        seen = [False] * len(self.one_line)
        lengths = []
        for start in range(len(self.one_line)):
            length, i = 0, start
            while not seen[i]:
                seen[i] = True
                i = self.one_line[i]
                length += 1
            if length:
                lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self*other)(i) = self(other(i))."""
        return Permutation(tuple(self.one_line[j] for j in other.one_line))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.one_line)
        for i, j in enumerate(self.one_line):
            inv[j] = i
        return Permutation(tuple(inv))


def bracket(m: np.ndarray, perm: Permutation) -> float:
    """<M>_pi = product over the cycles C of pi of Tr(M^|C|)."""
    return math.prod(np.trace(np.linalg.matrix_power(m, c)).real for c in perm.cycle_type)


def ez2_by_enumeration(m: np.ndarray, d: int) -> float:
    """E[Z^2] as the Weingarten double sum over S_4 x S_4: the 768-term route
    the character formula replaced."""
    wg = weingarten_table(4, d)
    perms = [Permutation(p) for p in itertools.permutations(range(4))]
    bra = {p: bracket(m, p) for p in perms}

    def moment(projector_side):
        return sum(bra[pb] * wg(pa.inverse().compose(pb).cycle_type)
                   for pa in projector_side for pb in perms)

    # E[(u1 M u1)^4]: every projector bracket is 1. E[(u1 M u1)^2 (u2 M u2)^2]:
    # only permutations preserving {0, 1} and {2, 3} survive on the projector side.
    block = [p for p in perms if set(p.one_line[:2]) == {0, 1}]
    return d * moment(perms) + d * (d - 1) * moment(block)


class TestPermutation:
    def test_cycle_type(self):
        assert Permutation((1, 0, 2)).cycle_type == (2, 1)
        assert Permutation((1, 2, 0)).cycle_type == (3,)

    def test_compose_inverse(self):
        p = Permutation((2, 0, 1))
        q = p.compose(p.inverse())
        assert q.one_line == (0, 1, 2)


class TestCharacters:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_row_orthogonality(self, k):
        # sum_mu chi_lam(mu) chi_nu(mu) / z_mu = [lam == nu], scaled by k! to stay integral
        cls = _classes(k)
        class_sizes = np.array([math.factorial(k) // int(z) for z in cls.z])
        assert np.array_equal((cls.chi * class_sizes) @ cls.chi.T,
                              math.factorial(k) * np.eye(len(cls.chi), dtype=np.int64))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_column_orthogonality(self, k):
        # sum_lam chi_lam(mu) chi_lam(nu) = z_mu [mu == nu]
        cls = _classes(k)
        assert np.array_equal(cls.chi.T @ cls.chi, np.diag(cls.z))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_dimensions(self, k):
        # the identity class (1^k) is the last column
        cls = _classes(k)
        assert list(cls.chi[:, -1]) == list(cls.dims)
        assert list(cls.dims) == [reference.dimension(lam) for lam in cls.parts]
        assert sum(dim**2 for dim in cls.dims) == math.factorial(k)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_trivial_and_sign_rows(self, k):
        cls = _classes(k)
        parts = cls.parts
        assert parts == _partitions(k)
        assert parts[0] == (k,) and parts[-1] == (1,) * k
        assert all(cls.chi[0] == 1)
        assert list(cls.chi[-1]) == [(-1) ** (k - len(mu)) for mu in parts]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_table_matches_its_int_columns_and_the_rule(self, k):
        cls = _classes(k)
        table = reference.character_table(k)
        assert np.array_equal(cls.chi, table)
        assert cls.columns == tuple(tuple(int(v) for v in col) for col in table.T)
        assert all(type(v) is int for col in cls.columns for v in col)
        assert list(cls.z) == [reference.centralizer(mu) for mu in cls.parts]

    @pytest.mark.parametrize("k, d", [(1, 1), (3, 5), (4, 4), (6, 9)])
    def test_content_products_and_weights(self, k, d):
        at_d = _classes_at(k, d)
        want = [reference.content_product(lam, d) for lam in _partitions(k)]
        assert list(at_d.products) == want
        assert list(at_d.divisors) == [float(p) for p in want]
        assert list(at_d.weights) == [math.factorial(k) / p for p in want]

    @pytest.mark.parametrize("k, d", [(1, 3), (4, 4), (6, 8)])
    def test_cached_arrays_reject_writes(self, k, d):
        cls, at_d = _classes(k), _classes_at(k, d)
        for arr in (cls.chi, cls.z, cls.cycles, at_d.divisors, at_d.weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cls.chi = np.zeros_like(cls.chi)
        with pytest.raises(dataclasses.FrozenInstanceError):
            at_d.weights = np.zeros_like(at_d.weights)


class TestWeingarten:
    def test_order_one(self):
        for d in range(1, 6):
            assert weingarten_table(1, d)((1,)) == pytest.approx(1 / d, rel=1e-14)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_order_two_closed_form(self, d):
        wg = weingarten_table(2, d)
        assert wg((1, 1)) == pytest.approx(1 / (d**2 - 1), abs=1e-12)
        assert wg((2,)) == pytest.approx(-1 / (d * (d**2 - 1)), abs=1e-12)

    def test_gram_orthogonality(self):
        # sum_tau d^{#cycles(sigma tau^-1)} Wg(tau, d) = [sigma == identity]
        import itertools

        for order in (2, 3, 4):
            for d in (4, 6, 8):
                wg = weingarten_table(order, d)
                perms = [Permutation(p) for p in itertools.permutations(range(order))]
                for sigma in perms[:8]:
                    total = sum(
                        d ** len(sigma.compose(tau.inverse()).cycle_type) * wg(tau.cycle_type)
                        for tau in perms
                    )
                    want = 1.0 if sigma.one_line == tuple(range(order)) else 0.0
                    assert total == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_matches_gram_inversion(self, order):
        # reference: solve G w = e_id with G[a, b] = d^{#cycles(pi_a pi_b^-1)} over S_order
        perms = [Permutation(p) for p in itertools.permutations(range(order))]
        cycles = np.array([[len(pa.compose(pb.inverse()).cycle_type) for pb in perms]
                           for pa in perms])
        for d in (order, order + 1, 9):
            rhs = np.zeros(len(perms))
            rhs[0] = 1.0  # permutations() yields the identity first
            wg_ref = np.linalg.solve(np.power(float(d), cycles), rhs)
            wg = weingarten_table(order, d)
            for p, want in zip(perms, wg_ref):
                assert wg(p.cycle_type) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("key", [(1, 0, 2, 3), (3,), (2, 1, 1, 0), (1, 3), (2, 2, 1)])
    def test_key_must_be_a_cycle_type(self, key):
        # the table is keyed by partitions of its order only, not by permutations
        with pytest.raises(ValidationError):
            weingarten_table(4, 5)(key)

    def test_unsupported_range(self):
        with pytest.raises(ValidationError):
            weingarten_table(4, 2)
        with pytest.raises(ValidationError):
            weingarten_table(7, 10)

    @pytest.mark.parametrize("order", [5, 6])
    def test_high_order_orthogonality(self, order):
        import itertools

        d = order + 1
        wg = weingarten_table(order, d)
        perms = [Permutation(p) for p in itertools.permutations(range(order))]
        identity = Permutation(tuple(range(order)))
        swap = Permutation((1, 0) + tuple(range(2, order)))
        for sigma, want in ((identity, 1.0), (swap, 0.0)):
            total = sum(
                d ** len(sigma.compose(tau.inverse()).cycle_type) * wg(tau.cycle_type)
                for tau in perms
            )
            assert total == pytest.approx(want, abs=1e-9)


class TestHaarMoment:
    def test_identity_order_one(self):
        d = 5
        eye = np.eye(d, dtype=complex)
        assert haar_moment(eye, eye, 1) == pytest.approx(d, rel=1e-12)

    def test_projector_second_moment_closed_form(self):
        # rank-1 A, any Hermitian B: (Tr B)^2 + Tr(B^2) over d(d+1)
        gen = rng_for("oracle", "proj")
        for d in (3, 5, 7):
            a = np.zeros((d, d), dtype=complex)
            a[0, 0] = 1.0
            b = random_traceless(d, gen) + np.eye(d) * gen.standard_normal()
            tr = np.trace(b).real
            hs2 = np.trace(b @ b).real
            want = (tr**2 + hs2) / (d * (d + 1))
            assert haar_moment(a, b, 2) == pytest.approx(want, rel=1e-10)

    def test_monte_carlo_agreement(self):
        gen = rng_for("oracle", "mc")
        d, order, n = 4, 3, 200_000
        a = random_traceless(d, gen)
        b = random_traceless(d, gen)
        us = haar_unitary(d, gen, size=n)
        vals = np.einsum(
            "ij,nji->n", a, np.einsum("nji,jk,nkl->nil", us.conj(), b, us)
        ).real ** order
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - haar_moment(a, b, order)) <= 4 * se

    def test_bracket_matches_power_traces(self):
        # checks the test-side bracket that ez2_by_enumeration rests on
        gen = rng_for("oracle", "bracket")
        m = random_traceless(4, gen)
        assert bracket(m, Permutation((1, 0, 2))) == pytest.approx(
            np.trace(m @ m).real * np.trace(m).real, rel=1e-12
        )


class TestPinnedValues:
    """Values captured from the S_k enumeration (Gram solve and a double sum over
    S_k x S_k) that this module used before its character-based rewrite."""

    MOMENTS = {
        6: {3: 276.37733537557006, 4: 4837.007824430628, 5: 49218.27594942567,
            6: 898329.1363504746},
        7: {3: -139.90546919219852, 4: 4152.489555931532, 5: -24659.632382965803,
            6: 729243.417791847},
    }
    WEINGARTEN_6 = {
        6: {(1, 1, 1, 1, 1, 1): 3.760679355917451e-05, (2, 1, 1, 1, 1): -9.083178726035849e-06,
            (3, 1, 1, 1): 4.22306969926017e-06, (2, 2, 1, 1): 2.858326271024682e-06,
            (4, 1, 1): -2.3906869144964354e-06, (3, 2, 1): -1.6427025355596765e-06,
            (5, 1): 1.5198279087167955e-06, (2, 2, 2): -1.2096589477541843e-06,
            (4, 2): 1.0999068538751058e-06, (3, 3): 1.0736617879475001e-06,
            (6,): -1.0521885521885498e-06},
        8: {(1, 1, 1, 1, 1, 1): 4.986593114900003e-06, (2, 1, 1, 1, 1): -7.284688170931562e-07,
            (3, 1, 1, 1): 2.1028935546131326e-07, (2, 2, 1, 1): 1.1972399538537082e-07,
            (4, 1, 1): -7.51257365013979e-08, (3, 2, 1): -3.953583649350846e-08,
            (5, 1): 3.035159285159285e-08, (2, 2, 2): -2.303325716024127e-08,
            (4, 2): 1.6135515474139812e-08, (3, 3): 1.4942557931975914e-08,
            (6,): -1.3489596822930147e-08},
    }
    EZ2 = {4: 18.892295377463277, 6: 31.33242094049244, 8: 68.71900870946602}

    @staticmethod
    def pair(d):
        gen = rng_for("oracle", "pinned", d)
        return random_hermitian(d, gen), random_hermitian(d, gen) + np.eye(d)

    @pytest.mark.parametrize("d", [6, 7])
    def test_haar_moment(self, d):
        a, b = self.pair(d)
        for order, want in self.MOMENTS[d].items():
            assert haar_moment(a, b, order) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("d", [6, 8])
    def test_weingarten_order_six(self, d):
        wg = weingarten_table(6, d)
        assert set(wg.values) == set(self.WEINGARTEN_6[d])
        for cycle_type, want in self.WEINGARTEN_6[d].items():
            assert wg(cycle_type) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_exact_second_moment(self, d):
        gen = rng_for("oracle", "pinned-ez2", d)
        rep = verify_moments_basic(random_traceless(d, gen), 10, gen)
        assert rep.ez2_exact == pytest.approx(self.EZ2[d], rel=1e-12)


class TestExactSecondMoment:
    @pytest.mark.parametrize("d", range(4, 10))
    def test_matches_s4_enumeration(self, d):
        gen = rng_for("oracle", "ez2-enumeration", d)
        for m in (random_hermitian(d, gen), random_traceless(d, gen)):
            assert _ez2_exact(m, d) == pytest.approx(ez2_by_enumeration(m, d), rel=1e-12)

    def test_rank_one_projector(self):
        # M = |0><0|: Z = sum_i |r_i|^4 over the uniform unit vector r = row 0
        # of U, and E|r_1|^8 = 24 / (d(d+1)(d+2)(d+3)), E|r_1|^4 |r_2|^4 = 4 / (same)
        for d in (4, 5, 9):
            m = np.zeros((d, d))
            m[0, 0] = 1.0
            want = (24 * d + 4 * d * (d - 1)) / (d * (d + 1) * (d + 2) * (d + 3))
            assert _ez2_exact(m, d) == pytest.approx(want, rel=1e-13)


class TestAgainstReference:
    """The cached class data gives the values of the per-call formulas bit for bit."""

    @pytest.mark.parametrize("order", range(1, 7))
    def test_weingarten_table(self, order):
        for d in range(order, 13):
            assert weingarten_table(order, d).values == reference.weingarten_values(order, d)

    @pytest.mark.parametrize("order", range(1, 7))
    def test_haar_moment(self, order):
        gen = rng_for("oracle", "reference-moment", order)
        for d in sorted({order, order + 1, 9}):
            for _ in range(3):
                a = random_hermitian(d, gen)
                b = random_hermitian(d, gen) + gen.standard_normal() * np.eye(d)
                assert haar_moment(a, b, order) == reference.haar_moment(a, b, order)

    @pytest.mark.parametrize("d", range(4, 12))
    def test_exact_second_moment(self, d):
        gen = rng_for("oracle", "reference-ez2", d)
        h = random_hermitian(d, gen)
        for m in (h, random_traceless(d, gen), h.real + h.real.T):
            assert _ez2_exact(m, d) == reference.ez2_exact(m, d)


class TestClassDataOnce:
    @pytest.mark.parametrize("order, d", [(1, 3), (2, 6), (4, 4), (4, 9), (6, 7)])
    def test_later_calls_rebuild_no_class_data(self, order, d, monkeypatch):
        gen = rng_for("oracle", "once", order, d)
        a, b = random_hermitian(d, gen), random_hermitian(d, gen)

        def calls():
            values = [haar_moment(a, b, order), weingarten_table(order, d).values]
            return values + [_ez2_exact(a, d)] if order == 4 else values

        first = calls()
        counts = {}
        for name in ("_hooks_and_contents", "_character"):
            def counting(*args, name=name, original=getattr(haar_oracle, name)):
                counts[name] = counts.get(name, 0) + 1
                return original(*args)

            monkeypatch.setattr(haar_oracle, name, counting)
        weingarten_table.cache_clear()  # the table is rebuilt, from the cached class data
        assert calls() == first
        assert counts == {}


class TestIntegerArguments:
    BAD = [(2.0, 6), (2.5, 6), (True, 6), (2, 6.5), (1, True)]

    @pytest.mark.parametrize("order, d", BAD)
    def test_weingarten_table_cold_and_cached(self, order, d):
        weingarten_table.cache_clear()
        with pytest.raises(ValidationError, match="must be an integer"):
            weingarten_table(order, d)
        for cached in ((2, 6), (1, 6), (1, 1)):
            weingarten_table(*cached)
        with pytest.raises(ValidationError, match="must be an integer"):
            weingarten_table(order, d)

    @pytest.mark.parametrize("order", [2.0, 2.5, True, np.float64(2)])
    def test_haar_moment_cold_and_cached(self, order):
        gen = rng_for("oracle", "integer-order")
        a, b = random_hermitian(6, gen), random_hermitian(6, gen)
        _classes.cache_clear()
        _classes_at.cache_clear()
        with pytest.raises(ValidationError, match="must be an integer"):
            haar_moment(a, b, order)
        haar_moment(a, b, 1)
        haar_moment(a, b, 2)
        with pytest.raises(ValidationError, match="must be an integer"):
            haar_moment(a, b, order)

    def test_numpy_integers_accepted(self):
        gen = rng_for("oracle", "numpy-integer")
        a, b = random_hermitian(7, gen), random_hermitian(7, gen)
        assert weingarten_table(np.int64(3), np.int64(7)).values == weingarten_table(3, 7).values
        assert haar_moment(a, b, np.int64(3)) == haar_moment(a, b, 3)


class TestVerifyMoments:
    def test_diag_pm_one_d2(self):
        m = np.diag([1.0, -1.0]).astype(complex)
        rep = verify_moments_basic(m, 50_000, rng_for("oracle", "vm2"))
        assert rep.ez_exact == pytest.approx(2 / 3, rel=1e-12)
        assert rep.first_ok

    def test_zero_matrix(self):
        rep = verify_moments_basic(np.zeros((3, 3)), 100, rng_for("oracle", "vm0"))
        assert rep.ez_mc == 0.0 and rep.ez_exact == 0.0

    @pytest.mark.parametrize("d, ez, ez2", [
        (3, 2.100860495257512, 7.028817364660006),
        (5, 3.6536165620761065, 18.474045013464607),
    ])
    def test_monte_carlo_estimates_pinned(self, d, ez, ez2, monkeypatch):
        # bit-for-bit values of the Haar stream, drawn in chunks of 1000, 1000, 500
        monkeypatch.setattr(haar_oracle, "_MOMENTS_CHUNK", 1000)
        gen = rng_for("oracle", "pinned-mc", d)
        rep = verify_moments_basic(random_traceless(d, gen), 2500, gen)
        assert (rep.ez_mc, rep.ez2_mc) == (ez, ez2)

    @pytest.mark.parametrize("entries", [1, 7 * 25, 1000])
    def test_estimates_independent_of_sub_stack_size(self, entries, monkeypatch):
        # haar_blocks' sub-stacks (1, 7 or 40 unitaries at d=5) leave every bit
        def estimates():
            gen = rng_for("oracle", "blocked-mc")
            rep = verify_moments_basic(random_traceless(5, gen), 2500, gen)
            return rep.ez_mc, rep.ez2_mc

        monkeypatch.setattr(haar_oracle, "_MOMENTS_CHUNK", 1000)
        want = estimates()
        monkeypatch.setattr(rng_module, "_BLOCK_ENTRIES", entries)
        assert estimates() == want

    @pytest.mark.parametrize("d, samples", [(4, 100_000), (8, 20_000)])
    def test_memory_is_the_statistic_plus_sub_stacks(self, d, samples):
        # Gram-Schmidt at d=4, LAPACK at d=8: one chunk whose real parts alone
        # would take 12.2 and 9.8 MiB; the working set is the per-sample Z plus
        # a fixed number of sub-stacks, whatever d^2 * samples
        gen = rng_for("oracle", "memory")
        m = random_traceless(d, gen)
        tracemalloc.start()
        try:
            verify_moments_basic(m, samples, gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * samples + 8 * rng_module._BLOCK_ENTRIES * 16

    def test_sub_stacks_keep_the_peak_under_two_mib(self):
        # 256 KiB sub-stacks: 1.7 MiB at d=8, where 1 MiB ones took 6.4 MiB
        gen = rng_for("oracle", "memory")
        m = random_traceless(8, gen)
        tracemalloc.start()
        try:
            verify_moments_basic(m, 20_000, gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_exact_second_moment_matches_monte_carlo(self):
        # the order-4 Weingarten route is the oracle for E[Z^2]
        gen = rng_for("oracle", "vm4")
        m = random_traceless(4, gen)
        rep = verify_moments_basic(m, 200_000, gen)
        assert rep.ez2_exact is not None
        assert abs(rep.ez2_mc - rep.ez2_exact) <= 4 * rep.ez2_se

    def test_second_moment_dominated_by_mean_squared_scale(self):
        # E[Z^2] stays within (1 + o(1)) of ||M||^4/d^2; the d^-4 variant is
        # impossible since E[Z^2] >= (E[Z])^2 = ||M||^4/(d+1)^2
        gen = rng_for("oracle", "vmscale")
        for d in (4, 6, 8):
            m = random_traceless(d, gen)
            hs2 = np.trace(m @ m).real
            rep = verify_moments_basic(m, 20_000, gen)
            assert rep.ez2_exact >= (hs2 / (d + 1)) ** 2 - 1e-12
            assert rep.ez2_exact <= 1.5 * hs2**2 / d**2


class TestTranscriptDivergence:
    def sigma(self):
        return DensityMatrix.from_diagonal([0.8, 0.2])

    def test_zero_copies(self):
        rep = exact_transcript_divergence(
            self.sigma(), corner_ensemble(self.sigma(), 0.3), Basis(np.empty((0, 2, 2)))
        )
        assert rep.tv == 0.0 and rep.chi2 == 0.0 and rep.kl == 0.0

    def test_trivial_ensemble(self):
        sched = Basis(np.stack([np.eye(2)] * 3))
        rep = exact_transcript_divergence(self.sigma(), [self.sigma()], sched)
        assert rep.tv <= 1e-14 and rep.chi2 <= 1e-14

    def test_corner_likelihood_floor(self):
        eps, n = 0.3, 5
        floor = (1 - 32 * eps**2 / 9) ** (n / 2)
        ens = corner_ensemble(self.sigma(), eps)
        gen = rng_for("oracle", "corner")
        for _ in range(10):
            rep = exact_transcript_divergence(self.sigma(), ens, haar_schedule(2, n, gen))
            assert rep.min_likelihood_ratio >= floor - 1e-12
            assert rep.tv <= 1 - floor + 1e-12

    def test_divergence_chain_inequalities(self):
        # 2 tv^2 <= chi2 and kl <= log(1 + chi2) on every computed instance
        gen = rng_for("oracle", "chain")
        ens = corner_ensemble(self.sigma(), 0.4)
        for _ in range(20):
            rep = exact_transcript_divergence(self.sigma(), ens, haar_schedule(2, 3, gen))
            assert 2 * rep.tv**2 <= rep.chi2 + 1e-12
            assert rep.kl <= np.log1p(rep.chi2) + 1e-12

    def test_continuous_ensemble_route(self):
        from qcert.instances import sample_paninski, tune_paninski
        from qcert.spectrum import Spectrum

        spec = Spectrum(np.full(4, 0.25))
        inst = tune_paninski(spec, 0.2)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        sched = Basis(np.stack([haar_unitary(4, rng_for("oracle", "cont"))] * 2))
        gen = rng_for("oracle", "cont-draws")
        rep = exact_transcript_divergence(
            sigma, (sample_paninski(sigma, inst, gen) for _ in range(400)), sched
        )
        assert rep.tv < 0.2  # tiny at N = 2
        assert 2 * rep.tv**2 <= rep.chi2 + 1e-9

    def test_transcript_overflow(self, monkeypatch):
        sched = Basis(np.stack([np.eye(2)] * 3))
        monkeypatch.setattr(haar_oracle, "MAX_TRANSCRIPTS", 4)
        with pytest.raises(ValidationError):
            exact_transcript_divergence(self.sigma(), [self.sigma()], sched)

    @pytest.mark.parametrize("d, copies, size", [(10, 6, 10**6), (1, 10**9, 1), (2, 0, 1)])
    def test_transcript_count_up_to_the_limit(self, d, copies, size):
        assert haar_oracle.transcript_count(d, copies) == size

    @pytest.mark.parametrize("d, copies, shown", [(4, 10, "1048576"), (10, 7, "10000000"),
                                                  (2, 10**12, f"more than {2**64}")])
    def test_transcript_count_past_the_limit(self, d, copies, shown):
        with pytest.raises(ValidationError) as err:
            haar_oracle.transcript_count(d, copies)
        assert str(err.value) == (f"transcript space d**copies = {d}**{copies} = {shown} "
                                  f"exceeds MAX_TRANSCRIPTS = 1000000")

    def test_single_basis_is_not_a_schedule(self):
        with pytest.raises(ValidationError):
            exact_transcript_divergence(self.sigma(), [self.sigma()], Basis(np.eye(2)))

    @pytest.mark.parametrize("empty", [[], iter(())])
    def test_empty_ensemble_rejected(self, empty):
        with pytest.raises(ValidationError, match="no state"):
            exact_transcript_divergence(self.sigma(), empty, Basis(np.stack([np.eye(2)] * 2)))

    def test_generator_ensemble_equals_its_list(self):
        """A generator is read once, state by state, and gives the report of
        the list of the same states, bit for bit."""
        from qcert.instances import sample_paninski, tune_paninski
        from qcert.spectrum import Spectrum

        spec = Spectrum(np.full(4, 0.25))
        inst = tune_paninski(spec, 0.3)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        sched = haar_schedule(4, 3, rng_for("oracle", "gen-list"))

        def draws():
            gen = rng_for("oracle", "gen-list-draws")
            return (sample_paninski(sigma, inst, gen) for _ in range(50))

        lazy = exact_transcript_divergence(sigma, draws(), sched)
        held = exact_transcript_divergence(sigma, list(draws()), sched)
        for field in ("tv", "chi2", "kl", "num_transcripts", "min_likelihood_ratio"):
            assert getattr(lazy, field) == getattr(held, field), field
        assert np.array_equal(lazy.p0, held.p0) and np.array_equal(lazy.p1, held.p1)

    @pytest.mark.parametrize("argv, tv, chi2", [
        (["--family", "spiked", "--d", "4", "--ensemble", "corner", "--eps", "0.3",
          "--copies", "5", "--schedules", "5"], 0.06225743287305878, 0.032388399506702886),
        (["--family", "mm", "--d", "4", "--ensemble", "paninski", "--eps", "0.3",
          "--copies", "4", "--schedules", "3", "--param-draws", "200"],
         0.006980409963496996, 0.00031474791855667174),
    ])
    def test_pinned_divergence_rows(self, argv, tv, chi2, capsys):
        """The first row of ``qcert divergence`` at seed 0, pinned exactly."""
        from qcert.cli import main

        assert main(["divergence", "--format", "json", "--seed", "0"] + argv) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert (row["tv"], row["chi2"]) == (tv, chi2)

    def test_against_bruteforce_enumeration(self):
        # independent oracle: explicit per-transcript probability products
        import itertools

        from qcert.measurement import outcome_distribution

        gen = rng_for("oracle", "brute")
        sigma = DensityMatrix.from_diagonal([0.8, 0.2])
        ens = corner_ensemble(sigma, 0.3)
        us = [haar_unitary(2, gen) for _ in range(3)]
        rep = exact_transcript_divergence(sigma, ens, Basis(np.stack(us)))

        # per-basis laws, each measured on its own
        null_laws = [outcome_distribution(sigma, Basis(u)) for u in us]
        alt_laws = [[outcome_distribution(s, Basis(u)) for u in us] for s in ens]
        p0, p1 = [], []
        for z in itertools.product(range(2), repeat=3):
            p0.append(np.prod([null_laws[t][z[t]] for t in range(3)]))
            p1.append(
                sum(np.prod([laws[t][z[t]] for t in range(3)]) for laws in alt_laws)
                / len(ens)
            )
        p0, p1 = np.array(p0), np.array(p1)
        # the product distribution enumerates transcripts in the same
        # first-copy-major order as itertools.product
        assert np.abs(p0 - rep.p0).max() <= 1e-14
        assert np.abs(p1 - rep.p1).max() <= 1e-14
        assert rep.tv == pytest.approx(np.abs(p1 - p0).sum() / 2, abs=1e-14)
        assert rep.chi2 == pytest.approx(((p1 - p0) ** 2 / p0).sum(), abs=1e-13)

    def test_single_copy_chi2_equals_mean_phi(self):
        # chi^2 of the one-copy mixture equals the exact pair average of phi
        gen = rng_for("oracle", "phichi")
        sigma = DensityMatrix.from_diagonal([0.8, 0.2])
        ens = corner_ensemble(sigma, 0.4)
        for _ in range(10):
            u = haar_unitary(2, gen)
            m = Basis(u)
            rep = exact_transcript_divergence(sigma, ens, Basis(u[None]))
            mean_phi = sum(phi_table(m, sigma, [su, sv])[0, 1] for su in ens for sv in ens) / len(ens) ** 2
            assert rep.chi2 == pytest.approx(mean_phi, abs=1e-12)


class TestIngster:
    def test_zero_phi(self):
        est, se = ingster_bound(np.zeros(10), 5)
        assert est == 0.0 and se == 0.0

    def test_constant_phi(self):
        est, _ = ingster_bound(np.full(4, 0.1), 3)
        assert est == pytest.approx(1.1**3 - 1, rel=1e-12)

    def test_positivity_guard(self):
        with pytest.raises(ValidationError):
            ingster_bound([-1.5], 2)

    def test_phi_pairs_read_a_generator_once(self):
        sigma = DensityMatrix.from_diagonal([0.8, 0.2])
        ens = corner_ensemble(sigma, 0.3)
        m = Basis(haar_unitary(2, rng_for("oracle", "pairs-gen")))
        pairs = phi_table(m, sigma, ens).ravel().tolist()
        assert len(pairs) == 4 and phi_table(m, sigma, iter(ens)).ravel().tolist() == pairs

    def test_dominates_exact_chi2_for_corner(self):
        sigma = DensityMatrix.from_diagonal([0.8, 0.2])
        ens = corner_ensemble(sigma, 0.3)
        gen = rng_for("oracle", "ingster")
        for n in (1, 2, 3, 4):
            sched = haar_schedule(2, n, gen)
            rep = exact_transcript_divergence(sigma, ens, sched)
            per_copy = [ingster_bound(phi_table(Basis(u), sigma, ens).ravel(), n)[0]
                        for u in sched.u]
            assert rep.chi2 <= max(per_copy) + 1e-12
