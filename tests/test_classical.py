import numpy as np
import pytest

from qcert.classical import l2_statistic, l2_two_sample_test, l23_functional
from qcert.linalg import ValidationError

from conftest import rng_for


class TestL2Tester:
    def test_identical_counts_accept(self):
        x = np.array([3, 5, 2])
        assert l2_statistic(x, x) == -2 * 10
        assert l2_two_sample_test(x, x, eps=0.5)

    def test_disjoint_supports_reject(self):
        n = 50
        x = np.array([n, 0])
        y = np.array([0, n])
        assert l2_statistic(x, y) == 2 * n * (n - 1)
        assert not l2_two_sample_test(x, y, eps=1.0)

    def test_mismatched_totals_rejected(self):
        with pytest.raises(ValidationError):
            l2_two_sample_test(np.array([2, 0]), np.array([1, 0]), 0.5)
        # stacks: one row with differing totals, or differing row counts
        x = np.array([[2, 0], [1, 1]])
        with pytest.raises(ValidationError):
            l2_two_sample_test(x, np.array([[0, 2], [1, 0]]), 0.5)
        with pytest.raises(ValidationError):
            l2_two_sample_test(x, np.array([[0, 2]]), 0.5)

    def test_mean_matches_multinomial_identity(self):
        # E[Z] = N^2 ||p-q||_2^2 - N(||p||_2^2 + ||q||_2^2) under multinomial
        # sampling; the exact value is the oracle (for p = q it is -2N||p||^2,
        # not 0: the O(N) term survives without Poissonization)
        gen = rng_for("classical", "unbiased")
        d, n, trials = 16, 400, 10_000
        p = np.full(d, 1 / d)
        exact = -2 * n * (p**2).sum()
        xs = gen.multinomial(n, p, size=trials).astype(float)
        ys = gen.multinomial(n, p, size=trials).astype(float)
        zs = ((xs - ys) ** 2 - xs - ys).sum(axis=1)
        se = zs.std(ddof=1) / np.sqrt(trials)
        assert abs(zs.mean() - exact) <= 3 * se
        assert abs(exact - (-50.0)) < 1e-9  # frozen: 2 * 400 / 16

    def test_mean_matches_identity_distinct_pair(self):
        gen = rng_for("classical", "unbiased2")
        d, n, trials = 8, 300, 10_000
        p = gen.dirichlet(np.full(d, 3.0))
        q = gen.dirichlet(np.full(d, 3.0))
        exact = n**2 * ((p - q) ** 2).sum() - n * ((p**2).sum() + (q**2).sum())
        xs = gen.multinomial(n, p, size=trials).astype(float)
        ys = gen.multinomial(n, q, size=trials).astype(float)
        zs = ((xs - ys) ** 2 - xs - ys).sum(axis=1)
        se = zs.std(ddof=1) / np.sqrt(trials)
        assert abs(zs.mean() - exact) <= 3 * se

    def test_power_at_doubled_gap(self):
        # ||p - q||_2 = 2 eps and N = ceil(8 b / eps^2): single-repetition
        # rejection rate >= 2/3
        gen = rng_for("classical", "power")
        d = 32
        p = np.full(d, 1 / d)
        delta = 0.02
        q = p.copy()
        q[: d // 2] += delta
        q[d // 2 :] -= delta
        gap = np.sqrt(((p - q) ** 2).sum())
        eps = gap / 2
        b = max(np.sqrt((p**2).sum()), np.sqrt((q**2).sum()))
        n = int(np.ceil(8 * b / eps**2))
        rejects = 0
        trials = 1000
        for _ in range(trials):
            x = gen.multinomial(n, p)
            y = gen.multinomial(n, q)
            rejects += not l2_two_sample_test(x, y, eps)
        assert rejects / trials >= 2 / 3

    def test_majority_of_repetitions(self):
        # stacked repetitions get one verdict per row, each the verdict of
        # that pair alone; on equal distributions the majority accepts
        gen = rng_for("classical", "majority")
        d, n = 16, 500
        p = np.full(d, 1 / d)
        xs = np.stack([gen.multinomial(n, p) for _ in range(5)])
        ys = np.stack([gen.multinomial(n, p) for _ in range(5)])
        accepted = l2_two_sample_test(xs, ys, eps=0.2)
        assert accepted.shape == (5,)
        assert accepted.tolist() == [
            l2_two_sample_test(x, y, eps=0.2) for x, y in zip(xs, ys)
        ]
        assert 2 * accepted.sum() > 5

    def test_rows_reject_above_threshold_and_ties_accept(self):
        # N = 4: row 0 has Z = 8 = N^2 eps^2 / 2 at eps = 1, a tie
        x = np.array([[2, 2, 0, 0], [4, 0, 0, 0], [1, 1, 1, 1]])
        y = np.array([[0, 0, 2, 2], [0, 4, 0, 0], [1, 1, 1, 1]])
        assert l2_statistic(x, y).tolist() == [8.0, 24.0, -8.0]
        assert l2_two_sample_test(x, y, eps=1.0).tolist() == [True, False, True]
        assert l2_two_sample_test(x, y, eps=0.99).tolist() == [False, False, True]

    def test_threshold_beyond_int64_square(self):
        # N = 4e9: N^2 overflows int64, which would make the threshold negative
        n = 4_000_000_000
        x = np.array([n // 2, n // 2])
        y = np.array([n // 2 + 1000, n // 2 - 1000])
        assert l2_two_sample_test(x, y, eps=1e-3)
        assert l2_two_sample_test(x[None], y[None], eps=1e-3).tolist() == [True]

    @pytest.mark.parametrize("x, y", [
        ([-1, 3], [1, 1]),  # equal totals, one negative count
        ([1, 1], [3, -1]),
        ([[1, 1]], [[1, 1], [2, 0]]),  # differing row counts
        ([[[1, 1]]], [[[1, 1]]]),  # neither a vector nor a stack of them
        (2, 2),
    ])
    def test_malformed_counts_rejected(self, x, y):
        with pytest.raises(ValidationError):
            l2_statistic(x, y)
        with pytest.raises(ValidationError):
            l2_two_sample_test(x, y, eps=0.5)


class TestL23Functional:
    def test_uniform_small_eps(self):
        d = 10
        p = np.full(d, 1 / d)
        want = (d - 1) ** 1.5 / d
        assert l23_functional(p, 1e-9) == pytest.approx(want, rel=1e-9)

    def test_point_mass(self):
        assert l23_functional([1.0, 0.0], 0.1) == 0.0

    def test_everything_removable(self):
        gen = rng_for("classical", "l23")
        p = gen.dirichlet(np.ones(6))
        assert l23_functional(p, 1.0) == 0.0

    def test_equals_the_inline_greedy_removal(self):
        """The greedy removal equals the inline form it replaced, bit for bit,
        also where a prefix's mass lands exactly on eps."""
        def inline(p, eps):
            arr = np.asarray(p, dtype=float).copy()
            arr[int(np.argmax(arr))] = 0.0
            support = np.flatnonzero(arr > 0)
            order = support[np.lexsort((support, arr[support]))]
            mass = np.cumsum(arr[order])
            take = int(np.searchsorted(mass, eps + 1e-12 * max(eps, 1.0), side="right"))
            arr[order[:take]] = 0.0
            return float((arr ** (2 / 3)).sum()) ** 1.5

        gen = rng_for("classical", "l23-inline")
        cases = [(np.full(10, 0.1), 0.3), (np.array([0.5, 0.25, 0.125, 0.125]), 0.25)]
        cases += [(gen.dirichlet(np.ones(12)), eps) for eps in (0.01, 0.1, 0.5, 1.5)]
        for p, eps in cases:
            assert l23_functional(p, eps) == inline(p, eps)

    def test_monotone_upper_bound(self):
        gen = rng_for("classical", "l23b")
        for _ in range(50):
            p = gen.dirichlet(np.ones(8))
            full = (p ** (2 / 3)).sum() ** 1.5
            assert l23_functional(p, 0.05) <= full + 1e-12
