import json
import math

import numpy as np
import pytest

from qcert.linalg import ValidationError
from qcert.spectrum import (
    Spectrum,
    bucket_index,
    bucketize,
    predicted_bounds,
    remove_mass_adaptive,
    remove_mass_lower_nonadaptive,
    remove_mass_upper,
)

from conftest import random_spectrum_values, rng_for


class TestBucketize:
    def test_uniform_quarter_boundary(self):
        buckets = bucketize(Spectrum(np.full(4, 0.25)))
        assert buckets.levels == [1]  # 0.25 lands in [0.25, 0.5)
        assert buckets.size(1) == 4

    def test_hand_checked_levels(self):
        buckets = bucketize(Spectrum(np.array([0.6, 0.3, 0.1])))
        assert buckets.level_array().tolist() == [0, 1, 3]

    def test_zero_entries_excluded(self):
        buckets = bucketize(Spectrum(np.array([0.5, 0.5, 0.0])))
        assert all(2 not in buckets.indices(j) for j in buckets.levels)

    def test_partition_property(self):
        gen = rng_for("spectrum", "partition")
        for _ in range(100):
            lam = random_spectrum_values(12, gen)
            buckets = bucketize(Spectrum(lam))
            seen = np.concatenate([buckets.indices(j) for j in buckets.levels])
            assert sorted(seen.tolist()) == sorted(np.flatnonzero(lam > 0).tolist())
            for j in buckets.levels:
                vals = lam[buckets.indices(j)]
                assert np.all(vals >= 2.0 ** (-j - 1)) and np.all(vals < 2.0**-j)

    def test_pure_state_clamps_to_level_zero(self):
        assert bucket_index(1.0) == 0


class TestRemoveLowerNonadaptive:
    def test_mm16_tail(self):
        res = remove_mass_lower_nonadaptive(Spectrum(np.full(16, 1 / 16)), 0.3)
        # ties in lambda/d_j^2 break by original index: first floor(0.9*16)=14 indices
        assert res.tail == tuple(range(14))

    def test_tiny_eps_removes_nothing(self):
        lam = np.array([0.4, 0.3, 0.2, 0.1])
        res = remove_mass_lower_nonadaptive(Spectrum(lam), 0.03)  # 3 eps < min lambda
        assert res.tail == ()
        assert res.d_eff == 4

    def test_pure_state_degenerates(self):
        res = remove_mass_lower_nonadaptive(Spectrum(np.array([1.0])), 0.1)
        assert res.trimmed.sum() == 0.0  # the single (largest) entry is zeroed
        assert res.top_index == 0

    def test_rejects_bad_eps(self):
        with pytest.raises(ValidationError):
            remove_mass_lower_nonadaptive(Spectrum(np.array([1.0])), 0.0)

    def test_survivor_floor_and_bucket_count(self):
        # every survivor satisfies lambda >= eps/d^3; surviving bucket count
        # is at most log2(d^3/eps) + 1
        gen = rng_for("spectrum", "floor")
        for t in range(200):
            d = int(gen.integers(2, 20))
            lam = random_spectrum_values(d, gen)
            eps = float(gen.uniform(0.01, 0.4))
            res = remove_mass_lower_nonadaptive(Spectrum(lam), eps)
            for arr in (res.trimmed, res.kept):
                support = np.flatnonzero(arr > 0)
                if support.size:
                    assert arr[support].min() >= eps / d**3 - 1e-15
            surviving = {bucket_index(v) for v in res.kept[res.kept > 0]}
            assert len(surviving) <= math.log2(d**3 / eps) + 1

    def test_effective_trace_floor(self):
        gen = rng_for("spectrum", "trace-floor")
        for _ in range(200):
            d = int(gen.integers(2, 24))
            lam = random_spectrum_values(d, gen)
            eps = float(gen.uniform(0.01, 0.3))
            res = remove_mass_lower_nonadaptive(Spectrum(lam), eps)
            budget = 5 * eps + 2 * eps * (math.log2(d**3 / eps) + 1) / max(math.log(d / eps), 1)
            assert res.effective.sum() >= 1 - budget - 1e-12

    def test_values_never_change_only_zeroed(self):
        gen = rng_for("spectrum", "zeroing")
        lam = random_spectrum_values(10, gen)
        res = remove_mass_lower_nonadaptive(Spectrum(lam), 0.2)
        for arr in (res.trimmed, res.kept, res.effective):
            mask = arr > 0
            assert np.array_equal(arr[mask], lam[mask])

    def test_removed_mass_monotone_in_eps(self):
        gen = rng_for("spectrum", "monotone")
        for t in range(50):
            lam = random_spectrum_values(int(gen.integers(3, 16)), gen)
            masses = [
                remove_mass_lower_nonadaptive(Spectrum(lam), e).removed_mass
                for e in np.linspace(0.02, 0.45, 12)
            ]
            assert np.all(np.diff(masses) >= -1e-12)


class TestRemoveAdaptive:
    def test_only_top_removed_for_tiny_eps(self):
        lam = np.array([0.4, 0.35, 0.25])
        res = remove_mass_adaptive(Spectrum(lam), 0.05)  # 4 eps = 0.2 < min
        assert res.tail == ()
        assert res.effective[0] == 0.0 and res.d_eff == 2

    def test_uniform8_exact_prefix(self):
        res = remove_mass_adaptive(Spectrum(np.full(8, 0.125)), 1 / 16)
        assert res.tail == (0, 1)  # 4 eps = 0.25 holds exactly two entries

    def test_pure_state_empty(self):
        res = remove_mass_adaptive(Spectrum(np.array([1.0])), 0.1)
        assert res.d_eff == 0 and res.effective.sum() == 0.0


class TestRemoveUpper:
    def test_nothing_below_threshold(self):
        lam = np.array([0.4, 0.3, 0.2, 0.1])
        res = remove_mass_upper(Spectrum(lam), 0.5)  # eps^2/20 = 0.0125 < 0.1
        assert res.tail == () and res.d_eff == 4

    def test_uniform100_one_entry(self):
        res = remove_mass_upper(Spectrum(np.full(100, 0.01)), 0.5)
        assert len(res.tail) == 1

    def test_point_mass_untouched(self):
        res = remove_mass_upper(Spectrum(np.array([1.0, 0.0])), 0.9)
        assert res.removed_mass == 0.0 and res.d_eff == 1
        assert res.tail == (1,)  # the zero entry joins the tail for free

    def test_kernel_indices_always_in_tail(self):
        res = remove_mass_upper(Spectrum(np.array([0.5, 0.0, 0.5, 0.0])), 0.3)
        assert set(res.tail) >= {1, 3}


class TestPredictedBounds:
    def test_maximally_mixed_exact(self):
        d, eps = 16, 0.02  # 3 eps < 1/d so nothing is removed
        out = predicted_bounds(Spectrum(np.full(d, 1 / d)), eps)
        assert out.lower_nonadaptive == pytest.approx(d**1.5 / eps**2, rel=1e-12)
        assert not out.degenerate

    def test_spiked_scales_like_sqrt_d(self):
        values = []
        dims = [16, 64, 256, 1024]
        for d in dims:
            lam = np.full(d + 1, 1.0 / d**2)
            lam[0] = 1 - 1.0 / d
            eps = 1.0 / (4 * d**2)  # below the removal thresholds
            out = predicted_bounds(Spectrum(lam), eps)
            values.append(out.lower_nonadaptive * eps**2)
        slope = np.polyfit(np.log(dims), np.log(values), 1)[0]
        assert 0.35 <= slope <= 0.65

    def test_pure_state_degenerate_flag(self):
        out = predicted_bounds(Spectrum(np.array([1.0, 0.0, 0.0, 0.0])), 0.2)
        assert out.degenerate
        assert out.lower_adaptive == 0.0

    def test_pure_state_upper_order_one_over_eps2(self):
        # d_eff = 1 and F = 1/d for the surviving point mass: upper ~ 1/eps^2
        d, eps = 8, 0.2
        lam = np.zeros(d)
        lam[0] = 1.0
        out = predicted_bounds(Spectrum(lam), eps)
        assert out.upper == pytest.approx(1 / eps**2, rel=1e-12)


@pytest.mark.parametrize("lam, total", [([0.5, 0.6], "1.1"), ([0.5, math.nan], "nan")])
def test_sum_message_prints_a_plain_float(lam, total):
    with pytest.raises(ValidationError) as err:
        Spectrum(np.array(lam))
    assert str(err.value) == f"spectrum sums to {total}, not 1 within 1e-9"


class TestSerialization:
    def test_spectrum_roundtrip(self):
        # a bare JSON list; the CLI's gen-sigma report (a dict) is read in test_cli
        spec = Spectrum(np.array([0.5, 0.25, 0.25]))
        again = Spectrum.from_json(json.dumps(list(spec.lambdas)))
        assert np.array_equal(spec.lambdas, again.lambdas)


class TestElementaryFacts:
    """Property tests for the max/quasinorm, geometric-gap, and mixed-sort facts."""

    def test_bucket_max_dominates_quasinorm(self, cases: int = 300):
        gen = rng_for("spectrum", "optimize")
        for _ in range(cases):
            lam = random_spectrum_values(int(gen.integers(2, 24)), gen)
            buckets = bucketize(Spectrum(lam))
            sizes = {j: buckets.size(j) for j in buckets.levels}
            assert 1 - 1e-9 <= sum(dj * 2.0**-j for j, dj in sizes.items()) <= 2 + 1e-9
            b = float(gen.uniform(0.2, 3.0))
            a = float(gen.uniform(0.1, 1.0)) * b  # a <= b is the fact's domain
            q = a / b
            p_vec = np.concatenate([np.full(dj, 2.0**-j) for j, dj in sizes.items()])
            quasi = float((p_vec**q).sum() ** (1 / q))
            lhs = max(dj**b * 2.0 ** (-a * j) for j, dj in sizes.items())
            assert lhs >= len(sizes) ** (-b) * quasi ** (-a) - 1e-12

    def test_geometric_gap_norm_comparison(self, cases: int = 300):
        gen = rng_for("spectrum", "geoseries")
        for _ in range(cases):
            m = int(gen.integers(2, 12))
            c = float(gen.uniform(1.05, 4.0))
            ratios = gen.uniform(c, c * 2, size=m - 1)
            v = np.concatenate([[1.0], 1 / np.cumprod(ratios)]) * gen.uniform(0.1, 10)
            p = float(gen.uniform(0.2, 3.0))
            q = float(gen.uniform(0.2, 3.0))
            norm_p = (v**p).sum() ** (1 / p)
            norm_q = (v**q).sum() ** (1 / q)
            assert norm_p >= (1 - c**-q) ** (1 / q) * norm_q - 1e-12

    def test_sorted_mixture_tail_conclusion(self, cases: int = 300):
        gen = rng_for("spectrum", "sortmix")
        for _ in range(cases):
            m = int(gen.integers(1, 8))
            n = int(gen.integers(1, 8))
            u = np.cumprod(gen.uniform(2.0, 3.0, size=m)) * gen.uniform(1e-4, 1e-2)
            v = np.sort(gen.uniform(1e-5, 1e-1, size=n))
            dmult = gen.integers(2, 10, size=n)
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
            b = -1
            for pos in range(s_idx + 1):
                if entries[pos][2] == "v":
                    b = max(b, entries[pos][3])
            if b == n - 1:
                continue  # first branch of the conclusion
            assert (v[: b + 2] * dmult[: b + 2]).sum() > eps - 1e-15
