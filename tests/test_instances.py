import numpy as np
import pytest

from qcert.instances import (
    EnsembleUnavailableError,
    InfeasibleError,
    build_corner,
    build_offdiag,
    corner_ensemble,
    plan_corner,
    plan_offdiag,
    sample_paninski,
    tune_paninski,
)
from qcert.cli import make_spectrum
from qcert.linalg import DensityMatrix, ValidationError, trace_distance
from qcert.rng import block_haar, haar_isometry, haar_unitary
from qcert.spectrum import Spectrum

from conftest import rng_for
from reference import corner_trace_distance, is_psd, paninski_draw


def two_bucket_spectrum() -> Spectrum:
    return Spectrum(np.array([0.16, 0.16, 0.16, 0.16, 0.12, 0.12, 0.12]))


class TestTunePaninski:
    def test_mm4_small_eps_closed_form(self):
        inst = tune_paninski(Spectrum(np.full(4, 0.25)), 0.2)
        # single bucket at level 1: 4 * min(1/4, zeta) = eps, so eps_j = eps/4
        assert inst.eps_per_bucket[1] == pytest.approx(0.05, abs=1e-9)

    def test_saturation_caps(self):
        spec = Spectrum(np.full(4, 0.25))
        sat = 4 * 0.25  # 2*floor(4/2) * 2^-2
        inst = tune_paninski(spec, sat)
        assert inst.eps_per_bucket[1] == 0.25

    def test_above_saturation_rejected(self):
        with pytest.raises(InfeasibleError):
            tune_paninski(Spectrum(np.full(4, 0.25)), 1.01)

    def test_two_bucket_bisection_residual(self):
        d = 16
        r = int(np.sqrt(d))
        lam = np.concatenate([np.full(r, 0.5 / r), np.full(d - r, 0.5 / (d - r))])
        inst = tune_paninski(Spectrum(lam), 0.1)
        total = sum(
            2 * (inst.buckets.size(j) // 2) * e for j, e in inst.eps_per_bucket.items()
        )
        assert total == pytest.approx(0.1, abs=1e-8)

    def test_singleton_buckets_unavailable(self):
        with pytest.raises(EnsembleUnavailableError):
            tune_paninski(Spectrum(np.array([0.6, 0.3, 0.1])), 0.05)


class TestSamplePaninski:
    def test_zero_eps_is_identity_perturbation(self):
        spec = Spectrum(np.full(4, 0.25))
        inst = tune_paninski(spec, 1e-12)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        rho = sample_paninski(sigma, inst, rng_for("inst", "zero"))
        assert trace_distance(sigma, rho) < 1e-9

    def test_mm4_eigenvalues(self):
        spec = Spectrum(np.full(4, 0.25))
        inst = tune_paninski(spec, 0.2)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        rho = sample_paninski(sigma, inst, rng_for("inst", "eig"))
        assert np.allclose(np.linalg.eigvalsh(rho.mat), [0.2, 0.2, 0.3, 0.3], atol=1e-9)

    def test_trace_distance_equals_eps(self):
        spec = two_bucket_spectrum()
        inst = tune_paninski(spec, 0.15)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        gen = rng_for("inst", "dist")
        for _ in range(50):
            rho = sample_paninski(sigma, inst, gen)
            assert abs(trace_distance(sigma, rho) - 0.15) <= 1e-8

    def test_block_structure_preserved(self):
        spec = two_bucket_spectrum()
        inst = tune_paninski(spec, 0.15)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        rho = sample_paninski(sigma, inst, rng_for("inst", "block"))
        assert np.abs(rho.mat[:4, 4:]).max() == 0.0

    def test_ensemble_average_matches_sigma(self):
        # E_U[sigma_U] = sigma entrywise, within 5 standard errors
        spec = Spectrum(np.full(4, 0.25))
        inst = tune_paninski(spec, 0.2)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        gen = rng_for("inst", "mean")
        n = 10_000
        acc = np.zeros((4, 4), dtype=complex)
        acc2 = np.zeros((4, 4))
        for state in sample_paninski(sigma, inst, gen, n):
            m = state.mat
            acc += m
            acc2 += np.abs(m) ** 2
        mean = acc / n
        se = np.sqrt(np.maximum(acc2 / n - np.abs(mean) ** 2, 0) / n)
        assert np.all(np.abs(mean - sigma.mat) <= 5 * se + 1e-12)

    def test_stores_the_bits_the_validating_constructor_stores(self):
        spec = two_bucket_spectrum()
        inst = tune_paninski(spec, 0.15)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        rho = sample_paninski(sigma, inst, rng_for("inst", "pan-bits"))
        u = block_haar(inst.buckets, rng_for("inst", "pan-bits"))
        diag = np.zeros(spec.lambdas.size)
        for j, e in inst.eps_per_bucket.items():
            idx = inst.buckets.indices(j)
            half = len(idx) // 2
            diag[idx[:half]], diag[idx[half:2 * half]] = e, -e
        want = DensityMatrix(sigma.mat + u.conj().T @ np.diag(diag).astype(complex) @ u)
        assert rho.mat.tobytes() == want.mat.tobytes()

    @pytest.mark.parametrize("lam", [[0.25, 0.25, 0.125, 0.125, 0.125, 0.125], [0.25] * 4])
    def test_psd_at_the_largest_eps(self, lam):
        """Entries on the bucket floors and eps at saturation, where every
        eps_j is its cap 2^-(j+1): the least eigenvalue is 0 up to roundoff."""
        spec = Spectrum(np.array(lam))
        inst = tune_paninski(spec, 1.0)
        assert all(e == 2.0 ** -(j + 1) for j, e in inst.eps_per_bucket.items())
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        for t in range(20):
            rho = sample_paninski(sigma, inst, rng_for("inst", "pan-bound", len(lam), t))
            assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-12

    # mm: one bucket of 4; rank-mm: one of 5 (odd) and a zero entry; spiked:
    # sizes 1 and 4; geometric: sizes 3, 4, 4 and 1
    @pytest.mark.parametrize("spec", [("mm", 4, None, 0.5), ("rank-mm", 6, 5, 0.5),
                                      ("spiked", 4, None, 0.5), ("geometric", 12, None, 0.85)],
                             ids=lambda s: s[0])
    @pytest.mark.parametrize("size", [1, 3, 300])
    def test_stack_is_single_draws_byte_for_byte(self, spec, size):
        """``size`` states drawn as one stack, 300 past the 64 that one
        ``qcert divergence`` draw stack holds, are the one-at-a-time draws of
        ``reference.paninski_draw``: matrices and blocks byte for byte."""
        lam = make_spectrum(*spec).lambdas
        inst = tune_paninski(Spectrum(lam), 0.05)
        sigma = DensityMatrix.from_diagonal(lam)
        gen, ref = rng_for("inst", "stack", spec[0], size), rng_for("inst", "stack", spec[0], size)
        states = sample_paninski(sigma, inst, gen, size)
        assert len(states) == size
        for state in states:
            want = paninski_draw(sigma, inst, ref)
            assert state.mat.tobytes() == want.mat.tobytes()
            assert state.block.shape == want.block.shape
            assert state.block.tobytes() == want.block.tobytes()
        assert gen.random() == ref.random()

    def test_single_draw_is_the_stack_of_one(self):
        spec = two_bucket_spectrum()
        inst = tune_paninski(spec, 0.15)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        rho = sample_paninski(sigma, inst, rng_for("inst", "one"))
        (alone,) = sample_paninski(sigma, inst, rng_for("inst", "one"), 1)
        assert isinstance(rho, DensityMatrix) and rho.mat.tobytes() == alone.mat.tobytes()

    def test_sigma_off_the_instance_rejected(self):
        spec = two_bucket_spectrum()
        inst = tune_paninski(spec, 0.15)
        lam = spec.lambdas
        u = haar_unitary(lam.size, rng_for("inst", "pan-off"))
        for sigma in (DensityMatrix(u @ np.diag(lam) @ u.conj().T),  # not diagonal
                      DensityMatrix.from_diagonal(np.r_[0.9, np.full(6, 0.1 / 6)])):  # below eps_j
            for size in (None, 4):
                with pytest.raises(ValidationError, match="diagonal state"):
                    sample_paninski(sigma, inst, rng_for("inst", "pan-off"), size)


class TestOffDiag:
    def test_two_by_two_arithmetic(self):
        sigma = DensityMatrix.from_diagonal([0.5, 0.5])
        inst = plan_offdiag(Spectrum(np.array([0.5, 0.5])), 0.4)
        rho = build_offdiag(sigma, inst, rng_for("inst", "2x2"))
        assert abs(abs(rho.mat[0, 1]) - 0.2) <= 1e-12
        assert np.allclose(np.linalg.eigvalsh(rho.mat), [0.3, 0.7], atol=1e-12)
        assert trace_distance(sigma, rho) == pytest.approx(0.4, abs=1e-8)

    def test_boundary_eps_still_psd(self):
        spec = two_bucket_spectrum()
        max_eps = plan_offdiag(spec, 0.0, j_row=2, j_col=3).max_eps
        inst = plan_offdiag(spec, max_eps, j_row=2, j_col=3)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        rho = build_offdiag(sigma, inst, rng_for("inst", "boundary"))
        assert is_psd(rho.mat)

    def test_same_bucket_split_shapes(self):
        spec = Spectrum(np.full(4, 0.25))
        inst = plan_offdiag(spec, 0.3)
        assert inst.j_row == inst.j_col
        assert len(inst.rows) == 2 and len(inst.cols) == 2

    def test_zero_pattern(self):
        spec = two_bucket_spectrum()
        inst = plan_offdiag(spec, 0.2, j_row=2, j_col=3)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        rho = build_offdiag(sigma, inst, rng_for("inst", "pattern"))
        diff = rho.mat - sigma.mat
        assert np.abs(np.diag(diff)).max() == 0.0  # traceless, purely off-diagonal
        assert np.abs(diff[np.ix_(inst.rows, inst.rows)]).max() == 0.0
        assert np.abs(diff[np.ix_(inst.cols, inst.cols)]).max() == 0.0

    def test_stores_the_bits_the_validating_constructor_stores(self):
        spec = two_bucket_spectrum()
        inst = plan_offdiag(spec, 0.25, j_row=2, j_col=3)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        rho = build_offdiag(sigma, inst, rng_for("inst", "bits"))
        block = inst.amplitude * haar_isometry(len(inst.rows), len(inst.cols),
                                               rng_for("inst", "bits"))
        mat = sigma.mat.copy()
        mat[np.ix_(inst.rows, inst.cols)] += block
        mat[np.ix_(inst.cols, inst.rows)] += block.conj().T
        want = DensityMatrix(mat)
        assert rho.mat.tobytes() == want.mat.tobytes() and rho.block is rho.mat

    @pytest.mark.parametrize("lam", [[0.25, 0.25, 0.125, 0.125, 0.125, 0.125],  # rows j=2, cols j=1
                                     [0.25] * 4])  # one bucket split in halves
    def test_psd_at_the_positivity_bound(self, lam):
        """Entries on the bucket floors and eps = max_eps: the Schur bound is
        tight, and the least eigenvalue is 0 up to roundoff."""
        spec = Spectrum(np.array(lam))
        inst = plan_offdiag(spec, plan_offdiag(spec, 0.0).max_eps)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        for t in range(20):
            rho = build_offdiag(sigma, inst, rng_for("inst", "bound", len(lam), t))
            assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-12

    def test_sigma_off_the_plan_rejected(self):
        spec = two_bucket_spectrum()
        inst = plan_offdiag(spec, 0.25, j_row=2, j_col=3)
        lam = spec.lambdas
        u = haar_unitary(lam.size, rng_for("inst", "off-plan"))
        for sigma in (DensityMatrix.from_diagonal(lam[::-1]),  # rows below 2^-3
                      DensityMatrix(u @ np.diag(lam) @ u.conj().T)):  # not diagonal
            with pytest.raises(ValidationError, match="planned buckets"):
                build_offdiag(sigma, inst, rng_for("inst", "off-plan"))

    def test_infeasible_eps_reports_cap(self):
        spec = two_bucket_spectrum()
        with pytest.raises(InfeasibleError) as err:
            plan_offdiag(spec, 0.9, j_row=2, j_col=3)
        assert err.value.max_eps == pytest.approx(3 * 2.0 ** (-2.5), rel=1e-12)

    def test_trace_distance_battery(self):
        spec = two_bucket_spectrum()
        inst = plan_offdiag(spec, 0.25, j_row=2, j_col=3)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        gen = rng_for("inst", "offdist")
        for _ in range(50):
            rho = build_offdiag(sigma, inst, gen)
            assert abs(trace_distance(sigma, rho) - 0.25) <= 1e-8


class TestCorner:
    def test_explicit_entries(self):
        sigma = DensityMatrix.from_diagonal([0.75, 0.25])
        rho = build_corner(sigma, 0.2, +1)
        assert rho.mat[0, 0] == pytest.approx(0.74, abs=1e-12)
        assert rho.mat[1, 1] == pytest.approx(0.26, abs=1e-12)
        assert rho.mat[0, 1] == pytest.approx(0.1, abs=1e-12)

    def test_sign_mirror_same_spectrum(self):
        sigma = DensityMatrix.from_diagonal([0.8, 0.15, 0.05])
        plus = build_corner(sigma, 0.3, +1)
        minus = build_corner(sigma, 0.3, -1)
        assert minus.mat[plus.mat != minus.mat].size  # off-diagonal flipped
        assert np.allclose(
            np.linalg.eigvalsh(plus.mat), np.linalg.eigvalsh(minus.mat), atol=1e-12
        )

    def test_average_has_zero_corner(self):
        sigma = DensityMatrix.from_diagonal([0.8, 0.2])
        states = corner_ensemble(sigma, 0.3)
        avg = sum(s.mat for s in states) / len(states)
        assert avg[0, 1] == 0.0

    def test_hypothesis_violations(self):
        with pytest.raises(InfeasibleError):
            plan_corner(Spectrum(np.array([0.6, 0.4])), 0.2)  # top < 3/4
        with pytest.raises(InfeasibleError):
            plan_corner(Spectrum(np.array([0.8, 0.2])), 0.6)  # eps > 1/2

    def test_determinant_boundary_checked(self):
        # with a vanishing second eigenvalue the explicit definition loses
        # positivity; the constructor must refuse rather than emit it
        sigma = DensityMatrix.from_diagonal([1.0, 0.0])
        with pytest.raises(InfeasibleError):
            build_corner(sigma, 0.2, +1)

    def test_distance_closed_form(self):
        sigma = DensityMatrix.from_diagonal([0.8, 0.12, 0.08])
        for eps in (0.1, 0.3, 0.5):
            rho = build_corner(sigma, eps, -1)
            assert trace_distance(sigma, rho) == pytest.approx(
                corner_trace_distance(eps), abs=1e-10
            )
            assert corner_trace_distance(eps) >= eps


class TestFuzzValidity:
    """Constructors always emit valid density matrices under their preconditions."""

    def test_paninski_fuzz(self):
        gen = rng_for("inst", "fuzz-paninski")
        for t in range(100):
            d = int(gen.integers(4, 17))
            lam = gen.dirichlet(np.full(d, 2.0))
            lam /= lam.sum()
            spec = Spectrum(lam)
            try:
                inst = tune_paninski(spec, float(gen.uniform(0.02, 0.3)))
            except (EnsembleUnavailableError, InfeasibleError):
                continue
            sigma = DensityMatrix.from_diagonal(lam)
            rho = sample_paninski(sigma, inst, gen)  # DensityMatrix validates
            assert abs(np.trace(rho.mat).real - 1) <= 1e-9

    def test_offdiag_fuzz(self):
        gen = rng_for("inst", "fuzz-offdiag")
        for t in range(100):
            d = int(gen.integers(4, 17))
            lam = gen.dirichlet(np.full(d, 2.0))
            spec = Spectrum(lam / lam.sum())
            try:
                inst = plan_offdiag(spec, float(gen.uniform(0.02, 0.3)))
            except InfeasibleError:
                continue
            sigma = DensityMatrix.from_diagonal(spec.lambdas)
            rho = build_offdiag(sigma, inst, gen)
            assert abs(np.trace(rho.mat).real - 1) <= 1e-9
            assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-12
