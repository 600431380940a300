import numpy as np
import pytest

from qcert.linalg import (
    DensityMatrix,
    ValidationError,
    check_hermitian,
    hermitian_eig,
    hermitian_part,
    spectral_fidelity_mm,
    spectral_quasinorm,
    trace_distance,
)

from conftest import random_density, random_hermitian, random_psd, rng_for
from reference import assemble_block, is_psd, schur_psd_check


class TestHermitianEig:
    def test_identity(self):
        lam, vec = hermitian_eig(np.eye(3, dtype=complex))
        assert np.allclose(lam, 1.0)
        assert np.abs(vec.conj().T @ vec - np.eye(3)).max() < 1e-10

    def test_diagonal(self):
        lam, _ = hermitian_eig(np.diag([0.2, 0.8]).astype(complex))
        assert np.allclose(lam, [0.2, 0.8])

    def test_reconstruction_seeded_ginibre(self):
        # symmetrized 8x8 Ginibre; reconstruction is the oracle
        h = random_hermitian(8, rng_for("linalg", "eig"))
        lam, vec = hermitian_eig(h)
        recon = vec @ np.diag(lam) @ vec.conj().T
        assert np.abs(recon - h).max() <= 1e-10 * (1 + np.linalg.norm(h))
        assert np.abs(vec.conj().T @ vec - np.eye(8)).max() <= 1e-10
        assert np.all(np.diff(lam) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestCheckHermitian:
    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_returns_the_hermitian_part_bit_for_bit(self, d):
        # Hermitian up to roundoff, with zeros of every sign in both parts
        gen = rng_for("linalg", "check-hermitian", d)
        g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        noise = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        m = hermitian_part(g) + 1e-14 * noise
        zeros = gen.random((d, d)) < 0.3
        zeros |= zeros.T
        m.real[zeros] = np.copysign(0.0, gen.standard_normal(zeros.sum()))
        m.imag[zeros] = np.copysign(0.0, gen.standard_normal(zeros.sum()))
        for a in (m, m.real, m.tolist()):
            assert check_hermitian(a).tobytes() == hermitian_part(a).tobytes()

    def test_message_names_the_deviation(self):
        with pytest.raises(ValidationError) as err:
            check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert str(err.value) == "matrix is not Hermitian: max |A - A^dag| = 1.000e+00 > 1.0e-12"


class TestTraceDistance:
    def test_equal_states(self):
        rho = random_density(5, rng_for("linalg", "td"))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = DensityMatrix.from_diagonal([1.0, 0.0])
        b = DensityMatrix.from_diagonal([0.0, 1.0])
        assert trace_distance(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_corner_closed_form(self):
        from qcert.instances import build_corner

        sigma = DensityMatrix.from_diagonal([0.75, 0.25])
        rho = build_corner(sigma, 0.2, 1)
        want = 2 * np.sqrt(0.2**4 / 16 + 0.2**2 / 4)
        assert trace_distance(sigma, rho) == pytest.approx(want, abs=1e-10)
        assert want == pytest.approx(0.20100, abs=5e-6)

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            trace_distance(np.eye(2), np.eye(3))

    def test_triangle_inequality(self):
        gen = rng_for("linalg", "triangle")
        for _ in range(200):
            a, b, c = (random_density(4, gen) for _ in range(3))
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9


class TestSchatten:
    def test_identity_two_fifths(self):
        for d in (2, 5, 9):
            assert spectral_quasinorm(np.linalg.eigvalsh(np.eye(d, dtype=complex)), 0.4) == pytest.approx(
                d ** 2.5, rel=1e-12
            )

    def test_half_norm_two_point_state(self):
        val = spectral_quasinorm(np.linalg.eigvalsh(np.diag([0.5, 0.5]).astype(complex)), 0.5)
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_matches_direct_sum(self):
        gen = rng_for("linalg", "schatten")
        for _ in range(50):
            lam = np.abs(gen.standard_normal(6))
            p = gen.uniform(0.2, 3.0)
            direct = (lam**p).sum() ** (1 / p)
            assert spectral_quasinorm(np.linalg.eigvalsh(np.diag(lam).astype(complex)), p) == pytest.approx(
                direct, abs=1e-12 * (1 + direct)
            )

    def test_p1_equals_trace_for_psd(self):
        gen = rng_for("linalg", "p1")
        for _ in range(100):
            m = random_psd(5, gen)
            assert spectral_quasinorm(np.linalg.eigvalsh(m), 1.0) == pytest.approx(
                np.trace(m).real, abs=1e-10 * (1 + np.trace(m).real)
            )

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValidationError):
            spectral_quasinorm(np.linalg.eigvalsh(np.eye(2)), 0.0)


class TestFidelityMM:
    def test_maximally_mixed(self):
        for d in (2, 7):
            lam = np.linalg.eigvalsh(DensityMatrix.maximally_mixed(d).mat)
            assert spectral_fidelity_mm(lam) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state(self):
        d = 6
        lam = np.zeros(d)
        lam[0] = 1.0
        eig = np.linalg.eigvalsh(DensityMatrix.from_diagonal(lam).mat)
        assert spectral_fidelity_mm(eig) == pytest.approx(1 / d, abs=1e-12)

    def test_spiked_direct_sum(self):
        d = 16
        lam = np.full(d + 1, 1.0 / d**2)
        lam[0] = 1 - 1.0 / d
        state = DensityMatrix.from_diagonal(lam)
        direct = np.sqrt(lam).sum() ** 2 / (d + 1)  # eigenvalue-sum oracle
        eig = np.linalg.eigvalsh(state.mat)
        assert spectral_fidelity_mm(eig) == pytest.approx(direct, abs=1e-12)

    def test_equals_half_quasinorm_over_d(self):
        gen = rng_for("linalg", "fid")
        for _ in range(50):
            rho = random_density(5, gen)
            assert spectral_fidelity_mm(np.linalg.eigvalsh(rho.mat)) == pytest.approx(
                spectral_quasinorm(np.linalg.eigvalsh(rho.mat), 0.5) / 5, abs=1e-10
            )


class TestPsdChecks:
    def test_identity_psd(self):
        assert is_psd(np.eye(3))

    def test_small_negative_rejected(self):
        assert not is_psd(np.diag([1.0, -1e-3]), tol=1e-9)

    def test_paninski_samples_psd(self):
        from qcert.instances import sample_paninski, tune_paninski
        from qcert.spectrum import Spectrum

        spec = Spectrum(np.full(8, 0.125))
        inst = tune_paninski(spec, 0.2)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        gen = rng_for("linalg", "paninski-psd")
        for _ in range(50):
            assert is_psd(sample_paninski(sigma, inst, gen).mat)

    def test_schur_trivial_cases(self):
        assert schur_psd_check(np.eye(2), np.zeros((2, 2)), np.eye(2))
        assert not schur_psd_check(np.eye(1), np.array([[2.0]]), np.eye(1))

    def test_schur_agrees_with_full_eigensolver(self):
        gen = rng_for("linalg", "schur")
        for _ in range(200):
            full = random_psd(8, gen)
            shift = gen.uniform(-0.4, 0.8)
            m = full + shift * np.eye(8)
            a, b, c = m[:4, :4], m[:4, 4:], m[4:, 4:]
            if min(np.linalg.eigvalsh(a)[0], np.linalg.eigvalsh(c)[0]) <= 1e-9:
                continue
            assert schur_psd_check(a, b, c) == is_psd(assemble_block(a, b, c))

    def test_schur_rejects_singular_block(self):
        with pytest.raises(ValidationError):
            schur_psd_check(np.zeros((2, 2)), np.eye(2), np.eye(2))


def test_trace_psd_block_inequality():
    # Tr(A) Tr(C) >= ||B||_1^2 and ||B||_1 <= Tr/2 for PSD block matrices
    gen = rng_for("linalg", "tracepsd")
    for _ in range(300):
        m = random_psd(6, gen)
        k = int(gen.integers(1, 6))
        a, b, c = m[:k, :k], m[:k, k:], m[k:, k:]
        b1 = np.abs(np.linalg.svd(b, compute_uv=False)).sum()
        assert np.trace(a).real * np.trace(c).real >= b1**2 - 1e-9
        assert b1 <= np.trace(m).real / 2 + 1e-9


class TestDensityMatrix:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_trusted_stores_the_checked_bits(self, d):
        m = random_psd(d, rng_for("linalg", "trusted", d))
        m = m / np.trace(m).real
        m[0, -1] += 1e-13  # roundoff below the hermiticity tolerance
        want, got = DensityMatrix(m), DensityMatrix.trusted(m)
        assert got.mat.tobytes() == want.mat.tobytes() and got.dim == want.dim == d

    def test_trusted_stack_is_trusted_per_matrix(self):
        """Dense matrices, a diagonal one, one whose only off-diagonal entry is
        past its first row and one with -0.0 on its diagonal: each state of
        the stack has the bits and the block form that ``trusted`` gives."""
        gen = rng_for("linalg", "trusted-stack")
        dense = [random_psd(4, gen) for _ in range(2)]
        late = np.diag([0.4, 0.2, 0.2, 0.2]).astype(complex)
        late[2, 3] = late[3, 2] = 0.05
        stack = np.array([m / np.trace(m).real for m in dense]
                         + [np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), late,
                            np.diag([0.5, 0.5, -0.0, 0.0]).astype(complex)])
        states = DensityMatrix.trusted_stack(stack)
        assert len(states) == len(stack)
        for got, m in zip(states, stack):
            want = DensityMatrix.trusted(m)
            assert got.mat.tobytes() == want.mat.tobytes() and got.dim == want.dim == 4
            assert got.block.shape == want.block.shape
            assert got.block.tobytes() == want.block.tobytes()

    def test_symmetrizes_roundoff(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 1e-13  # below the hermiticity tolerance
        rho = DensityMatrix(m)
        assert np.abs(rho.mat - rho.mat.conj().T).max() == 0.0

    @pytest.mark.parametrize("lam", [
        [1.0], [0.8, 0.2], [0.5, 0.5, -0.0, 0.0], [0.6, 0.4 + 5e-10, -5e-10],
        list(np.random.default_rng(7).dirichlet(np.ones(96))),
    ])
    def test_from_diagonal_stores_the_checked_bits(self, lam, monkeypatch):
        want = DensityMatrix(np.diag(np.asarray(lam).astype(complex)))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: pytest.fail("eigensolve"))
        got = DensityMatrix.from_diagonal(lam)
        assert got.mat.tobytes() == want.mat.tobytes() and got.dim == want.dim == len(lam)
        # the diagonal it keeps is the one a scan of the matrix finds
        assert got.block.tobytes() == want.block.tobytes()

    @pytest.mark.parametrize("lam, message", [
        ([0.5, 0.4], "trace = 0.9, not 1 within 1.0e-09"),  # a plain float, not np.float64(0.9)
        ([1.2, -0.2], "minimum eigenvalue -2.000e-01 < -1.0e-09"),
        ([1.0 + 2e-9, -2e-9], "minimum eigenvalue -2.000e-09 < -1.0e-09"),
    ])
    def test_from_diagonal_errors_are_the_constructors(self, lam, message):
        with pytest.raises(ValidationError) as want:
            DensityMatrix(np.diag(lam).astype(complex))
        with pytest.raises(ValidationError) as got:
            DensityMatrix.from_diagonal(lam)
        assert str(got.value) == str(want.value) == message

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # checked before any arithmetic: no RuntimeWarning on the way
        with pytest.raises(ValidationError, match="finite"):
            DensityMatrix.from_diagonal([bad, 1.0])
        with pytest.raises(ValidationError, match="finite"):
            DensityMatrix(np.diag([bad, 1.0]).astype(complex))
        off = np.diag([0.5, 0.5]).astype(complex)
        off[0, 1] = off[1, 0] = complex(bad, 0.0)
        with pytest.raises(ValidationError, match="finite"):
            DensityMatrix(off)
        off[0, 1], off[1, 0] = 0.0, complex(0.0, bad)
        with pytest.raises(ValidationError, match="finite"):
            DensityMatrix(off)

    def test_from_diagonal_needs_a_vector(self):
        for lam in (0.5, [[0.5, 0.0], [0.0, 0.5]]):
            with pytest.raises(ValidationError):
                DensityMatrix.from_diagonal(lam)
