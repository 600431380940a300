import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcert.instances import sample_paninski, tune_paninski
from qcert.linalg import DensityMatrix, ValidationError
from qcert.measurement import (
    Basis,
    BudgetExhaustedError,
    CopySource,
    UndefinedOutcomeError,
    _block,
    outcome_distribution,
    phi_table,
    sampling_probs,
)
from qcert.rng import RngHandle, haar_unitary
from qcert.spectrum import Spectrum, bucketize

from conftest import exact_paninski_g2, measure, random_density, rng_for
from reference import (
    OFFDIAG_G2_CONSTANT,
    PANINSKI_G2_CONSTANT,
    Povm,
    dense_basis_povm,
    project_povm_to_blocks,
    random_povm,
    scalar_phi,
)


class TestPovm:
    def test_completeness_enforced(self):
        with pytest.raises(ValidationError):
            Povm(np.stack([np.eye(2, dtype=complex) * 0.5]))

    def test_psd_enforced(self):
        bad = np.stack([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])]).astype(complex)
        with pytest.raises(ValidationError):
            Povm(bad)


class TestBasis:
    def test_rejects_nonunitary(self):
        with pytest.raises(ValidationError):
            Basis(np.ones((2, 2)))

    @pytest.mark.parametrize("d", [1, 2, 7, 32])
    def test_weights_match_dense_povm(self, d):
        gen = rng_for("meas", "basis-kernel", d)
        u = haar_unitary(d, gen)
        rho = random_density(d, gen)
        dense = np.einsum("zij,ji->z", dense_basis_povm(u).elements, rho.mat).real
        assert np.abs(Basis(u).weights(rho.mat) - dense).max() <= 1e-12

    def test_stack_checks_every_unitary(self):
        us = haar_unitary(4, rng_for("meas", "stack"), size=3)
        assert Basis(us).weights(np.eye(4) / 4).shape == (3, 4)
        us[1, :, 0] *= 1.01
        with pytest.raises(ValidationError):
            Basis(us)

    @pytest.mark.parametrize("d, r", [(2, 300), (5, 3), (16, 2)])
    def test_trusted_weights_equal_checked(self, d, r):
        """A drawn stack held by ``Basis.trusted`` has the weights of
        ``Basis(u)`` bit for bit, on a diagonal block (also when |U|^2 is
        reused) and on a dense one. At d = 2 the stack takes Gram-Schmidt."""
        gen = rng_for("meas", "trusted", d)
        us = haar_unitary(d, gen, size=r)
        diagonal = DensityMatrix.from_diagonal(gen.dirichlet(np.ones(d))).diagonal_entries
        dense = random_density(d, gen).mat
        trusted, checked = Basis.trusted(us), Basis(us)
        for block in (diagonal, dense, diagonal):
            assert np.array_equal(trusted.weights(block), checked.weights(block))


def dense_weights(u: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Born weights <u_z| block |u_z> through the dense product U^dag block U."""
    return np.real(np.sum(u.conj() * (block @ u), axis=-2))


class TestDiagonalKernel:
    """A block read by ``_block`` takes Basis.weights' O(d^2) kernel when it is
    exactly diagonal."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40),
           r=st.none() | st.integers(1, 4), zeros=st.floats(0.0, 0.9),
           conditional=st.booleans())
    def test_matches_dense_path(self, seed, d, r, zeros, conditional):
        gen = RngHandle(seed).child("diag-kernel").generator()
        lam = gen.dirichlet(np.ones(d))
        lam[gen.random(d) < zeros] = 0.0
        lam[int(gen.integers(d))] += 1.0  # at least one entry stays positive
        state = DensityMatrix.from_diagonal(lam / lam.sum())
        src, block = CopySource(state), state.mat
        if conditional:
            idx = np.sort(gen.choice(d, size=int(gen.integers(1, d + 1)), replace=False))
            src, block = src.conditional(idx), block[np.ix_(idx, idx)]
        m = Basis(haar_unitary(src.dim, gen, size=r))
        p = src.law(m)
        assert np.abs(p - dense_weights(m.u, block)).max() <= 1e-12
        assert abs(src.acceptance - np.diagonal(block).real.sum()) <= 1e-12
        for t in range(len(m.u) if r else 0):  # a stack's rows are its bases held alone
            assert np.array_equal(p[t], Basis(m.u[t]).weights(np.diagonal(block).real))

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 40),
           r=st.none() | st.integers(1, 4), scale=st.sampled_from([1e-300, 1e-3, 1.0]))
    def test_off_diagonal_entry_takes_dense_path(self, seed, d, r, scale):
        """One nonzero off-diagonal pair, however small, selects the dense
        product: the weights equal it bit for bit."""
        gen = RngHandle(seed).child("dense-kernel").generator()
        block = np.diag(gen.dirichlet(np.ones(d))).astype(complex)
        i, j = gen.choice(d, size=2, replace=False)
        block[i, j] = scale * (gen.random() + 1j * gen.random())
        block[j, i] = np.conj(block[i, j])
        u = haar_unitary(d, gen, size=r)
        assert _block(block) is block
        assert np.array_equal(Basis(u).weights(block), dense_weights(u, block))


    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 40),
           r=st.none() | st.integers(1, 4))
    def test_squared_moduli_shared_across_blocks(self, seed, d, r):
        """One Basis computes |U|^2 once and serves every diagonal block from
        it, bit for bit as a fresh Basis would; a dense block in between
        leaves it as it was."""
        gen = RngHandle(seed).child("shared-kernel").generator()
        m = Basis(haar_unitary(d, gen, size=r))
        blocks = [gen.dirichlet(np.ones(d)) for _ in range(2)]
        dense = np.diag(blocks[0]) + np.triu(np.full((d, d), 1e-3), 1) + np.tril(np.full((d, d), 1e-3), -1)
        fresh = [Basis(m.u).weights(b) for b in blocks]
        sq = m.u.real**2 + m.u.imag**2
        for b, want in zip(blocks + [dense] + blocks, fresh + [None] + fresh):
            got = m.weights(b)
            if want is None:
                assert np.array_equal(got, dense_weights(m.u, b))
            else:
                assert np.array_equal(got, want)
                assert np.array_equal(got, np.sum(sq * b[:, None], axis=-2))

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40),
           r=st.none() | st.integers(1, 4))
    def test_diagonal_read_as_its_entries(self, seed, d, r):
        """``_block`` reads a diagonal matrix as its real diagonal, bit for
        bit, which the O(d^2) kernel measures; a state built from its
        diagonal keeps the same entries."""
        gen = RngHandle(seed).child("diag-entries").generator()
        lam = gen.dirichlet(np.ones(d))
        block = _block(np.diag(lam).astype(complex))
        assert block.ndim == 1 and block.tobytes() == lam.tobytes()
        assert DensityMatrix.from_diagonal(lam).diagonal_entries.tobytes() == lam.tobytes()
        m = Basis(haar_unitary(d, gen, size=r))
        sq = m.u.real**2 + m.u.imag**2
        assert np.array_equal(m.weights(block), np.sum(sq * lam[:, None], axis=-2))


class TestSamplingProbs:
    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 130), r=st.integers(1, 12),
           dense=st.booleans())
    def test_stack_rows_equal_rows_alone(self, seed, k, r, dense):
        """A stack is normalised in one pass, each row bit for bit as it is
        alone, also where the Born kernel rounds an entry slightly below 0."""
        gen = RngHandle(seed).child("sampling-probs").generator()
        m = Basis.trusted(haar_unitary(k, gen, size=r))
        block = random_density(k, gen) if dense else DensityMatrix.from_diagonal(
            gen.dirichlet(np.ones(k)))
        p = outcome_distribution(block, m)
        # roundoff below 0 off each row's largest entry, which keeps every row's sum positive
        low = gen.random(p.shape) < 0.1
        low[np.arange(r), p.argmax(axis=-1)] = False
        p[low] = -1e-17
        q = sampling_probs(p)
        assert q.shape == p.shape and q.min() >= 0
        for i in range(r):
            assert q[i].tobytes() == sampling_probs(p[i]).tobytes()


class TestOutcomeDistribution:
    def test_identity_povm(self):
        m = Povm(np.eye(2, dtype=complex)[None])
        rho = DensityMatrix.maximally_mixed(2)
        assert np.allclose(outcome_distribution(rho, m), [1.0])

    def test_computational_basis_reads_diagonal(self):
        lam = [0.5, 0.3, 0.2]
        rho = DensityMatrix.from_diagonal(lam)
        p = outcome_distribution(rho, Basis(np.eye(3)))
        assert np.allclose(p, lam)

    def test_haar_basis_on_mm_is_uniform(self):
        d = 6
        m = Basis(haar_unitary(d, rng_for("meas", "mm")))
        p = outcome_distribution(DensityMatrix.maximally_mixed(d), m)
        assert np.abs(p - 1 / d).max() <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            outcome_distribution(DensityMatrix.maximally_mixed(3), Basis(np.eye(2)))


class TestCopySource:
    def test_deterministic_povm_single_outcome(self):
        src = CopySource(DensityMatrix.from_diagonal([1.0, 0.0]))
        assert measure(src, Basis(np.eye(2)), 1, rng_for("meas", "det")).tolist() == [1, 0]
        assert src.copies_used == 1

    def test_budget_zero_errors(self):
        src = CopySource(DensityMatrix.maximally_mixed(2), budget=0)
        with pytest.raises(BudgetExhaustedError):
            measure(src, Basis(np.eye(2)), 1, rng_for("meas", "b0"))

    def test_batch_counts_budget(self):
        src = CopySource(DensityMatrix.maximally_mixed(2), budget=10)
        m = Basis(np.eye(2))
        counts = measure(src, m, 10, rng_for("meas", "batch"))
        assert counts.sum() == 10 and src.copies_used == 10
        with pytest.raises(BudgetExhaustedError):
            measure(src, m, 1, rng_for("meas", "batch2"))

    def test_empirical_frequencies(self):
        lam = [0.55, 0.25, 0.2]
        src = CopySource(DensityMatrix.from_diagonal(lam))
        m = Basis(np.eye(3))
        n = 100_000
        counts = measure(src, m, n, rng_for("meas", "freq"))
        for k, target in enumerate(lam):
            se = np.sqrt(target * (1 - target) / n)
            assert abs(counts[k] / n - target) <= 3 * se


class TestBlockProjection:
    def test_single_bucket_identity_transform(self):
        spec = Spectrum(np.full(4, 0.25))
        m = random_povm(4, 3, rng_for("meas", "proj1"))
        refined, fmap = project_povm_to_blocks(m, bucketize(spec))
        assert len(refined) == 3
        assert sorted(fmap.values()) == [0, 1, 2]

    def test_computational_basis_unchanged(self):
        lam = np.array([0.4, 0.3, 0.2, 0.1])
        buckets = bucketize(Spectrum(lam))
        m = dense_basis_povm(np.eye(4))
        refined, fmap = project_povm_to_blocks(m, buckets)
        assert len(refined) == 4  # rank-1 diagonal elements stay whole
        for label in refined.labels:
            assert fmap[label] == label[1]

    def test_pushforward_battery(self):
        gen = rng_for("meas", "pushforward")
        for _ in range(30):
            lam = np.array([0.2, 0.2, 0.17, 0.17, 0.13, 0.13])
            buckets = bucketize(Spectrum(lam))
            m = random_povm(6, int(gen.integers(2, 6)), gen)
            refined, fmap = project_povm_to_blocks(m, buckets)
            # block-diagonal state matching the bucket structure
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
            assert np.abs(pushed - p_orig).max() <= 1e-10


def likelihood_deviation(m: Povm | Basis, rho, alt) -> np.ndarray:
    """g(z) = <M_z, alt> / <M_z, rho> - 1 for every outcome z of m."""
    return m.weights(alt.mat) / outcome_distribution(rho, m) - 1.0


def rank_one_povm(v: np.ndarray) -> Povm:
    """{|v><v|, I - |v><v|} for a unit vector v."""
    e = np.outer(v, v.conj())
    return Povm(np.stack([e, np.eye(len(v)) - e]))


class TestLikelihood:
    def test_same_state_zero(self):
        rho = random_density(4, rng_for("meas", "g0"))
        m = Basis(haar_unitary(4, rng_for("meas", "g0b")))
        assert (likelihood_deviation(m, rho, rho) == 0.0).all()

    def test_vanishing_null_probability(self):
        # phi refuses an outcome the null never produces but an alternative does
        rho = DensityMatrix.from_diagonal([1.0, 0.0])
        alt = DensityMatrix.from_diagonal([0.5, 0.5])
        with pytest.raises(UndefinedOutcomeError):
            phi_table(Basis(np.eye(2)), rho, [alt, alt])

    def test_corner_closed_form(self):
        from qcert.instances import build_corner

        sigma = DensityMatrix.from_diagonal([0.8, 0.2])
        rho = build_corner(sigma, 0.3, +1)
        gen = rng_for("meas", "corner-g")
        for _ in range(20):
            v = gen.standard_normal(2) + 1j * gen.standard_normal(2)
            v /= np.linalg.norm(v)
            denom = (v.conj() @ sigma.mat @ v).real
            num = (
                0.3 * np.real(np.conj(v[0]) * v[1])
                - (0.3**2 / 4) * (abs(v[0]) ** 2 - abs(v[1]) ** 2)
            )
            g = likelihood_deviation(rank_one_povm(v), sigma, rho)[0]
            assert g == pytest.approx(num / denom, abs=1e-12)

    def test_mean_over_null_outcomes_is_zero(self):
        # sum_z p0(z) g(z) = 0 whenever both states have equal trace
        gen = rng_for("meas", "gmean")
        for _ in range(50):
            rho = random_density(5, gen)
            alt = random_density(5, gen)
            m = Basis(haar_unitary(5, gen))
            p0 = outcome_distribution(rho, m)
            assert abs(p0 @ likelihood_deviation(m, rho, alt)) <= 1e-10

    def test_block_disjoint_matches_per_bucket_formula(self):
        spec = Spectrum(np.array([0.2, 0.2, 0.17, 0.17, 0.13, 0.13]))
        buckets = bucketize(spec)
        inst = tune_paninski(spec, 0.1)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        rho = sample_paninski(sigma, inst, rng_for("meas", "gblock"))
        idx = buckets.indices(buckets.levels[0])
        v = np.zeros(6, dtype=complex)
        vs = rng_for("meas", "gblock2").standard_normal(len(idx))
        v[idx] = vs / np.linalg.norm(vs)
        e = np.outer(v, v.conj())
        # per-bucket route: restrict everything to the bucket submatrix
        sub = np.ix_(idx, idx)
        g_full = likelihood_deviation(rank_one_povm(v), sigma, rho)[0]
        num = np.einsum("ij,ji->", e[sub], rho.mat[sub] - sigma.mat[sub]).real
        den = np.einsum("ij,ji->", e[sub], sigma.mat[sub]).real
        assert g_full == pytest.approx(num / den, abs=1e-12)


class TestPhi:
    @pytest.mark.parametrize("d", [3, 9])
    def test_table_matches_the_scalar_loop(self, d):
        # bit for bit, with an outcome the null and every state never produce
        gen = rng_for("meas", "phi-table", d)
        lam = gen.dirichlet(np.ones(d))
        lam[-1] = 0.0
        sigma = DensityMatrix.from_diagonal(lam / lam.sum())
        states = []
        for _ in range(3):
            rho = random_density(d - 1, gen).mat
            states.append(DensityMatrix(np.pad(rho, (0, 1))))
        u = np.eye(d, dtype=complex)
        u[:-1, :-1] = haar_unitary(d - 1, gen)
        m = Basis(u)
        table = phi_table(m, sigma, states)
        want = [[scalar_phi(m, sigma, a, b) for b in states] for a in states]
        assert table.tolist() == want

    def test_same_state_zero(self):
        rho = random_density(3, rng_for("meas", "phi0"))
        m = Basis(haar_unitary(3, rng_for("meas", "phi0b")))
        assert phi_table(m, rho, [rho, rho])[0, 1] == 0.0

    def test_second_moment_nonnegative(self):
        gen = rng_for("meas", "phi2")
        rho = random_density(3, gen)
        alt = random_density(3, gen)
        m = Basis(haar_unitary(3, gen))
        assert phi_table(m, rho, [alt, alt])[0, 1] >= 0.0

    def test_bucket_decomposition_identity(self):
        # phi = sum_j p_j phi_j for block POVMs and blockwise alternatives
        spec = Spectrum(np.array([0.2, 0.2, 0.17, 0.17, 0.13, 0.13]))
        buckets = bucketize(spec)
        inst = tune_paninski(spec, 0.1)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        gen = rng_for("meas", "phij")
        rho_u = sample_paninski(sigma, inst, gen)
        rho_v = sample_paninski(sigma, inst, gen)
        m = random_povm(6, 4, gen)
        refined, _ = project_povm_to_blocks(m, buckets)
        full = phi_table(refined, sigma, [rho_u, rho_v])[0, 1]

        per_bucket = 0.0
        for j in buckets.levels:
            idx = buckets.indices(j)
            sub = np.ix_(idx, idx)
            p_j = spec.lambdas[idx].sum()
            sig_j = DensityMatrix(sigma.mat[sub] / p_j)
            u_j = DensityMatrix(rho_u.mat[sub] / p_j)
            v_j = DensityMatrix(rho_v.mat[sub] / p_j)
            elems = [
                e[sub] / p_j for k, e in enumerate(refined.elements)
                if refined.labels[k][0] == j and np.abs(e[sub]).max() > 0
            ]
            # renormalized elements need not form a POVM; evaluate directly
            phi_j = 0.0
            for e in elems:
                p0 = np.einsum("ij,ji->", e, sig_j.mat).real
                if p0 <= 1e-15:
                    continue
                gu = np.einsum("ij,ji->", e, u_j.mat).real / p0 - 1
                gv = np.einsum("ij,ji->", e, v_j.mat).real / p0 - 1
                phi_j += p0 * gu * gv * p_j  # un-normalize the outcome law
            per_bucket += phi_j
        assert full == pytest.approx(per_bucket, abs=1e-10)


class TestSecondMomentBounds:
    def test_paninski_bucket_bound_exact(self):
        # E_U[g^2] <= C * 2^(2j) eps_j^2 / d_j at the audited constant, via the
        # exact order-2 moment; includes adversarial rank-1 edge elements
        gen = rng_for("meas", "g2exact")
        for _ in range(200):
            dj = int(gen.integers(2, 9))
            j = int(gen.integers(0, 6))
            lam = gen.uniform(2.0 ** (-j - 1), 2.0**-j, size=dj)
            eps_j = float(gen.uniform(0, 2.0 ** (-j - 1)))
            val = exact_paninski_g2(lam, eps_j, gen)
            assert val <= PANINSKI_G2_CONSTANT * 2.0 ** (2 * j) * eps_j**2 / dj + 1e-12

    def test_paninski_bucket_bound_monte_carlo(self):
        gen = rng_for("meas", "g2mc")
        dj, j = 4, 1
        lam = gen.uniform(2.0 ** (-j - 1), 2.0**-j, size=dj)
        eps_j = 0.2 * 2.0 ** (-j - 1)
        pert = np.zeros(dj)
        pert[: dj // 2] = eps_j
        pert[dj // 2 :] = -eps_j
        v = gen.standard_normal(dj) + 1j * gen.standard_normal(dj)
        v /= np.linalg.norm(v)
        e_bucket = np.outer(v, v.conj())
        denom = (v.conj() @ np.diag(lam) @ v).real
        n = 4000
        us = haar_unitary(dj, gen, size=n)
        vals = (
            np.einsum("ij,nji->n", e_bucket, np.einsum("nji,j,njl->nil", us.conj(), pert.astype(complex), us))
            .real
            / denom
        ) ** 2
        bound = PANINSKI_G2_CONSTANT * 2.0 ** (2 * j) * eps_j**2 / dj
        assert vals.mean() - 3 * vals.std(ddof=1) / np.sqrt(n) <= bound

    def test_offdiag_second_moment_constant(self):
        # E_{z,U}[g^2] <= 16 eps^2 / (d_col^2 2^-j_col), exact in U via
        # E[Re(a^dag U b)^2] = |a|^2 |b|^2 / (2 d_row)
        gen = rng_for("meas", "offg2")
        for _ in range(200):
            d_row = int(gen.integers(2, 9))
            d_col = int(gen.integers(1, d_row + 1))
            j_row = int(gen.integers(0, 5))
            j_col = int(gen.integers(j_row, 6))
            lam_row = gen.uniform(2.0 ** (-j_row - 1), 2.0**-j_row, size=d_row)
            lam_col = gen.uniform(2.0 ** (-j_col - 1), 2.0**-j_col, size=d_col)
            eps = float(gen.uniform(0, d_col * 2.0 ** (-(j_row + j_col) / 2)))
            # rank-1 elements lam_z v_z v_z^dag resolving the union block
            u = haar_unitary(d_row + d_col, gen)
            total = 0.0
            for z in range(d_row + d_col):
                v = u[:, z]
                vj, vjp = v[:d_row], v[d_row:]
                sigma_v = (
                    np.abs(vj) ** 2 @ lam_row + np.abs(vjp) ** 2 @ lam_col
                )
                overlap2 = (np.linalg.norm(vj) ** 2) * (np.linalg.norm(vjp) ** 2) / (2 * d_row)
                total += (eps / d_col) ** 2 * overlap2 / sigma_v
            bound = OFFDIAG_G2_CONSTANT * eps**2 / (d_col**2 * 2.0 ** (-j_col))
            assert total <= bound + 1e-12


class TestPhiTail:
    def test_tail_decay_qualitative(self):
        # survival of |phi| decays and sits below 1.2 exp(-c d s^2 / (L^2 varsigma^2))
        spec = Spectrum(np.full(8, 0.125))
        inst = tune_paninski(spec, 0.2)
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        gen = rng_for("meas", "phitail")
        m = Basis(haar_unitary(8, gen))
        n = 10_000
        samples = np.empty(n)
        for k in range(n):
            rho_u = sample_paninski(sigma, inst, gen)
            rho_v = sample_paninski(sigma, inst, gen)
            samples[k] = phi_table(m, sigma, [rho_u, rho_v])[0, 1]
        (j,) = inst.eps_per_bucket
        eps_j = inst.eps_per_bucket[j]
        var_scale = (2.0**j * eps_j) ** 2 / 8  # (2^j eps_j)^2 / d_j for both L and varsigma
        grid = np.quantile(np.abs(samples), [0.5, 0.75, 0.9, 0.97])
        surv = np.array([(np.abs(samples) > s).mean() for s in grid])
        assert np.all(np.diff(surv) <= 0)
        c_fit = min(
            8 * var_scale**2 / (8 * s**2) * np.log(1.2 / p)
            for s, p in zip(grid, surv)
            if p > 0
        )
        assert c_fit > 0
        for s, p in zip(grid, surv):
            if p > 0:
                assert p <= 1.2 * np.exp(-c_fit * 8 * s**2 / (8 * var_scale**2)) + 1e-12
