import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from qcert.linalg import ValidationError
from qcert import rng as rng_module
from qcert.certify import _CHUNK_ENTRIES
from qcert.haar_oracle import haar_moment
from qcert.cli import haar_schedule, make_spectrum
from qcert.rng import (RngHandle, block_haar, ginibre, haar_blocks, haar_draws, haar_isometry,
                       haar_unitary)
from qcert.spectrum import Spectrum, bucketize

import reference
from conftest import random_hermitian, rng_for

# (family, d, rank, ratio) for make_spectrum, with the buckets they give:
# one of 4; one of 7 (odd); one of 5 (odd) plus a zero entry; sizes 1 and 4;
# all of size 1; sizes 3, 4 and 1; sizes 3, 4, 4 and 1 (two blocks of one size)
STACK_SPECTRA = [("mm", 4, None, 0.5), ("mm", 7, None, 0.5), ("rank-mm", 6, 5, 0.5),
                 ("spiked", 4, None, 0.5), ("geometric", 6, None, 0.5),
                 ("geometric", 8, None, 0.8), ("geometric", 12, None, 0.85)]


class TestDeterminism:
    def test_identical_streams_bitwise(self):
        a = haar_unitary(6, RngHandle(99).child("x", 3).generator())
        b = haar_unitary(6, RngHandle(99).child("x", 3).generator())
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = haar_unitary(6, RngHandle(99).child("x", 3).generator())
        b = haar_unitary(6, RngHandle(99).child("x", 4).generator())
        assert not np.allclose(a, b)

    def test_string_labels_stable(self):
        assert RngHandle(1).child("trial", 7) == RngHandle(1).child("trial", 7)

    @pytest.mark.parametrize("label", ["trial", "s3", "σ-ü", ""])
    def test_string_labels_are_sha256_prefixes(self, label):
        # bytes 0-3 of the SHA-256, little-endian, the same on every derivation
        want = int.from_bytes(hashlib.sha256(label.encode()).digest()[:4], "little")
        for _ in range(2):
            assert RngHandle(1).child(label).stream == (want,)

    @pytest.mark.parametrize("label", [-1, np.int64(-3)])
    def test_negative_integer_labels_rejected(self, label):
        with pytest.raises(ValidationError):
            RngHandle(1).child(label)


class TestHaarUnitary:
    def test_dim_one_is_phase(self):
        u = haar_unitary(1, rng_for("rng", "d1"))
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_unitarity(self):
        for d in (2, 5, 16):
            u = haar_unitary(d, rng_for("rng", "unit", d))
            assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-10

    def test_rejects_zero_dim(self):
        with pytest.raises(ValidationError):
            haar_unitary(0, rng_for("rng"))

    def test_first_moment(self):
        # E |U_11|^2 = 1/d, Monte Carlo within 3 standard errors
        d, n = 4, 100_000
        u = haar_unitary(d, rng_for("rng", "moment"), size=n)
        vals = np.abs(u[:, 0, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1 / d) <= 3 * se

    def test_left_invariance_ks(self):
        # distribution of Tr(A U^dag B U) is invariant under U -> VU; both
        # stacks are sub-stacks of 1024 Householder products
        gen = rng_for("rng", "invariance")
        d, n = 4, 10_000
        a = np.diag(gen.standard_normal(d)).astype(complex)
        b = np.diag(gen.standard_normal(d)).astype(complex)
        v = haar_unitary(d, gen)
        u1 = haar_unitary(d, gen, size=n)
        u2 = v[None] @ haar_unitary(d, gen, size=n)
        t1 = np.einsum("ij,nji->n", a, np.einsum("nji,jk,nkl->nil", u1.conj(), b, u1)).real
        t2 = np.einsum("ij,nji->n", a, np.einsum("nji,jk,nkl->nil", u2.conj(), b, u2)).real
        crit = 1.628 * np.sqrt(2 / n)  # two-sample KS critical value at 1%
        assert stats.ks_2samp(t1, t2).statistic < crit


class TestHouseholderLaw:
    """Stacks of at least 256, drawn as Householder products, against exact
    Haar moments: each Monte Carlo mean within 3 standard errors, or, for the
    d^2 entries of one matrix, within the bound that keeps the chance that
    any of them strays that of one 3-SE test (Bonferroni)."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_unitarity(self, d):
        u = haar_unitary(d, rng_for("householder", "unitary", d), size=256)
        gram = np.swapaxes(u.conj(), -2, -1) @ u
        assert np.abs(gram - np.eye(d)).max() <= 1e-13

    @staticmethod
    def within_3_se(vals, want, tests=1):
        z = stats.norm.isf(stats.norm.sf(3) / tests)
        se = vals.std(ddof=1, axis=0) / np.sqrt(len(vals))
        return np.all(np.abs(vals.mean(axis=0) - want) <= z * se)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_entry_and_trace_moments(self, d):
        # E|U_ij|^2 = 1/d, E|U_11|^4 = 2/(d(d+1)), E|Tr U|^2 = 1
        u = haar_unitary(d, rng_for("householder", "moments", d), size=20_000)
        sq = np.abs(u) ** 2
        assert self.within_3_se(sq, 1 / d, tests=d * d)
        assert self.within_3_se(sq[:, 0, 0] ** 2, 2 / (d * (d + 1)))
        assert self.within_3_se(np.abs(np.trace(u, axis1=1, axis2=2)) ** 2, 1.0)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_matches_haar_moment(self, d):
        gen = rng_for("householder", "haar-moment", d)
        a, b = random_hermitian(d, gen), random_hermitian(d, gen)
        u = haar_unitary(d, gen, size=20_000)
        t = np.einsum("ij,nji->n", a, np.swapaxes(u.conj(), 1, 2) @ b @ u).real
        for order in (2, 4) if d >= 4 else (2,):  # haar_moment needs d >= order
            assert self.within_3_se(t**order, haar_moment(a, b, order)), order

    def test_zero_first_entries_give_a_unitary_without_warnings(self):
        """x_1 = 0 in every level's vector: phi is 1, and no division by zero."""
        d, n = 5, 256

        class ZeroFirstEntries(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                x = super().standard_normal(*args, **kwargs)
                x[[m * (m - 1) // 2 for m in range(1, d + 1)]] = 0.0
                return x

        gen = ZeroFirstEntries(np.random.Philox(7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = haar_unitary(d, gen, size=n)
        gram = np.swapaxes(u.conj(), -2, -1) @ u
        assert np.isfinite(u).all() and np.abs(gram - np.eye(d)).max() <= 1e-13


def one_shot_haar(d, gen, size=None):
    """The one-shot formula: for a stack of at least 256, d(d+1)/2 rows of
    real parts, then of imaginary parts, as Householder products; else one
    Ginibre stack (all real parts, then all imaginary parts), one QR and the
    phase fix. The Householder stack, built stack-last, is returned as
    (size, d, d) like the QR one."""
    if size is not None and size >= 256:
        rows = d * (d + 1) // 2
        re, im = gen.standard_normal((rows, size)), gen.standard_normal((rows, size))
        return rng_module._householder(re, im).transpose(2, 0, 1)
    shape = (d, d) if size is None else (size, d, d)
    re, im = gen.standard_normal(shape), gen.standard_normal(shape)
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def reflection_product(x):
    """One unitary by the Householder recursion, matrix by matrix in complex
    arithmetic, from its k(k+1)/2 complex Gaussians x (level m's m-vector at
    m(m-1)/2 onwards): U_1 = phi, U_m = (I - tau v v^dag) diag(-phi, U_{m-1})."""
    k = (int(np.sqrt(8 * len(x) + 1)) - 1) // 2
    u = np.zeros((0, 0), dtype=complex)
    for m in range(1, k + 1):
        v = x[m * (m - 1) // 2:m * (m + 1) // 2].copy()
        phi = v[0] / abs(v[0]) if v[0] != 0 else 1.0
        norm, abs1 = np.linalg.norm(v), abs(v[0])
        v[0] += phi * norm
        b = np.zeros((m, m), dtype=complex)
        b[0, 0], b[1:, 1:] = -phi, u
        u = (np.eye(m) - np.outer(v, v.conj()) / (norm * (norm + abs1))) @ b
    return u


class CountingGenerator(np.random.Generator):
    """A Generator that counts its standard_normal calls."""

    def __init__(self, seed):
        super().__init__(np.random.Philox(seed))
        self.normal_calls = 0

    def standard_normal(self, *args, **kwargs):
        self.normal_calls += 1
        return super().standard_normal(*args, **kwargs)


class TestGramSchmidtKernel:
    """The sub-stack kernel ``rng._householder``, which draws every sub-stack
    of at least 256 unitaries as a stack-last (k, k, n) array."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_reflection_product(self, d):
        gen = rng_for("householder", "reference", d)
        re, im = gen.standard_normal((2, d * (d + 1) // 2, 40))
        q = rng_module._householder(re, im)
        want = [reflection_product(re[:, s] + 1j * im[:, s]) for s in range(40)]
        assert q.shape == (d, d, 40)
        assert np.abs(q - np.stack(want, axis=-1)).max() <= 1e-13

    @pytest.mark.parametrize("d", range(1, 9))
    def test_bits_independent_of_stack_grouping(self, d):
        """Any group of two or more of a stack's columns, whether a view or a
        contiguous copy, and whether adjacent or strided, gives the bits of
        the whole stack. A group of one need not: its sums run in another
        order, and no caller passes fewer than 256 columns."""
        gen = rng_for("householder", "grouping", d)
        re, im = gen.standard_normal((2, d * (d + 1) // 2, 96))
        whole = rng_module._householder(re, im)
        for size in (2, 3, 4, 8, 32, 48):
            step = 96 // size
            groups = ([slice(s, s + size) for s in range(0, 96, size)]
                      + [slice(s, None, step) for s in range(step)])
            for cols in groups:
                for copy in (False, True):
                    part_re, part_im = re[:, cols], im[:, cols]
                    if copy:
                        part_re, part_im = part_re.copy(), part_im.copy()
                    got = rng_module._householder(part_re, part_im)
                    assert np.array_equal(got, whole[..., cols]), (size, cols, copy)


class TestNormalCalls:
    """The normal draws that feed the kernels: two per sub-stack."""

    @pytest.mark.parametrize("d, size", [(4, None), (4, 300), (8, rng_module._block_rows(8)),
                                         (40, rng_module._block_rows(40))])
    def test_one_sub_stack_draw_makes_two_normal_calls(self, d, size):
        # one sub-stack: its real parts, then its imaginary parts
        gen = CountingGenerator(5)
        haar_unitary(d, gen, size)
        assert gen.normal_calls == 2

    def test_streamed_draw_skips_then_draws_imaginary_parts(self):
        # three sub-stacks, each drawing its real parts, then its imaginary parts
        gen = CountingGenerator(5)
        haar_unitary(8, gen, 3 * rng_module._block_rows(8))
        assert gen.normal_calls == 6


class TestBlockedDraw:
    @pytest.mark.parametrize("d, size", [(8, 3 * rng_module._block_rows(8) + 100),
                                         (3, 3 * rng_module._block_rows(3) + 5), (260, 3), (5, 1)])
    def test_blocked_stack_matches_one_shot(self, d, size):
        """Three sub-stacks plus a remainder (or one sub-stack) equal one
        one-shot draw per sub-stack size in turn, bit for bit, and leave the
        generator where those draws do: Householder products then QR for the
        100-unitary remainder at d=8 and for the 5-unitary remainder at d=3,
        one unitary per sub-stack at d=260."""
        gen, ref = rng_for("blocks", d, size), rng_for("blocks", d, size)
        u = haar_unitary(d, gen, size)
        step = rng_module._block_rows(d)
        want = [one_shot_haar(d, ref, min(step, size - start)) for start in range(0, size, step)]
        assert np.array_equal(u, np.concatenate(want))
        assert gen.random() == ref.random()

    def test_sub_stacks_taken_earlier_are_not_overwritten(self):
        """The Householder sub-stacks of one stack, the last one cut down to
        300, share their normals and work buffers, but each one taken is its
        own array: later draws leave it as it was."""
        rows = rng_module._block_rows(4)
        blocks = haar_blocks(4, rng_for("blocks", "alias"), 3 * rows + 300)
        taken = [next(blocks)]
        kept = taken[0].copy()
        taken += list(blocks)
        assert [q.shape[-1] for q in taken] == [rows, rows, rows, 300]
        assert np.array_equal(taken[0], kept)
        assert not any(np.shares_memory(p, q) for i, p in enumerate(taken) for q in taken[:i])

    def test_long_stack_needs_the_result_plus_one_sub_stack(self):
        """A stack of 40 Householder sub-stacks is filled into its result one
        sub-stack at a time: its peak is the result plus the peak of drawing
        one sub-stack (its normals, work arrays and result), not twice the
        result's size that joining the sub-stacks would take."""
        rows = rng_module._block_rows(8)

        def peak(size):
            tracemalloc.start()
            try:
                u = haar_unitary(8, rng_for("blocks", "memory"), size)
                return u.nbytes, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(rows)[1]
        nbytes, many = peak(40 * rows)
        assert many <= nbytes + 1.05 * one
        assert one < nbytes / 4

    def test_sub_stack_sizes(self):
        rows = rng_module._BLOCK_ENTRIES // 64
        sizes = [q.shape[-1] for q in haar_blocks(8, rng_for("blocks", "sizes"), 3 * rows + 100)]
        assert sizes == [rows, rows, rows, 100]

    def test_basic_certify_chunk_is_one_sub_stack(self):
        # so every chunk's stack is returned without a copy
        for d in range(1, 130):
            assert max(1, _CHUNK_ENTRIES // d**2) <= rng_module._block_rows(d), d

    def test_single_block_is_returned_without_copy(self, monkeypatch):
        yielded = []
        blocks = rng_module.haar_blocks

        def recording(*args):
            for q in blocks(*args):
                yielded.append(q)
                yield q

        monkeypatch.setattr(rng_module, "haar_blocks", recording)
        u = haar_unitary(8, rng_for("blocks", "nocopy"), 100)
        assert len(yielded) == 1 and np.shares_memory(u, yielded[0])
        assert u.shape == (100, 8, 8) and u.flags.c_contiguous

    @pytest.mark.parametrize("d", [1, 4, 9])
    def test_single_matrix_matches_one_shot(self, d):
        gen, ref = rng_for("blocks", "one", d), rng_for("blocks", "one", d)
        u = haar_unitary(d, gen)
        assert u.shape == (d, d)
        assert np.array_equal(u, one_shot_haar(d, ref))
        assert gen.random() == ref.random()

    @pytest.mark.parametrize("size", [None, 1, 50])
    def test_ginibre_matches_one_shot(self, size):
        gen, ref = rng_for("ginibre", size), rng_for("ginibre", size)
        shape = (6, 6) if size is None else (size, 6, 6)
        want = (ref.standard_normal(shape) + 1j * ref.standard_normal(shape)) / np.sqrt(2)
        assert np.array_equal(ginibre(6, gen, size), want)
        assert gen.random() == ref.random()

    def test_checks_at_call_and_draws_when_taken(self):
        """haar_blocks rejects a bad dimension or size at call, and draws
        nothing until the first sub-stack is taken, in one sub-stack or in
        several."""
        gen = rng_for("blocks", "lazy")
        for d, size in ((0, 3), (4, -1)):
            with pytest.raises(ValidationError):
                haar_blocks(d, gen, size)
        for size in (10, 3 * rng_module._block_rows(4) + 1):
            gen = CountingGenerator(5)
            blocks = haar_blocks(4, gen, size)
            assert gen.normal_calls == 0
            next(blocks)
            assert gen.normal_calls == 2

    @pytest.mark.parametrize("size", [-1, 2.0, 2.5, "3", True, None])
    def test_rejects_bad_size(self, size):
        gen = rng_for("blocks", "bad-size")
        with pytest.raises(ValidationError):
            haar_blocks(4, gen, size)
        if size is not None:
            with pytest.raises(ValidationError):
                haar_unitary(4, gen, size)

    def test_empty_stack(self):
        gen = rng_for("blocks", "empty")
        assert haar_unitary(3, gen, 0).shape == (0, 3, 3)
        assert list(haar_blocks(3, gen, 0)) == []


class TestHaarDraws:
    @pytest.mark.parametrize("d, copies", [(1, 3), (2, 5), (5, 300), (8, 1)])
    def test_schedule_is_single_draws_byte_for_byte(self, d, copies):
        gen, ref = rng_for("schedule", d, copies), rng_for("schedule", d, copies)
        u = haar_schedule(d, copies, gen).u
        want = reference.haar_schedule_draw(d, copies, ref)
        assert u.shape == want.shape and u.tobytes() == want.tobytes()
        assert gen.random() == ref.random()

    def test_draws_interleave_dimensions(self):
        """Draw t of each dimension in turn: one haar_unitary per entry of dims."""
        dims, size = [2, 3, 2], 4
        gen, ref = rng_for("draws", "mixed"), rng_for("draws", "mixed")
        got = haar_draws(dims, gen, size)
        want = [[haar_unitary(k, ref) for k in dims] for _ in range(size)]
        for i, k in enumerate(dims):
            assert got[i].shape == (size, k, k)
            assert got[i].tobytes() == np.array([w[i] for w in want]).tobytes()

    @pytest.mark.parametrize("dims, size", [([0], 2), ([2], -1), ([2.0], 2), ([2], None)])
    def test_rejects_bad_dims_and_size(self, dims, size):
        with pytest.raises(ValidationError):
            haar_draws(dims, rng_for("draws", "bad"), size)


class TestHaarIsometry:
    def test_square_case_is_unitary(self):
        w = haar_isometry(4, 4, rng_for("rng", "iso-sq"))
        assert np.abs(w.conj().T @ w - np.eye(4)).max() <= 1e-10

    def test_single_column_unit_vector(self):
        w = haar_isometry(5, 1, rng_for("rng", "iso-col"))
        assert abs(np.linalg.norm(w) - 1) <= 1e-10

    def test_column_orthonormality_battery(self):
        for t in range(100):
            gen = rng_for("rng", "iso", t)
            rows = int(gen.integers(2, 9))
            cols = int(gen.integers(1, rows + 1))
            w = haar_isometry(rows, cols, gen)
            assert np.abs(w.conj().T @ w - np.eye(cols)).max() <= 1e-10

    def test_extends_to_unitary(self):
        w = haar_isometry(6, 3, rng_for("rng", "iso-ext"))
        q, _ = np.linalg.qr(np.hstack([w, np.eye(6, 3, k=-3)]), mode="complete")
        full = np.hstack([w, q[:, 3:]])
        assert np.abs(full.conj().T @ full - np.eye(6)).max() <= 1e-9

    def test_rejects_wide(self):
        with pytest.raises(ValidationError):
            haar_isometry(2, 3, rng_for("rng"))


class TestBlockHaar:
    @pytest.mark.parametrize("spec", STACK_SPECTRA, ids=lambda s: f"{s[0]}-{s[1]}")
    @pytest.mark.parametrize("size", [1, 3, 300])
    def test_stack_is_single_draws_byte_for_byte(self, spec, size):
        """A stack of ``size`` draws, 300 past the 256 at which haar_blocks
        turns to Householder products, is ``size`` one-at-a-time draws of a
        haar_unitary per bucket, byte for byte, and leaves the generator where
        they leave it."""
        buckets = bucketize(make_spectrum(*spec))
        gen, ref = rng_for("block-stack", spec[0], spec[1], size), rng_for(
            "block-stack", spec[0], spec[1], size)
        u = block_haar(buckets, gen, size)
        want = np.array([reference.block_haar_draw(buckets, ref) for _ in range(size)])
        assert u.shape == want.shape and u.tobytes() == want.tobytes()
        assert gen.random() == ref.random()

    def test_single_draw_is_a_matrix(self):
        buckets = bucketize(make_spectrum("spiked", 4, None, 0.5))
        gen, ref = rng_for("block-one"), rng_for("block-one")
        u = block_haar(buckets, gen)
        want = reference.block_haar_draw(buckets, ref)
        assert u.shape == (5, 5) and u.tobytes() == want.tobytes()

    def test_one_normal_call_per_stack(self):
        buckets = bucketize(make_spectrum("geometric", 12, None, 0.85))
        gen = CountingGenerator(5)
        block_haar(buckets, gen, 40)
        assert gen.normal_calls == 1

    @pytest.mark.parametrize("size", [-1, 2.0, True, "3"])
    def test_rejects_bad_size(self, size):
        with pytest.raises(ValidationError):
            block_haar(bucketize(make_spectrum("mm", 4, None, 0.5)), rng_for("block-bad"), size)

    def test_empty_stack(self):
        u = block_haar(bucketize(make_spectrum("mm", 4, None, 0.5)), rng_for("block-empty"), 0)
        assert u.shape == (0, 4, 4)

    def test_single_bucket_plain_haar(self):
        spec = Spectrum(np.full(4, 0.25))
        u = block_haar(bucketize(spec), rng_for("rng", "block1"))
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-10
        assert np.abs(u - np.eye(4)).max() > 0.01

    def test_all_singleton_buckets_identity(self):
        spec = Spectrum(np.array([0.6, 0.3, 0.1]))  # three distinct buckets
        u = block_haar(bucketize(spec), rng_for("rng", "block2"))
        assert np.array_equal(u, np.eye(3, dtype=complex))

    def test_odd_bucket_trailing_coordinate_fixed(self):
        # sizes (3, 2): the third coordinate of the odd bucket stays untouched
        lam = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
        spec = Spectrum(lam)  # single bucket of 5 at level 2
        buckets = bucketize(spec)
        u = block_haar(buckets, rng_for("rng", "block3"))
        assert np.array_equal(u[4], np.eye(5)[4].astype(complex))
        assert np.array_equal(u[:, 4], np.eye(5)[4].astype(complex))

    def test_zero_pattern_two_buckets(self):
        lam = np.array([0.2, 0.2, 0.05, 0.05, 0.25, 0.25])
        buckets = bucketize(Spectrum(lam))
        u = block_haar(buckets, rng_for("rng", "block4"))
        for j in buckets.levels:
            idx = set(buckets.indices(j).tolist())
            for r in idx:
                outside = [c for c in range(6) if c not in idx]
                assert np.abs(u[r, outside]).max() == 0.0

