"""Seedable randomness: derived streams and Haar unitaries.

Streams are identified by a 64-bit master seed plus a tuple of derived
labels; the same (seed, labels) always yields the same Philox sequence, on
any machine and under any parallel schedule.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError


def _label_to_int(label) -> int:
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValidationError("stream labels must be nonnegative")
        return int(label)
    digest = hashlib.sha256(str(label).encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class RngHandle:
    """A reproducible randomness source addressed by (master_seed, stream)."""

    master_seed: int
    stream: tuple[int, ...] = ()

    def child(self, *labels) -> "RngHandle":
        """Derive an independent sub-stream; labels may be ints or strings."""
        extra = tuple(_label_to_int(x) for x in labels)
        return RngHandle(self.master_seed, self.stream + extra)

    def generator(self) -> np.random.Generator:
        """A fresh Philox generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(seq))


# Haar stacks are factored in sub-stacks of at most this many matrix entries
# (size * d * d), so the QR and its temporaries never span a whole stack.
# 2**14 entries are 256 KiB of complex. The streamed draw holds about six
# sub-stacks at once, so this sets verify_moments_basic's working set: 1.7 MiB
# at d=8 and 20 000 samples under tracemalloc, 6.4 MiB at 2**16. The bits do
# not depend on it. verify_moments_basic over 20 000 samples in ms (2-core
# Xeon, one BLAS thread, best of 7, three runs):
#          2**16        2**14        2**13
#   d=2    10 to 14     9 to 13      9 to 13
#   d=4    39 to 41     37 to 41     40 to 43
#   d=6    90 to 105    92 to 105    102 to 120
#   d=8    163 to 199   154 to 164   154 to 164
# Do not go to 2**13: a d=6 sub-stack then holds 227 unitaries, below the 256
# from which _cgs2's fixed cost per sub-stack pays off (see the table below).
_BLOCK_ENTRIES = 2**14
_INV_SQRT2 = 1 / np.sqrt(2)

# A requested stack of at least _CGS2_MIN_SIZE unitaries over C^d with
# d <= _CGS2_MAX_DIM is orthonormalised by _cgs2, any other stack by LAPACK's
# QR plus the phase fix. The rule is part of the stream contract, not a knob:
# the two kernels agree within about 1e-14, not bit for bit. Speed-up of _cgs2
# over _phase_fixed_qr on one sub-stack of n unitaries (2-core AVX-512 Xeon,
# one BLAS thread, best of 15, two runs):
#   d=2: x2.2 at n=128, x3.0 to x3.5 at n=256, x4 to x6 at n=4096
#   d=4: x0.9 to x1.0 at n=128, x1.4 to x1.5 at n=256, x2.4 to x4 at n=4096
#   d=6: x0.9 to x1.0 at n=256, x1.6 to x1.9 at n=1820 (a full 2**16-entry sub-stack)
#   d=8: x0.3 to x1.2, slower on most sizes
_CGS2_MAX_DIM = 6
_CGS2_MIN_SIZE = 256


def _check_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def _complex_gaussian(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(re + 1j * im) / sqrt(2), bit for bit, written into one complex array."""
    z = np.empty(re.shape, dtype=complex)
    np.multiply(re, _INV_SQRT2, out=z.real)
    np.multiply(im, _INV_SQRT2, out=z.imag)
    return z


def ginibre(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Complex Ginibre matrix/matrices with i.i.d. standard complex Gaussians.

    All real parts are drawn first, then all imaginary parts, in one call.
    """
    shape = (d, d) if size is None else (size, d, d)
    parts = rng.standard_normal((2,) + shape)
    return _complex_gaussian(parts[0], parts[1])


def _block_rows(d: int) -> int:
    """Unitaries per sub-stack of ``haar_blocks`` at dimension d."""
    return max(1, _BLOCK_ENTRIES // (d * d))


def _phase_fixed_qr(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Mezzadri's Haar map: Q of the QR of (re + 1j * im) / sqrt(2), its
    columns rephased so that R has a positive diagonal."""
    q, r = np.linalg.qr(_complex_gaussian(re, im))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[..., None, :]
    return q


def _cgs2(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The Q of ``_phase_fixed_qr`` by classical Gram-Schmidt run twice.

    Vectorised over the stack: its R has a real positive diagonal, so Q is
    the phase-fixed one up to rounding, and scaling the input leaves it
    unchanged. Only real elementwise ufuncs touch the data and every sum is
    written out left to right, so a matrix's bits do not depend on the stack
    it sits in.
    """
    n, d, _ = re.shape
    # a[j, i, s] = z[s, i, j]: column j of every matrix is one (d, n) slab
    ar = re.transpose(2, 1, 0).copy()
    ai = im.transpose(2, 1, 0).copy()
    for j in range(d):
        vr, vi = ar[j], ai[j]  # orthonormalised in place
        qr, qi = ar[:j], ai[:j]
        for _ in range(2 if j else 0):  # twice is enough (Giraud et al. 2005)
            # c_k = <q_k, v> = sum_i conj(q_ik) v_i
            pr = qr * vr
            pr += qi * vi
            pi = qr * vi
            pi -= qi * vr
            cr, ci = pr[:, 0].copy(), pi[:, 0].copy()
            for i in range(1, d):
                cr += pr[:, i]
                ci += pi[:, i]
            # v -= sum_k c_k q_k
            pr = qr * cr[:, None]
            pr -= qi * ci[:, None]
            pi = qr * ci[:, None]
            pi += qi * cr[:, None]
            for k in range(j):
                vr -= pr[k]
                vi -= pi[k]
        sq = vr * vr
        sq += vi * vi
        norm = sq[0].copy()
        for i in range(1, d):
            norm += sq[i]
        np.sqrt(norm, out=norm)
        vr /= norm
        vi /= norm
    q = np.empty((n, d, d), dtype=complex)
    q.real = ar.transpose(2, 1, 0)
    q.imag = ai.transpose(2, 1, 0)
    return q


def haar_blocks(d: int, gen: np.random.Generator, size: int):
    """One stack of ``size`` Haar unitaries over C^d, as consecutive sub-stacks.

    The stream is that of one Ginibre stack: all real parts, then all
    imaginary parts. Each yielded sub-stack holds at most
    ``max(1, _BLOCK_ENTRIES // d**2)`` unitaries. A stack that fits in one
    sub-stack draws its real parts here and its imaginary parts when taken:
    two ``standard_normal`` calls. A longer stack streams its real parts:
    they are drawn here one sub-stack at a time and dropped, from a snapshot
    of the generator taken where they start; as the iterator reaches a
    sub-stack it draws that sub-stack's imaginary parts from the generator
    and redraws its real parts from the snapshot. The generator ends where
    the one-shot draw leaves it, and the working set is a fixed number of
    sub-stacks, whatever ``size``.

    The kernel is chosen once from (d, size): ``_cgs2`` when d <= 6 and
    size >= 256, else LAPACK's QR with Mezzadri's phase fix (Mezzadri 2007).
    Both compute each matrix on its own bits, so the concatenated sub-stacks
    equal the one-shot stack bit for bit.
    """
    _check_count("dimension", d, 1)
    _check_count("size", size, 0)
    step = _block_rows(d)
    if d <= _CGS2_MAX_DIM and size >= _CGS2_MIN_SIZE:
        orthonormalise = _cgs2
    else:
        orthonormalise = _phase_fixed_qr
    if size <= step:
        real = [gen.standard_normal((size, d, d))] if size else []
        return _orthonormalised(real, gen, orthonormalise)
    rows = [min(step, size - start) for start in range(0, size, step)]
    replay = copy.deepcopy(gen)
    skipped = np.empty((step, d, d))
    for n in rows:
        gen.standard_normal(out=skipped[:n])
    real = (replay.standard_normal((n, d, d)) for n in rows)
    return _orthonormalised(real, gen, orthonormalise)


def _orthonormalised(real, gen: np.random.Generator, orthonormalise):
    """The sub-stacks of ``haar_blocks`` over their real parts, in order."""
    for re in real:
        yield orthonormalise(re, gen.standard_normal(re.shape))


def haar_unitary(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-random unitary over C^d via phase-fixed QR of a Ginibre matrix.

    With ``size`` set, returns a stacked array of shape (size, d, d): the
    sub-stacks of ``haar_blocks``, so all real parts are drawn first, then the
    imaginary parts, and a stack of at least 256 unitaries at d <= 6 takes its
    Gram-Schmidt kernel. A stack that fits in one sub-stack, as every
    ``basic_certify`` chunk does, is that sub-stack itself, without a copy.
    A longer one, which no caller in the library draws, is its sub-stacks
    concatenated, so it needs twice the memory of the result.
    """
    blocks = haar_blocks(d, rng, 1 if size is None else size)
    if size is None:
        return next(blocks)[0]
    first = next(blocks, np.empty((0, d, d), dtype=complex))
    rest = list(blocks)
    return np.concatenate([first, *rest]) if rest else first


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """The first ``cols`` columns of a Haar unitary over C^rows."""
    if cols > rows or cols < 1:
        raise ValidationError(f"need rows >= cols >= 1, got rows={rows}, cols={cols}")
    return haar_unitary(rows, rng)[:, :cols]


def block_haar(buckets, rng: np.random.Generator) -> np.ndarray:
    """Block-diagonal unitary with an independent Haar block per bucket.

    Within a bucket of size d_j > 1 the block is a Haar unitary on the first
    2*floor(d_j/2) coordinates (a trailing odd coordinate is left fixed);
    size-1 buckets get the identity. Coordinates outside every bucket (zero
    spectrum entries) are also fixed.
    """
    d = buckets.ambient_dim
    u = np.eye(d, dtype=complex)
    for j in buckets.levels:
        idx = buckets.indices(j)
        k = 2 * (len(idx) // 2)
        if k < 2:
            continue
        sub = haar_unitary(k, rng)
        active = idx[:k]
        u[np.ix_(active, active)] = sub
    return u

