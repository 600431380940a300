"""Seedable randomness: derived streams and Haar unitaries.

Streams are identified by a 64-bit master seed plus a tuple of derived
labels; the same (seed, labels) always yields the same Philox sequence, on
any machine and under any parallel schedule.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError, check_count


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


# Haar stacks are drawn in sub-stacks of at most this many matrix entries
# (size * d * d), so a draw and its temporaries never span a whole stack.
# 2**14 entries are 256 KiB of complex. Each sub-stack draws its real parts,
# then its imaginary parts, so a stack's bits depend on this size: it is part
# of the stream contract, as certify's _CHUNK_ENTRIES is. verify_moments_basic
# over 20 000 samples in ms (Xeon, one core, one BLAS thread, best of 7, three
# runs), and its tracemalloc peak at d=8:
#          2**16        2**14        2**13
#   d=2    12 to 16     10 to 12     10 to 11
#   d=4    23 to 24     21 to 23     26 to 27
#   d=6    41 to 44     45 to 67     80 to 84
#   d=8    82 to 85     92 to 100    133 to 238
#   peak   4.0 MiB      1.0 MiB
# 2**13 leaves sub-stacks at d >= 6 below the 256 that Householder products need.
_BLOCK_ENTRIES = 2**14
_INV_SQRT2 = 1 / np.sqrt(2)

# A sub-stack of at least this many unitaries is drawn as Householder products
# by _householder, a smaller one by LAPACK's QR plus the phase fix: this is part
# of the stream contract, not a knob, and keeps divergence schedules and certify
# chunks of fewer than 256 rounds on the QR, although the complex kernel is
# already the faster one at n=64. One sub-stack of n unitaries, normals included
# (the Householder ones drawn into held buffers), in us, QR / Householder
# (2-core Xeon, one BLAS thread, best of 200 in each of two runs):
#          n=64        n=256         whole sub-stack
#   d=2    62 / 61     181 / 89      2873 / 778 (n=4096)
#   d=4    130 / 112   442 / 207     1617 / 590 (n=1024)
#   d=8    323 / 275   1254 / 696    (n=256)
_HOUSEHOLDER_MIN_SIZE = 256


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


def _householder_work(k: int, n: int) -> np.ndarray:
    """A flat complex buffer for the work arrays of ``_householder`` on n
    unitaries over C^k: the k(k+1)/2 rows of a, the rank-1 term, conj(a) and w."""
    return np.empty((k * k + k * (k + 1) // 2 + k - 2) * n, dtype=complex)


def _householder(re: np.ndarray, im: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """n Haar unitaries over C^k as products of Householder reflections
    (Stewart 1980; Mezzadri 2007), each from k(k+1)/2 complex Gaussians.

    Column s of the (k(k+1)/2, n) arrays ``re`` and ``im`` holds unitary s,
    rows m(m-1)/2 to m(m+1)/2 - 1 its m-vector x. U_1 = phi and
    U_m = (I - a a^dag) diag(-phi, U_{m-1}) for m = 2..k, where
    phi = x_1 / |x_1| (1 when x_1 = 0) and
    a = (x + phi |x| e_1) / sqrt(|x| (|x| + |x_1|)), so U_m's first column is
    x / |x| and its others are [0; U_{m-1}] - a w with w = a_{2..m}^dag U_{m-1}.

    Every level's |x|, phi and a are found first, in real arithmetic. Then
    each U_m is built in place, in complex arithmetic, as the trailing (m, m)
    block of the returned (k, k, n) array, stack-last: ``u[:, :, s]`` is
    unitary s, and U_m's own trailing block is U_{m-1}. That array is new;
    the other complex work arrays are cut from ``work``
    (``_householder_work(k, n)`` or larger; a new one when it is None), so a
    caller that builds many stacks can hold them once. Every step is
    elementwise over the stack axis or sums a level's rows with the stack
    axis innermost, so a unitary's bits do not depend on the other columns
    of its stack, contiguous or strided, when the stack holds at least two;
    a stack of one sums in another order.
    """
    rows, n = re.shape
    k = (math.isqrt(8 * rows + 1) - 1) // 2
    levels = range(1, k + 1)
    first = [m * (m - 1) // 2 for m in levels]
    if work is None:
        work = _householder_work(k, n)
    cuts = np.cumsum([0, rows, k * (k - 1), k - 1, k - 1]) * n
    a, t, y, w = (work[lo:hi] for lo, hi in zip(cuts, cuts[1:]))
    a = a.reshape(rows, n)
    sq = re * re
    sq += im * im
    norm = np.sqrt([sq[i:i + m].sum(axis=0) for m, i in zip(levels, first)])
    abs1 = np.sqrt(sq[first])
    zero = abs1 == 0
    # a's first entry x_1 + phi |x| is x_1 (1 + |x| / |x_1|), or |x| when
    # x_1 = 0; a is not used at level 1
    grow = 1 + norm / (abs1 + zero)
    a.real, a.imag = re, im
    a.real[first] = re[first] * grow + zero * norm
    a.imag[first] = im[first] * grow
    scale = np.repeat(1 / np.sqrt(norm[1:] * (norm[1:] + abs1[1:])), levels[1:], axis=0)
    a.real[1:] *= scale
    a.imag[1:] *= scale
    # U_1 = phi, then each level's first column x / |x|
    inv_norm = 1 / (norm + (norm == 0))
    u = np.zeros((k, k, n), dtype=complex)
    u.real[-1, -1] = re[0] * inv_norm[0] + zero[0]
    u.imag[-1, -1] = im[0] * inv_norm[0]
    for m, start in zip(levels[1:], first[1:]):
        top = k - m  # U_m is [top:, top:], U_{m-1} is [top + 1:, top + 1:]
        ym, wm = y[:(m - 1) * n].reshape(m - 1, n), w[:(m - 1) * n].reshape(m - 1, n)
        np.conjugate(a[start + 1:start + m], out=ym)
        np.einsum("is,ics->cs", ym, u[top + 1:, top + 1:], out=wm)
        u[top:, top + 1:] -= np.multiply(a[start:start + m, None], wm,
                                         out=t[:m * (m - 1) * n].reshape(m, m - 1, n))
        np.multiply(re[start:start + m], inv_norm[m - 1], out=u.real[top:, top])
        np.multiply(im[start:start + m], inv_norm[m - 1], out=u.imag[top:, top])
    return u


def haar_blocks(d: int, gen: np.random.Generator, size: int):
    """One stack of ``size`` Haar unitaries over C^d, as consecutive
    sub-stacks, each stack-last: a (d, d, n) array whose ``[:, :, s]`` is
    unitary s.

    Each sub-stack holds ``max(1, _BLOCK_ENTRIES // d**2)`` unitaries, the
    last one the remainder, and is drawn when it is taken: its real parts,
    then its imaginary parts. So the stack is, bit for bit, one draw per
    sub-stack size in turn, and nothing is drawn before the first sub-stack is
    taken; ``d`` and ``size`` are checked at call. A sub-stack of n >= 256
    unitaries, which only d <= 8 allows, is drawn as Householder products
    into a new C-contiguous (d, d, n) array; a smaller one is the phase-fixed
    QR of Ginibre matrices (Mezzadri 2007), handed out as a stack-last view
    of LAPACK's own (n, d, d) array. Every sub-stack taken is its own array;
    the Householder ones of one stack share one normals buffer and one set of
    kernel work arrays, and the generator holds nothing of a sub-stack it has
    handed out.
    """
    check_count("dimension", d, 1)
    check_count("size", size, 0)
    return _sub_stacks(d, gen, size)


def _sub_stacks(d: int, gen: np.random.Generator, size: int):
    """The sub-stacks of ``haar_blocks``, each from one draw of real parts,
    then one of imaginary parts: d(d+1)/2 rows of n when n >= 256, else n
    d x d ones. The Householder buffers are made for the first sub-stack,
    which is the largest, and cut down for a smaller remainder."""
    step = _block_rows(d)
    rows = d * (d + 1) // 2
    normals = work = None
    for start in range(0, size, step):
        n = min(step, size - start)
        if n < _HOUSEHOLDER_MIN_SIZE:
            shape = (n, d, d)
            yield _phase_fixed_qr(gen.standard_normal(shape),
                                  gen.standard_normal(shape)).transpose(1, 2, 0)
            continue
        if normals is None:
            normals, work = np.empty((2, rows * n)), _householder_work(d, n)
        re, im = normals[:, :rows * n].reshape(2, rows, n)
        gen.standard_normal(out=re)
        gen.standard_normal(out=im)
        yield _householder(re, im, work)


def haar_unitary(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-random unitary over C^d: one matrix, or with ``size`` set a
    C-contiguous (size, d, d) stack, drawn as the sub-stacks of
    ``haar_blocks``. A stack that fits in one QR sub-stack, as every
    ``basic_certify`` chunk does, is LAPACK's own array, without a copy; a
    single Householder sub-stack is copied once out of its stack-last
    layout. A longer stack, which no caller in the library draws, is filled
    in sub-stack by sub-stack, so it needs the result plus one sub-stack and
    the Householder work arrays.
    """
    draws = 1 if size is None else size
    blocks = haar_blocks(d, rng, draws)
    step = _block_rows(d)
    if draws <= step:
        u = np.ascontiguousarray(next(blocks, np.empty((d, d, 0), dtype=complex))
                                 .transpose(2, 0, 1))
    else:
        u = np.empty((size, d, d), dtype=complex)
        for start in range(0, size, step):  # no sub-stack is kept while the next is drawn
            u[start:start + step] = next(blocks).transpose(2, 0, 1)
    return u[0] if size is None else u


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """The first ``cols`` columns of a Haar unitary over C^rows."""
    if cols > rows or cols < 1:
        raise ValidationError(f"need rows >= cols >= 1, got rows={rows}, cols={cols}")
    return haar_unitary(rows, rng)[:, :cols]


def haar_draws(dims, rng: np.random.Generator, size: int) -> list[np.ndarray]:
    """``size`` draws of one Haar unitary per dimension k of ``dims``, in turn,
    as one (size, k, k) stack per entry of ``dims``: bit for bit the unitaries
    that ``haar_unitary(k, rng)`` calls for each k of ``dims``, made ``size``
    times over, would return, and the generator is left where they leave it.

    The normals are one ``standard_normal`` call laid out draw by draw, each
    unitary's real parts, then its imaginary parts, and each block size takes
    one phase-fixed QR over all its unitaries.
    """
    check_count("size", size, 0)
    for k in dims:
        check_count("dimension", k, 1)
    widths = [2 * k * k for k in dims]
    starts = np.cumsum([0] + widths[:-1])
    normals = rng.standard_normal((size, sum(widths)))
    out = [None] * len(dims)
    for k in set(dims):
        at = [i for i, other in enumerate(dims) if other == k]
        parts = np.stack([normals[:, s:s + 2 * k * k] for s in starts[at]], axis=1)
        parts = parts.reshape(-1, 2, k, k)
        q = _phase_fixed_qr(parts[:, 0], parts[:, 1]).reshape(size, len(at), k, k)
        for n, i in enumerate(at):
            out[i] = q[:, n]
    return out


def block_haar(buckets, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Block-diagonal unitary with an independent Haar block per bucket, or
    with ``size`` set a (size, d, d) stack of them, each bit for bit what
    ``size`` calls in a row would return (``haar_draws``).

    Within a bucket of size d_j > 1 the block is a Haar unitary on the first
    2*floor(d_j/2) coordinates (a trailing odd coordinate is left fixed);
    size-1 buckets get the identity. Coordinates outside every bucket (zero
    spectrum entries) are also fixed.
    """
    d, draws = buckets.ambient_dim, 1 if size is None else size
    check_count("size", draws, 0)
    active = [idx[:2 * (len(idx) // 2)] for idx in map(buckets.indices, buckets.levels)
              if len(idx) > 1]
    u = np.tile(np.eye(d, dtype=complex), (draws, 1, 1))
    for idx, q in zip(active, haar_draws([len(idx) for idx in active], rng, draws)):
        u[:, idx[:, None], idx] = q
    return u[0] if size is None else u
