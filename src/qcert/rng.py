"""Seedable randomness: derived streams and Haar unitaries.

Streams are identified by a 64-bit master seed plus a tuple of derived
labels; the same (seed, labels) always yields the same Philox sequence, on
any machine and under any parallel schedule.
"""

from __future__ import annotations

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


def as_generator(rng) -> np.random.Generator:
    """Accept an RngHandle or a ready numpy Generator."""
    if isinstance(rng, RngHandle):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ValidationError(f"expected RngHandle or numpy Generator, got {type(rng)!r}")


# Haar stacks are factored in sub-stacks of at most this many matrix entries
# (size * d * d), so the QR and its temporaries never span a whole stack.
_BLOCK_ENTRIES = 2**16
_INV_SQRT2 = 1 / np.sqrt(2)


def _complex_gaussian(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(re + 1j * im) / sqrt(2), bit for bit, written into one complex array."""
    z = np.empty(re.shape, dtype=complex)
    np.multiply(re, _INV_SQRT2, out=z.real)
    np.multiply(im, _INV_SQRT2, out=z.imag)
    return z


def ginibre(d: int, rng, size: int | None = None) -> np.ndarray:
    """Complex Ginibre matrix/matrices with i.i.d. standard complex Gaussians.

    All real parts are drawn first, then all imaginary parts, in one call.
    """
    gen = as_generator(rng)
    shape = (d, d) if size is None else (size, d, d)
    parts = gen.standard_normal((2,) + shape)
    return _complex_gaussian(parts[0], parts[1])


def _block_rows(d: int) -> int:
    """Unitaries per sub-stack of ``haar_blocks`` at dimension d."""
    return max(1, _BLOCK_ENTRIES // (d * d))


def haar_blocks(d: int, rng, size: int):
    """One stack of ``size`` Haar unitaries over C^d, as consecutive sub-stacks.

    The stream is that of one Ginibre stack: every real part is drawn here,
    in one (size, d, d) call, and each sub-stack's imaginary parts are drawn
    as the iterator reaches it. Each yielded sub-stack holds at most
    ``max(1, _BLOCK_ENTRIES // d**2)`` unitaries, each the phase-fixed QR
    (Mezzadri 2007) of its Ginibre matrix. Concatenated, the sub-stacks equal
    the one-shot stack bit for bit; only the real parts and one sub-stack
    are held at a time.
    """
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    gen = as_generator(rng)
    return _qr_blocks(gen.standard_normal((size, d, d)), gen)


def _qr_blocks(real: np.ndarray, gen: np.random.Generator):
    """The sub-stacks of ``haar_blocks`` over real parts already drawn."""
    step = _block_rows(real.shape[-1])
    for start in range(0, len(real), step):
        re = real[start:start + step]
        q, r = np.linalg.qr(_complex_gaussian(re, gen.standard_normal(re.shape)))
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        q *= (diag / np.abs(diag))[..., None, :]
        yield q


def haar_unitary(d: int, rng, size: int | None = None) -> np.ndarray:
    """Haar-random unitary over C^d via phase-fixed QR of a Ginibre matrix.

    With ``size`` set, returns a stacked array of shape (size, d, d): the
    sub-stacks of ``haar_blocks``, so all real parts are drawn first, then the
    imaginary parts. A stack that fits in one sub-stack, as every
    ``basic_certify`` chunk does, is that sub-stack itself, without a copy.
    """
    blocks = haar_blocks(d, rng, 1 if size is None else size)
    if size is None:
        return next(blocks)[0]
    if size <= _block_rows(d):
        return next(blocks, np.empty((0, d, d), dtype=complex))
    out = np.empty((size, d, d), dtype=complex)
    start = 0
    for block in blocks:
        out[start:start + len(block)] = block
        start += len(block)
    return out


def haar_isometry(rows: int, cols: int, rng) -> np.ndarray:
    """The first ``cols`` columns of a Haar unitary over C^rows."""
    if cols > rows or cols < 1:
        raise ValidationError(f"need rows >= cols >= 1, got rows={rows}, cols={cols}")
    return haar_unitary(rows, rng)[:, :cols]


def block_haar(buckets, rng) -> np.ndarray:
    """Block-diagonal unitary with an independent Haar block per bucket.

    Within a bucket of size d_j > 1 the block is a Haar unitary on the first
    2*floor(d_j/2) coordinates (a trailing odd coordinate is left fixed);
    size-1 buckets get the identity. Coordinates outside every bucket (zero
    spectrum entries) are also fixed.
    """
    gen = as_generator(rng)
    d = buckets.ambient_dim
    u = np.eye(d, dtype=complex)
    for j in buckets.levels:
        idx = buckets.indices(j)
        k = 2 * (len(idx) // 2)
        if k < 2:
            continue
        sub = haar_unitary(k, gen)
        active = idx[:k]
        u[np.ix_(active, active)] = sub
    return u

