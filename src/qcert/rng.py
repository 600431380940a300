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


def ginibre(d: int, rng, size: int | None = None) -> np.ndarray:
    """Complex Ginibre matrix/matrices with i.i.d. standard complex Gaussians."""
    gen = as_generator(rng)
    shape = (d, d) if size is None else (size, d, d)
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2)


def haar_unitary(d: int, rng, size: int | None = None) -> np.ndarray:
    """Haar-random unitary over C^d via phase-fixed QR of a Ginibre matrix.

    With ``size`` set, returns a stacked array of shape (size, d, d): one
    Ginibre stack (all real parts, then all imaginary parts) through one QR.
    """
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    q, r = np.linalg.qr(ginibre(d, rng, size))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = diag / np.abs(diag)
    return q * phases[..., None, :]


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

