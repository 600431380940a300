"""Dense complex Hermitian linear algebra.

Matrices are plain ``numpy`` arrays of complex128. ``DensityMatrix`` is a
thin validated wrapper used wherever a quantum state is passed around; all
other operations accept raw arrays (or a ``DensityMatrix``, which is
unwrapped transparently).
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
PSD_TOL = 1e-9


class ValidationError(ValueError):
    """Input violates a structural precondition (shape, symmetry, trace...)."""


class EigenConvergenceError(RuntimeError):
    """The iterative eigensolver did not converge within its sweep cap."""


def _mat(a) -> np.ndarray:
    """Unwrap DensityMatrix or coerce to a complex square array."""
    if isinstance(a, DensityMatrix):
        return a.mat
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitian_part(a) -> np.ndarray:
    """Return (A + A^dagger)/2."""
    m = _mat(a)
    return (m + m.conj().T) / 2


def check_hermitian(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate hermiticity entrywise, then symmetrize to absorb roundoff."""
    m = _mat(a)
    adj = m.conj().T
    dev = np.abs(m - adj).max() if m.size else 0.0
    if dev > tol:
        raise ValidationError(f"matrix is not Hermitian: max |A - A^dag| = {dev:.3e} > {tol:.1e}")
    # hermitian_part(m), with the adjoint formed once
    return (m + adj) / 2


def diagonal_entries(m: np.ndarray) -> np.ndarray | None:
    """The real diagonal of a square matrix with no nonzero off-diagonal
    entry, else None. A dense matrix shows itself in its first row, which is
    checked before the whole matrix is counted."""
    diag = np.diagonal(m)
    if m[:1, 1:].any() or np.count_nonzero(m) != np.count_nonzero(diag):
        return None
    return diag.real.copy()


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValidationError("entries must be finite (no nan or inf)")


def _check_trace(tr) -> None:
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"trace = {float(tr)!r}, not 1 within {TRACE_TOL:.1e}")


def _check_least_eigenvalue(lam_min) -> None:
    if lam_min < -PSD_TOL:
        raise ValidationError(f"minimum eigenvalue {lam_min:.3e} < -{PSD_TOL:.1e}")


class DensityMatrix:
    """A d x d Hermitian PSD matrix with unit trace.

    The constructor validates that every entry is finite, then hermiticity
    (1e-12), trace (1e-9) and the minimum eigenvalue (>= -1e-9), and stores
    the symmetrized matrix. ``diagonal_entries`` holds its real diagonal when
    no off-diagonal entry is nonzero, else None, decided once when built, so
    measuring the state never scans it again.
    """

    __slots__ = ("mat", "dim", "diagonal_entries")

    def __init__(self, mat):
        m = _mat(mat)
        _check_finite(m)
        m = check_hermitian(m)
        _check_trace(np.trace(m).real)
        _check_least_eigenvalue(np.linalg.eigvalsh(m)[0])
        self._set(m)

    def _set(self, m: np.ndarray) -> None:
        self.mat = m
        self.dim = m.shape[0]
        self.diagonal_entries = diagonal_entries(m)

    @classmethod
    def trusted(cls, mat) -> "DensityMatrix":
        """The state the constructor would store for ``mat``, which the caller
        built as a unit-trace PSD matrix: symmetrized, with nothing checked."""
        m = cls.__new__(cls)
        m._set(hermitian_part(mat))
        return m

    @classmethod
    def from_diagonal(cls, lambdas) -> "DensityMatrix":
        """The state diag(lambdas), checked as the constructor checks it and
        stored as it stores it, without an eigensolve: the least eigenvalue
        of a diagonal matrix is its least entry."""
        lam = np.asarray(lambdas, dtype=float)
        if lam.ndim != 1:
            raise ValidationError(f"expected a vector of diagonal entries, got shape {lam.shape}")
        _check_finite(lam)
        lam = lam + 0.0  # -0.0 to +0.0, as the constructor's symmetrizing stores it
        m = np.diag(lam.astype(complex))
        _check_trace(np.trace(m).real)
        _check_least_eigenvalue(lam.min())
        state = cls.__new__(cls)
        state.mat, state.dim, state.diagonal_entries = m, lam.size, lam
        return state

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityMatrix":
        return cls(np.eye(d, dtype=complex) / d)

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.mat)).copy()

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix V) with
    H = V diag(lam) V^dagger and V unitary.
    """
    m = check_hermitian(h)
    try:
        lam, vec = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenConvergenceError(
            f"Hermitian eigensolver did not converge within the LAPACK iteration cap: {exc}"
        ) from exc
    return lam, vec


def trace_distance(a, b) -> float:
    """||a - b||_1, the full (unhalved) trace norm of the difference: the sum
    of the |eigenvalues| of the Hermitian matrix a - b."""
    ma, mb = _mat(a), _mat(b)
    if ma.shape != mb.shape:
        raise ValidationError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return float(np.abs(np.linalg.eigvalsh(check_hermitian(ma - mb))).sum())


def spectral_quasinorm(lam: np.ndarray, p: float) -> float:
    """The Schatten-p (quasi)norm (sum |lam_i|^p)^(1/p) of a Hermitian matrix
    from its eigenvalues, summed in their order."""
    if p <= 0:
        raise ValidationError(f"p must be positive, got {p}")
    return float((np.abs(lam) ** p).sum()) ** (1.0 / p)


def fidelity_mm(sigma: DensityMatrix) -> float:
    """Fidelity with the maximally mixed state, (Tr sqrt(sigma))^2 / d."""
    return spectral_fidelity_mm(np.linalg.eigvalsh(_mat(sigma)))


def spectral_fidelity_mm(lam: np.ndarray) -> float:
    """``fidelity_mm`` from eigenvalues, summed in their order (ascending: bit for bit)."""
    return float(np.sqrt(np.clip(lam, 0.0, None)).sum() ** 2 / len(lam))
