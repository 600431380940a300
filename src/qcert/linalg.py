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
    dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    if dev > tol:
        raise ValidationError(f"matrix is not Hermitian: max |A - A^dag| = {dev:.3e} > {tol:.1e}")
    return hermitian_part(m)


class DensityMatrix:
    """A d x d Hermitian PSD matrix with unit trace.

    The constructor validates hermiticity (1e-12), trace (1e-9) and the
    minimum eigenvalue (>= -1e-9), and stores the symmetrized matrix.
    """

    __slots__ = ("mat", "dim")

    def __init__(self, mat):
        m = check_hermitian(mat)
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace = {tr!r}, not 1 within {TRACE_TOL:.1e}")
        lam_min = np.linalg.eigvalsh(m)[0]
        if lam_min < -PSD_TOL:
            raise ValidationError(f"minimum eigenvalue {lam_min:.3e} < -{PSD_TOL:.1e}")
        self.mat = m
        self.dim = m.shape[0]

    @classmethod
    def from_diagonal(cls, lambdas) -> "DensityMatrix":
        return cls(np.diag(np.asarray(lambdas, dtype=float).astype(complex)))

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


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(_mat(a)))


def trace_norm(a) -> float:
    """Schatten-1 norm of a Hermitian matrix: sum of |eigenvalues|."""
    lam = np.linalg.eigvalsh(check_hermitian(a))
    return float(np.abs(lam).sum())


def trace_distance(a, b) -> float:
    """||a - b||_1, the full (unhalved) trace norm of the difference."""
    ma, mb = _mat(a), _mat(b)
    if ma.shape != mb.shape:
        raise ValidationError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return trace_norm(ma - mb)


def schatten_quasinorm(h, p: float) -> float:
    """Schatten-p (quasi)norm (sum |lam_i|^p)^(1/p) of a Hermitian matrix."""
    if p <= 0:
        raise ValidationError(f"p must be positive, got {p}")
    lam = np.abs(np.linalg.eigvalsh(check_hermitian(h)))
    total = float((lam**p).sum())
    return total ** (1.0 / p)


def fidelity_mm(sigma: DensityMatrix) -> float:
    """Fidelity with the maximally mixed state, (Tr sqrt(sigma))^2 / d."""
    m = _mat(sigma)
    lam = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    return float(np.sqrt(lam).sum() ** 2 / m.shape[0])


def is_psd(h, tol: float = PSD_TOL) -> bool:
    """True iff the minimum eigenvalue is >= -tol."""
    lam_min = np.linalg.eigvalsh(check_hermitian(h))[0]
    return bool(lam_min >= -tol)


def schur_psd_check(a, b, c, tol: float = PSD_TOL) -> bool:
    """Positivity of the block matrix [[A, B], [B^dag, C]] via the Schur complement.

    A and C must be square positive definite; raises on singular A.
    """
    ma, mb, mc = np.asarray(a, complex), np.asarray(b, complex), np.asarray(c, complex)
    ma = check_hermitian(ma)
    mc = check_hermitian(mc)
    if np.linalg.eigvalsh(ma)[0] <= 0:
        raise ValidationError("block A must be positive definite")
    try:
        x = np.linalg.solve(ma, mb)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("block A is singular") from exc
    schur = mc - mb.conj().T @ x
    return is_psd(schur, tol)


def assemble_block(a, b, c) -> np.ndarray:
    """Assemble [[A, B], [B^dag, C]] into one Hermitian matrix."""
    ma, mb, mc = np.asarray(a, complex), np.asarray(b, complex), np.asarray(c, complex)
    top = np.hstack([ma, mb])
    bot = np.hstack([mb.conj().T, mc])
    return np.vstack([top, bot])
