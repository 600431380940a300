"""Reference code that the tests check the program against.

The program measures only rank-1 bases held as unitaries (``Basis``). The
dense POVM here, with its restriction to bucket blocks, is the textbook form
those bases are checked against; ``outcome_distribution`` and ``phi`` read
only ``.dim`` and ``.weights``, so a test may pass a ``Povm`` where they take
a ``Basis``. The Schur-complement positivity test (criterion 10), the corner
alternative's closed-form trace distance (criterion 03) and the audited
second-moment constants (criterion 10) are the facts the acceptance criteria
check. ``eager_success`` and ``eager_minimal_copies`` run every trial of every
sweep probe, the rule the program's early-stopping sweep must reproduce.
"""

import math

import numpy as np

from qcert import cli
from qcert.certify import CertifyConfig
from qcert.linalg import PSD_TOL, DensityMatrix, ValidationError, check_hermitian, hermitian_part
from qcert.measurement import CopySource
from qcert.rng import RngHandle
from qcert.spectrum import Spectrum

# Audited constants for the ensemble second-moment bounds. The bucketwise
# bound E_U[g^2] <= C * 2^(2j) eps_j^2 / d_j is provable with C = 4 (the
# sharper form has d_j + 1 in the denominator); the nominal C = 2 fails for
# rank-1 elements aligned with eigenvalues at the lower bucket edge. The
# off-diagonal bound uses the default audited constant.
PANINSKI_G2_CONSTANT = 4.0
OFFDIAG_G2_CONSTANT = 16.0


class Povm:
    """A finite POVM: PSD elements summing to the identity, validated at
    construction. ``labels`` defaults to 0..m-1."""

    def __init__(self, elements, labels=None):
        elems = np.asarray(elements, dtype=complex)
        if elems.ndim != 3 or elems.shape[1] != elems.shape[2]:
            raise ValidationError(f"elements must be a stack of square matrices, got {elems.shape}")
        self.elements = elems
        self.dim = elems.shape[1]
        self.labels = list(labels) if labels is not None else list(range(elems.shape[0]))
        if len(self.labels) != elems.shape[0]:
            raise ValidationError("one label per element required")
        total = elems.sum(axis=0)
        if np.abs(total - np.eye(self.dim)).max() > 1e-9:
            raise ValidationError("POVM elements do not sum to the identity within 1e-9")
        for k, e in enumerate(elems):
            herm = hermitian_part(e)
            if np.abs(e - herm).max() > 1e-9:
                raise ValidationError(f"element {k} is not Hermitian")
            if np.linalg.eigvalsh(herm)[0] < -PSD_TOL:
                raise ValidationError(f"element {k} is not PSD within {PSD_TOL:.0e}")

    def __len__(self):
        return self.elements.shape[0]

    def weights(self, block: np.ndarray) -> np.ndarray:
        """Unvalidated Born weights <M_z, block> of a dim x dim matrix."""
        return np.einsum("zij,ji->z", self.elements, block).real


def dense_basis_povm(u) -> Povm:
    """Dense (d, d, d) rank-1 POVM {|u_z><u_z|} from the columns of a unitary."""
    cols = np.asarray(u, dtype=complex).T  # row z is the z-th column
    return Povm(np.einsum("zi,zj->zij", cols, cols.conj()))


def random_povm(d: int, outcomes: int, gen) -> Povm:
    """A generic POVM from normalized random PSD parts."""
    parts = []
    for _ in range(outcomes):
        g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        parts.append(g @ g.conj().T)
    total = sum(parts)
    lam, vec = np.linalg.eigh(total)
    inv_sqrt = vec @ np.diag(lam**-0.5) @ vec.conj().T
    elems = np.stack([inv_sqrt @ p @ inv_sqrt for p in parts])
    return Povm(elems)


def project_povm_to_blocks(m: Povm, buckets):
    """Restrict every element to the bucket principal submatrices.

    Returns the refined POVM with elements Pi_j M_z Pi_j (plus a residual
    pseudo-bucket covering coordinates outside every bucket) and the outcome
    map sending refined labels (j, z) back to z. For block-diagonal states
    the pushforward of the refined outcome distribution equals the original.
    """
    d = m.dim
    groups: list[tuple[object, np.ndarray]] = []
    covered = np.zeros(d, dtype=bool)
    for j in buckets.levels:
        idx = buckets.indices(j)
        covered[idx] = True
        groups.append((j, idx))
    rest = np.flatnonzero(~covered)
    if rest.size:
        groups.append(("rest", rest))

    elements, labels, outcome_map = [], [], {}
    for j, idx in groups:
        sub = np.zeros((len(m), d, d), dtype=complex)
        sub[:, idx[:, None], idx[None, :]] = m.elements[:, idx[:, None], idx[None, :]]
        for z, e in enumerate(sub):
            if np.abs(e).max() == 0.0:
                continue
            label = (j, m.labels[z])
            elements.append(e)
            labels.append(label)
            outcome_map[label] = m.labels[z]
    return Povm(np.stack(elements), labels), outcome_map


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


def corner_trace_distance(eps: float) -> float:
    """Closed form ||sigma - sigma^u||_1 = 2 sqrt(eps^4/16 + eps^2/4)."""
    return 2 * math.sqrt(eps**4 / 16 + eps**2 / 4)


def eager_success(d: int, eps: float, seed: int, trials: int, n_copies: int,
                  delta: float = 0.85) -> float:
    """min(right null verdicts, right alternative verdicts) / trials over all
    ``trials`` trials of one sweep probe. Calls go through ``cli.basic_certify``
    so a test can count them."""
    spec = Spectrum(np.full(d, 1.0 / d))
    sigma = DensityMatrix.from_diagonal(spec.lambdas)
    c_basic = n_copies * eps**2 / math.sqrt(d)
    while math.ceil(c_basic * math.sqrt(d) / eps**2) > n_copies:
        c_basic = math.nextafter(c_basic, 0.0)
    cfg = CertifyConfig(c_basic=c_basic)
    ok_null = ok_alt = 0
    for t in range(trials):
        handle = RngHandle(seed).child("sweep", d, n_copies, t)
        vn = cli.basic_certify(CopySource(sigma), sigma, eps, delta, cfg,
                               rng=handle.child("null"))
        ok_null += vn.answer == "YES"
        rho = cli.hidden_state("spike", spec, eps, handle.child("state"))
        va = cli.basic_certify(CopySource(rho), sigma, eps, delta, cfg,
                               rng=handle.child("alt"))
        ok_alt += va.answer == "NO"
    return min(ok_null, ok_alt) / trials


def eager_minimal_copies(d: int, eps: float, seed: int, trials: int, target: float,
                         delta: float = 0.85) -> int:
    """Doubling plus bisection over ``eager_success`` probes."""
    def success(n_copies: int) -> float:
        return eager_success(d, eps, seed, trials, n_copies, delta)

    n = 16
    while success(n) < target:
        n *= 2
        if n > 10**7:
            raise ValidationError("sweep failed to reach the target success rate")
    lo, hi = n // 2, n
    for _ in range(8):
        mid = (lo + hi) // 2
        if mid == lo:
            break
        if success(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi
