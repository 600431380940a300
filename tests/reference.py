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
``scalar_phi`` is phi's per-pair loop, which ``phi_table`` must reproduce bit
for bit. ``per_state_divergence`` folds an ensemble one state at a time, each
state's transcript law built copy by copy with ``np.outer``, as
``exact_transcript_divergence`` once did; its stacked fold must give the same
report bit for bit. ``block_haar_draw``, ``paninski_draw`` and
``haar_schedule_draw`` make one draw at a time, one ``haar_unitary`` per block,
as the library once did; its stacked draws must equal them byte for byte.
``weingarten_values``, ``haar_moment`` and ``ez2_exact`` rebuild the S_k class
data on every call, as the exact oracles once did; the oracles' once-per-order
tables must give their values bit for bit. ``moment_sums`` measures each Haar
sub-stack as a C-contiguous (n, d, d) ``Basis``, as ``verify_moments_basic``
once did; its stack-last sums must match it, bit for bit for a diagonal M.
"""

import math
from collections import Counter

import numpy as np

from qcert import cli
from qcert.certify import CertifyConfig
from qcert.haar_oracle import (DivergenceReport, _character, _hooks_and_contents, _partitions,
                               transcript_count)
from qcert.linalg import (PSD_TOL, DensityMatrix, ValidationError, _mat, block_form,
                          check_hermitian, hermitian_part)
from qcert.measurement import (PROB_FLOOR, Basis, CopySource, UndefinedOutcomeError,
                               outcome_distribution)
from qcert.rng import RngHandle, haar_blocks, haar_unitary
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

    def weights(self, block: np.ndarray, stacked: bool = False) -> np.ndarray:
        """Unvalidated Born weights <M_z, block> of a dim x dim matrix, or of
        a diagonal one given as its real diagonal; with ``stacked``, one row
        per block of a stack."""
        if stacked:
            return np.array([self.weights(b) for b in block])
        if block.ndim == 1:
            block = np.diag(block)
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


def scalar_phi(m, rho, rho_u, rho_v) -> float:
    """phi of one state pair as a loop over outcomes, every law computed
    afresh: the rule that ``phi_table`` runs over all pairs at once."""
    p0 = outcome_distribution(rho, m)
    pu = m.weights(block_form(_mat(rho_u)))
    pv = m.weights(block_form(_mat(rho_v)))
    total = 0.0
    for z in range(p0.size):
        if p0[z] <= PROB_FLOOR:
            if pu[z] > 1e-12 or pv[z] > 1e-12:
                raise UndefinedOutcomeError(f"outcome {z}")
            continue
        gu = pu[z] / p0[z] - 1.0
        gv = pv[z] / p0[z] - 1.0
        total += p0[z] * gu * gv
    return float(total)


def block_haar_draw(buckets, gen) -> np.ndarray:
    """One block-Haar unitary: a ``haar_unitary`` per bucket of at least two,
    in level order, on the bucket's leading 2*floor(d_j/2) coordinates."""
    u = np.eye(buckets.ambient_dim, dtype=complex)
    for j in buckets.levels:
        idx = buckets.indices(j)
        k = 2 * (len(idx) // 2)
        if k >= 2:
            u[np.ix_(idx[:k], idx[:k])] = haar_unitary(k, gen)
    return u


def paninski_draw(sigma, inst, gen) -> DensityMatrix:
    """One Paninski state sigma + U^dag E U from ``block_haar_draw``."""
    diag = np.zeros(sigma.dim)
    for j, e in inst.eps_per_bucket.items():
        idx = inst.buckets.indices(j)
        half = len(idx) // 2
        diag[idx[:half]], diag[idx[half:2 * half]] = e, -e
    u = block_haar_draw(inst.buckets, gen)
    return DensityMatrix.trusted(sigma.mat + u.conj().T @ np.diag(diag).astype(complex) @ u)


def haar_schedule_draw(d: int, copies: int, gen) -> np.ndarray:
    """``copies`` Haar bases, one ``haar_unitary`` after another."""
    return np.array([haar_unitary(d, gen) for _ in range(copies)]).reshape(copies, d, d)


def moment_sums(m, samples: int, gen) -> tuple[float, float, float]:
    """The sums of Z, Z^2 and Z^4 over ``samples`` Haar unitaries, Z the sum
    of the squared Born weights of M's ``block_form``: each sub-stack of
    ``haar_blocks`` copied to (n, d, d) and weighed by ``Basis.weights``."""
    mat = check_hermitian(m)
    block = block_form(mat)
    z_sum = z2_sum = z4_sum = 0.0
    for q in haar_blocks(mat.shape[0], gen, samples):
        q = np.ascontiguousarray(q.transpose(2, 0, 1))
        z = (Basis.trusted(q).weights(block) ** 2).sum(axis=1)
        z_sum += z.sum()
        z2_sum += (z**2).sum()
        z4_sum += (z**4).sum()
    return z_sum, z2_sum, z4_sum


def product_distribution(state, schedule) -> np.ndarray:
    """Law of the whole transcript of one state, first copy major: its stacked
    outcome law, folded copy by copy."""
    out = np.ones(1)
    for row in outcome_distribution(state, schedule):
        out = np.outer(out, row).ravel()
    return out


def per_state_divergence(sigma, ensemble, schedule) -> DivergenceReport:
    """TV / chi-squared / KL between sigma and the mixture of ``ensemble``
    under a schedule, each state's transcript law built and added on its own."""
    size = transcript_count(schedule.dim, schedule.u.shape[0])
    p0 = product_distribution(sigma, schedule)
    p1 = np.zeros_like(p0)
    count = 0
    for state in ensemble:
        p1 += product_distribution(state, schedule)
        count += 1
    p1 /= count
    tv = float(np.abs(p1 - p0).sum() / 2)
    pos = p0 > 0
    if ((~pos) & (p1 > 1e-15)).any():
        chi2 = kl = math.inf
    else:
        chi2 = float(((p1[pos] - p0[pos]) ** 2 / p0[pos]).sum())
        mask = pos & (p1 > 0)
        kl = float((p1[mask] * np.log(p1[mask] / p0[mask])).sum())
    ratios = p1[pos] / p0[pos]
    return DivergenceReport(tv=tv, chi2=chi2, kl=kl, num_transcripts=int(size),
                            min_likelihood_ratio=float(ratios.min()) if ratios.size else 1.0)


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


def character_table(k: int) -> np.ndarray:
    parts = _partitions(k)
    return np.array([[_character(lam, mu) for mu in parts] for lam in parts], dtype=np.int64)


def dimension(lam: tuple[int, ...]) -> int:
    """chi_lam(1) = k! / prod of the hook lengths."""
    return math.factorial(sum(lam)) // math.prod(h for h, _ in _hooks_and_contents(lam))


def content_product(lam: tuple[int, ...], d: int) -> int:
    """prod over the cells of lam of (d + content)."""
    return math.prod(d + c for _, c in _hooks_and_contents(lam))


def centralizer(mu: tuple[int, ...]) -> int:
    """z_mu = prod_i i^{m_i} m_i!, where m_i counts the parts of mu equal to i."""
    return math.prod(i**m * math.factorial(m) for i, m in Counter(mu).items())


def schur(mat: np.ndarray, order: int) -> np.ndarray:
    """s_lam(M) for lam in _partitions(order), with p_i = Tr(M^i) from M^0 = I."""
    acc = np.eye(mat.shape[0], dtype=complex)
    p = []
    for _ in range(order):
        acc = acc @ mat
        p.append(float(np.trace(acc).real))
    parts = _partitions(order)
    p_mu = np.array([math.prod(p[c - 1] for c in mu) for mu in parts])
    z = np.array([centralizer(mu) for mu in parts], dtype=float)
    return character_table(order) @ (p_mu / z)


def weingarten_values(order: int, d: int) -> dict[tuple[int, ...], float]:
    """Wg(mu, d) for every cycle type mu of S_order, over a common integer denominator."""
    parts = _partitions(order)
    chi = character_table(order)
    products = [content_product(lam, d) for lam in parts]
    common = math.lcm(*products)
    weights = [dimension(lam) * (common // prod) for lam, prod in zip(parts, products)]
    denominator = math.factorial(order) * common
    return {mu: sum(w * int(chi[i, j]) for i, w in enumerate(weights)) / denominator
            for j, mu in enumerate(parts)}


def haar_moment(a, b, order: int) -> float:
    """E_U[Tr(A U^dag B U)^order] = sum_lam chi_lam(1) s_lam(A) s_lam(B) / s_lam(1^d)."""
    ma, mb = check_hermitian(a), check_hermitian(b)
    d = ma.shape[0]
    weight = np.array([math.factorial(order) / content_product(lam, d)
                       for lam in _partitions(order)])
    return float(np.sum(weight * schur(ma, order) * schur(mb, order)))


def ez2_exact(mat: np.ndarray, d: int) -> float:
    """E[Z^2] = d E[x_1^4] + d (d-1) E[x_1^2 x_2^2] from the characters of S_4."""
    parts = _partitions(4)
    coef = schur(mat, 4) / np.array([content_product(lam, d) for lam in parts], dtype=float)
    f = dict(zip(parts, coef @ character_table(4)))
    e4 = 24 * coef[0]
    e22 = f[(1, 1, 1, 1)] + 2 * f[(2, 1, 1)] + f[(2, 2)]
    return float(d * e4 + d * (d - 1) * e22)
