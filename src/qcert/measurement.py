"""Rank-1 basis measurements, copy-budgeted measurement sources, and likelihood-ratio quantities."""

from __future__ import annotations

import numpy as np

from .linalg import DensityMatrix, ValidationError, _mat, diagonal_entries

PROB_FLOOR = 1e-15


class BudgetExhaustedError(RuntimeError):
    """The copy source has no copies left; certifiers surface this as inconclusive."""


class UndefinedOutcomeError(ValueError):
    """Likelihood ratio requested at an outcome with vanishing null probability."""


class Basis:
    """Rank-1 measurement in the orthonormal basis of a unitary's columns.

    Held as the unitary itself, so the Born weights of a k x k block cost
    O(k^2) memory where the equivalent dense POVM {|u_z><u_z|} costs O(k^3).
    Outcome z is the z-th column. ``u`` may also be an (r, k, k) stack of
    unitaries, i.e. r bases measured in r independent rounds, or a
    nonadaptive schedule of one basis per copy: unitarity is checked for the
    whole stack and ``weights`` returns one row per basis, bitwise equal to
    the weights of that basis held alone. The stack may be empty. A unitary
    the library drew itself skips the check through ``Basis.trusted``.
    """

    __slots__ = ("u", "dim", "_sq")

    def __init__(self, u):
        mat = np.asarray(u, dtype=complex)
        if mat.ndim not in (2, 3) or mat.shape[-2] != mat.shape[-1]:
            raise ValidationError(f"expected a square matrix or a stack of them, got {mat.shape}")
        gram = np.swapaxes(mat.conj(), -2, -1) @ mat
        gram -= np.eye(mat.shape[-1])
        if np.abs(gram).max(initial=0.0) > 1e-10:  # an empty stack passes
            raise ValidationError("matrix is not unitary within 1e-10")
        self.u, self.dim, self._sq = mat, mat.shape[-1], None

    @classmethod
    def trusted(cls, u: np.ndarray) -> "Basis":
        """The basis of a complex unitary, or stack, that the library's own Haar
        sampler drew: unitary by construction, so U^dag U is not formed."""
        m = cls.__new__(cls)
        m.u, m.dim, m._sq = u, u.shape[-1], None  # _sq: |U|^2, set on the first diagonal block
        return m

    def weights(self, block: np.ndarray) -> np.ndarray:
        """Unvalidated Born weights <u_z| block |u_z>, one row per basis of a
        stack. A dim x dim matrix takes the O(k^3) kernel
        Re sum_rows conj(U) * (block U); the real diagonal of a diagonal one
        takes the O(k^2) kernel (|U|^2)^T diag, |U|^2 computed once per
        basis. Which form a matrix takes is decided once, by ``_block``,
        where it enters: here only the number of axes is read."""
        if block.ndim == 2:
            return np.real(np.sum(self.u.conj() * (block @ self.u), axis=-2))
        if self._sq is None:
            self._sq = self.u.real**2 + self.u.imag**2
        return np.sum(self._sq * block[:, None], axis=-2)


def _block(mat: np.ndarray) -> np.ndarray:
    """``mat`` in the form ``Basis.weights`` measures: its real diagonal when
    no off-diagonal entry is nonzero, else ``mat`` itself. A caller that
    measures one block many times reads it once."""
    diag = diagonal_entries(mat)
    return mat if diag is None else diag


def _state_block(rho) -> np.ndarray:
    """``_block`` of a state; a ``DensityMatrix`` was read when it was built."""
    if isinstance(rho, DensityMatrix):
        return rho.mat if rho.diagonal_entries is None else rho.diagonal_entries
    return _block(_mat(rho))


def _weights(block: np.ndarray, m: Basis, total: float = 1.0) -> np.ndarray:
    """Born weights of a block read by ``_block`` under ``m``, validated as
    nonnegative within 1e-9 and as summing to ``total`` within 1e-9 (every
    row of a stack)."""
    if block.shape[0] != m.dim:
        raise ValidationError(f"state dim {block.shape[0]} != basis dim {m.dim}")
    p = m.weights(block)
    off = np.abs(p.sum(axis=-1) - total).max(initial=0.0)
    if p.min(initial=0.0) < -1e-9 or off > 1e-9:
        raise ValidationError(
            f"invalid outcome distribution (min {p.min():.2e}, sum off {total:.6g} by {off:.2e})"
        )
    return p


def outcome_distribution(rho, m: Basis) -> np.ndarray:
    """Born-rule outcome probabilities <u_z| rho |u_z>; one row per basis of a stack."""
    return _weights(_state_block(rho), m)


def sampling_probs(p: np.ndarray) -> np.ndarray:
    """Outcome weights clipped at 0 and normalised for a multinomial draw: one
    row, or every row of an (r, k) stack in one pass, each row bit for bit as
    it would be alone."""
    q = np.clip(p, 0.0, None)
    return q / q.sum(axis=-1, keepdims=True)


class CopySource:
    """Budget-tracked oracle yielding measurement outcomes on fresh copies.

    A measurement takes two steps that need not interleave: ``charge`` pays
    for batches of accepted copies, discards included, and ``law`` reads the
    outcome weights of the measured block, which a caller turns into counts
    with one multinomial draw per batch. A tester running many rounds charges
    them all at once and computes the law of a stacked ``Basis`` once per chunk.
    Exceeding the budget raises :class:`BudgetExhaustedError`. ``conditional``
    and ``rotated`` return views that share this source's counter and budget.
    ``acceptance`` is the probability that a copy is accepted: exactly 1 on a
    full source, Tr(Pi rho Pi) on a conditional view, set once per view.
    """

    def __init__(self, state: DensityMatrix, budget: int | None = None):
        self.state = state
        self.budget = budget
        self.acceptance = 1.0
        self._root = self
        self._indices = None  # conditioning subset of a conditional view
        self._block = None  # the measured block, read by _block on the first law
        self._copies = 0

    def _view(self, state: DensityMatrix, indices) -> "CopySource":
        view = CopySource(state, self.budget)
        view._root = self._root
        view._indices = indices
        if indices is not None:
            view.acceptance = float(state.mat[indices, indices].real.sum())
        return view

    def conditional(self, indices) -> "CopySource":
        """View measuring the conditional state Pi rho Pi / Tr(Pi rho Pi).

        Pi projects onto the coordinates ``indices`` of the full state. Each
        copy is first measured with {Pi, I - Pi}; copies landing outside are
        discarded, and every physical copy, discards included, is charged.
        """
        idx = np.asarray(indices, dtype=int)
        if idx.size == 0:
            raise ValidationError("conditional subset must be nonempty")
        if idx.min() < 0 or idx.max() >= self.state.dim:
            raise ValidationError(f"conditional subset must lie in 0..{self.state.dim - 1}")
        return self._view(self.state, idx)

    def rotated(self, v: np.ndarray) -> "CopySource":
        """View of the state V^dagger rho V: measuring M on it measures V M V^dagger on rho."""
        return self._view(DensityMatrix(v.conj().T @ self.state.mat @ v), self._indices)

    @property
    def dim(self) -> int:
        return self.state.dim if self._indices is None else int(self._indices.size)

    @property
    def copies_used(self) -> int:
        return self._root._copies

    def _charge(self, n: int):
        root = self._root
        if root.budget is not None and root._copies + n > root.budget:
            raise BudgetExhaustedError(
                f"budget {root.budget} exhausted (used {root._copies}, requested {n})"
            )
        root._copies += n

    def law(self, m: Basis) -> np.ndarray:
        """Outcome weights of ``m`` on the measured block, one row per basis of
        a stacked ``Basis``; every row sums to ``acceptance`` within 1e-9.

        On a full source the weights are the outcome law. On a conditional
        view they are the Born weights of the block rho[S, S], and the law of
        an accepted copy is a row divided by its sum. The block is gathered
        and checked for off-diagonal entries on the first call only. Nothing
        is charged.
        """
        if self._block is None:
            block, idx = _state_block(self.state), self._indices
            if idx is not None:  # a diagonal state's block is its diagonal's entries
                block = block[idx] if block.ndim == 1 else _block(block[np.ix_(idx, idx)])
            self._block = block
        return _weights(self._block, m, self.acceptance)

    def charge(self, n: int, batches: int, rng: np.random.Generator) -> None:
        """Charge ``batches`` batches of n accepted copies each, in order.

        The discards before each batch's n accepted copies are drawn first,
        for all batches at once, as one ``negative_binomial(n, acceptance,
        size=batches)`` call; an acceptance within 1e-12 of 1, as on every
        full source, draws nothing. Then batch after batch is charged n plus
        its discards, in exact integer arithmetic, until the budget cannot
        pay for the next one, which raises :class:`BudgetExhaustedError` with
        the earlier batches charged. Zero acceptance, or discards beyond the
        int64 range of numpy's sampler, raise it before anything is charged.
        """
        if self.acceptance <= 0:
            raise BudgetExhaustedError("conditional acceptance probability is zero")
        discards = [0] * batches
        if self.acceptance < 1.0 - 1e-12:
            try:
                discards = rng.negative_binomial(n, self.acceptance, size=batches).tolist()
            except ValueError as err:  # n (1 - accept) / accept too large for int64
                raise BudgetExhaustedError(
                    f"discards for {n} copies at acceptance {self.acceptance:.3e} exceed int64"
                ) from err
        for k in discards:
            self._charge(n + k)


def phi_table(m: Basis, rho, states) -> np.ndarray:
    """phi(u, v) = sum_z p0(z) g_u(z) g_v(z), g_u = p_u / p0 - 1, the correlation
    of likelihood deviations under the null law p0 of one basis ``m``, for every
    ordered pair of ``states`` (read once), as a (K, K) array: the null law and
    each state's weights are computed once.

    Outcomes with vanishing null probability are dropped when every state
    also vanishes there; otherwise the ratio is infinite and an error is
    raised. Each entry sums its outcomes in order, as a scalar loop would.
    """
    p0 = outcome_distribution(rho, m)
    w = np.array([m.weights(_state_block(s)) for s in states]).reshape(-1, p0.size)
    table = np.zeros((len(w), len(w)))
    for z in range(p0.size):
        if p0[z] <= PROB_FLOOR:
            if (w[:, z] > 1e-12).any():
                raise UndefinedOutcomeError(
                    f"outcome {z} has null probability ~0 but alternative mass"
                )
            continue
        g = w[:, z] / p0[z] - 1.0
        table += p0[z] * g[:, None] * g[None, :]
    return table
