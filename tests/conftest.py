"""Shared generators for seeded randomized tests."""

import numpy as np
import pytest
from hypothesis import settings

from qcert.linalg import DensityMatrix, hermitian_part
from qcert.measurement import Basis, sampling_probs
from qcert.rng import RngHandle


# Property tests replay the same examples on every run (derandomize) and carry
# no per-example deadline, whose wall-clock limit a loaded host would trip.
settings.register_profile("qcert", derandomize=True, deadline=None, database=None)
settings.load_profile("qcert")


@pytest.fixture
def handle():
    return RngHandle(20240817)


def rng_for(*labels) -> np.random.Generator:
    return RngHandle(20240817).child(*labels).generator()


def count_checked_bases(monkeypatch) -> list:
    """Record the shape of every ``Basis`` built through its checking
    constructor, which forms U^dag U; ``Basis.trusted`` is not recorded."""
    checked = []
    init = Basis.__init__

    def counting(self, u):
        checked.append(np.shape(u))
        init(self, u)

    monkeypatch.setattr(Basis, "__init__", counting)
    return checked


def measure(src, m, n: int, gen: np.random.Generator) -> np.ndarray:
    """n accepted outcomes of basis ``m`` on ``src``, as counts: its law, then
    one charged batch, then one multinomial draw, all from ``gen``."""
    p = src.law(m)
    src.charge(n, 1, gen)
    return gen.multinomial(n, sampling_probs(p))


def random_hermitian(d: int, gen: np.random.Generator) -> np.ndarray:
    g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    return hermitian_part(g)


def random_psd(d: int, gen: np.random.Generator) -> np.ndarray:
    g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    return g @ g.conj().T


def random_density(d: int, gen: np.random.Generator) -> DensityMatrix:
    m = random_psd(d, gen)
    return DensityMatrix(m / np.trace(m).real)


def random_traceless(d: int, gen: np.random.Generator) -> np.ndarray:
    m = random_hermitian(d, gen)
    return m - np.trace(m).real / d * np.eye(d)


def random_spectrum_values(d: int, gen: np.random.Generator) -> np.ndarray:
    lam = gen.dirichlet(np.full(d, 0.7))
    lam = np.clip(lam, 1e-12, None)
    return lam / lam.sum()


def exact_paninski_g2(lam_bucket: np.ndarray, eps_j: float, gen: np.random.Generator) -> float:
    """Exact E_U[g^2] for one bucket POVM element against the paired perturbation.

    Mixes generic and adversarial elements (rank-1 aligned with the smallest
    eigenvalue) so the audited constant is exercised at its edge.
    """
    from qcert.haar_oracle import haar_moment

    d = len(lam_bucket)
    k2 = 2 * (d // 2)
    pert = np.zeros(d)
    pert[: d // 2] = eps_j
    pert[d // 2 : k2] = -eps_j
    if gen.random() < 0.5:
        g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        element = g @ g.conj().T
    else:  # rank-1 element hugging the smallest eigenvalue
        v = np.zeros(d, dtype=complex)
        v[int(np.argmin(lam_bucket))] = 1.0
        v += 0.05 * (gen.standard_normal(d) + 1j * gen.standard_normal(d))
        v /= np.linalg.norm(v)
        element = np.outer(v, v.conj())
    denom = np.einsum("ij,ji->", element, np.diag(lam_bucket).astype(complex)).real
    scaled = element[:k2, :k2] / denom
    return haar_moment(scaled, np.diag(pert[:k2]).astype(complex), 2)
