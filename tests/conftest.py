import numpy as np
import pytest

from mpscollision.mps import _bulk_tensor


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density(rng, dim: int) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, dim: int) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (x + x.conj().T)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """Hilbert-Schmidt-orthonormal Hermitian basis of dim x dim matrices.

    Generalized Gell-Mann construction: identity/sqrt(dim), symmetric and
    antisymmetric pair matrices, and diagonal traceless matrices.  Satisfies
    tr(B_a B_b) = delta_ab and spans all Hermitian matrices; the reference
    for the basis-free correlation kernel of the master equation.
    """
    basis = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[a, b] = sym[b, a] = 1.0 / np.sqrt(2.0)
            basis.append(sym)
            asym = np.zeros((dim, dim), dtype=complex)
            asym[a, b] = -1j / np.sqrt(2.0)
            asym[b, a] = 1j / np.sqrt(2.0)
            basis.append(asym)
    for a in range(1, dim):
        diag = np.zeros(dim, dtype=complex)
        diag[:a] = 1.0
        diag[a] = -a
        diag /= np.sqrt(a * (a + 1))
        basis.append(np.diag(diag))
    return basis


def transfer_matrix(env) -> np.ndarray:
    """Complex matrix of the bond free-evolution channel on row-major vec(chi).

    The dense reference for ``mps.transfer_spectrum`` and
    ``mps.stationary_bond_state``, which diagonalize the same map in real
    Hermitian coordinates.
    """
    bulk = _bulk_tensor(env)
    return np.einsum("iab,icd->bdac", bulk, bulk.conj()).reshape(
        bulk.shape[2] ** 2, bulk.shape[1] ** 2
    )
