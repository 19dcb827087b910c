"""Dense complex linear algebra shared by all modules.

Everything operates on plain ``numpy.ndarray`` matrices of dtype complex128.
Operators on composite spaces are square matrices together with a tuple of
factor dimensions (row-major / kron ordering); helpers here take the factor
dimensions explicitly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "kron",
    "dagger",
    "partial_trace",
    "expm_hermitian_generator",
    "lq_factorize",
    "hermitian_part",
    "frobenius",
    "is_hermitian",
    "min_eigenvalue",
    "assert_density_matrix",
]

DEFAULT_TOL = 1e-12


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply, first factor is the slow index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(a.T)


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + dagger(a))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return frobenius(a - dagger(a)) <= tol


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of ``a``."""
    return float(np.linalg.eigvalsh(hermitian_part(a))[0])


def partial_trace(matrix: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``matrix`` is a square operator on the tensor product of spaces with
    dimensions ``dims`` (kron ordering).  ``keep`` is an iterable of factor
    indices to retain, in their original order.  The trace of the result
    equals the trace of the input.
    """
    dims = [int(d) for d in dims]
    n = len(dims)
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValueError("keep must select at least one factor")
    for i in keep:
        if i < 0 or i >= n:
            raise ValueError(f"factor index {i} out of range for {n} factors")
    total = int(np.prod(dims))
    if matrix.shape != (total, total):
        raise ValueError(f"matrix shape {matrix.shape} does not match dims {dims}")

    tensor = matrix.reshape(dims + dims)
    # Contract bra/ket legs of every traced factor, highest index first so
    # the remaining axis numbering stays valid.
    traced = [i for i in range(n) if i not in keep]
    for i in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=i, axis2=i + tensor.ndim // 2)
    kept_dim = int(np.prod([dims[i] for i in keep]))
    return tensor.reshape(kept_dim, kept_dim)


def expm_hermitian_generator(h: np.ndarray, theta: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unitary exp(-i*theta*h) for Hermitian ``h`` via eigendecomposition.

    The eigendecomposition route keeps the result unitary to roundoff, which
    matters for long products of collision unitaries.
    """
    h = np.asarray(h, dtype=complex)
    res = frobenius(h - dagger(h))
    if res > tol:
        raise ValueError(f"generator is not Hermitian (residual {res:.3e} > {tol:.1e})")
    w, v = np.linalg.eigh(hermitian_part(h))
    phases = np.exp(-1j * theta * w)
    return (v * phases) @ dagger(v)


def lq_factorize(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Rank-revealing LQ factorization, M = L @ Q with Q Q^dag = I.

    Built on the SVD: L = U*s, Q = V^dag, keeping singular directions whose
    relative weight exceeds ``tol``.  A zero matrix yields a zero L of rank 1
    and an arbitrary orthonormal row, so downstream bond dimensions never
    collapse to zero.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("lq_factorize expects a matrix")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        l = np.zeros((m.shape[0], 1), dtype=complex)
        q = np.zeros((1, m.shape[1]), dtype=complex)
        q[0, 0] = 1.0
        return l, q
    rank = int(np.sum(s > tol * s[0]))
    rank = max(rank, 1)
    l = u[:, :rank] * s[:rank]
    q = vh[:rank, :]
    return l, q


def assert_density_matrix(rho: np.ndarray, tol: float = 1e-10, what: str = "state") -> None:
    """Raise if ``rho`` is not Hermitian, unit-trace and positive within tol."""
    if not is_hermitian(rho, tol):
        raise ValueError(f"{what} is not Hermitian within {tol:.1e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol:
        raise ValueError(f"{what} has trace {tr:.12g}, expected 1")
    lo = min_eigenvalue(rho)
    if lo < -tol:
        raise ValueError(f"{what} has negative eigenvalue {lo:.3e}")
