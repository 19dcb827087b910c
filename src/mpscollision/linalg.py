"""Dense complex linear algebra shared by all modules.

Everything operates on plain ``numpy.ndarray`` matrices of dtype complex128.
Operators on composite spaces are square matrices in kron ordering: the first
factor is the slow index.

``_collide`` is the package's one collision map X -> sum_j A_j X A_j^dag, a function of a
Kraus stack and its adjoint stack that picks its arithmetic from the operand (one X or a
stack): the bond and joint sides of every chain that does not step by its transfer matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "kron",
    "dagger",
    "expm_hermitian_generator",
    "lq_factorize",
    "hermitian_part",
    "frobenius",
    "assert_density_matrix",
]

DEFAULT_TOL = 1e-12


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product over the last two axes; first factor is the slow index.

    Leading axes broadcast, so a stack of matrices times one matrix is a stack
    of products.  Every entry is a single product, as in ``np.kron``, so the
    bits agree with it on matrices.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(a.T)


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + dagger(a))


def expm_hermitian_generator(h: np.ndarray, theta: float) -> np.ndarray:
    """Unitary exp(-i*theta*h) for Hermitian ``h`` via eigendecomposition.

    The eigendecomposition route keeps the result unitary to roundoff, which
    matters for long products of collision unitaries.
    """
    h = np.asarray(h, dtype=complex)
    res = frobenius(h - dagger(h))
    if not res <= DEFAULT_TOL:   # a NaN residual fails too
        raise ValueError(f"generator is not Hermitian (residual {res:.3e} > {DEFAULT_TOL:.1e})")
    w, v = np.linalg.eigh(hermitian_part(h))
    phases = np.exp(-1j * theta * w)
    return (v * phases) @ dagger(v)


def lq_factorize(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Rank-revealing LQ factorization, M = L @ Q with Q Q^dag = I.

    Singular directions whose relative weight exceeds ``tol`` are kept.  A
    matrix with no more rows than columns is split through the QR of
    M^dag = Q R, so M = R^dag Q^dag with the singular values of M on R; when
    every one of them is kept, that is the result.  Since s_max <= ||R||_F and
    1/s_min <= ||R^-1||_F, ``tol * ||R||_F * ||R^-1||_F < 1/2`` keeps them all
    (the factor 2 covers rounding in the computed inverse) at the cost of one
    inverse; only when that bound fails do the singular values of R decide,
    so the split is the one the SVD rule alone would give.  Otherwise, and for
    tall matrices, the SVD truncates: L = U*s, Q = V^dag.  A zero matrix
    yields a zero L of rank 1 and an arbitrary orthonormal row, so downstream
    bond dimensions never collapse to zero.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("lq_factorize expects a matrix")
    if 0 < m.shape[0] <= m.shape[1]:
        q, r = np.linalg.qr(m.conj().T)
        try:
            full = tol * frobenius(r) * frobenius(np.linalg.inv(r)) < 0.5
        except np.linalg.LinAlgError:   # exactly singular
            full = False
        if not full:
            s = np.linalg.svd(r, compute_uv=False)
            full = s[0] > 0.0 and s[-1] > tol * s[0]
        if full:
            return r.conj().T, q.conj().T
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
    if not frobenius(rho - dagger(rho)) <= tol:   # a NaN residual fails too
        raise ValueError(f"{what} is not Hermitian within {tol:.1e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol:
        raise ValueError(f"{what} has trace {tr:.12g}, expected 1")
    lo = float(np.linalg.eigvalsh(hermitian_part(rho))[0])
    if lo < -tol:
        raise ValueError(f"{what} has negative eigenvalue {lo:.3e}")


def _collide(ops: np.ndarray, ops_dag: np.ndarray, x: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """sum_j A_j X A_j^dag for a Kraus stack A (m, n_out, n_in) and its adjoint stack
    ``ops_dag`` (m, n_in, n_out), on one X or a stack (..., n_in, n_in), into ``out`` if given.

    One X takes the row products A_j X as one GEMM of A's rows (m n_out, n_in) with X, then one
    GEMM per j with A_j^dag, summed over j: the bits of the per-pair products, which the
    trajectories were written with.  A stack takes T[..., c, j, b] = (A_j X)[b, c] by one GEMM
    per X (no transposed copy of a stack to fault in), then one GEMM over (j, c), j slow, with
    A_j^* stacked (m n_in, n_out), for all X: for n_out > 1 each X gets the bits of a stack of
    that X alone.  ``out`` may be X itself.
    """
    m, n_out, n_in = ops.shape
    rows = ops.reshape(-1, n_in)
    if x.ndim == 2:
        right = (rows @ x).reshape(m, n_out, n_in) @ ops_dag
        return np.add.reduce(right, axis=0, out=out)
    lead = x.shape[:-2]
    t = x.swapaxes(-1, -2) @ rows.T
    t = t.reshape(lead + (n_in, m, n_out)).swapaxes(-1, -3).reshape(-1, m * n_in)
    out = None if out is None else out.reshape(-1, n_out)
    return np.matmul(t, ops_dag.reshape(-1, n_out), out=out).reshape(lead + (n_out, n_out))
