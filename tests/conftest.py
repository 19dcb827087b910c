import numpy as np
import pytest

from mpscollision import embedding as emb
from mpscollision.linalg import kron
from mpscollision.master_equation import (
    KernelTable,
    _basis_stack,
    _bond_ladder,
    _rung,
    unvec,
    vec,
)
from mpscollision.models import spin1_matrices
from mpscollision.mps import _bulk_tensor, _pair_states


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


def partial_trace(matrix: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every tensor factor of ``matrix`` (kron ordering, factor dimensions ``dims``)
    not listed in ``keep``; the kept factors stay in their original order.

    The dense reference for the library's reduced states.
    """
    dims = [int(d) for d in dims]
    tensor = matrix.reshape(dims + dims)
    # Contract bra and ket legs of each traced factor, highest index first so
    # the remaining axis numbering stays valid.
    for i in sorted(set(range(len(dims))) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=i, axis2=i + tensor.ndim // 2)
    kept = int(np.prod([dims[i] for i in sorted(set(keep))]))
    return tensor.reshape(kept, kept)


def pair_state(env, site_b: int, chi) -> np.ndarray:
    """Joint density matrix of the particles at ``chi.site`` < ``site_b``, the earlier one
    as the first kron factor: the one-entry case of ``mps._pair_states``."""
    pair = next(_pair_states(env, site_b, [chi]))
    da, db = pair.shape[0], pair.shape[2]
    return pair.transpose(0, 2, 1, 3).reshape(da * db, da * db)


def aklt_pair_state(separation: int) -> np.ndarray:
    """Closed-form AKLT two-particle state of sites ``separation`` >= 1 apart.

    Isotropic exchange form I/9 + c * sum_a J_a (x) J_a with the correlation
    weight c = (1/3) (-1/3)^separation, which reproduces the per-component
    spin correlation (4/3)(-1/3)^m and has no total-spin-2 weight at
    separation 1.
    """
    jx, jy, jz = spin1_matrices()
    coupling = kron(jx, jx) + kron(jy, jy) + kron(jz, jz)
    return np.eye(9, dtype=complex) / 9.0 + (1.0 / 3.0) * (-1.0 / 3.0) ** separation * coupling


PREFIX_GUARD = 2 ** 14


def reduced_density_prefix(env, k: int) -> np.ndarray:
    """Exact reduced density matrix of the first ``k`` sites.

    The dense reference for the library's site and pair readouts.  chi0 is
    purified by its own eigendecomposition into W with W^T W^* = chi0, the
    past enters through W, and future sites only through the identity line
    of right-canonicality.  Guarded against exponential blow-up at
    ``prod(d) > PREFIX_GUARD``.
    """
    if k < 1:
        raise ValueError("need at least one site")
    if env.length is not None and k > env.length:
        raise ValueError(f"chain has only {env.length} sites")
    dims = [env.phys_dim(j) for j in range(k)]
    total = int(np.prod(dims))
    if total > PREFIX_GUARD:
        raise ValueError(f"prefix dimension {total} exceeds guard {PREFIX_GUARD}")
    w, v = np.linalg.eigh(0.5 * (env.chi0 + env.chi0.conj().T))
    keep = w > 1e-12 * max(w.max(), 1.0)
    t = np.sqrt(w[keep])[:, None] * v[:, keep].T   # (anc, D0)
    for j in range(k):
        # (anc, i_1..i_{j-1}, D) x (d, Dl, Dr) over D=Dl -> (anc, i_1..i_j, Dr)
        t = np.tensordot(t, env.site(j), axes=([t.ndim - 1], [1]))
    # t has shape (anc, d_1, ..., d_k, D_k); contract ancilla and open bond.
    rho = np.tensordot(t, t.conj(), axes=([0, t.ndim - 1], [0, t.ndim - 1]))
    return rho.reshape(total, total)


# -- reference NZ walk -------------------------------------------------------------
# The kernel walk and solver as they were before the walk wrote into the packed table:
# a concatenated thread stack, a kron per projection, one row buffer copied into the
# table row by row.  The library's walk must give these bits exactly.

def reference_kernel_threads(model, starts: range, k_max: int, ladder):
    """Yield each step's K_{k,k-s} over the live starts s in ``starts``, by ascending m."""
    d_s = model.d_system
    d2 = d_s ** 2
    threads = np.zeros((0, d2) + (d_s * _rung(ladder, starts.start).matrix.shape[0],) * 2)
    steps = range(starts.start, k_max)
    for k, channel in zip(steps, emb._kraus_stacks(model, steps)):
        if k in starts:
            threads = np.concatenate([_basis_stack(d_s, _rung(ladder, k).matrix)[None], threads])
        threads = emb._collide(channel, threads)
        traced = emb.trace_bond(threads, d_s)
        if k + 1 < k_max:
            threads -= kron(traced, _rung(ladder, k + 1).matrix)
        mats = traced.swapaxes(-1, -3).reshape(traced.shape[:-2] + (-1,))
        if k in starts:
            mats[0] -= np.eye(d2)
        mats *= 1.0 / model.tau
        yield mats


def reference_kernel_rows(model, s0: int, k_max: int):
    """Rows K_{k,k-s} over the starts s = s0..k for steps k from s0 to k_max - 1, each a view
    of one row buffer; row k past the onset s* keeps thread s*'s first k - s* outputs."""
    ladder = _bond_ladder(model, k_max - 1, s0)
    onset = max(s0, ladder[-1].site)
    threads = reference_kernel_threads(model, range(s0, onset + 1), k_max, ladder)
    row = np.empty((k_max - s0,) + (model.d_system ** 2,) * 2, dtype=complex)
    for k, mats in enumerate(threads, s0):
        j = max(k - onset, 0)
        row[j:j + len(mats)] = mats
        yield row[:j + len(mats)]


def reference_kernel_table(model, k_max: int) -> KernelTable:
    d_s = model.d_system
    length = KernelTable._length(k_max)
    table = KernelTable(model.tau, d_s, np.empty((length, d_s ** 2, d_s ** 2), dtype=complex))
    for k, row in enumerate(reference_kernel_rows(model, 0, k_max)):
        table._row(k, k)[:] = row
    return table


def reference_kernel_scan_row(model, k: int, m_max: int) -> np.ndarray:
    """K_{k,0..m_max} off the walk from the start k - m_max."""
    for row in reference_kernel_rows(model, k - m_max, k + 1):
        pass
    return row


def reference_solve_nz(table, rho_s0, k_max: int) -> list[np.ndarray]:
    history = np.tile(vec(rho_s0), (k_max + 1, 1))
    for k in range(k_max):
        row = table._row(k, k)
        history[k + 1] = history[k] + table.tau * (row @ history[k::-1, :, None]).sum(axis=0)[:, 0]
    return [unvec(v, table.d_system).copy() for v in history]
