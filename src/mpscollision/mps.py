"""Right-canonical matrix-product-state environments.

An environment is a chain of site tensors ``B[k]`` of shape ``(d_k, D_{k-1},
D_k)`` in right-canonical gauge (sum_i B[i] B[i]^dag = identity on the left
bond) together with an initial bond density matrix ``chi0``.  The bond space
carries everything the system can ever learn about the particles it has not
met yet, so all reduced states of the chain are small contractions against a
current bond state.

The bond side is one Kraus sum X -> sum_j A_j X A_j^dag (``linalg._collide`` on a view and
its adjoint, or on a homogeneous chain one product with a transfer matrix, ``_bond_steps``)
on three views of a site tensor B:

* A_i = B[i]^T evolves the bond state: ``chi_k = sum_i B[k,i]^T chi_{k-1}
  B[k,i]^*``, with ``chi_k`` the bond state after ``k`` consumed sites
  (``chi_0 = chi0``);
* A_b = B[:, :, b], summed over the right bond b, gives the next site's
  reduced density from the bond state entering it;
* A_i = B[i] is the adjoint of the bond step under the pairing sum X (.) R:
  it walks a later site's readout R back one site (``_pair_states``).

``chi0`` may be any density matrix on the first bond, pure or mixed (AKLT's
is I/2).  A site's physical index may carry a trailing purification ancilla
of dimension ``ancilla_dim`` (used by :func:`decorrelate` to encode mixed
single-site marginals as pure product states); interactions couple only to
the leading mode factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    _collide,
    assert_density_matrix,
    frobenius,
    hermitian_part,
    lq_factorize,
)

__all__ = [
    "MpsEnvironment",
    "BondState",
    "TransferSpectrum",
    "InfiniteCorrelationLengthError",
    "check_right_canonical",
    "right_canonicalize",
    "evolve_bond_state",
    "site_reduced_state",
    "transfer_spectrum",
    "stationary_bond_state",
    "decorrelate",
]


class InfiniteCorrelationLengthError(ValueError):
    """Transfer matrix has a degenerate leading eigenvalue (e.g. GHZ)."""


@dataclass(frozen=True)
class MpsEnvironment:
    """Right-canonical MPS environment plus initial bond density matrix.

    ``sites`` holds one ``(d, D_left, D_right)`` tensor per site; a
    homogeneous (translation-invariant, unbounded) chain stores a single
    tensor that is reused for every collision.
    """

    sites: tuple
    chi0: np.ndarray
    homogeneous: bool = False
    ancilla_dim: int = 1

    def __post_init__(self):
        sites = tuple(np.asarray(t, dtype=complex) for t in self.sites)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "chi0", np.asarray(self.chi0, dtype=complex))
        if not sites:
            raise ValueError("environment needs at least one site tensor")
        for t in sites:
            if t.ndim != 3:
                raise ValueError(f"site tensor must have shape (d, Dl, Dr), got {t.shape}")
        if self.homogeneous and len(sites) != 1:
            raise ValueError("homogeneous environment stores exactly one site tensor")
        d0 = sites[0].shape[1]
        if self.chi0.shape != (d0, d0):
            raise ValueError(f"chi0 shape {self.chi0.shape} does not match first bond dim {d0}")
        if self.homogeneous and sites[0].shape[1] != sites[0].shape[2]:
            raise ValueError("homogeneous site tensor must have equal bond dimensions")
        for k in range(len(sites) - 1):
            if sites[k].shape[2] != sites[k + 1].shape[1]:
                raise ValueError(f"bond dimension mismatch between sites {k} and {k + 1}")
        if self.ancilla_dim < 1 or any(t.shape[0] % self.ancilla_dim for t in sites):
            raise ValueError("ancilla_dim must divide every physical dimension")

    @property
    def length(self):
        """Number of sites, or None for an unbounded homogeneous chain."""
        return None if self.homogeneous else len(self.sites)

    def site(self, k: int) -> np.ndarray:
        if self.homogeneous:
            return self.sites[0]
        if k < 0 or k >= len(self.sites):
            raise IndexError(f"site {k} out of range for chain of length {len(self.sites)}")
        return self.sites[k]

    def phys_dim(self, k: int = 0) -> int:
        return self.site(k).shape[0]

    def mode_dim(self, k: int = 0) -> int:
        """Physical dimension seen by interactions (ancilla factored out)."""
        return self.phys_dim(k) // self.ancilla_dim

    def initial_bond_state(self) -> "BondState":
        return BondState(0, self.chi0)

    def validate(self) -> None:
        assert_density_matrix(self.chi0, what="chi0")
        res = check_right_canonical(self)
        if not res <= 1e-10:   # a NaN residual fails too
            raise ValueError(f"environment is not right-canonical (residual {res:.3e})")


@dataclass(frozen=True)
class BondState:
    """Bond density matrix chi_k after ``site`` consumed sites."""

    site: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("bond state must be a square matrix")


def check_right_canonical(env: MpsEnvironment) -> float:
    """Largest Frobenius deviation of sum_i B[i] B[i]^dag from the identity; NaN if any is."""
    worst = 0.0
    for t in env.sites:
        f = t.transpose(1, 0, 2).reshape(t.shape[1], t.shape[0] * t.shape[2])
        worst = np.maximum(worst, frobenius(f @ f.conj().T - np.eye(t.shape[1])))   # keeps a NaN
    return float(worst)


def _as_site_tensor(t) -> np.ndarray:
    arr = np.asarray(t, dtype=complex)
    if arr.ndim != 3:
        raise ValueError(f"site tensor must have shape (d, Dl, Dr), got {arr.shape}")
    return arr


def right_canonicalize(tensors) -> MpsEnvironment:
    """Bring an arbitrary-gauge pure MPS to right-canonical form.

    ``tensors`` is a sequence of ``(d, Dl, Dr)`` arrays with outer bond
    dimensions 1.  Sweeps right to left with rank-revealing LQ splits,
    truncating singular directions below ``DEFAULT_TOL`` relative weight.  The overall
    norm (and global phase) is absorbed, so the result represents the
    normalized state; a zero-norm input raises ValueError.
    """
    work = [_as_site_tensor(t) for t in tensors]
    if work[0].shape[1] != 1 or work[-1].shape[2] != 1:
        raise ValueError("pure MPS must have outer bond dimensions 1")
    for k in range(len(work) - 1, 0, -1):
        d, dl, dr = work[k].shape
        m = work[k].transpose(1, 0, 2).reshape(dl, d * dr)
        l, q = lq_factorize(m)
        rank = q.shape[0]
        work[k] = q.reshape(rank, d, dr).transpose(1, 0, 2)
        work[k - 1] = work[k - 1] @ l
    # Leftover weight on the first site is the state norm.
    d, dl, dr = work[0].shape
    m = work[0].transpose(1, 0, 2).reshape(dl, d * dr)
    l, q = lq_factorize(m)
    norm = abs(l[0, 0])
    if norm <= DEFAULT_TOL:
        raise ValueError("cannot canonicalize a zero-norm state")
    work[0] = q.reshape(q.shape[0], d, dr).transpose(1, 0, 2)
    return MpsEnvironment(tuple(work), np.eye(1, dtype=complex))


def _transfer_matrix(ops: np.ndarray) -> np.ndarray:
    """``_collide``'s map of a square stack A (n, D, D) as the D^2 x D^2 matrix T of
    vec X -> vec X T (row-major vec): T[(b, e), (a, c)] = t[a, b, c, e], t = sum_j A_j (x) A_j^*."""
    n = ops.shape[1]
    g = ops.reshape(len(ops), n * n)
    return np.dot(g.T, g.conj()).reshape(n, n, n, n).transpose(1, 3, 0, 2).reshape(n * n, n * n)


def _transfer_sum(t: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``_collide`` as one product vec X t with a ``_transfer_matrix`` t, on one X or a stack,
    into ``out`` if given."""
    flat = None if out is None else out.reshape(-1, len(t))
    return np.matmul(x.reshape(-1, len(t)), t, out=flat).reshape(x.shape)


def _transfer_pays(m: int, n: int) -> bool:
    """Whether m Kraus operators n x n cost no less as a transfer product: n^4 <= 2 m n^3."""
    return n ** 4 <= 2 * m * n ** 3


def _bond_steps(env: MpsEnvironment, sites, view: tuple = (0, 2, 1)):
    """Yield, for each site k in ``sites``, X -> sum_j A_j X A_j^dag on one X or a stack with
    A = B[k].transpose(view): the bond step, or with (0, 1, 2) the readout step.  A homogeneous
    chain takes ``_transfer_sum`` where ``_transfer_pays``, else ``_collide``; the transfer
    matrix or the ``_collide`` bound to A and A^dag is prepared once per distinct site tensor."""
    site = None
    for k in sites:
        if env.site(k) is not site:
            site = env.site(k)
            ops = site.transpose(view)
            step = (partial(_transfer_sum, _transfer_matrix(ops))
                    if env.homogeneous and _transfer_pays(*site.shape[:2])
                    else partial(_collide, ops, ops.conj().transpose(0, 2, 1)))
        yield step


def _pair_states(env: MpsEnvironment, site_b: int, chis):
    """Yield rho_{a,b} as arrays rho[i, j, k, l] = <i k|rho_ab|j l> (earlier site i, j) for each
    bond state chi entering a site a = chi.site < site_b in ``chis``, by descending a.

    Site b's readout R[k, l] = B_k B_l^dag walks back one site per delay (``_bond_steps``'
    readout step) and closes on M[i, j] = B_i^T chi B_j^* in one product: rho[i, j, k, l] is
    the sum of M[i, j] (.) R[k, l].
    """
    b = env.site(site_b)
    r, at = b[:, None] @ b.conj().transpose(0, 2, 1), site_b   # r reads the bond entering `at`
    steps = _bond_steps(env, range(site_b - 1, 0, -1), (0, 1, 2))
    for chi in chis:
        for _ in range(at - 1, chi.site, -1):
            r = next(steps)(r)
        at = chi.site + 1
        ba = env.site(chi.site)
        m = ba.transpose(0, 2, 1)[:, None] @ (chi.matrix @ ba.conj())
        pair = m.reshape(len(ba) ** 2, -1) @ r.reshape(len(b) ** 2, -1).T
        yield pair.reshape(m.shape[:2] + r.shape[:2])


def _summed_correlator(env: MpsEnvironment, chi: BondState) -> tuple[np.ndarray, np.ndarray]:
    """rho_{a,a+1} and S = sum_{m >= 1} C_m of the connected pair states C_m = rho_{a,a+m} - rho_a
    (x) rho_{a+m} of a homogeneous chain at its stationary bond state chi, in ``_pair_states``'
    axes, closed on R[k, l] = B_k B_l^dag: rho_{a,a+1} closes M[i, j] = B_i^T chi B_j^*, C_m closes
    T^{m-1} M_c, T the bond step and M_c[i, j] = M[i, j] - rho_ij chi traceless, and S the one
    solve X of (1 - T + |chi><I|) X = M_c, the uniform-MPS resolvent (Vanderstraeten et al.,
    SciPost Phys. Lect. Notes 7, 2019)."""
    b = _bulk_tensor(env)
    d, n, _ = b.shape
    m = b.transpose(0, 2, 1)[:, None] @ (chi.matrix @ b.conj())
    r = (b[:, None] @ b.conj().transpose(0, 2, 1)).reshape(d * d, -1)
    pair = (m.reshape(d * d, -1) @ r.T).reshape(d, d, d, d)
    m -= np.trace(m, axis1=2, axis2=3)[:, :, None, None] * chi.matrix
    a = -_transfer_matrix(b)   # T vec X is the bond step; a becomes 1 - T + |chi><I|
    a.reshape(-1)[::n * n + 1] += 1.0
    a[:, ::n + 1] += chi.matrix.reshape(-1, 1)
    x = np.linalg.solve(a, m.reshape(d * d, -1).T)
    return pair, (x.T @ r.T).reshape(d, d, d, d)


def evolve_bond_state(env: MpsEnvironment, chi: BondState) -> BondState:
    """Free bond evolution chi_k = sum_i B[k,i]^T chi_{k-1} B[k,i]^*."""
    b = env.site(chi.site)
    if b.shape[1] != chi.matrix.shape[0]:
        raise ValueError(
            f"bond state dim {chi.matrix.shape[0]} does not match site {chi.site} "
            f"left bond {b.shape[1]}"
        )
    return BondState(chi.site + 1, _collide(b.transpose(0, 2, 1), b.conj(), chi.matrix))


def site_reduced_state(env: MpsEnvironment, chi: BondState) -> np.ndarray:
    """Density matrix of the next particle given the current bond state."""
    b = env.site(chi.site)
    if b.shape[1] != chi.matrix.shape[0]:
        raise ValueError("bond state dimension does not match site tensor")
    return _collide(b.transpose(2, 0, 1), b.conj().transpose(2, 1, 0), chi.matrix)


def _purify_bond(chi0: np.ndarray) -> np.ndarray:
    """Matrix W with W^T W^* = chi0, rows indexing a rank-sized ancilla."""
    w_eig, v = np.linalg.eigh(hermitian_part(chi0))
    keep = w_eig > DEFAULT_TOL * max(w_eig.max(), 1.0)
    if not np.any(keep):
        raise ValueError("chi0 has no positive weight")
    return (np.sqrt(w_eig[keep])[:, None] * v[:, keep].T).astype(complex)


def _bulk_tensor(env: MpsEnvironment) -> np.ndarray:
    if env.homogeneous:
        return env.sites[0]
    interior = [t for t in env.sites if t.shape[1] == t.shape[2]]
    if not interior:
        raise ValueError("environment has no repeated bulk tensor")
    ref = interior[0]
    for t in interior[1:]:
        if t.shape != ref.shape or frobenius(t - ref) > DEFAULT_TOL:
            raise ValueError("environment is not translation invariant in the bulk")
    return ref


@dataclass(frozen=True)
class TransferSpectrum:
    lambda2: complex


def _real_transfer_matrix(env: MpsEnvironment) -> np.ndarray:
    """The bond map X -> sum_i B_i^T X B_i^* as a real D^2 x D^2 matrix on Hermitian X.

    The map keeps X Hermitian, so it acts on the orthonormal coordinates
    x = Re X + Im X (symmetric part Re X, antisymmetric part Im X; x[a,b] and
    x[b,a] are orthogonal mixes of sqrt2 Re X[a,b] and sqrt2 Im X[a,b]) as
    R[(b,d),(a,c)] = Re T[(b,d),(a,c)] - Im T[(d,b),(a,c)], with T its complex
    matrix on row-major vec(X).  R has the spectrum of T.  For a finite chain,
    requires a well-defined repeated bulk tensor (all square interior tensors equal).
    """
    b = _bulk_tensor(env)
    d, n, _ = b.shape
    g = b.reshape(d, n * n)
    t = np.dot(g.T, g.conj()).reshape(n, n, n, n)   # t[a, b, c, d] = T[(b, d), (a, c)]
    r = np.subtract(t.real.transpose(1, 3, 0, 2), t.imag.transpose(3, 1, 0, 2), order="C")
    return r.reshape(n * n, n * n)


def _subleading(eigs) -> complex:
    """``transfer_spectrum``'s lambda2, with its checks, off the transfer matrix's eigenvalues."""
    eigs = sorted(eigs.tolist(), key=abs, reverse=True)
    if abs(eigs[0] - 1.0) > 1e-10:
        raise ValueError(f"leading transfer eigenvalue {eigs[0]:.12g} is not 1")
    if len(eigs) == 1:
        return 0.0
    lam2 = complex(eigs[1].real, abs(eigs[1].imag))
    if abs(lam2) >= 1.0 - 1e-10:
        raise InfiniteCorrelationLengthError(
            f"second transfer eigenvalue {lam2:.6g} lies on the unit circle; "
            "correlation length is infinite"
        )
    return 0.0 if abs(lam2) <= 1e-10 else lam2


def transfer_spectrum(env: MpsEnvironment) -> TransferSpectrum:
    """Subleading eigenvalue of the transfer matrix (0 when there is none or it vanishes).

    One real eigensolve of :func:`_real_transfer_matrix`, which returns complex
    eigenvalues in exact conjugate pairs; of such a pair lambda2 is the member
    with Im lambda2 > 0.

    Raises :class:`InfiniteCorrelationLengthError` when the second eigenvalue
    sits on the unit circle (degenerate fixed point, e.g. a GHZ chain).
    """
    return TransferSpectrum(_subleading(np.linalg.eigvals(_real_transfer_matrix(env))))


def _fixed_point(eigs: np.ndarray, vecs: np.ndarray) -> BondState:
    """``stationary_bond_state`` off the eigenpairs of :func:`_real_transfer_matrix`."""
    idx = int(np.argmin(np.abs(eigs - 1.0)))
    if abs(eigs[idx] - 1.0) > 1e-10:
        raise ValueError("transfer matrix has no eigenvalue 1")
    d = int(round(np.sqrt(len(eigs))))
    x = vecs[:, idx].real.reshape(d, d)
    tr = float(np.trace(x))
    if abs(tr) < 1e-10:
        raise ValueError("stationary bond candidate has zero trace")
    return BondState(0, (0.5 * (x + x.T) + 0.5j * (x - x.T)) / tr)


def stationary_bond_state(env: MpsEnvironment) -> BondState:
    """Fixed point of the bond free evolution, normalized to unit trace.

    The eigenvector x at 1 of :func:`_real_transfer_matrix` is real, so the
    fixed point X = sym(x) + i antisym(x) is Hermitian for any sign or scale
    of x, and dividing by its trace normalizes it.
    """
    return _fixed_point(*np.linalg.eig(_real_transfer_matrix(env)))


def decorrelate(env: MpsEnvironment, length: int | None = None) -> MpsEnvironment:
    """Product environment with the same single-particle marginals.

    Each particle's (generally mixed) marginal is purified into a per-site
    ancilla folded into the physical index, giving a pure product state of
    bond dimension 1.  Interactions on the result act on the mode factor
    only, so collision dynamics with it reproduces the sequential
    single-particle channels exactly.

    For a homogeneous input whose chi0 is already stationary the output is
    homogeneous; otherwise the marginals are site dependent and ``length``
    (defaulting to the chain length) bounds the output chain.
    """
    if length is not None and length < 1:
        raise ValueError(f"need length >= 1, got length={length}")
    chi = env.initial_bond_state()
    if env.homogeneous:
        stationary = frobenius(evolve_bond_state(env, chi).matrix - chi.matrix) <= 1e-12
        if stationary:
            n = 1
        else:
            if length is None:
                raise ValueError(
                    "homogeneous environment with non-stationary chi0 needs an "
                    "explicit length to decorrelate"
                )
            n = int(length)
    else:
        n = len(env.sites) if length is None else min(int(length), len(env.sites))
    marginals = []
    for k in range(n):
        rho = site_reduced_state(env, chi)
        if env.ancilla_dim > 1:
            # Keep only the mode marginal; the old purification ancilla is
            # traced out so decorrelation is idempotent at the state level.
            dm = env.mode_dim(k)
            rho = rho.reshape(dm, env.ancilla_dim, dm, env.ancilla_dim)
            rho = np.einsum("iaja->ij", rho)
        marginals.append(rho)
        chi = evolve_bond_state(env, chi)

    purified = [_purify_bond(rho).T for rho in marginals]
    anc = max(p.shape[1] for p in purified)
    sites = []
    for p in purified:
        d = p.shape[0]
        psi = np.zeros((d, anc), dtype=complex)
        psi[:, : p.shape[1]] = p
        sites.append(psi.reshape(d * anc, 1, 1))
    chi0 = np.eye(1, dtype=complex)
    homogeneous = env.homogeneous and n == 1
    return MpsEnvironment(tuple(sites), chi0, homogeneous=homogeneous,
                          ancilla_dim=anc)

