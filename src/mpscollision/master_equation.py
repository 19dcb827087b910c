"""Discrete memory-kernel master equation and its stroboscopic (GKSL) limit.

Superoperators are stored as matrices acting on column-vectorized operators
(vec stacks columns, so the conjugation X -> A X B^dag has matrix
``kron(conj(B), A)``).  The memory kernel K_{km} threads m complementary
projections between the embedding's own collisions, so the time-convolution
recursion reproduces the embedding trajectory exactly.  Kernels with the
same start s = k - m share a thread, the stack W_s[E] = E (x) chi_s over the
system basis E: each step k yields K_{k,k-s}[E] = (tr_bond U_k W_s[E] -
delta_ks E) / tau and advances W_s <- Q_{k+1} U_k W_s.  All live threads go
through one ``collide`` per step: a table costs k_max batched collisions.
On a stationary chain (homogeneous, one unitary, chi_0 a bitwise fixed point
of the bond step) every thread repeats the first, so K_{k,m} = K_m, and the
kernels are deconvolved from the embedding's maps E_1..E_K instead: K
collisions of one basis stack plus O(K^2) products of d_S^2 x d_S^2 matrices.
The same maps certify any table through the residual of the recursion
E_{k+1} = E_k + tau sum_m K_{k,m} E_{k-m}.

The one- and two-collision channels are the embedding's own dynamical maps:
the same basis stack E (x) chi through the embedding's batched walk
(``_traced_walk``), with no projection in between.  The second-order kernel
ties memory to the environment's connected pair correlator C: it needs H only through
X[s,t,u,v] = sum_ijpq C[i,j,p,q] H[s,q,t,j] H[u,p,v,i], which by completeness
of any Hilbert-Schmidt-orthonormal mode basis {E_a} equals the expansion
sum_ab tr[(E_b (x) E_a) C] S_a (x) S_b with S_a = tr_mode[H (I (x) E_a)].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import embedding as emb
from .embedding import CollisionModel
from .linalg import DEFAULT_TOL, dagger, frobenius, kron
from .mps import (
    BondState,
    MpsEnvironment,
    _bond_step,
    evolve_bond_state,
    site_reduced_state,
    stationary_bond_state,
    transfer_spectrum,
    two_site_reduced_state,
)
from .oracle import SizeGuardError

__all__ = [
    "Superoperator",
    "KernelTable",
    "vec",
    "unvec",
    "single_collision_channel",
    "two_collision_channel",
    "build_kernel_table",
    "kernel_scan",
    "solve_nz",
    "second_order_kernel",
    "stroboscopic_generator",
    "evolve_gksl",
    "evolve_gksl_grid",
]

KERNEL_GUARD = 2 ** 22


def vec(x: np.ndarray) -> np.ndarray:
    """Column-major vectorization (stack columns)."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


@dataclass(frozen=True)
class Superoperator:
    """Linear map on operators, matrix of shape (out_dim^2, in_dim^2)."""

    matrix: np.ndarray = field(repr=False)
    in_dim: int
    out_dim: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        if self.matrix.shape != (self.out_dim ** 2, self.in_dim ** 2):
            raise ValueError(
                f"superoperator matrix {self.matrix.shape} does not match dims "
                f"in={self.in_dim}, out={self.out_dim}"
            )

    # -- construction -----------------------------------------------------
    @classmethod
    def identity(cls, dim: int) -> "Superoperator":
        return cls(np.eye(dim ** 2, dtype=complex), dim, dim)

    @classmethod
    def from_kraus(cls, ops) -> "Superoperator":
        ops = [np.asarray(a, dtype=complex) for a in ops]
        mat = sum(kron(a.conj(), a) for a in ops)
        return cls(mat, ops[0].shape[1], ops[0].shape[0])

    @classmethod
    def from_map(cls, f, in_dim: int, out_dim: int) -> "Superoperator":
        """Matrix of an arbitrary operator map by acting on a matrix basis."""
        mat = np.zeros((out_dim ** 2, in_dim ** 2), dtype=complex)
        basis = np.zeros((in_dim, in_dim), dtype=complex)
        for j in range(in_dim):
            for i in range(in_dim):
                basis[i, j] = 1.0
                mat[:, j * in_dim + i] = vec(f(basis))
                basis[i, j] = 0.0
        return cls(mat, in_dim, out_dim)

    # -- algebra -----------------------------------------------------------
    def apply(self, x: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(x), self.out_dim)

    def __matmul__(self, other: "Superoperator") -> "Superoperator":
        if self.in_dim != other.out_dim:
            raise ValueError(f"cannot compose {other.out_dim} -> into in_dim {self.in_dim}")
        return Superoperator(self.matrix @ other.matrix, other.in_dim, self.out_dim)

    def __add__(self, other: "Superoperator") -> "Superoperator":
        self._check_same(other)
        return Superoperator(self.matrix + other.matrix, self.in_dim, self.out_dim)

    def __sub__(self, other: "Superoperator") -> "Superoperator":
        self._check_same(other)
        return Superoperator(self.matrix - other.matrix, self.in_dim, self.out_dim)

    def __mul__(self, scalar) -> "Superoperator":
        return Superoperator(self.matrix * complex(scalar), self.in_dim, self.out_dim)

    __rmul__ = __mul__

    def __neg__(self) -> "Superoperator":
        return self * (-1.0)

    def _check_same(self, other: "Superoperator") -> None:
        if (self.in_dim, self.out_dim) != (other.in_dim, other.out_dim):
            raise ValueError("superoperator dimensions differ")

    # -- diagnostics --------------------------------------------------------
    def norm(self) -> float:
        return frobenius(self.matrix)

    def annihilates_trace(self) -> bool:
        tr_out = vec(np.eye(self.out_dim)).conj() @ self.matrix
        return float(np.max(np.abs(tr_out))) <= 1e-10


# -- building blocks -------------------------------------------------------

def _bond_ladder(env: MpsEnvironment, k_max: int) -> list[BondState]:
    """Bond states chi_0..chi_{k_max}.  On a homogeneous chain the walk stops at the first
    rung bitwise equal to the one before it: every later step would repeat its bits."""
    chis = [env.initial_bond_state()]
    for k in range(1, k_max + 1):
        chis.append(evolve_bond_state(env, chis[-1]))
        if env.homogeneous and np.array_equal(chis[-1].matrix, chis[-2].matrix):
            chis += [BondState(j, chis[-1].matrix) for j in range(k + 1, k_max + 1)]
            break
    return chis


def _particle_state(model: CollisionModel, sites, chi: BondState) -> np.ndarray:
    """Joint state of one or two particles on their padded mode (x) ancilla spaces.

    ``chi`` is the bond state entering ``sites[0]``.  Mode levels the chain
    does not populate are padded with zeros up to ``model.mode_dim``; the
    purification ancilla is kept, so interactions enter as ``kron(h, I_anc)``.
    """
    env = model.env
    anc = env.ancilla_dim
    if len(sites) == 1:
        rho = site_reduced_state(env, chi)
    else:
        rho = two_site_reduced_state(env, sites[0], sites[1], chi)
    dims = [d for k in sites for d in (env.mode_dim(k), anc)] * 2
    out = np.zeros([model.mode_dim, anc] * (2 * len(sites)), dtype=complex)
    out[tuple(slice(d) for d in dims)] = rho.reshape(dims)
    dim = model.effective_mode_dim() ** len(sites)
    return out.reshape(dim, dim)


def _basis_stack(d_s: int, chi: np.ndarray) -> np.ndarray:
    """E (x) chi over the system basis E in column-major order (a Superoperator's columns)."""
    return kron(np.eye(d_s * d_s, dtype=complex).reshape(-1, d_s, d_s).transpose(0, 2, 1), chi)


def _read_off(traced: np.ndarray) -> np.ndarray:
    """Superoperator matrices (..., d_S^2, d_S^2) of bond-traced basis stacks."""
    return np.swapaxes(traced, -1, -3).reshape(traced.shape[:-2] + (-1,))


def _channels(model: CollisionModel, chi: BondState, n: int) -> np.ndarray:
    """Matrices (n, d_S^2, d_S^2) of the embedding's maps rho -> tr_bond of 1..n collisions
    of rho (x) chi from ``chi.site``: the basis stack through one ``_traced_walk``."""
    x = _basis_stack(model.d_system, chi.matrix)
    traced = emb._traced_walk(model, x, range(chi.site, chi.site + n))
    return _read_off(np.stack(list(traced)))[1:]


def _map_stack(model: CollisionModel, n: int) -> np.ndarray:
    """E_0 = Id and the maps E_1..E_n from chi_0 (``_channels``), shape (n + 1, d_S^2, d_S^2)."""
    eye = np.eye(model.d_system ** 2, dtype=complex)
    return np.concatenate([eye[None], _channels(model, model.env.initial_bond_state(), n)])


def single_collision_channel(model: CollisionModel, chi: BondState) -> Superoperator:
    """Channel of one collision with the particle whose bond state is ``chi``."""
    return Superoperator(_channels(model, chi, 1)[0], model.d_system, model.d_system)


def two_collision_channel(model: CollisionModel, chi: BondState,
                          correlated: bool = True) -> Superoperator:
    """Channel of two sequential collisions from ``chi``, or the product of two single ones."""
    if not correlated:
        later = single_collision_channel(model, evolve_bond_state(model.env, chi))
        return later @ single_collision_channel(model, chi)
    return Superoperator(_channels(model, chi, 2)[1], model.d_system, model.d_system)


# -- exact memory kernel -----------------------------------------------------

def _guard_kernel_threads(model: CollisionModel, starts: range, k_max: int, table: int = 0):
    """Raise ``SizeGuardError`` if a table of ``table`` numbers or the last step of
    ``_kernel_threads(model, starts, k_max)`` would hold more than ``KERNEL_GUARD``
    numbers; that step holds 2 m_eff + 1 thread stacks (the input and, inside
    ``collide``, two m_eff-fold temporaries at a time: the row products and
    their copy regrouped by Kraus index, then that copy and the right products).
    A ``_stationary`` chain walks one thread, the basis stack of its maps."""
    d_s = model.d_system
    d_bond = max((max(model.env.site(j).shape[1:]) for j in range(starts.start, k_max)), default=1)
    threads = 1 if _stationary(model) else len(starts)
    stack = (2 * model.effective_mode_dim() + 1) * threads * d_s ** 2 * (d_s * d_bond) ** 2
    for what, size in (("kernel table", table), ("thread stack", stack)):
        if size > KERNEL_GUARD:
            raise SizeGuardError(f"{what} of {size} entries exceeds the {KERNEL_GUARD} guard")


def _kernel_threads(model: CollisionModel, starts: range, k_max: int, ladder=None):
    """Yield each step's K_{k,k-s} over the live starts s in ``starts``, by ascending m = k - s.

    Thread s is the basis stack W_s[E] = E (x) chi_s (``_basis_stack``).  At step k
    every live thread goes through one ``collide`` with the step's Kraus stack,
    built once per distinct channel as in ``trajectory``; K_{k,k-s} is read off
    the bond trace, and Q_{k+1} X = X - tr_bond(X) (x) chi_{k+1} advances them.
    ``ladder`` is the bond ladder to k_max - 1 when the caller already holds it.
    """
    ladder = ladder or _bond_ladder(model.env, k_max - 1)
    d_s = model.d_system
    d2 = d_s ** 2
    threads = np.zeros((0, d2) + (d_s * ladder[starts.start].matrix.shape[0],) * 2)
    steps = range(starts.start, k_max)
    for k, (ops, ops_dag) in zip(steps, emb._kraus_stacks(model, steps)):
        if k in starts:
            threads = np.concatenate([threads, _basis_stack(d_s, ladder[k].matrix)[None]])
        # Only the live threads themselves enter the next collide: the step's
        # input is released on return and Q advances the output in place.
        threads = emb.collide(ops, threads, ops_dag)
        traced = emb.trace_bond(threads, d_s)
        mats = _read_off(traced)[::-1]
        if k in starts:
            mats = np.concatenate([mats[:1] - np.eye(d2), mats[1:]])
        yield mats * (1.0 / model.tau)
        if k + 1 < k_max:
            threads -= kron(traced, ladder[k + 1].matrix)


def _stationary(model: CollisionModel) -> bool:
    """Whether every collision repeats the first: a homogeneous chain, one unitary, and chi_0
    a bitwise fixed point of the bond step.  Then K_{k,m} = K_m for every k."""
    env = model.env
    return (env.homogeneous and not isinstance(model.unitary, tuple)
            and np.array_equal(_bond_step(env.sites[0], env.chi0), env.chi0))


def _stationary_kernels(model: CollisionModel, n: int) -> np.ndarray:
    """K_0..K_{n-1} of a ``_stationary`` chain, deconvolved from its maps E_1..E_n.

    The master equation on the maps reads E_{k+1} = E_k + tau sum_{m<=k} K_m E_{k-m}
    (E_0 = Id), so K_k = (E_{k+1} - E_k)/tau - sum_{m<k} K_m E_{k-m}: the transfer tensors
    of Cerrillo and Cao (PRL 112, 110401, 2014).  n collisions of one basis stack, then one
    batched product of d_S^2 matrices per k.  K_m depends on E_1..E_{m+1} alone, so every
    n > m gives it the same bits.
    """
    maps = _map_stack(model, n)
    rates = np.diff(maps, axis=0) * (1.0 / model.tau)
    kernels = np.empty_like(rates)
    for k in range(n):
        kernels[k] = rates[k] - (kernels[:k] @ maps[k:0:-1]).sum(axis=0)
    return kernels


def _kernel_rows(model: CollisionModel, starts: range, k_max: int, ladder=None):
    """Rows K_{k,k-s} over the live starts s in ``starts``, by ascending m = k - s, for each
    step k from ``starts.start`` to k_max - 1: off the maps on a ``_stationary`` chain
    (K_{k,m} = K_m, ``_stationary_kernels``), else off the threads (``_kernel_threads``)."""
    if _stationary(model):
        kernels = _stationary_kernels(model, k_max - starts.start)
        return (kernels[:j + 1] for j in range(k_max - starts.start))
    return _kernel_threads(model, starts, k_max, ladder)


@dataclass(frozen=True)
class KernelTable:
    """Memory kernels K_{km} for every step k < k_max and delay m <= k, packed row after row."""

    tau: float
    d_system: int
    packed: np.ndarray = field(repr=False)

    @staticmethod
    def _length(k_max: int) -> int:
        """Packed entries of a table to k_max steps."""
        return k_max * (k_max + 1) // 2

    def _row(self, k: int, m: int) -> np.ndarray:
        """View of K_{k,0..m}; a KeyError names (k, m) when the table lacks it."""
        start = self._length(k)
        if not 0 <= m <= k or start + m >= len(self.packed):
            raise KeyError(f"kernel table has no entry for (k={k}, m={m})")
        return self.packed[start:start + m + 1]

    def kernel(self, k: int, m: int) -> Superoperator:
        return Superoperator(self._row(k, m)[m], self.d_system, self.d_system)


def build_kernel_table(model: CollisionModel, k_max: int) -> KernelTable:
    """All kernels needed to integrate the master equation to k_max steps, row by row from
    ``_kernel_rows`` once ``_guard_kernel_threads`` has checked the table and the working set."""
    d_s = model.d_system
    length = KernelTable._length(k_max)
    _guard_kernel_threads(model, range(k_max), k_max, length * d_s ** 4)
    table = KernelTable(model.tau, d_s, np.empty((length, d_s ** 2, d_s ** 2), dtype=complex))
    for k, row in enumerate(_kernel_rows(model, range(k_max), k_max)):
        table._row(k, k)[:] = row
    return table


def _maps_residuals(model: CollisionModel, table: KernelTable, k_max: int) -> np.ndarray:
    """||E_{k+1} - E_k - tau sum_m K_{k,m} E_{k-m}|| for k < k_max: how far the table's
    recursion misses the embedding's maps E_0 = Id, E_1..E_{k_max} (``_map_stack``)."""
    maps = _map_stack(model, k_max)
    residuals = np.empty(k_max)
    for k in range(k_max):
        step = table.tau * (table._row(k, k) @ maps[k::-1]).sum(axis=0)
        residuals[k] = frobenius(maps[k + 1] - maps[k] - step)
    return residuals


def solve_nz(table: KernelTable, rho_s0: np.ndarray, k_max: int) -> list[np.ndarray]:
    """Integrate the discrete time-convolution master equation.

    rho((k+1) tau) = rho(k tau) + tau * sum_m K_{km}[rho((k-m) tau)].
    With exact kernels this reproduces the embedding trajectory.
    """
    history = np.tile(vec(rho_s0), (k_max + 1, 1))
    for k in range(k_max):
        row = table._row(k, k)
        history[k + 1] = history[k] + table.tau * (row @ history[k::-1, :, None]).sum(axis=0)[:, 0]
    return [unvec(v, table.d_system).copy() for v in history]


# -- second-order (correlation-function) kernel ------------------------------

def _double_commutator(h: np.ndarray, corr: np.ndarray) -> Superoperator:
    """rho -> <A B rho - B rho A - A rho B + rho B A> over a two-particle operator.

    ``h`` is the interaction generator on system (x) particle; A is h acting
    on the later particle, B on the earlier one, and the average is taken
    against ``corr`` (earlier particle first).  Every term is bilinear in
    (A, B), so the average only needs
    X[s,t,u,v] = <A_st B_uv> = sum_ijpq corr[i,j,p,q] h[s,q,t,j] h[u,p,v,i],
    the matrix product X = H2^T C2^T H2 with H2[(j,q),(s,t)] = h[s,q,t,j] and
    C2[(i,p),(j,q)] = corr[i,j,p,q].  The Hermitian-basis expansion
    sum_ab tr[(E_b (x) E_a) corr] S_a (x) S_b with S_a = tr_particle[h (I (x) E_a)]
    gives the same X by completeness of the basis.
    """
    m = int(round(np.sqrt(corr.shape[0])))
    d_s = h.shape[0] // m
    h2 = h.reshape(d_s, m, d_s, m).transpose(3, 1, 0, 2).reshape(m * m, d_s * d_s)
    c2 = corr.reshape(m, m, m, m).transpose(0, 2, 1, 3).reshape(m * m, m * m)
    x = (h2.T @ c2.T @ h2).reshape(d_s, d_s, d_s, d_s)
    eye = np.eye(d_s, dtype=complex)
    ab = np.einsum("sttv->sv", x)
    ba = np.einsum("xtux->ut", x)
    mat = (kron(eye, ab) - x.transpose(1, 2, 0, 3).reshape(d_s ** 2, d_s ** 2)
           - x.transpose(3, 0, 2, 1).reshape(d_s ** 2, d_s ** 2) + kron(ba.T, eye))
    return Superoperator(mat, d_s, d_s)


def _effective_hamiltonian(model: CollisionModel) -> np.ndarray:
    """Interaction generator on system (x) (mode (x) purification ancilla)."""
    if model.hamiltonian is None:
        raise ValueError("model carries no interaction Hamiltonian")
    return kron(model.hamiltonian, np.eye(model.env.ancilla_dim))


def _second_order_kernels(model: CollisionModel, k: int, ms, ladder: list[BondState]):
    """Yield ``second_order_kernel(model, k, m)`` for each m in ``ms`` off one bond ladder to k."""
    h = _effective_hamiltonian(model)
    if frobenius(model.hamiltonian - dagger(model.hamiltonian)) > DEFAULT_TOL:
        raise ValueError("interaction Hamiltonian must be Hermitian")
    late = _particle_state(model, (k,), ladder[k])
    for m in ms:
        early = _particle_state(model, (k - m,), ladder[k - m])
        pair = _particle_state(model, (k - m, k), ladder[k - m])
        yield _double_commutator(h, pair - kron(early, late)) * (-(model.g ** 2) * model.tau)


def second_order_kernel(model: CollisionModel, k: int, m: int) -> Superoperator:
    """Leading (two-point correlation) contribution to K_{km}, m >= 1.

    -g^2 tau times the double commutator of the interaction generator at the
    latest and at the (m steps earlier) collision, averaged over the
    connected pair correlator C = rho_{k-m,k} - rho_{k-m} (x) rho_k.  The
    average is one matrix product of C with two copies of H (see
    ``_double_commutator``); it equals the expansion of H in any
    Hilbert-Schmidt-orthonormal mode basis weighted by tr[(E_b (x) E_a) C].
    """
    if m < 1 or m > k:
        raise ValueError(f"need 1 <= m <= k, got m={m}, k={k}")
    return next(_second_order_kernels(model, k, (m,), _bond_ladder(model.env, k)))


def kernel_scan(model: CollisionModel, k: int, m_max: int) -> tuple[list[Superoperator], list]:
    """Lists of K_{k,m} and of its second-order part (None at m = 0 or with no Hamiltonian) for
    m = 0..min(m_max, k), off one bond ladder to k; the thread-stack guard runs before any work."""
    if k < 0 or m_max < 0:
        raise ValueError(f"need k >= 0 and m_max >= 0, got k={k}, m_max={m_max}")
    m_max = min(m_max, k)
    starts = range(k - m_max, k + 1)
    _guard_kernel_threads(model, starts, k + 1)
    ladder = _bond_ladder(model.env, k)
    # The walk from the earliest start ends on the step-k row, which holds every K_{k,m}.
    for row in _kernel_rows(model, starts, k + 1, ladder):
        pass
    second = [None] * (m_max + 1)
    if model.hamiltonian is not None:
        second[1:] = _second_order_kernels(model, k, range(1, m_max + 1), ladder)
    return [Superoperator(x, model.d_system, model.d_system) for x in row], second


# -- stroboscopic (GKSL) limit ------------------------------------------------

def stroboscopic_generator(model: CollisionModel, two_site: str = "correlated") -> Superoperator:
    """Markovian generator of the stroboscopic limit for a homogeneous model.

    The local part is the two-collision channel rate (Phi_12 - Id)/(2 tau)
    evaluated at the stationary bond state (with the correlated or the
    product two-particle state per ``two_site``).  The nonlocal part resums
    the geometric tail of the two-point memory kernels; a mean-field
    double-commutator term converts the discrete stepping into a bona fide
    continuous generator when the interaction has a nonzero environment
    average.  The assembled generator annihilates the trace.
    """
    if two_site not in ("correlated", "product"):
        raise ValueError("two_site must be 'correlated' or 'product'")
    if not model.env.homogeneous:
        raise ValueError("stroboscopic limit needs a homogeneous environment")
    if isinstance(model.unitary, tuple):
        raise ValueError("stroboscopic limit needs a homogeneous interaction")
    h = _effective_hamiltonian(model)

    lam = transfer_spectrum(model.env).lambda2  # raises for infinite correlation length
    if abs(lam.imag) > 1e-8 * max(abs(lam), 1.0):
        warnings.warn("complex subleading transfer eigenvalue; the scalar GKSL tail weight "
                      "built from it is complex", stacklevel=2)
    chi_star = stationary_bond_state(model.env)
    d_s = model.d_system
    g2tau = model.g ** 2 * model.tau

    local = (two_collision_channel(model, chi_star, correlated=(two_site == "correlated"))
             - Superoperator.identity(d_s)) * (1.0 / (2.0 * model.tau))

    # Mean-field double commutator [<H>,[<H>,.]] is the same average at the
    # product state; the connected pair kernel at separation 1, decaying
    # geometrically as lambda2^m, sums the whole nonlocal tail.
    rho1 = _particle_state(model, (0,), chi_star)
    product = kron(rho1, rho1)
    adh2 = _double_commutator(h, product)
    pair = _particle_state(model, (0, 1), chi_star)
    k1 = -_double_commutator(h, pair - product)  # K_1 = [<H>,[<H>,.]] - <[H_2,[H_1,.]]>

    if two_site == "correlated":
        # Local part already carries half of the separation-1 kernel.
        weight = 0.5 * (1.0 + lam) / (1.0 - lam)
    else:
        weight = 1.0 / (1.0 - lam)
    tail, mean_field = g2tau * weight * k1, g2tau * adh2
    generator = local + tail + mean_field
    # Roundoff in L grows with each summed term, so the trace defect is judged at their scale.
    defect = np.max(np.abs(np.trace(generator.matrix.reshape(d_s, d_s, -1))))
    if defect > 1e-10 * max(1.0 / model.tau, tail.norm(), mean_field.norm()):
        raise ValueError("assembled generator does not annihilate the trace")
    return generator


def evolve_gksl(generator: Superoperator, rho_s0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) = exp(t L)[rho(0)] by superoperator matrix exponential."""
    return evolve_gksl_grid(generator, rho_s0, t, 1)[-1]


def evolve_gksl_grid(generator: Superoperator, rho_s0: np.ndarray, dt: float,
                     n_steps: int) -> list[np.ndarray]:
    """rho(j dt) for j = 0..n_steps: one exp(dt L), then repeated mat-vecs."""
    # The only scipy call besides the CLI's logm: importing it here keeps
    # scipy.linalg (about half of a fresh process's start-up) off the
    # package's import path.
    import scipy.linalg

    propagator = scipy.linalg.expm(float(dt) * generator.matrix)
    v = vec(rho_s0)
    states = [unvec(v, generator.out_dim)]
    for _ in range(n_steps):
        v = propagator @ v
        states.append(unvec(v, generator.out_dim))
    return states
