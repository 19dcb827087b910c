"""Discrete memory-kernel master equation and its stroboscopic (GKSL) limit.

Superoperators are stored as matrices acting on column-vectorized operators
(vec stacks columns, so the conjugation X -> A X B^dag has matrix
``kron(conj(B), A)``).  The memory kernel K_{km} threads m complementary
projections between the embedding's own collisions, so the time-convolution
recursion reproduces the embedding trajectory exactly.  Kernels with the
same start s = k - m share a thread, the stack W_s[E] = E (x) chi_s over the
system basis E: each step k yields K_{k,k-s}[E] = (tr_bond U_k W_s[E] -
delta_ks E) / tau and advances W_s <- Q_{k+1} U_k W_s.  The live threads, one stack
grown in place, go through one ``embedding._collide`` per step, and their kernels go
straight into their slots of the packed table: a table costs k_max batched collisions.
Once a chain of one channel holds its bond state fixed to roundoff, at the onset s*,
every later thread repeats thread s*, so row k > s* copies its first k - s* kernels
K_{k,m} = K_{s*+m,m} from row k - 1.  The embedding's unprojected maps E_1..E_K certify
any table through the residual of the recursion E_{k+1} = E_k + tau sum_m K_{k,m} E_{k-m}.

The one- and two-collision channels are the embedding's own dynamical maps:
the same basis stack E (x) chi through the embedding's batched walk
(``_traced_walk``), with no projection in between.  The second-order kernel
ties memory to the environment's connected pair correlator C: it needs H only through
X[s,t,u,v] = sum_ijpq C[i,j,p,q] H[s,q,t,j] H[u,p,v,i], which by completeness
of any Hilbert-Schmidt-orthonormal mode basis {E_a} equals the expansion
sum_ab tr[(E_b (x) E_a) C] S_a (x) S_b with S_a = tr_mode[H (I (x) E_a)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import embedding as emb
from .embedding import CollisionModel, SizeGuardError
from .linalg import DEFAULT_TOL, dagger, frobenius, kron
from .mps import (
    BondState,
    _bond_steps,
    _pair_states,
    _summed_correlator,
    evolve_bond_state,
    stationary_bond_state,
    transfer_spectrum,
)

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
# exp(x A) for ||x A||_1 <= 1 by its Taylor series: the first term left out is 1/19! ~ 8e-18.
_TAYLOR_DEGREE = 18
_INV_FACTORIALS = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, _TAYLOR_DEGREE + 1)])
_TAYLOR_ORDERS = np.arange(_TAYLOR_DEGREE + 1)


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

    # -- diagnostics --------------------------------------------------------
    def norm(self) -> float:
        return frobenius(self.matrix)

    # -- exponential ----------------------------------------------------------
    @cached_property
    def _taylor(self) -> tuple[float, np.ndarray]:
        """||M||_1 and the powers (M / ||M||_1)^j, j = 0..18, stacked as rows."""
        norm = float(np.linalg.norm(self.matrix, 1))
        a = self.matrix / (norm or 1.0)
        powers = np.empty((_TAYLOR_DEGREE + 1, *a.shape), dtype=complex)
        powers[0] = np.eye(a.shape[0])
        for j in range(1, _TAYLOR_DEGREE + 1):
            np.matmul(powers[j - 1], a, out=powers[j])
        return norm, powers.reshape(_TAYLOR_DEGREE + 1, -1)

    def _exp(self, t: float) -> np.ndarray:
        """Matrix of exp(t M): scaling and squaring around a degree-18 Taylor series.

        With x = t ||M||_1 scaled by 2^-s, s = ceil(log2 |x|) when |x| > 1,
        the series is one product of its coefficients with the stacked powers,
        then s squarings.  A nan or inf x gives s = 0 and a non-finite matrix.
        """
        norm, powers = self._taylor
        x = t * norm
        mantissa, exponent = math.frexp(abs(x))   # |x| = mantissa 2^exponent, mantissa in [1/2, 1)
        s = exponent - (mantissa == 0.5) if abs(x) > 1.0 else 0
        coefficients = math.ldexp(x, -s) ** _TAYLOR_ORDERS * _INV_FACTORIALS
        e = (coefficients @ powers).reshape(self.matrix.shape)
        for _ in range(s):
            e = e @ e
        return e


# -- building blocks -------------------------------------------------------

def _fixed(chi: np.ndarray, image: np.ndarray) -> bool:
    """Whether the bond step moves the unit-trace ``chi`` to ``image`` by roundoff alone.  A
    geometric approach at ratio r stops tol r / (1 - r) short of chi*: hence max-abs 1e-15."""
    return bool(np.abs(image - chi).max() <= 1e-15)


def _bond_ladder(model: CollisionModel, k_max: int, first: int = 0) -> list[BondState]:
    """Bond states chi_first..chi_{s*}, s* <= k_max, one ``_bond_steps`` step a rung.  On a chain
    of one channel (homogeneous, one unitary) the walk stops at the onset s*, the first rung
    ``_fixed`` against the next, from which every thread repeats; else s* = k_max.  Rung k >= s* is
    chi_{s*} (``_rung``): an onset before ``first`` leaves it alone; earlier rungs are not kept."""
    repeats = model.env.homogeneous and not isinstance(model.unitary, tuple)
    chis = [model.env.initial_bond_state()]
    for step in _bond_steps(model.env, range(k_max)):
        chi = BondState(chis[-1].site + 1, step(chis[-1].matrix))
        if repeats and _fixed(chis[-1].matrix, chi.matrix):
            break
        if chis[-1].site < first:
            chis.pop()
        chis.append(chi)
    return chis


def _rung(ladder: list[BondState], k: int) -> BondState:
    """Bond state chi_k off a ``_bond_ladder`` that holds rung k or stops at its onset."""
    return BondState(k, ladder[min(k, ladder[-1].site) - ladder[0].site].matrix)


def _padded(model: CollisionModel, x: np.ndarray) -> np.ndarray:
    """A two-particle operator x[i, j, k, l] = <i k|x|j l> (earlier particle i, j), each index
    padded to the mode (x) ancilla space: mode levels the chain does not populate are zeros up
    to ``model.mode_dim``; the ancilla is kept, so interactions enter as kron(h, I_anc)."""
    anc = model.env.ancilla_dim
    dims = [d for n in x.shape for d in (n // anc, anc)]
    out = np.zeros([model.mode_dim, anc] * 4, dtype=complex)
    out[tuple(map(slice, dims))] = x.reshape(dims)
    return out.reshape((model.effective_mode_dim(),) * 4)


def _marginal_product(pair: np.ndarray) -> np.ndarray:
    """tr_late(pair) (x) tr_early(pair) of a pair state (d_a, d_a, d_b, d_b), in its axes."""
    return np.einsum("ipjj->ip", pair)[:, :, None, None] * np.einsum("iijq->jq", pair)


def _basis_stack(d_s: int, chi: np.ndarray) -> np.ndarray:
    """E (x) chi over the system basis E in column-major order (a Superoperator's columns)."""
    return kron(np.eye(d_s * d_s, dtype=complex).reshape(-1, d_s, d_s).transpose(0, 2, 1), chi)


def _channels(model: CollisionModel, chi: BondState, n: int) -> np.ndarray:
    """Matrices (n, d_S^2, d_S^2) of the embedding's maps rho -> tr_bond of 1..n collisions
    of rho (x) chi from ``chi.site``: the basis stack through one ``_traced_walk``."""
    x = _basis_stack(model.d_system, chi.matrix)
    traced = np.stack(list(emb._traced_walk(model, x, range(chi.site, chi.site + n))))
    return traced.swapaxes(-1, -3).reshape(traced.shape[:-2] + (-1,))[1:]


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

def _guard_kernel_threads(model: CollisionModel, s0: int, k_max: int,
                          table: int = 0) -> tuple[list[BondState], range]:
    """The ``_bond_ladder`` from s0 to k_max - 1 and the starts s0..max(s0, s*) of its threads.
    Before any bond step it refuses a table of ``table`` numbers past ``KERNEL_GUARD``
    (``SizeGuardError``), then a chain or unitary tuple short of k_max (IndexError); after the
    walk, a step past the guard (2 m_eff + 1 thread stacks: the stack, ``_collide``'s temps)."""
    if table > KERNEL_GUARD:
        raise SizeGuardError(f"kernel table of {table} entries exceeds the {KERNEL_GUARD} guard")
    if why := model._shortfall(k_max):
        raise IndexError(why)
    d_bond = max((max(model.env.site(j).shape[1:]) for j in range(s0, k_max)), default=1)
    ladder = _bond_ladder(model, k_max - 1, s0)
    starts = range(s0, max(s0, ladder[-1].site) + 1)
    stack = (2 * model.effective_mode_dim() + 1) * len(starts) * (model.d_system ** 2 * d_bond) ** 2
    if stack > KERNEL_GUARD:
        raise SizeGuardError(f"thread stack of {stack} entries exceeds the {KERNEL_GUARD} guard")
    return ladder, starts


def _kernel_threads(model: CollisionModel, starts: range, k_max: int, ladder: list[BondState],
                    rows) -> None:
    """Write each step's K_{k,k-s} over the live starts s in ``starts``, by ascending m = k - s,
    into its row of ``rows``: contiguous views, step k's with room for k - starts.start + 1.

    Thread s, the basis stack E (x) chi_s, enters at the front of a stack that grows in place
    (newest first is ascending m); each step collides all live threads at once, reads K_{k,k-s}
    off their bond trace and advances them by Q_{k+1} X = X - tr_bond(X) (x) chi_{k+1}.  Slots
    below j = k - starts[-1] hold K_{k,m} = K_{s*+m,m}, thread s*'s outputs, copied from the
    last row (no copy when both are views of one buffer)."""
    d_s, first, onset = model.d_system, ladder[0].site, ladder[-1].site
    lo = len(starts)   # the live threads are stack[lo:]
    n = d_s * ladder[min(starts.start, onset) - first].matrix.shape[0]
    stack = np.empty((lo, d_s ** 2, n, n), dtype=complex)
    threads, last = stack[lo:], None
    steps = range(starts.start, k_max)
    for k, channel, row in zip(steps, emb._kraus_stacks(model, steps), rows):
        if k in starts:
            lo -= 1
            stack[lo + 1:] = threads   # a no-op unless the collision returned a new array
            stack[lo] = _basis_stack(d_s, ladder[min(k, onset) - first].matrix)
            threads = stack[lo:]
        if channel.ops.shape[1] != stack.shape[-1]:   # the bond dimension changes
            stack = np.empty(stack.shape[:2] + channel.ops.shape[1:2] * 2, dtype=complex)
        threads = emb._collide(channel, threads, stack[lo:])
        traced = emb.trace_bond(threads, d_s)
        if k + 1 < k_max:   # kron(traced, chi_{k+1}), entry by entry
            chi = ladder[min(k + 1, onset) - first].matrix
            threads -= (traced[..., :, None, :, None] * chi[:, None, :]).reshape(threads.shape)
        if (j := max(k - starts[-1], 0)):
            row[:j] = last[:j]
        live = row[j:j + len(threads)]
        live.reshape(len(threads), d_s, d_s, -1)[:] = traced.swapaxes(-1, -3)
        if k in starts:   # K_{k,0} -= Id, on its diagonal alone
            live[0].reshape(-1)[::d_s ** 2 + 1] -= 1.0
        live *= 1.0 / model.tau
        last = row


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
    """All kernels needed to integrate the master equation to k_max steps, written by one
    ``_kernel_threads`` walk once ``_guard_kernel_threads`` has checked the table and the step."""
    if k_max < 0:
        raise ValueError(f"need k_max >= 0, got k_max={k_max}")
    d_s = model.d_system
    length = KernelTable._length(k_max)
    ladder, starts = _guard_kernel_threads(model, 0, k_max, length * d_s ** 4)
    table = KernelTable(model.tau, d_s, np.empty((length, d_s ** 2, d_s ** 2), dtype=complex))
    _kernel_threads(model, starts, k_max, ladder, (table._row(k, k) for k in range(k_max)))
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

    rho((k+1) tau) = rho(k tau) + tau * sum_m K_{km}[rho((k-m) tau)].  With exact kernels
    this reproduces the embedding trajectory; a rho_S(0) of the wrong shape is a ValueError.
    """
    if k_max < 0:
        raise ValueError(f"need k_max >= 0, got k_max={k_max}")
    history = np.tile(vec(emb._system_state(rho_s0, table.d_system)), (k_max + 1, 1))
    for k in range(k_max):
        row = table._row(k, k)
        history[k + 1] = history[k] + table.tau * (row @ history[k::-1, :, None]).sum(axis=0)[:, 0]
    return list(history.reshape(-1, table.d_system, table.d_system).swapaxes(1, 2).copy())


# -- second-order (correlation-function) kernel ------------------------------

def _double_commutator(h: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """rho -> <A B rho - B rho A - A rho B + rho B A> over a two-particle operator.

    ``h`` is the interaction generator on system (x) particle; A is h acting
    on the later particle, B on the earlier one, and the average is taken
    against corr[i, p, j, q] = <i j|corr|p q> (earlier particle i, p, as
    ``_padded`` returns it).  Every term is bilinear in (A, B), so the average
    only needs X[s,t,u,v] = <A_st B_uv> = sum_ijpq corr[i,p,j,q] h[s,q,t,j] h[u,p,v,i],
    the matrix product X = H2^T C2^T H2 with H2[(j,q),(s,t)] = h[s,q,t,j] and
    C2[(i,p),(j,q)] = corr[i,p,j,q].  The Hermitian-basis expansion
    sum_ab tr[(E_b (x) E_a) corr] S_a (x) S_b with S_a = tr_particle[h (I (x) E_a)]
    gives the same X by completeness of the basis.
    """
    m = corr.shape[0]
    d_s = h.shape[0] // m
    h2 = h.reshape(d_s, m, d_s, m).transpose(3, 1, 0, 2).reshape(m * m, d_s * d_s)
    x = (h2.T @ corr.reshape(m * m, m * m).T @ h2).reshape(d_s, d_s, d_s, d_s)
    eye = np.eye(d_s, dtype=complex)
    ab = np.einsum("sttv->sv", x)
    ba = np.einsum("xtux->ut", x)
    return (kron(eye, ab) - x.transpose(1, 2, 0, 3).reshape(d_s ** 2, d_s ** 2)
            - x.transpose(3, 0, 2, 1).reshape(d_s ** 2, d_s ** 2) + kron(ba.T, eye))


def _effective_hamiltonian(model: CollisionModel) -> np.ndarray:
    """Interaction generator on system (x) (mode (x) purification ancilla); H must be Hermitian."""
    if model.hamiltonian is None:
        raise ValueError("model carries no interaction Hamiltonian")
    if frobenius(model.hamiltonian - dagger(model.hamiltonian)) > DEFAULT_TOL:
        raise ValueError("interaction Hamiltonian must be Hermitian")
    return kron(model.hamiltonian, np.eye(model.env.ancilla_dim))


def _second_order_kernels(model: CollisionModel, h: np.ndarray, k: int, chis):
    """Yield ``second_order_kernel(model, k, k - chi.site)`` for each bond state chi in ``chis``,
    by ascending delay, off one readout walk back from site k (``mps._pair_states``); ``h`` is
    ``_effective_hamiltonian(model)``.  C = pair - tr_late(pair) (x) tr_early(pair)."""
    scale = -(model.g ** 2) * model.tau
    for pair in _pair_states(model.env, k, chis):
        kernel = _double_commutator(h, _padded(model, (pair - _marginal_product(pair)) * scale))
        yield Superoperator(kernel, model.d_system, model.d_system)


def second_order_kernel(model: CollisionModel, k: int, m: int) -> Superoperator:
    """Leading (two-point correlation) contribution to K_{km}, m >= 1.

    -g^2 tau times the double commutator of the interaction generator at the
    latest and at the (m steps earlier) collision, averaged over the
    connected pair correlator C = rho_{k-m,k} - rho_{k-m} (x) rho_k.  The
    average is one matrix product of C with two copies of H (see
    ``_double_commutator``); it equals the expansion of H in any
    Hilbert-Schmidt-orthonormal mode basis weighted by tr[(E_b (x) E_a) C].
    A chain short of k + 1 sites (IndexError) or a model without a Hermitian
    H (ValueError) is refused before the bond ladder to k - m.
    """
    if m < 1 or m > k:
        raise ValueError(f"need 1 <= m <= k, got m={m}, k={k}")
    if why := model._shortfall(k + 1):
        raise IndexError(why)
    h = _effective_hamiltonian(model)
    ladder = _bond_ladder(model, k - m, k - m)
    return next(_second_order_kernels(model, h, k, [_rung(ladder, k - m)]))


def kernel_scan(model: CollisionModel, k: int, m_max: int) -> tuple[list[Superoperator], list]:
    """Lists of K_{k,m} and of its second-order part (None at m = 0 or with no Hamiltonian) for
    m = 0..min(m_max, k), off the one bond ladder from k - m_max to k that the guard walks before
    any collision; the second-order column walks site k's readout back once for every delay."""
    if k < 0 or m_max < 0:
        raise ValueError(f"need k >= 0 and m_max >= 0, got k={k}, m_max={m_max}")
    m_max = min(m_max, k)
    ladder, starts = _guard_kernel_threads(model, k - m_max, k + 1)
    # Every step's row is a prefix of one buffer: the walk ends on the step-k row, all of it.
    row = np.empty((m_max + 1,) + (model.d_system ** 2,) * 2, dtype=complex)
    _kernel_threads(model, starts, k + 1, ladder, (row[:n] for n in range(1, m_max + 2)))
    second = [None] * (m_max + 1)
    if model.hamiltonian is not None:
        chis = [_rung(ladder, k - m) for m in range(1, m_max + 1)]
        second[1:] = _second_order_kernels(model, _effective_hamiltonian(model), k, chis)
    return [Superoperator(x, model.d_system, model.d_system) for x in row], second


# -- stroboscopic (GKSL) limit ------------------------------------------------

def stroboscopic_generator(model: CollisionModel, two_site: str = "correlated") -> Superoperator:
    """Markovian generator of the stroboscopic limit for a homogeneous model.

    The local part is the two-collision channel rate (Phi_12 - Id)/(2 tau) at the stationary
    bond state (with the correlated or the product two-particle state per ``two_site``).  The
    nonlocal tail is the second-order memory kernel summed over every delay: -g^2 tau times the
    double commutator over the summed connected correlator (``mps._summed_correlator``), less
    the half of its delay-1 term that the correlated local part carries.  The mean-field double
    commutator, the average at the product state, makes the stepping a continuous generator
    when the interaction has a nonzero environment average.  L annihilates the trace.
    """
    if two_site not in ("correlated", "product"):
        raise ValueError("two_site must be 'correlated' or 'product'")
    if not model.env.homogeneous:
        raise ValueError("stroboscopic limit needs a homogeneous environment")
    if isinstance(model.unitary, tuple):
        raise ValueError("stroboscopic limit needs a homogeneous interaction")
    h = _effective_hamiltonian(model)

    transfer_spectrum(model.env)   # raises for infinite correlation length
    chi_star = stationary_bond_state(model.env)
    d_s = model.d_system
    g2tau = model.g ** 2 * model.tau

    phi = two_collision_channel(model, chi_star, correlated=(two_site == "correlated")).matrix
    local = (phi - np.eye(d_s ** 2, dtype=complex)) * (1.0 / (2.0 * model.tau))

    pair, summed = _summed_correlator(model.env, chi_star)
    product = _marginal_product(pair)
    mean_field = g2tau * _double_commutator(h, _padded(model, product))
    if two_site == "correlated":   # the local part already carries half of the delay-1 kernel
        summed -= 0.5 * (pair - product)
    tail = _double_commutator(h, _padded(model, summed)) * -g2tau
    generator = local + tail + mean_field
    # Roundoff in L grows with each summed term, so the trace defect is judged at their scale.
    defect = np.max(np.abs(np.trace(generator.reshape(d_s, d_s, -1))))
    if defect > 1e-10 * max(1.0 / model.tau, frobenius(tail), frobenius(mean_field)):
        raise ValueError("assembled generator does not annihilate the trace")
    return Superoperator(generator, d_s, d_s)


def evolve_gksl(generator: Superoperator, rho_s0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) = exp(t L)[rho(0)] by superoperator matrix exponential.

    The generator's Taylor powers are prepared on the first call and reused by
    every later one: each is one coefficient product plus a few squarings.
    """
    v = vec(emb._system_state(rho_s0, generator.in_dim))
    return unvec(generator._exp(float(t)) @ v, generator.out_dim)


def evolve_gksl_grid(generator: Superoperator, rho_s0: np.ndarray, dt: float,
                     n_steps: int) -> list[np.ndarray]:
    """rho(j dt) for j = 0..n_steps: one exp(dt L), then repeated mat-vecs.

    exp(dt L) comes from the generator's cached Taylor powers, numpy only.  A
    nan or inf in L or dt, or an overflow, gives non-finite states, not an error.
    """
    if n_steps < 0:
        raise ValueError(f"need n_steps >= 0, got n_steps={n_steps}")
    v = vec(emb._system_state(rho_s0, generator.in_dim))
    propagator = generator._exp(float(dt))
    states = [unvec(v, generator.out_dim)]
    for _ in range(n_steps):
        v = propagator @ v
        states.append(unvec(v, generator.out_dim))
    return states
