"""Markovian embedding of collision dynamics on the system + bond space.

One collision maps the joint system-bond density matrix through a CPTP map
whose Kraus operators combine partial matrix elements of the collision
unitary with transposed site tensors:

    A_j = sum_i <j|U|i> (x) B[k,i]^T

The recurrence ``R(k) = sum_j A_j R(k-1) A_j^dag`` with ``R(0) = rho_S (x)
chi0`` reproduces the exact open dynamics of the system; the system state is
the bond partial trace of ``R``.

``collide`` and ``trace_bond`` are the one implementation of this map, and
``_traced_walk`` the one walk along the chain: ``trajectory`` runs it from
R(0), the embedding's dynamical maps from a basis stack E (x) chi, both
traced in batches; the memory-kernel threads collide a stack per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, dagger, frobenius, kron
from .mps import MpsEnvironment

__all__ = [
    "CollisionModel",
    "CutoffConvergenceError",
    "kraus_operators",
    "collide",
    "trace_bond",
    "trajectory",
    "observable_series",
]


_TRACE_BATCH_BYTES = 64 * 1024   # joint states held by ``_traced_walk`` for one bond trace


class CutoffConvergenceError(RuntimeError):
    """Observables moved by more than the allowed shift when the Fock cutoff grew."""


@dataclass(frozen=True)
class CollisionModel:
    """Environment, per-collision unitary and coupling bookkeeping.

    ``unitary`` acts on system (x) mode with ``mode_dim >= env.mode_dim()``;
    either one matrix (homogeneous interaction) or a tuple with one matrix
    per step.  ``g_tau`` is the dimensionless coupling-times-step; ``tau`` is
    the step duration and only sets the time axis and kernel rates.
    ``hamiltonian`` optionally records the dimensionless generator H with
    U = exp(-i g_tau H); kernel perturbation theory and the stroboscopic
    limit need it.
    """

    env: MpsEnvironment
    unitary: object
    d_system: int
    mode_dim: int
    g_tau: float
    tau: float | None = None
    hamiltonian: object = None

    def __post_init__(self):
        if self.tau is None:
            object.__setattr__(self, "tau", float(self.g_tau) if self.g_tau > 0 else 1.0)
        us = self.unitary
        if isinstance(us, (list, tuple)):
            us = tuple(np.asarray(u, dtype=complex) for u in us)
        else:
            us = np.asarray(us, dtype=complex)
        object.__setattr__(self, "unitary", us)
        if self.hamiltonian is not None:
            object.__setattr__(self, "hamiltonian", np.asarray(self.hamiltonian, dtype=complex))
        dim = self.d_system * self.mode_dim
        for u in us if isinstance(us, tuple) else (us,):
            if u.shape != (dim, dim):
                raise ValueError(f"unitary shape {u.shape}, expected {(dim, dim)}")
            res = frobenius(dagger(u) @ u - np.eye(dim))
            if res > DEFAULT_TOL:
                raise ValueError(f"interaction is not unitary (residual {res:.3e})")
        sites = [0] if self.env.homogeneous else range(len(self.env.sites))
        for k in sites:
            if self.env.mode_dim(k) > self.mode_dim:
                raise ValueError(
                    f"mode_dim {self.mode_dim} smaller than environment physical "
                    f"dimension {self.env.mode_dim(k)} at site {k}"
                )

    @property
    def g(self) -> float:
        return self.g_tau / self.tau

    def base_unitary(self, k: int) -> np.ndarray:
        if isinstance(self.unitary, tuple):
            if k >= len(self.unitary):
                raise IndexError(f"no unitary for step {k}")
            return self.unitary[k]
        return self.unitary

    def effective_unitary(self, k: int) -> np.ndarray:
        """Collision unitary on system (x) (mode (x) purification ancilla)."""
        u = self.base_unitary(k)
        anc = self.env.ancilla_dim
        if anc == 1:
            return u
        # kron(U, I_anc) already has the (system, mode, ancilla) axis order
        # that matches the environment's composite physical index.
        return kron(u, np.eye(anc))

    def effective_mode_dim(self, k: int = 0) -> int:
        return self.mode_dim * self.env.ancilla_dim


def kraus_operators(model: CollisionModel, k: int) -> np.ndarray:
    """Kraus operators of the k-th collision (0-based), stacked on axis 0.

    Shape (m_eff, d_S * D_out, d_S * D_in): each operator maps system (x)
    bond#k to system (x) bond#(k+1); there is one per output basis state of
    the (ancilla-extended) mode space.
    Completeness sum_j A_j^dag A_j = I follows from unitarity plus
    right-canonicality and is checked in the test suite, not here.
    """
    env = model.env
    b = env.site(k)
    dl, dr = b.shape[1], b.shape[2]
    d_s, m, anc = model.d_system, model.mode_dim, env.ancilla_dim
    u4 = model.base_unitary(k).reshape(d_s, m, d_s, m)
    # Pad environment tensors with zero matrices for mode levels the chain
    # does not populate (photon-creating interactions enlarge the out space).
    # Mode levels are the slow part of the composite physical index, so the
    # populated levels occupy a contiguous leading block.  The unitary acts
    # on the mode only: the purification ancilla c passes through unchanged,
    # which is U (x) I_anc without forming it.
    bpad = np.zeros((m, anc, dl, dr), dtype=complex)
    bpad[: b.shape[0] // anc] = b.reshape(-1, anc, dl, dr)
    ops = np.einsum("sqtp,pcab->qcsbta", u4, bpad)
    return ops.reshape(m * anc, d_s * dr, d_s * dl)


def _kraus_stacks(model: CollisionModel, ks: range):
    """Yield the Kraus stack and its adjoint stack of each collision k in ``ks``.

    A stack is rebuilt only when ``model.env.site(k)`` or
    ``model.base_unitary(k)`` is a different object from the ones of the last
    build, so a homogeneous chain builds one stack and GHZ three.
    """
    site = u = pair = None
    for k in ks:
        if model.env.site(k) is not site or model.base_unitary(k) is not u:
            site, u = model.env.site(k), model.base_unitary(k)
            ops = kraus_operators(model, k)
            pair = ops, ops.conj().transpose(0, 2, 1)
        yield pair


def collide(ops: np.ndarray, x: np.ndarray, ops_dag: np.ndarray | None = None) -> np.ndarray:
    """sum_j A_j X A_j^dag for one operator X or a stack (..., n_in, n_in); ``ops_dag`` = A^dag."""
    if ops_dag is None:
        ops_dag = ops.conj().transpose(0, 2, 1)
    m, n_out, n_in = ops.shape
    rows = ops.reshape(m * n_out, n_in) @ x   # one GEMM per X, all j
    rows = rows.reshape(-1, m, n_out, n_in).swapaxes(0, 1).reshape(m, -1, n_in)   # regroup by j
    rows = rows @ ops_dag   # one GEMM per j, all X; rebinding frees the regrouped copy
    return np.add.reduce(rows, axis=0).reshape(x.shape[:-2] + (n_out, n_out))


def trace_bond(x: np.ndarray, d_system: int) -> np.ndarray:
    """Bond partial trace of one system (x) bond operator or a stack of them."""
    d_bond = x.shape[-1] // d_system
    x = x.reshape(x.shape[:-2] + (d_system, d_bond, d_system, d_bond))
    return np.einsum("...sata->...st", x)


def _traced_walk(model: CollisionModel, r: np.ndarray, ks: range):
    """Yield tr_bond of ``r`` and of its image after each collision k in ``ks``.

    ``r`` is one joint matrix or a stack of them; it goes through ``collide`` with
    each distinct channel's Kraus and adjoint stacks built once (``_kraus_stacks``).
    Runs of equal shape are bond-traced by one ``trace_bond`` per
    ``_TRACE_BATCH_BYTES`` (a larger state alone).
    """
    held = [r]
    for ops, ops_dag in _kraus_stacks(model, ks):
        r = collide(ops, r, ops_dag)
        if r.shape != held[0].shape or (len(held) + 1) * r.nbytes > _TRACE_BATCH_BYTES:
            yield from trace_bond(np.stack(held), model.d_system)
            held = []
        held.append(r)
    yield from trace_bond(np.stack(held), model.d_system)


def trajectory(model: CollisionModel, rho_s0: np.ndarray, k_max: int) -> list[np.ndarray]:
    """System density matrices after 0..k_max collisions: one ``_traced_walk`` from
    R(0) = rho_S(0) (x) chi0.  A negative k_max or a rho_S(0) of the wrong shape
    (ValueError), or a chain shorter than k_max (IndexError), is refused before the first
    collision."""
    if k_max < 0:
        raise ValueError(f"need k_max >= 0, got k_max={k_max}")
    length = model.env.length
    if length is not None and k_max > length:
        raise IndexError(f"collision {length} beyond environment length {length}")
    rho_s0 = np.asarray(rho_s0, dtype=complex)
    if rho_s0.shape != (model.d_system, model.d_system):
        raise ValueError(f"system state shape {rho_s0.shape}, expected "
                         f"({model.d_system}, {model.d_system})")
    return list(_traced_walk(model, kron(rho_s0, model.env.chi0), range(k_max)))


def observable_series(states: list[np.ndarray], observable: np.ndarray) -> list[float]:
    """tr(rho O) per step for Hermitian O; complains about imaginary residue."""
    observable = np.asarray(observable, dtype=complex)
    if frobenius(observable - dagger(observable)) > DEFAULT_TOL:
        raise ValueError("observable must be Hermitian")
    values = []
    for j, rho in enumerate(states):
        val = complex(np.trace(rho @ observable))
        if abs(val.imag) > 1e-10:
            raise ValueError(f"expectation at step {j} has imaginary part {val.imag:.3e}")
        values.append(val.real)
    return values

