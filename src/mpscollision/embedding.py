"""Markovian embedding of collision dynamics on the system + bond space.

One collision maps the joint system-bond density matrix through a CPTP map
whose Kraus operators combine partial matrix elements of the collision
unitary with transposed site tensors:

    A_j = sum_i <j|U|i> (x) B[k,i]^T

The recurrence ``R(k) = sum_j A_j R(k-1) A_j^dag`` with ``R(0) = rho_S (x)
chi0`` reproduces the exact open dynamics of the system; the system state is
the bond partial trace of ``R``.

``linalg._collide`` (public here as ``collide``), a function of the Kraus stack and its
adjoint that picks its arithmetic from the operand, is the package's one implementation of
this map, ``trace_bond`` its bond trace, and ``_traced_walk`` the one walk along the chain:
``trajectory`` runs it from R(0), the embedding's dynamical maps from a basis stack E (x) chi,
both into blocks that are bond-traced at once.  On a chain of one channel whose joint transfer
matrix pays for itself (``_joint_transfer``) one R steps by one product with that matrix, as
the memory-kernel threads do; else the walk collides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, _collide, dagger, frobenius, kron
from .mps import MpsEnvironment, _transfer_matrix, _transfer_pays, _transfer_sum

__all__ = [
    "CollisionModel",
    "CutoffConvergenceError",
    "SizeGuardError",
    "kraus_operators",
    "collide",
    "trace_bond",
    "trajectory",
    "observable_series",
]


_TRACE_BATCH_BYTES = 64 * 1024   # joint states ``_traced_walk`` collides into, then traces at once
_KRAUS_BATCH_BYTES = 64 * 1024   # Kraus stacks ``_kraus_stacks`` builds by one einsum


class CutoffConvergenceError(RuntimeError):
    """Observables moved by more than the allowed shift when the Fock cutoff grew."""


class SizeGuardError(ValueError):
    """A requested brute-force run or kernel table would exceed its size budget."""


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
            if not res <= DEFAULT_TOL:   # a NaN residual fails too
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

    def _shortfall(self, k_max: int) -> str | None:
        """Why the chain or the per-step unitary tuple has fewer than k_max collisions, or None."""
        if self.env.length is not None and k_max > self.env.length:
            return f"collision {self.env.length} beyond environment length {self.env.length}"
        if isinstance(self.unitary, tuple) and k_max > len(self.unitary):
            return f"no unitary for step {len(self.unitary)}"
        return None

    def base_unitary(self, k: int) -> np.ndarray:
        return self.unitary[k] if isinstance(self.unitary, tuple) else self.unitary

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


def _kraus_run(model: CollisionModel, ks) -> np.ndarray:
    """Kraus stacks of the collisions ``ks``, by one einsum: shape (len(ks), m_eff,
    d_S * D_out, d_S * D_in).  Their sites share one shape and their unitary is one matrix."""
    env = model.env
    b = env.site(ks[0])
    dl, dr = b.shape[1], b.shape[2]
    d_s, m, anc = model.d_system, model.mode_dim, env.ancilla_dim
    u4 = model.base_unitary(ks[0]).reshape(d_s, m, d_s, m)
    # Pad environment tensors with zero matrices for mode levels the chain
    # does not populate (photon-creating interactions enlarge the out space).
    # Mode levels are the slow part of the composite physical index, so the
    # populated levels occupy a contiguous leading block.  The unitary acts
    # on the mode only: the purification ancilla c passes through unchanged,
    # which is U (x) I_anc without forming it.
    bpad = np.zeros((len(ks), m, anc, dl, dr), dtype=complex)
    for pad, k in zip(bpad, ks):
        pad[: b.shape[0] // anc] = env.site(k).reshape(-1, anc, dl, dr)
    ops = np.einsum("sqtp,kpcab->kqcsbta", u4, bpad)
    return ops.reshape(len(ks), m * anc, d_s * dr, d_s * dl)


def kraus_operators(model: CollisionModel, k: int) -> np.ndarray:
    """Kraus operators of the k-th collision (0-based), stacked on axis 0.

    Shape (m_eff, d_S * D_out, d_S * D_in): each operator maps system (x)
    bond#k to system (x) bond#(k+1); there is one per output basis state of
    the (ancilla-extended) mode space.
    Completeness sum_j A_j^dag A_j = I follows from unitarity plus
    right-canonicality and is checked in the test suite, not here.
    """
    return _kraus_run(model, (k,))[0]


def _joint_transfer(model: CollisionModel) -> bool:
    """Whether one X walks by ``_transfer_sum`` (the trajectory, the kernel threads): a chain of
    one channel (homogeneous, one unitary) whose joint Kraus stack, m_eff operators on
    system (x) bond, ``_transfer_pays``."""
    return (model.env.homogeneous and not isinstance(model.unitary, tuple) and
            _transfer_pays(model.effective_mode_dim(), model.d_system * len(model.env.chi0)))


def _kraus_stacks(model: CollisionModel, ks: range):
    """Yield (A, A^dag), the Kraus stack of each collision k in ``ks`` and its adjoint (a view).

    A channel is built only when ``model.env.site(k)`` or ``model.base_unitary(k)``
    is a different object from the ones of the last build, so a homogeneous chain
    builds one channel and GHZ three (first, bulk and last site).  Consecutive
    builds whose sites share one shape under one unitary are one ``_kraus_run``
    per ``_KRAUS_BATCH_BYTES`` (a larger stack alone), their adjoints views of one conjugate.
    """
    env, unitary = model.env, model.base_unitary
    site = u = channel = None
    built = iter(())   # the channels of the current run not yet reached
    for k in ks:
        if env.site(k) is not site or unitary(k) is not u:
            site, u = env.site(k), unitary(k)
            channel = next(built, None)
            if channel is None:   # a new run: k and the next sites that each need a build
                stack = 16 * model.effective_mode_dim() * model.d_system ** 2 * site[0].size
                stop, end = min(ks.stop, k + max(1, _KRAUS_BATCH_BYTES // stack)), k + 1
                while (end < stop and env.site(end) is not env.site(end - 1)
                       and env.site(end).shape == site.shape and unitary(end) is u):
                    end += 1
                ops = _kraus_run(model, range(k, end))
                built = zip(ops, ops.conj().transpose(0, 1, 3, 2))
                channel = next(built)
        yield channel


def collide(ops: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j A_j X A_j^dag on one X, as the walk does, or on a stack."""
    return _collide(ops, ops.conj().transpose(0, 2, 1), x)


def trace_bond(x: np.ndarray, d_system: int) -> np.ndarray:
    """Bond partial trace of one system (x) bond operator or a stack of them."""
    d_bond = x.shape[-1] // d_system
    x = x.reshape(x.shape[:-2] + (d_system, d_bond, d_system, d_bond))
    return np.einsum("...sata->...st", x)


def _trace_block(shape: tuple) -> np.ndarray:
    """Room for the joint states of ``shape`` that one ``trace_bond`` takes: ``_TRACE_BATCH_BYTES``
    of them, or one larger state."""
    return np.empty((max(1, _TRACE_BATCH_BYTES // (16 * math.prod(shape))),) + shape, dtype=complex)


def _traced_walk(model: CollisionModel, r: np.ndarray, ks: range):
    """Yield tr_bond of ``r`` and of its image after each collision k in ``ks``.

    ``r`` is one joint matrix or a stack of them.  Each collision goes straight into the next
    slot of a ``_trace_block``; one ``trace_bond`` per full block, or per run of equal shape.
    One matrix on a ``_joint_transfer`` chain steps by one product vec R A with the joint
    ``_transfer_matrix`` A of its one channel, built once (``_transfer_sum``).  Else each
    collision goes through ``_collide`` with the Kraus stacks and adjoints of ``_kraus_stacks``.
    """
    block = _trace_block(r.shape)
    block[0] = r
    i, shape, a = 0, None, None
    for ops, ops_dag in _kraus_stacks(model, ks):
        if ops.shape != shape:
            shape = ops.shape
            a = _transfer_matrix(ops) if r.ndim == 2 and _joint_transfer(model) else None
            if shape[1] != block.shape[-1]:
                yield from trace_bond(block[: i + 1], model.d_system)
                block, i = _trace_block(r.shape[:-2] + (shape[1],) * 2), -1
        if i + 1 == len(block):
            yield from trace_bond(block, model.d_system)
            i = -1
        i += 1
        r = _collide(ops, ops_dag, r, block[i]) if a is None else _transfer_sum(a, r, block[i])
    yield from trace_bond(block[: i + 1], model.d_system)


def trajectory(model: CollisionModel, rho_s0: np.ndarray, k_max: int) -> list[np.ndarray]:
    """System density matrices after 0..k_max collisions: one ``_traced_walk`` from
    R(0) = rho_S(0) (x) chi0.  A negative k_max or a rho_S(0) of the wrong shape
    (ValueError), or a chain or per-step unitary tuple shorter than k_max (IndexError), is
    refused before the first collision."""
    if k_max < 0:
        raise ValueError(f"need k_max >= 0, got k_max={k_max}")
    if why := model._shortfall(k_max):
        raise IndexError(why)
    rho_s0 = _system_state(rho_s0, model.d_system)
    return list(_traced_walk(model, kron(rho_s0, model.env.chi0), range(k_max)))


def _system_state(rho_s0, d_system: int) -> np.ndarray:
    """rho_S(0) as a complex array; a ValueError names any shape but (d_system, d_system)."""
    rho_s0 = np.asarray(rho_s0, dtype=complex)
    if rho_s0.shape != (d_system, d_system):
        raise ValueError(f"system state shape {rho_s0.shape}, expected ({d_system}, {d_system})")
    return rho_s0


def observable_series(states: list[np.ndarray], observable: np.ndarray) -> list[float]:
    """tr(rho O) per step for Hermitian O; complains about imaginary residue."""
    observable = np.asarray(observable, dtype=complex)
    if not frobenius(observable - dagger(observable)) <= DEFAULT_TOL:   # a NaN residual fails too
        raise ValueError("observable must be Hermitian")
    values = []
    for j, rho in enumerate(states):
        val = complex(np.trace(rho @ observable))
        if abs(val.imag) > 1e-10:
            raise ValueError(f"expectation at step {j} has imaginary part {val.imag:.3e}")
        values.append(val.real)
    return values

