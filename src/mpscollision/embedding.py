"""Markovian embedding of collision dynamics on the system + bond space.

One collision maps the joint system-bond density matrix through a CPTP map
whose Kraus operators combine partial matrix elements of the collision
unitary with transposed site tensors:

    A_j = sum_i <j|U|i> (x) B[k,i]^T

The recurrence ``R(k) = sum_j A_j R(k-1) A_j^dag`` with ``R(0) = rho_S (x)
chi0`` reproduces the exact open dynamics of the system; the system state is
the bond partial trace of ``R``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, dagger, frobenius, kron, partial_trace
from .mps import BondState, MpsEnvironment

__all__ = [
    "CollisionModel",
    "SystemBondState",
    "CutoffConvergenceError",
    "kraus_operators",
    "initial_state",
    "step",
    "system_state",
    "bond_state_of",
    "trajectory",
    "observable_series",
    "cutoff_shift",
]


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


@dataclass(frozen=True)
class SystemBondState:
    """Joint density matrix on system (x) bond#step."""

    step: int
    matrix: np.ndarray = field(repr=False)
    d_system: int = 0
    bond_dim: int = 0

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        if self.d_system * self.bond_dim != self.matrix.shape[0] or \
                self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("system-bond matrix does not match declared dimensions")

    def validate(self, tol: float = 1e-10) -> None:
        from .linalg import assert_density_matrix

        assert_density_matrix(self.matrix, tol, f"system-bond state at step {self.step}")


def kraus_operators(model: CollisionModel, k: int) -> list[np.ndarray]:
    """Kraus operators of the k-th collision (0-based).

    Each operator maps system (x) bond#k to system (x) bond#(k+1); there is
    one per output basis state of the (ancilla-extended) mode space.
    Completeness sum_j A_j^dag A_j = I follows from unitarity plus
    right-canonicality and is checked in the test suite, not here.
    """
    env = model.env
    b = env.site(k)
    dl, dr = b.shape[1], b.shape[2]
    d_s = model.d_system
    m_eff = model.effective_mode_dim(k)
    u4 = model.effective_unitary(k).reshape(d_s, m_eff, d_s, m_eff)
    # Pad environment tensors with zero matrices for mode levels the chain
    # does not populate (photon-creating interactions enlarge the out space).
    # Mode levels are the slow part of the composite physical index, so the
    # populated levels occupy a contiguous leading block.
    bpad = np.zeros((m_eff, dl, dr), dtype=complex)
    bpad[: b.shape[0]] = b
    ops = np.einsum("sqtp,pab->qsbta", u4, bpad, optimize=True)
    return [ops[q].reshape(d_s * dr, d_s * dl) for q in range(m_eff)]


def initial_state(model: CollisionModel, rho_s0: np.ndarray) -> SystemBondState:
    """R(0) = rho_S(0) (x) chi0."""
    rho_s0 = np.asarray(rho_s0, dtype=complex)
    if rho_s0.shape != (model.d_system, model.d_system):
        raise ValueError(f"system state shape {rho_s0.shape}, expected "
                         f"({model.d_system}, {model.d_system})")
    matrix = kron(rho_s0, model.env.chi0)
    return SystemBondState(0, matrix, model.d_system, model.env.chi0.shape[0])


def step(model: CollisionModel, state: SystemBondState) -> SystemBondState:
    """Advance the system-bond state through one collision."""
    k = state.step
    if model.env.length is not None and k >= model.env.length:
        raise IndexError(f"collision {k} beyond environment length {model.env.length}")
    ops = kraus_operators(model, k)
    out = np.zeros((ops[0].shape[0], ops[0].shape[0]), dtype=complex)
    for a in ops:
        out += a @ state.matrix @ dagger(a)
    return SystemBondState(k + 1, out, model.d_system, model.env.site(k).shape[2])


def system_state(state: SystemBondState) -> np.ndarray:
    """rho_S = tr_bond R."""
    return partial_trace(state.matrix, (state.d_system, state.bond_dim), keep=(0,))


def bond_state_of(state: SystemBondState) -> BondState:
    """Bond marginal of the joint state (a proper BondState on embedding states)."""
    chi = partial_trace(state.matrix, (state.d_system, state.bond_dim), keep=(1,))
    return BondState(state.step, chi)


def trajectory(model: CollisionModel, rho_s0: np.ndarray, k_max: int) -> list[np.ndarray]:
    """System density matrices after 0..k_max collisions."""
    state = initial_state(model, rho_s0)
    out = [system_state(state)]
    for _ in range(k_max):
        state = step(model, state)
        out.append(system_state(state))
    return out


def observable_series(states: list[np.ndarray], observable: np.ndarray,
                      tol: float = 1e-10) -> list[float]:
    """tr(rho O) per step for Hermitian O; complains about imaginary residue."""
    observable = np.asarray(observable, dtype=complex)
    if frobenius(observable - dagger(observable)) > DEFAULT_TOL:
        raise ValueError("observable must be Hermitian")
    values = []
    for j, rho in enumerate(states):
        val = complex(np.trace(rho @ observable))
        if abs(val.imag) > tol:
            raise ValueError(f"expectation at step {j} has imaginary part {val.imag:.3e}")
        values.append(val.real)
    return values


def cutoff_shift(build_model, rho_s0: np.ndarray, observable: np.ndarray,
                 k_max: int, cutoff_a: int, cutoff_b: int) -> float:
    """Largest observable change between two Fock cutoffs.

    ``build_model(cutoff)`` must return the CollisionModel at that cutoff.
    Used to certify convergence for photon-creating interactions.
    """
    series = []
    for cutoff in (cutoff_a, cutoff_b):
        model = build_model(cutoff)
        series.append(observable_series(trajectory(model, rho_s0, k_max), observable))
    return float(np.max(np.abs(np.array(series[0]) - np.array(series[1]))))
