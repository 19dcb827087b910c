"""Brute-force reference dynamics on the full many-body Hilbert space.

Deliberately simple and slow: contract the environment chain into an explicit
state vector (purifying chi0 into a left ancilla; the rest of the chain traces
out the open right bond, so each of its indices is a separate run), apply each
collision unitary to the system plus one site, and partial-trace for the
system state.  Shares no Kraus or propagator code with the embedding, so
agreement between the two is a real two-sided check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import CollisionModel
from .linalg import hermitian_part
from .mps import MpsEnvironment

__all__ = ["OracleRun", "SizeGuardError", "brute_force_trajectory"]

STATE_GUARD = 2 ** 20


class SizeGuardError(ValueError):
    """Requested brute-force run would exceed the state-vector budget."""


@dataclass(frozen=True)
class OracleRun:
    model: CollisionModel
    rho_s0: np.ndarray
    n_sites: int
    k_max: int

    def __post_init__(self):
        object.__setattr__(self, "rho_s0", np.asarray(self.rho_s0, dtype=complex))
        if self.k_max > self.n_sites:
            raise ValueError("cannot collide more times than there are sites")
        env = self.model.env
        if env.length is not None and self.n_sites > env.length:
            raise ValueError(f"environment has only {env.length} sites")
        # One run's vector: (system, purified chi0, sites), each collided site
        # padded to the model's mode space by _pure_trajectory.
        size = self.model.d_system * _bond_rank(env.chi0)
        for k in range(self.n_sites):
            size *= max(env.phys_dim(k), self.model.effective_mode_dim(k) if k < self.k_max else 1)
        if size > STATE_GUARD:
            raise SizeGuardError(
                f"state vector of {size} entries exceeds the {STATE_GUARD} guard"
            )


def _bond_rank(chi0: np.ndarray, tol: float = 1e-12) -> int:
    w = np.linalg.eigvalsh(hermitian_part(chi0))
    return max(int(np.sum(w > tol * max(w.max(), 1.0))), 1)


def _purification_matrix(chi0: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """W with W^T W^* = chi0; rows index the purifying ancilla."""
    w, v = np.linalg.eigh(hermitian_part(chi0))
    keep = w > tol * max(w.max(), 1.0)
    return (np.sqrt(w[keep])[:, None] * v[:, keep].T).astype(complex)


def _environment_state(env: MpsEnvironment, n_sites: int) -> np.ndarray:
    """Pure state tensor of shape (anc_left, d_1, ..., d_n, anc_right)."""
    t = _purification_matrix(env.chi0)
    for k in range(n_sites):
        t = np.tensordot(t, env.site(k), axes=([t.ndim - 1], [1]))
    return t


def brute_force_trajectory(run: OracleRun) -> list[np.ndarray]:
    """System density matrices after 0..k_max collisions, from first principles.

    A mixed initial system state is split into eigenvector runs and the open
    right bond of the chain into one run per bond index (right-canonicality
    makes the rest of the chain trace it out); each pure run keeps the global
    state as a vector for the whole evolution.
    """
    rho = hermitian_part(run.rho_s0)
    w, v = np.linalg.eigh(rho)
    env_state = _environment_state(run.model.env, run.n_sites)
    out = None
    for weight, vec in zip(w, v.T):
        if weight <= 1e-14:
            continue
        for right in range(env_state.shape[-1]):
            psi = np.tensordot(vec, env_state[..., right], axes=0)
            states = _pure_trajectory(run, psi)
            if out is None:
                out = [weight * s for s in states]
            else:
                out = [acc + weight * s for acc, s in zip(out, states)]
    if out is None:
        raise ValueError("initial system state has no positive weight")
    return out


def _pure_trajectory(run: OracleRun, psi: np.ndarray) -> list[np.ndarray]:
    """Collide the pure global state psi; axes 0 system, 1 left ancilla, 2..n+1 sites."""
    model = run.model
    states = [_system_density(psi)]
    d_s = model.d_system
    for k in range(run.k_max):
        site_axis = 2 + k
        d_here = psi.shape[site_axis]
        m_eff = model.effective_mode_dim(k)
        if m_eff > d_here:
            pad = [(0, 0)] * psi.ndim
            pad[site_axis] = (0, m_eff - d_here)
            psi = np.pad(psi, pad)
        # Gather (system, site k) into one leading index; the composite
        # ordering matches the kron layout of the collision unitary.
        moved = np.moveaxis(psi, site_axis, 1)
        shape = moved.shape
        flat = moved.reshape(d_s * m_eff, -1)
        flat = model.effective_unitary(k) @ flat
        psi = np.moveaxis(flat.reshape(shape), 1, site_axis)
        states.append(_system_density(psi))
    return states


def _system_density(psi: np.ndarray) -> np.ndarray:
    rest = list(range(1, psi.ndim))
    return np.tensordot(psi, psi.conj(), axes=(rest, rest))
