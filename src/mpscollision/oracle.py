"""Brute-force reference dynamics on the full many-body Hilbert space.

Deliberately simple and slow: contract the environment chain into an explicit
state vector (purifying chi0 into a left ancilla; the rest of the chain traces
out the open right bond, so each of its indices is a separate run), apply each
collision unitary to the system plus one site, and partial-trace for the
system state.  Shares no Kraus or propagator code with the embedding, so
agreement between the two is a real two-sided check.  A run holds the
environment tensor and at most two run vectors; the size guard counts both.
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
        d_s = self.model.d_system
        if self.k_max < 0 or self.n_sites < 0:
            raise ValueError(f"need k_max, n_sites >= 0, got {self.k_max}, {self.n_sites}")
        if self.rho_s0.shape != (d_s, d_s):
            raise ValueError(f"system state shape {self.rho_s0.shape}, expected ({d_s}, {d_s})")
        if self.k_max > self.n_sites:
            raise ValueError("cannot collide more times than there are sites")
        env = self.model.env
        if env.length is not None and self.n_sites > env.length:
            raise ValueError(f"environment has only {env.length} sites")
        if why := self.model._shortfall(self.k_max):
            raise ValueError(why)
        # One run's vector: (system, purified chi0, sites), each collided site
        # padded to the model's mode space by _pure_trajectory; the environment
        # tensor (purified chi0, sites, open right bond) lives through every run.
        rank = _bond_rank(env.chi0)
        size, env_size, right = d_s * rank, rank, env.chi0.shape[0]
        for k in range(self.n_sites):
            size *= max(env.phys_dim(k), self.model.effective_mode_dim(k) if k < self.k_max else 1)
            env_size *= env.phys_dim(k)
            right = env.site(k).shape[2]
        for what, entries in (("state vector", size), ("environment tensor", env_size * right)):
            if entries > STATE_GUARD:
                raise SizeGuardError(f"{what} of {entries} entries exceeds the {STATE_GUARD} guard")


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
            states = _pure_trajectory(run, vec, env_state[..., right])
            if out is None:
                out = [weight * s for s in states]
            else:
                out = [acc + weight * s for acc, s in zip(out, states)]
    if out is None:
        raise ValueError("initial system state has no positive weight")
    return out


def _pure_trajectory(run: OracleRun, vec: np.ndarray, env_run: np.ndarray) -> list[np.ndarray]:
    """Collide psi = vec (x) env_run; axes 0 system, 1 left ancilla, 2..n+1 sites.

    Only this frame holds psi.  Each collision copies it once, padded, with
    (system, site k) leading, so at most two run vectors are alive: that copy
    and the GEMM output, whose system-leading rows also give rho_S.
    """
    model = run.model
    psi = np.multiply.outer(vec, env_run)
    states = [_system_density(psi)]
    d_s = model.d_system
    for k in range(run.k_max):
        moved = np.moveaxis(psi, 2 + k, 1)
        # (system, site k) rows in the kron layout of the collision unitary.
        flat = np.zeros((d_s, model.effective_mode_dim(k)) + moved.shape[2:], dtype=complex)
        flat[:, : moved.shape[1]] = moved
        del psi, moved
        shape = flat.shape
        flat = (model.effective_unitary(k) @ flat.reshape(d_s * shape[1], -1)).reshape(shape)
        states.append(_system_density(flat))
        psi = np.moveaxis(flat, 1, 2 + k)
    return states


def _system_density(psi: np.ndarray) -> np.ndarray:
    """rho_S = F F^dag for F the (system, rest) matrix of a system-leading run state."""
    f = psi.reshape(len(psi), -1)
    return f @ f.conj().T
