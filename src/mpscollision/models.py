"""Case-study environments, interactions and closed-form references.

Environment zoo: a damped two-photon wavepacket (rank 3), the linear photonic
cluster state (rank 2), the AKLT spin-1 chain (rank 2, unbounded), GHZ chains
and arbitrary single-photon wavepackets.  Interactions: excitation-preserving
exchange, the cluster displacement coupling, the spin-exchange (Heisenberg)
coupling, and a mode-controlled unitary.

Conventions: the qubit basis is (ground, excited); spin-1 mode basis is
ordered by J_z eigenvalue (+1, 0, -1); every interaction is the exponential
U = exp(-i g_tau H) of a dimensionless Hermitian generator H.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embedding import CollisionModel
from .linalg import expm_hermitian_generator, kron
from .mps import MpsEnvironment

__all__ = [
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
    "ModelSpec",
    "Interaction",
    "two_photon_env", "cluster_env", "aklt_env", "ghz_env", "single_photon_env",
    "annihilation", "spin1_matrices",
    "interaction",
    "aklt_exact_q", "aklt_markov_q",
    "named_initial_state", "named_observable",
    "depolarization_series",
    "build_model", "environment_for",
    "MODEL_NAMES", "MODEL_PARAMETERS", "INTERACTION_NAMES", "DEFAULT_INTERACTION",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

MODEL_NAMES = ("two_photon", "cluster", "aklt", "ghz", "single_photon")
# The parameters environment_for reads per model, and build_model's fock_cutoff.
MODEL_PARAMETERS = {
    "two_photon": ("tau_over_T1", "tau_over_T2", "g_tau", "g_T1", "g_T2", "fock_cutoff"),
    "cluster": ("fock_cutoff",),
    "aklt": ("fock_cutoff",),
    "ghz": ("n_sites", "fock_cutoff"),
    "single_photon": ("amplitudes", "n_sites", "width", "fock_cutoff"),
}
INTERACTION_NAMES = ("exchange", "cluster", "heisenberg", "controlled")

# Case-study pairing of environment and interaction.
DEFAULT_INTERACTION = {
    "two_photon": "exchange",
    "cluster": "cluster",
    "aklt": "heisenberg",
    "ghz": "exchange",
    "single_photon": "exchange",
}

DEFAULT_FOCK_CUTOFF = 5


@dataclass(frozen=True)
class ModelSpec:
    """Named environment plus its parameter map (mirrors the CLI config)."""

    name: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise ValueError(f"unknown model '{self.name}', expected one of {MODEL_NAMES}")


@dataclass(frozen=True)
class Interaction:
    """Collision unitary with its dimensionless Hermitian generator."""

    name: str
    unitary: np.ndarray
    hamiltonian: np.ndarray
    mode_dim: int


def two_photon_env(tau_over_t1: float, tau_over_t2: float) -> MpsEnvironment:
    """Cascade-emitted two-photon wavepacket, one photon per time bin at most.

    The bond tracks how many photons have been emitted; the diagonal tensor
    damps the not-yet-emitted amplitudes at the two radiative rates.
    """
    if tau_over_t1 <= 0 or tau_over_t2 <= 0:
        raise ValueError("decay parameters tau/T1 and tau/T2 must be positive")
    r1, r2 = np.exp(-tau_over_t1), np.exp(-tau_over_t2)
    b0 = np.diag([r1, r2, 1.0]).astype(complex)
    b1 = np.zeros((3, 3), dtype=complex)
    b1[0, 1] = np.sqrt(1.0 - r1 ** 2)
    b1[1, 2] = np.sqrt(1.0 - r2 ** 2)
    chi0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    return MpsEnvironment((np.stack([b0, b1]),), chi0, homogeneous=True)


def cluster_env() -> MpsEnvironment:
    """Linear photonic cluster state (photon-number entangled time bins)."""
    b0 = np.array([[1, 0], [1, 0]], dtype=complex) / np.sqrt(2)
    b1 = np.array([[0, 1], [0, -1]], dtype=complex) / np.sqrt(2)
    chi0 = np.diag([1.0, 0.0]).astype(complex)
    return MpsEnvironment((np.stack([b0, b1]),), chi0, homogeneous=True)


def aklt_env() -> MpsEnvironment:
    """Infinite AKLT spin-1 chain entered at an intermediate particle.

    Site tensors are ordered by the J_z level (+1, 0, -1); chi0 = I/2 is the
    transfer fixed point for the traced-out half chain.
    """
    s = np.sqrt(2.0 / 3.0)
    b_plus = np.zeros((2, 2), dtype=complex)
    b_plus[0, 1] = s
    b_zero = np.diag([-1.0, 1.0]).astype(complex) / np.sqrt(3.0)
    b_minus = np.zeros((2, 2), dtype=complex)
    b_minus[1, 0] = -s
    chi0 = np.eye(2, dtype=complex) / 2.0
    return MpsEnvironment((np.stack([b_plus, b_zero, b_minus]),), chi0, homogeneous=True)


def ghz_env(n: int) -> MpsEnvironment:
    """GHZ state of n qubits as a finite rank-2 chain."""
    if n < 2:
        raise ValueError("GHZ needs at least 2 sites")
    first = np.zeros((2, 1, 2), dtype=complex)
    first[0, 0, 0] = first[1, 0, 1] = 1.0 / np.sqrt(2)
    bulk = np.zeros((2, 2, 2), dtype=complex)
    bulk[0, 0, 0] = bulk[1, 1, 1] = 1.0
    last = np.zeros((2, 2, 1), dtype=complex)
    last[0, 0, 0] = last[1, 1, 0] = 1.0
    sites = [first] + [bulk] * (n - 2) + [last]
    return MpsEnvironment(tuple(sites), np.eye(1, dtype=complex))


def single_photon_env(amplitudes) -> MpsEnvironment:
    """Single photon spread over n time bins with the given amplitudes.

    The rank-2 bond records whether the photon has been emitted yet; the
    construction is exact for any normalizable amplitude vector.
    """
    c = np.asarray(amplitudes, dtype=complex)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("amplitudes must be a nonempty vector")
    norm = np.linalg.norm(c)
    if norm == 0:
        raise ValueError("amplitude vector must not be zero")
    c = c / norm
    n = c.size
    last = int(np.max(np.nonzero(np.abs(c) > 0)))
    # tail[k] = norm of amplitudes at sites k.. (the not-yet-emitted weight)
    tail = np.sqrt(np.cumsum(np.abs(c[::-1]) ** 2)[::-1])
    sites = []
    for k in range(n):
        # bond basis: 0 = photon still ahead, 1 = photon already emitted;
        # the bond collapses to dimension 1 once emission is certain.
        dl = 2 if 1 <= k <= last else 1
        dr = 2 if k < last else 1
        b = np.zeros((2, dl, dr), dtype=complex)
        if k < last:
            w = c[k] / tail[k]
            r = tail[k + 1] / tail[k]
            b[0, 0, 0] = r
            b[1, 0, dr - 1] = w
            if dl == 2:
                b[0, 1, 1] = 1.0
        elif k == last:
            b[1, 0, 0] = c[k] / tail[k]  # unit modulus: all remaining weight emits
            if dl == 2:
                b[0, 1, 0] = 1.0
        else:
            b[0, 0, 0] = 1.0  # vacuum bins after certain emission
        sites.append(b)
    return MpsEnvironment(tuple(sites), np.eye(1, dtype=complex))


def annihilation(dim: int) -> np.ndarray:
    """Photon annihilation operator on a Fock space truncated at dim levels."""
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return a


def spin1_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-1 projection operators (units of hbar) in the (+1, 0, -1) basis."""
    jx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
    jy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2)
    jz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return jx, jy, jz


def _exchange_hamiltonian(mode_dim: int) -> np.ndarray:
    """Excitation-preserving exchange: the qubit absorbs or emits one photon."""
    a = annihilation(mode_dim)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)  # |e><g|
    return 1j * (kron(sp, a) - kron(sp.conj().T, a.conj().T))


def _cluster_hamiltonian(mode_dim: int) -> np.ndarray:
    a = annihilation(mode_dim)
    return kron(SIGMA_X, 1j * (a - a.conj().T))


def _heisenberg_hamiltonian() -> np.ndarray:
    jx, jy, jz = spin1_matrices()
    return 0.5 * (kron(SIGMA_X, jx) + kron(SIGMA_Y, jy) + kron(SIGMA_Z, jz))


def _controlled_hamiltonian() -> np.ndarray:
    h = np.zeros((6, 6), dtype=complex)
    for idx, sigma in enumerate((SIGMA_X, SIGMA_Y, SIGMA_Z)):
        proj = np.zeros((3, 3), dtype=complex)
        proj[idx, idx] = 1.0
        h += kron(sigma, proj)
    return h


def interaction(name: str, g_tau: float, mode_dim: int | None = None) -> Interaction:
    """Build one of the case-study interactions at coupling g_tau.

    ``mode_dim`` defaults to 3 for the exchange (one incoming photon plus one
    emitted), to the Fock cutoff for the cluster coupling, and is fixed at 3
    for the spin-1 interactions.
    """
    if name == "exchange":
        mode_dim = 3 if mode_dim is None else mode_dim
        if mode_dim < 2:
            raise ValueError("exchange interaction needs mode_dim >= 2")
        h = _exchange_hamiltonian(mode_dim)
    elif name == "cluster":
        mode_dim = DEFAULT_FOCK_CUTOFF if mode_dim is None else mode_dim
        if mode_dim < 2:
            raise ValueError("cluster coupling needs mode_dim >= 2")
        h = _cluster_hamiltonian(mode_dim)
    elif name == "heisenberg":
        if mode_dim not in (None, 3):
            raise ValueError("spin-exchange interaction is defined on a spin-1 mode")
        mode_dim = 3
        h = _heisenberg_hamiltonian()
    elif name == "controlled":
        if mode_dim not in (None, 3):
            raise ValueError("controlled unitary is defined on a spin-1 mode")
        mode_dim = 3
        h = _controlled_hamiltonian()
    else:
        raise ValueError(f"unknown interaction '{name}', expected one of {INTERACTION_NAMES}")
    u = expm_hermitian_generator(h, g_tau)
    return Interaction(name, u, h, mode_dim)


def environment_for(spec: ModelSpec) -> MpsEnvironment:
    p = dict(spec.parameters)
    if spec.name == "two_photon":
        if "tau_over_T1" in p:
            t1, t2 = float(p["tau_over_T1"]), float(p["tau_over_T2"])
        else:
            # rate parameterization: g_tau together with g*T1 and g*T2
            t1 = float(p["g_tau"]) / float(p["g_T1"])
            t2 = float(p["g_tau"]) / float(p["g_T2"])
        return two_photon_env(t1, t2)
    if spec.name == "cluster":
        return cluster_env()
    if spec.name == "aklt":
        return aklt_env()
    if spec.name == "ghz":
        return ghz_env(int(p.get("n_sites", 8)))
    if spec.name == "single_photon":
        if "amplitudes" in p:
            amps = [complex(a[0], a[1]) if isinstance(a, (list, tuple)) else complex(a)
                    for a in p["amplitudes"]]
        else:
            n = int(p.get("n_sites", 8))
            amps = np.exp(-np.arange(n) / max(float(p.get("width", n / 3.0)), 1e-9))
        return single_photon_env(np.asarray(amps))
    raise ValueError(f"unknown model '{spec.name}'")


def build_model(spec: ModelSpec, g_tau: float, interaction_name: str | None = None,
                fock_cutoff: int | None = None, tau: float | None = None) -> CollisionModel:
    """CollisionModel for a named environment with its case-study interaction."""
    env = environment_for(spec)
    name = interaction_name or DEFAULT_INTERACTION[spec.name]
    mode_dim = None
    if name == "cluster":
        mode_dim = int(fock_cutoff or spec.parameters.get("fock_cutoff", DEFAULT_FOCK_CUTOFF))
    inter = interaction(name, g_tau, mode_dim)
    return CollisionModel(env=env, unitary=inter.unitary, d_system=2,
                          mode_dim=inter.mode_dim, g_tau=g_tau, tau=tau,
                          hamiltonian=inter.hamiltonian)


def aklt_exact_q(k: int, g_tau: float) -> float:
    """Closed-form depolarization parameter after k spin-exchange collisions."""
    c = np.cos(1.5 * g_tau)
    x = 2.0 + 7.0 * c
    y = 7.0 + 2.0 * c
    z = 2.0 * np.sqrt(y ** 2 + 27.0 * np.sin(1.5 * g_tau) ** 2)
    return float((0.5 + x / z) * ((y + z) / 27.0) ** k
                 + (0.5 - x / z) * ((y - z) / 27.0) ** k)


def aklt_markov_q(k: int, g_tau: float) -> float:
    """Depolarization parameter per the uncorrelated-environment assumption."""
    return float(((11.0 + 16.0 * np.cos(1.5 * g_tau)) / 27.0) ** k)


def named_initial_state(name: str) -> np.ndarray:
    """Qubit initial states by name: ground, excited, plus, mixed."""
    states = {
        "ground": np.diag([1.0, 0.0]),
        "excited": np.diag([0.0, 1.0]),
        "plus": np.full((2, 2), 0.5),
        "mixed": np.eye(2) / 2.0,
    }
    if name not in states:
        raise ValueError(f"unknown initial state '{name}', expected one of {sorted(states)}")
    return states[name].astype(complex)


def named_observable(name: str) -> np.ndarray:
    """Qubit observables by name.

    ``coherence`` is twice the real off-diagonal in the (|g> +- |e>)/sqrt(2)
    basis, which equals <sigma_z> in the energy basis.
    """
    obs = {
        "excited_population": np.diag([0.0, 1.0]).astype(complex),
        "coherence": SIGMA_Z,
        "sigma_x": SIGMA_X,
        "sigma_y": SIGMA_Y,
        "sigma_z": SIGMA_Z,
    }
    if name not in obs:
        raise ValueError(f"unknown observable '{name}', expected one of {sorted(obs)}")
    return obs[name]


def depolarization_series(states: list[np.ndarray]) -> list[float]:
    """Depolarization parameter q per step, from Bloch-vector projection.

    Assumes dynamics of the form rho(k) = q_k rho(0) + (1 - q_k) I/2 and
    recovers q_k by projecting the Bloch vector onto the initial one.
    """
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    r0 = np.array([np.trace(states[0] @ s).real for s in paulis])
    w = float(r0 @ r0)
    if w < 1e-12:
        raise ValueError("initial state is maximally mixed; depolarization undefined")
    out = []
    for rho in states:
        r = np.array([np.trace(rho @ s).real for s in paulis])
        out.append(float(r @ r0 / w))
    return out
