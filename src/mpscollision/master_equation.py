"""Discrete memory-kernel master equation and its stroboscopic (GKSL) limit.

Superoperators are stored as matrices acting on column-vectorized operators
(vec stacks columns, so the conjugation X -> A X B^dag has matrix
``kron(conj(B), A)``).  The memory kernel splits into a local single-collision
term and nonlocal terms built by threading complementary projections between
collision propagators; by construction the resulting time-convolution
recursion reproduces the embedding trajectory exactly.

Every superoperator is built in closed form: collision channels are one
einsum of the collision unitary with the particle state, and the projections
are reshapes and Kraus sums.  The second-order kernel ties memory to the
environment's connected pair correlator C: it needs H only through
X[s,t,u,v] = sum_ijpq C[i,j,p,q] H[s,q,t,j] H[u,p,v,i], which by completeness
of any Hilbert-Schmidt-orthonormal mode basis {E_a} equals the expansion
sum_ab tr[(E_b (x) E_a) C] S_a (x) S_b with S_a = tr_mode[H (I (x) E_a)].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import embedding as emb
from .embedding import CollisionModel
from .linalg import DEFAULT_TOL, dagger, frobenius, kron
from .mps import (
    BondState,
    MpsEnvironment,
    evolve_bond_state,
    site_reduced_state,
    stationary_bond_state,
    transfer_spectrum,
    two_site_reduced_state,
)

__all__ = [
    "Superoperator",
    "KernelTable",
    "vec",
    "unvec",
    "propagator_superop",
    "projection_P",
    "projection_Q",
    "single_collision_channel",
    "two_collision_channel",
    "memory_kernel",
    "build_kernel_table",
    "solve_nz",
    "second_order_kernel",
    "stroboscopic_generator",
    "evolve_gksl",
]


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
    def conjugation(cls, a: np.ndarray, b: np.ndarray) -> "Superoperator":
        """X -> A X B^dag."""
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        return cls(kron(b.conj(), a), a.shape[1], a.shape[0])

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

    def trace_defect(self) -> float:
        """How far tr(S[X]) is from tr(X) over a full operator basis."""
        tr_out = vec(np.eye(self.out_dim)).conj() @ self.matrix
        tr_in = vec(np.eye(self.in_dim)).conj()
        return float(np.max(np.abs(tr_out - tr_in)))

    def is_trace_preserving(self, tol: float = 1e-10) -> bool:
        return self.trace_defect() <= tol

    def annihilates_trace(self, tol: float = 1e-10) -> bool:
        tr_out = vec(np.eye(self.out_dim)).conj() @ self.matrix
        return float(np.max(np.abs(tr_out))) <= tol


# -- building blocks -------------------------------------------------------

def propagator_superop(model: CollisionModel, k: int) -> Superoperator:
    """Matrix of the k-th collision map on system (x) bond operators."""
    return Superoperator.from_kraus(emb.kraus_operators(model, k))


def _embed_superop(chi: np.ndarray, d_system: int) -> Superoperator:
    """X -> X (x) chi."""
    d_bond = chi.shape[0]
    eye = np.eye(d_system, dtype=complex)
    mat = np.einsum("tu,sv,ab->tbsauv", eye, eye, chi)
    return Superoperator(mat.reshape((d_system * d_bond) ** 2, d_system ** 2),
                         d_system, d_system * d_bond)


def _trace_bond_superop(d_system: int, bond_dim: int) -> Superoperator:
    """X -> tr_bond X, with Kraus operators I (x) <b|."""
    eye = np.eye(d_system, dtype=complex)
    return Superoperator.from_kraus([kron(eye, row) for row in np.eye(bond_dim)[:, None, :]])


def projection_P(d_system: int, chi: BondState) -> Superoperator:
    """R -> tr_bond[R] (x) chi_k; idempotent on system-bond operators."""
    d_bond = chi.matrix.shape[0]
    return _embed_superop(chi.matrix, d_system) @ _trace_bond_superop(d_system, d_bond)


def projection_Q(d_system: int, chi: BondState) -> Superoperator:
    dim = d_system * chi.matrix.shape[0]
    return Superoperator.identity(dim) - projection_P(d_system, chi)


def _bond_ladder(env: MpsEnvironment, k_max: int) -> list[BondState]:
    chis = [env.initial_bond_state()]
    for _ in range(k_max):
        chis.append(evolve_bond_state(env, chis[-1]))
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


def _collision_channel(u: np.ndarray, particles: np.ndarray) -> Superoperator:
    """rho -> tr_env[U (rho (x) particles) U^dag] for U on system (x) env."""
    d_env = particles.shape[0]
    d_s = u.shape[0] // d_env
    u4 = u.reshape(d_s, d_env, d_s, d_env)
    mat = np.einsum("setf,fg,aebg->asbt", u4, particles, u4.conj(), optimize=True)
    return Superoperator(mat.reshape(d_s ** 2, d_s ** 2), d_s, d_s)


def single_collision_channel(model: CollisionModel, chi: BondState) -> Superoperator:
    """Channel of one collision with the current particle's reduced state."""
    return _collision_channel(model.effective_unitary(chi.site),
                              _particle_state(model, (chi.site,), chi))


def two_collision_channel(model: CollisionModel, chi: BondState,
                          correlated: bool = True) -> Superoperator:
    """Channel of two sequential collisions with the joint two-particle state."""
    k = chi.site
    if not correlated:
        later = single_collision_channel(model, evolve_bond_state(model.env, chi))
        return later @ single_collision_channel(model, chi)
    d_s = model.d_system
    m_eff = model.effective_mode_dim(k)
    u1 = model.effective_unitary(k).reshape(d_s, m_eff, d_s, m_eff)
    u2 = model.effective_unitary(k + 1).reshape(d_s, m_eff, d_s, m_eff)
    # U_{k+1} acts on the second particle after U_k acted on the first.
    u21 = np.einsum("scxd,xatb->sactbd", u2, u1).reshape(d_s * m_eff ** 2, d_s * m_eff ** 2)
    return _collision_channel(u21, _particle_state(model, (k, k + 1), chi))


# -- exact memory kernel -----------------------------------------------------

def memory_kernel(model: CollisionModel, k: int, m: int,
                  _ladder=None, _props=None) -> Superoperator:
    """Exact discrete memory kernel K_{km} on system operators (0-based k).

    m = 0 is the local term (latest collision relative to the free-evolved
    bond); m >= 1 threads m complementary projections between collision
    propagators, which isolates exactly the correlation-carried part of the
    dynamics.  Scaled by 1/tau so the kernels are rates.
    """
    if m < 0 or m > k:
        raise ValueError(f"need 0 <= m <= k, got m={m}, k={k}")
    ladder = _ladder if _ladder is not None else _bond_ladder(model.env, k + 1)
    d_s = model.d_system
    tau = model.tau
    if m == 0:
        phi = single_collision_channel(model, ladder[k])
        return (phi - Superoperator.identity(d_s)) * (1.0 / tau)

    def prop(j):
        if _props is not None:
            return _props(j)
        return propagator_superop(model, j)

    comp = _embed_superop(ladder[k - m].matrix, d_s)
    for j in range(k - m, k):
        comp = projection_Q(d_s, ladder[j + 1]) @ prop(j) @ comp
    bond_out = model.env.site(k).shape[2]
    comp = _trace_bond_superop(d_s, bond_out) @ prop(k) @ comp
    return comp * (1.0 / tau)


@dataclass(frozen=True)
class KernelTable:
    """Memory kernels K_{km} for every step k < k_max and delay m <= k."""

    tau: float
    d_system: int
    entries: dict

    def kernel(self, k: int, m: int) -> Superoperator:
        try:
            return self.entries[(k, m)]
        except KeyError:
            raise KeyError(f"kernel table has no entry for (k={k}, m={m})") from None


def build_kernel_table(model: CollisionModel, k_max: int) -> KernelTable:
    """All kernels needed to integrate the master equation to k_max steps.

    Entries are independent given the precomputed bond ladder and propagators
    and could be filled concurrently; this fills them in a simple loop.
    """
    ladder = _bond_ladder(model.env, k_max)
    homog = model.env.homogeneous and not isinstance(model.unitary, tuple)
    cache = {}

    def props(j):
        key = 0 if homog else j
        if key not in cache:
            cache[key] = propagator_superop(model, key)
        return cache[key]

    entries = {}
    for k in range(k_max):
        for m in range(k + 1):
            entries[(k, m)] = memory_kernel(model, k, m, _ladder=ladder, _props=props)
    return KernelTable(model.tau, model.d_system, entries)


def solve_nz(table: KernelTable, rho_s0: np.ndarray, k_max: int) -> list[np.ndarray]:
    """Integrate the discrete time-convolution master equation.

    rho((k+1) tau) = rho(k tau) + tau * sum_m K_{km}[rho((k-m) tau)].
    With exact kernels this reproduces the embedding trajectory.
    """
    rho = np.asarray(rho_s0, dtype=complex)
    states = [rho]
    for k in range(k_max):
        increment = np.zeros_like(rho)
        for m in range(k + 1):
            increment += table.kernel(k, m).apply(states[k - m])
        states.append(states[k] + table.tau * increment)
    return states


# -- second-order (correlation-function) kernel ------------------------------

def _double_commutator(h: np.ndarray, corr: np.ndarray) -> Superoperator:
    """rho -> <A B rho - B rho A - A rho B + rho B A> over a two-particle operator.

    ``h`` is the interaction generator on system (x) particle; A is h acting
    on the later particle, B on the earlier one, and the average is taken
    against ``corr`` (earlier particle first).  Every term is bilinear in
    (A, B), so the average only needs
    X[s,t,u,v] = <A_st B_uv> = sum_ijpq corr[i,j,p,q] h[s,q,t,j] h[u,p,v,i]:
    one contraction, where the Hermitian-basis expansion
    sum_ab tr[(E_b (x) E_a) corr] S_a (x) S_b with S_a = tr_particle[h (I (x) E_a)]
    gives the same X by completeness of the basis.
    """
    m = int(round(np.sqrt(corr.shape[0])))
    d_s = h.shape[0] // m
    h4 = h.reshape(d_s, m, d_s, m)
    x = np.einsum("ijpq,sqtj,upvi->stuv", corr.reshape(m, m, m, m), h4, h4, optimize=True)
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


def second_order_kernel(model: CollisionModel, k: int, m: int) -> Superoperator:
    """Leading (two-point correlation) contribution to K_{km}, m >= 1.

    -g^2 tau times the double commutator of the interaction generator at the
    latest and at the (m steps earlier) collision, averaged over the
    connected pair correlator C = rho_{k-m,k} - rho_{k-m} (x) rho_k.  The
    average is one tensor contraction of C with two copies of H (see
    ``_double_commutator``); it equals the expansion of H in any
    Hilbert-Schmidt-orthonormal mode basis weighted by tr[(E_b (x) E_a) C].
    """
    if m < 1 or m > k:
        raise ValueError(f"need 1 <= m <= k, got m={m}, k={k}")
    h = _effective_hamiltonian(model)
    if frobenius(model.hamiltonian - dagger(model.hamiltonian)) > DEFAULT_TOL:
        raise ValueError("interaction Hamiltonian must be Hermitian")
    hnorm = float(np.max(np.abs(np.linalg.eigvalsh(model.hamiltonian))))
    if hnorm > 1.0 + 1e-9:
        warnings.warn(
            f"interaction Hamiltonian has operator norm {hnorm:.3f} > 1; the "
            "dimensionless normalization convention is violated",
            stacklevel=2,
        )
    ladder = _bond_ladder(model.env, k)
    early = _particle_state(model, (k - m,), ladder[k - m])
    late = _particle_state(model, (k,), ladder[k])
    pair = _particle_state(model, (k - m, k), ladder[k - m])
    return _double_commutator(h, pair - kron(early, late)) * (-(model.g ** 2) * model.tau)


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

    spectrum = transfer_spectrum(model.env)  # raises for infinite correlation length
    lam = spectrum.lambda2
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
    generator = local + g2tau * weight * k1 + g2tau * adh2

    if not generator.annihilates_trace():
        raise ValueError("assembled generator does not annihilate the trace")
    return generator


def evolve_gksl(generator: Superoperator, rho_s0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) = exp(t L)[rho(0)] by superoperator matrix exponential."""
    rho0 = np.asarray(rho_s0, dtype=complex)
    propagator = scipy.linalg.expm(float(t) * generator.matrix)
    return unvec(propagator @ vec(rho0), generator.out_dim)
