import dataclasses

import numpy as np
import pytest

from mpscollision import models
from mpscollision.embedding import CollisionModel, initial_state, step, trajectory
from mpscollision.linalg import dagger, kron, partial_trace
from mpscollision.master_equation import (
    Superoperator,
    build_kernel_table,
    evolve_gksl,
    memory_kernel,
    projection_P,
    projection_Q,
    propagator_superop,
    second_order_kernel,
    single_collision_channel,
    solve_nz,
    stroboscopic_generator,
    two_collision_channel,
    unvec,
    vec,
)
from mpscollision.models import ModelSpec, build_model
from mpscollision.mps import (
    BondState,
    InfiniteCorrelationLengthError,
    MpsEnvironment,
    decorrelate,
    evolve_bond_state,
    site_reduced_state,
    stationary_bond_state,
    two_site_reduced_state,
)

from conftest import hermitian_basis, random_density, trace_distance


def vacuum_product_model(g_tau=0.4):
    tensor = np.zeros((2, 1, 1), dtype=complex)
    tensor[0, 0, 0] = 1.0
    env = MpsEnvironment((tensor,), np.eye(1, dtype=complex), homogeneous=True)
    inter = models.interaction("exchange", g_tau, 3)
    return CollisionModel(env=env, unitary=inter.unitary, d_system=2, mode_dim=3,
                          g_tau=g_tau, hamiltonian=inter.hamiltonian)


def complex_single_photon_model(g_tau=0.4):
    amps = np.exp(-np.arange(8) / 3.0) * np.exp(1j * 0.7 * np.arange(8))
    inter = models.interaction("exchange", g_tau, 3)
    return CollisionModel(env=models.single_photon_env(amps), unitary=inter.unitary,
                          d_system=2, mode_dim=3, g_tau=g_tau,
                          hamiltonian=inter.hamiltonian)


def two_photon_model():
    return build_model(
        ModelSpec("two_photon", {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9}), g_tau=0.3)


def reference_models():
    """aklt, two_photon and its decorrelated twin (ancilla > 1), complex single_photon."""
    two_photon = two_photon_model()
    decorrelated = dataclasses.replace(two_photon, env=decorrelate(two_photon.env, length=6))
    assert decorrelated.env.ancilla_dim > 1
    return {
        "aklt": build_model(ModelSpec("aklt"), g_tau=0.5),
        "two_photon": two_photon,
        "two_photon_decorrelated": decorrelated,
        "single_photon_complex": complex_single_photon_model(),
    }


def pad(rho, from_dims, to_dims):
    """Embed an operator on a product of small spaces into larger factors."""
    out = np.zeros(list(to_dims) * 2, dtype=complex)
    out[tuple(slice(d) for d in list(from_dims) * 2)] = rho.reshape(list(from_dims) * 2)
    dim = int(np.prod(to_dims))
    return out.reshape(dim, dim)


def padded_site_state(model, chi):
    env = model.env
    anc = env.ancilla_dim
    return pad(site_reduced_state(env, chi), (env.mode_dim(chi.site), anc),
               (model.mode_dim, anc))


def padded_pair_state(model, site_a, site_b, chi):
    env = model.env
    anc = env.ancilla_dim
    return pad(two_site_reduced_state(env, site_a, site_b, chi),
               (env.mode_dim(site_a), anc, env.mode_dim(site_b), anc),
               (model.mode_dim, anc, model.mode_dim, anc))


# -- vectorization and superoperator algebra -----------------------------------

def test_vec_unvec_column_major():
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(vec(x), [1, 3, 2, 4])
    assert np.allclose(unvec(vec(x), 2), x)


def test_conjugation_convention(rng):
    a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    s = Superoperator.conjugation(a, b)
    assert np.allclose(s.matrix, kron(b.conj(), a))
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(s.apply(x), a @ x @ dagger(b))


def test_from_map_matches_kraus(rng):
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    via_kraus = Superoperator.from_kraus(ops)
    via_map = Superoperator.from_map(
        lambda x: sum(a @ x @ dagger(a) for a in ops), 2, 2)
    assert np.max(np.abs(via_kraus.matrix - via_map.matrix)) < 1e-13


def test_superoperator_dimension_checks():
    with pytest.raises(ValueError):
        Superoperator(np.eye(5), 2, 2)
    s = Superoperator.identity(2)
    t = Superoperator.identity(3)
    with pytest.raises(ValueError):
        s @ t
    with pytest.raises(ValueError):
        s + t


# -- propagator ----------------------------------------------------------------

def test_propagator_reproduces_step(rng):
    model = build_model(ModelSpec("aklt"), g_tau=0.5)
    e = propagator_superop(model, 0)
    assert e.is_trace_preserving()
    for _ in range(20):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        from mpscollision.embedding import kraus_operators

        want = sum(a @ x @ dagger(a) for a in kraus_operators(model, 0))
        assert np.max(np.abs(e.apply(x) - want)) < 1e-12
    state = initial_state(model, models.named_initial_state("plus"))
    assert np.max(np.abs(e.apply(state.matrix) - step(model, state).matrix)) < 1e-12


def test_propagator_identity_for_trivial_model():
    model = vacuum_product_model(0.0)
    e = propagator_superop(model, 0)
    assert np.max(np.abs(e.matrix - np.eye(4))) < 1e-13


# -- projections ----------------------------------------------------------------

def test_projection_bond_dim_one_is_identity():
    chi = BondState(0, np.eye(1, dtype=complex))
    p = projection_P(2, chi)
    assert np.max(np.abs(p.matrix - np.eye(4))) < 1e-14


def test_projection_fixed_point_and_algebra(rng):
    env = models.aklt_env()
    chi = evolve_bond_state(env, env.initial_bond_state())
    p = projection_P(2, chi)
    q = projection_Q(2, chi)
    rho = random_density(rng, 2)
    target = kron(rho, chi.matrix)
    assert np.max(np.abs(p.apply(target) - target)) < 1e-13
    for pair in (p @ p - p, q @ q - q, p @ q, q @ p):
        assert np.max(np.abs(pair.matrix)) < 1e-12


def test_projection_algebra_along_trajectory():
    env = models.two_photon_env(0.13, 0.005)
    chi = env.initial_bond_state()
    for _ in range(6):
        chi = evolve_bond_state(env, chi)
        p = projection_P(2, chi)
        q = projection_Q(2, chi)
        assert np.max(np.abs((p @ p - p).matrix)) < 1e-12
        assert np.max(np.abs((p @ q).matrix)) < 1e-12


# -- closed-form superoperators against their defining maps --------------------

@pytest.mark.parametrize("name", ["aklt", "two_photon_decorrelated", "single_photon_complex"])
def test_closed_forms_match_defining_maps(name):
    model = reference_models()[name]
    d_s = model.d_system
    m_eff = model.effective_mode_dim()
    chi = model.env.initial_bond_state()
    for _ in range(3):
        d_bond = chi.matrix.shape[0]
        k = chi.site
        nxt = evolve_bond_state(model.env, chi)
        u1 = model.effective_unitary(k)
        # second collision acts on the second particle: swap it into the first slot
        swap = kron(np.eye(d_s), np.eye(m_eff ** 2).reshape(m_eff, m_eff, m_eff, m_eff)
                    .transpose(1, 0, 2, 3).reshape(m_eff ** 2, m_eff ** 2))
        u21 = swap @ kron(model.effective_unitary(k + 1), np.eye(m_eff)) @ swap \
            @ kron(u1, np.eye(m_eff))
        pair = padded_pair_state(model, k, k + 1, chi)
        product = kron(padded_site_state(model, chi), padded_site_state(model, nxt))

        def two(particles):
            return lambda rho: partial_trace(
                u21 @ kron(rho, particles) @ dagger(u21), (d_s, m_eff ** 2), keep=(0,))

        cases = [
            (projection_P(d_s, chi), Superoperator.from_map(
                lambda r: kron(partial_trace(r, (d_s, d_bond), keep=(0,)), chi.matrix),
                d_s * d_bond, d_s * d_bond)),
            (single_collision_channel(model, chi), Superoperator.from_map(
                lambda rho: partial_trace(
                    u1 @ kron(rho, padded_site_state(model, chi)) @ dagger(u1),
                    (d_s, m_eff), keep=(0,)), d_s, d_s)),
            (two_collision_channel(model, chi), Superoperator.from_map(two(pair), d_s, d_s)),
            (two_collision_channel(model, chi, correlated=False),
             Superoperator.from_map(two(product), d_s, d_s)),
        ]
        for got, want in cases:
            assert np.max(np.abs(got.matrix - want.matrix)) < 1e-13
        chi = nxt


def test_projection_P_matches_defining_map_complex_bond(rng):
    chi = BondState(0, random_density(rng, 3))
    want = Superoperator.from_map(
        lambda r: kron(partial_trace(r, (2, 3), keep=(0,)), chi.matrix), 6, 6)
    assert np.max(np.abs(projection_P(2, chi).matrix - want.matrix)) < 1e-13


# -- memory kernel ----------------------------------------------------------------

def test_kernel_zero_for_uncorrelated_environment():
    model = vacuum_product_model(0.4)
    for k, m in ((1, 1), (3, 1), (4, 2)):
        assert memory_kernel(model, k, m).norm() < 1e-13


def test_kernel_zero_at_zero_coupling():
    model = build_model(ModelSpec("aklt"), g_tau=0.0)
    for m in range(4):
        assert memory_kernel(model, 3, m).norm() < 1e-13


def test_kernel_index_validation():
    model = build_model(ModelSpec("aklt"), g_tau=0.3)
    with pytest.raises(ValueError):
        memory_kernel(model, 2, 3)
    with pytest.raises(ValueError):
        second_order_kernel(model, 2, 0)


def test_nz_reproduces_embedding_aklt():
    model = build_model(ModelSpec("aklt"), g_tau=0.5)
    rho0 = models.named_initial_state("ground")
    table = build_kernel_table(model, 20)
    nz = solve_nz(table, rho0, 20)
    embed = trajectory(model, rho0, 20)
    assert max(trace_distance(a, b) for a, b in zip(nz, embed)) < 1e-8


def test_nz_reproduces_embedding_two_photon():
    model = build_model(
        ModelSpec("two_photon", {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9}), g_tau=0.3)
    rho0 = models.named_initial_state("ground")
    table = build_kernel_table(model, 20)
    nz = solve_nz(table, rho0, 20)
    embed = trajectory(model, rho0, 20)
    assert max(trace_distance(a, b) for a, b in zip(nz, embed)) < 1e-8


def test_nz_with_complex_tensors_and_bond():
    # complex amplitudes + projection chain: transpose/adjoint discipline
    model = complex_single_photon_model()
    rho0 = models.named_initial_state("plus")
    table = build_kernel_table(model, 8)
    nz = solve_nz(table, rho0, 8)
    embed = trajectory(model, rho0, 8)
    assert max(trace_distance(a, b) for a, b in zip(nz, embed)) < 1e-10


def test_nz_reproduces_embedding_whole_zoo():
    cases = [
        (build_model(ModelSpec("cluster"), g_tau=0.6, fock_cutoff=5), 20),
        (build_model(ModelSpec("ghz", {"n_sites": 8}), g_tau=0.4), 8),
        (build_model(ModelSpec("single_photon", {"n_sites": 8}), g_tau=0.4), 8),
    ]
    rho0 = models.named_initial_state("plus")
    for model, k_max in cases:
        table = build_kernel_table(model, k_max)
        nz = solve_nz(table, rho0, k_max)
        embed = trajectory(model, rho0, k_max)
        assert max(trace_distance(a, b) for a, b in zip(nz, embed)) < 1e-8


def test_nz_uncorrelated_equals_channel_composition():
    model = vacuum_product_model(0.5)
    rho0 = models.named_initial_state("excited")
    table = build_kernel_table(model, 10)
    for k in range(10):
        for m in range(1, k + 1):
            assert table.kernel(k, m).norm() < 1e-13
    nz = solve_nz(table, rho0, 10)
    rho = rho0.copy()
    for k in range(10):
        phi = single_collision_channel(model, BondState(k, np.eye(1, dtype=complex)))
        rho = phi.apply(rho)
        assert np.max(np.abs(rho - nz[k + 1])) < 1e-12


def test_solve_nz_zero_kernels_constant(rng):
    from mpscollision.master_equation import KernelTable

    zero = Superoperator(np.zeros((4, 4)), 2, 2)
    table = KernelTable(1.0, 2, {(k, m): zero for k in range(5) for m in range(k + 1)})
    rho0 = random_density(rng, 2)
    for out in solve_nz(table, rho0, 5):
        assert np.max(np.abs(out - rho0)) < 1e-14
    with pytest.raises(KeyError):
        solve_nz(table, rho0, 6)


# -- second-order kernel -----------------------------------------------------------

@pytest.mark.filterwarnings("ignore:interaction Hamiltonian has operator norm")
def test_second_order_zero_for_cluster():
    model = build_model(ModelSpec("cluster"), g_tau=0.6, fock_cutoff=5)
    for k, m in ((1, 1), (3, 1), (5, 3)):
        assert second_order_kernel(model, k, m).norm() < 1e-13


@pytest.mark.filterwarnings("ignore:interaction Hamiltonian has operator norm")
def test_second_order_zero_for_product_environment():
    model = vacuum_product_model(0.4)
    assert second_order_kernel(model, 3, 1).norm() < 1e-13


def test_second_order_geometric_decay_aklt():
    model = build_model(ModelSpec("aklt"), g_tau=0.2)
    norms = [second_order_kernel(model, 6, m).norm() for m in range(1, 7)]
    for a, b in zip(norms, norms[1:]):
        assert abs(b / a - 1.0 / 3.0) < 1e-10


def test_second_order_matches_direct_correlator(rng):
    """Independent evaluation of the same object with dense kron algebra."""
    model = build_model(ModelSpec("aklt"), g_tau=0.3)
    k, m = 3, 2
    kernel = second_order_kernel(model, k, m)

    env = model.env
    h = model.hamiltonian
    d_s, mode = 2, 3
    chi = env.initial_bond_state()
    for _ in range(k - m):
        chi = evolve_bond_state(env, chi)
    pair = two_site_reduced_state(env, k - m, k, chi)
    marg = np.eye(3) / 3
    delta = pair - kron(marg, marg)
    # H lifted to system (x) mode_early (x) mode_late, acting on either mode
    id_mode = np.eye(mode)
    h4 = h.reshape(d_s, mode, d_s, mode)
    h_early_full = np.einsum("sitj,ab->siatjb", h4, id_mode).reshape(
        d_s * mode * mode, d_s * mode * mode)
    h_late_full = np.einsum("satb,ij->siatjb", h4, id_mode).reshape(
        d_s * mode * mode, d_s * mode * mode)

    for _ in range(5):
        rho = random_density(rng, 2)
        lifted = kron(rho, np.eye(mode * mode))
        dc = h_late_full @ (h_early_full @ lifted - lifted @ h_early_full) \
            - (h_early_full @ lifted - lifted @ h_early_full) @ h_late_full
        # trace modes against the connected pair state
        dc4 = dc.reshape(d_s, mode * mode, d_s, mode * mode)
        correlated = np.einsum("sitj,ji->st", dc4, delta)
        want = -(model.g ** 2) * model.tau * correlated
        assert np.max(np.abs(kernel.apply(rho) - want)) < 1e-12


@pytest.mark.filterwarnings("ignore:interaction Hamiltonian has operator norm")
@pytest.mark.parametrize("name", ["aklt", "two_photon", "single_photon_complex"])
def test_second_order_matches_basis_expansion(name):
    """The contraction equals the Hermitian-basis expansion of the interaction."""
    model = reference_models()[name]
    k, m = 5, 2
    d_s, mode = model.d_system, model.mode_dim
    chi = model.env.initial_bond_state()
    for _ in range(k - m):
        chi = evolve_bond_state(model.env, chi)
    late = chi
    for _ in range(m):
        late = evolve_bond_state(model.env, late)
    connected = (padded_pair_state(model, k - m, k, chi)
                 - kron(padded_site_state(model, chi), padded_site_state(model, late)))
    conn4 = connected.reshape(mode, mode, mode, mode)
    h4 = model.hamiltonian.reshape(d_s, mode, d_s, mode)
    basis = hermitian_basis(mode)
    s_ops = [np.einsum("sitj,ji->st", h4, e) for e in basis]
    eye = np.eye(d_s)
    want = np.zeros((d_s ** 2, d_s ** 2), dtype=complex)
    for eb, s_b in zip(basis, s_ops):
        for ea, s_a in zip(basis, s_ops):
            # E_b at the earlier site, E_a at the later one
            w = np.einsum("pi,qj,ijpq->", eb, ea, conn4)
            want += w * (kron(eye, s_a @ s_b) - kron(s_a.T, s_b)
                         - kron(s_b.T, s_a) + kron((s_b @ s_a).T, eye))
    want *= -(model.g ** 2) * model.tau
    assert np.max(np.abs(want)) > 1e-3
    assert np.max(np.abs(second_order_kernel(model, k, m).matrix - want)) < 1e-13


def test_exact_kernel_approaches_second_order():
    residuals = {}
    for gt in (0.2, 0.1):
        model = build_model(ModelSpec("aklt"), g_tau=gt)
        diff = memory_kernel(model, 3, 1) - second_order_kernel(model, 3, 1)
        residuals[gt] = diff.norm()
    ratio = residuals[0.2] / residuals[0.1]
    assert 6.0 <= ratio <= 10.0


def test_exact_kernel_decay_rate_small_coupling():
    model = build_model(ModelSpec("aklt"), g_tau=0.1)
    norms = [memory_kernel(model, 6, m).norm() for m in range(1, 7)]
    for a, b in zip(norms, norms[1:]):
        assert abs(b / a - 1.0 / 3.0) < 0.05 * (1.0 / 3.0)  # within 5% of |lambda2|


def test_second_order_warns_for_large_hamiltonian():
    model = build_model(ModelSpec("cluster"), g_tau=0.3, fock_cutoff=5)
    with pytest.warns(UserWarning):
        second_order_kernel(model, 2, 1)


# -- stroboscopic limit ---------------------------------------------------------

def test_stroboscopic_uncorrelated_is_local_only():
    model = vacuum_product_model(0.4)
    gen = stroboscopic_generator(model)
    chi_star = stationary_bond_state(model.env)
    local = (two_collision_channel(model, chi_star)
             - Superoperator.identity(2)) * (1.0 / (2.0 * model.tau))
    assert np.max(np.abs((gen - local).matrix)) < 1e-12


def test_stroboscopic_generator_annihilates_trace():
    for name, kwargs in (("heisenberg", {}), ("controlled", {})):
        model = build_model(ModelSpec("aklt"), g_tau=0.1, interaction_name=name)
        gen = stroboscopic_generator(model, **kwargs)
        assert gen.annihilates_trace(1e-10)


def test_stroboscopic_norm_vanishes_for_heisenberg():
    # fixed g^2 tau: the AKLT spin-exchange generator scales out
    norms = []
    for gt in (0.2, 0.1, 0.05):
        tau = gt ** 2 / 0.1
        model = build_model(ModelSpec("aklt"), g_tau=gt, tau=tau)
        norms.append(stroboscopic_generator(model).norm())
    assert norms[1] < 0.3 * norms[0]
    assert norms[2] < 0.3 * norms[1]


def test_stroboscopic_requires_finite_correlation_length():
    inter = models.interaction("exchange", 0.3, 3)
    env = models.ghz_env(6)
    bulk = MpsEnvironment((env.sites[2],), np.eye(2, dtype=complex) / 2,
                          homogeneous=True)
    model = CollisionModel(env=bulk, unitary=inter.unitary, d_system=2, mode_dim=3,
                           g_tau=0.3, hamiltonian=inter.hamiltonian)
    with pytest.raises(InfiniteCorrelationLengthError):
        stroboscopic_generator(model)


def test_stroboscopic_two_site_variants_agree_at_second_order():
    model = build_model(ModelSpec("aklt"), g_tau=0.05, interaction_name="controlled")
    a = stroboscopic_generator(model, two_site="correlated")
    b = stroboscopic_generator(model, two_site="product")
    # variants differ only beyond second order in the coupling
    assert np.max(np.abs((a - b).matrix)) < 10 * model.g_tau ** 3 / model.tau


def test_central_difference_matches_generator():
    # (rho(k+1) - rho(k-1)) / 2 tau tracks L[rho(k)] to one order better
    # when g tau halves at fixed g^2 tau (transient excluded).
    rho0 = models.named_initial_state("ground")

    def residual(g_tau):
        tau = g_tau ** 2 / 0.1
        model = build_model(ModelSpec("aklt"), g_tau=g_tau, tau=tau,
                            interaction_name="controlled")
        gen = stroboscopic_generator(model)
        k_max = int(round(4.0 / g_tau))
        states = trajectory(model, rho0, k_max)
        worst = 0.0
        for k in range(max(1, k_max // 10), k_max):
            diff = (states[k + 1] - states[k - 1]) / (2.0 * model.tau)
            worst = max(worst, float(np.max(np.abs(diff - gen.apply(states[k])))))
        return worst

    r_coarse = residual(0.1)
    r_fine = residual(0.05)
    assert 1.5 <= r_coarse / r_fine <= 2.5


def test_evolve_gksl_properties(rng):
    model = vacuum_product_model(0.4)
    gen = stroboscopic_generator(model)
    rho = random_density(rng, 2)
    assert np.max(np.abs(evolve_gksl(gen, rho, 0.0) - rho)) < 1e-14
    zero = Superoperator(np.zeros((4, 4)), 2, 2)
    assert np.max(np.abs(evolve_gksl(zero, rho, 3.7) - rho)) < 1e-14
    ab = evolve_gksl(gen, rho, 0.9)
    a_then_b = evolve_gksl(gen, evolve_gksl(gen, rho, 0.4), 0.5)
    assert np.max(np.abs(ab - a_then_b)) < 1e-10
    assert abs(np.trace(evolve_gksl(gen, rho, 2.0)) - 1.0) < 1e-10
