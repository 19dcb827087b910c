import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from mpscollision import embedding, master_equation, models, mps
from mpscollision.embedding import CollisionModel, collide, kraus_operators, trace_bond, trajectory
from mpscollision.linalg import dagger, frobenius, kron
from mpscollision.master_equation import (
    KERNEL_GUARD,
    Superoperator,
    build_kernel_table,
    evolve_gksl,
    evolve_gksl_grid,
    kernel_scan,
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
    transfer_spectrum,
)
from mpscollision.oracle import SizeGuardError

from conftest import (
    hermitian_basis,
    pair_state,
    partial_trace,
    random_density,
    random_hermitian,
    reference_kernel_scan_row,
    reference_kernel_table,
    reference_solve_nz,
    trace_distance,
)


def vacuum_product_model(g_tau=0.4):
    tensor = np.zeros((2, 1, 1), dtype=complex)
    tensor[0, 0, 0] = 1.0
    env = MpsEnvironment((tensor,), np.eye(1, dtype=complex), homogeneous=True)
    inter = models.interaction("exchange", g_tau, 3)
    return CollisionModel(env=env, unitary=inter.unitary, d_system=2, mode_dim=3,
                          g_tau=g_tau, hamiltonian=inter.hamiltonian)


def complex_single_photon_model(g_tau=0.4, n_sites=8):
    amps = np.exp(-np.arange(n_sites) / 3.0) * np.exp(1j * 0.7 * np.arange(n_sites))
    inter = models.interaction("exchange", g_tau, 3)
    return CollisionModel(env=models.single_photon_env(amps), unitary=inter.unitary,
                          d_system=2, mode_dim=3, g_tau=g_tau,
                          hamiltonian=inter.hamiltonian)


def random_spin1_chain(rng, d_bond, g_tau=0.4):
    """Homogeneous chain of one complex QR isometry, chi0 = I/D, heisenberg coupling."""
    g = rng.normal(size=(3 * d_bond, d_bond)) + 1j * rng.normal(size=(3 * d_bond, d_bond))
    q, _ = np.linalg.qr(g)
    site = q.conj().T.reshape(d_bond, 3, d_bond).transpose(1, 0, 2)
    env = MpsEnvironment((site,), np.eye(d_bond) / d_bond, homogeneous=True)
    inter = models.interaction("heisenberg", g_tau)
    return CollisionModel(env=env, unitary=inter.unitary, d_system=2, mode_dim=3,
                          g_tau=g_tau, hamiltonian=inter.hamiltonian)


def two_photon_model():
    return build_model(
        ModelSpec("two_photon", {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9}), g_tau=0.3)


def onset(model, k_max):
    """The onset s* of a kernel table to k_max steps: the first thread every later one repeats."""
    return len(master_equation._bond_ladder(model, k_max - 1)) - 1


def with_stationary_chi0(model):
    """``model`` with chi_0 = ``stationary_bond_state``: a fixed point to roundoff, not bitwise."""
    env = dataclasses.replace(model.env, chi0=stationary_bond_state(model.env).matrix)
    return dataclasses.replace(model, env=env)


def reference_models(length=6, n_sites=8):
    """aklt, two_photon and its decorrelated twin (ancilla > 1), complex single_photon,
    and a D = 16 random spin-1 chain.

    ``length`` sites of the decorrelated twin and ``n_sites`` of the complex
    single_photon chain are available to collide with.
    """
    two_photon = two_photon_model()
    decorrelated = dataclasses.replace(two_photon,
                                       env=decorrelate(two_photon.env, length=length))
    assert decorrelated.env.ancilla_dim > 1
    return {
        "aklt": build_model(ModelSpec("aklt"), g_tau=0.5),
        "two_photon": two_photon,
        "two_photon_decorrelated": decorrelated,
        "single_photon_complex": complex_single_photon_model(n_sites=n_sites),
        "spin1_D16": random_spin1_chain(np.random.default_rng(16), 16),
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


def padded_pair_state(model, site_b, chi):
    env = model.env
    anc = env.ancilla_dim
    return pad(pair_state(env, site_b, chi),
               (env.mode_dim(chi.site), anc, env.mode_dim(site_b), anc),
               (model.mode_dim, anc, model.mode_dim, anc))


# -- vectorization and superoperator algebra -----------------------------------

def test_vec_unvec_column_major():
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(vec(x), [1, 3, 2, 4])
    assert np.allclose(unvec(vec(x), 2), x)


def test_conjugation_convention(rng):
    a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    s = Superoperator.from_kraus([a])
    assert (s.in_dim, s.out_dim) == (2, 3)
    assert np.allclose(s.matrix, kron(a.conj(), a))
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(s.apply(x), a @ x @ dagger(a))


def test_from_map_matches_kraus(rng):
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    via_kraus = Superoperator.from_kraus(ops)
    via_map = Superoperator.from_map(
        lambda x: sum(a @ x @ dagger(a) for a in ops), 2, 2)
    assert np.max(np.abs(via_kraus.matrix - via_map.matrix)) < 1e-13


def test_superoperator_dimension_checks():
    with pytest.raises(ValueError):
        Superoperator(np.eye(5), 2, 2)
    s = Superoperator(np.eye(4), 2, 2)
    t = Superoperator(np.eye(9), 3, 3)
    with pytest.raises(ValueError):
        s @ t


# -- propagator ----------------------------------------------------------------

def test_propagator_reproduces_step(rng):
    model = build_model(ModelSpec("aklt"), g_tau=0.5)
    e = Superoperator.from_kraus(kraus_operators(model, 0))
    # Trace preserving: tr (E - Id)[X] = 0 for every input X.
    defect = np.trace((e.matrix - np.eye(16)).reshape(4, 4, -1))
    assert np.max(np.abs(defect)) <= 1e-10
    for _ in range(20):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        want = sum(a @ x @ dagger(a) for a in kraus_operators(model, 0))
        assert np.max(np.abs(e.apply(x) - want)) < 1e-12
    r = kron(models.named_initial_state("plus"), model.env.chi0)
    assert np.max(np.abs(e.apply(r) - collide(kraus_operators(model, 0), r))) < 1e-12


def test_propagator_identity_for_trivial_model():
    model = vacuum_product_model(0.0)
    e = Superoperator.from_kraus(kraus_operators(model, 0))
    assert np.max(np.abs(e.matrix - np.eye(4))) < 1e-13


# -- collision channels against their defining maps ----------------------------

@pytest.mark.parametrize("name", ["aklt", "two_photon_decorrelated", "single_photon_complex"])
def test_closed_forms_match_defining_maps(name):
    model = reference_models()[name]
    d_s = model.d_system
    m_eff = model.effective_mode_dim()
    chi = model.env.initial_bond_state()
    for _ in range(3):
        k = chi.site
        nxt = evolve_bond_state(model.env, chi)
        u1 = model.effective_unitary(k)
        # second collision acts on the second particle: swap it into the first slot
        swap = kron(np.eye(d_s), np.eye(m_eff ** 2).reshape(m_eff, m_eff, m_eff, m_eff)
                    .transpose(1, 0, 2, 3).reshape(m_eff ** 2, m_eff ** 2))
        u21 = swap @ kron(model.effective_unitary(k + 1), np.eye(m_eff)) @ swap \
            @ kron(u1, np.eye(m_eff))
        pair = padded_pair_state(model, k + 1, chi)
        product = kron(padded_site_state(model, chi), padded_site_state(model, nxt))

        def two(particles):
            return lambda rho: partial_trace(
                u21 @ kron(rho, particles) @ dagger(u21), (d_s, m_eff ** 2), keep=(0,))

        cases = [
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


# -- memory kernel ----------------------------------------------------------------

def test_kernel_zero_for_uncorrelated_environment():
    table = build_kernel_table(vacuum_product_model(0.4), 5)
    for k, m in ((1, 1), (3, 1), (4, 2)):
        assert table.kernel(k, m).norm() < 1e-13


def test_kernel_zero_at_zero_coupling():
    model = build_model(ModelSpec("aklt"), g_tau=0.0)
    kernels, _ = kernel_scan(model, 3, 3)
    assert len(kernels) == 4
    for kernel in kernels:
        assert kernel.norm() < 1e-13


def test_kernel_index_validation():
    model = build_model(ModelSpec("aklt"), g_tau=0.3)
    with pytest.raises(ValueError):
        second_order_kernel(model, 2, 0)


@pytest.mark.parametrize("name", ["aklt", "two_photon"])   # one thread and all threads
def test_kernel_scan_rejects_negative_arguments(name):
    model = build_model(ModelSpec("aklt"), g_tau=0.3) if name == "aklt" else two_photon_model()
    assert onset(model, 8) == (0 if name == "aklt" else 7)
    for k, m_max in ((-1, 2), (3, -1), (-1, -1)):
        with pytest.raises(ValueError, match=rf"got k={k}, m_max={m_max}"):
            kernel_scan(model, k, m_max)


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


@pytest.mark.parametrize("name", ["aklt", "two_photon_decorrelated", "single_photon_complex",
                                  "spin1_D16"])
def test_nz_equals_embedding_as_maps(name):
    # Every operator-basis input E_ij, so the whole dynamical map is compared.
    # At D = 16 the threads hold (d_S D)^2-sized operators, never a
    # superoperator on them.
    k_max = 16
    model = reference_models(length=k_max, n_sites=k_max)[name]
    table = build_kernel_table(model, k_max)
    d_s = model.d_system
    for i in range(d_s):
        for j in range(d_s):
            e_ij = np.zeros((d_s, d_s), dtype=complex)
            e_ij[i, j] = 1.0
            nz = solve_nz(table, e_ij, k_max)
            embed = trajectory(model, e_ij, k_max)
            assert max(np.max(np.abs(a - b)) for a, b in zip(nz, embed)) < 1e-12
    # One walk to each step k: the scan's row equals the table's.
    silent = dataclasses.replace(model, hamiltonian=None)
    for k in range(k_max):
        kernels, _ = kernel_scan(silent, k, k)
        for m, kernel in enumerate(kernels):
            assert np.array_equal(kernel.matrix, table.kernel(k, m).matrix)


@pytest.mark.parametrize("interaction", ["heisenberg", "controlled"])
@pytest.mark.parametrize("g_tau", [0.1, 0.6])
def test_stationary_table_matches_threads(interaction, g_tau):
    # aklt's chi_0 = I/2 is a fixed point of the bond step, so the table is
    # read off the single thread s = 0; every thread computes the same bits.
    model = build_model(ModelSpec("aklt"), g_tau=g_tau, interaction_name=interaction)
    k_max = 60
    assert onset(model, k_max) == 0
    fast = build_kernel_table(model, k_max).packed
    ladder = master_equation._bond_ladder(model, k_max - 1)
    threads = np.empty_like(fast)
    master_equation._kernel_threads(model, range(k_max), k_max, ladder,
                                    (threads[k * (k + 1) // 2:][:k + 1] for k in range(k_max)))
    assert np.array_equal(fast, threads)


def test_stationary_nz_equals_embedding_as_maps_at_long_horizon():
    k_max = 300
    model = build_model(ModelSpec("aklt"), g_tau=0.5)
    table = build_kernel_table(model, k_max)
    for e_ij in np.eye(4, dtype=complex).reshape(4, 2, 2):
        nz = solve_nz(table, e_ij, k_max)
        embed = trajectory(model, e_ij, k_max)
        assert max(np.max(np.abs(a - b)) for a, b in zip(nz, embed)) <= 1e-12


def kernel_route_model(name):
    return {
        "aklt": lambda: build_model(ModelSpec("aklt"), g_tau=0.4),
        "cluster": lambda: build_model(ModelSpec("cluster"), g_tau=0.4, fock_cutoff=5),
        "two_photon": two_photon_model,
        "random_D4": lambda: random_spin1_chain(np.random.default_rng(4), 4),
    }[name]()


@pytest.mark.parametrize("name,stationary", [
    ("aklt", True),         # chi_0 = I/2 is the fixed point: s* = 0
    ("cluster", False),     # chi_1 = I/2 is, to 5.6e-17 at every later step: s* = 1
    ("two_photon", False),
    ("random_D4", False),   # chi_0 = I/4 is not the fixed point of a random isometry
])
def test_kernel_route(name, stationary, monkeypatch):
    # The walk starts one more live thread per step up to the onset s*, then
    # walks those alone: thread s* gives every later start's kernels.  Counted
    # on the leading (thread) axis of every stack that collide receives.
    model = kernel_route_model(name)
    k_max = 8
    s_star = 0 if stationary else {"cluster": 1}.get(name, k_max - 1)
    assert onset(model, k_max) == s_star
    threads = []
    collide = embedding._collide

    def counted(channel, x, *rest):
        threads.append(x.shape[0])
        return collide(channel, x, *rest)

    monkeypatch.setattr(embedding, "_collide", counted)
    want = [min(k, s_star) + 1 for k in range(k_max)]
    table = build_kernel_table(model, k_max)
    assert threads == want
    threads.clear()
    kernels, _ = master_equation.kernel_scan(model, k_max - 1, k_max - 1)
    assert threads == want
    for m, kernel in enumerate(kernels):
        assert np.array_equal(kernel.matrix, table.kernel(k_max - 1, m).matrix)


@pytest.mark.parametrize("name", ["aklt", "cluster"])
def test_kernel_routes_at_zero_steps(name, rng):
    # K = 0 on either route: an empty table, the initial state alone, and K_{0,0}.
    model = kernel_route_model(name)
    d2 = model.d_system ** 2
    table = build_kernel_table(model, 0)
    assert table.packed.shape == (0, d2, d2)
    rho0 = random_density(rng, model.d_system)
    states = solve_nz(table, rho0, 0)
    assert len(states) == 1 and np.array_equal(states[0], rho0)
    kernels, _ = kernel_scan(model, 0, 0)
    assert len(kernels) == 1
    assert np.array_equal(kernels[0].matrix, build_kernel_table(model, 1).kernel(0, 0).matrix)


def test_cluster_table_from_its_onset():
    # cluster's ladder reaches chi* = I/2 after one collision and then flips by
    # 5.6e-17 at every step, never bitwise still: threads 0 and 1 give the table.
    model = kernel_route_model("cluster")
    k_max = 400
    assert onset(model, k_max) == 1
    table = build_kernel_table(model, k_max)
    assert np.max(master_equation._maps_residuals(model, table, k_max)) <= 1e-12
    ladder = master_equation._bond_ladder(model, k_max - 1)
    threads = np.empty_like(table.packed)
    master_equation._kernel_threads(model, range(k_max), k_max, ladder,
                                    (threads[k * (k + 1) // 2:][:k + 1] for k in range(k_max)))
    assert np.max(np.abs(table.packed - threads)) <= 1e-14


@pytest.mark.parametrize("d_bond", [4, 8])
def test_stationary_chi0_walks_one_thread(d_bond, monkeypatch):
    # stationary_bond_state is a fixed point of the bond step to roundoff, not
    # bitwise; the onset is 0 all the same, and every collide takes one thread.
    model = with_stationary_chi0(random_spin1_chain(np.random.default_rng(d_bond), d_bond))
    chi0 = model.env.initial_bond_state()
    assert not np.array_equal(evolve_bond_state(model.env, chi0).matrix, chi0.matrix)
    k_max = 150
    assert onset(model, k_max) == 0
    threads = []
    collide = embedding._collide

    def counted(channel, x, *rest):
        threads.append(x.shape[0])
        return collide(channel, x, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(embedding, "_collide", counted)
        table = build_kernel_table(model, k_max)
    assert threads == [1] * k_max
    assert np.max(master_equation._maps_residuals(model, table, k_max)) <= 1e-12


@pytest.mark.parametrize("name,k_max,s_star", [
    ("two_photon", 300, 299),   # ratio ~0.99 per step: no rung is fixed by K = 300
    ("random_D4", 150, 56),     # from chi_0 = I/4 to a rung within 1e-15 of the next
])
def test_nz_equals_embedding_as_maps_on_a_geometric_approach(name, k_max, s_star):
    # The fixed-point predicate stops a geometric approach short of chi*; the
    # kernels read off that rung still give the embedding's maps to roundoff.
    model = kernel_route_model(name)
    assert onset(model, k_max) == s_star
    table = build_kernel_table(model, k_max)
    for e_ij in np.eye(4, dtype=complex).reshape(4, 2, 2):
        nz = solve_nz(table, e_ij, k_max)
        embed = trajectory(model, e_ij, k_max)
        assert max(np.max(np.abs(a - b)) for a, b in zip(nz, embed)) <= 1e-12


NEGATIVE_HORIZONS = {
    "trajectory": (lambda aklt, table, gen, rho: trajectory(aklt, rho, -2), "k_max"),
    "build_kernel_table": (lambda aklt, table, gen, rho: build_kernel_table(aklt, -1), "k_max"),
    "solve_nz": (lambda aklt, table, gen, rho: solve_nz(table, rho, -1), "k_max"),
    "evolve_gksl_grid": (lambda aklt, table, gen, rho: evolve_gksl_grid(gen, rho, 0.1, n_steps=-1),
                         "n_steps"),
    "decorrelate": (lambda aklt, table, gen, rho: decorrelate(models.ghz_env(4), length=0),
                    "length"),
}


@pytest.mark.parametrize("case", NEGATIVE_HORIZONS)
def test_negative_horizons_are_refused_before_any_work(monkeypatch, case):
    # Unchecked, these return [rho_0], an empty table, [] and [rho_0], or fail with
    # "max() arg is an empty sequence"; each is a ValueError naming the argument,
    # raised before any collision, bond step, or preparation or use of an exponential.
    call, argument = NEGATIVE_HORIZONS[case]
    aklt = build_model(ModelSpec("aklt"), g_tau=0.5)
    args = (aklt, build_kernel_table(aklt, 2), stroboscopic_generator(aklt), np.eye(2) / 2)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the horizon was checked")

    for owner, name, stub in ((embedding, "_collide", no_work), (mps, "_kraus_sum", no_work),
                              (mps, "_transfer_sum", no_work),
                              (Superoperator, "_taylor", property(no_work)),
                              (Superoperator, "_exp", no_work)):
        monkeypatch.setattr(owner, name, stub)
    with pytest.raises(ValueError, match=f"need {argument} >= "):
        call(*args)


def test_bond_ladder_stops_at_a_fixed_point(monkeypatch):
    # B_i = |0><i| sends every unit-trace chi to |0><0|: from chi_0 = I/2 the
    # ladder stops at chi_1, fixed against chi_2, and stores chi_0 and chi_1
    # alone; every later rung reads chi_1, bit for bit the step-by-step walk's.
    # At D = d = 2 each rung is one transfer product, taken from chi_0 and chi_1.
    site = np.zeros((2, 2, 2), dtype=complex)
    site[0, 0, 0] = site[1, 1, 0] = 1.0
    env = MpsEnvironment((site,), np.eye(2) / 2, homogeneous=True)
    model = CollisionModel(env=env, unitary=np.eye(4), d_system=2, mode_dim=2, g_tau=0.1)
    walk = [env.initial_bond_state()]
    for _ in range(10):
        walk.append(evolve_bond_state(env, walk[-1]))
    calls, transfer_sum = [], mps._transfer_sum

    def counted(p, x):
        calls.append(x)
        return transfer_sum(p, x)

    monkeypatch.setattr(mps, "_transfer_sum", counted)
    ladder = master_equation._bond_ladder(model, 10)
    assert len(calls) == 2
    assert all(np.array_equal(x, chi.matrix) for x, chi in zip(calls, walk))
    assert [chi.site for chi in ladder] == [0, 1]
    for k, chi in enumerate(walk):
        rung = master_equation._rung(ladder, k)
        assert rung.site == k and np.array_equal(rung.matrix, chi.matrix)
    # aklt's chi_0 = I/2 is the onset: one rung for any horizon, and a scan far
    # out gives the bits of one near the start.
    aklt = build_model(ModelSpec("aklt"), g_tau=0.5)
    calls.clear()
    assert len(master_equation._bond_ladder(aklt, 10 ** 6)) == 1
    assert len(calls) == 1 and np.array_equal(calls[0], aklt.env.chi0)
    far, near = kernel_scan(aklt, 10 ** 6, 2), kernel_scan(aklt, 10, 2)
    for a, b in zip(far[0] + far[1][1:], near[0] + near[1][1:]):
        assert np.array_equal(a.matrix, b.matrix)


@pytest.mark.parametrize("spec", [ModelSpec("aklt"), ModelSpec("single_photon", {"n_sites": 20})])
def test_kernel_table_collide_count(spec, monkeypatch):
    # Every live thread goes through one batched collide per step, and no
    # superoperator is composed on the way.
    model = build_model(spec, g_tau=0.4)
    collisions, products = [], []
    collide, matmul = embedding._collide, Superoperator.__matmul__

    def counted_collide(channel, x, *rest):
        collisions.append(1)
        return collide(channel, x, *rest)

    def counted_matmul(self, other):
        products.append(1)
        return matmul(self, other)

    monkeypatch.setattr(embedding, "_collide", counted_collide)
    monkeypatch.setattr(Superoperator, "__matmul__", counted_matmul)
    k_max = 20
    build_kernel_table(model, k_max)
    assert len(collisions) == k_max
    assert len(products) == 0
    # A scan of K_{k,0..m} walks the m + 1 steps from its earliest start.
    for k, m in ((0, 0), (7, 3), (19, 19)):
        collisions.clear()
        kernel_scan(model, k, m)
        assert len(collisions) == m + 1


@pytest.mark.parametrize("spec,builds", [
    pytest.param(ModelSpec("aklt"), 1, id="aklt"),
    pytest.param(ModelSpec("ghz", {"n_sites": 10}), 3, id="ghz"),   # first, bulk and last
    pytest.param(ModelSpec("single_photon", {"n_sites": 10}), 10,
                 id="inhomogeneous"),   # a distinct tensor per site
])
def test_kernel_threads_build_each_channel_once(spec, builds, monkeypatch):
    model = build_model(spec, g_tau=0.4)
    k_max = 10
    # Reference: a fresh Kraus stack and adjoint at every step, as without reuse,
    # each site built on its own.
    with monkeypatch.context() as patch:
        patch.setattr(embedding, "_kraus_stacks", lambda model, ks: (
            embedding._Channel(kraus_operators(model, k)) for k in ks))
        reference = build_kernel_table(model, k_max)
    built = []   # site channels, however many one einsum builds
    kraus_run = embedding._kraus_run

    def counted(model, ks):
        built.extend(ks)
        return kraus_run(model, ks)

    monkeypatch.setattr(embedding, "_kraus_run", counted)
    table = build_kernel_table(model, k_max)
    assert len(built) == builds
    assert len(table.packed) == len(reference.packed) == k_max * (k_max + 1) // 2
    for k in range(k_max):
        kernels, _ = kernel_scan(model, k, k)
        for m in range(k + 1):
            kernel = table.kernel(k, m)
            assert np.array_equal(kernel.matrix, reference.kernel(k, m).matrix)
            assert np.array_equal(kernels[m].matrix, kernel.matrix)


@pytest.mark.parametrize("spec", [
    ModelSpec("aklt"),
    ModelSpec("two_photon", {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9}),
    ModelSpec("cluster"),
])
def test_kernel_table_matches_per_call_adjoint(spec, monkeypatch):
    # The adjoint stack formed once per channel and np.add.reduce give the
    # bits of an adjoint and an np.sum formed inside every collide.
    model = build_model(spec, g_tau=0.3, fock_cutoff=5 if spec.name == "cluster" else None)
    table = build_kernel_table(model, 12)
    monkeypatch.setattr(embedding, "_collide", lambda channel, x, *_: np.sum(
        channel.ops @ x[..., None, :, :] @ channel.ops.conj().transpose(0, 2, 1), axis=-3))
    assert np.array_equal(table.packed, build_kernel_table(model, 12).packed)


def test_kernel_table_thread_stack_guard(monkeypatch):
    # A D = 64 chain: the last step's working set, 2 m_eff + 1 = 7 thread
    # stacks (tracemalloc peak 7.25 stacks at K = 8), caps K at 9 long before
    # the table does.  K = 10 is refused before the first collision; counting
    # only the m_eff-fold products would have let it (and K = 21) through.
    model = random_spin1_chain(np.random.default_rng(5), 64)
    k_max = 9
    assert len(build_kernel_table(model, k_max).packed) == k_max * (k_max + 1) // 2

    def refuse(*args):
        raise AssertionError("collide called before the guard")

    monkeypatch.setattr(embedding, "_collide", refuse)
    stack = (k_max + 1) * model.d_system ** 2 * (model.d_system * 64) ** 2
    assert 3 * stack <= KERNEL_GUARD
    with pytest.raises(SizeGuardError, match="thread stack"):
        build_kernel_table(model, k_max + 1)


def stationary_wide_aklt():
    """aklt's site tensors (x) I_8 with chi_0 = I/16: a D = 16 chain with its onset at 0."""
    aklt = build_model(ModelSpec("aklt"), g_tau=0.4)
    site = np.stack([kron(b, np.eye(8)) for b in aklt.env.sites[0]])
    return dataclasses.replace(aklt, env=MpsEnvironment((site,), np.eye(16) / 16,
                                                        homogeneous=True))


def test_kernel_guard_counts_one_thread_on_a_stationary_chain():
    # The single thread walks one basis stack, (2 m_eff + 1) d_S^2 (d_S D)^2 = 28672
    # numbers at D = 16; K threads of it would pass the guard only to K = 146.
    model = stationary_wide_aklt()
    k_max = 150
    assert onset(model, k_max) == 0
    table = build_kernel_table(model, k_max)
    assert len(table.packed) == k_max * (k_max + 1) // 2
    assert np.max(master_equation._maps_residuals(model, table, k_max)) <= 1e-12
    kernels, _ = master_equation.kernel_scan(dataclasses.replace(model, hamiltonian=None),
                                             k_max - 1, k_max - 1)
    for m, kernel in enumerate(kernels):
        assert np.array_equal(kernel.matrix, table.kernel(k_max - 1, m).matrix)


def test_kernel_guard_counts_the_onset_threads(monkeypatch):
    # random_D4 reaches its onset at s* = 56 of K = 150: the walk holds threads
    # 0..56, (2 m_eff + 1) 57 d_S^2 (d_S D)^2 = 102144 numbers, within a guard of
    # the packed table's 181200; counting all 150 starts (268800) would refuse it.
    model = kernel_route_model("random_D4")
    k_max = 150
    assert onset(model, k_max) == 56
    monkeypatch.setattr(master_equation, "KERNEL_GUARD", k_max * (k_max + 1) // 2 * 16)
    threads = []
    collide = embedding._collide

    def counted(channel, x, *rest):
        threads.append(x.shape[0])
        return collide(channel, x, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(embedding, "_collide", counted)
        table = build_kernel_table(model, k_max)
    assert threads == [min(k, 56) + 1 for k in range(k_max)]
    assert np.max(master_equation._maps_residuals(model, table, k_max)) <= 1e-12


@pytest.mark.parametrize("name,n", [("aklt", 40), ("two_photon", 40),
                                    ("single_photon_complex", 8), ("random_D8", 40)])
def test_map_stack_traces_the_walk_in_batches(name, n, monkeypatch):
    # The maps E_1..E_n are the bond traces of one walk of the basis stack,
    # bit for bit those of a collide and a trace_bond per step, with one
    # trace_bond per 64 KiB of a run of equal shape.
    if name == "random_D8":
        model = random_spin1_chain(np.random.default_rng(8), 8)
    else:
        model = reference_models()[name]
    d_s = model.d_system
    x = master_equation._basis_stack(d_s, model.env.chi0)
    reference, shapes = [np.eye(d_s ** 2)], [x.shape]
    for k in range(n):
        x = collide(kraus_operators(model, k), x)
        traced = trace_bond(x, d_s)
        reference.append(traced.swapaxes(-1, -3).reshape(traced.shape[:-2] + (-1,)))
        shapes.append(x.shape)
    calls = []

    def counted(x, d_system):
        calls.append(x.nbytes)
        return trace_bond(x, d_system)

    monkeypatch.setattr(embedding, "trace_bond", counted)
    maps = master_equation._map_stack(model, n)
    assert np.array_equal(maps, np.array(reference))
    largest = max(16 * np.prod(shape) for shape in shapes)
    bound = -(-(n + 1) * largest // embedding._TRACE_BATCH_BYTES) + 1
    changes = sum(a != b for a, b in zip(shapes, shapes[1:]))   # each starts a batch
    assert len(calls) <= bound + changes
    if name == "aklt":
        assert len(calls) == 1


def test_solve_nz_zero_kernels_constant(rng):
    from mpscollision.master_equation import KernelTable

    table = KernelTable(1.0, 2, np.zeros((5 * 6 // 2, 4, 4), dtype=complex))
    rho0 = random_density(rng, 2)
    for out in solve_nz(table, rho0, 5):
        assert np.max(np.abs(out - rho0)) < 1e-14
    with pytest.raises(KeyError):
        solve_nz(table, rho0, 6)
    # Reads past the packed rows are refused, not truncated.
    for k, m in ((5, 0), (4, 5), (0, -1), (-1, 0)):
        with pytest.raises(KeyError, match=rf"no entry for \(k={k}, m={m}\)"):
            table.kernel(k, m)


def test_kernel_table_guard_counts_the_packed_array(monkeypatch):
    # aklt at K = 60: the table term, K(K+1)/2 d_S^4 = 29280, outgrows the
    # thread stack (448 on this stationary chain), so a guard of exactly the packed array's size
    # admits the table and one number less refuses it.
    model = build_model(ModelSpec("aklt"), g_tau=0.4)
    k_max = 60
    table = build_kernel_table(model, k_max)
    assert table.packed.shape == (k_max * (k_max + 1) // 2, 4, 4)
    monkeypatch.setattr(master_equation, "KERNEL_GUARD", table.packed.size)
    assert np.array_equal(build_kernel_table(model, k_max).packed, table.packed)
    monkeypatch.setattr(master_equation, "KERNEL_GUARD", table.packed.size - 1)
    with pytest.raises(SizeGuardError, match=f"kernel table of {table.packed.size} entries"):
        build_kernel_table(model, k_max)


@pytest.mark.parametrize("name", ["aklt", "ghz", "two_photon", "cluster"])
def test_solve_nz_matches_per_entry_loop(name):
    # The packed solver sums each step's m terms in ascending m, as this
    # per-entry loop does, so the states agree bit for bit.
    k_max = 20
    model = {
        "aklt": lambda: build_model(ModelSpec("aklt"), g_tau=0.5),
        "ghz": lambda: build_model(ModelSpec("ghz", {"n_sites": k_max}), g_tau=0.4),
        "two_photon": lambda: build_model(
            ModelSpec("two_photon", {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9}), g_tau=0.3),
        "cluster": lambda: build_model(ModelSpec("cluster"), g_tau=0.6, fock_cutoff=5),
    }[name]()
    table = build_kernel_table(model, k_max)
    rho0 = models.named_initial_state("plus")
    states = [rho0]
    for k in range(k_max):
        increment = np.zeros_like(rho0)
        for m in range(k + 1):
            increment += table.kernel(k, m).apply(states[k - m])
        states.append(states[k] + table.tau * increment)
    nz = solve_nz(table, rho0, k_max)
    assert len(nz) == k_max + 1
    assert all(np.array_equal(a, b) for a, b in zip(nz, states))


REFERENCE_CHAINS = {
    "aklt": lambda: build_model(ModelSpec("aklt"), g_tau=0.4),
    "two_photon": two_photon_model,   # fig5a's parameters
    "cluster": lambda: build_model(ModelSpec("cluster"), g_tau=0.4, fock_cutoff=5),
    "random_D4": lambda: random_spin1_chain(np.random.default_rng(4), 4),
    "ghz": lambda: build_model(ModelSpec("ghz", {"n_sites": 10}), g_tau=0.4),   # three shapes
    "single_photon": lambda: build_model(ModelSpec("single_photon", {"n_sites": 10}),
                                         g_tau=0.4),   # a distinct tensor per site
}


@pytest.mark.parametrize("k_max", [0, 1, 8, 16])
@pytest.mark.parametrize("name", REFERENCE_CHAINS)
def test_kernel_walk_keeps_the_reference_bits(name, k_max):
    # The walk writes into the packed table, grows its thread stack in place and
    # projects without kron; the concatenating, row-copying walk in conftest gives
    # the same bits for the table, every scan row and the solver's states.  The
    # 10-site chains run to their length and refuse K = 16.
    model = REFERENCE_CHAINS[name]()
    if model.env.length is not None and k_max > model.env.length:
        with pytest.raises(IndexError, match="beyond environment length"):
            build_kernel_table(model, k_max)
        k_max = model.env.length
    table = build_kernel_table(model, k_max)
    reference = reference_kernel_table(model, k_max)
    assert np.array_equal(table.packed, reference.packed)
    silent = dataclasses.replace(model, hamiltonian=None)
    scans = [(k, k) for k in range(k_max)] + [(k_max - 1, (k_max - 1) // 2)] * (k_max > 0)
    for k, m in scans:
        kernels, _ = kernel_scan(silent, k, m)
        want = reference_kernel_scan_row(model, k, m)
        assert len(kernels) == len(want)
        assert all(np.array_equal(a.matrix, b) for a, b in zip(kernels, want)), (k, m)
    rho0 = models.named_initial_state("plus")
    states, want = solve_nz(table, rho0, k_max), reference_solve_nz(reference, rho0, k_max)
    assert len(states) == len(want) == k_max + 1
    assert all(np.array_equal(a, b) for a, b in zip(states, want))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(d_bond=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1), stationary=st.booleans(),
       g_tau=st.floats(0.1, 0.6), k_max=st.integers(0, 12))
def test_nz_equals_embedding_on_random_chains(d_bond, seed, stationary, g_tau, k_max):
    # Homogeneous right-canonical spin-1 chains of a complex QR isometry under a
    # heisenberg coupling, from chi_0 = I/D or the stationary bond state: the
    # table's recursion gives the embedding's maps, and its states the
    # embedding's trajectory, to 1e-12.
    model = random_spin1_chain(np.random.default_rng(seed), d_bond, g_tau)
    if stationary:
        model = with_stationary_chi0(model)
    table = build_kernel_table(model, k_max)
    assert np.max(master_equation._maps_residuals(model, table, k_max), initial=0.0) <= 1e-12
    for rho0 in (models.named_initial_state("plus"), models.named_initial_state("excited")):
        nz, embed = solve_nz(table, rho0, k_max), trajectory(model, rho0, k_max)
        assert max(np.max(np.abs(a - b)) for a, b in zip(nz, embed)) <= 1e-12


@pytest.mark.parametrize("rho0", [np.ones(4) / 4, np.eye(3) / 3, np.eye(2)[None] / 2])
def test_nz_and_gksl_refuse_a_wrong_shape_state(rho0, monkeypatch):
    # Unchecked, a flat (4,) state gave 2 x 2 states of trace 0.5 from both, and a
    # 3 x 3 state failed inside matmul or reshape; each is refused before the first
    # step with trajectory's wording.
    aklt = build_model(ModelSpec("aklt"), g_tau=0.5)
    table, generator = build_kernel_table(aklt, 4), stroboscopic_generator(aklt)
    monkeypatch.setattr(Superoperator, "_exp", lambda *args: pytest.fail("exponential first"))
    message = rf"system state shape \({', '.join(map(str, rho0.shape))},?\), expected \(2, 2\)"
    with pytest.raises(ValueError, match=message):
        solve_nz(table, rho0, 4)
    with pytest.raises(ValueError, match=message):
        evolve_gksl_grid(generator, rho0, 0.1, 4)
    with pytest.raises(ValueError, match=message):
        trajectory(aklt, rho0, 4)


# -- second-order kernel -----------------------------------------------------------

def test_second_order_zero_for_cluster():
    model = build_model(ModelSpec("cluster"), g_tau=0.6, fock_cutoff=5)
    for k, m in ((1, 1), (3, 1), (5, 3)):
        assert second_order_kernel(model, k, m).norm() < 1e-13


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
    pair = pair_state(env, k, chi)
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
    connected = (padded_pair_state(model, k, chi)
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


@pytest.mark.parametrize("name,k", [("aklt", 12), ("two_photon", 12),
                                    ("two_photon_decorrelated", 5),
                                    ("single_photon_complex", 7), ("spin1_D16", 57)])
def test_second_order_kernel_is_the_scans_one_entry_case(name, k):
    # A per-m call walks the scan's readout to delay m alone and closes it on
    # the same rung, so every entry agrees bit for bit: on finite chains, an
    # ancilla chain and the D = 16 chain, whose onset 55 lies inside the scan.
    model = reference_models()[name]
    second = kernel_scan(model, k, k)[1]
    for m in range(1, k + 1):
        assert np.array_equal(second_order_kernel(model, k, m).matrix, second[m].matrix), m
    assert name != "spin1_D16" or onset(model, k + 1) == 55


def test_second_order_kernel_refuses_bad_calls_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("bond or readout step before the call was checked")

    model = complex_single_photon_model(n_sites=8)
    with pytest.raises(IndexError) as scan:
        kernel_scan(model, 11, 1)
    monkeypatch.setattr(mps, "_kraus_sum", no_work)
    monkeypatch.setattr(mps, "_transfer_sum", no_work)
    with pytest.raises(IndexError) as call:
        second_order_kernel(model, 11, 1)
    assert str(call.value) == str(scan.value) == "collision 8 beyond environment length 8"
    silent = dataclasses.replace(build_model(ModelSpec("aklt"), g_tau=0.5), hamiltonian=None)
    with pytest.raises(ValueError, match="no interaction Hamiltonian"):
        second_order_kernel(silent, 5, 2)


def test_second_order_walks_one_readout(monkeypatch):
    # A per-m call walks the bond ladder to k - m and site k's readout back
    # m - 1 sites in one pair walk; a scan's column walks the readout once for
    # every delay, in one pair walk too.  On these D <= 2d chains both walks are
    # transfer products: a bond step's moves one bond state, a readout step's a
    # stack of them.
    steps, walks = [], []
    transfer_sum, pairs = mps._transfer_sum, master_equation._pair_states
    monkeypatch.setattr(mps, "_transfer_sum",
                        lambda p, x: steps.append(x.ndim) or transfer_sum(p, x))
    monkeypatch.setattr(master_equation, "_pair_states",
                        lambda *args: walks.append(1) or pairs(*args))
    model = two_photon_model()
    for k, m in ((12, 5), (12, 1), (12, 12), (30, 17)):
        steps.clear()
        walks.clear()
        second_order_kernel(model, k, m)
        assert (steps.count(2), steps.count(4), len(walks)) == (k - m, m - 1, 1)
        assert len(steps) == k - 1
    steps.clear()
    walks.clear()
    kernel_scan(build_model(ModelSpec("aklt"), g_tau=0.5), 200, 200)
    assert steps.count(4) <= 200
    assert len(walks) == 1


@pytest.mark.parametrize("name,k,prepared", [("aklt", 12, 1), ("two_photon", 30, 1),
                                             ("single_photon_complex", 7, 6)])
def test_readout_walk_prepares_each_site_tensor_once(name, k, prepared, monkeypatch):
    # A readout walk over every delay steps back over sites k - 1..1; it prepares
    # its step, the transfer matrix of a homogeneous chain or _kraus_sum's operands,
    # once per distinct site tensor, not once per step.
    model = reference_models()[name]
    ladder = master_equation._bond_ladder(model, k - 1)
    chis = [master_equation._rung(ladder, k - m) for m in range(1, k + 1)]
    calls = []
    for prepare in ("_kraus_operands", "_transfer_matrix"):
        monkeypatch.setattr(mps, prepare, lambda *args, f=getattr(mps, prepare):
                            calls.append(1) or f(*args))
    assert len(list(mps._pair_states(model.env, k, chis))) == k
    assert len(calls) == prepared


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(d_bond=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 12))
def test_transfer_walks_match_the_kraus_sum_walks(d_bond, seed, k):
    # A homogeneous spin-1 chain with D <= 2d walks its bond ladder and readout by
    # transfer products; a per-site copy of it walks both by Kraus sums.  The rungs
    # and pair states agree to 1e-14 (measured <= 4.4e-15 and 8.9e-16 over 600
    # chains).  The onset, a roundoff-scale predicate, moved by one rung on 23 of
    # those 600 chains (never more), so it is held to within one rung here; every
    # pinned onset is equal.
    model = random_spin1_chain(np.random.default_rng(seed), d_bond)
    length = 400
    per_site = dataclasses.replace(model, env=MpsEnvironment(model.env.sites * length,
                                                             model.env.chi0))
    ladder = master_equation._bond_ladder(model, length - 1)
    walked = master_equation._bond_ladder(per_site, length - 1)
    chi = per_site.env.initial_bond_state()
    for rung in walked[1:]:   # the Kraus-sum ladder is evolve_bond_state's walk, bit for bit
        chi = evolve_bond_state(per_site.env, chi)
        assert np.array_equal(rung.matrix, chi.matrix)
    onset = next((s for s in range(length - 1)
                  if master_equation._fixed(walked[s].matrix, walked[s + 1].matrix)), length - 1)
    assert abs(ladder[-1].site - onset) <= 1
    for chi in ladder:
        assert np.max(np.abs(chi.matrix - walked[chi.site].matrix)) <= 1e-14
    chis = walked[k - 1::-1]
    for a, b in zip(mps._pair_states(model.env, k, chis), mps._pair_states(per_site.env, k, chis),
                    strict=True):
        assert np.max(np.abs(a - b)) <= 1e-14


def test_wide_chain_walks_build_no_transfer_matrix(monkeypatch):
    # At D = 64 > 2d a transfer product costs D^4 = 16.8M multiply-adds per step, ten
    # times the Kraus sum's 2 d D^3, and its matrix takes 268 MB: the ladder and the
    # readout walk build none.
    model = random_spin1_chain(np.random.default_rng(5), 64)
    monkeypatch.setattr(mps, "_transfer_matrix", lambda *args: pytest.fail("D^2 x D^2 matrix"))
    assert len(build_kernel_table(model, 4).packed) == 10
    kernels, second = kernel_scan(model, 4, 3)
    assert len(kernels) == len(second) == 4


def test_kernel_scan_keeps_only_the_rungs_it_reads():
    # two_photon at tau/T1 = tau/T2 = 1e-3 has its onset at s* = 15876: a scan
    # at k = 20000 keeps chi_{s*} alone, where a full ladder holds 15877 rungs
    # (8.0 MB), and off the onset its rows are the table's to the bit.
    model = build_model(ModelSpec("two_photon", {"tau_over_T1": 1e-3, "tau_over_T2": 1e-3}),
                        g_tau=0.3)
    ladder = master_equation._bond_ladder(model, 20000, 19998)
    assert [chi.site for chi in ladder] == [15876]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        kernel_scan(model, 20000, 2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    k = 300
    kernels, _ = kernel_scan(model, k, 2)
    table = build_kernel_table(model, k + 1)
    for m in range(3):
        assert np.array_equal(kernels[m].matrix, table.kernel(k, m).matrix)


def test_exact_kernel_approaches_second_order():
    residuals = {}
    for gt in (0.2, 0.1):
        model = build_model(ModelSpec("aklt"), g_tau=gt)
        kernels, second = kernel_scan(model, 3, 1)
        residuals[gt] = frobenius(kernels[1].matrix - second[1].matrix)
    ratio = residuals[0.2] / residuals[0.1]
    assert 6.0 <= ratio <= 10.0


def test_exact_kernel_decay_rate_small_coupling():
    model = build_model(ModelSpec("aklt"), g_tau=0.1)
    norms = [kernel.norm() for kernel in kernel_scan(model, 6, 6)[0][1:]]
    for a, b in zip(norms, norms[1:]):
        assert abs(b / a - 1.0 / 3.0) < 0.05 * (1.0 / 3.0)  # within 5% of |lambda2|


# -- stroboscopic limit ---------------------------------------------------------

def test_stroboscopic_uncorrelated_is_local_only():
    model = vacuum_product_model(0.4)
    gen = stroboscopic_generator(model)
    chi_star = stationary_bond_state(model.env)
    local = (two_collision_channel(model, chi_star).matrix - np.eye(4)) * (1.0 / (2.0 * model.tau))
    assert np.max(np.abs(gen.matrix - local)) < 1e-12


def test_stroboscopic_generator_annihilates_trace():
    # Judged against the rate scale 1/tau, as stroboscopic_generator judges itself.
    for name in ("heisenberg", "controlled"):
        model = build_model(ModelSpec("aklt"), g_tau=0.1, interaction_name=name)
        gen = stroboscopic_generator(model)
        defect = np.max(np.abs(np.trace(gen.matrix.reshape(2, 2, -1))))
        assert defect <= 1e-10 / model.tau


@pytest.mark.parametrize("g_tau", [0.2, 1e9])
def test_stroboscopic_generator_trace_check_at_its_own_scale(g_tau, monkeypatch):
    # The trace defect is judged against the largest of the summed terms,
    # 1/tau, ||g^2 tau [<H>,[<H>,.]]|| and the tail's norm: at g_tau = 1e9
    # roundoff alone is 6e-8 absolute, and a planted defect of 1e-8 of that
    # scale is still refused.
    model = build_model(ModelSpec("aklt"), g_tau=g_tau, interaction_name="controlled")
    terms = []
    double_commutator = master_equation._double_commutator
    monkeypatch.setattr(master_equation, "_double_commutator",
                        lambda h, c: terms.append(double_commutator(h, c)) or terms[-1])
    stroboscopic_generator(model)
    # The generator's two double commutators: the mean field, then the summed tail.
    g2tau = model.g ** 2 * model.tau
    mean_field, tail = g2tau * terms[0], -g2tau * terms[1]
    scale = max(1.0 / model.tau, frobenius(tail), frobenius(mean_field))
    two_collision = master_equation.two_collision_channel
    for planted, refused in ((1e-12, False), (1e-8, True)):
        # A map that adds x[0, 0] to the trace: (Phi - Id)/(2 tau) carries it into L.
        leak = np.zeros((4, 4), dtype=complex)
        leak[0, 0] = 2.0 * model.tau * planted * scale
        monkeypatch.setattr(master_equation, "two_collision_channel",
                            lambda *args, leak=leak, **kwargs: Superoperator(
                                two_collision(*args, **kwargs).matrix + leak, 2, 2))
        if refused:
            with pytest.raises(ValueError, match="does not annihilate the trace"):
                stroboscopic_generator(model)
        else:
            stroboscopic_generator(model)


@pytest.mark.parametrize("two_site", ["correlated", "product"])
def test_stroboscopic_generator_preserves_hermiticity(two_site, rng):
    chains = [
        build_model(ModelSpec("aklt"), g_tau=0.2, interaction_name="heisenberg"),
        build_model(ModelSpec("aklt"), g_tau=0.1, interaction_name="controlled"),
        two_photon_model(),
        build_model(ModelSpec("cluster"), g_tau=0.3, fock_cutoff=5),
    ] + [random_spin1_chain(np.random.default_rng(seed), 4, g_tau=0.1) for seed in (1, 2, 3)]
    # L[X] is Hermitian for Hermitian X.  The residual is measured against
    # ||X|| / tau, the scale of the channel rates (Phi - Id) / tau that L is
    # assembled from: the aklt x heisenberg L cancels down to 1e-4 of it.
    for model in chains:
        gen = stroboscopic_generator(model, two_site=two_site)
        for x in hermitian_basis(model.d_system) + [random_hermitian(rng, model.d_system)]:
            out = gen.apply(x)
            assert frobenius(out - dagger(out)) * model.tau <= 1e-12 * frobenius(x)


def test_stroboscopic_generator_is_hermitian_on_complex_lambda2():
    # The bond step's subleading eigenvalue is complex here, so no scalar weight sums the tail;
    # the summed correlator does: L is finite, keeps Hermiticity and warns about nothing.
    model = random_spin1_chain(np.random.default_rng(3), 4, g_tau=0.1)
    assert transfer_spectrum(model.env).lambda2.imag > 0.1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gen = stroboscopic_generator(model)
    assert caught == []
    assert np.all(np.isfinite(gen.matrix))
    for x in hermitian_basis(model.d_system):
        out = gen.apply(x)
        assert frobenius(out - dagger(out)) * model.tau <= 1e-12 * frobenius(x)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_summed_correlator_is_the_sum_of_pair_correlators(seed):
    # sum_{m <= M} C_m over _pair_states at the stationary bond state, with |lambda2|^M < 1e-16;
    # measured 6.4e-13 to 1.1e-12 relative (M = 64..81), the brute sum's own roundoff.
    env = random_spin1_chain(np.random.default_rng(seed), 4).env
    chi = stationary_bond_state(env)
    depth = int(np.ceil(-16.0 / np.log10(abs(transfer_spectrum(env).lambda2))))
    chis = [BondState(a, chi.matrix) for a in range(depth - 1, -1, -1)]   # delays 1..depth
    brute = sum(pair - master_equation._marginal_product(pair)
                for pair in mps._pair_states(env, depth, chis))
    assert frobenius(mps._summed_correlator(env, chi)[1] - brute) <= 1e-11 * frobenius(brute)


def test_summed_correlator_on_the_named_chains():
    # aklt's pair correlators decay as lambda2^{m-1} C_1, so the sum is C_1 / (1 - lambda2)
    # (measured 3.1e-17 off); two_photon at fig5a's rates and cluster have no connected pairs.
    # The pair state that comes with the sum is the readout walk's delay-1 one, bit for bit.
    env = models.aklt_env()
    chi = stationary_bond_state(env)
    pair = next(mps._pair_states(env, 1, [chi]))
    c1 = pair - master_equation._marginal_product(pair)
    geometric = c1 / (1.0 - transfer_spectrum(env).lambda2)
    first, summed = mps._summed_correlator(env, chi)
    assert np.array_equal(first, pair)
    assert np.max(np.abs(summed - geometric)) <= 1e-15
    for env in (two_photon_model().env, models.cluster_env()):
        assert np.max(np.abs(mps._summed_correlator(env, stationary_bond_state(env))[1])) <= 1e-15


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stroboscopic_rates_match_the_joint_channel(seed):
    # At g tau = 0.025 and g^2 tau = 0.1 the generator's three nonzero rates are the joint
    # channel's -ln|mu| / tau within 1 % (measured 0.04-0.31 %); a tail resummed with the
    # scalar weight 1 / (1 - lambda2) misses them by 6.1-10.8 % on these chains.
    g_tau = 0.025
    model = dataclasses.replace(random_spin1_chain(np.random.default_rng(seed), 4, g_tau=g_tau),
                                tau=g_tau ** 2 / 0.1)
    joint = sum(np.kron(a, a.conj()) for a in kraus_operators(model, 0))
    mu = sorted(np.linalg.eigvals(joint), key=abs, reverse=True)
    want = np.sort(-np.log(np.abs(mu[1:4])) / model.tau)
    rates = np.sort(-np.linalg.eigvals(stroboscopic_generator(model).matrix).real)
    assert abs(rates[0]) <= 1e-12 / model.tau   # the stationary state
    assert np.max(np.abs(rates[1:] / want - 1.0)) <= 0.01


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
    assert np.max(np.abs(a.matrix - b.matrix)) < 10 * model.g_tau ** 3 / model.tau


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


def test_evolve_gksl_grid_matches_per_point():
    # fig6b's GKSL curve: one exp(dt L) and repeated mat-vecs instead of an
    # exponential per point.
    model = build_model(ModelSpec("aklt"), g_tau=0.1, interaction_name="controlled")
    gen = stroboscopic_generator(model)
    rho0 = models.named_initial_state("plus")
    dt = model.tau / 10.0
    grid = evolve_gksl_grid(gen, rho0, dt, 200)
    assert len(grid) == 201
    for j, rho in enumerate(grid):
        assert np.max(np.abs(rho - evolve_gksl(gen, rho0, j * dt))) < 1e-12


def gksl_model(env_name, interaction, g_tau):
    """A GKSL chain at g^2 tau = 0.1, the Markov scaling of fig. 6b."""
    params = {"g_tau": g_tau, "g_T1": 2.3, "g_T2": 59.9} if env_name == "two_photon" else {}
    return build_model(ModelSpec(env_name, params), g_tau=g_tau, interaction_name=interaction,
                       tau=g_tau ** 2 / 0.1)


@pytest.mark.parametrize("two_site", ["correlated", "product"])
@pytest.mark.parametrize("env_name,interaction", [("aklt", "heisenberg"), ("aklt", "controlled"),
                                                  ("two_photon", None)])
def test_gksl_exponential_matches_scipy_on_stroboscopic_generators(env_name, interaction,
                                                                   two_site):
    for g_tau in (0.05, 0.1, 0.2, 0.3):
        model = gksl_model(env_name, interaction, g_tau)
        gen = stroboscopic_generator(model, two_site=two_site)
        for k in range(61):
            t = k * model.tau
            assert np.max(np.abs(gen._exp(t) - scipy.linalg.expm(t * gen.matrix))) <= 1e-14


@pytest.mark.parametrize("d", [2, 3])
def test_gksl_exponential_matches_scipy_on_random_matrices(d):
    # Gaussian 4x4 and 9x9 matrices are non-normal; t spans |t| ||A||_1 below and above 1.
    rng = np.random.default_rng(40 + d)
    for _ in range(20):
        a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        gen = Superoperator(a, d, d)
        for t in (0.01, -0.07, 0.3, 1.0, -2.5):
            want = scipy.linalg.expm(t * a)
            assert np.linalg.norm(gen._exp(t) - want, 1) <= 1e-12 * np.linalg.norm(want, 1)


def test_gksl_exponential_identities_are_exact(rng):
    gen = stroboscopic_generator(gksl_model("aklt", "controlled", 0.1))
    rho = random_density(rng, 2)
    assert np.array_equal(gen._exp(0.0), np.eye(4))
    assert np.array_equal(evolve_gksl(gen, rho, 0.0), rho)
    zero = Superoperator(np.zeros((4, 4)), 2, 2)
    for t in (0.0, 3.7, -1e300):
        assert np.array_equal(zero._exp(t), np.eye(4))
    assert np.array_equal(evolve_gksl(zero, rho, 3.7), rho)


def scaled(gen, factor):
    return Superoperator(gen.matrix * factor, gen.in_dim, gen.out_dim)


def test_gksl_exponential_powers_belong_to_their_generator():
    gen = stroboscopic_generator(gksl_model("aklt", "heisenberg", 0.2))
    first = gen._exp(0.3)
    norm, powers = gen._taylor
    assert gen._taylor[1] is powers   # prepared once
    doubled = scaled(gen, 2.0)
    assert "_taylor" not in vars(doubled)
    assert doubled._taylor[0] == pytest.approx(2.0 * norm, rel=1e-15)
    assert np.max(np.abs(doubled._exp(0.15) - first)) <= 1e-14
    assert np.max(np.abs(doubled._exp(0.3) - scipy.linalg.expm(0.6 * gen.matrix))) <= 1e-14


def with_entry(gen, value):
    matrix = gen.matrix.copy()
    matrix[1, 2] = value
    return Superoperator(matrix, gen.in_dim, gen.out_dim)


@pytest.mark.parametrize("case", ["nan_entry", "inf_entry", "nan_t", "inf_t", "minus_inf_t",
                                  "t_norm_overflows", "squarings_overflow"])
def test_gksl_exponential_of_non_finite_input_is_non_finite(case):
    # ceil(log2(|t| ||L||_1)) raises OverflowError at inf and ValueError at nan;
    # like scipy's expm, the exponential returns non-finite states instead.
    gen = stroboscopic_generator(gksl_model("aklt", "controlled", 0.1))
    gen, dt = {"nan_entry": (with_entry(gen, np.nan), 0.1),
               "inf_entry": (with_entry(gen, np.inf), 0.1),
               "nan_t": (gen, np.nan),
               "inf_t": (gen, np.inf),
               "minus_inf_t": (gen, -np.inf),
               "t_norm_overflows": (scaled(gen, 1e10), 1e300),
               "squarings_overflow": (scaled(gen, -1.0), 1e6)}[case]
    with np.errstate(all="ignore"):
        states = evolve_gksl_grid(gen, np.diag([1.0, 0.0]), dt, 2)
    assert np.array_equal(states[0], np.diag([1.0, 0.0]))
    assert not np.isfinite(states[1]).all()
