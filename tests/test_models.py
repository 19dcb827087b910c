import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg  # test-only reference for the matrix exponential

from mpscollision import models
from mpscollision.embedding import trajectory
from mpscollision.linalg import kron
from mpscollision.models import (
    ModelSpec,
    aklt_env,
    aklt_exact_q,
    aklt_markov_q,
    build_model,
    cluster_env,
    ghz_env,
    interaction,
    single_photon_env,
    two_photon_env,
)
from mpscollision.mps import (
    check_right_canonical,
    decorrelate,
    site_reduced_state,
    stationary_bond_state,
    transfer_spectrum,
)

from conftest import reduced_density_prefix


def test_all_environments_canonical():
    envs = [
        two_photon_env(0.13, 0.005),
        cluster_env(),
        aklt_env(),
        ghz_env(5),
        single_photon_env(np.array([0.2, 0.5, 0.0, 0.3, 0.1])),
        single_photon_env(np.array([1.0, 0.0, 0.0])),
    ]
    for env in envs:
        assert check_right_canonical(env) < 1e-13


def test_two_photon_parameters():
    with pytest.raises(ValueError):
        two_photon_env(0.0, 0.1)
    with pytest.raises(ValueError):
        two_photon_env(0.1, -0.3)


@pytest.mark.parametrize("rates", [(np.nan, 0.1), (0.1, np.nan)])
def test_two_photon_refuses_a_nan_decay_parameter(rates):
    # nan <= 0 is False: the positivity check must refuse a NaN rate all the same.
    with pytest.raises(ValueError, match="must be positive"):
        two_photon_env(*rates)


def test_two_photon_fast_decay_limit():
    env = two_photon_env(40.0, 40.0)  # tau >> T: photons in the first bins
    b = env.sites[0]
    assert np.max(np.abs(b[0] - np.diag([0.0, 0.0, 1.0]))) < 1e-17
    assert abs(b[1][0, 1] - 1.0) < 1e-17
    assert abs(b[1][1, 2] - 1.0) < 1e-17


def test_two_photon_truncated_amplitudes():
    t1, t2 = 0.3 / 2.3, 0.3 / 59.9
    env = two_photon_env(t1, t2)
    n = 10
    from mpscollision.mps import MpsEnvironment

    finite = MpsEnvironment(tuple([env.sites[0]] * n), env.chi0)
    rho = reduced_density_prefix(finite, n)
    vec = np.zeros(2 ** n, dtype=complex)
    for first in range(n):
        for second in range(first + 1, n):
            gap = second - first
            vec[(1 << (n - 1 - first)) | (1 << (n - 1 - second))] = (
                np.exp(-(first + 1) * t1) * np.exp(-gap * t2)
            )
    vec /= np.linalg.norm(vec)
    sel = np.nonzero(np.abs(vec) > 0)[0]
    sub = rho[np.ix_(sel, sel)]
    sub = sub / np.trace(sub)
    ref = np.outer(vec[sel], vec[sel].conj())
    assert np.max(np.abs(sub - ref)) < 1e-10


def test_cluster_properties():
    env = cluster_env()
    assert abs(transfer_spectrum(env).lambda2) < 1e-12
    marg = site_reduced_state(env, env.initial_bond_state())
    assert np.max(np.abs(marg - np.diag([0.5, 0.5]))) < 1e-14


def test_aklt_properties():
    env = aklt_env()
    assert abs(transfer_spectrum(env).lambda2 + 1.0 / 3.0) < 1e-12
    assert np.max(np.abs(stationary_bond_state(env).matrix - env.chi0)) < 1e-12
    marg = site_reduced_state(env, env.initial_bond_state())
    assert np.max(np.abs(marg - np.eye(3) / 3)) < 1e-14


def test_ghz_contraction_and_errors():
    rho = reduced_density_prefix(ghz_env(3), 3)
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1 / np.sqrt(2)
    assert np.max(np.abs(rho - np.outer(vec, vec.conj()))) < 1e-12
    with pytest.raises(ValueError):
        ghz_env(1)


def test_single_photon_delta_is_product_state():
    env = single_photon_env(np.array([1.0, 0.0, 0.0, 0.0]))
    assert all(t.shape[1] == t.shape[2] == 1 for t in env.sites)
    rho = reduced_density_prefix(env, 4)
    vec = np.zeros(16)
    vec[8] = 1.0  # |1000>
    assert np.max(np.abs(rho - np.outer(vec, vec))) < 1e-14
    with pytest.raises(ValueError):
        single_photon_env(np.zeros(4))



@pytest.mark.parametrize("spec,message", [
    (ModelSpec("ghz", {"n_sites": True}), "n_sites must be an integer, got True"),
    (ModelSpec("cluster", {"fock_cutoff": 7}), "model 'cluster' reads no parameter 'fock_cutoff'"),
    (ModelSpec("single_photon", {"n_sites": 4, "width": -5}), "width must be positive, got -5"),
    (ModelSpec("single_photon", {"n_sites": 0}), "n_sites must be at least 1, got 0"),
    (ModelSpec("ghz", {"n_sites": -3}), "n_sites must be at least 1, got -3"),
    (ModelSpec("cluster", {"x": 1}), "'cluster' reads no parameter 'x', it takes no parameters"),
    (ModelSpec("aklt", {"x": 1}), "'aklt' reads no parameter 'x', it takes no parameters"),
    (ModelSpec("ghz", {"n_sites": 2 ** 14 + 1}),
     "n_sites asks for 16385 sites, over the 16384-site limit"),
    (ModelSpec("single_photon", {"amplitudes": [1.0] * (2 ** 14 + 1)}),
     "amplitudes asks for 16385 sites, over the 16384-site limit"),
    (ModelSpec("ghz", [("n_sites", 4)]), "parameters must be an object, got list"),
    (ModelSpec("single_photon", {"amplitudes": 3}),
     "amplitudes must be a list of amplitudes, got 3"),
    (ModelSpec("single_photon", {"amplitudes": {"a": 1}}),
     "amplitudes must be a list of amplitudes, got {'a': 1}"),
    (ModelSpec("single_photon", {"amplitudes": "ab"}),
     "amplitudes must be a list of amplitudes, got 'ab'"),
])
def test_library_builders_refuse_parameters(spec, message):
    # Each parameter is checked where it is read, whichever interaction the model runs under.
    for build in (models.environment_for, lambda s: build_model(s, 0.3),
                  lambda s: build_model(s, 0.3, interaction_name="cluster", fock_cutoff=7)):
        with pytest.raises(ValueError) as err:
            build(spec)
        assert message in str(err.value)


def test_library_chain_length_cap_refuses_before_the_builder(monkeypatch):
    # Past the cap the row's builder, which stores one site tensor per site, never runs.
    built, ghz = [], models.MODELS["ghz"]
    monkeypatch.setattr(ghz, "environment", lambda p, build=ghz.environment:
                        built.append(p) or build(p))
    with pytest.raises(ValueError, match="16385 sites, over the 16384-site limit"):
        build_model(ModelSpec("ghz", {"n_sites": models.MAX_CHAIN_SITES + 1}), 0.3)
    assert built == []
    model = build_model(ModelSpec("ghz", {"n_sites": models.MAX_CHAIN_SITES}), 0.3)
    assert model.env.length == models.MAX_CHAIN_SITES and len(built) == 1


def test_library_builders_take_numpy_integers():
    # A count or a rate that is a numpy integer has its kind, as its Python twin does.
    for numpy_spec, spec in (
            (ModelSpec("ghz", {"n_sites": np.int64(4)}), ModelSpec("ghz", {"n_sites": 4})),
            (ModelSpec("two_photon", {"tau_over_T1": np.int64(1), "tau_over_T2": 0.1}),
             ModelSpec("two_photon", {"tau_over_T1": 1, "tau_over_T2": 0.1}))):
        built, ref = build_model(numpy_spec, 0.3).env, build_model(spec, 0.3).env
        assert all(np.array_equal(a, b) for a, b in zip(built.sites, ref.sites))


# -- interactions -------------------------------------------------------------

def test_interactions_identity_at_zero_coupling():
    for name in models.INTERACTION_NAMES:
        u = interaction(name, 0.0, 4 if name in ("exchange", "cluster") else None).unitary
        assert np.max(np.abs(u - np.eye(u.shape[0]))) < 1e-14, name


def test_interactions_unitary_and_hermitian_generator():
    for name in models.INTERACTION_NAMES:
        inter = interaction(name, 0.37)
        dim = inter.unitary.shape[0]
        assert np.linalg.norm(inter.unitary.conj().T @ inter.unitary - np.eye(dim)) < 1e-12
        assert np.linalg.norm(inter.hamiltonian - inter.hamiltonian.conj().T) < 1e-13


def test_exchange_absorbs_photon():
    u = interaction("exchange", 0.7, mode_dim=2).unitary
    psi = np.zeros(4)
    psi[1] = 1.0  # |g, 1>
    out = u @ psi
    expected = np.zeros(4)
    expected[1] = np.cos(0.7)  # |g, 1>
    expected[2] = np.sin(0.7)  # |e, 0>
    assert np.max(np.abs(out - expected)) < 1e-14


def test_controlled_unitary_block_diagonal():
    from mpscollision.linalg import expm_hermitian_generator

    u = interaction("controlled", 0.1).unitary
    ref = np.zeros((6, 6), dtype=complex)
    for idx, sigma in enumerate((models.SIGMA_X, models.SIGMA_Y, models.SIGMA_Z)):
        proj = np.zeros((3, 3))
        proj[idx, idx] = 1.0
        ref += kron(expm_hermitian_generator(sigma, 0.1), proj)
    assert np.max(np.abs(u - ref)) < 1e-13


def test_interaction_mode_dim_validation():
    with pytest.raises(ValueError):
        interaction("exchange", 0.1, mode_dim=1)
    with pytest.raises(ValueError):
        interaction("heisenberg", 0.1, mode_dim=4)
    with pytest.raises(ValueError):
        interaction("nonsense", 0.1)


# -- closed forms ---------------------------------------------------------------

def test_q_closed_forms_limits():
    for k in (0, 1, 7, 40):
        assert abs(aklt_exact_q(k, 0.0) - 1.0) < 1e-14
        assert abs(aklt_markov_q(k, 0.0) - 1.0) < 1e-14
    for gt in (0.1, 0.6, 1.2):
        assert abs(aklt_exact_q(0, gt) - 1.0) < 1e-14


def test_q_exact_matches_embedding():
    gt = 0.5
    model = build_model(ModelSpec("aklt"), g_tau=gt)
    states = trajectory(model, models.named_initial_state("ground"), 10)
    qs = models.depolarization_series(states)
    for k, q in enumerate(qs):
        assert abs(q - aklt_exact_q(k, gt)) < 1e-10


def test_markov_asymptotics():
    # q_Markov(t) ~ exp(-(2/3) g^2 tau t) for small g tau (g = 1, tau = g_tau)
    gt = 0.05
    rate = 2.0 / 3.0 * gt  # per-step decay exponent (2/3) g^2 tau * tau
    for k in (50, 200, 400):
        exact = aklt_markov_q(k, gt)
        approx = np.exp(-rate * gt * k)
        assert abs(exact - approx) / approx < 0.02


def test_exact_asymptotics():
    # q(t) ~ (1 - g^2 tau^2 / 2) exp(-g^4 tau^3 t / 8) over the first e-folding
    gt = 0.05
    prefactor = 1.0 - 0.5 * gt ** 2
    step_rate = gt ** 4 / 8.0  # exponent per step: g^4 tau^3 * tau
    k_fold = int(1.0 / step_rate)
    for k in (0, k_fold // 4, k_fold // 2, k_fold):
        approx = prefactor * np.exp(-step_rate * k)
        exact = aklt_exact_q(k, gt)
        assert abs(exact - approx) / approx < 0.02


def test_depolarization_structure_two_initial_states():
    gt = 0.7
    model = build_model(ModelSpec("aklt"), g_tau=gt)
    qs = []
    for name in ("ground", "plus"):
        states = trajectory(model, models.named_initial_state(name), 12)
        qs.append(models.depolarization_series(states))
    for a, b in zip(*qs):
        assert abs(a - b) < 1e-10
    with pytest.raises(ValueError):
        models.depolarization_series([np.eye(2) / 2])


def test_named_states_and_observables():
    assert np.allclose(models.named_initial_state("ground"), np.diag([1, 0]))
    assert np.allclose(models.named_observable("excited_population"), np.diag([0, 1]))
    with pytest.raises(ValueError):
        models.named_initial_state("sideways")
    with pytest.raises(ValueError):
        models.named_observable("sideways")
    with pytest.raises(ValueError):
        ModelSpec("unknown_model")


# -- the cluster coupling in closed form ---------------------------------------------------
# U = exp(g_tau sigma_x (x) (a - a^dag)) is |+><+| (x) V_+ + |-><-| (x) V_- with V_+- =
# exp(+-g_tau (a - a^dag)), so W = V_-^dag V_+ is exp(2 g_tau (a - a^dag)) at the cutoff and
# the displacement D(-2 g_tau) untruncated.

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
PLUS_MINUS = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)   # rows <+| and <-|
GROUND = np.diag([1.0, 0.0]).astype(complex)


def cluster_model(g_tau, cutoff, k_max, twin, spec=ModelSpec("cluster")):
    model = build_model(spec, g_tau, "cluster", fock_cutoff=cutoff)
    if twin:
        model = dataclasses.replace(model, env=decorrelate(model.env, length=k_max))
    return model


@pytest.mark.parametrize("g_tau", [0.3, 0.6, 1.5])
def test_displacement_is_the_block_of_a_wide_exponential(g_tau):
    a = models.annihilation(60)
    wide = scipy.linalg.expm(2.0 * g_tau * (a - a.conj().T))
    assert np.max(np.abs(models._displacement(-2.0 * g_tau, 4) - wide[:4, :4])) <= 1e-14


def test_displacement_underflows_far_out():
    # e^{-alpha^2/2} is 0 in floating point past |alpha| ~ 38.6; no entry may turn inf or nan.
    for alpha in (-40.0, -2e200):
        assert np.array_equal(models._displacement(alpha, 6), np.zeros((6, 6)))


@pytest.mark.parametrize("name,g_tau,cutoff", [("fig5b_gtau03.csv", 0.3, 7),
                                               ("fig5b_gtau06.csv", 0.6, 9)])
def test_fig5b_golden_columns_are_the_controlled_overlap(name, g_tau, cutoff):
    # The coherence is 2 Re rho_+-(k); the uncorrelated column is the decorrelated twin's, on
    # which W acts as W (x) I_anc.
    golden = np.loadtxt(GOLDEN / name, delimiter=",", skiprows=1)
    for column, twin in ((2, False), (3, True)):
        rho_pm = models._cluster_coherence(cluster_model(g_tau, cutoff, 30, twin), GROUND, 30)
        assert np.max(np.abs(golden[:, column] - 2.0 * rho_pm[:, 0].real)) <= 1e-13
        # The untruncated column is the run at cutoff 30, where the truncation is below roundoff.
        wide = models._cluster_coherence(cluster_model(g_tau, 30, 30, twin), GROUND, 30)
        assert np.max(np.abs(rho_pm[:, 1] - wide[:, 0])) <= 1e-15


@pytest.mark.parametrize("spec,g_tau,cutoff,k_max", [
    (ModelSpec("cluster"), 0.6, 9, 2000),
    (ModelSpec("ghz", {"n_sites": 6}), 0.4, 5, 6),
    (ModelSpec("two_photon", {"tau_over_T1": 0.1, "tau_over_T2": 0.02}), 0.4, 5, 200),
    (ModelSpec("aklt"), 0.4, 5, 500),
], ids=["cluster", "ghz", "two_photon", "aklt"])
@pytest.mark.parametrize("twin", [False, True], ids=["correlated", "decorrelated"])
def test_embedding_under_the_cluster_coupling_is_the_controlled_overlap(spec, g_tau, cutoff,
                                                                        k_max, twin):
    model = cluster_model(g_tau, cutoff, k_max, twin, spec)
    rho0 = np.array([[0.7, 0.2 - 0.3j], [0.2 + 0.3j, 0.3]])
    states = PLUS_MINUS @ np.array(trajectory(model, rho0, k_max)) @ PLUS_MINUS
    rho_pm = models._cluster_coherence(model, rho0, k_max)
    assert np.max(np.abs(states[:, 0, 1] - rho_pm[:, 0])) <= 1e-13
