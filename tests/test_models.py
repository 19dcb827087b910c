import numpy as np
import pytest

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
