import tracemalloc

import numpy as np
import pytest

from mpscollision import models, oracle
from mpscollision.embedding import CollisionModel, trajectory
from mpscollision.mps import MpsEnvironment
from mpscollision.models import ModelSpec, build_model
from mpscollision.oracle import OracleRun, SizeGuardError, brute_force_trajectory

from conftest import partial_trace, random_density, trace_distance


def test_zero_coupling_constant_trajectory():
    model = build_model(ModelSpec("aklt"), g_tau=0.0)
    rho0 = models.named_initial_state("plus")
    run = OracleRun(model, rho0, n_sites=5, k_max=5)
    for out in brute_force_trajectory(run):
        assert np.max(np.abs(out - rho0)) < 1e-13


def test_product_environment_factorizes():
    # vacuum product environment: oracle equals repeated single-mode collisions
    env_tensor = np.zeros((2, 1, 1), dtype=complex)
    env_tensor[0, 0, 0] = 1.0
    from mpscollision.mps import MpsEnvironment

    env = MpsEnvironment((env_tensor,), np.eye(1, dtype=complex), homogeneous=True)
    inter = models.interaction("exchange", 0.5, 3)
    model = CollisionModel(env=env, unitary=inter.unitary, d_system=2, mode_dim=3,
                           g_tau=0.5, hamiltonian=inter.hamiltonian)
    rho0 = models.named_initial_state("excited")
    run = OracleRun(model, rho0, n_sites=3, k_max=3)
    got = brute_force_trajectory(run)

    from mpscollision.linalg import dagger, kron

    rho = rho0.copy()
    vacuum = np.zeros((3, 3), dtype=complex)
    vacuum[0, 0] = 1.0
    seq = [rho]
    for _ in range(3):
        joint = inter.unitary @ kron(rho, vacuum) @ dagger(inter.unitary)
        rho = partial_trace(joint, (2, 3), keep=(0,))
        seq.append(rho)
    for a, b in zip(got, seq):
        assert np.max(np.abs(a - b)) < 1e-12


def test_oracle_vs_embedding_aklt():
    model = build_model(ModelSpec("aklt"), g_tau=0.6)
    rho0 = models.named_initial_state("ground")
    run = OracleRun(model, rho0, n_sites=7, k_max=7)
    oracle = brute_force_trajectory(run)
    embed = trajectory(model, rho0, 7)
    for a, b in zip(oracle, embed):
        assert trace_distance(a, b) < 1e-10


def test_oracle_outputs_are_states():
    model = build_model(ModelSpec("cluster"), g_tau=0.6, fock_cutoff=5)
    rho0 = models.named_initial_state("plus")
    run = OracleRun(model, rho0, n_sites=6, k_max=6)
    for out in brute_force_trajectory(run):
        assert abs(np.trace(out) - 1.0) < 1e-11
        assert np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0] > -1e-10


def test_oracle_mixed_initial_state(rng):
    model = build_model(ModelSpec("aklt"), g_tau=0.4)
    rho0 = random_density(rng, 2)
    run = OracleRun(model, rho0, n_sites=5, k_max=5)
    oracle = brute_force_trajectory(run)
    embed = trajectory(model, rho0, 5)
    for a, b in zip(oracle, embed):
        assert trace_distance(a, b) < 1e-11


def test_size_guard():
    model = build_model(ModelSpec("aklt"), g_tau=0.4)
    with pytest.raises(SizeGuardError):
        OracleRun(model, np.eye(2) / 2, n_sites=14, k_max=3)
    with pytest.raises(ValueError):
        OracleRun(model, np.eye(2) / 2, n_sites=4, k_max=5)


def test_size_guard_counts_padded_sites():
    # The cluster coupling pads each collided site from 2 levels to the Fock
    # cutoff: 2 * 9**12 entries, where the physical dimensions give 2 * 2**12.
    model = build_model(ModelSpec("cluster"), g_tau=0.3, fock_cutoff=9)
    with pytest.raises(SizeGuardError, match=f"of {2 * 9 ** 12} entries"):
        OracleRun(model, models.named_initial_state("ground"), n_sites=12, k_max=12)
    # sites beyond k_max are never collided and keep their physical dimension
    run = OracleRun(model, models.named_initial_state("ground"), n_sites=12, k_max=2)
    assert run.k_max == 2


@pytest.mark.parametrize("spec,g_tau,n_sites", [
    (ModelSpec("aklt"), 0.5, 6),   # rank-2 chi0, open right bond 2
    (ModelSpec("two_photon", {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9}), 0.3, 5),
], ids=["aklt", "two_photon"])   # two_photon: padded sites, open right bond 3
def test_size_guard_counts_the_largest_run_vector(monkeypatch, spec, g_tau, n_sites):
    model = build_model(spec, g_tau=g_tau)
    assert model.env.site(n_sites - 1).shape[2] > 1
    rho0 = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])
    sizes = []
    density = oracle._system_density
    monkeypatch.setattr(oracle, "_system_density",
                        lambda psi: sizes.append(psi.size) or density(psi))
    brute_force_trajectory(OracleRun(model, rho0, n_sites=n_sites, k_max=n_sites))
    monkeypatch.setattr(oracle, "STATE_GUARD", 0)
    with pytest.raises(SizeGuardError, match=f"of {max(sizes)} entries"):
        OracleRun(model, rho0, n_sites=n_sites, k_max=n_sites)


def test_size_guard_counts_the_environment_tensor(monkeypatch):
    # A D = 8 qubit chain with pure chi0 at n = 6: each run vector holds
    # 2 * 2**6 = 128 entries, but the environment tensor (purified chi0, sites,
    # open right bond) that lives through every run holds 2**6 * 8 = 512.
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(16, 8)) + 1j * rng.normal(size=(16, 8)))
    site = q.conj().T.reshape(8, 2, 8).transpose(1, 0, 2)
    chi0 = np.zeros((8, 8), dtype=complex)
    chi0[0, 0] = 1.0
    inter = models.interaction("exchange", 0.5, 2)
    model = CollisionModel(env=MpsEnvironment((site,), chi0, homogeneous=True),
                           unitary=inter.unitary, d_system=2, mode_dim=2, g_tau=0.5,
                           hamiltonian=inter.hamiltonian)
    rho0 = models.named_initial_state("ground")
    monkeypatch.setattr(oracle, "STATE_GUARD", 512)
    OracleRun(model, rho0, n_sites=6, k_max=6)
    monkeypatch.setattr(oracle, "STATE_GUARD", 256)
    with pytest.raises(SizeGuardError, match="environment tensor of 512 entries"):
        OracleRun(model, rho0, n_sites=6, k_max=6)


@pytest.mark.parametrize("rho0,n_sites,k_max,message", [
    (np.eye(2) / 2, -2, -3, "k_max, n_sites >= 0"),
    (np.eye(2) / 2, 2, -1, "k_max, n_sites >= 0"),
    (np.eye(3) / 3, 2, 2, r"shape \(3, 3\), expected \(2, 2\)"),
], ids=["negative_both", "negative_k_max", "rho_3x3"])
def test_oracle_refuses_bad_runs_before_any_contraction(monkeypatch, rho0, n_sites, k_max,
                                                        message):
    def contract(*args):
        raise AssertionError("the oracle contracted before refusing the run")

    model = build_model(ModelSpec("aklt"), g_tau=0.4)
    monkeypatch.setattr(oracle, "_environment_state", contract)
    with pytest.raises(ValueError, match=message):
        brute_force_trajectory(OracleRun(model, rho0, n_sites=n_sites, k_max=k_max))


@pytest.mark.parametrize("spec,g_tau,fock_cutoff,n_sites", [
    (ModelSpec("aklt"), 0.5, None, 8),
    (ModelSpec("two_photon", {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9}), 0.3, None, 9),
    (ModelSpec("cluster"), 0.3, 3, 9),
], ids=["aklt", "two_photon", "cluster"])
def test_oracle_holds_the_environment_and_two_run_vectors(monkeypatch, spec, g_tau,
                                                          fock_cutoff, n_sites):
    model = build_model(spec, g_tau=g_tau, fock_cutoff=fock_cutoff)
    rho0 = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])
    run = OracleRun(model, rho0, n_sites=n_sites, k_max=n_sites)
    sizes = []
    density = oracle._system_density
    monkeypatch.setattr(oracle, "_system_density",
                        lambda psi: sizes.append(psi.size) or density(psi))
    brute_force_trajectory(run)
    run_vector = 16 * max(sizes)
    env_tensor = oracle._environment_state(model.env, n_sites).nbytes
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        brute_force_trajectory(run)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= env_tensor + 2 * run_vector + 64 * 1024, peak / run_vector


def test_oracle_respects_finite_length():
    model = build_model(ModelSpec("ghz", {"n_sites": 4}), g_tau=0.3)
    with pytest.raises(ValueError):
        OracleRun(model, np.eye(2) / 2, n_sites=6, k_max=2)
