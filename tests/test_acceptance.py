"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Two criteria pin targets that the model's defining tensors provably cannot
meet (a mis-normalized closed form, an over-optimistic cutoff tolerance;
see README).  Those are kept verbatim as strict expected failures, each
with a companion test pinning the corrected value.
"""

import time

import numpy as np
import pytest

from mpscollision import models
from mpscollision.embedding import CollisionModel, kraus_operators, observable_series, trajectory
from mpscollision.linalg import dagger, frobenius, kron
from mpscollision.master_equation import (
    build_kernel_table,
    evolve_gksl,
    kernel_scan,
    solve_nz,
    stroboscopic_generator,
)
from mpscollision.models import ModelSpec, aklt_exact_q, aklt_markov_q, build_model
from mpscollision.mps import decorrelate
from mpscollision.oracle import OracleRun, brute_force_trajectory

from conftest import pair_state, trace_distance

GROUND = models.named_initial_state("ground")


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def zoo_for_oracle():
    return {
        "two_photon": build_model(
            ModelSpec("two_photon", {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9}), g_tau=0.3),
        "cluster": build_model(ModelSpec("cluster"), g_tau=0.6, fock_cutoff=5),
        "aklt": build_model(ModelSpec("aklt"), g_tau=0.5),
        "ghz": build_model(ModelSpec("ghz", {"n_sites": 8}), g_tau=0.4),
        "single_photon": build_model(ModelSpec("single_photon", {"n_sites": 8}), g_tau=0.4),
    }


def test_criterion_1_aklt_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for g_tau in (0.1, 0.5, 1.0):
        model = build_model(ModelSpec("aklt"), g_tau=g_tau)
        states = trajectory(model, GROUND, 200)
        qs = models.depolarization_series(states)
        for k, q in enumerate(qs):
            worst = max(worst, abs(q - aklt_exact_q(k, g_tau)))
    elapsed = time.perf_counter() - start
    verdict(1, worst < 1e-10 and elapsed < 1.0,
            f"closed-form depolarization, max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_aklt_markov_baseline():
    worst = 0.0
    for g_tau in (0.1, 0.5, 1.0):
        model = build_model(ModelSpec("aklt"), g_tau=g_tau)
        dec = decorrelate(model.env)
        dmodel = CollisionModel(env=dec, unitary=model.unitary, d_system=2,
                                mode_dim=3, g_tau=g_tau, hamiltonian=model.hamiltonian)
        qs = models.depolarization_series(trajectory(dmodel, GROUND, 200))
        for k, q in enumerate(qs):
            worst = max(worst, abs(q - aklt_markov_q(k, g_tau)))
    verdict(2, worst < 1e-10, f"uncorrelated baseline, max err {worst:.2e}")


def _aklt_pair_error(coefficient_scale: float) -> float:
    env = models.aklt_env()
    chi = env.initial_bond_state()
    jx, jy, jz = models.spin1_matrices()
    coupling = kron(jx, jx) + kron(jy, jy) + kron(jz, jz)
    worst = 0.0
    for m in range(1, 7):
        got = pair_state(env, m, chi)
        formula = np.eye(9) / 9.0 + coefficient_scale * (-1.0 / 3.0) ** m * coupling
        worst = max(worst, float(np.max(np.abs(got - formula))))
    return worst


@pytest.mark.xfail(
    strict=True,
    reason="commonly quoted closed form carries the correlation term without "
    "its 1/3 weight; it is not a density matrix at m = 1, 2 (verified "
    "against the chain tensors and the brute-force oracle)",
)
def test_criterion_3_pair_correlations_literal():
    worst = _aklt_pair_error(1.0)
    verdict(3, worst < 1e-12, f"two-point formula (literal), max err {worst:.2e}")


def test_criterion_3_pair_correlations_corrected():
    worst = _aklt_pair_error(1.0 / 3.0)
    verdict(3, worst < 1e-12,
            f"two-point formula (corrected 1/3 weight), max err {worst:.2e}")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    details = []
    worst = 0.0
    for name, model in zoo_for_oracle().items():
        states = trajectory(model, GROUND, 8)
        oracle = brute_force_trajectory(OracleRun(model, GROUND, n_sites=8, k_max=8))
        dist = max(trace_distance(a, b) for a, b in zip(states, oracle))
        details.append(f"{name} {dist:.1e}")
        worst = max(worst, dist)
    elapsed = time.perf_counter() - start
    verdict(4, worst < 1e-10 and elapsed < 30.0,
            f"embedding vs brute force: {', '.join(details)}; {elapsed:.1f}s")


def test_criterion_5_nz_exactness():
    worst = 0.0
    for spec, g_tau in ((ModelSpec("aklt"), 0.5),
                        (ModelSpec("two_photon", {"g_tau": 0.3, "g_T1": 2.3,
                                                  "g_T2": 59.9}), 0.3)):
        model = build_model(spec, g_tau=g_tau)
        table = build_kernel_table(model, 20)
        nz = solve_nz(table, GROUND, 20)
        embed = trajectory(model, GROUND, 20)
        worst = max(worst, max(trace_distance(a, b) for a, b in zip(nz, embed)))
    verdict(5, worst < 1e-8, f"memory-kernel recursion vs embedding, max TD {worst:.2e}")


def test_criterion_6_second_order_scaling():
    residuals = {}
    for g_tau in (0.2, 0.1):
        model = build_model(ModelSpec("aklt"), g_tau=g_tau)
        kernels, second = kernel_scan(model, 3, 1)
        residuals[g_tau] = frobenius(kernels[1].matrix - second[1].matrix)
    ratio = residuals[0.2] / residuals[0.1]
    verdict(6, 6.0 <= ratio <= 10.0,
            f"||K - K2|| drops by {ratio:.2f} when halving the coupling")


def test_criterion_7_cluster_two_collision_coincidence():
    ok = True
    details = []
    for g_tau in (0.3, 0.6):
        model = build_model(ModelSpec("cluster"), g_tau=g_tau, fock_cutoff=5)
        dec = decorrelate(model.env, length=10)
        dmodel = CollisionModel(env=dec, unitary=model.unitary, d_system=2,
                                mode_dim=model.mode_dim, g_tau=g_tau,
                                hamiltonian=model.hamiltonian)
        obs = models.named_observable("coherence")
        corr = observable_series(trajectory(model, GROUND, 10), obs)
        uncorr = observable_series(trajectory(dmodel, GROUND, 10), obs)
        early = max(abs(a - b) for a, b in zip(corr[:3], uncorr[:3]))
        ok = ok and early < 1e-12
        details.append(f"gt={g_tau}: first-two {early:.1e}")
        if g_tau == 0.6:
            late = max(abs(a - b) for a, b in zip(corr[3:11], uncorr[3:11]))
            ok = ok and late > 1e-4
            details.append(f"later divergence {late:.1e}")
    verdict(7, ok, "; ".join(details))


def test_criterion_8_kraus_completeness():
    worst = 0.0
    for name, model in zoo_for_oracle().items():
        top = 50 if model.env.homogeneous else model.env.length
        for k in range(top):
            ops = kraus_operators(model, k)
            dim = ops[0].shape[1]
            res = float(np.max(np.abs(sum(dagger(a) @ a for a in ops) - np.eye(dim))))
            worst = max(worst, res)
    verdict(8, worst < 1e-12, f"Kraus completeness over the zoo, max residual {worst:.2e}")


def _gksl_deviation(g_tau: float, g2tau: float = 0.1) -> float:
    tau = g_tau ** 2 / g2tau
    model = build_model(ModelSpec("aklt"), g_tau=g_tau, tau=tau,
                        interaction_name="controlled")
    gen = stroboscopic_generator(model)
    obs = models.named_observable("sigma_z")
    k_max = int(round(20.0 / g_tau))  # g t = k g_tau up to 20
    exact = observable_series(trajectory(model, GROUND, k_max), obs)
    worst = 0.0
    for k in range(k_max + 1):
        rho = evolve_gksl(gen, GROUND, k * model.tau)
        worst = max(worst, abs(float(np.trace(rho @ obs).real) - exact[k]))
    return worst


def test_criterion_9_stroboscopic_agreement():
    coarse = _gksl_deviation(0.1)
    fine = _gksl_deviation(0.05)
    ratio = coarse / fine
    verdict(9, ratio >= 1.8,
            f"GKSL vs exact max deviation {coarse:.3e} at g_tau=0.1, "
            f"{fine:.3e} at g_tau=0.05 (fixed g^2 tau); ratio {ratio:.2f}")


def _cluster_cutoff_shift(cut_a: int, cut_b: int) -> float:
    """Largest change of the 30-step coherence when the Fock cutoff goes from cut_a to cut_b."""
    obs = models.named_observable("coherence")
    series = [observable_series(trajectory(build_model(ModelSpec("cluster"), g_tau=0.6,
                                                       fock_cutoff=cutoff), GROUND, 30), obs)
              for cutoff in (cut_a, cut_b)]
    return float(np.max(np.abs(np.array(series[0]) - np.array(series[1]))))


@pytest.mark.xfail(
    strict=True,
    reason="the 5 -> 7 cutoff shift at g_tau = 0.6 is ~4e-3, not < 1e-6: the "
    "displacement coupling populates the fifth Fock level appreciably "
    "(convergence is factorial but from a much higher floor)",
)
def test_criterion_10_cutoff_convergence_literal():
    shift = _cluster_cutoff_shift(5, 7)
    verdict(10, shift < 1e-6, f"cutoff 5 -> 7 shift {shift:.2e}")


def test_criterion_10_cutoff_convergence_certified():
    shift = _cluster_cutoff_shift(9, 11)
    verdict(10, shift < 1e-6,
            f"cutoff 9 -> 11 shift {shift:.2e} (converged working cutoff)")


def test_criterion_11_two_photon_correlation_gap():
    model = build_model(
        ModelSpec("two_photon", {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9}), g_tau=0.3)
    dec = decorrelate(model.env, length=100)
    dmodel = CollisionModel(env=dec, unitary=model.unitary, d_system=2,
                            mode_dim=3, g_tau=0.3, hamiltonian=model.hamiltonian)
    obs = models.named_observable("excited_population")
    corr_states = trajectory(model, GROUND, 100)
    uncorr_states = trajectory(dmodel, GROUND, 100)
    corr = np.array(observable_series(corr_states, obs))
    uncorr = np.array(observable_series(uncorr_states, obs))
    gap = float(np.max(np.abs(corr - uncorr)))
    in_range = bool(np.all((corr >= -1e-12) & (corr <= 1 + 1e-12)
                           & (uncorr >= -1e-12) & (uncorr <= 1 + 1e-12)))
    min_eig = min(
        float(np.linalg.eigvalsh(0.5 * (s + s.conj().T))[0])
        for seq in (corr_states, uncorr_states) for s in seq
    )
    verdict(11, gap > 0.05 and in_range and min_eig > -1e-10,
            f"correlated vs factorized population gap {gap:.3f}, "
            f"min eigenvalue {min_eig:.1e}")
