"""One case per refusal that no other test reaches, each through its public entry where
one reaches it (``tools/raise_lines.py`` lists the ``raise`` lines no test executes)."""

import dataclasses

import numpy as np
import pytest

from mpscollision import models
from mpscollision.cli import ConfigError, load_config
from mpscollision.embedding import CollisionModel
from mpscollision.linalg import lq_factorize
from mpscollision.master_equation import stroboscopic_generator
from mpscollision.models import ModelSpec, build_model
from mpscollision.mps import (
    BondState,
    MpsEnvironment,
    decorrelate,
    right_canonicalize,
    stationary_bond_state,
    transfer_spectrum,
)
from mpscollision.oracle import OracleRun, brute_force_trajectory


def aklt():
    return build_model(ModelSpec("aklt"), g_tau=0.5)


def homogeneous(site, chi0=None):
    site = np.asarray(site, dtype=complex)
    chi0 = np.eye(site.shape[1]) / site.shape[1] if chi0 is None else chi0
    return MpsEnvironment((site,), chi0, homogeneous=True)


def config(**extra):
    return load_config({"model": {"name": "aklt"}, "g_tau": 0.5, "k_max": 4, **extra})


def finite_chain(rng, bonds):
    """right_canonicalize of random spin-1/2 tensors with the given bond dimensions."""
    return right_canonicalize([rng.normal(size=(2, a, b)) for a, b in zip(bonds, bonds[1:])])


def _zero_marginal_chain():
    # A finite chain (never validated) whose second site is zero: its marginal has no weight.
    first = np.zeros((2, 1, 1), dtype=complex)
    first[0] = 1.0
    return MpsEnvironment((first, np.zeros((2, 1, 1))), np.eye(1))


def _traceless_fixed_point_chain():
    # One Kraus operator diag(2, 1/2): the bond map has eigenvalue 1 only on |0><1| and |1><0|.
    return homogeneous(np.diag([2.0, 0.5])[None])


REFUSALS = {
    # mps: environment, bond state and canonical-form shapes
    "site_tensor_not_3d": (lambda: MpsEnvironment((np.eye(2),), np.eye(2)),
                           ValueError, r"site tensor must have shape \(d, Dl, Dr\)"),
    "homogeneous_two_sites": (lambda: MpsEnvironment((np.ones((1, 1, 1)),) * 2, np.eye(1),
                                                     homogeneous=True),
                              ValueError, "stores exactly one site tensor"),
    "homogeneous_unequal_bonds": (lambda: MpsEnvironment((np.ones((2, 1, 2)),), np.eye(1),
                                                         homogeneous=True),
                                  ValueError, "must have equal bond dimensions"),
    "ancilla_not_dividing": (lambda: MpsEnvironment((np.ones((3, 1, 1)),), np.eye(1),
                                                    ancilla_dim=2),
                             ValueError, "ancilla_dim must divide"),
    "site_beyond_chain": (lambda: models.ghz_env(4).site(4), IndexError, "site 4 out of range"),
    "bond_state_not_square": (lambda: BondState(0, np.ones((2, 3))), ValueError,
                              "must be a square matrix"),
    "canonicalize_not_3d": (lambda: right_canonicalize([np.ones((2, 1))]), ValueError,
                            r"site tensor must have shape \(d, Dl, Dr\)"),
    "canonicalize_open_outer_bond": (lambda: right_canonicalize([np.ones((2, 2, 1))]),
                                     ValueError, "outer bond dimensions 1"),
    # mps: decorrelation and transfer spectra of chains they do not cover
    "decorrelate_zero_marginal": (lambda: decorrelate(_zero_marginal_chain()), ValueError,
                                  "^site 1 marginal has no positive weight$"),
    "spectrum_no_bulk_tensor": (lambda: transfer_spectrum(
        finite_chain(np.random.default_rng(1), [1, 2, 1])), ValueError,
        "no repeated bulk tensor"),
    "spectrum_non_uniform_bulk": (lambda: transfer_spectrum(
        finite_chain(np.random.default_rng(2), [1, 2, 2, 2, 1])), ValueError,
        "not translation invariant in the bulk"),
    "spectrum_not_canonical": (lambda: transfer_spectrum(
        homogeneous(2.0 * models.aklt_env().sites[0])), ValueError,
        "leading transfer eigenvalue .* is not 1"),
    "fixed_point_not_canonical": (lambda: stationary_bond_state(
        homogeneous(2.0 * models.aklt_env().sites[0])), ValueError, "no eigenvalue 1"),
    "fixed_point_traceless": (lambda: stationary_bond_state(_traceless_fixed_point_chain()),
                              ValueError, "zero trace"),
    # master_equation: the stroboscopic limit's coverage
    "gksl_two_site_unknown": (lambda: stroboscopic_generator(aklt(), two_site="both"),
                              ValueError, "two_site must be"),
    "gksl_unitary_tuple": (lambda: stroboscopic_generator(
        dataclasses.replace(aklt(), unitary=(aklt().unitary,) * 3)), ValueError,
        "needs a homogeneous environment and interaction"),
    # embedding, linalg, models, oracle
    "unitary_wrong_shape": (lambda: CollisionModel(env=models.aklt_env(), unitary=np.eye(4),
                                                   d_system=2, mode_dim=3, g_tau=0.1),
                            ValueError, r"unitary shape \(4, 4\), expected \(6, 6\)"),
    "hamiltonian_wrong_shape": (lambda: dataclasses.replace(aklt(), hamiltonian=np.eye(4)),
                                ValueError,
                                r"hamiltonian must be finite, Hermitian and of shape \(6, 6\)"),
    "lq_not_a_matrix": (lambda: lq_factorize(np.ones(3)), ValueError, "expects a matrix"),
    "chi0_not_hermitian": (lambda: homogeneous(models.aklt_env().sites[0],
                                               np.array([[0.5, 0.5], [0.0, 0.5]])).validate(),
                           ValueError, "chi0 is not Hermitian"),
    "amplitudes_empty": (lambda: models.single_photon_env([]), ValueError,
                         "amplitudes must be a nonempty vector"),
    "oracle_zero_state": (lambda: brute_force_trajectory(OracleRun(aklt(), np.zeros((2, 2)),
                                                                   n_sites=2, k_max=2)),
                          ValueError, "initial system state has no positive weight"),
    # cli: document shapes
    "config_initial_state_number": (lambda: config(initial_state=3), ConfigError,
                                    r"^config\.initial_state: expected a name or"),
    "config_interaction_number": (lambda: config(interaction=5), ConfigError,
                                  r"^config\.interaction: expected a name or \{matrix: \.\.\.\}$"),
    "config_tolerances_list": (lambda: config(tolerances=[]), ConfigError,
                               r"^config\.tolerances: expected an object"),
    "config_interaction_odd_dimension": (lambda: config(interaction={"matrix": [[[1, 0]]]}),
                                         ConfigError,
                                         r"^config\.interaction\.matrix: dimension must be"),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_refusal(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=message):
        call()
