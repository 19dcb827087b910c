"""Exact collision-model dynamics with matrix-product-state environments.

The package simulates a quantum system colliding sequentially with the
particles of a correlated environment given as a right-canonical MPS.  Three
routes to the same dynamics are provided: a Markovian embedding on the
system + bond space (exact, the workhorse), a discrete memory-kernel master
equation (exact by construction, physics of memory made explicit), and the
stroboscopic GKSL generator (Markovian limit).  A brute-force reference on
the full Hilbert space validates all of them on small instances.
"""

import importlib

from .embedding import (
    CollisionModel,
    CutoffConvergenceError,
    SizeGuardError,
    kraus_operators,
    observable_series,
    trajectory,
)
from .linalg import expm_hermitian_generator, kron, lq_factorize
from .models import (
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
from .mps import (
    BondState,
    InfiniteCorrelationLengthError,
    MpsEnvironment,
    check_right_canonical,
    decorrelate,
    evolve_bond_state,
    right_canonicalize,
    site_reduced_state,
    transfer_spectrum,
)

__version__ = "0.1.0"

# Re-exports of the two routes most runs never call, resolved on first use
# (PEP 562) so that a process loads ``master_equation`` and ``oracle`` only
# when it reaches them.  Nothing is cached here: each read returns the
# module's current attribute.
_LAZY = {
    "master_equation": ("KernelTable", "Superoperator", "build_kernel_table", "evolve_gksl",
                        "evolve_gksl_grid", "second_order_kernel", "solve_nz",
                        "stroboscopic_generator"),
    "oracle": ("OracleRun", "brute_force_trajectory"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY_MODULE})
