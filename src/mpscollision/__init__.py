"""Exact collision-model dynamics with matrix-product-state environments.

The package simulates a quantum system colliding sequentially with the
particles of a correlated environment given as a right-canonical MPS.  Three
routes to the same dynamics are provided: a Markovian embedding on the
system + bond space (exact, the workhorse), a discrete memory-kernel master
equation (exact by construction, physics of memory made explicit), and the
stroboscopic GKSL generator (Markovian limit).  A brute-force reference on
the full Hilbert space validates all of them on small instances.
"""

from .embedding import (
    CollisionModel,
    CutoffConvergenceError,
    kraus_operators,
    observable_series,
    trajectory,
)
from .linalg import expm_hermitian_generator, kron, lq_factorize, partial_trace
from .master_equation import (
    KernelTable,
    Superoperator,
    build_kernel_table,
    evolve_gksl,
    evolve_gksl_grid,
    second_order_kernel,
    solve_nz,
    stroboscopic_generator,
)
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
    two_site_reduced_state,
)
from .oracle import OracleRun, SizeGuardError, brute_force_trajectory

__version__ = "0.1.0"
