"""Paths and process settings shared by every benchmark entry point.

Importing this module pins the BLAS/OpenMP pools to one thread before numpy
is loaded, so it must be the first import of every script under
``perfbench/``.  Child processes inherit the pinned environment.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "mpscollision"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH_DIR / "golden"
CHILD_TIMEOUT_S = 100.0    # no child process of the benchmark may take longer


class MissingSourceError(RuntimeError):
    """The checkout holds no ``src/mpscollision`` to benchmark."""


def child_env() -> dict:
    """Environment for child interpreters: pinned threads, package on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the path and prove it is what imports.

    Raises MissingSourceError when the package is absent or an installed copy
    elsewhere would shadow it.
    """
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingSourceError(f"no package source at {PACKAGE}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mpscollision

    where = Path(mpscollision.__file__).resolve()
    if PACKAGE not in where.parents:
        raise MissingSourceError(f"mpscollision imported from {where}, not from {PACKAGE}")
