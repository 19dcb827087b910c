"""Output checks that decide whether a benchmark job failed.

Every check yields a deviation; a job passes when each deviation is within
its tolerance in ``TOL``.  Checks run at the end of each cycle, outside the
timed jobs.
The deviations also feed the informational ``check.*`` per-layer metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from mpscollision import oracle

TOL = {
    "oracle": 1e-10,       # embedding == brute-force oracle on a prefix
    "nz": 1e-10,           # NZ memory-kernel route == embedding
    "golden": 1e-12,       # reproduce CSVs == values recorded in golden/
    "closed_form": 1e-10,  # AKLT closed forms
    "reference": 1e-12,    # CLI output == the same computation in-process
    "invariant": 1e-10,    # trace, Hermiticity, positivity of every rho_S
}

# Largest state vector (entries) an oracle prefix check may build.
ORACLE_CHECK_ENTRIES = 2 ** 14
ORACLE_CHECK_SITES = 8


@dataclass
class Verdict:
    ok: bool = True
    reason: str = ""
    dev: dict = field(default_factory=dict)

    def record(self, kind: str, value: float) -> None:
        """Keep the largest deviation per kind; fail when it exceeds TOL."""
        value = float(value)
        self.dev[kind] = max(self.dev.get(kind, 0.0), value)
        if not value <= TOL[kind]:
            self.fail(f"{kind} deviation {value:.3e} > {TOL[kind]:.0e}")

    def note(self, kind: str, value: float) -> None:
        """Keep an informational deviation that gates nothing."""
        self.dev[kind] = max(self.dev.get(kind, 0.0), float(value))

    def fail(self, reason: str) -> None:
        if self.ok:
            self.reason = reason
        self.ok = False


def trace_hermiticity_defect(states) -> float:
    """Worst |tr rho - 1| or ||rho - rho^dag||_F over a trajectory."""
    rho = np.asarray(states)
    tr = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
    herm = np.linalg.norm(rho - rho.conj().transpose(0, 2, 1), axis=(1, 2))
    return float(max(tr.max(), herm.max()))


def positivity_defect(states) -> float:
    """Minus the smallest eigenvalue of any Hermitian part (0 if all positive)."""
    rho = np.asarray(states)
    low = np.linalg.eigvalsh(0.5 * (rho + rho.conj().transpose(0, 2, 1)))[:, 0]
    return max(0.0, -float(low.min()))


def invariant_defect(states) -> float:
    """Worst trace, Hermiticity or positivity defect over a trajectory."""
    return max(trace_hermiticity_defect(states), positivity_defect(states))


def state_dev(a, b) -> float:
    if len(a) != len(b):
        return math.inf
    return max(float(np.max(np.abs(np.asarray(x) - np.asarray(y)))) for x, y in zip(a, b))


def oracle_prefix(model, k_max: int) -> int:
    """Longest prefix whose padded oracle state stays within the check budget."""
    env = model.env
    rank = int(np.linalg.matrix_rank(env.chi0, hermitian=True))
    best = 0
    size = model.d_system * rank
    limit = min(k_max, ORACLE_CHECK_SITES, env.length or k_max)
    for n in range(1, limit + 1):
        size *= max(env.phys_dim(n - 1), model.effective_mode_dim(n - 1))
        if size * env.site(n - 1).shape[2] > ORACLE_CHECK_ENTRIES:
            break
        best = n
    return best


def check_against_oracle(verdict: Verdict, model, rho0, states) -> None:
    n = oracle_prefix(model, len(states) - 1)
    if n < 1:
        verdict.fail("no oracle prefix fits the check budget")
        return
    run = oracle.OracleRun(model, rho0, n_sites=n, k_max=n)
    verdict.record("oracle", state_dev(states[: n + 1], oracle.brute_force_trajectory(run)))


def parse_csv(text: str):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


def csv_dev(text: str, reference: str) -> float:
    """Largest elementwise difference of two CSVs; inf if their shapes differ."""
    h1, r1 = parse_csv(text)
    h2, r2 = parse_csv(reference)
    if h1 != h2 or r1.shape != r2.shape:
        return math.inf
    nan1, nan2 = np.isnan(r1), np.isnan(r2)
    if np.any(nan1 != nan2):
        return math.inf
    diff = np.abs(r1[~nan1] - r2[~nan2])
    return float(np.max(diff)) if diff.size else 0.0


def column(text: str, name: str) -> np.ndarray:
    header, rows = parse_csv(text)
    return rows[:, header.index(name)]
