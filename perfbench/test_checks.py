"""The benchmark's own test: a wrong output must count as a failed job.

    python3 -m pytest -q perfbench/test_checks.py
"""

import common  # noqa: F401  (pins BLAS threads, puts src/ on the path)

import numpy as np
import pytest

import run
import workloads
from checks import Verdict, parse_csv
from mpscollision import models

PERTURBATION = 1e-8   # far above every tolerance, far below anything visible


def _judged(job, output):
    rec = run.Record(job, 0.01, output, None)
    run.judge([job], [rec])
    return rec


def _aklt_job(k_max=12):
    model = models.build_model(models.ModelSpec("aklt"), 0.4)
    rho0 = models.named_initial_state("plus")
    return workloads._trajectory_job("aklt", model, rho0, k_max)


def test_exact_trajectory_passes():
    job = _aklt_job()
    rec = _judged(job, job.timed())
    assert not run.failed(rec)
    assert rec.verdict.dev["oracle"] < 1e-12


def test_perturbed_trajectory_counts_as_failed():
    job = _aklt_job()
    states = job.timed()
    bump = np.zeros((2, 2), dtype=complex)
    bump[0, 0], bump[1, 1] = PERTURBATION, -PERTURBATION   # keeps trace, Hermiticity
    states[5] = states[5] + bump
    rec = _judged(job, states)
    assert run.failed(rec)
    assert "oracle" in rec.verdict.reason


def test_non_hermitian_state_counts_as_failed():
    job = _aklt_job()
    states = job.timed()
    states[-1] = states[-1] + PERTURBATION * np.array([[0, 1], [0, 0]])
    assert run.failed(_judged(job, states))


def test_perturbed_nz_counts_as_failed():
    model = models.build_model(models.ModelSpec("aklt"), 0.3)
    job = workloads._nz_job("nz", model, models.named_initial_state("ground"), 6)
    states = job.timed()
    assert not run.failed(_judged(job, list(states)))
    states[3] = states[3] * (1 + PERTURBATION)
    assert run.failed(_judged(job, states))


def _cli_result(files=None, stdout="", code=0, stderr=""):
    return {"code": code, "rss_mb": 1.0, "stdout": stdout, "stderr": stderr, "files": files or {}}


def _perturb_csv(text: str, row: int, col: int) -> str:
    lines = text.strip().split("\n")
    cells = lines[row].split(",")
    cells[col] = f"{float(cells[col]) + PERTURBATION:.17g}"
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_golden_reproduce_passes_and_perturbed_fails():
    check = workloads._reproduce_check("fig5a")
    golden = workloads._golden("fig5a.csv")
    job = workloads.Job("reproduce-fig5a", None, 0, check)
    assert not run.failed(_judged(job, _cli_result({"fig5a.csv": golden})))
    header, rows = parse_csv(golden)
    bad = _perturb_csv(golden, 10, header.index("excited_population_correlated"))
    rec = _judged(job, _cli_result({"fig5a.csv": bad}))
    assert run.failed(rec)
    assert "golden" in rec.verdict.reason


def test_wrong_exit_code_counts_as_failed():
    job = workloads.Job("exit3", None, 0, workloads._error_check(3, "guard"))
    assert not run.failed(_judged(job, _cli_result(code=3, stderr="error: exceeds the guard")))
    assert run.failed(_judged(job, _cli_result(code=0)))
    assert run.failed(_judged(job, _cli_result(code=2, stderr="error: guard")))


def test_raising_job_counts_as_failed():
    def boom():
        raise ValueError("broken")

    job = workloads.Job("boom", boom, 3, lambda out: Verdict())
    rec = run.run_job(job)
    run.judge([job], [rec])
    assert run.failed(rec) and "broken" in rec.error


def test_success_frac_counts_failures():
    wl = workloads.WORKLOADS["trajectory_sweep"]
    job = _aklt_job()
    good = _judged(job, job.timed())
    states = job.timed()
    states[2] = states[2] + PERTURBATION * np.eye(2)
    bad = _judged(job, states)
    metrics = run.end_to_end(wl, [good, bad, good, good], [run.Sample(0.5)], 100.0)
    assert metrics["success_frac"] == pytest.approx(0.75)


def test_importtime_parser_counts_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       150 |        200 |     scipy.linalg",
        "import time:        10 |        610 |   mpscollision.master_equation",
        "import time:        10 |        920 | mpscollision",
    ])
    times = run.parse_importtime(text)
    assert times["import_numpy_s"] == pytest.approx(300e-6)
    assert times["import_scipy_s"] == pytest.approx(200e-6)
    assert times["import_mpscollision_s"] == pytest.approx(920e-6)
