"""The four benchmark workloads as seeded cycles of jobs.

A workload is a sequence of cycles.  Building a cycle is set-up work (models,
random MPSs, config files); it returns one job of every class (every chain at
every horizon stratum) in round-robin order, so a slow stretch of the machine
hits every class alike.  Every run consists of whole cycles, which keeps the
job mix of a run the same whatever its length.

Inputs come only from ``--seed``: the seed draws couplings, initial states,
decay rates, wavepackets, random tensors, config variants and the order of
the chains.  Horizons (K) run through fixed strata, so a run does the same
amount of work whatever the seed.  Jobs call the package through module
attributes, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

import common

common.use_checkout_source()

from checks import (  # noqa: E402
    Verdict,
    check_against_oracle,
    column,
    csv_dev,
    invariant_defect,
    positivity_defect,
    state_dev,
    trace_hermiticity_defect,
)
import tracing  # noqa: E402
from mpscollision import cli, embedding, linalg, master_equation, models, mps  # noqa: E402

@dataclass
class Job:
    kind: str
    timed: Callable[[], Any]             # the measured body
    collisions: int                      # collisions the job asks for
    check: Callable[[Any], Verdict]      # judges the finished output
    finish: Callable[[Any], Any] | None = None   # untimed post-processing


def _rng(seed: int, workload: str, cycle: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), cycle])


def _offset(seed: int, workload: str, n: int) -> int:
    return int(_rng(seed, workload, 0).integers(n))


def _initial_state(rng) -> np.ndarray:
    choice = int(rng.integers(4))
    if choice < 3:
        return models.named_initial_state(("ground", "excited", "plus")[choice])
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _trajectory_job(kind: str, model, rho0, k_max: int) -> Job:
    def check(states) -> Verdict:
        v = Verdict()
        if len(states) != k_max + 1:
            v.fail(f"{len(states)} states for {k_max} collisions")
            return v
        v.record("invariant", invariant_defect(states))
        check_against_oracle(v, model, rho0, states)
        return v

    return Job(kind, lambda: embedding.trajectory(model, rho0, k_max), k_max, check)


# -- trajectory_sweep ------------------------------------------------------------

TRAJ_K = (100, 150, 200, 250, 300)
TRAJ_CHAINS = (
    ("aklt", "heisenberg"),
    ("aklt", "controlled"),
    ("two_photon", "exchange"),
    ("cluster", "cluster"),
    ("ghz", "exchange"),
    ("single_photon", "exchange"),
)
CLUSTER_CUTOFF = 9   # converged for g_tau <= 0.6 (cutoff shift ~1e-7)


def _wavepacket(rng, n: int) -> list:
    centre = rng.uniform(0.2, 0.5) * n
    width = rng.uniform(0.05, 0.15) * n
    k = np.arange(n)
    amp = np.exp(-((k - centre) / width) ** 2) * np.exp(1j * rng.uniform(0, 2 * np.pi) * k / n)
    amp[np.abs(amp) < 1e-12] = 0.0
    amp[0] = max(abs(amp[0]), 1e-3)
    return [[float(a.real), float(a.imag)] for a in amp]


def _chain_model(env_name: str, inter: str, g_tau: float, k_max: int, rng):
    params, cutoff = {}, None
    if env_name == "two_photon":
        params = {"g_tau": g_tau, "g_T1": rng.uniform(1.5, 3.5), "g_T2": rng.uniform(20.0, 80.0)}
    elif env_name == "cluster":
        cutoff = CLUSTER_CUTOFF
    elif env_name == "ghz":
        params = {"n_sites": k_max}
    elif env_name == "single_photon":
        params = {"amplitudes": _wavepacket(rng, k_max)}
    return models.build_model(models.ModelSpec(env_name, params), g_tau,
                              interaction_name=inter, fock_cutoff=cutoff)


def trajectory_sweep_cycle(seed: int, c: int, horizons=TRAJ_K) -> list[Job]:
    """Every chain at every horizon, each homogeneous one with its twin."""
    rng = _rng(seed, "trajectory_sweep", c + 1)
    off = _offset(seed, "trajectory_sweep", len(TRAJ_CHAINS))
    chains = TRAJ_CHAINS[off:] + TRAJ_CHAINS[:off]
    jobs = []
    for k_max in horizons:
        for env_name, inter in chains:
            g_tau = float(rng.uniform(0.1, 0.6))
            rho0 = _initial_state(rng)
            model = _chain_model(env_name, inter, g_tau, k_max, rng)
            kind = f"{env_name}-{inter}"
            jobs.append(_trajectory_job(kind, model, rho0, k_max))
            if model.env.homogeneous:
                twin = replace(model, env=mps.decorrelate(model.env, length=k_max))
                jobs.append(_trajectory_job(kind + "-decorrelated", twin, rho0, k_max))
    return jobs


# -- wide_bond -------------------------------------------------------------------

WIDE_D = (8, 16, 32)
WIDE_N = (48, 64, 80)
ISOMETRY_D = (8, 10, 12)
WIDE_PHYS = 2


def _random_mps(rng, n: int, d_max: int) -> list[np.ndarray]:
    """Raw (non-canonical) pure MPS with outer bonds 1 and bonds up to d_max."""
    bonds = [min(WIDE_PHYS ** k, d_max, WIDE_PHYS ** (n - k)) for k in range(n + 1)]
    return [rng.normal(size=(WIDE_PHYS, bonds[k], bonds[k + 1]))
            + 1j * rng.normal(size=(WIDE_PHYS, bonds[k], bonds[k + 1])) for k in range(n)]


def _random_generator(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (g + g.conj().T)
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def _random_isometry_env(rng, d_bond: int):
    """Homogeneous right-canonical chain from a QR isometry, chi0 = I/D."""
    g = (rng.normal(size=(WIDE_PHYS * d_bond, d_bond))
         + 1j * rng.normal(size=(WIDE_PHYS * d_bond, d_bond)))
    q, _ = np.linalg.qr(g)
    site = q.conj().T.reshape(d_bond, WIDE_PHYS, d_bond).transpose(1, 0, 2)
    return mps.MpsEnvironment((site,), np.eye(d_bond) / d_bond, homogeneous=True)


def _wide_chain_job(tensors, unitary, h, g_tau, rho0, n: int) -> Job:
    def timed():
        env = mps.right_canonicalize(tensors)
        env.validate()
        model = embedding.CollisionModel(env=env, unitary=unitary, d_system=2,
                                         mode_dim=WIDE_PHYS, g_tau=g_tau, hamiltonian=h)
        return model, embedding.trajectory(model, rho0, n)

    def check(out) -> Verdict:
        model, states = out
        v = Verdict()
        v.record("invariant", invariant_defect(states))
        check_against_oracle(v, model, rho0, states)
        return v

    d_max = max(t.shape[2] for t in tensors)
    return Job(f"chain-D{d_max}", timed, n, check)


def _isometry_job(env) -> Job:
    def check(spectrum) -> Verdict:
        v = Verdict()
        # Independent spectrum of X -> sum_i B_i^T X B_i^* on row-major vec(X).
        site = env.sites[0]
        channel = sum(np.kron(b.T, b.conj().T) for b in site)
        eigs = np.linalg.eigvals(channel)
        eigs = eigs[np.argsort(-np.abs(eigs))]
        if not abs(spectrum.lambda2) < 1.0:
            v.fail(f"|lambda2| = {abs(spectrum.lambda2):.3e} is not below 1")
        v.record("reference", abs(abs(spectrum.lambda2) - abs(eigs[1])))
        v.record("reference", float(np.min(np.abs(eigs - spectrum.lambda2))))
        return v

    return Job(f"isometry-D{env.sites[0].shape[1]}", lambda: mps.transfer_spectrum(env), 0, check)


def wide_bond_cycle(seed: int, c: int) -> list[Job]:
    """Every bond dimension at every chain length, and one isometry per size."""
    rng = _rng(seed, "wide_bond", c + 1)
    jobs = []
    for n in WIDE_N:
        for d_max in WIDE_D:
            g_tau = float(rng.uniform(0.1, 0.6))
            h = _random_generator(rng, 2 * WIDE_PHYS)
            unitary = linalg.expm_hermitian_generator(h, g_tau)
            jobs.append(_wide_chain_job(_random_mps(rng, n, d_max), unitary, h, g_tau,
                                        _initial_state(rng), n))
    for j, d_bond in enumerate(ISOMETRY_D):   # spread through the chain jobs
        jobs.insert(3 * j + 2 + j, _isometry_job(_random_isometry_env(rng, d_bond)))
    return jobs


# -- memory_kernels --------------------------------------------------------------

NZ_K = (8, 10, 12, 14, 16)
NZ_CHAINS = (
    ("aklt", "heisenberg"),
    ("two_photon", "exchange"),
    ("cluster", "cluster"),
    ("aklt", "controlled"),
)
SECOND_ORDER_K = 10
GKSL_CHAINS = (("aklt", "heisenberg"), ("aklt", "controlled"), ("two_photon", "exchange"))
GKSL_K = 60
GKSL_G2TAU = 0.1     # Markov scaling: tau = g_tau^2 / (g^2 tau)
KERNEL_CUTOFF = 5


def _kernel_model(env_name: str, inter: str, g_tau: float, rng, tau=None):
    params, cutoff = {}, None
    if env_name == "two_photon":
        params = {"g_tau": g_tau, "g_T1": rng.uniform(1.5, 3.5), "g_T2": rng.uniform(20.0, 80.0)}
    elif env_name == "cluster":
        cutoff = KERNEL_CUTOFF
    return models.build_model(models.ModelSpec(env_name, params), g_tau,
                              interaction_name=inter, fock_cutoff=cutoff, tau=tau)


def _nz_job(kind: str, model, rho0, k_max: int) -> Job:
    def timed():
        table = master_equation.build_kernel_table(model, k_max)
        return master_equation.solve_nz(table, rho0, k_max)

    def check(states) -> Verdict:
        v = Verdict()
        v.record("invariant", invariant_defect(states))
        v.record("nz", state_dev(states, embedding.trajectory(model, rho0, k_max)))
        return v

    return Job(kind, timed, k_max, check)


def _second_order_job(model) -> Job:
    def timed():
        return [master_equation.second_order_kernel(model, SECOND_ORDER_K, m)
                for m in range(1, SECOND_ORDER_K + 1)]

    def check(kernels) -> Verdict:
        v = Verdict()
        # Double commutators annihilate the trace exactly.
        tr_out = master_equation.vec(np.eye(model.d_system)).conj()
        v.record("invariant", max(float(np.max(np.abs(tr_out @ k.matrix))) for k in kernels))
        return v

    return Job("second-order-scan", timed, 0, check)


def _gksl_job(model, rho0, two_site: str) -> Job:
    def timed():
        gen = master_equation.stroboscopic_generator(model, two_site=two_site)
        return [master_equation.evolve_gksl(gen, rho0, k * model.tau) for k in range(GKSL_K + 1)]

    def check(states) -> Verdict:
        # The stroboscopic generator is exactly trace- and Hermiticity-
        # preserving but is a Markov-limit approximation, not promised to be
        # completely positive at finite g_tau: positivity is reported only.
        v = Verdict()
        v.record("invariant", trace_hermiticity_defect(states))
        v.note("gksl_positivity", positivity_defect(states))
        return v

    return Job(f"gksl-{two_site}", timed, GKSL_K, check)


def memory_kernels_cycle(seed: int, c: int) -> list[Job]:
    """Every chain at every horizon stratum, plus a second-order scan and two
    GKSL runs (correlated and product two-site state) per GKSL chain; the seed
    draws couplings, rates and states and the order of the chains.  The nine
    light jobs put the median inside the dense K=10 group of table costs."""
    rng = _rng(seed, "memory_kernels", c + 1)
    off = _offset(seed, "memory_kernels", len(NZ_CHAINS))
    chains = NZ_CHAINS[off:] + NZ_CHAINS[:off]
    heavy = []
    for k_max in NZ_K:
        for env_name, inter in chains:
            model = _kernel_model(env_name, inter, float(rng.uniform(0.1, 0.6)), rng)
            heavy.append(_nz_job(f"nz-{env_name}-{inter}-K{k_max}", model, _initial_state(rng),
                                 k_max))
    light = []
    for env_name, inter in GKSL_CHAINS:
        light.append(_second_order_job(
            _kernel_model(env_name, inter, float(rng.uniform(0.05, 0.3)), rng)))
        for two_site in ("correlated", "product"):
            g_tau = float(rng.uniform(0.05, 0.3))
            model = _kernel_model(env_name, inter, g_tau, rng, tau=g_tau ** 2 / GKSL_G2TAU)
            light.append(_gksl_job(model, _initial_state(rng), two_site))
    jobs = list(heavy)
    for j, job in enumerate(light):   # spread the light jobs evenly
        jobs.insert(round((j + 1) * len(heavy) / len(light)) + j, job)
    return jobs


# -- cli_figures -----------------------------------------------------------------

FIGURES = ("fig5a", "fig5b", "fig6a", "fig6b")
GOLDEN_FILES = {
    "fig5a": ("fig5a.csv",),
    "fig5b": ("fig5b_gtau03.csv", "fig5b_gtau06.csv"),
    "fig6a": ("fig6a.csv",),
    "fig6b": ("fig6b_exact.csv", "fig6b_gksl.csv"),
}
CLI_METHODS = ("embedding", "decorrelated", "oracle", "nz", "gksl")
CLI_K = (6, 8, 10)
GATE_K = (20, 25, 30)
BAD_CONFIGS = (
    {"model": {"name": "aklt"}, "k_max": 5},
    {"model": {"name": "nope"}, "g_tau": 0.5, "k_max": 5},
    {"model": {"name": "aklt"}, "g_tau": -0.5, "k_max": 5},
    {"model": {"name": "aklt"}, "g_tau": 0.5, "k_max": 0},
    {"model": {"name": "aklt"}, "g_tau": 0.5, "k_max": 5, "method": "teleport"},
)


class CliRunner:
    """Spawns one CLI process per job inside a scratch directory."""

    def __init__(self, run_dir: Path, traced: bool = False):
        self.run_dir = run_dir
        self.traced = traced
        self.count = 0
        self.env = common.child_env()

    def job_dir(self) -> Path:
        self.count += 1
        path = self.run_dir / f"job{self.count:05d}"
        path.mkdir(parents=True)
        return path

    def command(self, args: list[str]) -> list[str]:
        if self.traced:
            return [sys.executable, str(common.BENCH_DIR / "traced_cli.py"), *args]
        return [sys.executable, "-m", "mpscollision.cli", *args]

    def spawn(self, workdir: Path, args: list[str]) -> dict:
        with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
            proc = subprocess.Popen(self.command(args), cwd=workdir, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(common.CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0, "dir": workdir}


def _collect(raw: dict) -> dict:
    """Read a finished CLI job's outputs into memory and drop its directory."""
    workdir = raw["dir"]
    files = {}
    out_dir = workdir / "out"
    if out_dir.is_dir():
        files = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
    result = {
        "code": raw["code"],
        "rss_mb": raw["rss_mb"],
        "stdout": (workdir / "stdout").read_text(),
        "stderr": (workdir / "stderr").read_text(),
        "files": files,
    }
    spans = workdir / "spans.npz"
    if spans.is_file():
        result["spans"] = tracing.load_spans(spans)
    shutil.rmtree(workdir)
    return result


def _golden(name: str) -> str:
    return (common.GOLDEN / name).read_text()


def _cli_job(runner: CliRunner, kind: str, args: list[str], collisions: int,
             check: Callable[[dict], Verdict], config: dict | None = None,
             outputs: dict | None = None) -> Job:
    workdir = runner.job_dir()
    if config is not None:
        (workdir / "config.json").write_text(json.dumps(config))

    def finish(raw):
        result = _collect(raw)
        if outputs is not None:
            outputs[kind] = result
        return result

    return Job(kind, lambda: runner.spawn(workdir, args), collisions, check, finish)


def _expect_code(result: dict, code: int, v: Verdict) -> bool:
    if result["code"] != code:
        v.fail(f"exit code {result['code']}, expected {code}: {result['stderr'][-200:]}")
        return False
    return True


def _reproduce_check(figure: str):
    def check(result) -> Verdict:
        v = Verdict()
        if not _expect_code(result, 0, v):
            return v
        for name in GOLDEN_FILES[figure]:
            if name not in result["files"]:
                v.fail(f"missing output {name}")
                return v
            v.record("golden", csv_dev(result["files"][name], _golden(name)))
        if figure == "fig6a":
            text = result["files"]["fig6a.csv"]
            v.record("closed_form", float(np.max(np.abs(
                column(text, "q_exact") - column(text, "q_exact_closed_form")))))
            v.record("closed_form", float(np.max(np.abs(
                column(text, "q_uncorrelated") - column(text, "q_markov_closed_form")))))
        return v

    return check


def _reproduce_collisions(figure: str) -> int:
    # Trajectories each figure asks for (correlated + factorized per curve;
    # fig6b: one exact trajectory and the GKSL curve at 10x resolution).
    k = {name: preset["k_max"] for name, preset in cli.PRESETS.items()}
    return {"fig5a": 2 * k["fig5a"], "fig5b": 4 * k["fig5b"], "fig6a": 2 * k["fig6a"],
            "fig6b": k["fig6b"] + 10 * k["fig6b"]}[figure]


def _run_doc(seed: int, c: int, rng) -> dict:
    return {
        "model": {"name": "aklt", "parameters": {}},
        "interaction": "heisenberg",
        "g_tau": round(float(rng.uniform(0.2, 0.8)), 6),
        "k_max": CLI_K[(c + _offset(seed, "cli_figures", len(CLI_K))) % len(CLI_K)],
        "initial_state": ("ground", "excited", "plus")[int(rng.integers(3))],
        "observables": ["depolarization", "sigma_z", "sigma_x"],
    }


def _gate_doc(seed: int, c: int, rng) -> dict:
    return {
        "model": {"name": "cluster", "parameters": {}},
        "interaction": "cluster",
        "g_tau": round(float(rng.uniform(0.2, 0.6)), 6),
        "k_max": GATE_K[(c + _offset(seed, "cli_gate", len(GATE_K))) % len(GATE_K)],
        "initial_state": ("ground", "excited", "plus")[int(rng.integers(3))],
        "observables": ["coherence", "sigma_x"],
        "fock_cutoff": CLUSTER_CUTOFF,
    }


def _run_check(method: str, doc: dict, outputs: dict):
    def check(result) -> Verdict:
        v = Verdict()
        if not _expect_code(result, 0, v):
            return v
        text = result["stdout"]
        g_tau = doc["g_tau"]
        ks = range(doc["k_max"] + 1)
        if method == "embedding":
            exact = np.array([models.aklt_exact_q(k, g_tau) for k in ks])
            v.record("closed_form", float(np.max(np.abs(column(text, "depolarization") - exact))))
        elif method == "decorrelated":
            markov = np.array([models.aklt_markov_q(k, g_tau) for k in ks])
            v.record("closed_form", float(np.max(np.abs(column(text, "depolarization") - markov))))
        elif method in ("oracle", "nz"):
            ref = outputs.get("run-embedding")
            if ref is None or ref["code"] != 0:
                v.fail("embedding run of the same config is missing")
                return v
            v.record(method, csv_dev(text, ref["stdout"]))
        else:
            v.record("reference", csv_dev(text, cli.run_config(cli.load_config(doc))))
        return v

    return check


def _kernel_check(doc: dict, k: int, m_max: int):
    def check(result) -> Verdict:
        v = Verdict()
        if _expect_code(result, 0, v):
            ref = cli.kernel_norms(cli.load_config(doc), k, m_max)
            v.record("reference", csv_dev(result["stdout"], ref))
        return v

    return check


def _error_check(code: int, marker: str):
    def check(result) -> Verdict:
        v = Verdict()
        if _expect_code(result, code, v) and marker not in result["stderr"]:
            v.fail(f"stderr lacks '{marker}': {result['stderr'][-200:]}")
        return v

    return check


def cli_documents(seed: int, c: int) -> dict:
    """Seeded config documents of one cli_figures cycle."""
    rng = _rng(seed, "cli_figures", c + 1)
    run = _run_doc(seed, c, rng)
    gate = _gate_doc(seed, c, rng)
    kernel_k = int(rng.integers(4, 7))
    return {
        "run": run,
        "gate": gate,
        "kernel": {**run, "k_max": kernel_k + 1},
        "kernel_args": (kernel_k, int(rng.integers(2, kernel_k + 1))),
        "bad": BAD_CONFIGS[int(rng.integers(len(BAD_CONFIGS)))],
        "guard": {**run, "method": "oracle", "k_max": 14, "n_sites": 14},
        # README: at g_tau = 0.6 from the ground state cutoff 5 shifts by ~4e-3.
        "shift": {**gate, "g_tau": 0.6, "fock_cutoff": 5, "k_max": 20, "initial_state": "ground"},
    }


def cli_figures_cycle(seed: int, c: int, runner: CliRunner) -> list[Job]:
    docs = cli_documents(seed, c)
    outputs: dict = {}
    run = docs["run"]
    cfg = ["--config", "config.json"]
    runs = []
    for method in CLI_METHODS:
        doc = {**run, "method": method}
        trajectories = 1
        runs.append(_cli_job(runner, f"run-{method}", ["run", *cfg], trajectories * run["k_max"],
                             _run_check(method, doc, outputs), doc, outputs))
    figures = [
        _cli_job(runner, f"reproduce-{fig}", ["reproduce", fig, "--out", "out"],
                 _reproduce_collisions(fig), _reproduce_check(fig))
        for fig in FIGURES
    ]
    gate = docs["gate"]
    kernel_k, m_max = docs["kernel_args"]
    others = [
        _cli_job(runner, "run-cutoff-gate", ["run", *cfg], gate["k_max"],
                 _run_check("gate", gate, outputs), gate),
        _cli_job(runner, "kernel", ["kernel", *cfg, "--k", str(kernel_k), "--m-max", str(m_max)],
                 0, _kernel_check(docs["kernel"], kernel_k, m_max), docs["kernel"]),
        _cli_job(runner, "exit2-config", ["run", *cfg], 0, _error_check(2, "config."),
                 docs["bad"]),
        _cli_job(runner, "exit3-oracle-guard", ["run", *cfg], 0, _error_check(3, "guard"),
                 docs["guard"]),
        _cli_job(runner, "exit3-cutoff-shift", ["run", *cfg], 0,
                 _error_check(3, "Fock cutoff"), docs["shift"]),
    ]
    # Round robin over the three job families.
    jobs = []
    for j in range(max(len(runs), len(figures), len(others))):
        for family in (figures, runs, others):
            if j < len(family):
                jobs.append(family[j])
    return jobs


def cli_setup_models(seed: int) -> None:
    """What a CLI process sets up before computing: validated configs and models."""
    docs = cli_documents(seed, 0)
    for key in ("run", "gate", "kernel"):
        cfg = cli.load_config(docs[key])
        models.build_model(cfg["spec"], cfg["g_tau"], interaction_name=cfg["interaction"],
                           fock_cutoff=cfg["fock_cutoff"], tau=cfg["tau"])


# -- registry --------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    tail_pct: int         # job_tail_s percentile (>= 10 jobs beyond it per run)
    min_cycles: int       # whole cycles a run never goes below
    trace_cycles: int     # fixed cycles of a traced run (counts repeat exactly)
    warmup_jobs: int      # untimed jobs before measuring (0 = one whole cycle)
    in_process: bool


WORKLOADS = {
    "trajectory_sweep": Workload("trajectory_sweep", 95, 4, 1, 10, True),
    "wide_bond": Workload("wide_bond", 90, 9, 3, 0, True),
    "memory_kernels": Workload("memory_kernels", 88, 3, 1, 10, True),
    "cli_figures": Workload("cli_figures", 80, 4, 1, 2, False),
}

CYCLES = {
    "trajectory_sweep": trajectory_sweep_cycle,
    "wide_bond": wide_bond_cycle,
    "memory_kernels": memory_kernels_cycle,
}


def setup_models(name: str, seed: int) -> None:
    """The model building that ``setup_s`` times after the import: one model
    of every job class (for trajectory_sweep, every chain at the shortest
    horizon; the finite chains and twins are built to the horizon's length)."""
    if name == "cli_figures":
        cli_setup_models(seed)
    elif name == "trajectory_sweep":
        trajectory_sweep_cycle(seed, 0, horizons=TRAJ_K[:1])
    else:
        CYCLES[name](seed, 0)

