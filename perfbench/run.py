"""Benchmark of the mpscollision package, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload as a closed loop (one client, one job in
flight) for about S seconds of whole cycles and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed number of cycles twice, untraced and then
with every public function of the package wrapped by the span tracer, and
reports the per-layer metrics.  Either way every job's output is checked, and
the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2 means the
benchmark could not run (e.g. no ``src/mpscollision`` in the checkout).
"""

import common  # first import: pins BLAS/OpenMP threads before numpy loads

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

WORKLOAD_NAMES = ("trajectory_sweep", "wide_bond", "memory_kernels", "cli_figures")
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3
HARD_CAP_S = 120.0        # a run starts no job after this, whatever else

END_TO_END_UNITS = {
    "setup_s": "s",
    "collisions_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "frac",
}


# -- child processes ---------------------------------------------------------------

def timed_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=common.ROOT, env=common.child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=common.CHILD_TIMEOUT_S, check=False)
    return time.perf_counter() - start, proc


def setup_sample(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports the package and builds models."""
    wall, proc = timed_child([str(common.BENCH_DIR / "setup_probe.py"),
                              "--workload", workload, "--seed", str(seed)])
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr[-400:]}")
    return wall


def import_times() -> dict:
    """Median cumulative import times from ``-X importtime`` children."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        _, proc = timed_child(["-X", "importtime", "-c", "import mpscollision"])
        samples.append(parse_importtime(proc.stderr))
    interp = [timed_child(["-c", "pass"])[0] for _ in range(IMPORT_SAMPLES)]
    out = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    out["interpreter_s"] = statistics.median(interp)
    return out


def parse_importtime(text: str) -> dict:
    """Outermost cumulative times of numpy*, scipy* and mpscollision imports."""
    totals = {"numpy": 0.0, "scipy": 0.0, "mpscollision": 0.0}
    open_roots: list[tuple[int, str]] = []   # (depth, family) of enclosing entries
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, _, rest = line.partition(":")
        _, cumulative, name = rest.split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(cumulative), name.strip()))
    # importtime prints children before parents; walk backwards so parents
    # come first and a family counts only at its outermost entry.
    for depth, cumulative, name in reversed(entries):
        while open_roots and open_roots[-1][0] >= depth:
            open_roots.pop()
        family = name.split(".")[0]
        if family in totals and not any(f == family for _, f in open_roots):
            totals[family] += cumulative * 1e-6
        open_roots.append((depth, family))
    return {f"import_{k}_s": v for k, v in totals.items()}


# -- clock -------------------------------------------------------------------------

PROBE_NOMINAL_S = 0.015     # compute_probe on an unloaded machine


class _ProbeItem:
    def __init__(self, rank: int):
        self.rank = rank
        self.label = str(rank)


@functools.cache
def _probe_inputs() -> dict:
    rng = np.random.default_rng(12345)

    def cmat(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    h = rng.normal(size=(4, 4))
    return {"small": [cmat(6, 6) for _ in range(4)], "large": [cmat(32, 32) for _ in range(2)],
            "u4": cmat(2, 3, 2, 3), "site": cmat(3, 3, 3), "herm": h + h.T}


def compute_probe() -> None:
    """Reference work independent of the package, in three parts that mirror
    what its jobs spend time on: interpreter overhead around small numpy
    calls, einsum path search / eigh / object churn, and BLAS products.  Of
    the probes tried, this mix tracked the job times of the three in-process
    workloads best across fresh processes."""
    inp = _probe_inputs()
    x = np.eye(6, dtype=complex)
    for _ in range(150):
        for a in inp["small"]:
            x = a @ x @ a.conj().T
            x /= np.abs(x).max()
    total = 0
    for i in range(10_000):
        total += i * i
    for _ in range(40):
        ops = np.einsum("sqtp,pab->qsbta", inp["u4"], inp["site"], optimize=True)
        r = np.eye(6, dtype=complex)
        for q in range(3):
            o = ops[q].reshape(6, 6)
            r = r + o @ r @ o.conj().T
        np.trace(r.reshape(2, 3, 2, 3), axis1=1, axis2=3)
        np.linalg.eigh(inp["herm"])
        items = {i: _ProbeItem(i) for i in range(50)}
        sorted(items.values(), key=lambda it: -it.rank)
    y = np.eye(32, dtype=complex)
    for _ in range(60):
        for a in inp["large"]:
            y = a @ y @ a.conj().T
            y /= np.abs(y).max()


class Clock:
    """Scales measured durations to a nominal machine speed.

    The shared 2-core machine this benchmark was built on changes speed by
    +-30 % over seconds to minutes, for CPU time as much as for wall time, and
    for in-process work and fresh processes alike.  ``compute_probe`` is timed
    before and after each stretch of work; every duration in the stretch is
    multiplied by the probe's nominal time over the mean of its two
    bracketing probe times.  Raw durations are kept as well.
    """

    def __init__(self, every_s: float, reps: int = 1):
        self.every_s = every_s
        self.reps = reps
        self.pending = []
        self.probes = []
        compute_probe()                  # first call pays einsum/LAPACK set-up
        self.last = self._probe()
        self.t_last = time.perf_counter()

    def _probe(self) -> float:
        times = []
        for _ in range(self.reps):
            start = time.perf_counter()
            compute_probe()
            times.append(time.perf_counter() - start)
        seconds = statistics.median(times)
        self.probes.append(seconds)
        return seconds

    def refresh(self) -> None:
        """Take a fresh opening probe, e.g. right before a setup sample."""
        self.last = self._probe()
        self.t_last = time.perf_counter()

    def add(self, item) -> None:
        """Queue an item with ``raw_s``; its ``seconds`` is set at the next probe."""
        self.pending.append(item)
        if time.perf_counter() - self.t_last >= self.every_s:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = self._probe()
        factor = PROBE_NOMINAL_S / (0.5 * (self.last + now))
        for item in self.pending:
            item.seconds = item.raw_s * factor
        self.pending = []
        self.last = now
        self.t_last = time.perf_counter()

    def speed(self) -> float:
        """Median machine speed relative to nominal (>1 means faster)."""
        return PROBE_NOMINAL_S / statistics.median(self.probes)


class Sample:
    __slots__ = ("raw_s", "seconds")

    def __init__(self, raw_s: float):
        self.raw_s = raw_s
        self.seconds = raw_s


# -- running jobs -----------------------------------------------------------------

class Record:
    __slots__ = ("kind", "raw_s", "seconds", "collisions", "output", "error", "verdict",
                 "rss_mb", "csv_bytes")

    def __init__(self, job, raw_s, output, error):
        self.kind = job.kind
        self.raw_s = raw_s
        self.seconds = raw_s
        self.collisions = job.collisions
        self.output = output
        self.error = error
        self.verdict = None
        self.rss_mb = 0.0
        self.csv_bytes = 0


def run_job(job, clock: Clock | None = None, tracer=None) -> Record:
    gc.collect()
    error = None
    output = None
    start = time.perf_counter()
    try:
        if tracer is None:
            output = job.timed()
        else:
            with tracer.span(f"job.{job.kind}"):
                output = job.timed()
    except Exception as exc:  # a failing job is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    raw_s = time.perf_counter() - start
    if tracer is not None:
        tracer.counters.end_job()
    rec = Record(job, raw_s, output, error)
    if clock is not None:
        clock.add(rec)
    if error is None and job.finish is not None:
        rec.output = job.finish(output)
    return rec


def judge(jobs, records) -> None:
    """Run the output checks of finished jobs and drop their outputs."""
    for job, rec in zip(jobs, records):
        if rec.error is None:
            try:
                rec.verdict = job.check(rec.output)
            except Exception as exc:
                rec.error = f"check raised {type(exc).__name__}: {exc}"
        if isinstance(rec.output, dict):
            rec.rss_mb = rec.output["rss_mb"]
            rec.csv_bytes = sum(len(text.encode()) for text in rec.output["files"].values())
            if rec.output["stdout"].startswith(("k,", "m,")):
                rec.csv_bytes += len(rec.output["stdout"].encode())
            spans = rec.output.get("spans")
            rec.output = {"spans": spans} if spans is not None else None
        else:
            rec.output = None


def failed(rec) -> bool:
    return rec.error is not None or rec.verdict is None or not rec.verdict.ok


class Cycles:
    """Builds a workload's cycles; cli cycles share one scratch directory."""

    def __init__(self, workloads, name: str, seed: int, run_dir: Path, traced: bool = False):
        self.workloads = workloads
        self.name = name
        self.seed = seed
        self.runner = workloads.CliRunner(run_dir, traced) if name == "cli_figures" else None

    def build(self, c: int):
        if self.runner is not None:
            return self.workloads.cli_figures_cycle(self.seed, c, self.runner)
        return self.workloads.CYCLES[self.name](self.seed, c)


def job_clock(wl) -> Clock:
    # In-process jobs share a probe per 0.3 s; every child process is
    # bracketed by the median of three probes (~45 ms against ~0.4 s).
    return Clock(0.3) if wl.in_process else Clock(0.0, reps=3)


def warm_up(wl, cycles: Cycles) -> None:
    jobs = cycles.build(10_000)   # a cycle index no measured run uses
    if wl.warmup_jobs:
        jobs = jobs[: wl.warmup_jobs]
    records = [run_job(job) for job in jobs]
    judge(jobs, records)


def measure(wl, cycles: Cycles, seed: int, seconds: float):
    """Closed loop of whole cycles with setup_s samples spread through it."""
    clock = job_clock(wl)
    setup_clock = Clock(0.0, reps=3)
    records, setup = [], []
    due = [i * seconds / SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
    split = {"build_s": 0.0, "setup_samples_s": 0.0, "check_s": 0.0}
    start = time.perf_counter()
    cycle_times = []
    c = 0
    while True:
        t_cycle = time.perf_counter()
        jobs = cycles.build(c)
        split["build_s"] += time.perf_counter() - t_cycle
        done = []
        for job in jobs:
            if time.perf_counter() - start > HARD_CAP_S:
                break
            if len(setup) < SETUP_SAMPLES and time.perf_counter() - start >= due[len(setup)]:
                clock.flush()
                setup_clock.refresh()
                setup.append(Sample(setup_sample(wl.name, seed)))
                setup_clock.add(setup[-1])
                split["setup_samples_s"] += setup[-1].raw_s
            done.append(run_job(job, clock))
        clock.flush()
        t_check = time.perf_counter()
        judge(jobs, done)
        split["check_s"] += time.perf_counter() - t_check
        records.extend(done)
        c += 1
        cycle_times.append(time.perf_counter() - t_cycle)
        elapsed = time.perf_counter() - start
        if elapsed > HARD_CAP_S:
            break
        if c >= wl.min_cycles and elapsed + 0.5 * statistics.fmean(cycle_times) >= seconds:
            break
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_SAMPLES:
        setup_clock.refresh()
        setup.append(Sample(setup_sample(wl.name, seed)))
        setup_clock.add(setup[-1])
    split["loop_s"] = time.perf_counter() - start
    split["jobs_s"] = sum(r.raw_s for r in records)
    return records, setup, peak_rss, c, split, clock


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values), pct))


def end_to_end(wl, records, setup, peak_rss, attr: str = "seconds") -> dict:
    durations = [getattr(r, attr) for r in records]
    n_failed = sum(failed(r) for r in records)
    if not wl.in_process:
        peak_rss = max(r.rss_mb for r in records)
    return {
        "setup_s": statistics.median(getattr(s, attr) for s in setup),
        "collisions_per_s": sum(r.collisions for r in records) / sum(durations),
        "job_p50_s": statistics.median(durations),
        "job_tail_s": percentile(durations, wl.tail_pct),
        "peak_rss_mb": peak_rss,
        "success_frac": 1.0 - n_failed / len(records),
    }


# -- traced run -------------------------------------------------------------------

def traced_run(wl, workloads, tracing, seed: int, run_dir: Path):
    """Fixed cycles untraced, then the same cycles traced; spans from both sides."""
    clock = job_clock(wl)
    plain = Cycles(workloads, wl.name, seed, run_dir / "plain")
    untraced = []
    for c in range(wl.trace_cycles):
        jobs = plain.build(c)
        done = [run_job(job, clock) for job in jobs]
        clock.flush()
        judge(jobs, done)
        untraced.extend(done)

    traced_cycles = Cycles(workloads, wl.name, seed, run_dir / "traced", traced=True)
    tracer = tracing.Tracer()
    records = []
    for c in range(wl.trace_cycles):
        with tracer.installed():
            with tracer.span("bench.build"):
                jobs = traced_cycles.build(c)
            done = [run_job(job, clock, tracer) for job in jobs]
        clock.flush()
        judge(jobs, done)     # checks stay out of the trace
        records.extend(done)
    parts = [tracer.spans()]
    child_walls = []
    for rec in records:
        if rec.output and "spans" in rec.output:
            parts.append(rec.output["spans"])
            child_walls.append(rec.raw_s)
    spans = tracing.merge_spans(parts)
    overhead = sum(r.seconds for r in records) / sum(r.seconds for r in untraced) - 1.0
    return records, spans, overhead, child_walls


def _inside(spans, ancestor: str):
    """Mask of spans that have an ancestor span with the given name."""
    names = spans["names"]
    if ancestor not in names:
        return np.zeros(len(spans["name"]), dtype=bool)
    target = names.index(ancestor)
    name = spans["name"]
    parent = spans["parent"]
    mask = np.zeros(len(name), dtype=bool)
    for i in range(len(name)):
        p = parent[i]
        if p >= 0 and (mask[p] or name[p] == target):
            mask[i] = True
    return mask


def _under_roots(spans, roots: tuple[str, ...]):
    """Mask of spans whose outermost ancestor is one of the named roots."""
    names = spans["names"]
    wanted = {names.index(r) for r in roots if r in names}
    name = spans["name"]
    parent = spans["parent"]
    root = np.empty(len(name), dtype=np.int64)
    for i in range(len(name)):
        p = parent[i]
        root[i] = name[i] if p < 0 else root[p]
    return np.isin(root, list(wanted))


def _incl(spans, label: str, mask=None) -> tuple[int, float]:
    if label not in spans["names"]:
        return 0, 0.0
    sel = np.asarray(spans["name"]) == spans["names"].index(label)
    if mask is not None:
        sel &= mask
    return int(sel.sum()), float(np.sum((spans["end"] - spans["start"])[sel]))


CASE_STUDY_JOBS = ("job.aklt-heisenberg", "job.aklt-controlled",
                   "job.two_photon-exchange", "job.cluster-cluster")

PER_LAYER_UNITS = {}   # filled by per_layer(); name -> unit, in report order


def per_layer(records, spans, overhead, child_walls, imports, tracing) -> dict:
    totals = tracing.layer_totals(spans)
    counters = spans["counters"]
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def calls(label):
        return totals.get(label, {}).get("calls", 0)

    def self_s(label):
        return totals.get(label, {}).get("self_s", 0.0)

    put("setup.interpreter_s", imports["interpreter_s"], "s")
    put("setup.import_numpy_s", imports["import_numpy_s"], "s")
    put("setup.import_scipy_s", imports["import_scipy_s"], "s")
    put("setup.import_mpscollision_s", imports["import_mpscollision_s"], "s")
    put("setup.import_scipy_share", imports["import_scipy_s"] / imports["import_mpscollision_s"],
        "frac")
    put("models.build_model.calls", calls("models.build_model"), "count")
    put("models.build_model.self_s", self_s("models.build_model"), "s")

    steps = calls("embedding.step")
    _, step_incl = _incl(spans, "embedding.step")
    case_study = _under_roots(spans, CASE_STUDY_JOBS)
    n_case, _ = _incl(spans, "embedding.step", case_study)
    _, case_incl = _incl(spans, "embedding.trajectory", case_study)
    put("embedding.step.calls", steps, "count")
    put("embedding.step.self_s", self_s("embedding.step"), "s")
    put("embedding.step.us_per_call", 1e6 * step_incl / steps if steps else 0.0, "us")
    # Trajectory wall per collision on the correlated case-study chains, as in
    # the ROADMAP baseline (K-step trajectory time / K).
    put("embedding.trajectory.us_per_collision_case_study",
        1e6 * case_incl / n_case if n_case else 0.0, "us")
    put("embedding.step.gflops_computed", counters.get("embedding.step.flops", 0.0) * 1e-9, "GFLOP")
    kraus = calls("embedding.kraus_operators")
    put("embedding.kraus_operators.calls", kraus, "count")
    put("embedding.kraus_operators.self_s", self_s("embedding.kraus_operators"), "s")
    put("embedding.kraus_builds_per_collision", kraus / steps if steps else 0.0, "ratio")
    distinct = counters.get("embedding.kraus_operators.distinct", 0.0)
    put("embedding.channel_repeat_share", 1.0 - distinct / kraus if kraus else 0.0, "frac")
    put("embedding.system_state.self_s", self_s("embedding.system_state"), "s")
    put("embedding.cutoff_shift.calls", calls("embedding.cutoff_shift"), "count")
    put("embedding.cutoff_shift.self_s", self_s("embedding.cutoff_shift"), "s")

    for label in ("load_config", "run_config", "reproduce"):
        put(f"cli.{label}.self_s", self_s(f"cli.{label}"), "s")
    main_calls, main_incl = _incl(spans, "cli.main")
    overhead_s = (sum(child_walls) - main_incl) / len(child_walls) if child_walls else 0.0
    put("cli.process_overhead_s", overhead_s, "s")
    csv_bytes = sum(r.csv_bytes for r in records)
    put("cli.csv_bytes", csv_bytes, "bytes")

    for label in ("right_canonicalize", "check_right_canonical", "transfer_spectrum",
                  "stationary_bond_state", "decorrelate"):
        put(f"mps.{label}.self_s", self_s(f"mps.{label}"), "s")
    put("mps.evolve_bond_state.calls", calls("mps.evolve_bond_state"), "count")
    put("mps.evolve_bond_state.self_s", self_s("mps.evolve_bond_state"), "s")
    put("mps.site_reduced_state.calls", calls("mps.site_reduced_state"), "count")
    put("mps.two_site_reduced_state.calls", calls("mps.two_site_reduced_state"), "count")

    me = "master_equation"
    for label in ("build_kernel_table", "memory_kernel", "projection_Q", "solve_nz"):
        put(f"{me}.{label}.self_s", self_s(f"{me}.{label}"), "s")
    for label in ("memory_kernel", "projection_Q", "propagator_superop"):
        put(f"{me}.{label}.calls", calls(f"{me}.{label}"), "count")
    put(f"{me}.Superoperator.from_map.calls", calls(f"{me}.Superoperator.from_map"), "count")
    put(f"{me}.Superoperator.from_map.self_s", self_s(f"{me}.Superoperator.from_map"), "s")
    put(f"{me}.Superoperator.matmul.calls", calls(f"{me}.Superoperator.matmul"), "count")
    _, table_incl = _incl(spans, f"{me}.build_kernel_table")
    _, from_map_in_table = _incl(spans, f"{me}.Superoperator.from_map",
                                 _inside(spans, f"{me}.build_kernel_table"))
    put(f"{me}.from_map_share_of_kernel_table",
        from_map_in_table / table_incl if table_incl else 0.0, "frac")
    put("linalg.partial_trace.calls", calls("linalg.partial_trace"), "count")
    put("linalg.partial_trace.self_s", self_s("linalg.partial_trace"), "s")
    put("linalg.kron.calls", calls("linalg.kron"), "count")
    for label in ("second_order_kernel", "stroboscopic_generator", "evolve_gksl"):
        put(f"{me}.{label}.self_s", self_s(f"{me}.{label}"), "s")
    put(f"{me}.evolve_gksl.calls", calls(f"{me}.evolve_gksl"), "count")

    put("oracle.brute_force_trajectory.self_s", self_s("oracle.brute_force_trajectory"), "s")
    put("oracle.state_entries", counters.get("oracle.state_entries", 0.0), "count")

    devs = {}
    for rec in records:
        if rec.verdict is not None:
            for kind, value in rec.verdict.dev.items():
                devs[kind] = max(devs.get(kind, 0.0), value)
    put("check.max_dev_oracle", devs.get("oracle", 0.0), "abs")
    put("check.max_dev_nz", devs.get("nz", 0.0), "abs")
    put("check.max_dev_golden", devs.get("golden", 0.0), "abs")
    put("check.max_invariant_defect", devs.get("invariant", 0.0), "abs")
    put("check.gksl_positivity_defect", devs.get("gksl_positivity", 0.0), "abs")
    put("trace.overhead_frac", overhead, "frac")
    put("trace.spans", len(spans["name"]), "count")
    return out


# -- context ------------------------------------------------------------------------

def _git_commit() -> str:
    head = common.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = common.ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = common.ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(args) -> dict:
    import scipy

    sources = sorted(common.PACKAGE.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in common.THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# -- entry point --------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.use_checkout_source()
    except common.MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")   # model-zoo warnings are expected input properties
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    run_dir = common.WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        ctx = context(args)
        setup_sample(wl.name, args.seed)          # untimed: compiles bytecode, warms caches
        warm_up(wl, Cycles(workloads, wl.name, args.seed, run_dir / "warmup"))
        gc.collect()
        gc.freeze()                               # later collections skip long-lived objects
        if args.trace:
            records, spans, overhead, child_walls = traced_run(wl, workloads, tracing,
                                                               args.seed, run_dir)
            metrics = per_layer(records, spans, overhead, child_walls, import_times(), tracing)
            tracing.save_spans(common.WORK / f"spans-{args.workload}-seed{args.seed}.npz", spans)
            ctx["cycles"] = wl.trace_cycles
        else:
            records, setup, peak_rss, n_cycles, split, clock = measure(
                wl, Cycles(workloads, wl.name, args.seed, run_dir / "measure"),
                args.seed, args.seconds)
            metrics = {name: (value, END_TO_END_UNITS[name])
                       for name, value in end_to_end(wl, records, setup, peak_rss).items()}
            ctx["machine_speed"] = round(clock.speed(), 4)
            ctx["raw_unscaled"] = {k: round(v, 6) for k, v in
                                   end_to_end(wl, records, setup, peak_rss, "raw_s").items()}
            ctx["cycles"] = n_cycles
            ctx["time_split_s"] = {k: round(v, 3) for k, v in split.items()}
            ctx["setup_samples_s"] = [round(s.seconds, 4) for s in setup]
            ctx["job_tail_percentile"] = wl.tail_pct
            ctx["jobs_beyond_tail"] = sum(
                r.seconds > metrics["job_tail_s"][0] for r in records)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    n_failed = sum(failed(r) for r in records)
    ctx["jobs"] = len(records)
    ctx["failed_frac"] = n_failed / len(records)
    report(ctx, records, metrics)
    result = {
        "correct": n_failed == 0,
        "attempted": len(records),
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def report(ctx, records, metrics) -> None:
    print("context " + json.dumps(ctx))
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec.kind, []).append(rec.seconds)
    for kind, secs in by_kind.items():
        print(f"job {kind:34s} n={len(secs):4d} median={statistics.median(secs):.6f} s")
    shown = 0
    for rec in records:
        if failed(rec) and shown < 10:
            reason = rec.error or (rec.verdict.reason if rec.verdict else "unchecked")
            print(f"FAILED {rec.kind}: {reason}")
            shown += 1
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
