"""Run-to-run spread of the end-to-end metrics, next to their bounds.

    python3 perfbench/spread.py --workloads trajectory_sweep,cli_figures \
        --seeds 1-10 [--sets 2] [--out runs.json] [--markdown SPREAD.md]
    python3 perfbench/spread.py --load runs.json --markdown SPREAD.md

Runs ``run.py --trace 0`` once per seed and workload (``--sets`` times over),
one run at a time, or re-reads the runs a previous ``--out`` saved.  For every
end-to-end metric it prints the median and the spread -- the distance between
the first and third quartile as a share of the median -- of each set, next to
the bound in BENCHMARK.json, and how much worse each later set's median is
than the first set's.  A spread below a third of the bound is marked ``ok``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    for line in lines:
        if line.startswith("context "):
            result["context"] = json.loads(line[len("context "):])
    return result


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def summarize(runs: dict, metrics: dict) -> dict:
    summary = {}
    for workload, results in runs.items():
        n_sets = max(r["set"] for r in results) + 1
        for name, meta in metrics.items():
            sets = [[r["metrics"][name]["value"] for r in results if r["set"] == s]
                    for s in range(n_sets)]
            medians, spreads = zip(*(spread(values) for values in sets))
            drifts = []
            for m2 in medians[1:]:
                worse = (m2 - medians[0]) if meta["better"] == "lower" else (medians[0] - m2)
                drifts.append(worse / medians[0] if medians[0] else 0.0)
            raw = [r["context"]["raw_unscaled"][name] for r in results if r["set"] == 0]
            summary.setdefault(workload, {})[name] = {
                "unit": meta["unit"], "bound": meta["bound"], "median": medians[0],
                "spreads": list(spreads), "drifts": drifts, "unscaled_spread": spread(raw)[1],
            }
    return summary


def print_summary(summary: dict, runs: dict) -> None:
    for workload, per_metric in summary.items():
        print(f"\n{workload}")
        for name, row in per_metric.items():
            worst = max(row["spreads"])
            mark = ("ok" if worst < row["bound"] / 3
                    else "within" if worst <= row["bound"] else "WIDE")
            spreads = "/".join(f"{s:.3f}" for s in row["spreads"])
            drifts = " ".join(f"{d:+.3f}" for d in row["drifts"])
            print(f"  {name:18s} median {row['median']:12.6g} {row['unit']:5s} spread {spreads} "
                  f"bound {row['bound']:.2f} {mark} (unscaled {row['unscaled_spread']:.3f})"
                  + (f" drift {drifts}" if drifts else ""))
        walls = [r["wall_s"] for r in runs[workload]]
        print(f"  run wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")


def markdown(summary: dict, runs: dict) -> str:
    first = next(iter(runs.values()))
    ctx = first[0]["context"]
    n_sets = max(r["set"] for r in first) + 1
    seed_list = sorted({r["seed"] for r in first})
    lines = [
        "# Measured run-to-run spread",
        "",
        f"`spread.py` over workloads {', '.join(runs)}; seeds {seed_list[0]}-{seed_list[-1]}, "
        f"{n_sets} set(s), one run at a time, on {ctx['nproc']} x {ctx['cpu_model']}, "
        f"Python {ctx['python']}, numpy {ctx['numpy']}, scipy {ctx['scipy']}, "
        f"src sha256 {ctx['src_sha256'][:12]}.",
        "",
        "Spread = (third quartile - first quartile) / median over the seeds of one set, "
        "per set.  Drift = how much worse a later set's median is than the first set's "
        "(negative = better).  Unscaled = spread of the first set before speed scaling.",
        "",
        "| workload | metric | median | unit | spread per set | unscaled | bound | drift |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload, per_metric in summary.items():
        for name, row in per_metric.items():
            spreads = " / ".join(f"{s:.3f}" for s in row["spreads"])
            drift = ", ".join(f"{d:+.3f}" for d in row["drifts"]) or "-"
            lines.append(f"| {workload} | {name} | {row['median']:.6g} | {row['unit']} | "
                         f"{spreads} | {row['unscaled_spread']:.3f} | {row['bound']:.2f} | "
                         f"{drift} |")
    walls = [r["wall_s"] for results in runs.values() for r in results]
    lines += ["", f"Run wall time: median {statistics.median(walls):.1f} s, "
                  f"max {max(walls):.1f} s over {len(walls)} runs.", ""]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--load", help="summarize the runs saved by an earlier --out")
    parser.add_argument("--out", help="write every run's result as JSON")
    parser.add_argument("--markdown", help="write the spread table as Markdown")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.load:
        runs = json.loads(Path(args.load).read_text())["runs"]
    elif args.workloads:
        runs = {}
        for s in range(args.sets):
            for workload in args.workloads.split(","):
                for seed in seeds(args.seeds):
                    result = run_once(workload, seed, spec["run_seconds"])
                    runs.setdefault(workload, []).append({"set": s, "seed": seed, **result})
                    print(f"set {s} {workload} seed {seed}: {result['wall_s']:.1f} s, "
                          f"correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}", flush=True)
    else:
        parser.error("give --workloads or --load")
    summary = summarize(runs, metrics)
    print_summary(summary, runs)
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1))
    if args.markdown:
        Path(args.markdown).write_text(markdown(summary, runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
