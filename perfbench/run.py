"""sumnet benchmark: one workload run, metrics as one JSON line.

    python3 perfbench/run.py --workload sts-ladder --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The benchmark imports ``sumnet`` from the
checkout's ``src`` and fails, without a result, when it is not there.

A run starts fresh single-threaded child processes, one at a time: a few
that only set up (interpreter start, ``import sumnet`` and numpy, writing
the seeded inputs), then one that sets up and runs the workload's job list
in a closed loop (one client, the next job after the previous one ends)
for ``--seconds``.  Times are medians over the passes of that loop.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the per-layer
metrics of a traced run, with spans written as JSON lines to
``.perfbench/trace-<workload>-seed<n>.jsonl``.  Human-readable lines come
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is measured this many times in separate processes, plus once in the
# measured process; setup_s is the median.
SETUP_PROBES = 6
RUN_LIMIT_S = 170  # the whole run, so that it ends within three minutes

# Job-list times are CPU seconds of the workload process: on a shared
# virtual machine its wall time also holds the time the hypervisor gives
# the core to others, which swings by more than a regression bound between
# runs.  The wall-clock medians are printed beside them, not gated.
END_TO_END = {
    "cpu_s": "s",
    "largest_job_cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

PER_LAYER_SIZES = {
    "network.edges": "count",
    "bounds.subset.subsets": "count_computed",
    "codes.encoder_entries": "count",
    "codes.encoder_nnz": "count",
    "codes.nnz_ratio": "ratio",
    "verify.exact.terminals": "count",
    "verify.exact.dense_madds": "madd_computed",
    "verify.random.trials": "count",
    "codes.export.bytes": "bytes",
    "report.rows": "count",
    "report.matched_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.dominant_share": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.busy_s"] = "s"
    units.update(PER_LAYER_SIZES)
    return units


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: argparse.Namespace, work: Path, deadline: float, extra: list[str]) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    t0 = _now()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), "--work", str(work), "--src", str(SRC), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - _now()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict, setups: list[float], largest: int) -> dict[str, float]:
    return {
        "cpu_s": statistics.median(res["cpu_s"]),
        "largest_job_cpu_s": statistics.median(p[largest] for p in res["job_cpu_s"]),
        "peak_rss_mib": res["peak_rss_kib"] / 1024,
        "setup_s": statistics.median(setups),
    }


def wall_clock(res: dict, largest: int) -> dict[str, float]:
    return {
        "wall_s": statistics.median(res["wall_s"]),
        "largest_job_s": statistics.median(p[largest] for p in res["job_s"]),
    }


def per_layer(res: dict, dominant: str) -> dict[str, float]:
    passes = []
    for wall, totals in zip(res["traced_wall_s"], res["totals"]):
        self_sum = sum(totals[f"{layer}.self_s"] for layer in LAYERS)
        entries = totals.get("codes.encoder_entries", 0)
        rows = totals.get("report.rows", 0)
        passes.append({
            **totals,
            "codes.nnz_ratio": totals.get("codes.encoder_nnz", 0) / entries if entries else 0.0,
            "report.matched_ratio": totals.get("report.matched", 0) / rows if rows else 0.0,
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - self_sum,
            "trace.dominant_share": totals[f"{dominant}.self_s"] / self_sum if self_sum else 0.0,
        })
    units = per_layer_units()
    out = {name: statistics.median(p.get(name, 0) for p in passes)
           for name in units if name != "trace.overhead_s"}
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(res["wall_s"])
    return {name: out[name] for name in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sumnet benchmark: one workload run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "sumnet" / "__init__.py").is_file():
        print(f"error: no sumnet sources at {SRC}; run from a sumnet checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    deadline = _now() + RUN_LIMIT_S
    run_dir = ROOT / ".perfbench"
    work = run_dir / f"work-{os.getpid()}"
    try:
        setups = [run_child(args, work / f"setup{k}", deadline, ["--setup-only"])["setup_s"]
                  for k in range(SETUP_PROBES)]
        extra = []
        if args.trace:
            trace_out = run_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            extra = ["--trace-out", str(trace_out)]
        res = run_child(args, work / "run", deadline, extra)
    except subprocess.TimeoutExpired:
        print(f"error: the run did not finish within {RUN_LIMIT_S} s", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = per_layer(res, workload.dominant)
        units = per_layer_units()
    else:
        metrics = end_to_end(res, setups, workload.largest)
        units = END_TO_END
    npasses = len(res["wall_s"]) + len(res.get("traced_wall_s", []))
    print(f"workload {args.workload}, seed {args.seed}: {npasses} passes of "
          f"{len(workload.jobs)} jobs, {attempted} jobs attempted")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    for name, value in wall_clock(res, workload.largest).items():
        print(f"  {name:28s} {value:14.6g} s (wall clock, not gated)")
    print(f"  {'fail_ratio':28s} {failed / attempted:14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
