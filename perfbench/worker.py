"""One workload run in a fresh process: set up, run jobs, check, report.

``run.py`` starts this script as a child so that its peak resident memory
belongs to one workload run alone.  The child imports ``sumnet`` from the
checkout's ``src``, writes the seeded inputs, then runs the workload's job
list in passes, one job after another, until the time budget is spent.
Every job calls ``sumnet.cli.main`` in this process with stdout captured.

Set-up time is measured from ``--t0``, a CLOCK_MONOTONIC reading the parent
takes just before it starts the process.  With ``--setup-only`` the child
stops after set-up.  With ``--trace 1`` it runs half the budget untraced
and half traced, and reports the per-layer totals of each traced pass.

The last line of stdout is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, render_argv, write_inputs


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(jobs, work: Path, seed: int, cli, codes, tracer=None, pass_no: int = 0) -> dict:
    """Run every job once, in order; return the wall time and each job's outcome.

    Outcomes are checked and dropped after the pass, so that imported codes
    do not pile up across passes and inflate the peak memory.
    """
    outcomes = []
    start, cpu_start = time.perf_counter(), time.process_time()
    for idx, job in enumerate(jobs):
        argv = render_argv(job, work, seed)
        if tracer is not None:
            tracer.pass_no, tracer.job = pass_no, idx
        out = io.StringIO()
        outcome: dict = {}
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    outcome["exit"] = cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad argv this way
                    outcome["exit"] = exc.code
            if "--out" in argv and outcome["exit"] == 0:
                data = Path(argv[argv.index("--out") + 1]).read_bytes()
                outcome["out_bytes"] = data
                outcome["imported"] = codes.import_code(data.decode())
        except Exception as exc:  # a job that raises is a failed job, not a crash
            outcome["error"] = f"{type(exc).__name__}: {exc}"
        outcome["s"] = time.perf_counter() - t0
        outcome["cpu_s"] = time.process_time() - c0
        outcome["stdout"] = out.getvalue()
        outcomes.append(outcome)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    if tracer is not None:
        tracer.job = -1
    return {"wall_s": wall, "cpu_s": cpu, "job_s": [o["s"] for o in outcomes],
            "job_cpu_s": [o["cpu_s"] for o in outcomes], "outcomes": outcomes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # -- set-up, timed from the parent's t0: interpreter start, imports, inputs
    import numpy  # noqa: F401  (numpy's import is part of set-up)
    import sumnet
    from sumnet import cli, codes

    src = Path(args.src).resolve()
    if src not in Path(sumnet.__file__).resolve().parents:
        print(f"error: imported sumnet from {sumnet.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    write_inputs(args.workload, args.seed, work)
    setup_s = _now() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # -- measurement
    import checks

    expected = checks.load_expected()[args.workload]

    references: dict[tuple[str, ...], str] = {}
    tally = {"attempted": 0, "failed": 0}
    problems: set[str] = set()

    def check_pass(outcomes: list[dict]) -> None:
        for job, snap, outcome in zip(workload.jobs, expected, outcomes):
            reference = None
            if snap is None:  # seeded random matrix: no snapshot, use the reference
                if job not in references:
                    argv = render_argv(job, work, args.seed)
                    path = Path(argv[argv.index("--file") + 1])
                    char = int(argv[argv.index("--char") + 1])
                    references[job] = checks.reference_bound_output(
                        path.name, path.read_text(), char)
                reference = references[job]
            found = checks.check_job(job, snap, outcome, work, args.seed, reference)
            tally["attempted"] += 1
            if found:
                tally["failed"] += 1
                problems.add(f"{' '.join(job)}: {'; '.join(found)}")

    def run_for(budget: float, tracer=None) -> list[dict]:
        """Passes until the next one would take the pass time past the budget."""
        passes: list[dict] = []
        while True:
            if tracer is not None:
                tracer.reset_totals()
            p = run_pass(workload.jobs, work, args.seed, cli, codes, tracer, len(passes))
            check_pass(p.pop("outcomes"))
            if tracer is not None:
                p["totals"] = tracer.totals()
            passes.append(p)
            walls = [q["wall_s"] for q in passes]
            if sum(walls) + statistics.median(walls) > budget:
                return passes

    result: dict = {"setup_s": setup_s}
    if args.trace:
        from tracing import CoverageError, Tracer, check_dominant

        untraced = run_for(args.seconds / 2)
        tracer = Tracer()
        try:
            tracer.install()
            try:
                traced = run_for(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            for p in traced:
                check_dominant(p["totals"], workload.dominant)
        except CoverageError as exc:
            print(f"error: trace coverage: {exc}", file=sys.stderr)
            return 3
        if args.trace_out:
            tracer.write_jsonl(Path(args.trace_out))
        result["traced_wall_s"] = [p["wall_s"] for p in traced]
        result["totals"] = [p["totals"] for p in traced]
    else:
        untraced = run_for(args.seconds)

    for line in sorted(problems):
        print(f"check failed: {line}", file=sys.stderr)
    result.update(
        wall_s=[p["wall_s"] for p in untraced],
        cpu_s=[p["cpu_s"] for p in untraced],
        job_s=[p["job_s"] for p in untraced],
        job_cpu_s=[p["job_cpu_s"] for p in untraced],
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **tally,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
