"""Record the expected-output snapshot of every benchmark job.

    PYTHONPATH=src python3 perfbench/record.py

Runs each workload's job list once and writes ``expected.json``: per job
its argv, exit status, stdout (with the work directory and the seed
replaced by ``{work}`` and ``{seed}``), the SHA-256 of any exported code
file and, for tables, the rows that matched.  Jobs that read a seeded
random matrix get no snapshot; ``checks.reference_bound_output`` checks
them instead.  Re-record only when a change of output is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
from workloads import WORKLOADS, input_files, write_inputs
from worker import run_pass

SEED = 20161106  # any seed works: snapshots hold no seed-dependent text


def template(text: str, work: Path, seed: int) -> str:
    """Replace the run-specific work path and seed with placeholders."""
    return text.replace(str(work), "{work}").replace(f"seed {seed})", "seed {seed})")


def record() -> dict:
    from sumnet import cli, codes

    out = {}
    base = Path(__file__).resolve().parent.parent / ".perfbench" / "record"
    try:
        for name, workload in WORKLOADS.items():
            work = base / name
            write_inputs(name, SEED, work)
            generated = {f"{{work}}/{f}" for f in input_files(name, SEED)}
            outcomes = run_pass(workload.jobs, work, SEED, cli, codes)["outcomes"]
            snaps = []
            for job, o in zip(workload.jobs, outcomes):
                if o.get("error"):
                    raise RuntimeError(f"{' '.join(job)} raised {o['error']}")
                if generated & set(job):
                    snaps.append(None)
                    continue
                snap = {"argv": list(job), "exit": o["exit"],
                        "stdout": template(o["stdout"], work, SEED)}
                if "out_bytes" in o:
                    snap["out_sha256"] = checks.sha256(o["out_bytes"])
                if job[0] == "table":
                    snap["matched"] = checks.matched_keys(o["stdout"])
                snaps.append(snap)
            out[name] = snaps
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return out


if __name__ == "__main__":
    checks.EXPECTED_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {checks.EXPECTED_PATH}", file=sys.stderr)
