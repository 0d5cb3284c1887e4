"""The benchmark's workloads: fixed job lists of real ``sumnet`` CLI calls.

A job is one CLI invocation, written as an argv list.  ``{work}`` in an
argument stands for the run's work directory and ``{seed}`` for the
workload seed.  The seed drives only two things: the random (0,1)-matrix
files of ``subset-search`` and the ``--seed`` of the randomized
cross-check in ``code-sim``.  Every other input is a built-in instance, so
the program sees nothing but argv and the generated files.

Each workload records why it was chosen, the job whose time is reported as
``largest_job_s``, and the layer that dominates its traced self time, with
the share measured when the benchmark was defined (``dominant_share``).
A job that exports a code file (``--out``) also re-reads it with
``import_code``; that read is part of the job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Randomized cross-check trials per ``code`` job in code-sim.
CODE_SIM_TRIALS = 250

# Random matrices for subset-search: r rows, c columns, and the density of
# ones.  r = 14 gives 2^14 - 1 subsets per bound, the same order as sts-13.
MATRIX_ROWS = 14
MATRIX_COLS = 20
MATRIX_DENSITIES = {"sparse": 0.25, "dense": 0.5}


@dataclass(frozen=True)
class Workload:
    why: str
    jobs: tuple[tuple[str, ...], ...]
    largest: int  # index of the job reported as largest_job_s
    dominant: str  # layer with the largest traced self time
    dominant_share: float  # its share of traced self time, as measured


def _code_job(name: str, *flags: str) -> tuple[str, ...]:
    return ("code", *flags, "--random-trials", str(CODE_SIM_TRIALS),
            "--seed", "{seed}", "--out", f"{{work}}/{name}.code")


WORKLOADS: dict[str, Workload] = {
    "sts-ladder": Workload(
        why="Steiner capacity tables, v 7-15 at chars 2/3/5: exact verification of dense "
            "transfer codes with large m; the time and memory hot path",
        jobs=tuple(("table", "sts", "--v", str(v), "--char", str(p))
                   for v in (7, 9, 13, 15) for p in (2, 3, 5)),
        largest=10,  # table sts --v 15 --char 3
        dominant="verify.exact",
        dominant_share=0.967,
    ),
    "subset-search": Workload(
        why="exact 2^r subset bounds on sts-13 and seeded random r=14 matrices; codes and "
            "verification are never called",
        jobs=(
            ("bound", "--sts", "13", "--char", "3"),
            ("bound", "--file", "{work}/r14-sparse.txt", "--char", "2"),
            ("bound", "--file", "{work}/r14-dense.txt", "--char", "3"),
        ),
        largest=0,
        dominant="bounds.subset",
        dominant_share=0.997,
    ),
    "paper-all": Workload(
        why="every worked example of the paper plus the README bound calls: breadth over all "
            "constructions, family bounds and the 65-terminal star-composite",
        jobs=(
            ("table", "paper-all"),
            ("bound", "--graph", "fig3", "--transpose", "--char", "3"),
            ("bound", "--fano", "--normal", "--char", "2"),
            ("bound", "--graph", "star-composite", "--transpose", "--char", "2,3,5"),
        ),
        largest=0,
        dominant="verify.exact",
        dominant_share=0.930,
    ),
    "code-sim": Workload(
        why="code generation with seeded randomized simulation, alpha lifts and code-file "
            "export and re-import: the same layers used the other way round",
        jobs=(
            _code_job("fano", "--fano", "--normal", "--char", "3"),
            _code_job("fano-a3", "--fano", "--normal", "--char", "3", "--alpha", "3"),
            _code_job("fig4a-a2", "--graph", "fig4a", "--transpose", "--char", "2",
                      "--alpha", "2"),
            _code_job("sts9", "--sts", "9", "--char", "3"),
            _code_job("star", "--graph", "star-composite", "--transpose", "--char", "5"),
            _code_job("k6", "--complete", "6", "--transpose", "--char", "3"),
            _code_job("higher", "--higher", "2-4-3-2", "--transpose", "--char", "2"),
        ),
        largest=4,
        dominant="verify.random",
        dominant_share=0.661,
    ),
}


def random_matrix_text(seed: int, rows: int, cols: int, density: float) -> str:
    """A seeded (0,1)-matrix in the ``--file`` format.

    Columns are distinct and nonempty, every row is nonzero, and column
    weights are not all equal, so the matrix is a valid simple structure
    that is neither a graph nor a design: its bound output is the subset
    and rank lines only.
    """
    rng = random.Random(seed)
    while True:
        columns: list[tuple[int, ...]] = []
        seen = set()
        while len(columns) < cols:
            col = tuple(int(rng.random() < density) for _ in range(rows))
            if any(col) and col not in seen:
                seen.add(col)
                columns.append(col)
        row_ok = all(any(col[i] for col in columns) for i in range(rows))
        if row_ok and len({sum(col) for col in columns}) > 1:
            break
    lines = [f"{rows} {cols}"]
    lines += ["".join(str(col[i]) for col in columns) for i in range(rows)]
    return "\n".join(lines) + "\n"


def input_files(name: str, seed: int) -> dict[str, str]:
    """The generated input files of a workload, by file name."""
    if name != "subset-search":
        return {}
    return {
        f"r14-{kind}.txt": random_matrix_text(
            seed * len(MATRIX_DENSITIES) + k, MATRIX_ROWS, MATRIX_COLS, density
        )
        for k, (kind, density) in enumerate(MATRIX_DENSITIES.items())
    }


def write_inputs(name: str, seed: int, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for fname, text in input_files(name, seed).items():
        (work / fname).write_text(text)


def render(text: str, work: Path, seed: int) -> str:
    """Fill in the ``{work}`` and ``{seed}`` placeholders."""
    return text.replace("{work}", str(work)).replace("{seed}", str(seed))


def render_argv(job: tuple[str, ...], work: Path, seed: int) -> list[str]:
    return [render(a, work, seed) for a in job]
