"""Golden CLI snapshots: stdout, stderr, exit status and exported files, byte for byte.

Each case runs ``sumnet.cli.main`` in a scratch directory and compares
against the files under ``tests/golden``:

* ``<name>.out`` -- expected stdout;
* ``<name>.err`` -- expected stderr (absent means stderr must be empty);
* ``<name>.<file>`` -- expected bytes of a file the command writes.

Re-record after a deliberate output change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from sumnet.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, expected exit status, files the command writes)
CASES: dict[str, tuple[list[str], int, tuple[str, ...]]] = {
    "table-paper-all": (["table", "paper-all", "--structured"], 0, ()),
    "table-sts": (["table", "sts", "--v", "7,9,13", "--char", "2,3,5", "--structured"], 0, ()),
    "bound-fig3": (["bound", "--graph", "fig3", "--transpose", "--char", "3"], 0, ()),
    # A simple graph's residue is I: t = b, and the overlap count stays sparse.
    "bound-k40": (["bound", "--complete", "40", "--char", "3"], 0, ()),
    # The exact subset search on 13 rows: the rank bound wins at chars 3 and 5,
    # and at char 2, where every value is 1, {1} wins the tie on |S|.
    "bound-sts13": (["bound", "--sts", "13", "--char", "2,3,5"], 0, ()),
    "bound-star-composite": (
        ["bound", "--graph", "star-composite", "--transpose", "--char", "2,3,5"], 0, ()
    ),
    "structure-k2-network": (["structure", "graph", "k2", "--network"], 0, ()),
    # fig4a has disjoint edges, so its network has column-to-column direct edges.
    "structure-fig4a-network": (["structure", "graph", "fig4a", "--network"], 0, ()),
    "structure-higher": (["structure", "higher", "2-4-3-2"], 0, ()),
    "code-fig4a": (
        ["code", "--graph", "fig4a", "--transpose", "--char", "2", "--alpha", "2",
         "--random-trials", "20", "--out", "fig4a.code"],
        0,
        ("fig4a.code",),
    ),
    # The 65-terminal network through the simulator: four blocks of 64 trials.
    "code-star-composite": (
        ["code", "--graph", "star-composite", "--transpose", "--char", "5",
         "--random-trials", "250", "--seed", "1"],
        0,
        (),
    ),
    "code-triangle": (
        ["code", "--triangle", "--normal", "--char", "3", "--out", "triangle.code"],
        0,
        ("triangle.code",),
    ),
    "structure-sts-missing": (["structure", "sts"], 1, ()),
}


def run_case(argv: list[str], files: tuple[str, ...]) -> tuple[int, str, str, dict[str, bytes]]:
    """Run one CLI invocation in a fresh directory; return status, streams, files."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(argv)
            written = {name: Path(name).read_bytes() for name in files}
        finally:
            os.chdir(cwd)
    return status, out.getvalue(), err.getvalue(), written


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    argv, want_status, files = CASES[name]
    status, out, err, written = run_case(argv, files)
    assert status == want_status
    assert out == (GOLDEN / f"{name}.out").read_text()
    err_path = GOLDEN / f"{name}.err"
    assert err == (err_path.read_text() if err_path.exists() else "")
    for fname, data in written.items():
        assert data == (GOLDEN / f"{name}.{fname}").read_bytes()


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, want_status, files) in CASES.items():
        status, out, err, written = run_case(argv, files)
        if status != want_status:
            sys.exit(f"{name}: exit status {status}, expected {want_status}")
        (GOLDEN / f"{name}.out").write_text(out)
        if err:
            (GOLDEN / f"{name}.err").write_text(err)
        for fname, data in written.items():
            (GOLDEN / f"{name}.{fname}").write_bytes(data)


if __name__ == "__main__":
    record()
