"""Output checks for benchmark jobs.

Every job is checked two ways:

* against the snapshot in ``expected.json``: exit status, stdout and the
  bytes of any exported code file must be identical to what the program
  produced when the snapshot was recorded;
* semantically, without the snapshot: a ``code`` job must print
  ``verified`` and a randomized ``ok``, and its exported file must import
  back as a code of the printed rate; every ``table`` row matched in the
  snapshot must still be matched.

Jobs on seeded random matrices have no snapshot.  Their stdout is compared
with ``reference_bound_output``, an independent exhaustive implementation
of the subset and rank bounds written from their definitions.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from workloads import render

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# table parsing


def table_rows(text: str) -> list[dict[str, str]]:
    """Rows of a text capacity table, keyed by header; columns from the rule line."""
    lines = text.splitlines()
    if len(lines) < 2 or not set(lines[1]) <= {"-", " "}:
        return []
    spans = [m.span() for m in re.finditer(r"-+", lines[1])]
    headers = [lines[0][a:b].strip() for a, b in spans]
    rows = []
    for line in lines[2:]:
        cells = [line[a:(spans[i + 1][0] if i + 1 < len(spans) else None)].strip()
                 for i, (a, _) in enumerate(spans)]
        # headers repeat ("via" twice): keep the first occurrence of each name
        row: dict[str, str] = {}
        for h, c in zip(headers, cells):
            row.setdefault(h, c)
        rows.append(row)
    return rows


def matched_keys(text: str) -> list[list[str]]:
    return [[r["structure"], r["net"], r["char"]] for r in table_rows(text)
            if r.get("matched") == "yes"]


# ---------------------------------------------------------------------------
# independent subset/rank bound reference


def _parse_matrix(text: str) -> list[list[int]]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    r, c = map(int, lines[0].split())
    grid = [[int(ch) for ch in ln] for ln in lines[1:]]
    if len(grid) != r or any(len(row) != c for row in grid):
        raise ValueError("malformed matrix text")
    return grid


def _rank(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by reduction against a dictionary of pivot rows."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        vec = [x % p for x in row]
        for col in range(len(vec)):
            x = vec[col]
            if not x:
                continue
            piv = pivots.get(col)
            if piv is None:
                inv = pow(x, -1, p)
                pivots[col] = [(y * inv) % p for y in vec]
                break
            vec = [(y - x * z) % p for y, z in zip(vec, piv)]
    return len(pivots)


def reference_bound_output(label: str, text: str, p: int) -> str:
    """Expected ``bound --file`` stdout for a matrix that is neither graph nor design."""
    a = _parse_matrix(text)
    r, c = len(a), len(a[0])
    cols = [[a[i][j] for i in range(r)] for j in range(c)]
    gram = [[int(any(x and y for x, y in zip(cols[j], cols[k]))) for k in range(c)]
            for j in range(c)]
    big = [[int(i == k) for k in range(r)] + a[i] for i in range(r)]
    big += [cols[j] + gram[j] for j in range(c)]
    supports = [frozenset(i + 1 for i in range(r) if cols[j][i]) for j in range(c)]

    best = None
    for size in range(1, r + 1):
        for subset in combinations(range(1, r + 1), size):
            chosen = set(subset)
            closure = [r + j + 1 for j in range(c) if supports[j] <= chosen]
            x_s = _rank([big[i - 1] for i in subset] + [big[i - 1] for i in closure], p)
            value = Fraction(size, x_s)
            if best is None or value < best[0]:
                best = (value, subset, closure, x_s)
    value, subset, closure, x_s = best
    line = f"  subset {value} (S={{{','.join(map(str, subset))}}}"
    if closure:
        line += f", S''={{{','.join(map(str, closure))}}}"
    line += f", x_S={x_s})"
    rank = _rank(big, p)
    return (f"{label} normal char {p}:\n{line}\n"
            f"  rank {Fraction(r, rank)} (t={rank - r})\n")


# ---------------------------------------------------------------------------


def check_job(job: tuple[str, ...], expected: dict | None, outcome: dict, work: Path,
              seed: int, reference: str | None) -> list[str]:
    """Problems with one job's outcome; an empty list means the job passed."""
    problems = []
    if outcome.get("error"):
        return [f"raised {outcome['error']}"]
    stdout = outcome["stdout"]
    want_exit = 0 if expected is None else expected["exit"]
    if outcome["exit"] != want_exit:
        problems.append(f"exit {outcome['exit']}, expected {want_exit}")
    if expected is not None:
        if stdout != render(expected["stdout"], work, seed):
            problems.append("stdout differs from the snapshot")
        if expected.get("out_sha256") and (
                sha256(outcome.get("out_bytes", b"")) != expected["out_sha256"]):
            problems.append("exported code file differs from the snapshot")
    if reference is not None and stdout != reference:
        problems.append("stdout differs from the reference subset/rank bound")

    if job[0] == "code":
        first = stdout.splitlines()[0] if stdout else ""
        if not first.endswith(", verified"):
            problems.append("code not verified")
        if "randomized cross-check: ok" not in stdout:
            problems.append("randomized cross-check not ok")
        m = re.search(r"char (\d+): construction \S+, rate (\d+)/(\d+)", first)
        imported = outcome.get("imported")
        if m and imported is not None:
            p, rate_m, rate_n = map(int, m.groups())
            if (imported.p, imported.m, imported.n) != (p, rate_m, rate_n):
                problems.append("re-imported code does not match the printed rate")
    if job[0] == "table" and expected is not None:
        now = {tuple(k) for k in matched_keys(stdout)}
        lost = [k for k in expected["matched"] if tuple(k) not in now]
        if lost:
            problems.append(f"rows no longer matched: {lost}")
    return problems
