"""Capacity tables: bounds and verified achieved rates, side by side.

Every row runs the bound computations and the code generators on one
(structure, orientation, characteristic) triple and records both sides.
A row is *matched* only when a generated code passed exact verification
at a rate equal to the best bound.  Rows where no construction applies
carry the bound alone, marked "bound only".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import bounds as bounds_mod
from . import codes as codes_mod
from .codes import NetworkCode, NoApplicableCode
from .gf import IntMatrix, PrimeField
from .incidence import IncidenceStructure
from .network import build_sum_network, require_nonzero_lines
from .verify import verify_exact


@dataclass(frozen=True)
class RowSpec:
    label: str
    structure: IncidenceStructure
    family: str  # "graph", "bibd", "tdesign", "higher", or "" when unknown
    orientation: str  # "normal" or "transpose"
    char: int


@dataclass(frozen=True)
class CapacityRow:
    label: str
    orientation: str
    char: int
    bound: Optional[Fraction]
    bound_via: str
    rate: Optional[Fraction]
    rate_label: str  # unreduced "m/n", or ""
    rate_via: str
    matched: bool
    note: str = ""


def orient_matrix(struct: IncidenceStructure, orientation: str) -> IntMatrix:
    if orientation == "normal":
        return struct.matrix
    if orientation == "transpose":
        return struct.matrix.transpose()
    raise ValueError(f"orientation must be normal or transpose, got {orientation!r}")


def family_kind(family: str, orientation: str) -> Optional[str]:
    """The family-bound kind for a structure family and orientation, if any."""
    if family == "graph":
        return f"graph-{orientation}"
    if family == "bibd":
        return f"bibd-{orientation}"
    if family == "tdesign":
        return "tdesign-transpose" if orientation == "transpose" else None
    if family == "higher":
        return f"higher-{orientation}"
    return None


def applicable_bounds(
    struct: IncidenceStructure,
    family: str,
    orientation: str,
    field: PrimeField,
) -> list[bounds_mod.BoundResult]:
    """Rank bound, plus the family bound when the shape qualifies."""
    a = orient_matrix(struct, orientation)
    out = [bounds_mod.rank_bound(a, field)]
    kind = family_kind(family, orientation)
    if kind is not None:
        try:
            out.append(bounds_mod.family_bound(struct, kind, field))
        except ValueError:
            pass  # shape does not qualify after all
    return out


def best_bound(results: Sequence[bounds_mod.BoundResult]) -> bounds_mod.BoundResult:
    applicable = [r for r in results if r.applicable]
    return min(applicable, key=lambda r: r.bound)


def generate_code(
    struct: IncidenceStructure, family: str, orientation: str, field: PrimeField
) -> tuple[NetworkCode, str]:
    """Build the code on B' x P', P' being the columns whose overlap residue is
    nonzero mod p, and name it by the residue: transfer when P' is every
    column, scalar when it is empty, graph-transpose otherwise, a case built
    only for a graph's transposed network.  Raises ``NoApplicableCode``
    naming what failed, and ``ValueError`` for a matrix with an all-zero row
    or column.
    """
    a = orient_matrix(struct, orientation)
    require_nonzero_lines(a)
    mu = codes_mod.overlap_residue(a, field)
    if mu is None:
        raise NoApplicableCode("overlap residue is not diagonal mod p")
    graph_transpose = family == "graph" and orientation == "transpose"
    mixed = any(mu) and not all(mu)
    reasons = ["overlap residue has zero diagonal entries mod p"] if mixed else []
    if mixed and not graph_transpose:
        raise NoApplicableCode(reasons[0])
    via = "graph-transpose" if mixed else "transfer" if all(mu) else "scalar"
    try:
        return codes_mod.build_transfer_code(a, field), via
    except NoApplicableCode as exc:
        reasons.append(str(exc))
    if graph_transpose and not mixed:  # P' is every column: the graph-transpose clause repeats it
        reasons.append(f"no margin matrix with row sums {a.cols} and column sums {a.rows} "
                       "exists on the B' x P' submatrix")
    raise NoApplicableCode("; ".join(reasons))


def capacity_table(specs: Sequence[RowSpec]) -> list[CapacityRow]:
    rows = []
    for spec in specs:
        field = PrimeField(spec.char)
        try:
            results = applicable_bounds(spec.structure, spec.family, spec.orientation, field)
            bound = best_bound(results)
        except ValueError as exc:
            rows.append(
                CapacityRow(spec.label, spec.orientation, spec.char, None, "", None,
                            "", "", False, note=f"error: {exc}")
            )
            continue
        note = ""
        rate = None
        rate_label = ""
        rate_via = ""
        matched = False
        try:
            code, rate_via = generate_code(
                spec.structure, spec.family, spec.orientation, field
            )
            net = build_sum_network(orient_matrix(spec.structure, spec.orientation))
            report = verify_exact(net, code)
            if report.ok:
                rate = code.rate
                rate_label = code.rate_label()
                matched = rate == bound.bound
            else:
                note = "generated code failed verification"
                rate_via = ""
        except NoApplicableCode as exc:
            note = f"bound only ({exc})"
        rows.append(
            CapacityRow(
                spec.label,
                spec.orientation,
                spec.char,
                bound.bound,
                bound.via,
                rate,
                rate_label,
                rate_via,
                matched,
                note,
            )
        )
    return rows


def render_table_text(rows: Sequence[CapacityRow]) -> str:
    headers = ["structure", "net", "char", "bound", "via", "rate", "via", "matched", "note"]
    table = [headers]
    for r in rows:
        table.append(
            [
                r.label,
                r.orientation,
                str(r.char),
                "-" if r.bound is None else str(r.bound),
                r.bound_via,
                r.rate_label or "-",
                r.rate_via or "-",
                "yes" if r.matched else "no",
                r.note,
            ]
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def render_table_jsonl(rows: Sequence[CapacityRow]) -> str:
    out = []
    for r in rows:
        out.append(
            json.dumps(
                {
                    "structure": r.label,
                    "kind": r.orientation,
                    "char": r.char,
                    "bound": None if r.bound is None else str(r.bound),
                    "bound_via": r.bound_via,
                    "rate": r.rate_label or None,
                    "rate_via": r.rate_via or None,
                    "matched": r.matched,
                    "note": r.note,
                },
                sort_keys=True,
            )
        )
    return "\n".join(out) + "\n"


_MAX_LAM_DIGITS = 4300  # Python 3.11's default limit on converting an int to a decimal string


def higher_family_capacity(t: int) -> tuple[int, Fraction]:
    """Capacity of the subset-vs-block networks built on the t-(v, t+1, lam)
    designs with lam = (t+1)!^(2t+1), for characteristics not dividing t.

    The value (t+1)/(lam+t+1) is independent of v; no design is built.  A t
    whose lam has more than 4,300 digits is refused before lam is computed:
    log10(lam) = (2t+1) log10((t+1)!) grows with t, 4,245.3 at t = 41 and
    4,486.4 at t = 42, so t above 100 is refused as t = 100 is.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    s = min(t, 100)
    if (2 * s + 1) * math.lgamma(s + 2) / math.log(10) >= _MAX_LAM_DIGITS:
        raise ValueError(f"t={t}: lam = (t+1)!^(2t+1) would exceed {_MAX_LAM_DIGITS} digits")
    lam = math.factorial(t + 1) ** (2 * t + 1)
    return lam, Fraction(t + 1, lam + t + 1)
