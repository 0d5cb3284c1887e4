"""Built-in named instances and hand-specified reference codes.

The named structures pin the worked examples the CLI and the acceptance
suite rely on, so nothing needs external files.  The reference codes are
independent fixtures: their component assignments are written out
literally (not produced by the generators in ``codes``), so they can
cross-check the verifier and the generated codes against a second source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import incidence
from .codes import Decoder, NetworkCode
from .incidence import IncidenceStructure
from .network import source_offset


@dataclass(frozen=True)
class NamedInstance:
    name: str
    family: str  # "graph", "bibd", "tdesign", or "higher"
    description: str
    build: Callable[[], IncidenceStructure]


def _fig3_graph() -> IncidenceStructure:
    # A 3-star centered at vertex 1 plus the disjoint edge {5,6}.
    return incidence.from_graph(6, [(1, 2), (1, 3), (1, 4), (5, 6)])


def _fig4a_graph() -> IncidenceStructure:
    # 4 vertices, 5 edges; irregular (degrees 3,2,3,2).
    return incidence.from_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])


INSTANCES: dict[str, NamedInstance] = {}


def _register(name: str, family: str, description: str, build) -> None:
    INSTANCES[name] = NamedInstance(name, family, description, build)


_register("k2", "graph", "single edge on two vertices", lambda: incidence.from_graph(2, [(1, 2)]))
_register("triangle", "graph", "triangle graph (equals its own transpose)",
          lambda: incidence.from_graph(3, [(1, 2), (1, 3), (2, 3)]))
_register("fig3", "graph", "3-star plus a disjoint edge (6 vertices, 4 edges)", _fig3_graph)
_register("fig4a", "graph", "irregular 4-vertex graph with 5 edges", _fig4a_graph)
_register("star-composite", "graph",
          "three bridged stars, hub degrees 7/16/11 (33 vertices, 32 edges)",
          incidence.star_composite)
_register("fano", "bibd", "Fano plane, the 2-(7,3,1) design", incidence.fano)

ALIASES = {"fig6": "star-composite"}


def get_instance(name: str) -> NamedInstance:
    key = ALIASES.get(name, name)
    if key not in INSTANCES:
        known = ", ".join(sorted(INSTANCES) + sorted(ALIASES))
        raise KeyError(f"unknown instance {name!r}; known: {known}")
    return INSTANCES[key]


# ---------------------------------------------------------------------------
# reference codes
#
# Component maps are written as literal tables.  Encoder rows list
# (source label, message component, coefficient) terms; decoder rows list
# (input position, bundle component, coefficient) terms.  Coefficients
# are reduced mod p when the arrays are assembled, so one table serves
# every characteristic.

_EncRow = list[tuple[str, int, int]]
_DecRow = list[tuple[int, int, int]]


def _assemble(
    p: int,
    rows: int,
    cols: int,
    m: int,
    n: int,
    encoder_rows: list[list[_EncRow]],
    decoder_spec: dict[str, tuple[list[str], list[_DecRow]]],
) -> NetworkCode:
    encoders = []
    for table in encoder_rows:
        assert len(table) == n
        enc = np.zeros((n, m * (rows + cols)), dtype=np.int64)
        for comp, terms in enumerate(table):
            for label, k, coeff in terms:
                enc[comp, source_offset(rows, m, f"s_{label}") + k] = coeff % p
        encoders.append(enc)
    decoders = {}
    for terminal, (inputs, table) in decoder_spec.items():
        assert len(table) == m
        mat = np.zeros((m, n * len(inputs)), dtype=np.int64)
        for out_comp, terms in enumerate(table):
            for pos, comp, coeff in terms:
                mat[out_comp, pos * n + comp] = (mat[out_comp, pos * n + comp] + coeff) % p
        decoders[terminal] = Decoder(tuple(inputs), mat)
    return NetworkCode(m, n, p, 1, rows, cols, tuple(encoders), decoders)


def _k2_normal_code(p: int) -> NetworkCode:
    # Rate 2/3 for the single-edge graph: partial sums in components 1-2,
    # one uncoded half of the edge message in component 3 of each bottleneck.
    enc = [
        [  # e1
            [("p1", 0, 1), ("B1", 0, 1)],
            [("p1", 1, 1), ("B1", 1, 1)],
            [("B1", 0, 1)],
        ],
        [  # e2
            [("p2", 0, 1), ("B1", 0, 1)],
            [("p2", 1, 1), ("B1", 1, 1)],
            [("B1", 1, 1)],
        ],
    ]
    dec = {
        "t_p1": (["e1", "s_p2"], [[(0, 0, 1), (1, 0, 1)], [(0, 1, 1), (1, 1, 1)]]),
        "t_p2": (["e2", "s_p1"], [[(0, 0, 1), (1, 0, 1)], [(0, 1, 1), (1, 1, 1)]]),
        "t_B1": (
            ["e1", "e2"],
            [
                [(0, 0, 1), (1, 0, 1), (0, 2, -1)],
                [(0, 1, 1), (1, 1, 1), (1, 2, -1)],
            ],
        ),
    }
    return _assemble(p, 2, 1, 2, 3, enc, dec)


def _partial(labels: list[str], m: int) -> list[_EncRow]:
    return [[(lb, k, 1) for lb in labels] for k in range(m)]


def _fig4a_normal_code(p: int) -> NetworkCode:
    # Rate 4/9 for the irregular 4-vertex graph.  Blocks (columns) are
    # A..E = {1,2},{2,3},{3,4},{1,4},{1,3}; each bottleneck carries its
    # partial sum in components 1-4 and five ferried pieces after that.
    m, n = 4, 9
    pieces = {
        # message -> four (bottleneck, component) slots for components 1..4
        "B1": [(1, 4), (1, 5), (2, 4), (2, 5)],  # X_A
        "B2": [(2, 6), (2, 7), (2, 8), (3, 4)],  # X_B
        "B3": [(3, 5), (4, 4), (4, 5), (4, 6)],  # X_C
        "B4": [(1, 6), (1, 7), (4, 7), (4, 8)],  # X_D
        "B5": [(1, 8), (3, 6), (3, 7), (3, 8)],  # X_E
    }
    enc_tables = [
        _partial(["p1", "B1", "B4", "B5"], m) + [[] for _ in range(5)],
        _partial(["p2", "B1", "B2"], m) + [[] for _ in range(5)],
        _partial(["p3", "B2", "B3", "B5"], m) + [[] for _ in range(5)],
        _partial(["p4", "B3", "B4"], m) + [[] for _ in range(5)],
    ]
    for label, slots in pieces.items():
        for k, (ei, comp) in enumerate(slots):
            enc_tables[ei - 1][comp] = [(label, k, 1)]

    incident = {1: ["e1", "e2"], 2: ["e2", "e3"], 3: ["e3", "e4"], 4: ["e1", "e4"], 5: ["e1", "e3"]}
    directs = {
        1: ["s_p3", "s_p4", "s_B3"],
        2: ["s_p1", "s_p4", "s_B4"],
        3: ["s_p1", "s_p2", "s_B1"],
        4: ["s_p2", "s_p3", "s_B2"],
        5: ["s_p2", "s_p4"],
    }
    dec: dict[str, tuple[list[str], list[_DecRow]]] = {}
    row_inputs = {
        1: ["e1", "s_p2", "s_p3", "s_p4", "s_B2", "s_B3"],
        2: ["e2", "s_p1", "s_p3", "s_p4", "s_B3", "s_B4", "s_B5"],
        3: ["e3", "s_p1", "s_p2", "s_p4", "s_B1", "s_B4"],
        4: ["e4", "s_p1", "s_p2", "s_p3", "s_B1", "s_B2", "s_B5"],
    }
    for i, inputs in row_inputs.items():
        table = [[(pos, k, 1) for pos in range(len(inputs))] for k in range(m)]
        dec[f"t_p{i}"] = (inputs, table)
    for j in range(1, 6):
        inputs = incident[j] + directs[j]
        table: list[_DecRow] = [[] for _ in range(m)]
        for k in range(m):
            for pos in range(len(inputs)):
                table[k].append((pos, k, 1))
        # subtract the doubly-counted edge message, recovered piecewise
        for k, (ei, comp) in enumerate(pieces[f"B{j}"]):
            pos = incident[j].index(f"e{ei}")
            table[k].append((pos, comp, -1))
        dec[f"t_B{j}"] = (inputs, table)
    return _assemble(p, 4, 5, m, n, enc_tables, dec)


def _fig4a_transpose_code(p: int) -> NetworkCode:
    # Rate 4/6 for the transposed network of the same graph.  Rows are the
    # edges A..E, columns the vertices 1..4.  Bottlenecks A,B ferry the
    # message of vertex 2 and C,D that of vertex 4; E ferries nothing.
    m, n = 4, 6
    pieces = {
        "B2": [(1, 4), (1, 5), (2, 4), (2, 5)],  # X_2 over e_A, e_B
        "B4": [(3, 4), (3, 5), (4, 4), (4, 5)],  # X_4 over e_C, e_D
    }
    enc_tables = [
        _partial(["p1", "B1", "B2"], m) + [[] for _ in range(2)],  # e_A, A={1,2}
        _partial(["p2", "B2", "B3"], m) + [[] for _ in range(2)],  # e_B, B={2,3}
        _partial(["p3", "B3", "B4"], m) + [[] for _ in range(2)],  # e_C, C={3,4}
        _partial(["p4", "B1", "B4"], m) + [[] for _ in range(2)],  # e_D, D={1,4}
        _partial(["p5", "B1", "B3"], m) + [[] for _ in range(2)],  # e_E, E={1,3}
    ]
    for label, slots in pieces.items():
        for k, (ei, comp) in enumerate(slots):
            enc_tables[ei - 1][comp] = [(label, k, 1)]

    row_inputs = {
        1: ["e1", "s_p2", "s_p3", "s_p4", "s_p5", "s_B3", "s_B4"],
        2: ["e2", "s_p1", "s_p3", "s_p4", "s_p5", "s_B1", "s_B4"],
        3: ["e3", "s_p1", "s_p2", "s_p4", "s_p5", "s_B1", "s_B2"],
        4: ["e4", "s_p1", "s_p2", "s_p3", "s_p5", "s_B2", "s_B3"],
        5: ["e5", "s_p1", "s_p2", "s_p3", "s_p4", "s_B2", "s_B4"],
    }
    col_inputs = {
        1: ["e1", "e4", "e5", "s_p2", "s_p3"],
        2: ["e1", "e2", "s_p3", "s_p4", "s_p5", "s_B4"],
        3: ["e2", "e3", "e5", "s_p1", "s_p4"],
        4: ["e3", "e4", "s_p1", "s_p2", "s_p5", "s_B2"],
    }
    degree = {1: 3, 2: 2, 3: 3, 4: 2}
    dec: dict[str, tuple[list[str], list[_DecRow]]] = {}
    for i, inputs in row_inputs.items():
        table = [[(pos, k, 1) for pos in range(len(inputs))] for k in range(m)]
        dec[f"t_p{i}"] = (inputs, table)
    for j, inputs in col_inputs.items():
        table = [[(pos, k, 1) for pos in range(len(inputs))] for k in range(m)]
        if f"B{j}" in pieces:
            # cancel the extra (deg-1) copies of the vertex message
            for k, (ei, comp) in enumerate(pieces[f"B{j}"]):
                pos = inputs.index(f"e{ei}")
                table[k].append((pos, comp, 1 - degree[j]))
        dec[f"t_B{j}"] = (inputs, table)
    return _assemble(p, 5, 4, m, n, enc_tables, dec)


REFERENCE_CODES: dict[str, Callable[[int], NetworkCode]] = {
    "k2-normal": _k2_normal_code,
    "fig4a-normal": _fig4a_normal_code,
    "fig4a-transpose": _fig4a_transpose_code,
}


def reference_code(name: str, char: int) -> NetworkCode:
    """A hand-specified known-good code for a built-in network."""
    if name not in REFERENCE_CODES:
        raise KeyError(f"unknown reference code {name!r}; known: {sorted(REFERENCE_CODES)}")
    return REFERENCE_CODES[name](char)
