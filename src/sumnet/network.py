"""Sum-network construction and flow queries.

``build_sum_network`` turns an r x c (0,1)-matrix A into the directed
acyclic sum-network it prescribes: one unit-capacity bottleneck edge per
row, a source and a terminal per row and per column, and direct edges
that hand every terminal exactly the messages it cannot see through its
bottlenecks.  With ``alpha > 1`` the topology is unchanged and every edge
carries multiplicity alpha.  A network is its matrix and alpha; its nodes
and edges are derived from them on first use.

Node ids: ``s_p<i>``/``t_p<i>`` for row sources/terminals, ``s_B<j>``/
``t_B<j>`` for column ones, ``tail_e<i>``/``head_e<i>`` for the relay
endpoints of bottleneck ``e<i>``.

Message layout, used by every code and verifier: in an m-symbol code,
source k of ``net.sources()`` (s_p1..s_pr, then s_B1..s_Bc) owns
coordinates [k*m, (k+1)*m) of the stacked message vector, so row i's
message starts at (i-1)*m and column j's at (r+j-1)*m.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

from .gf import IntMatrix, column_masks


class Edge(NamedTuple):
    tail: str
    head: str
    mult: int
    bottleneck: int  # 1-based bottleneck index, or 0 for ordinary edges


def row_source(i: int) -> str:
    return f"s_p{i}"


def col_source(j: int) -> str:
    return f"s_B{j}"


def row_terminal(i: int) -> str:
    return f"t_p{i}"


def col_terminal(j: int) -> str:
    return f"t_B{j}"


def bottleneck_sources(a: IntMatrix, i: int) -> list[str]:
    """Sources feeding bottleneck e<i>: s_p<i>, then the columns incident to row i."""
    return [row_source(i)] + [col_source(j) for j in range(1, a.cols + 1) if a.at(i - 1, j - 1)]


def feeding_columns(a: IntMatrix, i: int, m: int) -> list[int]:
    """Coordinates of the messages feeding bottleneck e<i>, ascending: each source's m in turn."""
    sources = [i - 1] + [a.rows + j for j in range(a.cols) if a.at(i - 1, j)]
    return [k * m + x for k in sources for x in range(m)]


def terminal_inputs(a: IntMatrix) -> dict[str, list[str]]:
    """Canonical input order at every terminal, t_p1..t_pr then t_B1..t_Bc.

    A terminal reads its incident bottlenecks e<i>, then a direct edge from
    every source they do not carry: row sources, then column sources.  t_p<i>
    misses the other rows and the columns off row i; t_B<j> misses the rows
    off column j and the columns disjoint from it.
    """
    masks = column_masks(a)
    # One string per label, shared by every list that names it.
    bottlenecks = [f"e{i}" for i in range(1, a.rows + 1)]
    rows = [row_source(i) for i in range(1, a.rows + 1)]
    cols = [col_source(j) for j in range(1, a.cols + 1)]
    inputs = {}
    for i, e in enumerate(bottlenecks):
        ins = [e] + rows[:i] + rows[i + 1 :]
        ins += [s for s, x in zip(cols, masks) if not x >> i & 1]
        inputs[row_terminal(i + 1)] = ins
    for j, x in enumerate(masks):
        ins = [e for i, e in enumerate(bottlenecks) if x >> i & 1]
        ins += [s for i, s in enumerate(rows) if not x >> i & 1]
        ins += [s for k, (s, y) in enumerate(zip(cols, masks)) if k != j and not x & y]
        inputs[col_terminal(j + 1)] = ins
    return inputs


@dataclass(frozen=True)
class SumNetwork:
    """The sum-network of a (0,1)-matrix at multiplicity alpha; immutable."""

    matrix: IntMatrix
    alpha: int

    @property
    def r(self) -> int:
        return self.matrix.rows

    @property
    def c(self) -> int:
        return self.matrix.cols

    def sources(self) -> list[str]:
        return ([row_source(i) for i in range(1, self.r + 1)]
                + [col_source(j) for j in range(1, self.c + 1)])

    def terminals(self) -> list[str]:
        return ([row_terminal(i) for i in range(1, self.r + 1)]
                + [col_terminal(j) for j in range(1, self.c + 1)])

    @cached_property
    def inputs(self) -> dict[str, list[str]]:
        """Every terminal's inputs in the fixed decoder order (``terminal_inputs``)."""
        return terminal_inputs(self.matrix)

    @cached_property
    def nodes(self) -> tuple[tuple[str, str], ...]:
        """(node id, role) in canonical order: sources, relay pairs, terminals."""
        relays = [(f"{end}_e{i}", "relay")
                  for i in range(1, self.r + 1) for end in ("tail", "head")]
        return (*((s, "source") for s in self.sources()), *relays,
                *((t, "terminal") for t in self.terminals()))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Bottlenecks, then the edges into and out of them, then the direct edges."""
        a, alpha, rows = self.matrix, self.alpha, range(1, self.r + 1)
        edges = [Edge(f"tail_e{i}", f"head_e{i}", alpha, i) for i in rows]
        edges += [Edge(s, f"tail_e{i}", alpha, 0) for i in rows for s in bottleneck_sources(a, i)]
        for i in rows:
            edges.append(Edge(f"head_e{i}", row_terminal(i), alpha, 0))
            edges += [Edge(f"head_e{i}", col_terminal(j), alpha, 0)
                      for j in range(1, self.c + 1) if a.at(i - 1, j - 1)]
        # Direct edges: every input of a terminal's decoder that is not a bottleneck.
        for terminal, labels in self.inputs.items():
            edges += [Edge(x, terminal, alpha, 0) for x in labels if not x.startswith("e")]
        return tuple(edges)


def require_nonzero_lines(a: IntMatrix) -> None:
    """Refuse a matrix with an all-zero row or column.

    Such a line would create a source and terminal pair with no bottleneck
    path, which none of the capacity results cover.  Networks and codes
    refuse it alike, before anything is built.
    """
    if a.nonzero_count() == 0:
        raise ValueError("matrix must be nonzero")
    for i in range(a.rows):
        if all(x == 0 for x in a.row(i)):
            raise ValueError(f"row {i + 1} is all zero")
    for j in range(a.cols):
        if all(x == 0 for x in a.col(j)):
            raise ValueError(f"column {j + 1} is all zero")


def build_sum_network(a: IntMatrix, alpha: int = 1) -> SumNetwork:
    """The sum-network of a (0,1)-matrix with no all-zero line."""
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    if not a.is_zero_one():
        raise ValueError("matrix entries must be 0 or 1")
    require_nonzero_lines(a)
    return SumNetwork(a, alpha)


def min_cut(net: SumNetwork, source: str, terminal: str) -> int:
    """Value of the minimum edge cut (= max flow), counting multiplicities."""
    roles = dict(net.nodes)
    if roles[source] != "source":
        raise ValueError(f"{source} is not a source")
    if roles[terminal] != "terminal":
        raise ValueError(f"{terminal} is not a terminal")
    index = {n: k for k, n in enumerate(roles)}
    arcs = [(index[e.tail], index[e.head], e.mult) for e in net.edges]
    flow, _ = _max_flow(len(index), arcs, index[source], index[terminal])
    return flow


def _max_flow(
    nv: int, arcs: Sequence[tuple[int, int, int]], s: int, t: int
) -> tuple[int, list[int]]:
    """Integral max-flow from s to t over arcs (tail, head, capacity).

    Edmonds-Karp: augments along BFS-shortest paths, scanning each node's
    arcs in the order given, so the flow found is deterministic.  Returns
    the flow value and the flow carried by each arc.
    """
    adj: list[list[int]] = [[] for _ in range(nv)]
    to: list[int] = []
    cap: list[int] = []
    for u, v, c in arcs:
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
    flow = 0
    while True:
        parent = [-1] * nv
        parent[s] = -2
        queue = deque([s])
        while queue and parent[t] == -1:
            u = queue.popleft()
            for ei in adj[u]:
                v = to[ei]
                if parent[v] == -1 and cap[ei] > 0:
                    parent[v] = ei
                    queue.append(v)
        if parent[t] == -1:
            return flow, [cap[2 * k + 1] for k in range(len(arcs))]
        path = []
        v = t
        while v != s:
            path.append(parent[v])
            v = to[parent[v] ^ 1]
        push = min(cap[ei] for ei in path)
        for ei in path:
            cap[ei] -= push
            cap[ei ^ 1] += push
        flow += push


# ---------------------------------------------------------------------------
# graph text format: a fixed DOT subset defined by export_graph alone; import requires
# the file, up to blank lines and indentation, to equal the export of the network it rebuilds


def export_graph(net: SumNetwork) -> str:
    lines = ["digraph sum_network {"]
    lines.append(f"  graph [rows={net.r} cols={net.c} alpha={net.alpha}];")
    for n, role in net.nodes:
        lines.append(f"  {n} [role={role}];")
    for e in net.edges:
        attrs = f"mult={e.mult}"
        if e.bottleneck:
            attrs += f" bottleneck={e.bottleneck}"
        lines.append(f"  {e.tail} -> {e.head} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


_HEADER = re.compile(r"graph \[rows=(\d+) cols=(\d+) alpha=(\d+)\];")
_INCIDENCE = re.compile(r"s_B(\d+) -> tail_e(\d+) \[")


def import_graph(text: str) -> SumNetwork:
    """Rebuild the network an ``export_graph`` file describes.

    The shape and alpha come from the ``graph [...]`` line, the incidence
    pattern from the ``s_B<j> -> tail_e<i>`` edges.  The file's stripped
    non-blank lines must equal the export of the rebuilt network, which
    rejects files that do not describe a genuine construction output.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    header = next(filter(None, map(_HEADER.fullmatch, lines)), None)
    if header is None:
        raise ValueError("missing graph attribute line")
    rows, cols, alpha = map(int, header.groups())
    if rows + cols > len(lines):  # an export lists at least one line per row and column
        raise ValueError("file does not describe a constructed sum-network")
    cells = set()
    for line in lines:
        if hit := _INCIDENCE.match(line):
            cells.add((int(hit[2]), int(hit[1])))
    a = IntMatrix.from_rows([[int((i, j) in cells) for j in range(1, cols + 1)]
                             for i in range(1, rows + 1)])
    net = build_sum_network(a, alpha)
    if [line.strip() for line in export_graph(net).splitlines()] != lines:
        raise ValueError("file does not describe a constructed sum-network")
    return net
