"""Linear network codes for constructed sum-networks.

Three constructions are implemented, each returning explicit encoder and
decoder matrices over GF(p):

* ``build_transfer_code`` -- the (r, r+c) vector code.  Each bottleneck
  carries the partial sum of its incident messages in its first r symbols
  and ferries uncoded pieces of the column messages in the remaining c,
  allocated by a nonnegative integral *transfer matrix* supported on A
  with row sums c and column sums r.  Applies when A^T A minus its
  support indicator is diagonal mod p with no zero diagonal entry.
  Exclusive cumulative sums of that matrix lay the pieces out: down a
  column they give a piece's message coordinate, across a row its slot.
* ``build_scalar_code`` -- the (1, 1) code, applicable when A^T A is
  congruent to its support indicator mod p.
* ``build_graph_transpose_code`` -- the (b', b'+v') code for the
  transposed network of an irregular graph, where P' collects vertices
  with degree not congruent to 1 and B' the edges meeting them.  It is
  the transfer construction restricted to the B' x P' block: only the
  bottlenecks of B' ferry pieces, and only of the P' messages.

``lift_code`` spreads a base code over alpha parallel edges per link,
multiplying the rate by alpha.

Every matrix entry lies in [0, p), so ``verify_exact`` can reduce each
terminal's composite once: its unreduced sum stays within (p-1)^2 times
the decoder's width, the quantity the verifiers' int64 limit bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .bounds import graph_transpose_sets
from .gf import IntMatrix, PrimeField, column_masks, residue_rows
from .incidence import IncidenceStructure
from .network import (
    _max_flow,
    bottleneck_sources,
    col_source,
    col_terminal,
    require_nonzero_lines,
    source_offset,
    terminal_inputs,
)

__all__ = [
    "NetworkCode",
    "Decoder",
    "NoApplicableCode",
    "OverlapResidue",
    "overlap_residue",
    "find_transfer_matrix",
    "find_margin_matrix",
    "check_transfer_matrix",
    "build_transfer_code",
    "build_scalar_code",
    "build_graph_transpose_code",
    "lift_code",
    "export_code",
    "import_code",
]


class NoApplicableCode(Exception):
    """No construction in this package applies; the message names the failed condition."""


@dataclass(frozen=True, eq=False)
class Decoder:
    """A terminal's decoding map.

    ``inputs`` lists the incoming bundles in the network's fixed order:
    ``e<i>`` for bottlenecks, else the direct edge's source node.  The
    matrix has shape (m, alpha*n*len(inputs)) and acts on the
    concatenated bundle values.
    """

    inputs: tuple[str, ...]
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class NetworkCode:
    """An (m, n) linear code over GF(p) for the network of an r x c matrix.

    Encoders map the stacked message vector (row messages then column
    messages, m symbols each) to the alpha*n symbols of a bottleneck
    bundle; parallel edge l of a bundle carries rows [l*n, (l+1)*n).  A
    direct-edge bundle carries message slice [l*m/alpha, (l+1)*m/alpha)
    of its source in the leading slots of parallel edge l.
    """

    m: int
    n: int
    p: int
    alpha: int
    rows: int
    cols: int
    encoders: tuple[np.ndarray, ...]  # one (alpha*n, m*(rows+cols)) array per bottleneck
    decoders: dict[str, Decoder] = field(repr=False)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.m, self.n)

    def rate_label(self) -> str:
        return f"{self.m}/{self.n}"


# ---------------------------------------------------------------------------
# overlap residue (encoder coefficient condition)


@dataclass(frozen=True)
class OverlapResidue:
    """A^T A minus its support indicator, reduced mod p.

    ``is_diagonal`` reports whether all off-diagonal residues vanish;
    ``diagonal`` holds the diagonal residues.  The transfer code needs a
    diagonal residue with every diagonal entry nonzero; the scalar code
    needs the residue to vanish entirely.
    """

    char: int
    is_diagonal: bool
    diagonal: tuple[int, ...]

    def all_nonzero(self) -> bool:
        return self.is_diagonal and all(x != 0 for x in self.diagonal)

    def is_zero(self) -> bool:
        return self.is_diagonal and all(x == 0 for x in self.diagonal)


def overlap_residue(a: IntMatrix, field: PrimeField) -> OverlapResidue:
    rows = residue_rows(column_masks(a), field.p)
    diag = tuple([row.get(j, 0) for j, row in enumerate(rows)])
    return OverlapResidue(field.p, all(row.keys() <= {j} for j, row in enumerate(rows)), diag)


# ---------------------------------------------------------------------------
# transfer matrices


def find_margin_matrix(
    support: IntMatrix, row_total: int, col_total: int
) -> Optional[IntMatrix]:
    """Nonnegative integral matrix on the given support with prescribed margins.

    Every row must sum to ``row_total`` and every column to ``col_total``
    (so ``rows*row_total == cols*col_total`` is required).  Solved as an
    integral max-flow on the bipartite row/column graph, augmenting along
    BFS-shortest paths with rows and columns scanned in ascending order,
    so the result is deterministic.  Returns None when no such matrix
    exists.
    """
    r, c = support.rows, support.cols
    if r * row_total != c * col_total:
        return None
    # Nodes: 0 = source, 1..r rows, r+1..r+c columns, r+c+1 = sink.
    cells = [(i, j) for i in range(r) for j in range(c) if support.at(i, j)]
    inf = r * row_total + 1
    arcs = [(0, 1 + i, row_total) for i in range(r)]
    arcs += [(1 + i, r + 1 + j, inf) for i, j in cells]
    arcs += [(r + 1 + j, r + c + 1, col_total) for j in range(c)]
    flow, carried = _max_flow(r + c + 2, arcs, 0, r + c + 1)
    if flow != r * row_total:
        return None
    entries = [0] * (r * c)
    for (i, j), x in zip(cells, carried[r:]):
        entries[i * c + j] = x
    return IntMatrix(r, c, tuple(entries))


def find_transfer_matrix(a: IntMatrix) -> Optional[IntMatrix]:
    """Transfer matrix for A: support inside A, row sums c, column sums r."""
    if not a.is_zero_one():
        raise ValueError("expected a (0,1)-matrix")
    return find_margin_matrix(a, a.cols, a.rows)


def check_transfer_matrix(
    d: IntMatrix, a: IntMatrix, row_total: Optional[int] = None, col_total: Optional[int] = None
) -> None:
    """Validate a transfer matrix against its support and margins; raise on failure."""
    if (d.rows, d.cols) != (a.rows, a.cols):
        raise ValueError("shape mismatch")
    row_total = a.cols if row_total is None else row_total
    col_total = a.rows if col_total is None else col_total
    for i in range(d.rows):
        for j in range(d.cols):
            x = d.at(i, j)
            if x < 0:
                raise ValueError(f"negative entry at ({i + 1},{j + 1})")
            if x and not a.at(i, j):
                raise ValueError(f"entry at ({i + 1},{j + 1}) outside the support")
    for i in range(d.rows):
        if sum(d.row(i)) != row_total:
            raise ValueError(f"row {i + 1} sums to {sum(d.row(i))}, want {row_total}")
    for j in range(d.cols):
        if sum(d.col(j)) != col_total:
            raise ValueError(f"column {j + 1} sums to {sum(d.col(j))}, want {col_total}")


# ---------------------------------------------------------------------------
# shared encoder/decoder assembly helpers


def _partial_sum_encoder(a: IntMatrix, i: int, m: int, n: int) -> np.ndarray:
    """Encoder of bottleneck e<i> with its partial-sum block written: the
    identity on the message of every source feeding it, in components 0..m-1."""
    enc = np.zeros((n, m * (a.rows + a.cols)), dtype=np.int64)
    for label in bottleneck_sources(a, i):
        off = source_offset(a.rows, m, label)
        enc[:m, off : off + m] = np.eye(m, dtype=np.int64)
    return enc


def _sum_decoders(a: IntMatrix, m: int, n: int) -> dict[str, Decoder]:
    """Every terminal's decoder, adding the first m components of each input bundle."""
    block = np.eye(m, n, dtype=np.int64)
    return {
        t: Decoder(tuple(ins), np.tile(block, len(ins))) for t, ins in terminal_inputs(a).items()
    }


# ---------------------------------------------------------------------------
# the three constructions


def _assemble_transfer(
    a: IntMatrix, p: int, row_ids: Sequence[int], col_ids: Sequence[int], d: IntMatrix,
    mu: Sequence[int],
) -> NetworkCode:
    """The partial-sum + transfer code whose rows ``row_ids`` ferry pieces of the
    ``col_ids`` messages as margin matrix ``d`` allocates.  Column j's message
    sits mu[j-1] extra times in the partial sums at its terminal: the decoder
    weights its pieces by -mu[j-1], and a column off the block needs mu = 0 mod p.

    Cell (ri, cj) of ``d`` is the length of the piece of column col_ids[cj]'s
    message that row row_ids[ri] ferries.  The exclusive cumulative sum of ``d``
    down column cj is the piece's message coordinate; m plus the one across
    row ri is its slot in that row's bundle.
    """
    if p >= 1 << 63:
        raise ValueError(
            f"characteristic p={p} is too large for int64 code matrices: "
            "decoder coefficients mod p must stay below 2^63"
        )
    r, c = a.rows, a.cols
    m, n = len(row_ids), len(row_ids) + len(col_ids)
    assert all(mu[j - 1] % p == 0 for j in range(1, c + 1) if j not in col_ids)
    lengths = np.array(d.entries, dtype=np.int64).reshape(d.rows, d.cols)
    starts = np.cumsum(lengths, axis=0) - lengths
    slots = m + np.cumsum(lengths, axis=1) - lengths
    encoders = [_partial_sum_encoder(a, i, m, n) for i in range(1, r + 1)]
    decoders = _sum_decoders(a, m, n)
    for ri, cj in zip(*np.nonzero(lengths)):
        i, j = row_ids[ri], col_ids[cj]
        length, start, slot = lengths[ri, cj], starts[ri, cj], slots[ri, cj]
        piece = np.eye(length, dtype=np.int64)
        off = source_offset(r, m, col_source(j)) + start
        encoders[i - 1][slot : slot + length, off : off + length] = piece
        dec = decoders[col_terminal(j)]
        base = dec.inputs.index(f"e{i}") * n + slot
        dec.matrix[start : start + length, base : base + length] = piece * (-mu[j - 1] % p)
    return NetworkCode(m, n, p, 1, r, c, tuple(encoders), decoders)


def build_transfer_code(a: IntMatrix, field: PrimeField) -> NetworkCode:
    """The (r, r+c) partial-sum + piecewise-transfer code.

    Raises ``NoApplicableCode`` naming the failed condition: either the
    overlap residue is not diagonal with nonzero diagonal mod p, or no
    transfer matrix exists on the support of A.
    """
    require_nonzero_lines(a)
    r, c = a.rows, a.cols
    p = field.p
    residue = overlap_residue(a, field)
    if not residue.is_diagonal:
        raise NoApplicableCode(
            "encoder coefficient condition failed: overlap residue has a "
            f"nonzero off-diagonal entry mod {p}"
        )
    if not residue.all_nonzero():
        zeros = [j + 1 for j, x in enumerate(residue.diagonal) if x == 0]
        raise NoApplicableCode(
            "encoder coefficient condition failed: zero diagonal residue mod "
            f"{p} at column(s) {zeros}"
        )
    d = find_transfer_matrix(a)
    if d is None:
        raise NoApplicableCode(
            "no nonnegative integral transfer matrix with row sums "
            f"{c} and column sums {r} exists on the support of A"
        )
    check_transfer_matrix(d, a)
    return _assemble_transfer(a, p, range(1, r + 1), range(1, c + 1), d, residue.diagonal)


def build_scalar_code(a: IntMatrix, field: PrimeField) -> NetworkCode:
    """The rate-1 scalar code, applicable when the overlap residue vanishes."""
    require_nonzero_lines(a)
    residue = overlap_residue(a, field)
    if not residue.is_zero():
        raise NoApplicableCode(
            "scalar code condition failed: A^T A is not congruent to its "
            f"support indicator mod {field.p}"
        )
    r, c = a.rows, a.cols
    p = field.p
    m = n = 1
    encoders = [_partial_sum_encoder(a, i, 1, 1) for i in range(1, r + 1)]
    decoders = _sum_decoders(a, 1, 1)
    return NetworkCode(m, n, p, 1, r, c, tuple(encoders), decoders)


def build_graph_transpose_code(
    graph: IncidenceStructure, field: PrimeField
) -> NetworkCode:
    """The (b', b'+v') code for the transposed network of a graph.

    This is the transfer construction on the B' x P' block.  Bottlenecks
    correspond to edges of the graph; every bottleneck carries the partial
    sum of its edge message and endpoint messages, and the bottlenecks of
    B' additionally ferry the messages of the P' vertices in pieces
    allocated by a margin matrix on the B' x P' submatrix.
    """
    p = field.p
    p_prime, b_prime = graph_transpose_sets(graph, field)
    if not p_prime:
        raise NoApplicableCode(
            f"every vertex degree is 1 mod {p}: the scalar code applies instead"
        )
    a = graph.matrix.transpose()  # rows = edges (blocks), cols = vertices
    vprime, bprime = len(p_prime), len(b_prime)
    sub = a.submatrix([i - 1 for i in b_prime], [j - 1 for j in p_prime])
    d = find_margin_matrix(sub, vprime, bprime)
    if d is None:
        raise NoApplicableCode(
            f"no margin matrix with row sums {vprime} and column sums {bprime} "
            "exists on the B' x P' submatrix"
        )
    check_transfer_matrix(d, sub, row_total=vprime, col_total=bprime)
    # Vertex j's message sits deg(j) - 1 extra times in its partial sums.
    mu = [graph.point_degree(v) - 1 for v in range(1, graph.num_points + 1)]
    return _assemble_transfer(a, p, b_prime, p_prime, d, mu)


# ---------------------------------------------------------------------------
# alpha lift


def _interleave(mat: np.ndarray, row_unit: int, col_unit: int, alpha: int) -> np.ndarray:
    """Block-diagonal lift: copy l acts on round l of every block."""
    rblocks, cblocks = mat.shape[0] // row_unit, mat.shape[1] // col_unit
    out = np.zeros((rblocks, alpha, row_unit, cblocks, alpha, col_unit), dtype=np.int64)
    rounds = np.arange(alpha)
    # Both round axes take the same index, so round l of a row block meets
    # only round l of a column block; the base blocks broadcast over l.
    out[:, rounds, :, :, rounds, :] = mat.reshape(rblocks, row_unit, cblocks, col_unit)
    return out.reshape(rblocks * alpha * row_unit, cblocks * alpha * col_unit)


def lift_code(code: NetworkCode, alpha: int) -> NetworkCode:
    """Spread a base code over alpha parallel edges per link.

    The lifted code is (alpha*m, n): alpha independent rounds of the base
    code run side by side, with round l of every bundle riding parallel
    edge l.  For alpha = 1 this is the identity.
    """
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    if code.alpha != 1:
        raise ValueError("lift expects a base code built for alpha = 1")
    if alpha == 1:
        return code
    encoders = tuple(
        _interleave(enc, code.n, code.m, alpha) for enc in code.encoders
    )
    decoders = {
        t: Decoder(d.inputs, _interleave(d.matrix, code.m, code.n, alpha))
        for t, d in code.decoders.items()
    }
    return NetworkCode(
        code.m * alpha, code.n, code.p, alpha, code.rows, code.cols, encoders, decoders
    )


# ---------------------------------------------------------------------------
# code file format


def export_code(code: NetworkCode) -> str:
    lines = [
        "sumnet-code v1",
        f"m {code.m}",
        f"n {code.n}",
        f"p {code.p}",
        f"alpha {code.alpha}",
        f"rows {code.rows}",
        f"cols {code.cols}",
    ]
    for i, enc in enumerate(code.encoders, start=1):
        lines.append(f"encoder e{i}")
        lines.extend(" ".join(map(str, row)) for row in enc.tolist())
    for t in sorted(code.decoders):
        dec = code.decoders[t]
        lines.append(f"decoder {t}")
        lines.append("inputs " + " ".join(dec.inputs))
        lines.extend(" ".join(map(str, row)) for row in dec.matrix.tolist())
    lines.append("end")
    return "\n".join(lines) + "\n"


def _parse_matrix(lines: Sequence[str], name: str) -> np.ndarray:
    """Integer rows of a code matrix.  Entries outside [0, 2^63) cannot be held
    by an int64 matrix and are refused here; the verifiers refuse those >= p."""
    rows = [list(map(int, line.split())) for line in lines]
    if any(min(row, default=0) < 0 or max(row, default=0) >= 1 << 63 for row in rows):
        raise ValueError(f"{name} has an entry outside [0, 2^63)")
    return np.array(rows, dtype=np.int64)


def import_code(text: str) -> NetworkCode:
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "sumnet-code v1":
        raise ValueError("not a code file")
    if lines[-1] != "end":
        raise ValueError("truncated code file")
    header = []
    for pos, key in enumerate(("m", "n", "p", "alpha", "rows", "cols"), start=1):
        words = lines[pos].split()
        if len(words) != 2 or words[0] != key:
            raise ValueError(f"expected header key {key!r} at line {pos + 1}")
        header.append(int(words[1]))
    m, n, p, alpha, rows, cols = header
    pos = 1 + len(header)
    width = m * (rows + cols)
    encoders = []
    for i in range(1, rows + 1):
        if lines[pos] != f"encoder e{i}":
            raise ValueError(f"expected encoder e{i} at line {pos + 1}")
        pos += 1
        arr = _parse_matrix(lines[pos : pos + alpha * n], f"encoder e{i}")
        pos += alpha * n
        if arr.shape != (alpha * n, width):
            raise ValueError(f"encoder e{i} has shape {arr.shape}")
        encoders.append(arr)
    decoders: dict[str, Decoder] = {}
    while lines[pos] != "end":
        if not lines[pos].startswith("decoder "):
            raise ValueError(f"unexpected line {lines[pos]!r}")
        terminal = lines[pos].split()[1]
        pos += 1
        if not lines[pos].startswith("inputs "):
            raise ValueError("decoder without inputs line")
        inputs = tuple(lines[pos].split()[1:])
        pos += 1
        arr = _parse_matrix(lines[pos : pos + m], f"decoder {terminal}")
        pos += m
        if arr.shape != (m, alpha * n * len(inputs)):
            raise ValueError(f"decoder {terminal} has shape {arr.shape}")
        decoders[terminal] = Decoder(inputs, arr)
    return NetworkCode(m, n, p, alpha, rows, cols, tuple(encoders), decoders)
