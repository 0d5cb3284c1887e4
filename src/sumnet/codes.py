"""Linear network codes for constructed sum-networks.

One construction builds every code, as explicit encoder and decoder
matrices over GF(p).  ``build_transfer_code`` applies when the overlap
residue, A^T A minus its support indicator, is diagonal mod p.  P' collects
the columns whose diagonal residue is nonzero and B' the rows that meet
them.  Each bottleneck carries the partial sum of its incident messages in
its first |B'| symbols; those of B' ferry uncoded pieces of the P' messages
in the remaining |P'|, allocated by a nonnegative integral margin matrix on
B' x P' with row sums |P'| and column sums |B'|.  Exclusive cumulative sums
of that matrix lay the pieces out: down a column they give a piece's
message coordinate, across a row its slot.  Three cases have names:

* transfer -- P' is every column: the (r, r+c) code, whose margin matrix
  is a *transfer matrix* on the support of A;
* scalar -- P' is empty: the (1, 1) code, partial sums alone on a block
  of one row and no columns;
* graph-transpose -- the transposed network of a graph: the (b', b'+v')
  code, P' being the vertices of degree not congruent to 1 mod p.

``build_scalar_code`` and ``build_graph_transpose_code`` check their
case's condition, then call ``build_transfer_code``.

``lift_code`` spreads a base code over alpha parallel edges per link,
multiplying the rate by alpha.  Both the assembly and the lift refuse a
code whose dense matrices would exceed ``MAX_DENSE_ENTRIES`` before they
allocate any of them.

Every matrix entry lies in [0, p), so ``verify_exact`` can reduce each
terminal's composite once: its unreduced sum stays within (p-1)^2 times
the decoder's width, the quantity the verifiers' int64 limit bounds.  The
assembly stores its matrices in the narrowest of int8, int16, int32 and
int64 that holds p - 1, int8 for the scalar code at any p; ``lift_code``
keeps the type, and the verifiers read every entry as int64.

``export_code`` alone defines the code file format: the header, then each
matrix under its labels, each rendered to text in one vectorised numpy pass
per digit position, then ``end``.  ``import_code`` requires the export of the
code it reads, up to blank lines and trailing spaces, and checks the file
against that export section by section, so it holds one matrix's text at a
time.  Its entries lie in [0, 2^63 - 1): a code's lie below p <= 2^63 - 25,
the largest prime below 2^63, and ``np.fromstring`` reads every larger value
as 2^63 - 1.  Each matrix is stored in the narrowest of int8, int16, int32 and
int64 that holds its own largest entry, so an imported code may mix types.
The type follows the entry, not p: no entry wraps, and one of p or more
keeps its value and reaches the verifiers' range refusal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, zip_longest
from typing import Iterator, Optional, Sequence

import numpy as np

from .bounds import graph_transpose_sets
from .gf import IntMatrix, PrimeField, residue_rows
from .incidence import IncidenceStructure
from .network import (
    _max_flow,
    col_terminal,
    feeding_columns,
    require_nonzero_lines,
    terminal_inputs,
)

__all__ = [
    "NetworkCode",
    "Decoder",
    "NoApplicableCode",
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

    Encoders map the stacked message vector to the alpha*n symbols of a
    bottleneck bundle; source k of the network owns coordinates [k*m,
    (k+1)*m) of that vector, the layout stated in the ``sumnet.network``
    docstring.  Parallel edge l of a bundle carries rows [l*n, (l+1)*n).  A
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


def overlap_residue(a: IntMatrix, field: PrimeField) -> Optional[tuple[int, ...]]:
    """The diagonal of A^T A minus its support indicator, reduced mod p.

    Returns None when an off-diagonal entry is nonzero mod p: the code
    needs a diagonal residue, and builds on the columns whose diagonal
    entry is nonzero.
    """
    rows = residue_rows(a, field.p)
    if not all(row.keys() <= {j} for j, row in enumerate(rows)):
        return None
    return tuple([row.get(j, 0) for j, row in enumerate(rows)])


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
# the construction


# The most entries a code's encoders and decoders may hold together: 256 MiB
# to 2 GiB dense, from int8 to int64 entries as p grows.  sts-31 holds
# 191,615,712 and is built; sts-37 (617,662,682), which died in numpy's
# allocator under a 4 GB address-space cap as int64, is refused.
MAX_DENSE_ENTRIES = 1 << 28

# The signed types a code's matrices may take, narrowest first.  Signed only:
# numpy turns a uint64 x int64 product into float64.
_ENTRY_TYPES = (np.int8, np.int16, np.int32, np.int64)


def _entry_type(top: int):
    """The first of ``_ENTRY_TYPES`` whose maximum is at least ``top``, or None."""
    return next((t for t in _ENTRY_TYPES if np.iinfo(t).max >= top), None)


def _require_dense_fits(m: int, n: int, rows: int, cols: int, inputs: Sequence[int]) -> None:
    """Refuse a code whose dense matrices would hold more than MAX_DENSE_ENTRIES entries.

    Each of the ``rows`` encoders is n x m*(rows+cols), and a terminal with
    k inputs has an m x n*k decoder; for a code lifted to alpha, m and n
    are alpha times the base code's.
    """
    entries = m * n * (rows * (rows + cols) + sum(inputs))
    if entries > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"the code would hold {entries} dense int64 entries, "
            f"above the limit of {MAX_DENSE_ENTRIES}"
        )


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
    row ri is its slot in that row's bundle.  Every matrix takes the narrowest
    of ``_ENTRY_TYPES`` that holds the largest entry it may get: p - 1 for a
    weighted piece's -mu mod p, and 1 for an empty block, which writes
    entries 0 and 1 alone.
    """
    r, c = a.rows, a.cols
    m, n = len(row_ids), len(row_ids) + len(col_ids)
    assert all(mu[j - 1] % p == 0 for j in range(1, c + 1) if j not in col_ids)
    lengths = np.array(d.entries, dtype=np.int64).reshape(d.rows, d.cols)
    top = p - 1 if lengths.any() else 1
    dtype = _entry_type(top)
    if dtype is None:
        raise ValueError(
            f"characteristic p={p} is too large for int64 code matrices: "
            "decoder coefficients mod p must stay below 2^63"
        )
    starts = np.cumsum(lengths, axis=0) - lengths
    slots = m + np.cumsum(lengths, axis=1) - lengths
    inputs = terminal_inputs(a)
    _require_dense_fits(m, n, r, c, [len(ins) for ins in inputs.values()])
    # Partial sums: each bottleneck's first m components add the messages of
    # the sources feeding it, and each decoder adds those of its inputs.
    encoders = [np.zeros((n, m * (r + c)), dtype=dtype) for _ in range(r)]
    for i, enc in enumerate(encoders, start=1):
        cols = feeding_columns(a, i, m)
        enc[np.arange(len(cols)) % m, cols] = 1
    block = np.eye(m, n, dtype=dtype)
    decoders = {
        t: Decoder(tuple(ins), np.tile(block, len(ins))) for t, ins in inputs.items()
    }
    for ri, cj in zip(*np.nonzero(lengths)):
        i, j = row_ids[ri], col_ids[cj]
        length, start, slot = lengths[ri, cj], starts[ri, cj], slots[ri, cj]
        piece = np.eye(length, dtype=dtype)
        off = (r + j - 1) * m + start
        encoders[i - 1][slot : slot + length, off : off + length] = piece
        dec = decoders[col_terminal(j)]
        base = dec.inputs.index(f"e{i}") * n + slot
        dec.matrix[start : start + length, base : base + length] = piece * (-mu[j - 1] % p)
    return NetworkCode(m, n, p, 1, r, c, tuple(encoders), decoders)


def build_transfer_code(a: IntMatrix, field: PrimeField) -> NetworkCode:
    """The partial-sum + transfer code on B' x P', as the module docstring describes.

    Raises ``NoApplicableCode`` naming the failed condition: either the
    overlap residue is not diagonal mod p, or no margin matrix exists on
    B' x P', a transfer matrix on the support of A when P' is every column.
    """
    require_nonzero_lines(a)
    p = field.p
    mu = overlap_residue(a, field)
    if mu is None:
        raise NoApplicableCode(
            "encoder coefficient condition failed: overlap residue has a "
            f"nonzero off-diagonal entry mod {p}"
        )
    in_p = [x != 0 for x in mu]
    cols = list(compress(range(a.cols), in_p))  # P', 0-based
    # B', the rows meeting P'; one row, the scalar code's block, when P' is empty.
    rows = [i for i in range(a.rows) if any(compress(a.row(i), in_p))] or [0]
    full = len(cols) == a.cols
    sub = a if full else a.submatrix(rows, cols)
    d = find_margin_matrix(sub, len(cols), len(rows))
    if d is None and full:
        raise NoApplicableCode(
            "no nonnegative integral transfer matrix with row sums "
            f"{a.cols} and column sums {a.rows} exists on the support of A"
        )
    if d is None:
        raise NoApplicableCode(
            f"no margin matrix with row sums {len(cols)} and column sums {len(rows)} "
            "exists on the B' x P' submatrix"
        )
    check_transfer_matrix(d, sub, row_total=len(cols), col_total=len(rows))
    row_ids, col_ids = [i + 1 for i in rows], [j + 1 for j in cols]
    return _assemble_transfer(a, p, row_ids, col_ids, d, mu)


def build_scalar_code(a: IntMatrix, field: PrimeField) -> NetworkCode:
    """The rate-1 scalar code, applicable when the overlap residue vanishes."""
    require_nonzero_lines(a)
    mu = overlap_residue(a, field)
    if mu is None or any(mu):
        raise NoApplicableCode(
            "scalar code condition failed: A^T A is not congruent to its "
            f"support indicator mod {field.p}"
        )
    return build_transfer_code(a, field)


def build_graph_transpose_code(
    graph: IncidenceStructure, field: PrimeField
) -> NetworkCode:
    """The (b', b'+v') code for the transposed network of a graph.

    Vertex j's overlap residue is deg(j) - 1, so P' collects the vertices
    of degree not congruent to 1 mod p and B' the edges meeting them, and
    this is ``build_transfer_code`` on the graph's transpose.
    """
    p_prime, _ = graph_transpose_sets(graph, field)
    if not p_prime:
        raise NoApplicableCode(
            f"every vertex degree is 1 mod {field.p}: the scalar code applies instead"
        )
    return build_transfer_code(graph.matrix.transpose(), field)


# ---------------------------------------------------------------------------
# alpha lift


def _interleave(mat: np.ndarray, row_unit: int, col_unit: int, alpha: int) -> np.ndarray:
    """Block-diagonal lift, in the input's type: copy l acts on round l of every block."""
    rblocks, cblocks = mat.shape[0] // row_unit, mat.shape[1] // col_unit
    out = np.zeros((rblocks, alpha, row_unit, cblocks, alpha, col_unit), dtype=mat.dtype)
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
    ins = [len(d.inputs) for d in code.decoders.values()]
    _require_dense_fits(alpha * code.m, alpha * code.n, code.rows, code.cols, ins)
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


_HEADER = ("m", "n", "p", "alpha", "rows", "cols")
_POWERS = 10 ** np.arange(1, 19, dtype=np.uint64)  # 10 .. 10^18; |int64| <= 2^63 < 10^19
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)


def _render(matrix: np.ndarray) -> bytes:
    """A matrix's rows as ``" ".join(map(str, row)) + "\\n"`` for any signed integer entries.

    Every entry starts as the text "0" and its separator, a newline at the
    end of a row.  A nonzero entry is widened by its sign and its digits
    beyond the first; then the signs, and the digits one pass per digit
    position, least significant first, are scattered in.
    """
    rows, cols = matrix.shape
    if not matrix.size:
        return b"\n" * rows
    flat = matrix.ravel()
    nonzero = np.flatnonzero(flat)
    negative = flat[nonzero] < 0
    mag = flat[nonzero].astype(np.uint64)
    np.negative(mag, out=mag, where=negative)  # in uint64, so |-2^63| = 2^63
    extra = negative.astype(np.int64)  # each nonzero entry's width beyond one digit
    for power in _POWERS:
        longer = mag >= power
        if not longer.any():
            break
        extra += longer
    text = np.full((rows, cols, 2), ord("0"), dtype=np.uint8)
    text[:, :, 1] = ord(" ")
    text[:, -1, 1] = ord("\n")
    out = np.insert(text.ravel(), np.repeat(2 * nonzero, extra), ord("0"))
    last = 2 * nonzero + np.cumsum(extra)  # the lowest digit of each nonzero entry
    out[(last - extra)[negative]] = ord("-")
    while mag.size:
        mag, digit = np.divmod(mag, np.uint64(10))
        out[last] = _DIGITS[digit]
        alive = np.flatnonzero(mag)
        mag, last = mag[alive], last[alive] - 1
    return out.tobytes()


def _sections(code: NetworkCode) -> Iterator[str]:
    """A code's file in sections: the header, each matrix under its labels, then "end".

    The format's one definition, one matrix's text at a time.
    """
    yield "sumnet-code v1\n" + "".join(f"{key} {getattr(code, key)}\n" for key in _HEADER)
    for i, enc in enumerate(code.encoders, start=1):
        yield f"encoder e{i}\n" + _render(enc).decode("ascii")
    for t, dec in sorted(code.decoders.items()):
        labels = f"decoder {t}\ninputs {' '.join(dec.inputs)}\n"
        yield labels + _render(dec.matrix).decode("ascii")
    yield "end\n"


def export_code(code: NetworkCode) -> str:
    return "".join(_sections(code))


_ENTRIES = re.compile(" *[0-9][0-9 ]*")  # ASCII digits and spaces, one digit at least


def _parse_matrix(lines: Sequence[str], shape: tuple[int, int], name: str) -> np.ndarray:
    """A code matrix, in the narrowest of ``_ENTRY_TYPES`` that holds its largest
    entry so that none wraps; only rows of decimal digits and spaces reach numpy."""
    block = " ".join(lines)
    digits = _ENTRIES.fullmatch(block)
    entries = np.fromstring(block, dtype=np.int64, sep=" ") if digits else None
    top = int(entries.max()) if entries is not None else None
    if top is None or top >= (1 << 63) - 1:
        raise ValueError(f"{name} has an entry outside the decimal integers in [0, 2^63 - 1)")
    if entries.size != shape[0] * shape[1]:
        raise ValueError(f"{name} has {entries.size} entries, want {shape[0]} x {shape[1]}")
    return entries.astype(_entry_type(top), copy=False).reshape(shape)


def _first_difference(lines: Sequence[str], code: NetworkCode) -> Optional[int]:
    """Index of the first line that differs from the code's export, or None.

    The export is rendered and compared one section at a time.
    """
    pos = 0
    for section in _sections(code):
        got = lines[pos : pos + section.count("\n")]
        if "\n".join([*got, ""]) != section:
            pairs = zip_longest(got, section.splitlines())
            return pos + next(k for k, (line, want) in enumerate(pairs) if line != want)
        pos += len(got)
    return pos if pos < len(lines) else None


def import_code(text: str) -> NetworkCode:
    """The code whose export the file is, up to blank lines and trailing spaces."""
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "sumnet-code v1":
        raise ValueError("not a code file")
    if lines[-1] != "end":  # so every matrix parsed below ends before the last line
        raise ValueError("truncated code file")
    header = []
    for pos, key in enumerate(_HEADER, start=1):
        words = lines[pos].split()
        if len(words) != 2 or words[0] != key or not (words[1].isascii() and words[1].isdigit()):
            raise ValueError(f"expected header key {key!r} at line {pos + 1}")
        header.append(int(words[1]))
    m, n, p, alpha, rows, cols = header
    if min(m, n, alpha) < 1:
        raise ValueError(f"m, n and alpha must be at least 1, got {m}, {n} and {alpha}")
    pos = 1 + len(header)
    encoders = []
    for i in range(1, rows + 1):
        block = lines[pos + 1 : pos + 1 + alpha * n]
        encoders.append(_parse_matrix(block, (alpha * n, m * (rows + cols)), f"encoder e{i}"))
        pos += 1 + alpha * n
    decoders: dict[str, Decoder] = {}
    while lines[pos] != "end":
        words, inputs = lines[pos].split(), tuple(lines[pos + 1].split()[1:])
        terminal = words[1] if len(words) > 1 else ""
        shape, block = (m, alpha * n * len(inputs)), lines[pos + 2 : pos + 2 + m]
        decoders[terminal] = Decoder(inputs, _parse_matrix(block, shape, f"decoder {terminal}"))
        pos += 2 + m
    code = NetworkCode(m, n, p, alpha, rows, cols, tuple(encoders), decoders)
    k = _first_difference(lines, code)
    if k is not None:
        raise ValueError(f"line {k + 1} differs from the export of the code it describes")
    return code
