"""Shared literals and helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, islice, product
from typing import Callable

import numpy as np

from sumnet.bounds import bound_matrix
from sumnet.codes import Decoder, NetworkCode
from sumnet.gf import IntMatrix, PrimeField, column_masks
from sumnet.network import bottleneck_sources
from sumnet.verify import VerifyReport

# The exact 7x7 incidence matrix of the Fano plane, rows 1..7, columns A..G.
FANO_MATRIX = [
    [1, 0, 1, 1, 0, 0, 0],
    [1, 0, 0, 0, 1, 0, 1],
    [1, 1, 0, 0, 0, 1, 0],
    [0, 1, 0, 1, 0, 0, 1],
    [0, 1, 1, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 0],
]

# 4x5 incidence matrix of the irregular 4-vertex graph with edges
# A..E = {1,2},{2,3},{3,4},{1,4},{1,3}.
FIG4A_MATRIX = [
    [1, 0, 0, 1, 1],
    [1, 1, 0, 0, 0],
    [0, 1, 1, 0, 1],
    [0, 0, 1, 1, 0],
]

# A known-good transfer matrix for FIG4A_MATRIX (row sums 5, column sums 4).
FIG4A_TRANSFER = [
    [2, 0, 0, 2, 1],
    [2, 3, 0, 0, 0],
    [0, 1, 1, 0, 3],
    [0, 0, 3, 2, 0],
]

# The 10x10 bound matrix of the transposed 3-star-plus-edge graph, written
# out in full (rows: 4 edges then 6 vertices).
FIG3_TRANSPOSE_BOUND_MATRIX = [
    [1, 0, 0, 0, 1, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 1, 0, 1, 0, 0, 0],
    [0, 0, 1, 0, 1, 0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 1, 1],
    [1, 1, 1, 0, 1, 1, 1, 1, 0, 0],
    [1, 0, 0, 0, 1, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 1, 0, 1, 0, 0, 0],
    [0, 0, 1, 0, 1, 0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 1, 0, 0, 0, 0, 1, 1],
]

# Triangle plus a disjoint edge: 5 vertices, 4 edges.  No transfer matrix
# exists (rows {4,5} force column {4,5} to sum to 8, not 5).
TRIANGLE_PLUS_EDGE = [
    [1, 1, 0, 0],
    [1, 0, 1, 0],
    [0, 1, 1, 0],
    [0, 0, 0, 1],
    [0, 0, 0, 1],
]

# Two disjoint stars (hub degrees 2 and 1): the degree-1 rows {4,5} force
# their shared column to sum to 6, not 5, so no transfer matrix exists.
TWO_STARS = [
    [1, 1, 0],
    [1, 0, 0],
    [0, 1, 0],
    [0, 0, 1],
    [0, 0, 1],
]


def mat(rows) -> IntMatrix:
    return IntMatrix.from_rows(rows)


def random_01_matrix(rng: random.Random, max_r: int, max_c: int) -> IntMatrix:
    """A random (0,1)-matrix with no all-zero row or column."""
    while True:
        r = rng.randint(1, max_r)
        c = rng.randint(1, max_c)
        rows = [[rng.randint(0, 1) for _ in range(c)] for _ in range(r)]
        if all(any(row) for row in rows) and all(
            any(rows[i][j] for i in range(r)) for j in range(c)
        ):
            return IntMatrix.from_rows(rows)


def message_offsets(r: int, c: int, m: int) -> dict[str, int]:
    """Where each source's m-symbol message starts in the stacked vector.

    Written out independently of the package's index arithmetic: the row
    messages s_p1..s_pr first, then the column messages s_B1..s_Bc.
    """
    labels = [f"s_p{i}" for i in range(1, r + 1)] + [f"s_B{j}" for j in range(1, c + 1)]
    return {label: k * m for k, label in enumerate(labels)}


def codes_equal(a: NetworkCode, b: NetworkCode) -> bool:
    if (a.m, a.n, a.p, a.alpha, a.rows, a.cols) != (b.m, b.n, b.p, b.alpha, b.rows, b.cols):
        return False
    if len(a.encoders) != len(b.encoders):
        return False
    if any(not np.array_equal(x, y) for x, y in zip(a.encoders, b.encoders)):
        return False
    if set(a.decoders) != set(b.decoders):
        return False
    for t, da in a.decoders.items():
        db = b.decoders[t]
        if da.inputs != db.inputs or not np.array_equal(da.matrix, db.matrix):
            return False
    return True


def reference_export(code: NetworkCode) -> str:
    """``export_code``'s text written one Python string per entry.

    The header, then per bottleneck ``encoder e<i>`` and its rows, then per
    terminal in sorted order ``decoder <t>``, ``inputs ...`` and its rows,
    then ``end``; a row is ``" ".join(map(str, row))`` and every line ends
    with a newline.
    """
    lines = ["sumnet-code v1"]
    lines += [f"{key} {getattr(code, key)}" for key in ("m", "n", "p", "alpha", "rows", "cols")]
    sections = [([f"encoder e{i}"], enc) for i, enc in enumerate(code.encoders, start=1)]
    sections += [([f"decoder {t}", "inputs " + " ".join(dec.inputs)], dec.matrix)
                 for t, dec in sorted(code.decoders.items())]
    for labels, matrix in sections:
        lines += labels
        lines += [" ".join(map(str, row)) for row in matrix.tolist()]
    lines.append("end")
    return "\n".join(lines) + "\n"


def transfer_feasible_bruteforce(a: IntMatrix) -> bool:
    """Feasibility of the transfer matrix via the margin inequalities.

    With unlimited capacity on the support and zero off it, the inequality
    for a row set I and column set J is binding only when no support cell
    lies in I x J, where it reads (r-|I|)*c >= |J|*r.  For fixed I the
    largest such J is every column missing the support of I, and the
    right side grows with |J|, so checking that single J per I checks
    them all.  Enumeration oracle only; refuses beyond r+c = 24.
    """
    r, c = a.rows, a.cols
    if r + c > 24:
        raise ValueError(f"refusing enumeration: r+c = {r + c} exceeds 24")
    row_masks = column_masks(a.transpose())
    for imask in range(1 << r):
        touched = 0
        for i in range(r):
            if imask >> i & 1:
                touched |= row_masks[i]
        free_cols = c - touched.bit_count()
        if (r - imask.bit_count()) * c < free_cols * r:
            return False
    return True


_MASK = (1 << 64) - 1


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _symbol_stream(seed: int, p: int):
    state = seed & _MASK
    bound = (1 << 64) // p * p
    while True:
        state, z = _splitmix64(state)
        if z < bound:
            yield z % p


def reference_symbols(seed: int, p: int, count: int) -> list[int]:
    """The first ``count`` symbols of the stream seeded ``seed`` mod 2^64.

    SplitMix64 stepped one state at a time with Python integers; a 64-bit
    draw at or above floor(2^64/p)*p is discarded, the rest reduced mod p.
    """
    return list(islice(_symbol_stream(seed, p), count))


def reference_failures(net, code, messages) -> list:
    """(terminal, witness) for every terminal that misses the sum, one message
    vector at a time, in (message, terminal) order.

    Each bottleneck reads the message vector with every source that does not
    feed it zeroed; parallel direct edge l carries message slice l in its
    leading slots.  A witness maps source labels to their nonzero messages.
    """
    p, m, width = code.p, code.m, code.alpha * code.n
    sources = net.sources()
    offsets = message_offsets(net.r, net.c, m)
    masks = []
    for i in range(1, net.r + 1):
        mask = np.zeros(m * (net.r + net.c), dtype=bool)
        for label in bottleneck_sources(net.matrix, i):
            off = offsets[label]
            mask[off : off + m] = True
        masks.append(mask)
    slots = [ell * code.n + u for ell in range(code.alpha) for u in range(m // code.alpha)]
    failures = []
    for x in messages:
        want = x.reshape(net.r + net.c, m).sum(axis=0) % p
        values = {
            f"e{i}": enc @ np.where(mask, x, 0) % p
            for i, (enc, mask) in enumerate(zip(code.encoders, masks), start=1)
        }
        for label in sources:
            off = offsets[label]
            values[label] = np.zeros(width, dtype=np.int64)
            values[label][slots] = x[off : off + m]
        for terminal in net.terminals():
            dec = code.decoders[terminal]
            got = dec.matrix @ np.concatenate([values[k] for k in dec.inputs]) % p
            if not np.array_equal(got, want):
                witness = {}
                for idx, label in enumerate(sources):
                    vec = tuple(int(v) for v in x[idx * m : (idx + 1) * m])
                    if any(vec):
                        witness[label] = vec
                failures.append((terminal, witness))
    return failures


def reference_random(net, code, trials: int, seed: int) -> VerifyReport:
    """``verify_random``'s report, trial t drawing from the stream seeded seed + t."""
    dim = code.m * (net.r + net.c)
    messages = (
        np.array(reference_symbols(seed + t, code.p, dim), dtype=np.int64)
        for t in range(trials)
    )
    failures = reference_failures(net, code, messages)
    return VerifyReport("randomized", not failures, tuple(failures), trials, seed)


def reference_exhaustive(net, code) -> VerifyReport:
    """``exhaustive_oracle``'s report over every message tuple in lexicographic order."""
    dim = code.m * (net.r + net.c)
    messages = (np.array(tup, dtype=np.int64) for tup in product(range(code.p), repeat=dim))
    failures = reference_failures(net, code, messages)
    return VerifyReport("exhaustive", not failures, tuple(failures), code.p**dim)


# ---------------------------------------------------------------------------
# rank over GF(p) by dense elimination: the reference for the sparse echelon
# basis of ``bounds._extend``, the package's one elimination


def to_lists(m: IntMatrix) -> list[list[int]]:
    return [list(m.row(i)) for i in range(m.rows)]


def rank_mod_p(m: IntMatrix, field: PrimeField) -> int:
    """Rank of m over GF(p), entries reduced mod p.

    Deterministic Gaussian elimination: pivots are the first nonzero entry
    scanning columns left to right, rows top to bottom.
    """
    p = field.p
    work = [[x % p for x in row] for row in to_lists(m)]
    rank = 0
    for col in range(m.cols):
        pivot = next((r for r in range(rank, m.rows) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, p)
        prow = [(x * inv) % p for x in work[rank]]
        work[rank] = prow
        for r in range(rank + 1, m.rows):
            f = work[r][col]
            if f:
                work[r] = [(a - f * b) % p for a, b in zip(work[r], prow)]
        rank += 1
        if rank == m.rows:
            break
    return rank


def closure_rows(a, subset):
    """Bound-matrix rows r+j (1-based) of the columns whose support lies inside subset."""
    return tuple(a.rows + j + 1 for j in range(a.cols)
                 if all(i + 1 in subset for i in range(a.rows) if a.at(i, j)))


def brute_force_subset_terms(a, field, max_size):
    """Every (|S|/x_S, |S|, S, closure, x_S) with |S| <= max_size, x_S from the bound matrix."""
    block = bound_matrix(a)
    terms = []
    for size in range(1, min(max_size, a.rows) + 1):
        for subset in combinations(range(1, a.rows + 1), size):
            closure = closure_rows(a, subset)
            picked = [i - 1 for i in subset + closure]
            x_s = rank_mod_p(block.submatrix(picked, range(block.cols)), field)
            terms.append((Fraction(size, x_s), size, subset, closure, x_s))
    return terms


# ---------------------------------------------------------------------------
# reference codes
#
# Known-good codes for the paper's worked examples, independent of the
# generators in ``sumnet.codes``: k2, and the irregular 4-vertex graph of
# Fig. 4a in both orientations.  Component maps are written as literal
# tables.  Encoder rows list (source label, message component, coefficient)
# terms; decoder rows list (input position, bundle component, coefficient)
# terms.  Coefficients are reduced mod p when the arrays are assembled, so
# one table serves every characteristic.  Message coordinates come from
# ``message_offsets``, not ``network.feeding_columns``, so a layout fault
# shared by the generators and the verifier shows as a disagreement with
# these codes.

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
    offsets = message_offsets(rows, cols, m)
    encoders = []
    for table in encoder_rows:
        assert len(table) == n
        enc = np.zeros((n, m * (rows + cols)), dtype=np.int64)
        for comp, terms in enumerate(table):
            for label, k, coeff in terms:
                enc[comp, offsets[f"s_{label}"] + k] = coeff % p
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
