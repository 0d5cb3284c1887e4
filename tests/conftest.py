"""Shared literals and helpers for the test suite."""

from __future__ import annotations

import random
from itertools import islice, product

import numpy as np

from sumnet.codes import NetworkCode
from sumnet.gf import IntMatrix, column_masks
from sumnet.network import bottleneck_sources, source_offset
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
    masks = []
    for i in range(1, net.r + 1):
        mask = np.zeros(m * (net.r + net.c), dtype=bool)
        for label in bottleneck_sources(net.matrix, i):
            off = source_offset(net.r, m, label)
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
            off = source_offset(net.r, m, label)
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
