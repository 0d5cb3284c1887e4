"""Shared literals and helpers for the test suite."""

from __future__ import annotations

import random

import numpy as np

from sumnet.codes import NetworkCode
from sumnet.gf import IntMatrix, column_masks

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
