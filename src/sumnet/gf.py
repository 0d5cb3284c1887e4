"""Exact arithmetic: prime fields and small integer matrices.

Nothing here uses floating point.  ``IntMatrix`` holds small integer
matrices (incidence, bound and transfer matrices) as Python integers.
``gram`` is the one count of a (0,1)-matrix's pairwise column overlaps, read
by ``residue_rows`` and the higher-structure identities; ``column_masks``
holds the supports.  The package's one GF(p) elimination,
``bounds._extend``, serves the rank bound and the subset search.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, count
from typing import Iterable, Iterator, Sequence


# Deterministic Miller-Rabin: the first 13 primes are a complete witness set
# for every n below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality for n below 3,317,044,064,679,887,385,961,981.

    A larger n raises ``ValueError`` unless one of the bases divides it:
    the fixed bases are not proved complete there.
    """
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % b == 0 for b in _MR_BASES):
        return False
    if n >= _MR_LIMIT:
        raise ValueError(
            f"cannot decide whether {n} is prime: deterministic primality "
            f"is limited to n < {_MR_LIMIT}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(q: int, k: int) -> int:
    """floor(q ** (1/k)) computed exactly.

    Newton's step from any x > 0 lands at or above the root (AM-GM), and from
    above it falls to the root, but by only a factor of about 1 - 1/k a step
    while x is far off.  So the start is the float estimate, good to about
    12 digits, raised by 2^-30 to sit just above the root.
    """
    bits = math.log2(q) / k
    shift = max(int(bits) - 52, 0)
    x = int(2 ** (bits - shift) * (1 + 2**-30) + 1) << shift
    y = ((k - 1) * x + q // x ** (k - 1)) // k
    while True:
        x = y
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x


@dataclass(frozen=True)
class PrimeField:
    """The prime field GF(p)."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @classmethod
    def from_order(cls, q: int) -> "PrimeField":
        """Reduce a prime-power order q = p^k to GF(p).

        Every capacity statement computed by this package depends only on
        the characteristic, so an extension field is represented by its
        prime subfield.
        """
        if q < 2:
            raise ValueError(f"field order must be at least 2, got {q}")
        # Taking prime roots while one is exact leaves the root of q that is no
        # perfect power, the only candidate p.
        p, k = q, 2
        while 1 << k <= p:  # a k-th root of p is at least 2
            root = _integer_root(p, k)
            if root**k == p:
                p = root  # p may be a k-th power again
            else:
                k = next(n for n in count(k + 1) if is_prime(n))
        if not is_prime(p):
            raise ValueError(f"{q} is not a prime power")
        return cls(p)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} does not match shape "
                f"{self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in row)
        return cls(r, c, tuple(flat))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple([self.at(i, j) for j in range(self.cols) for i in range(self.rows)]),
        )

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "IntMatrix":
        ri = list(row_idx)
        ci = list(col_idx)
        return IntMatrix(
            len(ri), len(ci), tuple([self.at(i, j) for i in ri for j in ci])
        )

    def is_zero_one(self) -> bool:
        return all(x in (0, 1) for x in self.entries)

    def nonzero_count(self) -> int:
        return sum(1 for x in self.entries if x != 0)


def column_masks(m: IntMatrix) -> list[int]:
    """Row support of each column of a (0,1)-matrix as an int bitmask (bit i-1: row i).

    Pass m^T for the rows.  Overlap counts come from ``gram``.
    """
    if not m.is_zero_one():
        raise ValueError("expected a (0,1)-matrix")
    return [sum(1 << i for i, x in enumerate(m.col(j)) if x) for j in range(m.cols)]


# The most column pairs ``gram`` may visit: about 6 s at the 23M pairs/s that
# the 2-(18,5,560) design's 102M pairs took on a 2-core box (K200, at 12M
# pairs/s, visits 7.9M).  The 2-(22,11,167960) design's 2.7e12 are refused.
MAX_GRAM_PAIRS = 1 << 27


def gram(m: IntMatrix) -> Iterator[dict[int, int]]:
    """The nonzero entries of the Gram m^T m of a (0,1)-matrix, one column at a time.

    Column j is ``{k: |supp j & supp k|}`` over the columns k that share a
    row with j.  Only those pairs are visited, through each row's list of
    columns, so the cost is the sum of the squared row sums, not c^2; above
    MAX_GRAM_PAIRS it raises ``ValueError`` before the first column.
    Pass m^T for the rows.
    """
    if not m.is_zero_one():
        raise ValueError("expected a (0,1)-matrix")
    rows = [list(compress(range(m.cols), m.row(i))) for i in range(m.rows)]
    pairs = sum(len(row) ** 2 for row in rows)
    if pairs > MAX_GRAM_PAIRS:
        raise ValueError(
            f"the Gram of a {m.rows}x{m.cols} matrix would visit {pairs} column pairs, "
            f"above the limit of {MAX_GRAM_PAIRS}"
        )
    for j in range(m.cols):
        yield Counter(chain.from_iterable(compress(rows, m.col(j))))


def residue_rows(m: IntMatrix, p: int) -> list[dict[int, int]]:
    """The overlap residue m^T m - supp(m^T m) mod p, row by row, from ``gram``.

    Entry (j, k) is (n - 1) mod p where the Gram entry n is nonzero; each
    row is a sparse {k: entry} dict of its nonzero entries.
    """
    return [{k: x for k, n in g.items() if (x := (n - 1) % p)} for g in gram(m)]
