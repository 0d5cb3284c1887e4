"""Exact upper bounds on the computation capacity of a sum-network.

All bounds are driven by the rank over GF(p) of the square block matrix

    [ I_r  A               ]
    [ A^T  supp(A^T A)     ]

where supp(.) replaces every positive integer entry with 1.  The plain
rank bound is r / rank; the subset bound minimizes |S|/x_S over row
subsets S, where x_S is the rank of the rows indexed by S together with
the rows of every column whose support lies inside S (the closure C(S)).
The family bounds are the closed forms these reduce to for graphs,
2-(v,k,1) designs, general t-designs and subset-vs-block structures.

Neither bound builds the block matrix.  Subtracting the S rows [e_i | A_i]
over i in supp(j) from the row [A_j^T | supp_j] of a closed column j
leaves [0 | -R_j], where R = A^T A - supp(A^T A) is the overlap residue.
So x_S = |S| + rank_p R[C(S), :], and the rank bound is
r / (r + rank_p R).  Only closed row sets need searching: the union U of
the supports of C(S) has C(U) = C(S) and |U| <= |S|, so U's value is no
larger and U comes no later in the tie-break.  The minimizer is therefore
a union of column supports, or the singleton {1} when every value is 1.
The search starts from the better of {1} and the union of all supports,
whose x_S is |S| + rank_p R, and skips every branch whose value is bounded
strictly above the best set so far; ``_min_subset`` gives the bound.

Row subsets and witness indices are reported 1-based; a column witness is
reported by its row index r+j inside the block matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .gf import IntMatrix, PrimeField, column_masks, gram, residue_rows
from .incidence import IncidenceStructure, validate_design

FAMILY_KINDS = (
    "graph-normal",
    "graph-transpose",
    "bibd-normal",
    "bibd-transpose",
    "tdesign-transpose",
    "higher-normal",
    "higher-transpose",
)


@dataclass(frozen=True)
class BoundResult:
    """An upper bound plus the witness that certifies it."""

    bound: Fraction
    char: int
    via: str  # "rank", "subset", "subset-limited", or "family:<kind>"
    rank_defect: Optional[int] = None  # rank bound: rank - r
    subset: Optional[tuple[int, ...]] = None  # subset bound: minimizing S (1-based)
    closure: Optional[tuple[int, ...]] = None  # its dependent-column rows (1-based, offset r)
    x_s: Optional[int] = None
    applicable: bool = True  # family bounds: divisibility condition held
    note: str = ""


def support_product(n1: IntMatrix, n2: IntMatrix) -> IntMatrix:
    """Entrywise indicator that the integer product n1 @ n2 is positive."""
    if not (n1.is_zero_one() and n2.is_zero_one()):
        raise ValueError("support product expects (0,1)-matrices")
    if n1.cols != n2.rows:
        raise ValueError("inner dimensions disagree")
    # Entry (i, j) is positive exactly when row i of n1 and column j of n2 meet.
    rows, cols = column_masks(n1.transpose()), column_masks(n2)
    return IntMatrix(n1.rows, n2.cols, tuple([1 if x & y else 0 for x in rows for y in cols]))


def bound_matrix(a: IntMatrix) -> IntMatrix:
    """The (r+c) x (r+c) block matrix [[I, A], [A^T, supp(A^T A)]]."""
    r, c = a.rows, a.cols
    at = a.transpose()
    supp = support_product(at, a)
    rows = []
    for i in range(r):
        rows.append([1 if j == i else 0 for j in range(r)] + list(a.row(i)))
    for j in range(c):
        rows.append(list(at.row(j)) + list(supp.row(j)))
    return IntMatrix.from_rows(rows)


def rank_bound(a: IntMatrix, field: PrimeField) -> BoundResult:
    """Upper bound r / rank(bound matrix) = r / (r + rank_p R) over GF(p); at most 1."""
    defect = _rank(residue_rows(a, field.p), field.p)
    return BoundResult(
        bound=Fraction(a.rows, a.rows + defect), char=field.p, via="rank", rank_defect=defect
    )


def _rank(rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of sparse rows, by ``_extend`` into one basis."""
    basis: dict[int, dict[int, int]] = {}
    return sum(_extend(basis, row, p) for row in rows)


def _extend(basis: dict[int, dict[int, int]], row: dict[int, int], p: int) -> bool:
    """Add row to an echelon basis over GF(p) if it is independent of it.

    ``basis`` maps each pivot column to a row whose first nonzero entry is
    a 1 there.  One forward elimination: clear the leading entry of the
    row while a basis row owns it.  Stored rows are never changed, so a
    copy of the dict is an independent basis.
    """
    v = dict(row)
    while v:
        h = min(v)
        x = v[h]
        b = basis.get(h)
        if b is None:
            inv = pow(x, -1, p)
            basis[h] = {k: y * inv % p for k, y in v.items()}
            return True
        for k, y in b.items():
            z = (v.get(k, 0) - x * y) % p
            if z:
                v[k] = z
            else:
                del v[k]
    return False


def closure_columns(a: IntMatrix, subset: Iterable[int]) -> frozenset[int]:
    """Columns of A whose support lies inside the given row subset.

    ``subset`` holds 1-based row indices.  The result is reported as the
    corresponding bound-matrix row indices r+j (1-based), matching how the
    subset-bound witness is quoted.
    """
    rows = set(subset)
    if not rows <= set(range(1, a.rows + 1)):
        raise ValueError("subset must contain row indices in 1..r")
    return frozenset(_closure(a.rows, column_masks(a), rows))


def _closure(r: int, supports: list[int], subset: Iterable[int]) -> tuple[int, ...]:
    """Bound-matrix rows r+j (1-based, ascending) of the columns supported inside subset."""
    inside = sum(1 << (i - 1) for i in subset)
    # Built from a list: tuple() over a generator here let peak RSS creep up with every search.
    return tuple([r + j + 1 for j, s in enumerate(supports) if not s & ~inside])


class SubsetSearchRefused(ValueError):
    """Raised when the exact subset enumeration would be too large."""


def _min_subset(a: IntMatrix, field: PrimeField, max_size: int):
    """Minimum of |S|/x_S over nonempty row subsets with |S| <= max_size.

    Ties go to smaller |S|, then lexicographically smaller S, so the witness
    is deterministic.  Returns (value, S, closure rows, x_S).

    Visits only the closed row sets (unions of column supports) and {1};
    the module docstring says why they hold the minimizer.  The search runs
    depth first over closed column sets by prefix-preserving extension
    (LCM, Uno et al. 2004): a child adds a column k above its parent's core
    and is kept only if no column below k closes with it.  Each child
    extends its parent's residue basis by the rows of the columns it closes.

    It is a branch and bound on the value.  The incumbent starts as the
    better of {1} and U_all, the union of all column supports (rows in no
    support left out), if 0 < |U_all| <= max_size.  U_all closes every
    column, so x_{U_all} = |U_all| + t with t = rank_p R.  Both are sets the
    search visits, so the minimum and its witness are unchanged.  A child
    adding column k has s rows; its parent's basis has rank q.  Every set
    in the child's subtree has at least s rows and closes, beyond the
    parent's columns, only columns unclosed at the parent and not below k
    (k among them), so its rank is at most M = min(t, q + #those columns)
    and its value at least s/(s+M).  A child whose bound is strictly above
    the incumbent's value is dropped before its closure scan.  Equality
    does not prune: a set of exactly that value in the subtree could still
    win the tie-break on |S| or lexicographically.  Every child adds a
    row and M only falls as k grows, so a node stops scanning children at
    the first k where even s = |U|+1 is dropped.
    """
    r, c, p = a.rows, a.cols, field.p
    supports = column_masks(a)
    row_columns = column_masks(a.transpose())  # bit j of row i: column j meets row i
    residue = residue_rows(a, p)
    limit = min(max_size, r)
    full = (1 << c) - 1
    t = _rank(residue, p)
    # (row mask, |S|, rank of the closed residue rows).  {1} closes only columns
    # supported inside one row, whose residue rows are zero, so x_{1} = 1.
    best = (1, 1, 0)
    union_all = 0
    for s in supports:
        union_all |= s
    size_all = union_all.bit_count()
    if 0 < size_all <= limit and _better(union_all, size_all, t, best):
        best = (union_all, size_all, t)
    # Pending children: union, closed columns, core, parent basis, columns the
    # child closes, and the parent's rejections (column k -> a column j < k that
    # closes with it).  A rejection holds in every descendant where j is still
    # unclosed: j's support stays inside the union grown by k's.
    empty = sum(1 << j for j, s in enumerate(supports) if not s)
    stack = [(0, empty, -1, {}, (), {})]
    while stack:
        union, closed, core, basis, new, blocked = stack.pop()
        basis = dict(basis)
        for j in new:
            _extend(basis, residue[j], p)
        size, rank = union.bit_count(), len(basis)
        if union and _better(union, size, rank, best):
            best = (union, size, rank)
        _, b_size, b_rank = best
        rejected: dict[int, int] = {}  # complete before any child is popped
        todo = full & ~closed & ~((1 << (core + 1)) - 1)
        while todo:
            # todo holds the unclosed columns not below the next k.  A child
            # adds at least one row, and the bound only grows as todo shrinks.
            most = min(t, rank + todo.bit_count())
            if (size + 1) * b_rank > b_size * most:
                break
            bit = todo & -todo
            todo ^= bit
            k = bit.bit_length() - 1
            j = blocked.get(k)
            if j is not None and not closed >> j & 1:
                rejected[k] = j
                continue
            gained = supports[k] & ~union
            grown_size = size + gained.bit_count()
            # s/(s+M) above b_size/(b_size+b_rank), cross-multiplied.
            if grown_size > limit or grown_size * b_rank > b_size * most:
                continue
            grown = union | gained
            # A newly closed column meets a gained row; scan them in index order.
            candidates = 0
            while gained:
                low = gained & -gained
                gained ^= low
                candidates |= row_columns[low.bit_length() - 1]
            candidates &= ~closed
            closes = []
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                j = low.bit_length() - 1
                if not supports[j] & ~grown:
                    if j < k:
                        rejected[k] = j
                        break
                    closes.append(j)
            else:
                stack.append((grown, closed | sum(1 << j for j in closes), k, basis, closes, rejected))
    union, size, rank = best
    # Built from lists: tuple() over a generator let peak RSS creep up per call.
    subset = tuple([i + 1 for i in range(r) if union >> i & 1])
    return Fraction(size, size + rank), subset, _closure(r, supports, subset), size + rank


def _better(union: int, size: int, rank: int, best: tuple[int, int, int]) -> bool:
    """Whether a row set comes before ``best`` in (value, |S|, lexicographic) order."""
    b_union, b_size, b_rank = best
    lhs, rhs = size * (b_size + b_rank), b_size * (size + rank)
    diff = union ^ b_union
    return lhs < rhs or lhs == rhs and (
        size < b_size or size == b_size and bool(union & diff & -diff))


def subset_bound(a: IntMatrix, field: PrimeField, exhaustive_limit: int = 20) -> BoundResult:
    """Exact minimum of |S|/x_S over all nonempty row subsets S.

    Refuses to enumerate when r exceeds ``exhaustive_limit`` (2^r subsets);
    the rank bound is the S = all-rows term and remains available in that
    case.
    """
    r = a.rows
    if r > exhaustive_limit:
        raise SubsetSearchRefused(
            f"exact mode refused: r={r} exceeds the enumeration limit "
            f"{exhaustive_limit}"
        )
    value, subset, closure, x_s = _min_subset(a, field, r)
    return BoundResult(value, field.p, "subset", subset=subset, closure=closure, x_s=x_s)


def subset_bound_limited(a: IntMatrix, field: PrimeField, max_size: int) -> BoundResult:
    """Minimum of |S|/x_S over subsets with |S| <= max_size only.

    This is an upper bound on the exact subset bound (every term is a
    valid capacity bound), labelled as a bounded search rather than the
    exact minimum.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    value, subset, closure, x_s = _min_subset(a, field, max_size)
    return BoundResult(
        value,
        field.p,
        "subset-limited",
        subset=subset,
        closure=closure,
        x_s=x_s,
        note=f"search limited to |S|<={max_size}",
    )


def _inapplicable(kind: str, char: int, why: str) -> BoundResult:
    return BoundResult(
        bound=Fraction(1),
        char=char,
        via=f"family:{kind}",
        applicable=False,
        note=f"closed form inapplicable: {why}",
    )


def _graph_degrees(struct: IncidenceStructure) -> list[int]:
    if any(len(b) != 2 for b in struct.blocks):
        raise ValueError("not a graph: blocks must all have size 2")
    degs = [struct.point_degree(p) for p in range(1, struct.num_points + 1)]
    if any(d == 0 for d in degs):
        raise ValueError("graph has an isolated vertex")
    return degs


def graph_transpose_sets(
    struct: IncidenceStructure, field: PrimeField
) -> tuple[list[int], list[int]]:
    """The vertex set P' with degree-1 not divisible by ch, and B' = edges meeting it."""
    degs = _graph_degrees(struct)
    p_prime = [p for p in range(1, struct.num_points + 1) if (degs[p - 1] - 1) % field.p != 0]
    b_prime = sorted(
        {j + 1 for j, b in enumerate(struct.blocks) if any(p in b for p in p_prime)}
    )
    return p_prime, b_prime


def family_bound(struct: IncidenceStructure, kind: str, field: PrimeField) -> BoundResult:
    """Closed-form bound for a qualifying structure family.

    Returns the closed form when the family's divisibility condition holds
    over GF(p); otherwise a bound of 1 flagged inapplicable.  A structure
    that does not match the requested kind at all is rejected.
    """
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    p = field.p
    v, b = struct.num_points, struct.num_blocks

    if kind == "graph-normal":
        _graph_degrees(struct)
        # supp(A^T A) - A^T A = -I for every simple graph: always applicable.
        return BoundResult(Fraction(v, v + b), p, f"family:{kind}")

    if kind == "graph-transpose":
        p_prime, b_prime = graph_transpose_sets(struct, field)
        if not p_prime:
            return _inapplicable(kind, p, "every vertex degree = 1 (mod ch)")
        return BoundResult(
            Fraction(len(b_prime), len(b_prime) + len(p_prime)),
            p,
            f"family:{kind}",
            note=f"P'={{{','.join(map(str, p_prime))}}}",
        )

    if kind in ("bibd-normal", "bibd-transpose"):
        params = validate_design(struct, 2)
        if params is None or params.lam != 1:
            raise ValueError("not a 2-(v,k,1) design")
        k = params.k
        if kind == "bibd-normal":
            if (k - 1) % p == 0:
                return _inapplicable(kind, p, f"ch divides k-1 = {k - 1}")
            return BoundResult(Fraction(v, v + b), p, f"family:{kind}")
        ratio = (v - k) // (k - 1)  # = rho - 1, always integral here
        if ratio % p == 0:
            return _inapplicable(kind, p, f"ch divides (v-k)/(k-1) = {ratio}")
        return BoundResult(Fraction(b, v + b), p, f"family:{kind}")

    if kind == "tdesign-transpose":
        params = validate_design(struct, 2)
        if params is None:
            raise ValueError("not a t-design with t >= 2")
        rho, b2 = params.rho, params.lam
        crit = ((rho - b2 + v * (b2 - 1)) % p) * pow((rho - b2) % p, v - 1, p) % p
        if crit == 0:
            return _inapplicable(
                kind, p, "ch divides [rho-b2+v(b2-1)](rho-b2)^(v-1)"
            )
        return BoundResult(Fraction(b, v + b), p, f"family:{kind}")

    # Subset-vs-block structures: row sums lam, column sums t+1, and the
    # closed forms require the two overlap identities to hold exactly.  The
    # Grams A^T A of the columns and A A^T of the rows hold the sums on their diagonals.
    col_gram, row_gram = list(gram(struct.matrix)), list(gram(struct.matrix.transpose()))
    col_sums = {g.get(j, 0) for j, g in enumerate(col_gram)}
    row_sums = {g.get(i, 0) for i, g in enumerate(row_gram)}
    if len(col_sums) != 1 or len(row_sums) != 1:
        raise ValueError("not a higher incidence structure: sums not uniform")
    t = col_sums.pop() - 1
    lam = row_sums.pop()
    if t < 1 or lam < 2:
        raise ValueError("not a higher incidence structure")
    # Each nonzero Gram entry is 1 off the diagonal and 1 + t (1 + lam - 1) on it.
    grams, expected = (col_gram, t) if kind == "higher-normal" else (row_gram, lam - 1)
    if any(n != 1 + (k == j) * expected for j, g in enumerate(grams) for k, n in g.items()):
        raise ValueError("overlap pattern does not match a higher incidence structure")
    if kind == "higher-normal":
        if t % p == 0:
            return _inapplicable(kind, p, f"ch divides t = {t}")
        return BoundResult(Fraction(v, v + b), p, f"family:{kind}")
    if (lam - 1) % p == 0:
        return _inapplicable(kind, p, f"ch divides lam-1 = {lam - 1}")
    return BoundResult(Fraction(b, v + b), p, f"family:{kind}")
