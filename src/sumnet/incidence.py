"""Incidence structures: graphs, block designs, and their matrix views.

Points are labelled 1..v throughout (the file formats and the CLI use the
same 1-based labels).  A structure is stored as its block list; the 0/1
incidence matrix (rows = points, columns = blocks) is derived once at
construction and kept alongside.

Named constructors (graphs, the Fano plane, Steiner triple systems, the
all-k-subsets design) always produce simple structures: no empty blocks,
no repeated blocks.  ``transpose`` swaps the point/block roles and may
legitimately produce repeated blocks (two points lying in exactly the
same set of blocks); downstream consumers work on the matrix and do not
care.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .gf import IntMatrix


# The most entries v*b an incidence matrix may hold: K322 (16,616,802 entries)
# builds in about 1.5 s and 331 MiB.  The named constructors check it before
# generating any block, and a structure before it builds its matrix.
MAX_INCIDENCE_ENTRIES = 1 << 26


def _require_matrix_fits(v: int, b: int) -> None:
    """Refuse a structure of v points and b blocks above MAX_INCIDENCE_ENTRIES entries."""
    if v * b > MAX_INCIDENCE_ENTRIES:
        raise ValueError(
            f"a structure of {v} points and {b} blocks would hold {v * b} incidence "
            f"entries, above the limit of {MAX_INCIDENCE_ENTRIES}"
        )


@dataclass(frozen=True)
class IncidenceStructure:
    """A set of points 1..num_points and a list of point subsets (blocks)."""

    num_points: int
    blocks: tuple[tuple[int, ...], ...]
    matrix: IntMatrix = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.num_points < 1:
            raise ValueError("need at least one point")
        _require_matrix_fits(self.num_points, len(self.blocks))
        norm = []
        for b in self.blocks:
            pts = tuple(sorted(set(b)))
            if len(pts) != len(b):
                raise ValueError(f"block {b} repeats a point")
            if not pts:
                raise ValueError("empty block")
            if pts[0] < 1 or pts[-1] > self.num_points:
                raise ValueError(f"block {b} uses a point outside 1..{self.num_points}")
            norm.append(pts)
        if not norm:
            raise ValueError("need at least one block")
        object.__setattr__(self, "blocks", tuple(norm))
        entries = []
        for p in range(1, self.num_points + 1):
            for b in self.blocks:
                entries.append(1 if p in b else 0)
        object.__setattr__(
            self, "matrix", IntMatrix(self.num_points, len(self.blocks), tuple(entries))
        )

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def is_simple(self) -> bool:
        """True when no two blocks are equal as point sets."""
        return len(set(self.blocks)) == len(self.blocks)

    def point_degree(self, p: int) -> int:
        """Number of blocks containing point p."""
        return sum(1 for b in self.blocks if p in b)

    def blocks_through(self, p: int) -> tuple[int, ...]:
        """1-based indices of the blocks containing point p."""
        return tuple([j + 1 for j, b in enumerate(self.blocks) if p in b])

    def transpose(self) -> "IncidenceStructure":
        """Swap point and block roles; the matrix view is the transpose.

        The result's point j is the old block B_j; its block i is the set
        of old blocks containing old point i.  Fails if some point lies in
        no block (that would create an empty block).
        """
        new_blocks = []
        for p in range(1, self.num_points + 1):
            through = self.blocks_through(p)
            if not through:
                raise ValueError(f"point {p} lies in no block; transpose undefined")
            new_blocks.append(through)
        return IncidenceStructure(self.num_blocks, tuple(new_blocks))


@dataclass(frozen=True)
class DesignParams:
    """Parameters of a t-(v, k, lam) design.

    block_counts[i] is the number of blocks through any i-subset of the
    points, for i = 0..t; block_counts[0] is the total number of blocks
    and block_counts[1] is the replication number rho.
    """

    t: int
    v: int
    k: int
    lam: int
    rho: int
    block_counts: tuple[int, ...]

    def __str__(self) -> str:
        return (
            f"{self.t}-({self.v},{self.k},{self.lam}), "
            f"b={self.block_counts[0]}, rho={self.rho}"
        )


def _require_simple(struct: IncidenceStructure, what: str) -> IncidenceStructure:
    if not struct.is_simple():
        raise ValueError(f"{what} has repeated blocks")
    return struct


def from_graph(num_vertices: int, edges: Sequence[tuple[int, int]]) -> IncidenceStructure:
    """Structure of a simple undirected graph: points = vertices, blocks = edges.

    Column order follows the input edge order.  Loops and duplicate edges
    are rejected.
    """
    seen = set()
    blocks = []
    for (u, v) in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        blocks.append(e)
    return _require_simple(IncidenceStructure(num_vertices, tuple(blocks)), "graph")


def complete_graph(n: int) -> IncidenceStructure:
    """K_n with edges in lexicographic order."""
    if n < 2:
        raise ValueError("complete graph needs at least 2 vertices")
    _require_matrix_fits(n, n * (n - 1) // 2)
    return from_graph(n, list(combinations(range(1, n + 1), 2)))


#: Blocks of the Fano plane in the fixed column order A..G.
_FANO_BLOCKS = (
    (1, 2, 3),
    (3, 4, 5),
    (1, 5, 6),
    (1, 4, 7),
    (2, 5, 7),
    (3, 6, 7),
    (2, 4, 6),
)


def fano() -> IncidenceStructure:
    """The Fano plane as a 2-(7,3,1) design with a fixed block order."""
    return IncidenceStructure(7, _FANO_BLOCKS)


def steiner_triple(v: int) -> IncidenceStructure:
    """A Steiner triple system 2-(v,3,1), for v = 1 or 3 (mod 6), v >= 7.

    Uses the quasigroup constructions: an idempotent commutative quasigroup
    on Z_{2n+1} for v = 6n+3, and a half-idempotent one on Z_{2n} plus an
    extra point for v = 6n+1.  Blocks are emitted in lexicographic order.
    """
    if v < 7 or v % 6 not in (1, 3):
        raise ValueError(
            f"no 2-({v},3,1) design exists: v must satisfy v = 1 or 3 (mod 6), v >= 7"
        )
    _require_matrix_fits(v, v * (v - 1) // 6)
    if v % 6 == 3:
        blocks = _bose_triples(v)
    else:
        blocks = _skolem_triples(v)
    struct = _require_simple(
        IncidenceStructure(v, tuple(sorted(blocks))), "steiner system"
    )
    assert struct.num_blocks == v * (v - 1) // 6
    return struct


def _bose_triples(v: int) -> list[tuple[int, ...]]:
    n = (v - 3) // 6
    q = 2 * n + 1
    half = n + 1  # inverse of 2 mod q

    def pt(x: int, lvl: int) -> int:
        return 1 + x + lvl * q

    blocks = [(pt(x, 0), pt(x, 1), pt(x, 2)) for x in range(q)]
    for lvl in range(3):
        for x in range(q):
            for y in range(x + 1, q):
                z = ((x + y) * half) % q
                blocks.append(tuple(sorted((pt(x, lvl), pt(y, lvl), pt(z, (lvl + 1) % 3)))))
    return blocks


def _skolem_triples(v: int) -> list[tuple[int, ...]]:
    n = (v - 1) // 6
    q = 2 * n
    extra = v  # the point adjoined to the three group levels

    def pt(x: int, lvl: int) -> int:
        return 1 + x + lvl * q

    def star(x: int, y: int) -> int:
        # Half-idempotent commutative quasigroup on Z_q: relabel x+y so the
        # diagonal takes each of 0..n-1 twice.
        z = (x + y) % q
        return z // 2 if z % 2 == 0 else n + (z - 1) // 2

    blocks = [(pt(i, 0), pt(i, 1), pt(i, 2)) for i in range(n)]
    for i in range(n):
        blocks.append(tuple(sorted((extra, pt(n + i, 0), pt(i, 1)))))
        blocks.append(tuple(sorted((extra, pt(n + i, 1), pt(i, 2)))))
        blocks.append(tuple(sorted((extra, pt(n + i, 2), pt(i, 0)))))
    for lvl in range(3):
        for x in range(q):
            for y in range(x + 1, q):
                z = star(x, y)
                blocks.append(tuple(sorted((pt(x, lvl), pt(y, lvl), pt(z, (lvl + 1) % 3)))))
    return blocks


def all_subsets_design(v: int, k: int) -> IncidenceStructure:
    """The design whose blocks are all k-subsets of 1..v.

    This is a t-(v, k, C(v-t, k-t)) design for every t <= k; it supplies
    small qualifying instances (e.g. the 2-(4,3,2) design) without any
    design search.
    """
    if not 1 <= k <= v:
        raise ValueError("need 1 <= k <= v")
    _require_matrix_fits(v, math.comb(v, k))
    return IncidenceStructure(v, tuple(combinations(range(1, v + 1), k)))


def validate_design(struct: IncidenceStructure, t: int) -> Optional[DesignParams]:
    """Check the t-design property; return the parameters, or None.

    A structure qualifies when it is simple, all blocks have one size k >= t,
    and every t-subset of the points lies in the same number lam >= 1 of
    blocks.  The count identities b_i = lam*C(v-i,t-i)/C(k-i,t-i) and
    b*k = v*rho are recomputed and cross-checked, not assumed.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if not struct.is_simple():
        return None
    v = struct.num_points
    sizes = {len(b) for b in struct.blocks}
    if len(sizes) != 1:
        return None
    k = sizes.pop()
    if k < t or v < t:
        return None
    counts: dict[tuple[int, ...], int] = {}
    for b in struct.blocks:
        for sub in combinations(b, t):
            counts[sub] = counts.get(sub, 0) + 1
    lam = None
    for sub in combinations(range(1, v + 1), t):
        c = counts.get(sub, 0)
        if lam is None:
            lam = c
        elif c != lam:
            return None
    if not lam:
        return None
    block_counts = []
    for i in range(t + 1):
        num = lam * math.comb(v - i, t - i)
        den = math.comb(k - i, t - i)
        if num % den:
            return None
        block_counts.append(num // den)
    if block_counts[0] != struct.num_blocks:
        return None
    rho = block_counts[1]
    if any(struct.point_degree(p) != rho for p in range(1, v + 1)):
        return None
    if struct.num_blocks * k != v * rho:
        return None
    return DesignParams(t, v, k, lam, rho, tuple(block_counts))


def detect_design(struct: IncidenceStructure) -> Optional[DesignParams]:
    """Parameters for the largest t for which the structure is a t-design."""
    best = None
    sizes = {len(b) for b in struct.blocks}
    if len(sizes) != 1:
        return None
    k = sizes.pop()
    for t in range(1, k + 1):
        params = validate_design(struct, t)
        if params is None:
            break
        best = params
    return best


def higher_incidence(struct: IncidenceStructure) -> IncidenceStructure:
    """Subset-vs-block structure of a t-(v, t+1, lam) design with lam != 1.

    Rows are all t-subsets of the points in lexicographic order, columns
    are the original blocks; entry 1 means the t-subset lies inside the
    block.  Row sums equal lam, column sums equal t+1.
    """
    sizes = {len(b) for b in struct.blocks}
    if len(sizes) != 1:
        raise ValueError("blocks must have one common size")
    k = sizes.pop()
    t = k - 1
    if t < 1:
        raise ValueError("block size must be at least 2")
    params = validate_design(struct, t)
    if params is None:
        raise ValueError(f"not a {t}-({struct.num_points},{k},lam) design")
    if params.lam == 1:
        raise ValueError("qualifying designs need lam != 1")
    subsets = list(combinations(range(1, struct.num_points + 1), t))
    index = {s: i + 1 for i, s in enumerate(subsets)}
    new_blocks = []
    for b in struct.blocks:
        new_blocks.append(tuple(sorted(index[s] for s in combinations(b, t))))
    out = IncidenceStructure(len(subsets), tuple(new_blocks))
    assert all(len(b) == t + 1 for b in out.blocks)
    assert all(out.point_degree(p) == params.lam for p in range(1, out.num_points + 1))
    return _require_simple(out, "higher incidence structure")


def star_composite() -> IncidenceStructure:
    """Three bridged stars with hub degrees 7, 16 and 11.

    Hubs a,b,c are points 1,2,3; they carry stars with 6, 14 and 10 leaves,
    plus the bridge edges a-b and b-c.  33 points, 32 blocks.
    """
    edges = []
    leaf = 4
    for hub, nleaves in ((1, 6), (2, 14), (3, 10)):
        for _ in range(nleaves):
            edges.append((hub, leaf))
            leaf += 1
    edges.append((1, 2))
    edges.append((2, 3))
    return from_graph(leaf - 1, edges)


# ---------------------------------------------------------------------------
# text formats


def render_matrix_text(struct: IncidenceStructure) -> str:
    """Incidence matrix format: "r c" then r rows of c characters over {0,1}."""
    m = struct.matrix
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append("".join(str(x) for x in m.row(i)))
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> IncidenceStructure:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    try:
        r, c = map(int, lines[0].split())
    except Exception as exc:
        raise ValueError(f"bad header line {lines[0]!r}") from exc
    if len(lines) != r + 1:
        raise ValueError(f"expected {r} matrix rows, found {len(lines) - 1}")
    grid = []
    for ln in lines[1:]:
        if len(ln) != c or set(ln) - {"0", "1"}:
            raise ValueError(f"bad matrix row {ln!r}")
        grid.append([int(ch) for ch in ln])
    blocks = []
    for j in range(c):
        support = tuple([i + 1 for i in range(r) if grid[i][j]])
        if not support:
            raise ValueError(f"column {j + 1} is empty")
        blocks.append(support)
    return _require_simple(IncidenceStructure(r, tuple(blocks)), "matrix file")


def render_blocks_text(struct: IncidenceStructure) -> str:
    """Block-list format: "v b" then b lines of 1-based point indices."""
    lines = [f"{struct.num_points} {struct.num_blocks}"]
    for b in struct.blocks:
        lines.append(" ".join(str(p) for p in b))
    return "\n".join(lines) + "\n"


def parse_blocks_text(text: str) -> IncidenceStructure:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty block file")
    try:
        v, b = map(int, lines[0].split())
    except Exception as exc:
        raise ValueError(f"bad header line {lines[0]!r}") from exc
    if len(lines) != b + 1:
        raise ValueError(f"expected {b} block lines, found {len(lines) - 1}")
    blocks = []
    for ln in lines[1:]:
        blocks.append(tuple([int(x) for x in ln.split()]))
    return _require_simple(IncidenceStructure(v, tuple(blocks)), "block file")
