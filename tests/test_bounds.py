"""Capacity upper bounds and their witnesses."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FANO_MATRIX,
    FIG3_TRANSPOSE_BOUND_MATRIX,
    mat,
    random_01_matrix,
    rank_mod_p,
    to_lists,
)
from sumnet.bounds import (
    BoundResult,
    SubsetSearchRefused,
    bound_matrix,
    closure_columns,
    family_bound,
    rank_bound,
    subset_bound,
    subset_bound_limited,
    support_product,
)
from sumnet.codes import overlap_residue
from sumnet.gf import IntMatrix, PrimeField
from sumnet.incidence import (
    IncidenceStructure,
    all_subsets_design,
    complete_graph,
    fano,
    from_graph,
    higher_incidence,
    star_composite,
    steiner_triple,
)

FIG3 = from_graph(6, [(1, 2), (1, 3), (1, 4), (5, 6)])
FIG4A = from_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])


def test_support_product_fano_blocks_pairwise_intersect():
    a = mat(FANO_MATRIX)
    got = support_product(a.transpose(), a)
    # oracle: enumerate pairwise block intersections directly
    blocks = [set(p + 1 for p in range(7) if FANO_MATRIX[p][j]) for j in range(7)]
    for i in range(7):
        for j in range(7):
            assert got.at(i, j) == (1 if blocks[i] & blocks[j] else 0)
    assert all(x == 1 for x in got.entries)


def test_support_product_identity():
    i5 = mat(np.eye(5, dtype=int))
    assert support_product(i5, i5) == i5


def test_support_product_triangle_residue():
    a = from_graph(3, [(1, 2), (1, 3), (2, 3)]).matrix
    rows = np.array(to_lists(a))
    gram = rows.T @ rows
    supp = support_product(a.transpose(), a)
    diff = [
        [supp.at(i, j) - gram[i, j] for j in range(3)] for i in range(3)
    ]
    assert diff == [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]


def test_support_product_dimension_mismatch():
    with pytest.raises(ValueError):
        support_product(mat(np.eye(2, dtype=int)), mat([[1], [1], [1]]))


def test_bound_matrix_k2():
    assert to_lists(bound_matrix(mat([[1], [1]]))) == [[1, 0, 1], [0, 1, 1], [1, 1, 1]]


def test_bound_matrix_fig3_transpose_matches_printed():
    a = FIG3.matrix.transpose()
    assert to_lists(bound_matrix(a)) == FIG3_TRANSPOSE_BOUND_MATRIX


def test_bound_matrix_identity():
    m = bound_matrix(mat(np.eye(3, dtype=int)))
    i3 = np.eye(3, dtype=int).tolist()
    lists = to_lists(m)
    assert [row[:3] for row in lists[:3]] == i3
    assert [row[3:] for row in lists[:3]] == i3
    assert [row[:3] for row in lists[3:]] == i3
    assert [row[3:] for row in lists[3:]] == i3


def test_rank_bound_examples():
    assert rank_bound(mat(FANO_MATRIX), PrimeField(2)).bound == 1
    for p in (2, 3, 5):
        assert rank_bound(mat([[1], [1]]), PrimeField(p)).bound == Fraction(2, 3)
    res = rank_bound(FIG3.matrix.transpose(), PrimeField(3))
    assert res.bound == Fraction(4, 5)
    assert res.rank_defect == 1


def test_rank_bound_never_exceeds_one():
    rng = random.Random(5)
    for _ in range(40):
        a = random_01_matrix(rng, 5, 5)
        for p in (2, 3, 5):
            res = rank_bound(a, PrimeField(p))
            assert res.bound <= 1
            assert res.bound.numerator <= a.rows  # r/(r+t) in lowest terms


def test_closure_columns_fig3():
    a = FIG3.matrix.transpose()
    assert closure_columns(a, {1, 2, 3}) == frozenset({5, 6, 7, 8})
    assert closure_columns(a, {1, 2, 3, 4}) == frozenset(range(5, 11))
    assert closure_columns(a, set()) == frozenset()
    with pytest.raises(ValueError):
        closure_columns(a, {0})


def test_subset_bound_fig3_transpose():
    res = subset_bound(FIG3.matrix.transpose(), PrimeField(3))
    assert res.bound == Fraction(3, 4)
    assert res.subset == (1, 2, 3)
    assert res.closure == (5, 6, 7, 8)
    assert res.x_s == 4


def test_subset_bound_fano_and_k2():
    assert subset_bound(mat(FANO_MATRIX), PrimeField(2)).bound == 1
    for p in (2, 3, 5):
        assert subset_bound(mat([[1], [1]]), PrimeField(p)).bound == Fraction(2, 3)


def _witness(res):
    return res.bound, res.subset, res.closure, res.x_s


def test_subset_bound_skips_rows_in_no_column_support():
    # The union of all supports leaves the zero row out: 2/3 on two rows, not 3/4 on three.
    for p in (2, 3, 5):
        field = PrimeField(p)
        got = _witness(subset_bound(mat([[1], [1], [0]]), field))
        assert got == (Fraction(2, 3), (1, 2), (4,), 3)
        got = _witness(subset_bound(mat([[0], [1], [1]]), field))
        assert got == (Fraction(2, 3), (2, 3), (4,), 3)


def test_subset_bound_proper_closed_set_ties_the_union_of_all_supports():
    # Two disjoint [[1],[1]] blocks: all four rows give 4/6, each pair 2/3.
    # The pair {1,2} wins on |S|, and it is the support of the last column:
    # its child's bound 2/(2+1) equals the incumbent, so equality must not prune.
    a = mat([[0, 1], [0, 1], [1, 0], [1, 0]])
    for p in (2, 3, 5):
        want = (Fraction(2, 3), (1, 2), (6,), 3)
        assert _witness(subset_bound(a, PrimeField(p))) == want
        assert _witness(subset_bound_limited(a, PrimeField(p), 3)) == want


def test_subset_bound_limited_admits_no_union_above_the_limit():
    # One column on three rows: at char 3 its residue entry is 2, so all rows give 3/4.
    a, field = mat([[1], [1], [1]]), PrimeField(3)
    assert _witness(subset_bound_limited(a, field, 2)) == (Fraction(1), (1,), (), 1)
    assert _witness(subset_bound_limited(a, field, 3)) == (Fraction(3, 4), (1, 2, 3), (4,), 4)
    assert _witness(subset_bound(a, field)) == (Fraction(3, 4), (1, 2, 3), (4,), 4)


def test_subset_bound_counts_the_added_column_in_the_rank_bound():
    # At char 2 only column 2 has a nonzero residue row.  A child's rank bound
    # that left out the column it adds would read 0 for {1,2} and drop it,
    # returning all rows at 3/4.
    a = mat([[0, 1], [0, 1], [1, 0]])
    for p in (2, 3):
        assert _witness(subset_bound(a, PrimeField(p))) == (Fraction(2, 3), (1, 2), (5,), 3)


def test_repeated_subset_searches_keep_no_memory():
    # A search that kept something per call would show here as growth, and
    # in the benchmark as peak RSS charged to whichever side runs more passes.
    # Tracing makes each search about 20 times slower, hence three calls.  The
    # first call runs traced, so the interpreter's free lists it fills are
    # counted in ``before``.
    a, field = steiner_triple(13).matrix, PrimeField(3)
    tracemalloc.start()
    try:
        subset_bound(a, field)
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(3):
            subset_bound(a, field)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 4 * 2**10


def test_subset_bound_refusal():
    star = star_composite()
    with pytest.raises(SubsetSearchRefused, match="exact mode refused"):
        subset_bound(star.matrix.transpose(), PrimeField(2))
    # explicit larger limit is honoured
    small = mat([[1], [1]])
    assert subset_bound(small, PrimeField(2), exhaustive_limit=2).bound == Fraction(2, 3)


def test_subset_bound_limited_is_upper_bound_on_exact():
    a = FIG3.matrix.transpose()
    exact = subset_bound(a, PrimeField(3))
    for k in (1, 2, 3, 4):
        limited = subset_bound_limited(a, PrimeField(3), k)
        assert limited.bound >= exact.bound
    assert subset_bound_limited(a, PrimeField(3), 3).bound == exact.bound


def test_subset_dominates_rank_randomly():
    rng = random.Random(17)
    for _ in range(50):
        a = random_01_matrix(rng, 5, 5)
        for p in (2, 3, 5):
            f = PrimeField(p)
            assert subset_bound(a, f).bound <= rank_bound(a, f).bound


def test_family_graph_normal_equals_rank_bound():
    for graph in (FIG4A, complete_graph(4), from_graph(3, [(1, 2), (1, 3), (2, 3)])):
        v, b = graph.num_points, graph.num_blocks
        for p in (2, 3, 5, 7):
            fam = family_bound(graph, "graph-normal", PrimeField(p))
            assert fam.bound == Fraction(v, v + b)
            assert fam.bound == rank_bound(graph.matrix, PrimeField(p)).bound


def test_family_graph_transpose_star_composite():
    star = star_composite()
    expect = {2: Fraction(16, 17), 3: Fraction(11, 12), 5: Fraction(7, 8)}
    for p, want in expect.items():
        res = family_bound(star, "graph-transpose", PrimeField(p))
        assert res.bound == want
    # the declared P' hubs
    assert "P'={2}" in family_bound(star, "graph-transpose", PrimeField(2)).note
    assert "P'={3}" in family_bound(star, "graph-transpose", PrimeField(3)).note
    assert "P'={1}" in family_bound(star, "graph-transpose", PrimeField(5)).note


def test_family_graph_transpose_fig4a():
    res = family_bound(FIG4A, "graph-transpose", PrimeField(2))
    assert res.bound == Fraction(4, 6)
    assert "P'={2,4}" in res.note


def test_family_graph_transpose_inapplicable_when_p_prime_empty():
    k2 = from_graph(2, [(1, 2)])  # both degrees 1
    res = family_bound(k2, "graph-transpose", PrimeField(3))
    assert not res.applicable
    assert res.bound == 1


def test_family_bibd():
    sts7 = steiner_triple(7)
    res = family_bound(sts7, "bibd-normal", PrimeField(3))
    assert res.bound == Fraction(7, 14) == Fraction(6, 5 + 7)
    assert not family_bound(sts7, "bibd-normal", PrimeField(2)).applicable
    # transpose: condition ch does not divide (v-k)/(k-1) = 2
    assert family_bound(sts7, "bibd-transpose", PrimeField(3)).bound == Fraction(7, 14)
    assert not family_bound(sts7, "bibd-transpose", PrimeField(2)).applicable
    with pytest.raises(ValueError):
        family_bound(FIG4A, "bibd-normal", PrimeField(2))


def test_family_tdesign_transpose():
    base = all_subsets_design(4, 3)  # 2-(4,3,2): rho=3, b2=2
    res = family_bound(base, "tdesign-transpose", PrimeField(2))
    assert res.applicable and res.bound == Fraction(4, 8)
    # criterion value [rho-b2+v(b2-1)](rho-b2)^(v-1) = 5, so char 5 fails
    assert not family_bound(base, "tdesign-transpose", PrimeField(5)).applicable


def test_family_higher():
    h = higher_incidence(all_subsets_design(4, 3))
    assert family_bound(h, "higher-normal", PrimeField(3)).bound == Fraction(6, 10)
    assert not family_bound(h, "higher-normal", PrimeField(2)).applicable  # ch | t
    for p in (2, 3):
        res = family_bound(h, "higher-transpose", PrimeField(p))
        assert res.applicable and res.bound == Fraction(4, 10)
    # the check verifies the overlap identities, so the Fano plane (which
    # satisfies them with t=2, lam=3) is accepted and agrees with its
    # bibd-normal bound
    assert family_bound(fano(), "higher-normal", PrimeField(3)).bound == Fraction(1, 2)
    with pytest.raises(ValueError, match="not uniform"):
        family_bound(FIG4A, "higher-normal", PrimeField(3))


@st.composite
def small_incidence_structures(draw):
    """Structures on at most 7 points: all k-subsets, random k-subsets, or random blocks."""
    v = draw(st.integers(1, 7))
    k = draw(st.integers(1, v))
    uniform = list(combinations(range(1, v + 1), k))
    pool = uniform if draw(st.booleans()) else [
        b for size in range(1, v + 1) for b in combinations(range(1, v + 1), size)
    ]
    blocks = draw(st.one_of(st.just(uniform), st.lists(st.sampled_from(pool), min_size=1,
                                                        max_size=12)))
    return IncidenceStructure(v, tuple(blocks))


def higher_family_reference(struct, kind, p):
    """The higher-structure closed forms from their definition, on the numpy Gram."""
    a = np.array(to_lists(struct.matrix))
    col_sums, row_sums = set(a.sum(axis=0).tolist()), set(a.sum(axis=1).tolist())
    if len(col_sums) != 1 or len(row_sums) != 1:
        raise ValueError("not a higher incidence structure: sums not uniform")
    t, lam = col_sums.pop() - 1, row_sums.pop()
    if t < 1 or lam < 2:
        raise ValueError("not a higher incidence structure")
    # Overlaps are 0 or 1 between distinct columns (rows); a diagonal entry is 1 + t (1 + lam-1).
    gram, extra = (a.T @ a, t) if kind == "higher-normal" else (a @ a.T, lam - 1)
    if not np.array_equal(gram, (gram > 0) + extra * np.eye(len(gram), dtype=int)):
        raise ValueError("overlap pattern does not match a higher incidence structure")
    v, b = a.shape
    if extra % p == 0:
        name = "t" if kind == "higher-normal" else "lam-1"
        return BoundResult(Fraction(1), p, f"family:{kind}", applicable=False,
                           note=f"closed form inapplicable: ch divides {name} = {extra}")
    return BoundResult(Fraction(v if kind == "higher-normal" else b, v + b), p, f"family:{kind}")


@settings(max_examples=200, deadline=None)
@given(struct=st.one_of(small_incidence_structures(), st.sampled_from([
           fano(), higher_incidence(all_subsets_design(4, 3)), complete_graph(5)])),
       kind=st.sampled_from(["higher-normal", "higher-transpose"]),
       char=st.sampled_from([2, 3, 5, 7]))
def test_higher_family_bounds_match_the_numpy_gram_definition(struct, kind, char):
    # Either the same result, or the same refusal in the same order.
    try:
        want = higher_family_reference(struct, kind, char)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            family_bound(struct, kind, PrimeField(char))
        assert str(got.value) == str(exc)
    else:
        assert family_bound(struct, kind, PrimeField(char)) == want


def test_family_kind_validation():
    with pytest.raises(ValueError, match="unknown family kind"):
        family_bound(FIG4A, "nonsense", PrimeField(2))


@st.composite
def zero_one_matrices(draw, max_rows=8, max_cols=6):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return IntMatrix.from_rows(rows)


@settings(max_examples=80, deadline=None)
@given(a=zero_one_matrices(), char=st.sampled_from([2, 3, 5]))
def test_limited_search_at_full_size_equals_exact_search(a, char):
    # Same minimiser and tie-break (smaller |S|, then lexicographic) on both paths.
    field = PrimeField(char)
    exact = subset_bound(a, field)
    limited = subset_bound_limited(a, field, a.rows)
    assert (limited.bound, limited.subset, limited.closure, limited.x_s) == (
        exact.bound, exact.subset, exact.closure, exact.x_s
    )
    # Independent reference: the first minimiser in (|S|, lexicographic) order.
    block = bound_matrix(a)
    terms = []
    for size in range(1, a.rows + 1):
        for subset in combinations(range(1, a.rows + 1), size):
            picked = [i - 1 for i in subset + tuple(sorted(closure_columns(a, subset)))]
            x_s = rank_mod_p(block.submatrix(picked, range(block.cols)), field)
            terms.append((Fraction(size, x_s), size, subset))
    best, _, subset = min(terms)
    assert (exact.bound, exact.subset) == (best, subset)


@settings(max_examples=80, deadline=None)
@given(a=zero_one_matrices(), data=st.data())
def test_closure_columns_matches_the_set_definition(a, data):
    # The subset search derives its closures the same way, so the property
    # above relies on this independent check of the definition.
    subset = data.draw(st.sets(st.integers(1, a.rows)), label="subset")
    want = {a.rows + j + 1 for j in range(a.cols)
            if {i + 1 for i in range(a.rows) if a.at(i, j)} <= subset}
    assert closure_columns(a, subset) == want


@st.composite
def sparse_zero_one_matrices(draw, max_rows=9, max_cols=40):
    """Wide matrices with few ones, so most column pairs share no row."""
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    cells = draw(st.sets(st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)),
                         max_size=2 * c))
    return IntMatrix(r, c, tuple([int((i, j) in cells) for i in range(r) for j in range(c)]))


@settings(max_examples=100, deadline=None)
@given(a=st.one_of(zero_one_matrices(max_rows=7, max_cols=8), sparse_zero_one_matrices()),
       char=st.sampled_from([2, 3, 5, 7]))
def test_overlap_facts_match_the_integer_gram(a, char):
    # Reference: the integer Gram A^T A by plain matrix multiplication.
    # Zero rows and zero columns are drawn too.
    rows = np.array(to_lists(a))
    gram = (rows.T @ rows).tolist()
    supp = [[1 if x > 0 else 0 for x in row] for row in gram]
    assert to_lists(support_product(a.transpose(), a)) == supp
    assert support_product(a, mat(np.eye(a.cols, dtype=int))) == a  # not symmetric
    diff = [[(x - s) % char for x, s in zip(row, srow)] for row, srow in zip(gram, supp)]
    residue = overlap_residue(a, PrimeField(char))
    assert residue.diagonal == tuple(diff[j][j] for j in range(a.cols))
    assert residue.is_diagonal == all(
        diff[i][j] == 0 for i in range(a.cols) for j in range(a.cols) if i != j
    )
    assert [row[a.rows:] for row in to_lists(bound_matrix(a))[a.rows:]] == supp
    # The rank bound's defect is the rank of the whole residue, off-diagonal entries included.
    assert rank_bound(a, PrimeField(char)).rank_defect == rank_mod_p(mat(diff), PrimeField(char))


def _brute_force_terms(a, field, max_size):
    """Every (|S|/x_S, |S|, S, closure, x_S) with |S| <= max_size, x_S from the bound matrix."""
    block = bound_matrix(a)
    terms = []
    for size in range(1, min(max_size, a.rows) + 1):
        for subset in combinations(range(1, a.rows + 1), size):
            closure = tuple(sorted(closure_columns(a, subset)))
            picked = [i - 1 for i in subset + closure]
            x_s = rank_mod_p(block.submatrix(picked, range(block.cols)), field)
            terms.append((Fraction(size, x_s), size, subset, closure, x_s))
    return terms


@settings(max_examples=60, deadline=None)
@given(a=zero_one_matrices(max_rows=9, max_cols=11), char=st.sampled_from([2, 3, 5, 7]))
def test_subset_search_matches_brute_force_at_every_size_limit(a, char):
    # Zero rows and zero columns are drawn too: a zero column lies in every closure.
    field = PrimeField(char)
    terms = _brute_force_terms(a, field, a.rows)
    for k in range(1, a.rows + 1):
        value, _, subset, closure, x_s = min(t for t in terms if t[1] <= k)
        got = subset_bound_limited(a, field, k)
        assert (got.bound, got.subset, got.closure, got.x_s) == (value, subset, closure, x_s)
    assert rank_bound(a, field).rank_defect == rank_mod_p(bound_matrix(a), field) - a.rows


def test_limited_subset_search_on_star_composite_pairs():
    # r = 32 rows: the exact search is refused, but |S| <= 2 covers C(32, 2) pairs.
    a = star_composite().matrix.transpose()
    for p in (2, 3):
        field = PrimeField(p)
        value, _, subset, closure, x_s = min(_brute_force_terms(a, field, 2))
        got = subset_bound_limited(a, field, 2)
        assert (got.bound, got.subset, got.closure, got.x_s) == (value, subset, closure, x_s)
