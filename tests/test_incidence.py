"""Incidence structures, designs, and their constructors."""

import math
from itertools import combinations

import pytest

from conftest import FANO_MATRIX, FIG4A_MATRIX, to_lists
from sumnet.incidence import (
    IncidenceStructure,
    all_subsets_design,
    complete_graph,
    detect_design,
    fano,
    from_graph,
    higher_incidence,
    parse_blocks_text,
    parse_matrix_text,
    render_blocks_text,
    render_matrix_text,
    star_composite,
    steiner_triple,
    validate_design,
)


def pairs_covered_once(struct) -> bool:
    """Oracle for Steiner systems: full enumeration of all point pairs."""
    count = {}
    for block in struct.blocks:
        for pair in combinations(block, 2):
            count[pair] = count.get(pair, 0) + 1
    every = combinations(range(1, struct.num_points + 1), 2)
    return all(count.get(pair, 0) == 1 for pair in every)


def test_from_graph_k2():
    k2 = from_graph(2, [(1, 2)])
    assert to_lists(k2.matrix) == [[1], [1]]


def test_from_graph_fig4a_matrix():
    g = from_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    assert to_lists(g.matrix) == FIG4A_MATRIX


def test_from_graph_triangle_symmetric():
    tri = from_graph(3, [(1, 2), (1, 3), (2, 3)])
    assert to_lists(tri.matrix) == to_lists(tri.matrix.transpose())


def test_from_graph_rejects_loops_and_duplicates():
    with pytest.raises(ValueError):
        from_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_graph(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        from_graph(2, [(1, 3)])


def test_structure_invariants():
    with pytest.raises(ValueError):
        IncidenceStructure(3, ((),))  # empty block
    with pytest.raises(ValueError):
        IncidenceStructure(2, ((1, 4),))  # out of range
    s = IncidenceStructure(3, ((2, 1), (3,)))
    assert s.blocks == ((1, 2), (3,))  # normalized ordering
    # matrix and block views agree entrywise
    for i in range(s.num_points):
        for j, block in enumerate(s.blocks):
            assert s.matrix.at(i, j) == (1 if i + 1 in block else 0)


def test_fano_matches_fixed_matrix():
    f = fano()
    assert to_lists(f.matrix) == FANO_MATRIX
    assert f.blocks[0] == (1, 2, 3)  # column A
    assert all(sum(f.matrix.row(i)) == 3 for i in range(7))
    assert all(sum(f.matrix.col(j)) == 3 for j in range(7))


def test_fano_is_2_7_3_1():
    params = validate_design(fano(), 2)
    assert params is not None
    assert (params.t, params.v, params.k, params.lam, params.rho) == (2, 7, 3, 1, 3)
    assert params.block_counts == (7, 3, 1)


@pytest.mark.parametrize("v,b", [(7, 7), (9, 12), (13, 26), (15, 35)])
def test_steiner_triple_small(v, b):
    sts = steiner_triple(v)
    assert sts.num_blocks == b
    assert pairs_covered_once(sts)
    params = validate_design(sts, 2)
    assert params is not None and params.lam == 1 and params.k == 3


@pytest.mark.parametrize("v", [19, 21, 25, 27, 31])
def test_steiner_triple_larger(v):
    assert pairs_covered_once(steiner_triple(v))


@pytest.mark.parametrize("v", [6, 8, 11, 5])
def test_steiner_triple_infeasible(v):
    with pytest.raises(ValueError, match="1 or 3"):
        steiner_triple(v)


def test_validate_design_k4():
    params = validate_design(complete_graph(4), 1)
    assert params is not None
    assert (params.t, params.v, params.k, params.lam, params.rho) == (1, 4, 2, 3, 3)


def test_validate_design_irregular_graph():
    g = from_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    assert validate_design(g, 1) is None  # degrees 3,2,3,2


@pytest.mark.parametrize("v", range(1, 8))
def test_all_subsets_design_lambda_is_a_binomial(v):
    # The CLI decides design specs by this arithmetic instead of building them.
    for k in range(1, v + 1):
        struct = all_subsets_design(v, k)
        for t in range(1, v + 2):
            params = validate_design(struct, t)
            if t <= k:
                assert params is not None and params.lam == math.comb(v - t, k - t)
            else:
                assert params is None


def test_detect_design():
    assert detect_design(fano()).t == 2
    # K4 is the trivial 2-(4,2,1) design, so t = 2 beats the 1-design view
    assert detect_design(complete_graph(4)).t == 2
    assert detect_design(all_subsets_design(4, 3)).t == 3  # lam = C(1,0) = 1 at t=3


def test_higher_incidence_2_4_3_2():
    base = all_subsets_design(4, 3)
    h = higher_incidence(base)
    assert (h.matrix.rows, h.matrix.cols) == (6, 4)
    assert all(sum(h.matrix.row(i)) == 2 for i in range(6))
    assert all(sum(h.matrix.col(j)) == 3 for j in range(4))
    # oracle: direct subset enumeration
    pairs = list(combinations(range(1, 5), 2))
    for i, pair in enumerate(pairs):
        for j, block in enumerate(base.blocks):
            assert h.matrix.at(i, j) == (1 if set(pair) <= set(block) else 0)
    # two distinct rows share at most one column
    for i1 in range(6):
        for i2 in range(i1 + 1, 6):
            shared = sum(
                h.matrix.at(i1, j) * h.matrix.at(i2, j) for j in range(4)
            )
            assert shared <= 1


def test_higher_incidence_rejects():
    with pytest.raises(ValueError, match="lam != 1"):
        higher_incidence(fano())
    with pytest.raises(ValueError):
        higher_incidence(from_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]))


def test_transpose_line_graph():
    k2 = from_graph(2, [(1, 2)])
    t = k2.transpose()
    assert to_lists(t.matrix) == [[1, 1]]
    assert not t.is_simple()  # both blocks equal {1}


def test_transpose_triangle_self():
    tri = from_graph(3, [(1, 2), (1, 3), (2, 3)])
    assert to_lists(tri.transpose().matrix) == to_lists(tri.matrix)


def test_transpose_involution():
    for struct in (fano(), from_graph(2, [(1, 2)]), complete_graph(4)):
        assert struct.transpose().transpose() == struct


def test_transpose_rejects_uncovered_point():
    g = from_graph(3, [(1, 2)])  # vertex 3 isolated
    with pytest.raises(ValueError, match="no block"):
        g.transpose()


def test_star_composite_shape():
    star = star_composite()
    assert star.num_points == 33
    assert star.num_blocks == 32
    assert star.point_degree(1) == 7
    assert star.point_degree(2) == 16
    assert star.point_degree(3) == 11
    assert all(star.point_degree(p) == 1 for p in range(4, 34))


def test_matrix_text_round_trip():
    for struct in (fano(), from_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])):
        text = render_matrix_text(struct)
        back = parse_matrix_text(text)
        assert back == struct
        assert render_matrix_text(back) == text


def test_blocks_text_round_trip():
    struct = steiner_triple(9)
    text = render_blocks_text(struct)
    back = parse_blocks_text(text)
    assert back == struct
    assert render_blocks_text(back) == text


def test_parse_matrix_text_errors():
    with pytest.raises(ValueError):
        parse_matrix_text("")
    with pytest.raises(ValueError):
        parse_matrix_text("2 2\n10\n")
    with pytest.raises(ValueError):
        parse_matrix_text("2 2\n12\n01\n")
    with pytest.raises(ValueError, match="empty"):
        parse_matrix_text("2 2\n10\n10\n")
