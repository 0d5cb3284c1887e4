"""Sum-network construction, min cuts, and the graph text format."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG4A_MATRIX, mat, message_offsets, random_01_matrix
from sumnet.gf import IntMatrix
from sumnet.network import (
    SumNetwork,
    build_sum_network,
    export_graph,
    feeding_columns,
    import_graph,
    min_cut,
    source_offset,
)


def bottleneck_count(net: SumNetwork) -> int:
    return sum(1 for e in net.edges if e.bottleneck)


def cut_oracle(net: SumNetwork, source: str, terminal: str) -> int:
    """Exhaustive cut enumeration over all node bipartitions."""
    names = [n for n, _ in net.nodes]
    others = [n for n in names if n not in (source, terminal)]
    best = None
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            side = {source, *extra}
            value = sum(e.mult for e in net.edges if e.tail in side and e.head not in side)
            if best is None or value < best:
                best = value
    return best


def toposort_exists(net: SumNetwork) -> bool:
    indeg = {n: 0 for n, _ in net.nodes}
    for e in net.edges:
        indeg[e.head] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for e in net.edges:
            if e.tail == u:
                indeg[e.head] -= 1
                if indeg[e.head] == 0:
                    ready.append(e.head)
    return seen == len(net.nodes)


def test_k2_normal_shape():
    net = build_sum_network(mat([[1], [1]]))
    assert len(net.sources()) == 3
    assert len(net.terminals()) == 3
    assert bottleneck_count(net) == 2
    assert len(net.nodes) == 2 * (2 + 1) + 2 * 2


def test_k2_transpose_shape():
    net = build_sum_network(mat([[1, 1]]))
    assert len(net.sources()) == 3
    assert len(net.terminals()) == 3
    assert bottleneck_count(net) == 1


def test_fano_network_shape():
    from sumnet.incidence import fano

    net = build_sum_network(fano().matrix)
    assert len(net.sources()) == 14
    assert len(net.terminals()) == 14
    assert bottleneck_count(net) == 7


def test_dag_and_source_terminal_degrees():
    net = build_sum_network(mat(FIG4A_MATRIX))
    assert toposort_exists(net)
    sources = set(net.sources())
    terminals = set(net.terminals())
    for e in net.edges:
        assert e.head not in sources
        assert e.tail not in terminals


def test_bottleneck_neighborhoods_follow_matrix():
    a = mat(FIG4A_MATRIX)
    net = build_sum_network(a)
    for i in range(1, a.rows + 1):
        into_tail = {e.tail for e in net.edges if e.head == f"tail_e{i}"}
        want = {f"s_p{i}"} | {
            f"s_B{j}" for j in range(1, a.cols + 1) if a.at(i - 1, j - 1)
        }
        assert into_tail == want
        out_of_head = {e.head for e in net.edges if e.tail == f"head_e{i}"}
        want = {f"t_p{i}"} | {
            f"t_B{j}" for j in range(1, a.cols + 1) if a.at(i - 1, j - 1)
        }
        assert out_of_head == want


def test_direct_edges_follow_matrix():
    a = mat(FIG4A_MATRIX)
    net = build_sum_network(a)
    # row terminal 1: direct from other row sources and zero-column sources
    into = {e.tail for e in net.edges if e.head == "t_p1" and e.tail.startswith("s")}
    assert into == {"s_p2", "s_p3", "s_p4", "s_B2", "s_B3"}
    # column terminal 1 (block {1,2}): zero rows 3,4 and the disjoint block C
    into = {e.tail for e in net.edges if e.head == "t_B1" and e.tail.startswith("s")}
    assert into == {"s_p3", "s_p4", "s_B3"}


def test_edge_count_formula():
    for rows in ([[1], [1]], FIG4A_MATRIX, [[1, 1, 0], [1, 0, 1], [0, 1, 1]]):
        a = mat(rows)
        net = build_sum_network(a)
        r, c = a.rows, a.cols
        nnz = a.nonzero_count()
        zeros = r * c - nnz
        disjoint_pairs = sum(
            1
            for j in range(c)
            for jp in range(c)
            if j != jp and all(a.at(i, j) * a.at(i, jp) == 0 for i in range(r))
        )
        expected = r + (r + nnz) + (r + nnz) + r * (r - 1) + 2 * zeros + disjoint_pairs
        assert len(net.edges) == expected


def test_rejects_bad_matrices():
    with pytest.raises(ValueError, match="0 or 1"):
        build_sum_network(mat([[2]]))
    with pytest.raises(ValueError, match="all zero"):
        build_sum_network(mat([[1, 0], [0, 0]]))
    with pytest.raises(ValueError, match="column 2"):
        build_sum_network(mat([[1, 0], [1, 0]]))
    with pytest.raises(ValueError):
        build_sum_network(mat([[1]]), alpha=0)


def test_alpha_lift_topology():
    a = mat(FIG4A_MATRIX)
    base = build_sum_network(a)
    lifted = build_sum_network(a, alpha=3)
    assert lifted.nodes == base.nodes
    assert [(e.tail, e.head, e.bottleneck) for e in lifted.edges] == [
        (e.tail, e.head, e.bottleneck) for e in base.edges
    ]
    assert all(e.mult == 3 for e in lifted.edges)


def test_min_cut_k2_against_oracle():
    net = build_sum_network(mat([[1], [1]]))
    assert min_cut(net, "s_p1", "t_p1") == cut_oracle(net, "s_p1", "t_p1") == 1
    assert min_cut(net, "s_B1", "t_B1") == cut_oracle(net, "s_B1", "t_B1") == 2
    assert min_cut(net, "s_p1", "t_B1") == cut_oracle(net, "s_p1", "t_B1") == 1


def test_min_cut_scales_with_alpha():
    a = mat([[1], [1]])
    base = build_sum_network(a)
    lifted = build_sum_network(a, alpha=2)
    for s in base.sources():
        for t in base.terminals():
            assert min_cut(lifted, s, t) == 2 * min_cut(base, s, t)


def test_min_cut_at_least_alpha_everywhere():
    for rows, alpha in ([[[1], [1]], 1], [FIG4A_MATRIX, 2]):
        net = build_sum_network(mat(rows), alpha=alpha)
        for s in net.sources():
            for t in net.terminals():
                assert min_cut(net, s, t) >= alpha


def test_min_cut_role_validation_and_disconnection():
    net = build_sum_network(mat([[1], [1]]))
    with pytest.raises(ValueError):
        min_cut(net, "t_p1", "t_p2")
    with pytest.raises(ValueError):
        min_cut(net, "s_p1", "s_p2")
    # a disconnected pair yields 0, not an error (severed by hand)
    pruned = SumNetwork(
        net.matrix,
        net.alpha,
        net.nodes,
        tuple(e for e in net.edges if not (e.tail == "s_p1" and e.head == "tail_e1")),
    )
    assert min_cut(pruned, "s_p1", "t_p1") == 0


def test_transpose_matrix_swaps_roles():
    a = mat(FIG4A_MATRIX)
    normal = build_sum_network(a)
    transposed = build_sum_network(a.transpose())
    assert bottleneck_count(transposed) == a.cols
    assert bottleneck_count(normal) == a.rows
    assert len(normal.sources()) == len(transposed.sources())


def test_graph_export_round_trip():
    for rows in ([[1], [1]], FIG4A_MATRIX):
        for alpha in (1, 2):
            net = build_sum_network(mat(rows), alpha=alpha)
            text = export_graph(net)
            back = import_graph(text)
            assert export_graph(back) == text
            assert back.matrix == net.matrix and back.alpha == net.alpha


def test_graph_export_marks_bottlenecks():
    net = build_sum_network(mat([[1], [1]]))
    text = export_graph(net)
    assert "bottleneck=1" in text and "bottleneck=2" in text
    assert text.count("->") == len(net.edges)


def test_import_rejects_tampered_text():
    net = build_sum_network(mat([[1], [1]]))
    text = export_graph(net)
    lines = text.splitlines()
    # blank lines and indentation are not part of the format
    spaced = "\n\n".join("    " * (k % 3) + ln.strip() for k, ln in enumerate(lines))
    assert export_graph(import_graph(spaced)) == text
    tampered = [
        # a direct edge line dropped
        "\n".join(ln for ln in lines if "s_p2 -> t_p1" not in ln),
        # the bottleneck edge with its attributes in another order
        text.replace("[mult=1 bottleneck=1]", "[bottleneck=1 mult=1]"),
        # no digraph opening and closing lines
        "\n".join(lines[1:-1]),
        # a header far larger than the file
        text.replace("rows=2 cols=1", "rows=1000000 cols=1000000"),
    ]
    for bad in tampered:
        assert bad != text
        with pytest.raises(ValueError, match="does not describe"):
            import_graph(bad)


def test_terminal_inputs_order():
    a = mat(FIG4A_MATRIX)
    net = build_sum_network(a)
    assert net.inputs["t_p1"] == ["e1", "s_p2", "s_p3", "s_p4", "s_B2", "s_B3"]
    assert net.inputs["t_B1"] == ["e1", "e2", "s_p3", "s_p4", "s_B3"]
    assert net.inputs["t_B5"] == ["e1", "e3", "s_p2", "s_p4"]
    assert list(net.inputs) == net.terminals()


@st.composite
def matrices_without_zero_lines(draw):
    r = draw(st.integers(1, 6))
    c = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=c, max_size=c),
                         min_size=r, max_size=r))
    for row in rows:
        if not any(row):
            row[draw(st.integers(0, c - 1))] = 1
    for j in range(c):
        if not any(row[j] for row in rows):
            rows[draw(st.integers(0, r - 1))][j] = 1
    return IntMatrix.from_rows(rows)


@settings(max_examples=80, deadline=None)
@given(a=matrices_without_zero_lines())
def test_terminal_inputs_are_the_in_edges_and_the_unseen_sources(a):
    net = build_sum_network(a)
    r, c = a.rows, a.cols
    for terminal in net.terminals():
        got = net.inputs[terminal]
        # The in-edges, in edge order, with a relay head named by its bottleneck.
        in_edges = [e.tail.replace("head_", "") for e in net.edges if e.head == terminal]
        assert got == in_edges
        # The set definition: incident bottlenecks, then every source they do not carry.
        k = int(terminal[3:])
        if terminal.startswith("t_p"):
            incident = [k]
        else:
            incident = [i for i in range(1, r + 1) if a.at(i - 1, k - 1)]
        seen_rows = set(incident)
        seen_cols = {j for i in incident for j in range(1, c + 1) if a.at(i - 1, j - 1)}
        want = [f"e{i}" for i in incident]
        want += [f"s_p{i}" for i in range(1, r + 1) if i not in seen_rows]
        want += [f"s_B{j}" for j in range(1, c + 1) if j not in seen_cols]
        assert got == want


@settings(max_examples=80, deadline=None)
@given(r=st.integers(1, 30), c=st.integers(1, 30), m=st.integers(1, 40))
def test_source_offset_is_the_written_out_layout(r, c, m):
    want = message_offsets(r, c, m)
    assert len(want) == r + c
    for label, offset in want.items():
        assert source_offset(r, m, label) == offset


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), m=st.integers(1, 5))
def test_feeding_columns_are_the_written_out_coordinates(seed, m):
    # s_p<i>'s m coordinates, then those of each column incident to row i, in order.
    a = random_01_matrix(random.Random(seed), 8, 8)
    offsets = message_offsets(a.rows, a.cols, m)
    for i in range(1, a.rows + 1):
        labels = [f"s_p{i}"] + [f"s_B{j}" for j in range(1, a.cols + 1) if a.at(i - 1, j - 1)]
        assert feeding_columns(a, i, m) == [offsets[s] + k for s in labels for k in range(m)]
