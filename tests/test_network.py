"""Sum-network construction, min cuts, and the graph text format."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG4A_MATRIX, mat, message_offsets, random_01_matrix
from sumnet.gf import IntMatrix
from sumnet.incidence import all_subsets_design, higher_incidence, steiner_triple
from sumnet.instances import INSTANCES
from sumnet.network import (
    SumNetwork,
    _max_flow,
    build_sum_network,
    export_graph,
    feeding_columns,
    import_graph,
    min_cut,
)
from sumnet.report import orient_matrix


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
    # a disconnected pair yields 0, not an error (s_p1 -> tail_e1 severed by hand)
    index = {n: k for k, (n, _) in enumerate(net.nodes)}
    arcs = [(index[e.tail], index[e.head], e.mult) for e in net.edges
            if (e.tail, e.head) != ("s_p1", "tail_e1")]
    assert _max_flow(len(index), arcs, index["s_p1"], index["t_p1"])[0] == 0


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), m=st.integers(1, 5))
def test_feeding_columns_are_the_written_out_coordinates(seed, m):
    # s_p<i>'s m coordinates, then those of each column incident to row i, in order.
    a = random_01_matrix(random.Random(seed), 8, 8)
    offsets = message_offsets(a.rows, a.cols, m)
    for i in range(1, a.rows + 1):
        labels = [f"s_p{i}"] + [f"s_B{j}" for j in range(1, a.cols + 1) if a.at(i - 1, j - 1)]
        assert feeding_columns(a, i, m) == [offsets[s] + k for s in labels for k in range(m)]


GRAPH_STRUCTURES = {
    **{name: INSTANCES[name][1]
       for name in ("k2", "triangle", "fig3", "fig4a", "star-composite", "fano")},
    "sts-7": lambda: steiner_triple(7),
    "sts-9": lambda: steiner_triple(9),
    "sts-13": lambda: steiner_triple(13),
    "higher-2-(4,3,2)": lambda: higher_incidence(all_subsets_design(4, 3)),
}

# (structure, orientation, alpha) -> SHA-256 of the network's export_graph text:
# node order, edge order and every attribute, byte for byte.
GRAPH_LADDER = {
    ("k2", "normal", 1):
        "d86862ca8bab4f41ccbe5c0698452bd0ffd3e8b61dd42e179dbae8d4936ee000",
    ("k2", "normal", 3):
        "1506e4cf760cf031eb2747772fed1835829b27c86d26c6c51d0be237802f3746",
    ("k2", "transpose", 1):
        "3ac8e7c8daa292d09cb4ab47adbfe2f3fdafcfa6e90b3128be2e745cdcfdf063",
    ("k2", "transpose", 3):
        "ff43a4903a0cbfa902eabf241d5eba4b094a845c141f353981e4c9bf9bbf9746",
    ("triangle", "normal", 1):
        "96a5efd332f5a23b817cbee6450566a36954a869193d8c9f132beb5207564dbd",
    ("triangle", "normal", 3):
        "25069e11bc65d13f66c32cfca2dedd304054495128c92151d16414b59bd458f7",
    ("triangle", "transpose", 1):
        "96a5efd332f5a23b817cbee6450566a36954a869193d8c9f132beb5207564dbd",
    ("triangle", "transpose", 3):
        "25069e11bc65d13f66c32cfca2dedd304054495128c92151d16414b59bd458f7",
    ("fig3", "normal", 1):
        "a3f460063a994be6cf7ba6ffedc3f1b70348068eca764ed70d1d3ecae995f9a3",
    ("fig3", "normal", 3):
        "f9c7e0e56117c8e75ba83aff0a221ed1fd2350f75be0bb298c5eeedcbb14e069",
    ("fig3", "transpose", 1):
        "2350f58d5ca716b9764ebd936e92d6e1c433d4c4d540f52acfba0b3ef869b479",
    ("fig3", "transpose", 3):
        "8e1e252788bfbaea3701287ccda273104f6de6e2a1076212386c056532ec54d6",
    ("fig4a", "normal", 1):
        "bc9b716b2bdb225b67eb3ecbbbde1d3e8b43708af9c20c865434ce57c35d36f7",
    ("fig4a", "normal", 3):
        "19e06188a92397777f928f2eb82df0c4d47369162b21bb5bf3e8e5d507fb9b40",
    ("fig4a", "transpose", 1):
        "665361972c58868954ea5efac6d230c84412aef71c23ddcaca89b0daad2dcdbd",
    ("fig4a", "transpose", 3):
        "3f8b2354ae9af0d374cc37a5db0a44196eceff3c045ad3040a57cd0ba9b40923",
    ("star-composite", "normal", 1):
        "6cf6d57556aa4fcd2870d69934c605afd86e3ca863d71c22c9210d341ab63b41",
    ("star-composite", "normal", 3):
        "6617232e510dd713a118a5d30288dd64e3a8658e60ca21584086d8ecfef5cb42",
    ("star-composite", "transpose", 1):
        "fdc555ac20147c7a3b3cdae83eac689117e7b1e1b3138f280d078f800cbcb7a7",
    ("star-composite", "transpose", 3):
        "bf17f90090710654ab52db0b099acc0d6c935572672c5d60490973c0fdab2bed",
    ("fano", "normal", 1):
        "813516f4411fdf9b0d8d2580d580350e0e74a907522c4908dc569de77b348fec",
    ("fano", "normal", 3):
        "870e26694a83fd1b230607d5f639af41bdd000470832c2851b032e79d6030390",
    ("fano", "transpose", 1):
        "6a3a9edb14e2e9187ae0575d11d40f382241d7fa03e40b2a84263573a2ca9f01",
    ("fano", "transpose", 3):
        "5c3723d83fa01bdc487bcf87d798c91b1af8bd024ef539cbf50fce930174ede6",
    ("sts-7", "normal", 1):
        "09c6cd9b515574c83b013314f90f2f577ffc71081af44073d3ba1ffc748917cd",
    ("sts-7", "normal", 3):
        "176582dbb459a62bb831ab4cf8156e13d16b43fb6c954a4a4977790d67fe2d71",
    ("sts-7", "transpose", 1):
        "242bb6b6cc096f3813f087b25fa782f82a49a1e53951ab877d4a679f333a38c4",
    ("sts-7", "transpose", 3):
        "df3259405d95542c591ecef5161439feff1dd31f6c720ec0a74efda623295a0e",
    ("sts-9", "normal", 1):
        "b347c43dc6b9c699dba2213bddfc0ce2a48152060e7c4b85756854751eb35603",
    ("sts-9", "normal", 3):
        "f4825d9616c58b6faa773b8b5c743d7f56f43b0fe64f515ae169afb4349e41ad",
    ("sts-9", "transpose", 1):
        "86c46035dd2d972ba2c3d81d00ec80fd40410eff656dbc057f1711b7a9a8e052",
    ("sts-9", "transpose", 3):
        "4ebb5f0875136f1e46f3aa7f077bd235ecee210a266201ad7ce8793d4da2e5c7",
    ("sts-13", "normal", 1):
        "4b9817b1b874345cba934db597658050f83585053cbaf3c0bf3d8dd9fce640b3",
    ("sts-13", "normal", 3):
        "9279958a80a6a8b96a868d662b0632f2f9d4cd482b95cbb720a06fed057f331e",
    ("sts-13", "transpose", 1):
        "f83c1f8f3bcefbe75c3f3e3b2e338a79d5adb04a54f795b0caac4ceea14f29b2",
    ("sts-13", "transpose", 3):
        "779a28b9b3a2f161edb077da7bf85075eb531e0759e9c25d1c21d4d0be059acc",
    ("higher-2-(4,3,2)", "normal", 1):
        "68027e16b3b7e2fee684f7a7d073196ef97f466be962126e755b9fe21c998f77",
    ("higher-2-(4,3,2)", "normal", 3):
        "0183f751d4074a760e9f4f727d1b19b49d184b97b64003deb5242cec5e4c5b95",
    ("higher-2-(4,3,2)", "transpose", 1):
        "1a37efd74c61dafe3557fe4171cec8afb6a52af358b80274135c020e57893ed8",
    ("higher-2-(4,3,2)", "transpose", 3):
        "140da594173bd578c88241d0e78ed82874169db2253694233126ae4012cc1fb5",
}


@pytest.mark.parametrize("key", list(GRAPH_LADDER), ids=lambda k: "-".join(map(str, k)))
def test_export_graph_bytes_are_pinned(key):
    name, orientation, alpha = key
    net = build_sum_network(orient_matrix(GRAPH_STRUCTURES[name](), orientation), alpha)
    assert hashlib.sha256(export_graph(net).encode()).hexdigest() == GRAPH_LADDER[key]
