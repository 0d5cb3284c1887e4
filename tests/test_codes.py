"""Code construction: transfer matrices, the three builders, and the lift."""

import contextlib
import random
import signal
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIG4A_MATRIX,
    FIG4A_TRANSFER,
    TRIANGLE_PLUS_EDGE,
    TWO_STARS,
    codes_equal,
    mat,
    random_01_matrix,
    reference_code,
    reference_exhaustive,
    to_lists,
    transfer_feasible_bruteforce,
)
from sumnet.codes import (
    NoApplicableCode,
    build_graph_transpose_code,
    build_scalar_code,
    build_transfer_code,
    check_transfer_matrix,
    export_code,
    find_margin_matrix,
    find_transfer_matrix,
    import_code,
    lift_code,
    overlap_residue,
)
from sumnet.gf import PrimeField
from sumnet.incidence import (
    IncidenceStructure,
    all_subsets_design,
    fano,
    from_graph,
    higher_incidence,
    star_composite,
    steiner_triple,
)
from sumnet.bounds import family_bound, subset_bound
from sumnet.network import build_sum_network
from sumnet.report import applicable_bounds, best_bound, generate_code, orient_matrix
from sumnet.verify import verify_exact

FIG4A = from_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
K2 = from_graph(2, [(1, 2)])
TRIANGLE = from_graph(3, [(1, 2), (1, 3), (2, 3)])


# ---------------------------------------------------------------------------
# overlap residue


def test_overlap_residue_graphs():
    for graph in (K2, TRIANGLE, FIG4A):
        for p in (2, 3, 5):
            res = overlap_residue(graph.matrix, PrimeField(p))
            assert res.is_diagonal
            assert all(x == 1 % p for x in res.diagonal)
            assert res.all_nonzero()


def test_overlap_residue_bibd():
    a = fano().matrix  # k = 3, diagonal residue k-1 = 2
    res2 = overlap_residue(a, PrimeField(2))
    assert res2.is_diagonal and res2.is_zero()
    res3 = overlap_residue(a, PrimeField(3))
    assert res3.is_diagonal and res3.all_nonzero()
    assert all(x == 2 for x in res3.diagonal)


def test_overlap_residue_not_diagonal():
    a = all_subsets_design(4, 3).matrix  # blocks pairwise share 2 points
    for p in (2, 3, 5):
        assert not overlap_residue(a, PrimeField(p)).is_diagonal


# ---------------------------------------------------------------------------
# transfer matrices


def test_find_transfer_matrix_k2_forced():
    d = find_transfer_matrix(mat([[1], [1]]))
    assert to_lists(d) == [[1], [1]]


def test_find_transfer_matrix_fig4a():
    a = mat(FIG4A_MATRIX)
    d = find_transfer_matrix(a)
    assert d is not None
    check_transfer_matrix(d, a)


def test_known_transfer_matrix_validates():
    check_transfer_matrix(mat(FIG4A_TRANSFER), mat(FIG4A_MATRIX))


def test_check_transfer_matrix_errors():
    a = mat(FIG4A_MATRIX)
    bad_support = [row[:] for row in FIG4A_TRANSFER]
    bad_support[0][1] = 1
    bad_support[0][0] -= 1
    with pytest.raises(ValueError, match="outside the support"):
        check_transfer_matrix(mat(bad_support), a)
    bad_sum = [row[:] for row in FIG4A_TRANSFER]
    bad_sum[0][0] += 1
    with pytest.raises(ValueError, match="row 1 sums"):
        check_transfer_matrix(mat(bad_sum), a)
    with pytest.raises(ValueError, match="shape"):
        check_transfer_matrix(mat([[1]]), a)


def test_transfer_infeasible_triangle_plus_edge():
    a = mat(TRIANGLE_PLUS_EDGE)
    assert find_transfer_matrix(a) is None
    assert not transfer_feasible_bruteforce(a)


def test_transfer_infeasible_two_stars():
    a = mat(TWO_STARS)
    assert find_transfer_matrix(a) is None
    assert not transfer_feasible_bruteforce(a)


def test_transfer_feasible_identity_and_triangular():
    i2 = mat(np.eye(2, dtype=int))
    d = find_transfer_matrix(i2)
    assert to_lists(d) == [[2, 0], [0, 2]]
    assert transfer_feasible_bruteforce(i2)
    upper = mat([[1, 1], [0, 1]])
    assert transfer_feasible_bruteforce(upper) == (find_transfer_matrix(upper) is not None)


def test_bruteforce_refuses_large():
    big = mat(np.eye(13, dtype=int))
    with pytest.raises(ValueError, match="refusing"):
        transfer_feasible_bruteforce(big)


def test_flow_agrees_with_bruteforce_randomly():
    rng = random.Random(23)
    for _ in range(80):
        a = random_01_matrix(rng, 5, 5)
        found = find_transfer_matrix(a)
        assert (found is not None) == transfer_feasible_bruteforce(a)
        if found is not None:
            check_transfer_matrix(found, a)


def test_find_margin_matrix_submatrix_case():
    # B' x P' submatrix of the transposed irregular graph at char 2
    sub = mat([[1, 0], [1, 0], [0, 1], [0, 1]])
    d = find_margin_matrix(sub, 2, 4)
    assert d is not None
    check_transfer_matrix(d, sub, row_total=2, col_total=4)
    assert find_margin_matrix(sub, 3, 4) is None  # inconsistent totals


# ---------------------------------------------------------------------------
# the three constructions


def test_transfer_code_k2_matches_reference():
    for p in (2, 3, 5):
        gen = build_transfer_code(K2.matrix, PrimeField(p))
        assert gen.rate == Fraction(2, 3)
        assert codes_equal(gen, reference_code("k2-normal", p))


def test_transfer_code_rates_and_verification():
    cases = [
        (FIG4A.matrix, 3, Fraction(4, 9)),
        (TRIANGLE.matrix, 2, Fraction(3, 6)),
        (steiner_triple(7).matrix, 3, Fraction(7, 14)),
    ]
    for a, p, want in cases:
        code = build_transfer_code(a, PrimeField(p))
        assert code.rate == want
        assert verify_exact(build_sum_network(a), code).ok


def test_transfer_code_precondition_failures():
    with pytest.raises(NoApplicableCode, match="zero diagonal"):
        build_transfer_code(fano().matrix, PrimeField(2))
    with pytest.raises(NoApplicableCode, match="off-diagonal"):
        build_transfer_code(all_subsets_design(4, 3).matrix, PrimeField(3))
    with pytest.raises(NoApplicableCode, match="transfer matrix"):
        build_transfer_code(mat(TRIANGLE_PLUS_EDGE), PrimeField(3))


def test_scalar_code_fano_char2():
    code = build_scalar_code(fano().matrix, PrimeField(2))
    assert code.rate == 1
    assert verify_exact(build_sum_network(fano().matrix), code).ok


def test_scalar_code_higher_char2():
    h = higher_incidence(all_subsets_design(4, 3))
    code = build_scalar_code(h.matrix, PrimeField(2))  # ch divides t = 2
    assert verify_exact(build_sum_network(h.matrix), code).ok


def test_scalar_code_builds_at_any_prime():
    # Its entries are 0 and 1, so even p >= 2^63 builds; the verifiers refuse it.
    p = 9223372036854775837
    a = K2.matrix.transpose()
    code = build_scalar_code(a, PrimeField(p))
    assert (code.m, code.n, code.p) == (1, 1, p)
    assert all(enc.max() == 1 for enc in code.encoders)
    with pytest.raises(ValueError, match=r"\(p-1\)\^2 \* 3 must stay below 2\^63"):
        verify_exact(build_sum_network(a), code)


def test_scalar_code_precondition():
    with pytest.raises(NoApplicableCode, match="not congruent"):
        build_scalar_code(TRIANGLE.matrix, PrimeField(2))


def test_graph_transpose_code_fig4a():
    code = build_graph_transpose_code(FIG4A, PrimeField(2))
    assert (code.m, code.n) == (4, 6)
    net = build_sum_network(FIG4A.matrix.transpose())
    assert verify_exact(net, code).ok


def test_graph_transpose_code_star_composite():
    star = star_composite()
    net = build_sum_network(star.matrix.transpose())
    for p, want in ((2, Fraction(16, 17)), (3, Fraction(11, 12)), (5, Fraction(7, 8))):
        code = build_graph_transpose_code(star, PrimeField(p))
        assert code.rate == want
        assert verify_exact(net, code).ok


def test_graph_transpose_code_when_p_prime_empty():
    with pytest.raises(NoApplicableCode, match="scalar code applies"):
        build_graph_transpose_code(K2, PrimeField(2))


def test_encoder_locality():
    code = build_transfer_code(FIG4A.matrix, PrimeField(3))
    a = FIG4A.matrix
    m = code.m
    for i in range(1, a.rows + 1):
        allowed = set()
        allowed.update(range((i - 1) * m, i * m))
        for j in range(1, a.cols + 1):
            if a.at(i - 1, j - 1):
                off = (a.rows + j - 1) * m
                allowed.update(range(off, off + m))
        enc = code.encoders[i - 1]
        for col in range(enc.shape[1]):
            if col not in allowed:
                assert not enc[:, col].any()


# ---------------------------------------------------------------------------
# alpha lift


def test_lift_identity():
    code = build_transfer_code(K2.matrix, PrimeField(2))
    assert lift_code(code, 1) is code


def test_lift_k2_rate():
    code = lift_code(build_transfer_code(K2.matrix, PrimeField(2)), 2)
    assert code.rate == Fraction(4, 3)
    net = build_sum_network(K2.matrix, alpha=2)
    assert verify_exact(net, code).ok


def test_lift_fig4a_alpha3():
    code = lift_code(build_transfer_code(FIG4A.matrix, PrimeField(3)), 3)
    assert code.rate == Fraction(12, 9)
    net = build_sum_network(FIG4A.matrix, alpha=3)
    assert verify_exact(net, code).ok


def test_lift_other_families():
    scalar = lift_code(build_scalar_code(fano().matrix, PrimeField(2)), 3)
    assert scalar.rate == 3
    assert verify_exact(build_sum_network(fano().matrix, alpha=3), scalar).ok
    gt = lift_code(build_graph_transpose_code(FIG4A, PrimeField(2)), 2)
    assert gt.rate == Fraction(8, 6)
    assert verify_exact(build_sum_network(FIG4A.matrix.transpose(), alpha=2), gt).ok


def test_lift_rejects_relift():
    lifted = lift_code(build_transfer_code(K2.matrix, PrimeField(2)), 2)
    with pytest.raises(ValueError, match="alpha = 1"):
        lift_code(lifted, 2)
    with pytest.raises(ValueError):
        lift_code(build_transfer_code(K2.matrix, PrimeField(2)), 0)


# ---------------------------------------------------------------------------
# code file format


def test_code_export_round_trip():
    codes = [
        build_transfer_code(K2.matrix, PrimeField(2)),
        build_scalar_code(fano().matrix, PrimeField(2)),
        build_graph_transpose_code(FIG4A, PrimeField(2)),
        lift_code(build_transfer_code(K2.matrix, PrimeField(3)), 2),
    ]
    for code in codes:
        text = export_code(code)
        back = import_code(text)
        assert codes_equal(code, back)
        assert export_code(back) == text


def test_import_code_rejects_garbage():
    with pytest.raises(ValueError, match="not a code file"):
        import_code("hello\n")
    good = export_code(build_transfer_code(K2.matrix, PrimeField(2)))
    with pytest.raises(ValueError):
        import_code(good.replace("end", ""))


@pytest.mark.parametrize("line,replacement,expected", [
    ("n 3", "m 2", "'n' at line 3"),
    ("p 2", "q 2", "'p' at line 4"),
    ("cols 1", "cols", "'cols' at line 7"),
    ("alpha 1", "end", "'alpha' at line 5"),
    ("p 2", "p -2", "'p' at line 4"),
    ("rows 2", "rows -1", "'rows' at line 6"),
])
def test_import_code_refuses_a_bad_header(line, replacement, expected):
    good = export_code(build_transfer_code(K2.matrix, PrimeField(2)))
    assert f"\n{line}\n" in good
    with pytest.raises(ValueError, match=f"expected header key {expected}"):
        import_code(good.replace(f"\n{line}\n", f"\n{replacement}\n"))


@pytest.mark.parametrize("entry", [2**64, -1, 2**63 - 1, "\u0661", "\u00b2"])
def test_import_code_refuses_entries_an_int64_matrix_cannot_hold(entry):
    lines = export_code(build_transfer_code(K2.matrix, PrimeField(2))).splitlines()
    row = lines.index("encoder e1") + 1
    lines[row] = " ".join([str(entry)] + lines[row].split()[1:])
    with pytest.raises(ValueError, match="encoder e1 has an entry outside"):
        import_code("\n".join(lines) + "\n")


def test_import_code_refuses_an_empty_matrix():
    # rows 1, m 1, n 1: encoder e1 needs one entry and its block holds no line.
    text = "sumnet-code v1\nm 1\nn 1\np 2\nalpha 1\nrows 1\ncols 0\nend\n"
    want = "encoder e1 has an entry outside the decimal integers in [0, 2^63 - 1)"
    with pytest.raises(ValueError) as err:
        import_code(text)
    assert str(err.value) == want


@contextlib.contextmanager
def time_limit(seconds):
    """Fail with TimeoutError, not a hang, when the block runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _replace_line(old, new):
    return lambda lines: [new if line == old else line for line in lines]


def _edit_first_encoder_row(edit):
    def apply(lines):
        row = lines.index("encoder e1") + 1
        return lines[:row] + [edit(lines[row])] + lines[row + 1:]
    return apply


def _repeat_decoder(lines):
    at = lines.index("decoder t_p1")
    return lines[:at + 4] + lines[at:]  # decoder, inputs and m = 2 rows, twice


def _ragged_rows(lines):
    row = lines.index("encoder e1") + 1
    first, second = lines[row].rsplit(" ", 1)
    return lines[:row] + [first, f"{second} {lines[row + 1]}"] + lines[row + 2:]


# The K2 transfer code at char 2 (m 2, n 3, rows 2) with one edit each.
MALFORMED_CODE_FILES = {
    "repeated-decoder": _repeat_decoder,
    "underscore-in-entry": _edit_first_encoder_row(lambda row: "1_0" + row[1:]),
    "leading-zero": _edit_first_encoder_row(lambda row: "01" + row[1:]),
    "plus-sign": _edit_first_encoder_row(lambda row: "+1" + row[1:]),
    "tab-separator": _edit_first_encoder_row(lambda row: row.replace(" ", "\t", 1)),
    "m-0": _replace_line("m 2", "m 0"),
    "m-minus-2": _replace_line("m 2", "m -2"),
    "m-minus-2-rows-0": lambda lines: _replace_line("rows 2", "rows 0")(
        _replace_line("m 2", "m -2")(lines)
    ),
    "alpha-0": _replace_line("alpha 1", "alpha 0"),
    "decoder-without-terminal": _replace_line("decoder t_p1", "decoder"),
    "word-after-terminal": _replace_line("decoder t_p1", "decoder t_p1 t_p2"),
    "ragged-row": _ragged_rows,
    "wrong-encoder-label": _replace_line("encoder e2", "encoder e7"),
    "line-after-end": lambda lines: lines + ["end"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CODE_FILES))
def test_import_code_refuses_a_file_export_code_would_not_write(case):
    lines = export_code(build_transfer_code(K2.matrix, PrimeField(2))).splitlines()
    edited = MALFORMED_CODE_FILES[case](lines)
    assert edited != lines
    with time_limit(10), pytest.raises(ValueError):
        import_code("\n".join(edited) + "\n")


# The cases the parser reads, refused by the round-trip comparison at the
# first non-blank line that differs from the export of what was read.
ROUND_TRIP_REFUSALS = {
    "decoder-without-terminal": 16,  # the export sorts terminal "" first
    "leading-zero": 9,
    "line-after-end": 29,  # the parser stops at the first "end"
    "ragged-row": 9,
    "repeated-decoder": 24,  # the second t_p1 replaces the first; t_p2 is due here
    "word-after-terminal": 20,
    "wrong-encoder-label": 12,
}


@pytest.mark.parametrize("case", sorted(ROUND_TRIP_REFUSALS))
def test_import_code_names_the_first_line_that_differs(case):
    lines = export_code(build_transfer_code(K2.matrix, PrimeField(2))).splitlines()
    edited = MALFORMED_CODE_FILES[case](lines)
    want = f"^line {ROUND_TRIP_REFUSALS[case]} differs from the export of the code it describes$"
    with pytest.raises(ValueError, match=want):
        import_code("\n".join(edited) + "\n")


def test_import_code_counts_only_non_blank_lines():
    lines = export_code(build_transfer_code(FIG4A.matrix, PrimeField(3))).splitlines()
    late = len(lines) - 2  # the last matrix row, just before "end"
    lines[late] = "0" + lines[late]
    loose = "\n\n".join(line + "  " for line in lines) + "\n \n"
    with pytest.raises(ValueError, match=f"^line {late + 1} differs from the export"):
        import_code(loose)


@pytest.mark.parametrize("key", ["m", "n", "alpha"])
def test_import_code_refuses_m_n_or_alpha_below_one(key):
    # A file without matrices, so nothing but the header check can refuse it.
    header = "sumnet-code v1\nm 1\nn 1\np 2\nalpha 1\nrows 0\ncols 0\nend\n"
    with time_limit(10), pytest.raises(ValueError, match="m, n and alpha must be at least 1"):
        import_code(header.replace(f"\n{key} 1\n", f"\n{key} 0\n"))


def test_import_code_ignores_blank_lines_and_trailing_spaces():
    code = build_transfer_code(FIG4A.matrix, PrimeField(3))
    loose = "\n\n".join(line + "  " for line in export_code(code).splitlines()) + "\n \n"
    assert codes_equal(import_code(loose), code)


# ---------------------------------------------------------------------------
# every generated code, on random graphs


@st.composite
def simple_graphs(draw):
    """A random simple graph on at most 7 vertices with no isolated vertex."""
    pairs = list(combinations(range(1, 8), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=10, unique=True))
    # Relabel the vertices that occur as 1..v, in order of first appearance.
    label = {}
    for e in edges:
        for u in e:
            label.setdefault(u, len(label) + 1)
    return from_graph(len(label), [(label[u], label[w]) for u, w in edges])


@settings(max_examples=60, deadline=None)
@given(
    graph=simple_graphs(),
    orientation=st.sampled_from(["normal", "transpose"]),
    char=st.sampled_from([2, 3, 5]),
)
def test_generated_codes_verify_meet_bounds_and_round_trip(graph, orientation, char):
    field = PrimeField(char)
    try:
        code, via = generate_code(graph, "graph", orientation, field)
    except NoApplicableCode:
        return
    net = build_sum_network(orient_matrix(graph, orientation))
    assert verify_exact(net, code).ok
    assert code.rate <= best_bound(applicable_bounds(graph, "graph", orientation, field)).bound
    if via == "graph-transpose":
        assert code.rate == family_bound(graph, "graph-transpose", field).bound
    assert codes_equal(import_code(export_code(code)), code)


def test_builders_refuse_a_zero_row_or_column_before_building():
    with pytest.raises(ValueError, match="row 2 is all zero"):
        build_scalar_code(mat([[1], [0]]), PrimeField(2))
    with pytest.raises(ValueError, match="column 2 is all zero"):
        build_transfer_code(mat([[1, 0], [1, 0]]), PrimeField(3))
    lonely = IncidenceStructure(2, ((1,),))  # point 2 lies in no block
    for orientation, line in (("normal", "row 2"), ("transpose", "column 2")):
        with pytest.raises(ValueError, match=f"{line} is all zero"):
            generate_code(lonely, "", orientation, PrimeField(2))


@st.composite
def structures(draw):
    """A structure on at most 5 points with at most 5 blocks; some points may lie in no block."""
    v = draw(st.integers(1, 5))
    blocks = draw(st.lists(st.sets(st.integers(1, v), min_size=1), min_size=1, max_size=5))
    return IncidenceStructure(v, tuple(tuple(sorted(b)) for b in blocks))


@settings(max_examples=60, deadline=None)
@given(
    struct=structures(),
    orientation=st.sampled_from(["normal", "transpose"]),
    char=st.sampled_from([2, 3, 5]),
)
def test_generated_codes_on_general_matrices(struct, orientation, char):
    field = PrimeField(char)
    a = orient_matrix(struct, orientation)
    family = "graph" if struct.is_simple() and all(len(b) == 2 for b in struct.blocks) else ""
    if any(not any(a.row(i)) for i in range(a.rows)) or any(not any(a.col(j)) for j in range(a.cols)):
        with pytest.raises(ValueError, match="all zero"):
            generate_code(struct, family, orientation, field)
        return
    try:
        code, _ = generate_code(struct, family, orientation, field)
    except NoApplicableCode:
        return
    assert code.rate <= best_bound(applicable_bounds(struct, family, orientation, field)).bound
    assert code.rate <= subset_bound(a, field).bound
    net = build_sum_network(a)
    report = verify_exact(net, code)
    assert report.ok
    if char ** (code.m * (a.rows + a.cols)) <= 4096:
        assert reference_exhaustive(net, code).ok == report.ok
    assert codes_equal(import_code(export_code(code)), code)
