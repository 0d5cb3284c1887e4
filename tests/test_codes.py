"""Code construction: transfer matrices, the one builder and its two wrappers, and the lift."""

import contextlib
import random
import signal
import tracemalloc
from dataclasses import replace
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
    brute_force_subset_terms,
    codes_equal,
    mat,
    random_01_matrix,
    rank_mod_p,
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
    complete_graph,
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
            assert res is not None
            assert all(x == 1 % p for x in res)
            assert all(res)


def test_overlap_residue_bibd():
    a = fano().matrix  # k = 3, diagonal residue k-1 = 2
    res2 = overlap_residue(a, PrimeField(2))
    assert res2 is not None and not any(res2)
    res3 = overlap_residue(a, PrimeField(3))
    assert res3 is not None and all(res3)
    assert all(x == 2 for x in res3)


def test_overlap_residue_not_diagonal():
    a = all_subsets_design(4, 3).matrix  # blocks pairwise share 2 points
    for p in (2, 3, 5):
        assert overlap_residue(a, PrimeField(p)) is None


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
    # Fano at char 2 has a zero residue: the builder makes the scalar code there.
    a, field = fano().matrix, PrimeField(2)
    assert export_code(build_transfer_code(a, field)) == export_code(build_scalar_code(a, field))
    with pytest.raises(NoApplicableCode, match="off-diagonal"):
        build_transfer_code(all_subsets_design(4, 3).matrix, PrimeField(3))
    with pytest.raises(NoApplicableCode, match="transfer matrix"):
        build_transfer_code(mat(TRIANGLE_PLUS_EDGE), PrimeField(3))


@pytest.mark.parametrize("char", [2, 3, 5])
@pytest.mark.parametrize("graph", [FIG4A, star_composite(), complete_graph(5)],
                         ids=["fig4a", "star-composite", "K5"])
def test_each_wrapper_exports_what_build_transfer_code_builds(graph, char):
    field = PrimeField(char)
    at = graph.matrix.transpose()
    built = 0
    for wrapper, arg, a in ((build_scalar_code, graph.matrix, graph.matrix),
                            (build_scalar_code, at, at),
                            (build_graph_transpose_code, graph, at)):
        try:
            code = wrapper(arg, field)
        except NoApplicableCode:
            continue
        assert export_code(code) == export_code(build_transfer_code(a, field))
        built += 1
    assert built


@st.composite
def mixed_residue_matrices(draw):
    """A (0,1)-matrix whose columns meet pairwise in at most one row, with a
    characteristic at which some but not all column sizes are 1 mod p: its
    overlap residue is diagonal and mixes zero and nonzero entries.  A column
    on fresh rows makes the mix hold by construction."""
    char = draw(st.sampled_from([2, 3, 5, 7]))
    r = draw(st.integers(2, 7))
    cols = []
    for col in draw(st.lists(st.frozensets(st.integers(0, r - 1), min_size=2), max_size=8)):
        if all(len(col & k) <= 1 for k in cols):
            cols.append(col)
    cols += [frozenset([i]) for i in range(r) if not any(i in k for k in cols)]
    zero = [(len(k) - 1) % char == 0 for k in cols]
    if not any(zero):  # a one-row column: residue 0 at every p
        cols.append(frozenset([r]))
        r += 1
    elif all(zero):  # a two-row column: residue 1 at every p
        cols.append(frozenset([r, r + 1]))
        r += 2
    return mat([[int(i in k) for k in cols] for i in range(r)]), char


@settings(max_examples=60, deadline=None)
@given(mixed_residue_matrices())
def test_transfer_code_meets_the_bound_where_generate_code_refuses_a_mixed_residue(case):
    a, char = case
    field = PrimeField(char)
    struct = IncidenceStructure(a.rows, tuple(tuple(i + 1 for i in range(a.rows) if a.at(i, j))
                                              for j in range(a.cols)))
    with pytest.raises(NoApplicableCode, match="^overlap residue has zero diagonal entries mod p$"):
        generate_code(struct, "", "normal", field)
    # P': the columns of size not 1 mod p; B': the rows that meet them.
    p_prime = [j for j in range(a.cols) if (sum(a.col(j)) - 1) % char]
    b_prime = [i for i in range(a.rows) if any(a.at(i, j) for j in p_prime)]
    if not transfer_feasible_bruteforce(a.submatrix(b_prime, p_prime)):
        with pytest.raises(NoApplicableCode, match="no margin matrix .* on the B' x P' submatrix"):
            build_transfer_code(a, field)
        return
    code = build_transfer_code(a, field)
    assert (code.m, code.n) == (len(b_prime), len(b_prime) + len(p_prime))
    assert verify_exact(build_sum_network(a), code).ok
    # Reference bounds: r/(r + rank of the integer Gram's residue) and the brute-force subset search.
    rows = np.array(to_lists(a))
    gram = rows.T @ rows
    residue = mat((gram - (gram > 0)) % char)
    rank = Fraction(a.rows, a.rows + rank_mod_p(residue, field))
    assert code.rate == min(rank, min(brute_force_subset_terms(a, field, a.rows))[0])


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
# entry types


def entry_types(code):
    return {e.dtype for e in code.encoders} | {d.matrix.dtype for d in code.decoders.values()}


@pytest.mark.parametrize("p,dtype", [
    (2, np.int8), (3, np.int8), (127, np.int8),
    (131, np.int16), (32749, np.int16),
    (32771, np.int32),
    (2**31 + 11, np.int64),
])
def test_code_entries_take_the_narrowest_signed_type_that_holds_p_minus_1(p, dtype):
    # K2's decoder weights each piece by -1 mod p = p - 1; the lift keeps the type.
    code = build_transfer_code(K2.matrix, PrimeField(p))
    assert max(d.matrix.max() for d in code.decoders.values()) == p - 1
    assert entry_types(code) == entry_types(lift_code(code, 2)) == {np.dtype(dtype)}


@pytest.mark.parametrize("p", [2, 3, 131, 32771, 2**31 + 11, 9223372036854775837])
def test_scalar_code_entries_are_int8_at_any_prime(p):
    code = build_scalar_code(K2.matrix.transpose(), PrimeField(p))
    assert entry_types(code) == {np.dtype(np.int8)}


def test_graph_transpose_code_near_2_63_is_int64():
    # K5's vertices have degree 4, so each piece is weighted by -3 mod p = 2^63 - 28.
    code = build_graph_transpose_code(complete_graph(5), PrimeField(2**63 - 25))
    assert max(d.matrix.max() for d in code.decoders.values()) == 2**63 - 28
    assert entry_types(code) == {np.dtype(np.int64)}


def test_code_generation_memory_follows_the_entry_type():
    # The sts-19 code at char 3 holds 8.1M entries: 7.7 MiB as int8, 62 MiB as int64.
    sts19 = steiner_triple(19)
    tracemalloc.start()
    try:
        code, _ = generate_code(sts19, "bibd", "normal", PrimeField(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert entry_types(code) == {np.dtype(np.int8)}
    assert peak < 10 * 2**20


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


@pytest.mark.parametrize("entry", [2**64, -1, 2**63 - 1, 2**63, "\u0661", "\u00b2"])
def test_import_code_refuses_entries_an_int64_matrix_cannot_hold(entry):
    lines = export_code(build_transfer_code(K2.matrix, PrimeField(2))).splitlines()
    row = lines.index("encoder e1") + 1
    lines[row] = " ".join([str(entry)] + lines[row].split()[1:])
    with pytest.raises(ValueError, match="encoder e1 has an entry outside"):
        import_code("\n".join(lines) + "\n")


def test_import_code_reads_an_entry_of_p_or_more_exactly_so_the_verifiers_refuse_it():
    # 257 would wrap to 1, an honest entry, in the int8 of the code it corrupts.
    text = export_code(build_transfer_code(K2.matrix, PrimeField(3)))
    code = import_code(text.replace("encoder e1\n1 ", "encoder e1\n257 "))
    assert code.encoders[0][0, 0] == 257
    with pytest.raises(ValueError, match=r"^encoder e1 has an entry outside \[0, 3\)$"):
        verify_exact(build_sum_network(K2.matrix), code)


@pytest.mark.parametrize("entry,dtype", [
    (1, np.int8), (127, np.int8),
    (128, np.int16), (32767, np.int16),
    (32768, np.int32), (2**31 - 1, np.int32),
    (2**31, np.int64), (2**63 - 2, np.int64),
])
def test_import_code_reads_each_matrix_into_the_narrowest_type_that_holds_its_entries(
    entry, dtype
):
    text = export_code(build_transfer_code(K2.matrix, PrimeField(2)))
    code = import_code(text.replace("encoder e1\n1 ", f"encoder e1\n{entry} "))
    assert code.encoders[0][0, 0] == entry and code.encoders[0].dtype == dtype
    assert entry_types(replace(code, encoders=code.encoders[1:])) == {np.dtype(np.int8)}


def test_import_code_types_each_matrix_of_a_code_on_its_own():
    # Built all int16 at p = 131; only t_B1's decoder holds -1 mod p = 130.
    code = build_transfer_code(K2.matrix, PrimeField(131))
    text = export_code(code)
    back = import_code(text)
    assert entry_types(code) == {np.dtype(np.int16)}
    assert {e.dtype for e in back.encoders} == {np.dtype(np.int8)}
    assert {t: d.matrix.dtype for t, d in back.decoders.items()} == {
        "t_B1": np.int16, "t_p1": np.int8, "t_p2": np.int8,
    }
    assert codes_equal(back, code) and export_code(back) == text
    assert verify_exact(build_sum_network(K2.matrix), back).ok


def test_import_memory_follows_each_matrix_entry_type():
    # The sts-19 char-3 export is 15.5 MiB of text; as int64 its code alone holds 62 MiB.
    text = export_code(generate_code(steiner_triple(19), "bibd", "normal", PrimeField(3))[0])
    tracemalloc.start()
    try:
        code = import_code(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert entry_types(code) == {np.dtype(np.int8)}
    assert peak < 32 * 2**20


def test_export_memory_is_bounded_by_twice_the_text():
    # The sts-19 char-3 export is 15.5 MiB of text, held as its sections and
    # as their join; rendering adds one group of matrices' text at a time.
    code = generate_code(steiner_triple(19), "bibd", "normal", PrimeField(3))[0]
    tracemalloc.start()
    try:
        text = export_code(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 15 * 2**20 < len(text) < 16 * 2**20
    assert peak < 36 * 2**20


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
