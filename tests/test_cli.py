"""The command-line surface: spec invocations, exit codes, determinism."""

import json
import math
import time
from fractions import Fraction

import pytest

from sumnet import cli, codes, gf, incidence
from sumnet.bounds import family_bound
from sumnet.cli import main
from sumnet.codes import import_code
from sumnet.gf import PrimeField
from sumnet.incidence import (
    all_subsets_design,
    fano,
    higher_incidence,
    render_blocks_text,
    render_matrix_text,
)
from sumnet.instances import INSTANCES
from sumnet.network import import_graph


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run(capsys, "bound", "--k2", "--char", "2")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_structure_fano_prints_matrix(capsys):
    status, out, _ = run(capsys, "structure", "fano")
    assert status == 0
    assert out == render_matrix_text(fano())
    assert out.splitlines()[1] == "1011000"


def test_structure_sts_validate(capsys):
    status, out, _ = run(capsys, "structure", "sts", "9", "--validate")
    assert status == 0
    assert "2-(9,3,1), b=12, rho=4" in out


def test_structure_sts_infeasible(capsys):
    status, _, err = run(capsys, "structure", "sts", "8")
    assert status == 1
    assert "1 or 3" in err


def test_structure_blocks_and_graph_edges(capsys):
    status, out, _ = run(capsys, "structure", "fano", "--blocks")
    assert status == 0
    assert out == render_blocks_text(fano())
    status, out, _ = run(capsys, "structure", "graph", "--vertices", "3",
                         "--edges", "1-2,2-3,1-3")
    assert status == 0
    assert out.splitlines()[0] == "3 3"


def test_structure_complete_and_star(capsys):
    status, out, _ = run(capsys, "structure", "complete", "4", "--validate", "1")
    assert status == 0
    assert "1-(4,2,3), b=6, rho=3" in out
    status, out, _ = run(capsys, "structure", "star-composite")
    assert status == 0
    assert out.splitlines()[0] == "33 32"


def test_structure_transpose_and_higher(capsys):
    status, out, _ = run(capsys, "structure", "transpose", "k2")
    assert status == 0
    assert out.splitlines() == ["1 2", "11"]
    status, out, _ = run(capsys, "structure", "higher", "2-4-3-2")
    assert status == 0
    assert out.splitlines()[0] == "6 4"


def test_structure_network_export(capsys):
    status, out, _ = run(capsys, "structure", "graph", "k2", "--network", "--alpha", "2")
    assert status == 0
    net = import_graph(out)
    assert net.alpha == 2 and net.r == 2 and net.c == 1
    status, out, _ = run(capsys, "structure", "graph", "fig4a", "--network", "--transpose")
    assert status == 0
    assert import_graph(out).matrix == INSTANCES["fig4a"][1]().matrix.transpose()


def test_bound_fig3_transpose(capsys):
    status, out, _ = run(capsys, "bound", "--graph", "fig3", "--transpose", "--char", "3")
    assert status == 0
    assert "subset 3/4 (S={1,2,3}" in out
    assert "rank 4/5" in out


def test_bound_fano_char2(capsys):
    status, out, _ = run(capsys, "bound", "--fano", "--normal", "--char", "2")
    assert status == 0
    assert "rank 1 (t=0)" in out


def test_bound_k2_char5(capsys):
    status, out, _ = run(capsys, "bound", "--k2", "--normal", "--char", "5")
    assert status == 0
    assert "rank 2/3" in out


_FLAG_PINS = {
    "k2": (["--k2"], ["k2 normal char 2:", "  subset 2/3 (S={1,2}, S''={3}, x_S=3)",
                      "  rank 2/3 (t=1)", "  family graph-normal 2/3"]),
    "triangle": (["--triangle"], ["triangle normal char 2:",
                                  "  subset 1/2 (S={1,2,3}, S''={4,5,6}, x_S=6)",
                                  "  rank 1/2 (t=3)", "  family graph-normal 1/2"]),
    "fano": (["--fano"], ["fano normal char 2:", "  subset 1 (S={1}, x_S=1)", "  rank 1 (t=0)",
                          "  family bibd-normal: closed form inapplicable: ch divides k-1 = 2"]),
    "graph": (["--graph", "fig4a"], ["fig4a normal char 2:",
                                     "  subset 4/9 (S={1,2,3,4}, S''={5,6,7,8,9}, x_S=9)",
                                     "  rank 4/9 (t=5)", "  family graph-normal 4/9"]),
    "graph-alias": (["--graph", "fig6"], [
        "star-composite normal char 2:",
        "  subset: exact mode refused: r=33 exceeds the enumeration limit 20",
        "  rank 33/65 (t=32)", "  family graph-normal 33/65"]),
    "sts": (["--sts", "7"], ["sts-7 normal char 2:", "  subset 1 (S={1}, x_S=1)", "  rank 1 (t=0)",
                             "  family bibd-normal: closed form inapplicable: ch divides k-1 = 2"]),
    "complete": (["--complete", "4"], ["k4 normal char 2:",
                                       "  subset 2/5 (S={1,2,3,4}, S''={5,6,7,8,9,10}, x_S=10)",
                                       "  rank 2/5 (t=6)", "  family graph-normal 2/5"]),
    "higher": (["--higher", "2-4-3-2"], [
        "higher(2-(4,3,2)) normal char 2:", "  subset 1 (S={1}, x_S=1)", "  rank 1 (t=0)",
        "  family higher-normal: closed form inapplicable: ch divides t = 2"]),
    "design": (["--design", "2-4-3-2"], ["2-(4,3,2) normal char 2:",
                                         "  subset 1/2 (S={1,2,3,4}, S''={5,6,7,8}, x_S=8)",
                                         "  rank 1/2 (t=4)"]),
    "file": (["--file", "path.txt"], ["path.txt normal char 2:",
                                      "  subset 4/7 (S={1,2,3,4}, S''={5,6,7}, x_S=7)",
                                      "  rank 4/7 (t=3)", "  family graph-normal 4/7"]),
    "blocks": (["--blocks", "fano.blocks"], [
        "fano.blocks normal char 2:", "  subset 1 (S={1}, x_S=1)", "  rank 1 (t=0)",
        "  family bibd-normal: closed form inapplicable: ch divides k-1 = 2"]),
}


@pytest.mark.parametrize("case", list(_FLAG_PINS))
def test_bound_instance_flags_are_pinned(tmp_path, capsys, monkeypatch, case):
    # Every instance flag, and the alias that prints the name it stands for.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "path.txt").write_text(render_matrix_text(
        incidence.from_graph(4, [(1, 2), (2, 3), (3, 4)])))
    (tmp_path / "fano.blocks").write_text(render_blocks_text(fano()))
    argv, lines = _FLAG_PINS[case]
    assert run(capsys, "bound", *argv, "--char", "2") == (0, "\n".join(lines) + "\n", "")


def test_bound_subset_refusal_and_limited_mode(capsys):
    status, out, _ = run(capsys, "bound", "--graph", "star-composite", "--transpose",
                         "--char", "2")
    assert status == 0
    assert "exact mode refused" in out
    assert "family graph-transpose 16/17" in out
    status, out, _ = run(capsys, "bound", "--graph", "star-composite", "--transpose",
                         "--char", "2", "--max-subset-size", "1")
    assert status == 0
    assert "subset" in out and "|S|<=1" in out


def test_bound_rejects_negative_subset_size_before_any_output(capsys):
    status, out, err = run(capsys, "bound", "--k2", "--char", "2", "--max-subset-size", "-1")
    assert status == 1
    assert "--max-subset-size must be nonnegative" in err
    assert out == ""


def test_bound_rejects_negative_subset_limit_before_any_output(capsys):
    status, out, err = run(capsys, "bound", "--sts", "7", "--char", "3", "--subset-limit", "-1")
    assert status == 1
    assert err == "error: --subset-limit must be nonnegative, got -1\n"
    assert out == ""


def test_bound_prime_power_note(capsys):
    status, out, _ = run(capsys, "bound", "--k2", "--normal", "--char", "4")
    assert status == 0
    assert "reduced to characteristic 2" in out


def test_code_k2(capsys):
    status, out, _ = run(capsys, "code", "--k2", "--normal", "--char", "2")
    assert status == 0
    assert "rate 2/3" in out and "verified" in out and "transfer" in out


def test_code_fano_scalar(capsys):
    status, out, _ = run(capsys, "code", "--fano", "--normal", "--char", "2")
    assert status == 0
    assert "rate 1/1" in out and "verified" in out


def test_code_fig4a_transpose(capsys):
    status, out, _ = run(capsys, "code", "--graph", "fig4a", "--transpose", "--char", "2")
    assert status == 0
    assert "rate 4/6" in out and "verified" in out


def test_code_alpha_and_export(tmp_path, capsys):
    out_path = tmp_path / "code.txt"
    status, out, _ = run(capsys, "code", "--k2", "--normal", "--char", "2",
                         "--alpha", "2", "--out", str(out_path),
                         "--random-trials", "50")
    assert status == 0
    assert "rate 4/3" in out and "randomized cross-check: ok" in out
    code = import_code(out_path.read_text())
    assert code.alpha == 2 and code.m == 4 and code.n == 3


def test_code_no_construction_exit_status(capsys):
    status, _, err = run(capsys, "code", "--design", "2-4-3-2", "--normal", "--char", "3")
    assert status == 3
    assert "no construction applies" in err
    assert "not diagonal" in err



# A 9-vertex graph on 19 edges whose transposed network has no code at chars 3 and 7.
G9_EDGES = "1-3 1-4 1-8 2-4 2-5 2-6 2-8 3-5 3-6 4-5 4-7 4-8 4-9 5-6 5-8 6-7 6-8 6-9 8-9"


@pytest.mark.parametrize("char, reason", [
    ("7", "no nonnegative integral transfer matrix with row sums 9 and column sums 19 "
          "exists on the support of A; no margin matrix with row sums 9 and column sums 19 "
          "exists on the B' x P' submatrix"),
    ("3", "overlap residue has zero diagonal entries mod p; no margin matrix with row sums 8 "
          "and column sums 19 exists on the B' x P' submatrix"),
])
def test_code_graph_transpose_refusals_are_pinned(tmp_path, capsys, char, reason):
    path = tmp_path / "g9.blocks"
    edges = [e.replace("-", " ") for e in G9_EDGES.split()]
    path.write_text("9 19\n" + "\n".join(edges) + "\n")
    err = f"no construction applies for g9.blocks transpose at char {char}: {reason}\n"
    assert run(capsys, "code", "--blocks", str(path), "--transpose", "--char", char) == (3, "", err)

def test_code_refuses_a_zero_row_before_building_a_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "zero-row.txt"
    path.write_text("2 1\n1\n0\n")  # its overlap residue vanishes: the scalar case

    def build(*args):
        raise AssertionError("a code was built")

    for name in ("build_transfer_code", "build_scalar_code", "build_graph_transpose_code"):
        monkeypatch.setattr(codes, name, build)
    status, out, err = run(capsys, "code", "--file", str(path), "--char", "2")
    assert status == 1
    assert out == ""
    assert "row 2 is all zero" in err


@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_code_refuses_a_bad_alpha_before_building_a_code(capsys, monkeypatch, alpha):
    def build(*args):
        raise AssertionError("a code was built")

    for name in ("build_transfer_code", "build_scalar_code", "build_graph_transpose_code"):
        monkeypatch.setattr(codes, name, build)
    status, out, err = run(capsys, "code", "--sts", "7", "--char", "3", "--alpha", alpha)
    assert status == 1
    assert out == ""
    assert err == "error: alpha must be a positive integer\n"


def _refuse_to_allocate(*args, **kwargs):
    raise AssertionError("a dense code array was allocated")


def test_code_refuses_a_code_too_large_to_hold_dense(capsys, monkeypatch):
    # sts-43 at char 3: 43 encoders and 344 decoders, 1,684,276,288 int64 entries (12.5 GiB).
    monkeypatch.setattr(codes.np, "zeros", _refuse_to_allocate)
    monkeypatch.setattr(codes.np, "tile", _refuse_to_allocate)
    err = ("error: the code would hold 1684276288 dense int64 entries, "
           "above the limit of 268435456\n")
    assert run(capsys, "code", "--sts", "43", "--char", "3") == (1, "", err)
    assert run(capsys, "table", "sts", "--v", "43", "--char", "3") == (1, "", err)


def test_code_refuses_a_lift_too_large_to_hold_dense(capsys, monkeypatch):
    # The sts-13 base code holds 777,738 entries; its lift to alpha 24 holds 24^2 times as many.
    monkeypatch.setattr(codes, "_interleave", _refuse_to_allocate)
    assert run(capsys, "code", "--sts", "13", "--char", "3", "--alpha", "24") == (1, "", (
        "error: the code would hold 447977088 dense int64 entries, "
        "above the limit of 268435456\n"
    ))


def test_bound_on_a_large_complete_graph_does_not_hang(capsys):
    # A simple graph's residue is I: each edge's Gram diagonal is 2 and every other overlap 1,
    # so t = b.  The Gram visits 200 * 199^2 column pairs, not 19,900^2.
    start = time.process_time()
    assert run(capsys, "bound", "--complete", "200", "--char", "3") == (0, (
        "k200 normal char 3:\n"
        "  subset: exact mode refused: r=200 exceeds the enumeration limit 20\n"
        "  rank 2/201 (t=19900)\n"
        "  family graph-normal 2/201\n"
    ), "")
    assert time.process_time() - start < 10


def _too_large(v, b, limit=incidence.MAX_INCIDENCE_ENTRIES):
    return (f"error: a structure of {v} points and {b} blocks would hold {v * b} incidence "
            f"entries, above the limit of {limit}\n")


@pytest.mark.parametrize("flag,value,v,b", [
    ("--complete", "30000", 30000, 449_985_000),
    ("--sts", "30001", 30001, 150_005_000),
    ("--design", "2-40-20-33578000610", 40, 137_846_528_820),  # all C(40,20) 20-subsets
])
def test_bound_refuses_a_structure_too_large_to_hold(capsys, flag, value, v, b):
    # v*b is decided before any block is generated: each of these ran out of
    # memory under a 1.5 GB address-space cap.
    start = time.process_time()
    assert run(capsys, "bound", "--char", "3", flag, value) == (1, "", _too_large(v, b))
    assert time.process_time() - start < 1


def _refuse_to_validate(*args, **kwargs):
    raise AssertionError("the base design was validated")


def test_bound_refuses_a_higher_structure_too_large_to_hold(capsys, monkeypatch):
    # The 2-(6,3,4) base holds 6 x 20 entries; its subset-vs-block structure,
    # 15 x 20, is refused before the base is validated or the matrix built.
    monkeypatch.setattr(incidence, "MAX_INCIDENCE_ENTRIES", 200)
    monkeypatch.setattr(incidence, "validate_design", _refuse_to_validate)
    assert run(capsys, "bound", "--char", "3", "--higher", "2-6-3-4") == (
        1, "", _too_large(15, 20, 200))


def test_code_refuses_a_gram_too_costly_to_visit(capsys):
    # All 5-subsets of 19 points: each of the 19 rows meets C(18,4) = 3,060
    # columns, so the Gram would visit 19 * 3060^2 column pairs.
    start = time.process_time()
    assert run(capsys, "code", "--char", "3", "--design", "2-19-5-680") == (1, "", (
        "error: the Gram of a 19x11628 matrix would visit 177908400 column pairs, "
        f"above the limit of {gf.MAX_GRAM_PAIRS}\n"
    ))
    assert time.process_time() - start < 5


def test_bound_refuses_a_long_order_quickly(capsys):
    # 4,299 digits, the most int() parses, and no Miller-Rabin base divides it.
    q = 10**4298 + 7
    start = time.process_time()
    assert run(capsys, "bound", "--k2", "--char", str(q)) == (1, "", (
        f"error: cannot decide whether {q} is prime: deterministic primality "
        "is limited to n < 3317044064679887385961981\n"
    ))
    assert time.process_time() - start < 1


def test_table_sts_dichotomy(capsys):
    status, out, _ = run(capsys, "table", "sts", "--v", "7,9", "--char", "2,3")
    assert status == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("sts")]
    assert len(lines) == 4
    assert all("yes" in ln for ln in lines)


def test_table_sts_prints_a_prime_power_note_once(capsys):
    status, out, _ = run(capsys, "table", "sts", "--v", "7,9", "--char", "4")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "note: field order 4 reduced to characteristic 2"
    assert out.count("note: field order") == 1
    assert [ln.split()[:3] for ln in lines[3:]] == [["sts-7", "normal", "2"],
                                                     ["sts-9", "normal", "2"]]


def test_table_higher_structured(capsys):
    status, out, _ = run(capsys, "table", "higher", "--design", "2-4-3-2",
                         "--char", "2,3", "--structured")
    assert status == 0
    records = [json.loads(ln) for ln in out.splitlines()]
    assert len(records) == 4
    by_key = {(r["kind"], r["char"]): r for r in records}
    assert by_key[("normal", 2)]["rate"] == "1/1"
    assert by_key[("normal", 3)]["bound"] == "3/5"
    assert by_key[("transpose", 2)]["bound"] == "2/5"
    assert all(r["matched"] for r in records)


def test_table_higher_family(capsys):
    status, out, _ = run(capsys, "table", "higher-family", "--t", "2")
    assert status == 0
    assert "lam=7776" in out and "1/2593" in out


def test_table_higher_family_refuses_a_bad_t_before_any_output(capsys):
    status, out, err = run(capsys, "table", "higher-family", "--t", "3,1")
    assert status == 1
    assert "t must be at least 2" in err
    assert out == ""


def test_table_higher_family_prints_t_41_in_full(capsys):
    status, out, _ = run(capsys, "table", "higher-family", "--t", "41")
    assert status == 0
    lam = math.factorial(42) ** 83  # 4,246 digits, the most a printed lam may have
    assert out.splitlines()[2:] == [f"  t=41: lam={lam}, capacity {Fraction(42, lam + 42)}"]


@pytest.mark.parametrize("ts", ["42", "1000", "2,42"])
def test_table_higher_family_refuses_a_lam_too_long_to_print(capsys, ts):
    start = time.process_time()
    status, out, err = run(capsys, "table", "higher-family", "--t", ts)
    assert time.process_time() - start < 1  # decided from t, before lam is computed
    assert status == 1
    assert out == ""
    assert err == f"error: t={ts.split(',')[-1]}: lam = (t+1)!^(2t+1) would exceed 4300 digits\n"


def test_table_higher_reports_the_inapplicable_transpose_family_bound(capsys):
    status, out, _ = run(capsys, "table", "higher", "--design", "2-5-3-3", "--char", "2")
    assert status == 0
    assert out == (
        "structure          net        char  bound  via   rate  via     matched  note\n"
        "-----------------  ---------  ----  -----  ----  ----  ------  -------  ----\n"
        "higher(2-(5,3,3))  normal     2     1      rank  1/1   scalar  yes\n"
        "higher(2-(5,3,3))  transpose  2     1      rank  1/1   scalar  yes\n"
    )
    struct = higher_incidence(all_subsets_design(5, 3))
    family = family_bound(struct, "higher-transpose", PrimeField(2))
    assert not family.applicable
    assert family.note == "closed form inapplicable: ch divides lam-1 = 2"


def test_table_output_deterministic(capsys):
    _, first, _ = run(capsys, "table", "sts", "--v", "7", "--char", "2,3")
    _, second, _ = run(capsys, "table", "sts", "--v", "7", "--char", "2,3")
    assert first == second


def test_from_file_round_trip(tmp_path, capsys):
    path = tmp_path / "struct.txt"
    path.write_text(render_matrix_text(fano()))
    status, out, _ = run(capsys, "bound", "--file", str(path), "--normal", "--char", "3")
    assert status == 0
    assert "rank 1/2" in out
    status, _, err = run(capsys, "bound", "--file", str(tmp_path / "nope.txt"),
                         "--normal", "--char", "3")
    assert status == 1 and "error" in err


def test_bound_on_a_steiner_design_spec(capsys):
    status, out, _ = run(capsys, "bound", "--design", "2-9-3-1", "--char", "3")
    assert status == 0
    assert out == (
        "2-(9,3,1) normal char 3:\n"
        "  subset 3/7 (S={1,2,3,4,5,6,7,8,9}, S''={10,11,12,13,14,15,16,17,18,19,20,21}, "
        "x_S=21)\n"
        "  rank 3/7 (t=12)\n"
    )


def test_bound_on_a_graph_file(tmp_path, capsys):
    path = tmp_path / "triangle.txt"
    path.write_text("3 3\n110\n101\n011\n")
    status, out, _ = run(capsys, "bound", "--file", str(path), "--char", "3")
    assert status == 0
    assert out == (
        "triangle.txt normal char 3:\n"
        "  subset 1/2 (S={1,2,3}, S''={4,5,6}, x_S=6)\n"
        "  rank 1/2 (t=3)\n"
        "  family graph-normal 1/2\n"
    )


def test_bound_on_a_graph_file_with_an_isolated_vertex(tmp_path, capsys):
    path = tmp_path / "isolated.txt"
    path.write_text("3 1\n1\n1\n0\n")
    status, out, _ = run(capsys, "bound", "--file", str(path), "--char", "3")
    assert status == 0
    assert out == (
        "isolated.txt normal char 3:\n"
        "  family graph-normal: not applicable (graph has an isolated vertex)\n"
        "  subset 2/3 (S={1,2}, S''={4}, x_S=3)\n"
        "  rank 3/4 (t=1)\n"
    )


def test_zero_size_flags_reach_the_constructor(capsys):
    status, _, err = run(capsys, "bound", "--sts", "0", "--char", "2")
    assert status == 1
    assert "1 or 3" in err and "None" not in err
    status, _, err = run(capsys, "bound", "--complete", "0", "--char", "2")
    assert status == 1
    assert "at least 2 vertices" in err and "None" not in err


def test_code_rejects_several_characteristics(capsys):
    status, out, err = run(capsys, "code", "--k2", "--char", "2,3")
    assert status == 1
    assert "single characteristic" in err
    assert out == ""


def test_code_rejects_negative_trials(capsys):
    status, out, err = run(capsys, "code", "--k2", "--char", "2", "--random-trials", "-5")
    assert status == 1
    assert "--random-trials must be nonnegative" in err
    assert out == ""


def test_code_refuses_characteristic_beyond_int64(capsys):
    status, out, err = run(capsys, "code", "--fano", "--char", "4294967311",
                           "--random-trials", "20")
    assert status == 1
    assert "4294967311" in err and "2^63" in err
    assert "FAILED" not in out


@pytest.mark.parametrize("spec,err", [
    ("0-3-4-1", "need 1 <= k <= v"),  # before the t check
    ("2-3-0-1", "need 1 <= k <= v"),
    ("0-4-3-1", "t must be at least 1"),
    ("4-4-3-1", "no built-in construction for a 4-(4,3,1) design; supply a structure file instead"),
    ("2-5-3-2", "no built-in construction for a 2-(5,3,2) design; supply a structure file instead"),
    ("2-x-3-1", "bad design spec '2-x-3-1'; expected t-v-k-lam"),
])
def test_design_spec_refusals(capsys, spec, err):
    assert run(capsys, "bound", "--design", spec, "--char", "2") == (1, "", f"error: {err}\n")


def test_design_spec_is_refused_without_building_it(capsys, monkeypatch):
    # All 20-subsets of 40 points would be C(40,20), about 1.4e11 blocks.
    def refuse(v, k):
        raise AssertionError(f"built all {k}-subsets of {v} points")

    monkeypatch.setattr(incidence, "all_subsets_design", refuse)
    err = "error: no built-in construction for a 2-(40,20,1) design; supply a structure file instead\n"
    assert run(capsys, "bound", "--design", "2-40-20-1", "--char", "2") == (1, "", err)


@pytest.mark.parametrize("spec", ["2-1000000-500000-3", "2-3000000-1500000-3"])
def test_design_spec_is_refused_without_a_huge_binomial(capsys, spec):
    # C(v-2, k-2) has about 300,000 and 900,000 digits: the running product stops at lam.
    t, v, k, lam = spec.split("-")
    err = (f"error: no built-in construction for a {t}-({v},{k},{lam}) design; "
           "supply a structure file instead\n")
    start = time.monotonic()
    assert run(capsys, "bound", "--design", spec, "--char", "3") == (1, "", err)
    assert time.monotonic() - start < 5


def test_bound_decides_a_large_characteristic_quickly(capsys):
    start = time.monotonic()
    status, out, _ = run(capsys, "bound", "--k2", "--char", "2305843009213693951")
    assert status == 0 and "rank 2/3" in out
    assert time.monotonic() - start < 10  # trial division takes minutes on this p


def test_code_refuses_characteristics_beyond_int64_matrices(capsys):
    # The transfer code writes -mu mod p into its decoders: it refuses to build.
    assert run(capsys, "code", "--k2", "--char", "9223372036854775837") == (1, "", (
        "error: characteristic p=9223372036854775837 is too large for int64 code matrices: "
        "decoder coefficients mod p must stay below 2^63\n"
    ))
    # The scalar code's entries are 0 and 1: it builds, and the verifier refuses it.
    status, out, err = run(capsys, "code", "--k2", "--transpose", "--char", "9223372036854775837")
    assert (status, out) == (1, "")
    assert err == (
        "error: characteristic p=9223372036854775837 is too large for exact int64 verification: "
        "(p-1)^2 * 3 must stay below 2^63, so p <= 1753413057 for this code\n"
    )
    status, out, err = run(capsys, "code", "--k2", "--char", "2305843009213693951")
    assert status == 1 and out == ""
    assert "exact int64 verification" in err and "p <= 1239850263" in err
