"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every assertion is an exact equality of rationals, integers, or field
elements.  Each criterion prints a PASS/FAIL line (visible with -s).
Run with:  pytest tests/test_acceptance.py -v -s
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import (
    FANO_MATRIX,
    FIG4A_MATRIX,
    FIG4A_TRANSFER,
    mat,
    random_01_matrix,
    rank_mod_p,
    reference_code,
    to_lists,
    transfer_feasible_bruteforce,
)
from sumnet.bounds import (
    bound_matrix,
    closure_columns,
    family_bound,
    rank_bound,
    subset_bound,
)
from sumnet.codes import (
    NetworkCode,
    NoApplicableCode,
    build_graph_transpose_code,
    build_scalar_code,
    build_transfer_code,
    check_transfer_matrix,
    find_transfer_matrix,
    lift_code,
)
from sumnet.gf import PrimeField
from sumnet.incidence import (
    all_subsets_design,
    fano,
    from_graph,
    higher_incidence,
    star_composite,
    steiner_triple,
)
from sumnet.network import build_sum_network, min_cut
from sumnet.report import generate_code
from sumnet.verify import exhaustive_oracle, verify_exact


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE C{number:02d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE C{number:02d} PASS - {description}")


K2 = from_graph(2, [(1, 2)])
FIG3 = from_graph(6, [(1, 2), (1, 3), (1, 4), (5, 6)])
FIG4A = from_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])


def test_c01_fano_rank_and_scalar_code():
    with criterion(1, "Fano plane: full GF(2) rank bound 1 and a verified rate-1 code"):
        a = fano().matrix
        assert to_lists(a) == FANO_MATRIX
        assert rank_mod_p(bound_matrix(a), PrimeField(2)) == 7
        assert rank_bound(a, PrimeField(2)).bound == 1
        code = build_scalar_code(a, PrimeField(2))
        assert code.rate == 1
        assert verify_exact(build_sum_network(a), code).ok


def test_c02_k2_bound_codes_and_oracle():
    with criterion(2, "single edge: bound 2/3, fixed and generated codes verify, "
                      "oracle agrees"):
        a = K2.matrix
        net = build_sum_network(a)
        for p in (2, 3, 5):
            assert rank_bound(a, PrimeField(p)).bound == Fraction(2, 3)
        for p in (2, 3):
            assert verify_exact(net, reference_code("k2-normal", p)).ok
        gen = build_transfer_code(a, PrimeField(2))
        assert gen.rate == Fraction(2, 3)
        assert verify_exact(net, gen).ok
        # the 64-tuple enumeration agrees with the exact verifier, on the
        # good code and on a corrupted one
        assert exhaustive_oracle(net, gen, limit=64).ok
        broken = [e.copy() for e in gen.encoders]
        broken[0][2, :] = 0
        bad = NetworkCode(gen.m, gen.n, gen.p, gen.alpha, gen.rows, gen.cols,
                          tuple(broken), gen.decoders)
        assert verify_exact(net, bad).ok == exhaustive_oracle(net, bad, 64).ok is False


def test_c03_fig4a_normal():
    with criterion(3, "irregular 4-vertex graph: bound 4/9, transfer matrix found, "
                      "both codes verify"):
        a = FIG4A.matrix
        assert to_lists(a) == FIG4A_MATRIX
        net = build_sum_network(a)
        for p in (2, 3, 5):
            assert rank_bound(a, PrimeField(p)).bound == Fraction(4, 9)
        check_transfer_matrix(mat(FIG4A_TRANSFER), a)
        assert find_transfer_matrix(a) is not None
        for p in (2, 3, 5):
            gen = build_transfer_code(a, PrimeField(p))
            assert gen.rate == Fraction(4, 9)
            assert verify_exact(net, gen).ok
            assert verify_exact(net, reference_code("fig4a-normal", p)).ok


def test_c04_fig3_transpose_subset_bound():
    with criterion(4, "two-component graph transposed at char 3: rank 4/5, "
                      "subset 3/4 with S={1,2,3}"):
        a = FIG3.matrix.transpose()
        field = PrimeField(3)
        assert rank_bound(a, field).bound == Fraction(4, 5)
        res = subset_bound(a, field)
        assert res.bound == Fraction(3, 4)
        assert res.subset == (1, 2, 3)
        assert closure_columns(a, {1, 2, 3}) == frozenset({5, 6, 7, 8})
        assert res.closure == (5, 6, 7, 8)


def test_c05_fig4a_transpose_char2():
    with criterion(5, "irregular graph transposed at char 2: family bound 4/6 "
                      "with P'={2,4}, both codes verify"):
        field = PrimeField(2)
        fam = family_bound(FIG4A, "graph-transpose", field)
        assert fam.bound == Fraction(4, 6)
        assert "P'={2,4}" in fam.note
        net = build_sum_network(FIG4A.matrix.transpose())
        gen = build_graph_transpose_code(FIG4A, field)
        assert (gen.m, gen.n) == (4, 6)
        assert verify_exact(net, gen).ok
        assert verify_exact(net, reference_code("fig4a-transpose", 2)).ok


def test_c06_star_composite_transpose():
    with criterion(6, "bridged stars transposed: bounds 16/17, 11/12, 7/8 achieved"):
        star = star_composite()
        net = build_sum_network(star.matrix.transpose())
        for p, want in ((2, Fraction(16, 17)), (3, Fraction(11, 12)), (5, Fraction(7, 8))):
            field = PrimeField(p)
            assert family_bound(star, "graph-transpose", field).bound == want
            code = build_graph_transpose_code(star, field)
            assert code.rate == want
            assert verify_exact(net, code).ok


def test_c07_steiner_dichotomy():
    with criterion(7, "Steiner triple systems: capacity 1 at char 2, 6/(5+v) at "
                      "chars 3 and 5"):
        for v in (7, 9, 13, 15):
            a = steiner_triple(v).matrix
            net = build_sum_network(a)
            assert rank_bound(a, PrimeField(2)).bound == 1
            scalar = build_scalar_code(a, PrimeField(2))
            assert scalar.rate == 1
            assert verify_exact(net, scalar).ok
            for p in (3, 5):
                field = PrimeField(p)
                bound = rank_bound(a, field).bound
                assert bound == Fraction(6, 5 + v)
                code = build_transfer_code(a, field)
                assert code.rate == bound
                assert verify_exact(net, code).ok


def test_c08_higher_incidence_2_4_3_2():
    with criterion(8, "subset structure of the 2-(4,3,2) design: 3/5 and rate-1 "
                      "normal, 2/5 transposed"):
        h = higher_incidence(all_subsets_design(4, 3))
        a = h.matrix
        net_n = build_sum_network(a)
        net_t = build_sum_network(a.transpose())
        # normal at char 3: bound 3/5 with a matching code
        assert rank_bound(a, PrimeField(3)).bound == Fraction(3, 5)
        assert family_bound(h, "higher-normal", PrimeField(3)).bound == Fraction(3, 5)
        code = build_transfer_code(a, PrimeField(3))
        assert code.rate == Fraction(3, 5)
        assert verify_exact(net_n, code).ok
        # normal at char 2: ch divides t = 2, so the scalar code applies
        scalar = build_scalar_code(a, PrimeField(2))
        assert scalar.rate == 1
        assert verify_exact(net_n, scalar).ok
        # transpose: lam-1 = 1 divides for no prime; bound 2/5 at both chars
        for p in (2, 3):
            field = PrimeField(p)
            assert rank_bound(a.transpose(), field).bound == Fraction(2, 5)
            assert family_bound(h, "higher-transpose", field).bound == Fraction(2, 5)
            code = build_transfer_code(a.transpose(), field)
            assert code.rate == Fraction(2, 5)
            assert verify_exact(net_t, code).ok


def test_c09_alpha_lift():
    with criterion(9, "alpha=2 lift of the single-edge code: rate 4/3 verified, "
                      "all min cuts at least 2"):
        base = build_transfer_code(K2.matrix, PrimeField(2))
        lifted = lift_code(base, 2)
        assert lifted.rate == Fraction(4, 3)
        net = build_sum_network(K2.matrix, alpha=2)
        assert verify_exact(net, lifted).ok
        for s in net.sources():
            for t in net.terminals():
                assert min_cut(net, s, t) >= 2


def _acceptance_code_instances():
    h = higher_incidence(all_subsets_design(4, 3))
    return [
        ("k2", K2, "graph", "normal"),
        ("k2", K2, "graph", "transpose"),
        ("triangle", from_graph(3, [(1, 2), (1, 3), (2, 3)]), "graph", "normal"),
        ("fano", fano(), "bibd", "normal"),
        ("fig3", FIG3, "graph", "transpose"),
        ("fig4a", FIG4A, "graph", "normal"),
        ("fig4a", FIG4A, "graph", "transpose"),
        ("sts-7", steiner_triple(7), "bibd", "normal"),
        ("higher(2-(4,3,2))", h, "higher", "normal"),
        ("higher(2-(4,3,2))", h, "higher", "transpose"),
    ]


def test_c10a_subset_bound_dominates_rank():
    with criterion(10, "(a) subset bound never exceeds the rank bound on 200 "
                       "random matrices"):
        rng = random.Random(101)
        for _ in range(200):
            a = random_01_matrix(rng, 6, 6)
            for p in (2, 3, 5):
                field = PrimeField(p)
                assert subset_bound(a, field).bound <= rank_bound(a, field).bound


def test_c10b_flow_agrees_with_margin_enumeration():
    with criterion(10, "(b) max-flow transfer search agrees with the margin "
                       "inequalities on 200 random matrices"):
        rng = random.Random(202)
        for _ in range(200):
            a = random_01_matrix(rng, 6, 6)
            found = find_transfer_matrix(a)
            assert (found is not None) == transfer_feasible_bruteforce(a)


def test_c10c_rates_never_exceed_bounds():
    with criterion(10, "(c) every generated verified rate is at most every bound"):
        for label, struct, family, orientation in _acceptance_code_instances():
            a = struct.matrix if orientation == "normal" else struct.matrix.transpose()
            net = build_sum_network(a)
            for p in (2, 3, 5):
                field = PrimeField(p)
                try:
                    code, _ = generate_code(struct, family, orientation, field)
                except NoApplicableCode:
                    continue
                assert verify_exact(net, code).ok, (label, orientation, p)
                all_bounds = [rank_bound(a, field).bound, subset_bound(a, field).bound]
                from sumnet.report import family_kind

                kind = family_kind(family, orientation)
                if kind is not None:
                    fam = family_bound(struct, kind, field)
                    if fam.applicable:
                        all_bounds.append(fam.bound)
                for b in all_bounds:
                    assert code.rate <= b, (label, orientation, p, code.rate, b)


def test_c10d_transfer_matrix_validator():
    with criterion(10, "(d) every found transfer matrix has row sums c, column "
                       "sums r, support inside A"):
        rng = random.Random(303)
        checked = 0
        for _ in range(200):
            a = random_01_matrix(rng, 6, 6)
            d = find_transfer_matrix(a)
            if d is None:
                continue
            check_transfer_matrix(d, a)  # raises on any violation
            assert all(sum(d.row(i)) == a.cols for i in range(d.rows))
            assert all(sum(d.col(j)) == a.rows for j in range(d.cols))
            checked += 1
        assert checked > 50  # the sample actually exercised the validator


def test_c10e_exact_equals_exhaustive():
    with criterion(10, "(e) exact verification equals exhaustive enumeration on "
                       "every instance small enough to enumerate"):
        cases = []
        net_k2 = build_sum_network(K2.matrix)
        good2 = build_transfer_code(K2.matrix, PrimeField(2))
        cases.append((net_k2, good2, 64))
        broken = [e.copy() for e in good2.encoders]
        broken[0][2, :] = 0
        cases.append((net_k2, NetworkCode(good2.m, good2.n, good2.p, good2.alpha,
                                          good2.rows, good2.cols, tuple(broken),
                                          good2.decoders), 64))
        cases.append((net_k2, build_transfer_code(K2.matrix, PrimeField(3)), 729))
        row = mat([[1, 1]])
        cases.append((build_sum_network(row), build_scalar_code(row, PrimeField(2)), 8))
        lifted_net = build_sum_network(K2.matrix, alpha=2)
        cases.append((lifted_net, lift_code(good2, 2), 4096))
        for net, code, limit in cases:
            assert verify_exact(net, code).ok == exhaustive_oracle(net, code, limit).ok
