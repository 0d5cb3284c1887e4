"""The verifiers themselves: exact and randomized, against the references in conftest."""

import math
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REFERENCE_CODES,
    mat,
    message_offsets,
    reference_code,
    reference_exhaustive,
    reference_failures,
    reference_random,
    reference_symbols,
)
from sumnet.codes import (
    Decoder,
    NetworkCode,
    build_scalar_code,
    build_transfer_code,
    export_code,
    import_code,
    lift_code,
)
from sumnet.gf import PrimeField, is_prime
from sumnet.incidence import from_graph, steiner_triple
from sumnet.instances import INSTANCES
from sumnet.network import bottleneck_sources, build_sum_network
from sumnet.report import generate_code, orient_matrix
from sumnet.verify import (
    VerifyReport,
    _random_blocks,
    verify_exact,
    verify_random,
)

K2_MATRIX = mat([[1], [1]])
FIG4A = from_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])


def corrupt_encoder(code: NetworkCode, enc_index: int, row: int) -> NetworkCode:
    encoders = [e.copy() for e in code.encoders]
    encoders[enc_index][row, :] = 0
    return NetworkCode(
        code.m, code.n, code.p, code.alpha, code.rows, code.cols,
        tuple(encoders), code.decoders,
    )


def test_reference_code_verifies_both_chars():
    net = build_sum_network(K2_MATRIX)
    for p in (2, 3):
        report = verify_exact(net, reference_code("k2-normal", p))
        assert report.ok and report.mode == "exact-basis"
        assert report.trials_or_dim == 2 * 3


def test_corrupted_component_fails_at_block_terminal():
    net = build_sum_network(K2_MATRIX)
    bad = corrupt_encoder(reference_code("k2-normal", 2), 0, 2)
    report = verify_exact(net, bad)
    assert not report.ok
    assert [t for t, _ in report.failures] == ["t_B1"]
    # the witness pins a message whose decode breaks
    (terminal, witness), = report.failures
    assert witness == {"s_B1": (1, 0)}


@pytest.mark.parametrize("a,p,enc_index,row,want", [
    (K2_MATRIX, 2, 0, 1, (("t_p1", {"s_p1": (0, 1)}), ("t_B1", {"s_p1": (0, 1)}))),
    (FIG4A.matrix, 3, 2, 2, tuple((t, {"s_p3": (0, 0, 1, 0)})
                                  for t in ("t_p3", "t_B2", "t_B3", "t_B5"))),
    (FIG4A.matrix, 3, 2, 7, (("t_B5", {"s_B5": (0, 0, 1, 0)}),)),
])
def test_exact_witness_names_the_source_and_component(a, p, enc_index, row, want):
    # Zeroing one encoder row loses one component of one source's message;
    # the witness is the unit vector at the first column that breaks.
    bad = corrupt_encoder(build_transfer_code(a, PrimeField(p)), enc_index, row)
    assert verify_exact(build_sum_network(a), bad).failures == want


def test_fig4a_reference_verifies():
    net = build_sum_network(mat([[1, 0, 0, 1, 1], [1, 1, 0, 0, 0],
                                 [0, 1, 1, 0, 1], [0, 0, 1, 1, 0]]))
    assert verify_exact(net, reference_code("fig4a-normal", 2)).ok


def test_exhaustive_oracle_k2():
    net = build_sum_network(K2_MATRIX)
    code = reference_code("k2-normal", 2)
    truth = reference_exhaustive(net, code)
    assert truth.ok and truth.trials_or_dim == 64
    assert verify_exact(net, code).ok


def test_exhaustive_counts_failures_exactly():
    net = build_sum_network(K2_MATRIX)
    bad = corrupt_encoder(reference_code("k2-normal", 2), 0, 2)
    truth = reference_exhaustive(net, bad)
    assert not truth.ok
    # exactly the messages with a nonzero first edge-message component fail,
    # all at the one terminal verify_exact names
    assert len(truth.failures) == 32
    assert all(t == "t_B1" for t, _ in truth.failures)
    assert [t for t, _ in verify_exact(net, bad).failures] == ["t_B1"]


def test_exact_agrees_with_exhaustive():
    net = build_sum_network(K2_MATRIX)
    for p in (2, 3):
        code = build_transfer_code(K2_MATRIX, PrimeField(p))
        truth = reference_exhaustive(net, code)
        assert truth.trials_or_dim == p ** (code.m * 3)
        assert verify_exact(net, code).ok == truth.ok
        bad = corrupt_encoder(code, 1, 0)
        assert verify_exact(net, bad).ok == reference_exhaustive(net, bad).ok is False


def test_exact_agrees_with_exhaustive_scalar_transpose():
    a = mat([[1, 1]])
    net = build_sum_network(a)
    code = build_scalar_code(a, PrimeField(2))
    assert verify_exact(net, code).ok
    truth = reference_exhaustive(net, code)
    assert truth.ok and truth.trials_or_dim == 8


def test_random_matches_exact_on_valid_codes():
    net = build_sum_network(K2_MATRIX)
    code = reference_code("k2-normal", 2)
    report = verify_random(net, code, trials=1000, seed=1)
    assert report.ok and report.trials_or_dim == 1000 and report.seed == 1


def test_random_finds_corruption():
    net = build_sum_network(K2_MATRIX)
    bad = corrupt_encoder(reference_code("k2-normal", 2), 0, 2)
    report = verify_random(net, bad, trials=64, seed=7)
    assert not report.ok
    assert report.failures  # carries witnesses
    terminal, witness = report.failures[0]
    assert terminal == "t_B1" and witness


def test_random_zero_trials_vacuous():
    net = build_sum_network(K2_MATRIX)
    report = verify_random(net, reference_code("k2-normal", 2), trials=0, seed=1)
    assert report.ok and report.trials_or_dim == 0


def test_random_reproducible():
    net = build_sum_network(K2_MATRIX)
    bad = corrupt_encoder(reference_code("k2-normal", 2), 0, 2)
    a = verify_random(net, bad, trials=20, seed=42)
    b = verify_random(net, bad, trials=20, seed=42)
    assert a == b


def test_dimension_mismatch_rejected():
    net = build_sum_network(K2_MATRIX)
    code = build_transfer_code(FIG4A.matrix, PrimeField(2))
    with pytest.raises(ValueError, match="code is for"):
        verify_exact(net, code)
    k2_code = build_transfer_code(K2_MATRIX, PrimeField(2))
    net2 = build_sum_network(K2_MATRIX, alpha=2)
    with pytest.raises(ValueError, match="alpha"):
        verify_exact(net2, k2_code)


@pytest.mark.parametrize("count", [1, 3])
def test_verifiers_refuse_a_wrong_encoder_count(count):
    # k2 has two bottlenecks: a code with one encoder fewer or one more is
    # refused, not read past its end or verified with an encoder left unread.
    code = build_transfer_code(K2_MATRIX, PrimeField(3))
    bad = NetworkCode(code.m, code.n, code.p, code.alpha, code.rows, code.cols,
                      (code.encoders * 2)[:count], code.decoders)
    net = build_sum_network(K2_MATRIX)
    for check in (
        lambda: verify_exact(net, bad),
        lambda: verify_random(net, bad, 5, 1),
    ):
        with pytest.raises(ValueError, match=f"code has {count} encoders, network has 2 bottlenecks"):
            check()


def test_nonlocal_encoder_rejected():
    # An in-range entry off the feeding columns of e1 of k2 (the message of
    # s_p2), or of e3, e5 or both of sts-7, is refused by both verifiers,
    # naming the lowest such encoder.
    sts7 = steiner_triple(7)
    sts7_code, _ = generate_code(sts7, "bibd", "normal", PrimeField(3))
    cases = [(K2_MATRIX, build_transfer_code(K2_MATRIX, PrimeField(2)), (1,))]
    cases += [(orient_matrix(sts7, "normal"), sts7_code, c) for c in ((3,), (5,), (3, 5))]
    for a, code, corrupted in cases:
        net = build_sum_network(a)
        encoders = [e.copy() for e in code.encoders]
        for i in corrupted:
            off = sorted(set(range(encoders[i - 1].shape[1])) - set(fed_columns(net, code, i)))
            encoders[i - 1][i, off[i]] = 1
        bad = NetworkCode(code.m, code.n, code.p, code.alpha, code.rows, code.cols,
                          tuple(encoders), code.decoders)
        want = f"^encoder e{corrupted[0]} uses a message outside the sources feeding it$"
        for check in (lambda: verify_exact(net, bad), lambda: verify_random(net, bad, 5, 1)):
            with pytest.raises(ValueError, match=want):
                check()


def test_decoder_with_wrong_inputs_rejected():
    from sumnet.codes import Decoder

    net = build_sum_network(K2_MATRIX)
    code = build_transfer_code(K2_MATRIX, PrimeField(2))
    decoders = dict(code.decoders)
    old = decoders["t_p1"]
    # claim a direct edge from s_B1, which the network does not provide here
    decoders["t_p1"] = Decoder(("e1", "s_B1"), old.matrix)
    bad = NetworkCode(code.m, code.n, code.p, code.alpha, code.rows, code.cols,
                      code.encoders, decoders)
    with pytest.raises(ValueError, match="expected"):
        verify_exact(net, bad)


def test_lifted_code_verifies_and_simulates():
    base = build_transfer_code(K2_MATRIX, PrimeField(2))
    for alpha in (2, 3):
        code = lift_code(base, alpha)
        net = build_sum_network(K2_MATRIX, alpha=alpha)
        assert verify_exact(net, code).ok
        assert verify_random(net, code, trials=200, seed=3).ok
        if alpha == 2:
            truth = reference_exhaustive(net, code)
            assert truth.ok and truth.trials_or_dim == 2**12


def test_verification_never_derives_the_graph():
    # A network is its matrix and alpha: no verifier, witness reader included,
    # reads the nodes or edges derived from them.
    code = build_transfer_code(K2_MATRIX, PrimeField(2))
    for ok, c in ((True, code), (False, corrupt_encoder(code, 0, 2))):
        net = build_sum_network(K2_MATRIX)
        assert verify_exact(net, c).ok is ok
        assert verify_random(net, c, trials=64, seed=1).ok is ok
        assert "edges" not in vars(net) and "nodes" not in vars(net)


def test_verifiers_refuse_characteristics_that_overflow_int64():
    # (p-1)^2 alone exceeds 2^63 here, so any code would wrap around.
    p = 4294967311
    code = build_transfer_code(K2_MATRIX, PrimeField(p))
    net = build_sum_network(K2_MATRIX)
    for check in (
        lambda: verify_exact(net, code),
        lambda: verify_random(net, code, 5, 1),
    ):
        with pytest.raises(ValueError, match=f"p={p}.*2\\^63"):
            check()


def test_int64_limit_is_tight():
    # k2 transfer code: largest inner dimension 6 (encoder width and decoders).
    net = build_sum_network(K2_MATRIX)
    limit = math.isqrt((2**63 - 1) // 6) + 1  # largest p with (p-1)^2 * 6 < 2^63
    below = next(q for q in range(limit, 2, -1) if is_prime(q))
    above = next(q for q in range(limit + 1, 2 * limit) if is_prime(q))
    code = build_transfer_code(K2_MATRIX, PrimeField(below))
    assert verify_exact(net, code).ok
    assert verify_random(net, code, 20, 7).ok
    with pytest.raises(ValueError, match=f"p <= {limit}"):
        verify_exact(net, build_transfer_code(K2_MATRIX, PrimeField(above)))


@pytest.mark.parametrize("p", [1, 4])
def test_verifiers_refuse_non_prime_characteristics(p):
    # Over Z/1 every map is zero and Z/4 is not a field: neither check would prove anything.
    text = export_code(build_transfer_code(K2_MATRIX, PrimeField(3)))
    code = import_code(text.replace("\np 3\n", f"\np {p}\n"))
    assert code.p == p
    net = build_sum_network(K2_MATRIX)
    for check in (
        lambda: verify_exact(net, code),
        lambda: verify_random(net, code, 5, 1),
    ):
        with pytest.raises(ValueError, match=f"p={p} is not a prime"):
            check()


def test_primality_is_refused_before_locality():
    # Two faults: Z/4 is not a field, and e1 reads s_p2's message, which does not feed it.
    code = build_transfer_code(K2_MATRIX, PrimeField(3))
    encoders = [e.copy() for e in code.encoders]
    encoders[0][0, 2] = 1
    net = build_sum_network(K2_MATRIX)
    for p, want in ((3, "outside the sources feeding it"), (4, "p=4 is not a prime")):
        bad = NetworkCode(code.m, code.n, p, code.alpha, code.rows, code.cols,
                          tuple(encoders), code.decoders)
        for check in (
            lambda: verify_exact(net, bad),
            lambda: verify_random(net, bad, 5, 1),
            ):
            with pytest.raises(ValueError, match=want):
                check()


@pytest.mark.parametrize("target,entry", [
    ("encoder e1", 1 + 3 * 2**61),
    ("encoder e1", -2),
    ("decoder for t_B1", 4),
])
def test_verifiers_refuse_entries_outside_the_field(target, entry):
    # Each entry is congruent to an honest one mod 3, but the int64 limit
    # assumes entries below p: 1 + 3*2^61 makes enc @ x wrap around.  The
    # corrupted copies are int64 matrices, which can hold such an entry.
    code = build_transfer_code(K2_MATRIX, PrimeField(3))
    encoders = [e.astype(np.int64) for e in code.encoders]
    decoders = {t: Decoder(d.inputs, d.matrix.astype(np.int64)) for t, d in code.decoders.items()}
    mat = encoders[0] if target == "encoder e1" else decoders["t_B1"].matrix
    mat[0][mat[0] == entry % 3] = entry
    bad = NetworkCode(code.m, code.n, code.p, code.alpha, code.rows, code.cols,
                      tuple(encoders), decoders)
    net = build_sum_network(K2_MATRIX)
    for check in (
        lambda: verify_exact(net, bad),
        lambda: verify_random(net, bad, 50, 1),
    ):
        with pytest.raises(ValueError, match=rf"{target} has an entry outside \[0, 3\)"):
            check()


def test_range_is_refused_before_locality():
    # e1 reads s_p2's message, which does not feed it, with an entry outside
    # the field, above it or below zero: the range refusal comes first,
    # though the entry is off the feeding columns.
    code = build_transfer_code(K2_MATRIX, PrimeField(3))
    net = build_sum_network(K2_MATRIX)
    for entry in (4, -1):
        encoders = [e.copy() for e in code.encoders]
        encoders[0][0, 2] = entry
        bad = NetworkCode(code.m, code.n, code.p, code.alpha, code.rows, code.cols,
                          tuple(encoders), code.decoders)
        for check in (
            lambda: verify_exact(net, bad),
            lambda: verify_random(net, bad, 5, 1),
            ):
            with pytest.raises(ValueError, match=r"^encoder e1 has an entry outside \[0, 3\)$"):
                check()


def test_verify_random_rejects_negative_trials():
    net = build_sum_network(K2_MATRIX)
    code = build_transfer_code(K2_MATRIX, PrimeField(3))
    with pytest.raises(ValueError, match="nonnegative"):
        verify_random(net, code, -5, 1)


# Small codes whose every message tuple the exhaustive reference can enumerate.
SMALL_CODES = {
    "k2-transfer-2": lambda: (K2_MATRIX, build_transfer_code(K2_MATRIX, PrimeField(2))),
    "k2-transfer-3": lambda: (K2_MATRIX, build_transfer_code(K2_MATRIX, PrimeField(3))),
    "k2-reference-3": lambda: (K2_MATRIX, reference_code("k2-normal", 3)),
    "scalar-11-2": lambda: (mat([[1, 1]]), build_scalar_code(mat([[1, 1]]), PrimeField(2))),
    "k2-lift2-2": lambda: (K2_MATRIX, lift_code(build_transfer_code(K2_MATRIX, PrimeField(2)), 2)),
}


@cache
def small_code(name):
    a, code = SMALL_CODES[name]()
    return build_sum_network(a, alpha=code.alpha), code


def fed_columns(net, code, i):
    """Columns of encoder e<i> that belong to the sources feeding it."""
    offsets = message_offsets(net.r, net.c, code.m)
    cols = []
    for label in bottleneck_sources(net.matrix, i):
        off = offsets[label]
        cols.extend(range(off, off + code.m))
    return cols


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(SMALL_CODES)), data=st.data())
def test_exact_matches_exhaustive_on_one_corrupted_entry(name, data):
    net, code = small_code(name)
    p = code.p
    encoders = [e.copy() for e in code.encoders]
    decoders = {t: Decoder(d.inputs, d.matrix.copy()) for t, d in code.decoders.items()}
    if data.draw(st.booleans(), label="corrupt encoder"):
        i = data.draw(st.integers(1, len(encoders)), label="bottleneck")
        target = encoders[i - 1]
        row = data.draw(st.integers(0, target.shape[0] - 1), label="row")
        col = data.draw(st.sampled_from(fed_columns(net, code, i)), label="col")
    else:
        terminal = data.draw(st.sampled_from(sorted(decoders)), label="terminal")
        target = decoders[terminal].matrix
        row = data.draw(st.integers(0, target.shape[0] - 1), label="row")
        col = data.draw(st.integers(0, target.shape[1] - 1), label="col")
    target[row, col] = (target[row, col] + data.draw(st.integers(1, p - 1))) % p
    bad = NetworkCode(code.m, code.n, p, code.alpha, code.rows, code.cols,
                      tuple(encoders), decoders)
    exact = verify_exact(net, bad)
    truth = reference_exhaustive(net, bad)
    assert truth.trials_or_dim == p ** (code.m * (net.r + net.c))
    assert exact.ok == truth.ok
    assert {t for t, _ in exact.failures} == {t for t, _ in truth.failures}
    for failure in exact.failures:
        assert failure in truth.failures


def python_int_failures(net, code):
    """verify_exact's (terminal, unit witness) list, recomputed with Python integers.

    Each input's global map is built independently: a bottleneck's is its
    encoder, a direct edge's selects its source's message, slice l on the
    leading slots of parallel edge l.
    """
    p, m, width = code.p, code.m, code.alpha * code.n
    dim = m * (net.r + net.c)
    offsets = message_offsets(net.r, net.c, m)
    failures = []
    for terminal in net.terminals():
        dec = code.decoders[terminal]
        composite = np.zeros((m, dim), dtype=object)
        for pos, label in enumerate(dec.inputs):
            if label.startswith("e"):
                bundle = code.encoders[int(label[1:]) - 1].astype(object)
            else:
                bundle = np.zeros((width, dim), dtype=object)
                off = offsets[label]
                for k in range(m):
                    ell, u = divmod(k, m // code.alpha)
                    bundle[ell * code.n + u, off + k] = 1
            block = dec.matrix[:, pos * width : (pos + 1) * width].astype(object)
            composite = composite + block @ bundle
        for col in range(dim):
            want = [int(col % m == row) for row in range(m)]
            if [int(x) % p for x in composite[:, col]] != want:
                source, comp = divmod(col, m)
                unit = tuple(int(k == comp) for k in range(m))
                failures.append((terminal, {net.sources()[source]: unit}))
                break
    return failures


def all_top_code(alpha):
    """The k2 network and a code with every admissible entry at p-1, for the
    largest p the int64 limit accepts."""
    net = build_sum_network(K2_MATRIX, alpha=alpha)
    shapes = lift_code(reference_code("k2-normal", 2), alpha)
    widths = [d.matrix.shape[1] for d in shapes.decoders.values()]
    inner = max([shapes.m * (net.r + net.c)] + widths)
    limit = math.isqrt((2**63 - 1) // inner) + 1
    p = next(q for q in range(limit, 2, -1) if is_prime(q))
    code = lift_code(reference_code("k2-normal", p), alpha)
    encoders = []
    for i, enc in enumerate(code.encoders, start=1):
        enc = np.zeros_like(enc)
        enc[:, fed_columns(net, code, i)] = p - 1
        encoders.append(enc)
    decoders = {
        t: Decoder(d.inputs, np.full_like(d.matrix, p - 1)) for t, d in code.decoders.items()
    }
    return net, NetworkCode(code.m, code.n, p, code.alpha, code.rows, code.cols,
                            tuple(encoders), decoders)


@pytest.mark.parametrize("alpha", [1, 2])
def test_exact_sums_stay_exact_at_the_int64_limit(alpha):
    # The composite reaches (p-1)^2 times the decoder width before reduction.
    net, full = all_top_code(alpha)
    report = verify_exact(net, full)
    assert not report.ok
    assert list(report.failures) == python_int_failures(net, full)


@pytest.mark.parametrize("alpha", [1, 2])
def test_simulated_sums_stay_exact_at_the_int64_limit(alpha):
    # Each decoded symbol sums up to ``inner`` products below (p-1)^2 before
    # reduction; the reference decodes with Python integers (object arrays).
    net, full = all_top_code(alpha)
    dim = full.m * (net.r + net.c)
    messages = (
        np.array(reference_symbols(1 + t, full.p, dim), dtype=object) for t in range(65)
    )
    failures = tuple(reference_failures(net, full, messages))
    assert failures
    assert verify_random(net, full, 65, 1) == VerifyReport("randomized", False, failures, 65, 1)


def test_simulation_memory_is_bounded_by_the_block():
    # 250 trials on the 65-terminal network: four blocks of 64, each
    # decoded terminal by terminal, so the traced peak does not grow with
    # the trial count or the number of terminals.
    family, build = INSTANCES["star-composite"]
    code, _ = generate_code(build(), family, "transpose", PrimeField(5))
    net = build_sum_network(orient_matrix(build(), "transpose"))
    tracemalloc.start()
    try:
        report = verify_random(net, code, 250, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 4 * 2**20


def test_exact_memory_is_bounded_by_one_terminal():
    # The sts-19 code's int8 encoders alone hold 2.0 MiB (15.9 MiB as int64);
    # verify_exact composes one terminal at a time, so neither a dense bundle
    # map nor the whole code's products are ever held at once.
    sts19 = steiner_triple(19)
    code, _ = generate_code(sts19, "bibd", "normal", PrimeField(3))
    net = build_sum_network(orient_matrix(sts19, "normal"))
    tracemalloc.start()
    try:
        report = verify_exact(net, code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 8 * 2**20


# Codes for the simulation properties: (instance, orientation, kind), with
# kind "reference" for the hand-written codes and "generated" for generate_code's.
SIM_CASES = [
    (name, orientation, kind)
    for name in ("k2", "triangle", "fano", "fig4a")
    for orientation in ("normal", "transpose")
    for kind in ("reference", "generated")
    if kind == "generated" or f"{name}-{orientation}" in REFERENCE_CODES
]


@cache
def sim_code(name, orientation, kind, p, alpha):
    family, build = INSTANCES[name]
    if kind == "reference":
        code = reference_code(f"{name}-{orientation}", p)
    else:
        code, _ = generate_code(build(), family, orientation, PrimeField(p))
    code = lift_code(code, alpha)
    return build_sum_network(orient_matrix(build(), orientation), alpha=alpha), code


def corrupt_entries(net, code, data) -> NetworkCode:
    """The code with zero to three entries drawn by hypothesis shifted by a nonzero amount."""
    p = code.p
    encoders = [e.copy() for e in code.encoders]
    decoders = {t: Decoder(d.inputs, d.matrix.copy()) for t, d in code.decoders.items()}
    for _ in range(data.draw(st.integers(0, 3), label="corrupted entries")):
        if data.draw(st.booleans(), label="corrupt encoder"):
            i = data.draw(st.integers(1, len(encoders)), label="bottleneck")
            target = encoders[i - 1]
            col = data.draw(st.sampled_from(fed_columns(net, code, i)), label="col")
        else:
            terminal = data.draw(st.sampled_from(sorted(decoders)), label="terminal")
            target = decoders[terminal].matrix
            col = data.draw(st.integers(0, target.shape[1] - 1), label="col")
        row = data.draw(st.integers(0, target.shape[0] - 1), label="row")
        target[row, col] = (target[row, col] + data.draw(st.integers(1, p - 1))) % p
    return NetworkCode(code.m, code.n, p, code.alpha, code.rows, code.cols,
                       tuple(encoders), decoders)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(SIM_CASES),
    p=st.sampled_from([2, 3, 5, 7]),
    alpha=st.integers(1, 2),
    trials=st.sampled_from([0, 1, 63, 64, 65, 130]),
    seed=st.one_of(
        st.sampled_from([-(2**64) - 3, -7, -1, 0, 1, 3, 2**64 - 5]),
        st.integers(-(2**66), 2**66),
    ),
    data=st.data(),
)
def test_simulation_matches_the_per_trial_reference(case, p, alpha, trials, seed, data):
    net, code = sim_code(*case, p, alpha)
    bad = corrupt_entries(net, code, data)
    assert verify_random(net, bad, trials, seed) == reference_random(net, bad, trials, seed)


@settings(max_examples=120, deadline=None)
@given(
    case=st.sampled_from(SIM_CASES),
    p=st.sampled_from([2, 3, 5, 7]),
    alpha=st.integers(1, 2),
    data=st.data(),
)
def test_exact_matches_the_python_int_reference(case, p, alpha, data):
    # Every composite built from independent global maps: a bottleneck block
    # and a direct block alike, at alpha 2 on the leading slots of each edge.
    net, code = sim_code(*case, p, alpha)
    bad = corrupt_entries(net, code, data)
    assert list(verify_exact(net, bad).failures) == python_int_failures(net, bad)


# 6148914691236517223 is the first prime above 2^64/3: a third of all draws
# fall at or above floor(2^64/p)*p = 2p and are rejected.  Every p the
# verifiers accept rejects fewer than p/2^64 of them, so only this direct
# check of the stream covers rejection.
@pytest.mark.parametrize("p", [2, 3, 5, 4294967311, 2**63 - 25, 6148914691236517223])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 3])
def test_message_blocks_match_the_reference_stream(p, seed):
    blocks = list(_random_blocks(seed, p, 130, 40))
    assert [b.shape for b in blocks] == [(40, 64), (40, 64), (40, 2)]
    messages = np.hstack(blocks)
    for t in range(130):
        assert messages[:, t].tolist() == reference_symbols(seed + t, p, 40)
