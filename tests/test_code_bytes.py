"""Byte-for-byte pins of exported codes.

Each case builds a code through ``generate_code`` (optionally lifted) and
compares the SHA-256 of its ``export_code`` text with a recorded digest, so
any change to how the generators lay out encoders and decoders shows here.
Digests rather than golden files: the sts-13 code alone exports 1.5 MB.
Codes over larger characteristics pin entries of several digits; a property
test compares ``export_code`` with ``reference_export`` on arbitrary int64
entries.
"""

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import reference_export
from sumnet.cli import _detect_family
from sumnet.codes import Decoder, NetworkCode, NoApplicableCode, export_code, import_code, lift_code
from sumnet.gf import PrimeField
from sumnet.incidence import (
    IncidenceStructure,
    all_subsets_design,
    complete_graph,
    from_graph,
    higher_incidence,
    star_composite,
    steiner_triple,
)
from sumnet.instances import INSTANCES
from sumnet.network import build_sum_network
from sumnet.report import generate_code, orient_matrix
from sumnet.verify import verify_exact, verify_random

STRUCTURES = {
    "k2": (INSTANCES["k2"][1], "graph"),
    "sts-7": (lambda: steiner_triple(7), "bibd"),
    "sts-9": (lambda: steiner_triple(9), "bibd"),
    "sts-13": (lambda: steiner_triple(13), "bibd"),
    "star-composite": (star_composite, "graph"),
    "fig4a": (INSTANCES["fig4a"][1], "graph"),
    "K5": (lambda: complete_graph(5), "graph"),
    "K6": (lambda: complete_graph(6), "graph"),
    "higher-2-(4,3,2)": (lambda: higher_incidence(all_subsets_design(4, 3)), "higher"),
}

# (structure, orientation, characteristic, alpha) -> SHA-256 of the export.
LADDER = {
    ("sts-7", "normal", 3, 1):
        "ba8bcc4ef6d6ece88610cd2187a9e99331c4a0ba803e62adb9a7934e44d412f3",
    ("sts-7", "normal", 5, 1):
        "73bc7ea7d7a25f88f1840e9396065176e04caa7ddd326a25948868e059ba5a86",
    ("sts-9", "normal", 3, 1):
        "0394e2b5025c87636463dd8282f298fe77683397994d9287b350adfcc256325f",
    ("sts-9", "normal", 5, 1):
        "0928da241d792d90d5e9e4027838ab5186be41897463046797a6e0af649ce5be",
    ("sts-13", "normal", 3, 1):
        "51357fd6b5a57e0aaf6500c9e02e5018304f0c5e3eb728d2347ce1446f4e50d3",
    ("sts-13", "normal", 5, 1):
        "84e2c809b5a1b93f2b657810facd0dc54c98bfa342c13d778d4b7003e43b0e8d",
    ("star-composite", "transpose", 2, 1):
        "0a01333354e8171579fc1186130c61df8bbe41ddd6c626db05a12ece12a7f059",
    ("star-composite", "transpose", 3, 1):
        "20a780ad58fa5508c87c0b95afe098f23e4ca3b8578dfa11c53d33be051cffbe",
    ("star-composite", "transpose", 5, 1):
        "8e901e5fd8e5467069ece979532e52ffea80fb0ab51b54ffc5aafc260fb1dcfc",
    ("fig4a", "normal", 3, 1):
        "4686eaaac2cc54aa4da41a502d9bf2d0f832a36838e483d2e4b0c36367d5a435",
    ("fig4a", "transpose", 2, 1):
        "31ee486ec564e6ae37e0ed68e9efb96aabc69f0be409a9b1989e94d1b5e67f5d",
    ("fig4a", "transpose", 3, 1):
        "a6faf7d0564544fd154c98fecd6e6be8e054f2b347539545610a41cb22dad6a1",
    ("K5", "transpose", 3, 1):
        "44620ff61babf88fe82d5e50f1f4234d14fcb18bcf55caec2fd21b31fadf9b0d",
    ("K6", "transpose", 3, 1):
        "84eb4ea4139528d95138d4eaf3d7b3351b079df3ef7518ff0e925fc1ebddb396",
    ("higher-2-(4,3,2)", "normal", 3, 1):
        "cd97660af8bca93e4a5c02f22a4d2ec057874b10e9bac4b5c917675da885208f",
    ("higher-2-(4,3,2)", "transpose", 3, 1):
        "2aa3849c6a8e75b18c4d161850aa1ec0a8cadfdfd2b049bf476e846ff8803efb",
    ("sts-7", "normal", 3, 2):
        "6ed1f8d4bdd83acaee4fa3217f20c5a2f42143f73046a2eb9bcc109661c7c866",
    ("fig4a", "transpose", 2, 2):
        "44be562c554c60ce929c2a56c2c57a3d16d23debc7f2970d3c74fe85256ebf2d",
    ("star-composite", "transpose", 5, 2):
        "a6dabce11e089bb9dc3ee201f78ea03965cc3156222fcd159369f29d4fdec719",
    # Decoder coefficients -mu mod p: 9, 11, 99 and 101 (sts-7, mu = 2), 2^63 - 28 (K5, mu = 3).
    ("sts-7", "normal", 11, 1):
        "2d93e1e6aa71da9c709d4235fe6e5631144bb24f05538f69414f82cac20d3105",
    ("sts-7", "normal", 13, 1):
        "54c88b8139d449a3eb1697c02d4d3671c9193952665348302ca747b7e8c4601b",
    ("sts-7", "normal", 101, 1):
        "71ca2a4fdc8496363d2ccd3f8e9fa47df5f84efba8def93ec962bd06d121f863",
    ("sts-7", "normal", 103, 1):
        "bcb4cbbad9f8889971e3651e9c54d471bd9a0ba326b1eea19151f87cc83bc151",
    ("K5", "transpose", 2**63 - 25, 1):
        "931d59e92a050693302a781bfb0f2d9914585cf1f1be9d642bf768b1a4d81f1a",
    # Scalar codes: rate 1, partial sums only.
    ("sts-7", "normal", 2, 1):
        "95a6e995c705189b71ee3184b8acfd7a43067b04c25af6351e6e6aad96b4bf38",
    ("sts-9", "normal", 2, 1):
        "2d14121c45306e7308487a333b6d9b41382dbaf21c332566de052357a70bd2cf",
    ("sts-13", "normal", 2, 1):
        "947cc2bd2cb64865c1dbe2d58a33e038597071021636b4063086d3ce60b1928a",
    ("sts-7", "normal", 2, 2):
        "2c6cd4da5811b4a773d9d92ebe9f4ebe314cf36e10b1717fe5b5329e156cf3a3",
    ("k2", "transpose", 2, 1):
        "219f188f0370273009b267d98ceafdd7eddca8e043f9007817a8e66529c0e2df",
}


# SHA-256 of the outcome lines of test_generate_code_outcomes_are_pinned.
OUTCOME_DIGEST = "1213e0be01eb290c5a246d16e80228917e028389b75b37076bad704ceb11f991"


def ladder_code(name, orientation, char, alpha):
    build, family = STRUCTURES[name]
    code, _ = generate_code(build(), family, orientation, PrimeField(char))
    return lift_code(code, alpha)


@pytest.mark.parametrize("key", list(LADDER), ids=lambda k: "-".join(map(str, k)))
def test_export_bytes_are_pinned(key):
    text = export_code(ladder_code(*key))
    assert hashlib.sha256(text.encode()).hexdigest() == LADDER[key]


def random_graph(rng):
    """A seeded random simple graph on 2 to 8 vertices with no isolated vertex."""
    while True:
        v = rng.randint(2, 8)
        edges = [(i, j) for i in range(1, v + 1) for j in range(i + 1, v + 1) if rng.random() < 0.5]
        if {x for e in edges for x in e} == set(range(1, v + 1)):
            return from_graph(v, edges)


def random_structure(rng):
    """A seeded random simple structure on 1 to 6 points, every point in some block."""
    while True:
        v, b = rng.randint(1, 6), rng.randint(1, 8)
        blocks = {tuple(sorted(rng.sample(range(1, v + 1), rng.randint(1, v)))) for _ in range(b)}
        if {x for blk in blocks for x in blk} == set(range(1, v + 1)):
            return IncidenceStructure(v, tuple(sorted(blocks)))


def outcome_structures():
    """(label, structure, family) for every structure the outcome digest covers."""
    out = [(name, build(), family) for name, (family, build) in INSTANCES.items()]
    out += [(f"K{n}", complete_graph(n), "graph") for n in range(3, 9)]
    out += [(f"sts-{v}", steiner_triple(v), "bibd") for v in (7, 9)]
    out += [(f"all-{v}-{k}", all_subsets_design(v, k), "tdesign")
            for v, k in ((4, 3), (5, 2), (5, 3), (6, 3))]
    out.append(("higher-2-(4,3,2)", higher_incidence(all_subsets_design(4, 3)), "higher"))
    rng = random.Random(26)
    out += [(f"graph-{i}", random_graph(rng), "graph") for i in range(150)]
    for i in range(150):
        struct = random_structure(rng)
        out.append((f"struct-{i}", struct, _detect_family(struct)))
    return out


def outcome_line(struct, family, orientation, char):
    """``generate_code``'s construction and export digest, or the text of its refusal."""
    try:
        code, via = generate_code(struct, family, orientation, PrimeField(char))
    except (NoApplicableCode, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{via} {hashlib.sha256(export_code(code).encode()).hexdigest()}"


def test_generate_code_outcomes_are_pinned():
    # One line per (structure, orientation, char): which construction built
    # the code and its exported bytes, or the refusal and its text.
    lines = [
        f"{label} {family} {orientation} {char}: {outcome_line(struct, family, orientation, char)}"
        for label, struct, family in outcome_structures()
        for orientation in ("normal", "transpose")
        for char in (2, 3, 5, 7)
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == OUTCOME_DIGEST


def as_int64(code):
    return replace(
        code,
        encoders=tuple(e.astype(np.int64) for e in code.encoders),
        decoders={t: replace(d, matrix=d.matrix.astype(np.int64)) for t, d in code.decoders.items()},
    )


def with_one_corrupted_entry(code):
    """The code with its first decoder's entry (0, 0) raised by 1 mod p, in the code's type."""
    decoders = {t: replace(d, matrix=d.matrix.copy()) for t, d in code.decoders.items()}
    mat = decoders[min(decoders)].matrix
    mat[0, 0] = (int(mat[0, 0]) + 1) % code.p
    return replace(code, decoders=decoders)


def outcomes(net, code):
    """Both verifiers' reports, or the message of the refusal each raises."""
    results = []
    for check in (lambda: verify_exact(net, code), lambda: verify_random(net, code, 20, 1)):
        try:
            results.append(check())
        except ValueError as exc:
            results.append(str(exc))
    return results


@pytest.mark.parametrize("key", list(LADDER), ids=lambda k: "-".join(map(str, k)))
def test_a_code_and_its_int64_cast_export_and_verify_alike(key):
    name, orientation, char, alpha = key
    build, _ = STRUCTURES[name]
    net = build_sum_network(orient_matrix(build(), orientation), alpha=alpha)
    code = ladder_code(*key)
    for built in (code, with_one_corrupted_entry(code)):
        wide, read = as_int64(built), import_code(export_code(built))
        assert export_code(built) == export_code(wide) == export_code(read)
        assert outcomes(net, built) == outcomes(net, wide) == outcomes(net, read)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# 0, the int64 extremes, and 10^k - 1, 10^k and their negatives, where a
# number gains a digit.
EDGES = sorted({0, INT64_MIN, INT64_MAX} | {
    sign * (10**k + d) for k in range(19) for d in (-1, 0) for sign in (1, -1)
})
entries = st.one_of(st.sampled_from(EDGES), st.integers(INT64_MIN, INT64_MAX))
matrices = arrays(np.int64, st.tuples(st.integers(0, 4), st.integers(0, 6)), elements=entries)
names = st.from_regex(r"[a-z_0-9]{1,4}", fullmatch=True)
decoders = st.builds(Decoder, st.tuples(names, names).map(tuple), matrices)


@st.composite
def int64_codes(draw):
    """A NetworkCode with arbitrary shapes and int64 entries; export checks neither."""
    header = draw(st.lists(st.integers(0, 2**63), min_size=6, max_size=6))
    encoders = draw(st.lists(matrices, max_size=3))
    return NetworkCode(*header, tuple(encoders), draw(st.dictionaries(names, decoders, max_size=3)))


EXTREMES = np.array([EDGES, EDGES[::-1]], dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(int64_codes())
@example(NetworkCode(1, 2, 3, 1, 2, 0, (EXTREMES, np.zeros((3, 0), dtype=np.int64)), {
    "t": Decoder(("e1",), EXTREMES.T.copy()),
    "u": Decoder((), np.zeros((2, 0), dtype=np.int64)),
    "v": Decoder(("e2",), np.zeros((0, 4), dtype=np.int64)),
}))
def test_export_code_matches_the_reference_on_int64_entries(code):
    assert export_code(code) == reference_export(code)
