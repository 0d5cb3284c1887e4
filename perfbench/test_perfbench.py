"""Tests of the benchmark itself: seeded inputs, reference checks, tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

import checks
import run
import tracing
from workloads import WORKLOADS, input_files, random_matrix_text, write_inputs

from sumnet import cli, incidence


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_same_seed_gives_identical_inputs(tmp_path):
    write_inputs("subset-search", 7, tmp_path / "a")
    write_inputs("subset-search", 7, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["r14-dense.txt", "r14-sparse.txt"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_different_seeds_give_different_inputs():
    files = [input_files("subset-search", seed) for seed in range(8)]
    texts = [text for f in files for text in f.values()]
    assert len(set(texts)) == len(texts)


def test_only_subset_search_has_generated_inputs():
    assert [name for name in WORKLOADS if input_files(name, 1)] == ["subset-search"]


@pytest.mark.parametrize("seed", range(6))
def test_random_matrix_is_neither_graph_nor_design(seed):
    struct = incidence.parse_matrix_text(random_matrix_text(seed, 14, 20, 0.25))
    assert struct.num_points == 14 and struct.num_blocks == 20
    assert len({len(b) for b in struct.blocks}) > 1
    assert all(struct.point_degree(p) for p in range(1, 15))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_reference_bound_matches_the_program(tmp_path, seed, p):
    rng = random.Random(seed)
    rows, cols = rng.randint(3, 6), rng.randint(4, 8)
    text = random_matrix_text(seed, rows, cols, 0.4)
    path = tmp_path / "m.txt"
    path.write_text(text)
    got = _cli(["bound", "--file", str(path), "--char", str(p)])
    assert got == checks.reference_bound_output("m.txt", text, p)


def test_snapshot_lists_the_workload_jobs():
    expected = checks.load_expected()
    assert sorted(expected) == sorted(WORKLOADS)
    for name, workload in WORKLOADS.items():
        assert len(expected[name]) == len(workload.jobs)
        for job, snap in zip(workload.jobs, expected[name]):
            if snap is not None:
                assert snap["argv"] == list(job)


def test_matched_rows_are_parsed_from_the_table():
    text = _cli(["table", "sts", "--v", "7", "--char", "2,3"])
    assert checks.matched_keys(text) == [["sts-7", "normal", "2"], ["sts-7", "normal", "3"]]


def test_tracer_wraps_every_binding_and_restores_them():
    import sumnet
    from sumnet import report, verify

    orig = verify.verify_exact
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (sumnet, cli, report, verify):
            assert module.verify_exact is not orig
            assert module.verify_exact.__wrapped__ is orig
        _cli(["code", "--k2", "--normal", "--char", "2"])
    finally:
        tracer.uninstall()
    assert cli.verify_exact is orig and report.verify_exact is orig
    totals = tracer.totals()
    assert totals["cli.calls"] == 1
    assert totals["verify.exact.calls"] == 1
    assert totals["codes.build.calls"] == 1
    assert totals["verify.exact.terminals"] == 3  # t_p1, t_p2, t_B1
    self_sum = sum(totals[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert self_sum == pytest.approx(totals["cli.busy_s"], abs=1e-6)
    spans = [s for s in tracer.spans if s is not None]
    assert spans[0][1] is None and all(s[1] is not None for s in spans[1:])


def test_tracer_refuses_a_missing_function(monkeypatch):
    layers = dict(tracing.LAYERS)
    layers["verify.exact"] = ("sumnet.verify", ("verify_exact", "no_such_function"))
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer()
    with pytest.raises(tracing.CoverageError, match="no_such_function"):
        try:
            tracer.install()
        finally:
            tracer.uninstall()


def test_dominant_layer_without_calls_fails():
    with pytest.raises(tracing.CoverageError):
        tracing.check_dominant({"verify.exact.calls": 0}, "verify.exact")
    for workload in WORKLOADS.values():
        assert workload.dominant in tracing.LAYERS


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
