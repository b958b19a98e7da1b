"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

They show that the checker rejects tampered outputs, that the self-time
arithmetic is right on a hand-built span tree, that tracing and the
reference timer change no result, that a new seed changes the inputs but
no expected verdict, and that two runs with one seed agree exactly.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import spans
from check import WrongResult, no_free_extension
from workloads import WORKLOADS, arrows_op, relabel_full, relabel_vertices

sys.path.insert(0, str(run.SRC))


@pytest.fixture
def lib():
    return run.import_library()


def _cheap(ops):
    """The ramsey-search operations that take milliseconds."""
    return [op for op in ops if "#" in op.name or "ladder q=3" in op.name]


def _facts(ops, deep=True):
    return {op.name: record[2] for op, record in
            zip(ops, run.run_pass(ops, deep=deep))}


# ---------------------------------------------------------------------------
# the checker

def test_checker_accepts_then_rejects_tampered_verdict(lib):
    host = relabel_full(lib, lib.complete_graph(5), random.Random(0))
    op = arrows_op(lib, "K5->K3", host, lib.complete_graph(3), 2, 10.0,
                   lambda: False)
    copies, res = op.run()
    decided, facts = op.check((copies, res), True)
    assert decided and facts["verdict"] == lib.DOES_NOT_ARROW
    forged = dataclasses.replace(res, verdict=lib.ARROWS, witness=None)
    with pytest.raises(WrongResult):
        op.check((copies, forged), True)


def test_checker_rejects_tampered_witness(lib):
    host = relabel_full(lib, lib.complete_graph(5), random.Random(1))
    op = arrows_op(lib, "K5->K3", host, lib.complete_graph(3), 2, 10.0,
                   lambda: False)
    copies, res = op.run()
    mono = lib.EdgeColoring.from_map(2, {e: 1 for e in range(host.num_edges)})
    with pytest.raises(WrongResult):
        op.check((copies, dataclasses.replace(res, witness=mono)), True)
    partial = lib.EdgeColoring.from_map(2, dict(list(res.witness.colors)[:-1]))
    with pytest.raises(WrongResult):
        op.check((copies, dataclasses.replace(res, witness=partial)), True)


def test_unknown_is_not_decided_and_not_wrong(lib):
    op = arrows_op(lib, "K17->K4", lib.complete_graph(17), lib.complete_graph(4),
                   2, 0.05, lambda: False)
    decided, facts = op.check(op.run(), True)
    assert not decided and facts["verdict"] == lib.UNKNOWN


def test_ladder_brute_force_is_independent(lib):
    phi = lib.phi_coloring(3, 3)
    k8, k9 = lib.complete_graph(8), lib.complete_graph(9)
    partial = {k9.edge_id(*k8.edges[e]): c for e, c in phi.colors}
    assert no_free_extension(9, k9.edges, partial, 3, 3)
    # recolor one clique edge: the coloring stops being stuck
    flipped = dict(partial)
    e = next(iter(flipped))
    flipped[e] = flipped[e] % 3 + 1
    assert not no_free_extension(9, k9.edges, flipped, 3, 3)


# ---------------------------------------------------------------------------
# spans

def _span(name, layer, start, end, parent, counters=None):
    return [name, layer, start, end, parent, 0, counters]


def test_self_time_on_hand_built_tree():
    tree = [
        _span("op", spans.OP_LAYER, 0.0, 10.0, -1),
        _span("arrowing.is_minimal", "minimality", 1.0, 9.0, 0),
        _span("arrowing.arrows", "search", 2.0, 5.0, 1, {"nodes": 7, "unknown": 0}),
        _span("ArrowInstance.create", "instance", 2.0, 3.0, 2),
        _span("graph.enumerate_copies", "instance", 2.5, 3.0, 3, {"copies": 4}),
        _span("arrowing.arrows", "search", 6.0, 8.0, 1, {"nodes": 5, "unknown": 1}),
    ]
    assert spans.self_times(tree) == [2.0, 3.0, 2.0, 0.5, 0.5, 2.0]
    m = spans.layer_metrics(tree)
    assert m["search.self_s"] == 4.0 and m["instance.self_s"] == 1.0
    assert m["minimality.self_s"] == 3.0 and m["search.share"] == 0.4
    assert m["search.nodes"] == 7 and m["search.unknown"] == 1
    assert m["search.nodes_per_s"] == 3.0
    assert m["instance.copies"] == 4 and m["instance.calls"] == 2
    assert m["minimality.instance_calls"] == 2
    assert m["minimality.search_calls"] == 2


def test_install_records_nesting_and_uninstall_restores(lib):
    original = lib.arrows
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert lib.arrows is not original
        assert lib.gadgets.arrows is lib.arrows
        verdict = lib.is_minimal(lib.star_graph(5), lib.star_graph(3), 2)
    finally:
        undo()
    assert lib.arrows is original and lib.gadgets.arrows is original
    assert verdict.verdict == lib.MINIMAL
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[spans.NAME], []).append(span)
    root = by_name["arrowing.is_minimal"][0]
    assert root[spans.PARENT] == -1
    for span in by_name["arrowing.arrows"]:
        assert tracer.spans[span[spans.PARENT]] is root
    assert len(by_name["arrowing.arrows"]) == 1 + 5      # G and each G - e
    assert len(by_name["graph.enumerate_copies"]) == 6


# ---------------------------------------------------------------------------
# seeds and repeatability

def test_new_seed_changes_inputs_not_verdicts(lib):
    a = _facts(WORKLOADS["minimality-sweep"](lib, 0))
    b = _facts(WORKLOADS["minimality-sweep"](lib, 1))
    assert a.keys() == b.keys()
    assert {k: f.get("verdict") for k, f in a.items()} == \
        {k: f.get("verdict") for k, f in b.items()}
    assert a != b                       # witnesses and node counts moved
    ra = _facts(_cheap(WORKLOADS["ramsey-search"](lib, 0)))
    rb = _facts(_cheap(WORKLOADS["ramsey-search"](lib, 1)))
    assert {k: f["verdict"] for k, f in ra.items()} == \
        {k: f["verdict"] for k, f in rb.items()}
    assert ra != rb


def test_relabellings(lib):
    k6 = lib.complete_graph(6)
    a = relabel_vertices(lib, k6, random.Random(0))
    b = relabel_vertices(lib, k6, random.Random(1))
    assert a.edges != b.edges and set(a.edges) == set(b.edges)
    c = relabel_full(lib, lib.cycle_graph(7), random.Random(0))
    assert sorted(c.degrees()) == [2] * 7


def test_same_seed_runs_agree_exactly():
    first = _facts(WORKLOADS["minimality-sweep"](run.import_library(), 3))
    second = _facts(WORKLOADS["minimality-sweep"](run.import_library(), 3),
                    deep=False)
    assert first == second
    lib = run.import_library()
    assert _facts(_cheap(WORKLOADS["ramsey-search"](lib, 3))) == \
        _facts(_cheap(WORKLOADS["ramsey-search"](lib, 3)))


def test_traced_pass_gives_untraced_results(lib):
    ops = WORKLOADS["minimality-sweep"](lib, 4)
    plain_facts = _facts(ops)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        traced = {op.name: record[2] for op, record in
                  zip(ops, run.run_pass(ops, deep=False, tracer=tracer))}
    finally:
        undo()
    assert traced == plain_facts
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["minimality.calls"] == 143 + 4 + 5
    assert metrics["search.calls"] > 3 * 143


def test_earlier_run_of_the_seed_must_agree(lib, tmp_path):
    ops = _cheap(WORKLOADS["ramsey-search"](lib, 5))
    passes = [("untraced", run.run_pass(ops, deep=False), None)]
    path = tmp_path / "facts.json"
    run.check_earlier_runs(path, ops, passes)       # records
    run.check_earlier_runs(path, ops, passes)       # agrees
    recorded = json.loads(path.read_text())
    recorded["facts"][0][2]["nodes"] += 1
    path.write_text(json.dumps(recorded))
    with pytest.raises(run.Unrepeatable):
        run.check_earlier_runs(path, ops, passes)
    recorded["source"] = "another library"           # a changed library
    path.write_text(json.dumps(recorded))
    run.check_earlier_runs(path, ops, passes)


def test_pass_time_is_scaled_to_reference_speed():
    records = [(2.0, True, {}, 2 * run.REFERENCE_S),     # half speed
               (0.5, True, {}, 0.5 * run.REFERENCE_S),   # double speed
               (1.0, False, {}, 4 * run.REFERENCE_S)]    # budget-bound
    assert run.pass_seconds(records) == pytest.approx(3.0)


def test_metronome_changes_no_result(lib):
    ops = _cheap(WORKLOADS["ramsey-search"](lib, 6))
    plain_facts = _facts(ops, deep=False)
    with run.Metronome() as metronome:
        records = run.run_pass(ops, deep=False, metronome=metronome)
    assert {op.name: r[2] for op, r in zip(ops, records)} == plain_facts
    assert all(r[3] > 0 for r in records)


# ---------------------------------------------------------------------------
# the contract

def test_benchmark_json_names_the_workloads():
    spec = json.loads(run.SPEC.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gadget-pipeline",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
