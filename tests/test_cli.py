import json

import pytest

from conftest import after_first_read

from ramsey_gadgets import (ArrowInstance, ConstructionManifest, EdgeColoring,
                            GNISpec, IndicatorSpec, PatternGadgetSpec,
                            StubSenderProvider, arrows,
                            build_3connected_abundant, build_indicator,
                            complete_graph, default_three_connected_seed,
                            make_stub_sender, path_graph, read_graph_file,
                            to_dimacs, verify_witness)
from ramsey_gadgets import arrowing, cli
from ramsey_gadgets.cli import main
from ramsey_gadgets.gadgets import NEGATIVE, POSITIVE, SenderSpec
from ramsey_gadgets.graph import MAX_ORDER


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


def test_arrow_verified(capsys):
    code, report = run(capsys, "arrow", "--host", "K6", "--target", "K3")
    assert code == 0
    assert report["verdict"] == "arrows"
    assert report["parameters"]["host"] == "K6"
    assert report["version"]


def test_arrow_refuted_with_checkable_witness(capsys):
    code, report = run(capsys, "arrow", "--host", "K5", "--target", "K3")
    assert code == 1
    witness = EdgeColoring.from_json(2, report["witness"])
    inst = ArrowInstance.create(complete_graph(5), complete_graph(3), 2)
    assert verify_witness(inst, witness)


def test_arrow_report_counts_support_copies(capsys):
    # K6 ->2 K3: the refutation uses all 20 triangles; no other verdict
    # has a support
    for argv, count in ((["--host", "K6"], 20), (["--host", "K5"], None),
                        (["--host", "K6", "--max-nodes", "2"], None)):
        _, report = run(capsys, "arrow", *argv, "--target", "K3")
        assert report["support_copies"] == count


def test_color_exit_codes(capsys):
    assert run(capsys, "color", "--host", "K5", "--target", "K3")[0] == 0
    assert run(capsys, "color", "--host", "K6", "--target", "K3")[0] == 1


def test_budget_exhaustion_exit(capsys):
    code, report = run(capsys, "arrow", "--host", "K6", "--target", "K3",
                       "--max-nodes", "2")
    assert code == 2
    assert report["verdict"] == "unknown_budget_exhausted"


def test_budget_spent_on_copies_exit(capsys, tmp_path):
    # the budget runs out while the copies are enumerated: no search,
    # no copy count and no CNF
    dimacs = tmp_path / "k12.cnf"
    code, report = run(capsys, "arrow", "--host", "K12", "--target", "K4",
                       "--max-seconds", "1e-9", "--dimacs-out", str(dimacs))
    assert code == 2
    assert report["verdict"] == "unknown_budget_exhausted"
    assert report["copies"] is None and report["nodes"] == 0
    assert not dimacs.exists()


def test_usage_errors(capsys):
    assert main(["arrow", "--host", "K6"]) == 3          # missing --target
    assert main(["arrow", "--host", "nonsense", "--target", "K3"]) == 3
    assert main(["no-such-command"]) == 3


def test_flags_only_where_they_act(capsys):
    for argv in (["color", "--host", "K5", "--target", "K3", "--seed", "1"],
                 ["extend", "--host", "K5", "--target", "K3",
                  "--partial", "[]", "--workers", "2"],
                 ["arrow", "--host", "K5", "--target", "K3", "--out", "x.g6"],
                 ["verify", "robust", "--graph", "C5", "--inner", "0,1",
                  "--target", "K3", "--trials", "50"],
                 ["arrow", "--host", "K5", "--target", "K3", "--workers", "2"],
                 ["verify", "robust", "--graph", "C5", "--inner", "0,1",
                  "--target", "K3", "--max-nodes", "1"],
                 ["stats", "--graph", "K5", "--max-nodes", "1"],
                 ["construct", "p4", "--k", "3", "--max-seconds", "1"],
                 ["construct", "phi", "--q", "2", "--t", "3",
                  "--max-nodes", "1"]):
        assert main(argv) == 3, argv


def test_crash_exits_internal_not_refuted(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "cmd_arrow", crash)
    assert main(["arrow", "--host", "K5", "--target", "K3"]) == \
        cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


@pytest.mark.parametrize("error", [KeyError, ValueError])
def test_library_bug_exits_internal_not_usage(error, monkeypatch, capsys):
    # only bad outside input is a usage error (3); a stray KeyError or
    # ValueError from inside the library is a bug (4)
    def broken(*args, **kwargs):
        raise error("lost")
    monkeypatch.setattr(arrowing, "_solve", broken)
    assert main(["arrow", "--host", "K5", "--target", "K3"]) == 4
    assert error.__name__ in capsys.readouterr().err


def test_malformed_input_exits_usage(tmp_path, capsys):
    senders = tmp_path / "senders.json"
    senders.write_text("5")
    huge = tmp_path / "huge.g6"          # a size field of n = 2^36 - 1
    huge.write_text(":~~~~~~~~\n")
    for argv in (["extend", "--host", "K5", "--target", "K3",
                  "--partial", "[[0]]"],
                 ["extend", "--host", "K5", "--target", "K3",
                  "--partial", "[bad"],
                 ["verify", "robust", "--graph", "C5", "--inner", "a,b",
                  "--target", "K3"],
                 ["construct", "gni", "--target", "K3", "--subgraph", "P3",
                  "--classes-graph", "P2", "--partition", "[[[0]]]"],
                 ["construct", "pattern-gadget", "--target", "K3",
                  "--base", "C4", "--patterns", "[5]"],
                 ["construct", "indicator", "--target", "K3",
                  "--subgraph", "P3", "--senders", str(senders)],
                 ["arrow", "--host", "g6:D\u00e9{", "--target", "K3"],
                 ["arrow", "--host", f"file:{huge}", "--target", "K3"],
                 ["arrow", "--host", "K6", "--target", "K3",
                  "--max-seconds", "nan"],
                 ["verify", "sender", "--graph", "K3"]):
        assert main(argv) == 3, argv
        assert "error:" in capsys.readouterr().err


def test_one_color_indicator_exits_usage(capsys):
    assert main(["construct", "indicator", "--target", "K3", "--subgraph",
                 "P3", "--q", "1", "--senders", "stub"]) == 3
    assert "q >= 2" in capsys.readouterr().err


def test_max_order_zero_is_kept(capsys):
    # --max-order 0 searches no corpus graph; it is not read as the default
    assert main(["construct", "indicator", "--target", "K3", "--subgraph",
                 "P3", "--senders", "search", "--max-order", "0"]) == 3
    assert "order <= 0" in capsys.readouterr().err


@pytest.mark.parametrize("damage", [
    lambda d: d.pop("graph"),                               # missing key
    lambda d: d.update(e="0"),                              # wrong type
    lambda d: d["manifest"].update(manifest_version=1),     # old layout
])
def test_malformed_spec_exits_usage(damage, tmp_path, capsys):
    data = json.loads(json.dumps(build_indicator(
        complete_graph(3), path_graph(3), 2, POSITIVE,
        StubSenderProvider()).to_json()))
    damage(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "indicator", "--spec", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n", [MAX_ORDER + 1, 2**62])
def test_spec_graph_over_the_order_cap_exits_usage(n, tmp_path, capsys):
    # the cap is checked before any label or edge is allocated
    data = make_stub_sender(complete_graph(3), 2, 3, POSITIVE).to_json()
    data["graph"] = {"n": n, "edges": []}
    path = tmp_path / "sender.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "sender", "--spec", str(path)]) == 3
    assert f"vertex count {n} is outside" in capsys.readouterr().err


def test_named_graph_over_the_cap_exits_usage(capsys):
    # K100000 (5 * 10^9 edges) once ran out of memory (exit 4)
    assert main(["stats", "--graph", "K100000"]) == 3
    assert "'K100000' gives 100000 vertices" in capsys.readouterr().err


def test_failed_witness_check_exits_internal(monkeypatch, capsys):
    # a witness that fails its re-check is a bug, not a usage error (3)
    # and not a refutation (1)
    monkeypatch.setattr(arrowing, "verify_witness", lambda inst, col: False)
    assert main(["arrow", "--host", "K5", "--target", "K3"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "InternalError" in err


def test_reports_are_deterministic(capsys):
    a = run(capsys, "color", "--host", "K5", "--target", "K3")
    b = run(capsys, "color", "--host", "K5", "--target", "K3")
    assert a == b


def test_search_reports_count_flips(capsys):
    # K13 ->2 K4 is decided by the local search, byte for byte the same
    outs = []
    for _ in range(2):
        assert main(["arrow", "--host", "K13", "--target", "K4"]) == 1
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["flips"] > 0 and report["nodes"] >= arrowing._LS_START
    code, report = run(capsys, "extend", "--host", "K5", "--target", "K3",
                       "--partial", "[[0, 1]]")
    assert report["flips"] == 0


@pytest.mark.parametrize("argv,counters", [
    (["arrow", "--host", "K6", "--target", "K3"], (10, 0, 16, 9)),
    (["color", "--host", "K5", "--target", "K3"], (5, 0, 7, 2)),
    (["extend", "--host", "K5", "--target", "K3", "--partial", "[[0, 1]]"],
     (4, 0, 7, 2)),
])
def test_search_reports_carry_every_counter(argv, counters, capsys):
    # decisions, flips, propagated assignments and restores, and no time
    code, report = run(capsys, *argv)
    assert tuple(report[key] for key in ("nodes", "flips", "propagations",
                                         "backtracks")) == counters
    assert "elapsed" not in json.dumps(report)


def test_report_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, report = run(capsys, "arrow", "--host", "K6", "--target", "K3",
                       "--report", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == report


def test_extend(capsys):
    code, report = run(capsys, "extend", "--host", "K5", "--target", "K3",
                       "--partial", "[[0, 1]]")
    assert code == 0 and report["verdict"] == "extendable"
    # a full monochromatic triangle on vertices 0,1,2 cannot extend
    code, report = run(capsys, "extend", "--host", "K5", "--target", "K3",
                       "--partial", "[[0, 1], [1, 1], [4, 1]]")
    assert code == 1
    assert set(report["monochromatic_copy"]) == {0, 1, 4}


def test_construct_p4_then_check_minimal(tmp_path, capsys):
    out = tmp_path / "pendant.g6"
    code, report = run(capsys, "construct", "p4", "--k", "5",
                       "--out", str(out))
    assert code == 0
    assert report["degree_one_count"] == 5
    g = read_graph_file(str(out))[0]
    assert g.n == 10
    code, report = run(capsys, "check-minimal", "--host", f"file:{out}",
                       "--target", "P4")
    assert code == 0 and report["verdict"] == "minimal"


def test_construct_writes_the_shorter_graph_encoding(tmp_path, capsys):
    # 1766 vertices and 2097 edges: graph6 would take 259 755 bytes,
    # sparse6 takes 4413
    out = tmp_path / "cycle.g6"
    code, report = run(capsys, "construct", "cycle", "--q", "2", "--t", "4",
                       "--k", "2", "--out", str(out))
    assert code == 0
    assert out.stat().st_size < 10_000
    (g,) = read_graph_file(str(out))
    assert g.n == report["graph"]["n"]
    assert sorted(g.edges) == sorted(map(tuple, report["graph"]["edges"]))


def test_minimalize(capsys):
    code, report = run(capsys, "minimalize", "--host", "K1,7",
                       "--target", "K1,3")
    assert code == 0
    assert report["verdict"] == "minimal"


def test_verify_sender_stub_spec(tmp_path, capsys):
    spec = make_stub_sender(complete_graph(3), 2, 3, POSITIVE)
    path = tmp_path / "sender.json"
    path.write_text(json.dumps(spec.to_json()))
    code, report = run(capsys, "verify", "sender", "--spec", str(path))
    assert code == 0
    outcomes = {r["name"]: r["outcome"] for r in report["results"]}
    assert outcomes == {"S3": "pass", "S1": "skipped_stub",
                        "S2": "skipped_stub"}


def test_verify_sender_rejects_k6(tmp_path, capsys):
    spec = SenderSpec(complete_graph(6), 0, 14, POSITIVE,
                      complete_graph(3), 2, 1)
    path = tmp_path / "fake.json"
    path.write_text(json.dumps(spec.to_json()))
    code, report = run(capsys, "verify", "sender", "--spec", str(path))
    assert code == 1
    outcomes = {r["name"]: r["outcome"] for r in report["results"]}
    assert outcomes["S1"] == "fail"


@pytest.mark.parametrize("flags", [["--graph", "K6"], ["--target", "K3"],
                                   ["--graph", "K6", "--target", "K3"]])
def test_verify_sender_spec_with_sender_flags_exits_usage(tmp_path, capsys,
                                                          flags):
    spec = make_stub_sender(complete_graph(3), 2, 3, POSITIVE)
    path = tmp_path / "sender.json"
    path.write_text(json.dumps(spec.to_json()))
    assert main(["verify", "sender", "--spec", str(path), *flags]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "not both" in err


def test_partition_repeating_an_edge_exits_usage(capsys):
    assert main(["construct", "gni", "--target", "K3", "--subgraph", "P3",
                 "--classes-graph", "K2", "--partition", "[[0, 0]]"]) == 3
    assert "repeat an edge id" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["construct", "indicator", "--target", "K3", "--subgraph", "P3"],
    ["construct", "pattern-gadget", "--target", "K3", "--base", "C4",
     "--patterns", "[[[0, 1], [1, 2], [2, 1], [3, 2]]]"],
])
def test_gadget_distance_must_exceed_the_target_order(argv, capsys):
    # senders keep any d >= 1; a gadget's d must exceed v(K3) = 3
    for d in ("1", "2", "3"):
        assert main(argv + ["--d", d]) == 3, d
        assert "must exceed the target order" in capsys.readouterr().err
    assert main(argv + ["--d", "4"]) == 0


def test_construct_and_verify_indicator(tmp_path, capsys):
    path = tmp_path / "indicator.json"
    code, _ = run(capsys, "construct", "indicator", "--target", "K3",
                  "--subgraph", "P3", "--out", str(path))
    assert code == 0
    code, report = run(capsys, "verify", "indicator", "--spec", str(path))
    assert code == 0
    assert report["results"][0]["name"] == "I1"


def test_search_sender_cli(tmp_path, capsys):
    out = tmp_path / "found.json"
    code, report = run(capsys, "search-sender", "--target", "P3",
                       "--polarity", "negative", "--max-order", "5",
                       "--out", str(out))
    assert code == 0 and report["found"]
    spec = SenderSpec.from_json(json.loads(out.read_text()))
    assert spec.status == "fully_verified"


def test_search_sender_out_of_budget_is_unknown(capsys):
    # a corpus graph the budget left undecided is not "no sender" (once
    # exit 1): with one search step per search the senders stay open,
    # without a budget the search finds one
    argv = ["search-sender", "--target", "P4", "--d", "1", "--max-order", "6"]
    assert main(argv + ["--max-nodes", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "budget" in err
    code, report = run(capsys, *argv)
    assert code == 0 and report["found"]


@pytest.mark.parametrize("argv", [
    ["star-check", "--graph", "S5", "--m", "3", "--count-check",
     "--predicate-only", "--max-nodes", "1"],
    ["construct", "3conn", "--k", "1", "--max-seconds", "1e-9"],
    ["construct", "cycle", "--q", "2", "--t", "4", "--k", "1",
     "--max-seconds", "1e-9"],
    ["construct", "clique", "--t", "3", "--q", "8", "--max-seconds", "0.5"],
    ["construct", "indicator", "--target", "K3", "--subgraph", "P4",
     "--max-seconds", "0.5"],
    ["construct", "gni", "--target", "K3", "--subgraph", "P3",
     "--classes-graph", "K3", "--partition", "[[0,1,2]]",
     "--max-seconds", "0.5"],
])
def test_budget_spent_inside_a_construction_exits_unknown(argv, monkeypatch,
                                                          capsys):
    # once a usage error (3): the count check's minimality, the seed
    # conditions and the pattern gadget's base check ran out of budget;
    # once run with no deadline: the target-freeness checks of the
    # indicator and gni builds; the clique build runs out in its assembly
    # (q = 8 attaches 32 668 senders).  The command starts its clock (the
    # clock's first read), which then jumps past the deadline
    after_first_read(monkeypatch)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("unknown: ")


def test_star_check(capsys):
    code, report = run(capsys, "star-check", "--graph", "C5", "--m", "2")
    assert code == 0
    assert report["predicate"] is True and report["engine"] == "arrows"
    code, report = run(capsys, "star-check", "--graph", "K1,5", "--m", "3",
                       "--count-check")
    assert code == 0 and report["degree_one_count_ok"] is True


def test_stats(capsys):
    code, report = run(capsys, "stats", "--graph", "K1,5", "--target",
                       "K1,3")
    assert code == 0
    assert report["min_degree"] == 1 and report["min_degree_count"] == 5
    assert report["degree_lower_bound"] == 1


def test_stats_degree_bound_needs_two_colors(capsys):
    # the bound once read 0 for q = -1, with exit 0
    assert main(["stats", "--graph", "K6", "--target", "K3", "--q", "-1"]) == 3
    assert "need at least 2 colors" in capsys.readouterr().err


def test_construct_phi_psi(capsys):
    code, report = run(capsys, "construct", "phi", "--q", "2", "--t", "3")
    assert code == 0 and report["vertices"] == 4
    code, report = run(capsys, "construct", "psi", "--q", "2", "--t", "3")
    assert code == 0 and report["vertices"] == 5


def test_construct_recipes_smoke(tmp_path, capsys):
    code, report = run(capsys, "construct", "ktk2", "--t", "3", "--k", "1",
                       "--manifest-out", str(tmp_path / "m.json"))
    assert code == 0 and report["degrees_ok"] is True
    code, report = run(capsys, "construct", "3conn", "--k", "1")
    assert code == 0 and report["expected_degree"] == 2
    code, report = run(capsys, "construct", "clique", "--t", "3")
    assert code == 0 and report["degree"] == 4


def test_construct_3conn_builds_its_seed_from_the_flags(capsys):
    # the flag defaults are the built-in seed: C5, vertex 0, edge (2,3), P3
    code, report = run(capsys, "construct", "3conn", "--k", "2")
    assert code == 0
    recipe = build_3connected_abundant(default_three_connected_seed(), 2,
                                       StubSenderProvider())
    assert report["graph"] == recipe.graph.to_json()
    params = report["parameters"]
    assert (params["graph"], params["vertex"], params["edge"],
            params["target"], params["q"]) == ("C5", 0, 2, "P3", 2)
    # without --graph the other seed flags are used too: edge 4 is (0,4),
    # which touches vertex 0, and C5 does not force a monochromatic K3
    base = ["construct", "3conn", "--k", "1", "--q", "3", "--target", "K3"]
    assert main(base + ["--edge", "4"]) == 3
    assert "must not touch" in capsys.readouterr().err
    assert main(base) == 3
    assert "condition F1 fails" in capsys.readouterr().err


def test_verify_robust_cli(capsys):
    code, _ = run(capsys, "verify", "robust", "--graph", "C5",
                  "--inner", "0,1", "--target", "K3")
    assert code == 0
    code, report = run(capsys, "verify", "robust", "--graph", "P3",
                       "--inner", "0,2", "--target", "K3")
    assert code == 1
    assert any(r["outcome"] == "fail" for r in report["results"])


@pytest.mark.parametrize("target", ["K0", "K1"])
def test_verify_robust_rejects_a_target_with_no_edges(target, capsys):
    # once exit 4 (IndexError) for K0 and exit 0 for K1
    assert main(["verify", "robust", "--graph", "K3", "--inner", "0,1",
                 "--target", target]) == 3
    assert "target must have edges" in capsys.readouterr().err


def test_arrow_writes_its_cnf(tmp_path, capsys):
    path = tmp_path / "k5.cnf"
    code, report = run(capsys, "arrow", "--host", "K5", "--target", "K3",
                       "--dimacs-out", str(path))
    assert code == 1
    inst = ArrowInstance.create(complete_graph(5), complete_graph(3), 2)
    assert path.read_text() == to_dimacs(inst)


def test_check_minimal_names_a_removable_edge(capsys):
    code, report = run(capsys, "check-minimal", "--host", "K7",
                       "--target", "K3")
    assert (code, report["verdict"]) == (1, "not_minimal")
    rest = complete_graph(7).delete_edge(report["edge"])
    assert arrows(ArrowInstance.create(rest, complete_graph(3), 2)).verdict \
        == "arrows"


def test_construct_and_verify_pattern_gadget(tmp_path, capsys):
    path = tmp_path / "gadget.json"
    assert main(["construct", "pattern-gadget", "--target", "K3",
                 *SPEC_COMMANDS["pattern-gadget"][1], "--out", str(path)]) == 0
    capsys.readouterr()
    code, report = run(capsys, "verify", "pattern-gadget", "--spec",
                       str(path))
    assert code == 0
    outcomes = {r["name"]: r["outcome"] for r in report["results"]}
    assert outcomes == {"P1": "pass", "P2": "skipped_stub",
                        "P3": "skipped_stub"}


def test_search_sender_finding_nothing_exits_refuted(capsys):
    # every graph of order <= 5 with a far enough pair forces K3 or
    # breaks S2
    code, report = run(capsys, "search-sender", "--target", "K3",
                       "--max-order", "5")
    assert (code, report["found"]) == (1, False)


def test_verify_out_of_budget_exits_unknown(capsys):
    code, report = run(capsys, "verify", "sender", "--graph", "K6",
                       "--target", "K3", "--e", "0", "--f", "14",
                       "--max-nodes", "1")
    assert code == 2
    outcomes = {r["name"]: r["outcome"] for r in report["results"]}
    assert outcomes == {"S3": "pass", "S1": "budget_exhausted",
                        "S2": "budget_exhausted"}


def test_senders_from_a_file(tmp_path, capsys):
    k3 = complete_graph(3)
    path = tmp_path / "senders.json"
    argv = ["construct", "indicator", "--target", "K3", "--subgraph", "P3",
            "--senders", str(path)]
    path.write_text(json.dumps([make_stub_sender(k3, 2, 4, pol).to_json()
                                for pol in (POSITIVE, NEGATIVE)]))
    code, report = run(capsys, *argv)
    assert code == 0
    built = build_indicator(k3, path_graph(3), 2, POSITIVE,
                            StubSenderProvider())
    assert report["graph"] == built.graph.to_json()
    path.write_text(json.dumps([make_stub_sender(k3, 2, 4,
                                                 POSITIVE).to_json()]))
    assert main(argv) == 3
    assert "no negative sender available" in capsys.readouterr().err


def test_sender_failing_its_own_s3_in_a_senders_file_exits_usage(tmp_path,
                                                                capsys):
    # P5's signal edges 0 and 3 lie 2 apart, not the 100 each claims; the
    # clique build once took them and stopped at its own distance check
    # with an internal error (exit 4)
    path = tmp_path / "senders.json"
    path.write_text(json.dumps([
        SenderSpec(path_graph(5), 0, 3, pol, complete_graph(3), 2,
                   100).to_json() for pol in (POSITIVE, NEGATIVE)]))
    assert main(["construct", "clique", "--t", "3", "--q", "2",
                 "--senders", str(path)]) == 3
    assert ("sender claims d = 100 but its signal edges lie 2 apart"
            in capsys.readouterr().err)


@pytest.mark.parametrize("field, value", [("status", "bogus"),
                                          ("polarity", "sideways")])
def test_unknown_spec_field_in_a_senders_file_exits_usage(field, value,
                                                          tmp_path, capsys):
    # an unknown status was once a KeyError in the status ranking (exit 4)
    path = tmp_path / "senders.json"
    senders = [make_stub_sender(complete_graph(3), 2, 4, pol).to_json()
               for pol in (POSITIVE, NEGATIVE)]
    senders[0][field] = value
    path.write_text(json.dumps(senders))
    assert main(["construct", "indicator", "--target", "K3", "--subgraph",
                 "P3", "--senders", str(path)]) == 3
    assert (f"sender spec has unknown {field} {value!r}"
            in capsys.readouterr().err)


def test_indicator_spec_with_an_unknown_polarity_exits_usage(tmp_path,
                                                             capsys):
    # it once loaded and was checked as a negative indicator
    spec_path = tmp_path / "spec.json"
    assert main(["construct", "indicator", "--target", "K3", "--subgraph",
                 "P3", "--out", str(spec_path)]) == 0
    data = json.loads(spec_path.read_text())
    data["polarity"] = "sideways"
    spec_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "indicator", "--spec", str(spec_path)]) == 3
    assert ("indicator spec has unknown polarity 'sideways'"
            in capsys.readouterr().err)


SPEC_COMMANDS = {
    "indicator": (IndicatorSpec, ["--subgraph", "P3"]),
    "gni": (GNISpec, ["--subgraph", "P3", "--classes-graph", "P2",
                      "--partition", "[[0]]"]),
    "pattern-gadget": (PatternGadgetSpec, [
        "--base", "C4", "--patterns", "[[[0,1],[1,2],[2,1],[3,2]]]"]),
}


def test_pattern_spec_member_with_another_color_count_exits_usage(
        tmp_path, capsys):
    # a member with q + 1 classes once reached P3's search with color q + 1
    spec_path = tmp_path / "spec.json"
    assert main(["construct", "pattern-gadget", "--target", "K3",
                 *SPEC_COMMANDS["pattern-gadget"][1],
                 "--out", str(spec_path)]) == 0
    data = json.loads(spec_path.read_text())
    data["family"]["members"] = [[[0], [1, 3], [2]]]
    spec_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "pattern-gadget", "--spec", str(spec_path)]) == 3
    assert ("family pattern has wrong color count"
            in capsys.readouterr().err)


@pytest.mark.parametrize("kind, argv, field, value, message", [
    # q = 3, classes [2] and [3] after the subgraph's edges 0 and 1: once
    # GI4 read "all 54 cases extend" and "all 18 cases extend"
    ("gni", ["--subgraph", "P3", "--classes-graph", "P3", "--partition",
             "[[0],[1]]", "--q", "3"], "g_classes", [[2, 3]],
     "needs q - 1 = 2 edge classes, not 1"),
    ("gni", ["--subgraph", "P3", "--classes-graph", "P3", "--partition",
             "[[0],[1]]", "--q", "3"], "g_classes", [[2, 2], [3]],
     "repeats edge 2"),
    # once I4 read "all 4 cases extend" over a one-edge subgraph
    ("indicator", ["--subgraph", "P3"], "f_eids", [0, 0], "repeats edge 0"),
])
def test_spec_edges_in_another_shape_exit_usage(kind, argv, field, value,
                                                message, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    assert main(["construct", kind, "--target", "K3", *argv,
                 "--out", str(spec_path)]) == 0
    data = json.loads(spec_path.read_text())
    data.update({field: value, "senders_status": "unverified"})
    spec_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", kind, "--spec", str(spec_path)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(SPEC_COMMANDS))
def test_spec_commands_write_their_manifest(kind, tmp_path, capsys):
    spec_cls, argv = SPEC_COMMANDS[kind]
    spec_path, manifest_path = tmp_path / "spec.json", tmp_path / "m.json"
    code, report = run(capsys, "construct", kind, "--target", "K3", *argv,
                       "--out", str(spec_path),
                       "--manifest-out", str(manifest_path))
    assert code == 0
    spec = spec_cls.from_json(json.loads(spec_path.read_text()))
    assert report["graph"] == spec.graph.to_json()
    assert ConstructionManifest.load(str(manifest_path)).replay() == spec.graph


def test_sender_edge_outside_its_graph_exits_usage(capsys):
    # C5 has edges 0..4: edge 99 is a usage error, not a crash (exit 4)
    assert main(["verify", "sender", "--graph", "C5", "--target", "P3",
                 "--e", "0", "--f", "99"]) == 3
    assert "sender spec names edge 99" in capsys.readouterr().err


@pytest.mark.parametrize("kind, field, value", [
    ("indicator", "e", 1000000),        # unchecked: an IndexError (exit 4)
    ("gni", "g_classes", [[-1]]),       # unchecked: the last edge, refuted
])
def test_spec_id_outside_its_graph_exits_usage(kind, field, value, tmp_path,
                                               capsys):
    spec_path = tmp_path / "spec.json"
    assert main(["construct", kind, "--target", "K3", *SPEC_COMMANDS[kind][1],
                 "--out", str(spec_path)]) == 0
    data = json.loads(spec_path.read_text())
    data[field] = value
    spec_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", kind, "--spec", str(spec_path)]) == 3
    assert "names edge" in capsys.readouterr().err
