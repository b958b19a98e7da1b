import json

import pytest

from ramsey_gadgets import (ArrowInstance, ConstructionManifest, EdgeColoring,
                            GNISpec, IndicatorSpec, PatternGadgetSpec,
                            StubSenderProvider, build_indicator,
                            complete_graph, make_stub_sender, path_graph,
                            read_graph_file, verify_witness)
from ramsey_gadgets import arrowing, cli
from ramsey_gadgets.cli import main
from ramsey_gadgets.gadgets import POSITIVE, SenderSpec


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


def test_color_exit_codes(capsys):
    assert run(capsys, "color", "--host", "K5", "--target", "K3")[0] == 0
    assert run(capsys, "color", "--host", "K6", "--target", "K3")[0] == 1


def test_budget_exhaustion_exit(capsys):
    code, report = run(capsys, "arrow", "--host", "K6", "--target", "K3",
                       "--max-nodes", "2")
    assert code == 2
    assert report["verdict"] == "unknown_budget_exhausted"


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
                 ["verify", "sender", "--graph", "K3"]):
        assert main(argv) == 3, argv
        assert "error:" in capsys.readouterr().err


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


def test_verify_robust_cli(capsys):
    code, _ = run(capsys, "verify", "robust", "--graph", "C5",
                  "--inner", "0,1", "--target", "K3")
    assert code == 0
    code, report = run(capsys, "verify", "robust", "--graph", "P3",
                       "--inner", "0,2", "--target", "K3")
    assert code == 1
    assert any(r["outcome"] == "fail" for r in report["results"])


SPEC_COMMANDS = {
    "indicator": (IndicatorSpec, ["--subgraph", "P3"]),
    "gni": (GNISpec, ["--subgraph", "P3", "--classes-graph", "P2",
                      "--partition", "[[0]]"]),
    "pattern-gadget": (PatternGadgetSpec, [
        "--base", "C4", "--patterns", "[[[0,1],[1,2],[2,1],[3,2]]]"]),
}


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
