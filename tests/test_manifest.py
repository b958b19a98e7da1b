import json
from itertools import combinations

import pytest

from test_acceptance import K3, STUB, _c4_family

from ramsey_gadgets import (ComposeError, ConstructionManifest, Graph,
                            GraphError, ManifestBuilder, StubSenderProvider,
                            build_cycle_abundant, build_gni, build_indicator,
                            build_pattern_gadget, complete_graph,
                            matching_graph, path_graph, single_edge,
                            star_graph)
from ramsey_gadgets.gadgets import POSITIVE


def build_sample():
    b = ManifestBuilder(complete_graph(3), note="triangle base")
    b.compose(path_graph(3), {0: 0, 2: 1}, label_prefix="a.", note="ear")
    b.compose(star_graph(2).relabel({0: "v"}), {1: 0, 2: 3}, note="apex")
    b.add_edges([(2, 3)], note="chord")
    return b


def test_replay_reproduces_graph_exactly():
    b = build_sample()
    replayed = b.manifest.replay()
    assert replayed.n == b.graph.n
    assert replayed.edges == b.graph.edges        # ids, not just edge sets
    assert replayed.labels == b.graph.labels


def test_graph_is_built_once_on_first_read(monkeypatch):
    gadgets = [path_graph(3) for _ in range(5)]
    b = ManifestBuilder(complete_graph(3))
    built = []
    post_init = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__",
                        lambda g: built.append(g.n) or post_init(g))
    for i, gadget in enumerate(gadgets):
        b.compose(gadget, {0: i % 3})
    assert built == []
    assert b.graph is b.graph
    assert built == [3 + 2 * 5]


def test_replay_reproduces_gadget_builds():
    specs = [build_cycle_abundant(2, 5, 3, StubSenderProvider())]
    for q in (2, 3):
        for f in (path_graph(3), path_graph(4)):
            specs.append(build_indicator(K3, f, q, POSITIVE, STUB))
        rest = single_edge() if q == 2 else matching_graph(2)
        specs.append(build_gni(K3, path_graph(3), rest,
                               [[i] for i in range(rest.num_edges)], q, STUB))
        for size in (1, 2):
            c4, family = _c4_family(q, size)
            specs.append(build_pattern_gadget(K3, c4, family, q, STUB))
    for spec in specs:
        replayed = spec.manifest.replay()
        assert replayed.edges == spec.graph.edges
        assert replayed.labels == spec.graph.labels


def test_json_round_trip():
    b = build_sample()
    again = ConstructionManifest.from_json(b.manifest.to_json())
    assert again.replay().edges == b.graph.edges
    assert [s.kind for s in again.steps] == ["base", "compose", "compose",
                                             "edges"]


def test_save_load(tmp_path):
    b = build_sample()
    path = tmp_path / "recipe.json"
    b.manifest.save(str(path))
    assert ConstructionManifest.load(str(path)).replay().edges == b.graph.edges


def test_resume_does_not_mutate_original():
    b = build_sample()
    frozen = list(b.manifest.steps)
    b2 = ManifestBuilder.resume(b.graph, b.manifest)
    b2.compose(single_edge(), {0: 0}, note="pendant")
    assert b.manifest.steps == frozen
    assert len(b2.manifest.steps) == len(frozen) + 1
    assert b2.manifest.replay().edges == b2.graph.edges


def test_add_edges_validation():
    b = ManifestBuilder(path_graph(3))
    with pytest.raises(ComposeError):
        b.add_edges([(0, 1)])            # already present
    with pytest.raises(ComposeError):
        b.add_edges([(0, 9)])            # out of range
    new = b.add_edges([(0, 2)])
    assert new == [2]
    assert b.graph.has_edge(0, 2)


def test_failed_step_leaves_builder_unchanged():
    b = build_sample()
    before = (b.graph, list(b.manifest.steps))
    labelled = star_graph(2).relabel({0: "v"})
    for step in (lambda: b.compose(complete_graph(3), {0: 0, 1: 1, 2: 4}),
                 lambda: b.compose(labelled, {1: 0, 2: 1}),    # "v" again
                 lambda: b.add_edges([(1, 4), (4, 1)])):
        with pytest.raises(GraphError):
            step()
        assert (b.graph, b.manifest.steps) == before


def test_single_base_step():
    m = ConstructionManifest()
    m.record_base(path_graph(2))
    with pytest.raises(ComposeError):
        m.record_base(path_graph(2))
    bad = ConstructionManifest()
    with pytest.raises(ComposeError):
        bad.replay()


def test_parts_are_stored_once():
    recipe = build_cycle_abundant(2, 5, 3, StubSenderProvider())
    data = json.loads(json.dumps(recipe.manifest.to_json()))
    assert data["manifest_version"] == 2
    parts = [Graph.from_json(p) for p in data["parts"]]
    assert all(a != b for a, b in combinations(parts, 2))
    assert len(parts) < len(data["steps"]) == len(recipe.manifest.steps)
    assert ConstructionManifest.from_json(data).replay() == recipe.graph


def test_other_versions_are_rejected():
    data = build_sample().manifest.to_json()
    for version in (1, 3, None):
        with pytest.raises(GraphError, match="version 2"):
            ConstructionManifest.from_json({**data, "manifest_version": version})
