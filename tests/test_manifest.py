import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("field, value", [
    ("label_prefix", ["x"]), ("label_prefix", 5), ("note", 5),
    ("note", None), ("note", ["ear"])])
def test_step_text_fields_must_be_strings(field, value):
    data = build_sample().manifest.to_json()
    data["steps"][1][field] = value
    with pytest.raises(GraphError, match=field):
        ConstructionManifest.from_json(data)


@pytest.mark.parametrize("position, kind", [
    (1, "glue"), (1, None), (1, ["compose"]), (2, "base"), (0, "compose"),
    (0, "edges")])
def test_step_kinds_follow_the_base_step(position, kind):
    # a base step only first, compose or edges steps only after it
    data = build_sample().manifest.to_json()
    data["steps"][position]["kind"] = kind
    with pytest.raises(GraphError, match=f"manifest step {position} "):
        ConstructionManifest.from_json(data)


def test_step_list_starts_with_a_base_step():
    data = build_sample().manifest.to_json()
    with pytest.raises(GraphError, match="manifest step 0 "):
        ConstructionManifest.from_json({**data, "steps": []})


def _oracle_compose(edges, labels, gadget, ident, prefix):
    """Plain-list model of a compose step: the new edges and labels and
    the (vertex_map, edge_map), or the error message it must raise."""
    n, vmap, new_labels = len(labels), [], []
    for gv in range(gadget.n):
        if gv in ident:
            vmap.append(ident[gv])
        else:
            vmap.append(n + len(new_labels))
            lab = gadget.labels[gv]
            new_labels.append(lab if lab is None or prefix is None
                              else prefix + lab)
    named = [lab for lab in labels + new_labels if lab is not None]
    if len(set(named)) != len(named):
        return "composition repeats a vertex label"
    emap, new_edges = [], []
    for gu, gv in gadget.edges:
        e = tuple(sorted((vmap[gu], vmap[gv])))
        if gu in ident and gv in ident:
            if e not in edges:
                return f"interface edge ({gu},{gv}) maps onto host non-edge {e}"
            emap.append(edges.index(e))
        else:
            emap.append(len(edges) + len(new_edges))
            new_edges.append(e)
    return new_edges, new_labels, (tuple(vmap), tuple(emap))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_builder_matches_a_list_model(data):
    draw = data.draw
    base = draw(st.sampled_from([complete_graph(3), path_graph(4),
                                 star_graph(3).relabel({0: "c"})]))
    b = ManifestBuilder(base)
    edges, labels = list(base.edges), list(base.labels)
    for _ in range(draw(st.integers(1, 6))):
        n = len(labels)
        if draw(st.booleans()):
            k = draw(st.integers(1, 4))
            pairs = [(u, v) for u, v in combinations(range(k), 2)
                     if draw(st.booleans())]
            names = draw(st.lists(st.sampled_from("wxyz"), unique=True,
                                  min_size=k, max_size=k))
            gadget = Graph(k, tuple(pairs), tuple(
                lab if draw(st.booleans()) else None for lab in names))
            hosts = draw(st.lists(st.integers(0, n - 1), unique=True,
                                  max_size=min(k, n)))
            pinned = draw(st.permutations(range(k)))[:len(hosts)]
            ident = dict(zip(pinned, hosts))
            prefix = draw(st.sampled_from([None, "p.", f"s{len(edges)}."]))
            expected = _oracle_compose(edges, labels, gadget, ident, prefix)
            if isinstance(expected, str):
                before = (b.graph, list(b.manifest.steps))
                with pytest.raises(GraphError) as info:
                    b.compose(gadget, ident, label_prefix=prefix)
                assert str(info.value) == expected
                assert (b.graph, b.manifest.steps) == before
                continue
            res = b.compose(gadget, ident, label_prefix=prefix)
            new_edges, new_labels, maps = expected
            assert (res.vertex_map, res.edge_map) == maps
            edges += new_edges
            labels += new_labels
        else:
            absent = [e for e in combinations(range(n), 2) if e not in edges]
            if not absent:
                continue
            pairs = draw(st.lists(st.sampled_from(absent), unique=True,
                                  min_size=1, max_size=3))
            pairs = [(v, u) if draw(st.booleans()) else (u, v)
                     for u, v in pairs]
            assert b.add_edges(pairs) == list(range(len(edges),
                                                    len(edges) + len(pairs)))
            edges += [tuple(sorted(p)) for p in pairs]
        assert b.edges == edges and b.labels == labels
    g = b.graph
    assert g.edges == tuple(edges) and g.labels == tuple(labels)
    assert all(g.edge_id(u, v) == i for i, (u, v) in enumerate(edges))
    text = json.dumps(b.manifest.to_json())
    replayed = ConstructionManifest.from_json(json.loads(text)).replay()
    assert replayed == g and replayed.edges == g.edges
