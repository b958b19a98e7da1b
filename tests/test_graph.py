import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nx_copies
from ramsey_gadgets import (ComposeError, Graph, GraphError, complete_graph,
                            compose, cycle_graph, clique_with_pendant,
                            disjoint_union, distance, edge_distance,
                            enumerate_copies, from_edges, girth,
                            graph_from_name, graphs_isomorphic,
                            is_k_connected, matching_graph, path_graph,
                            single_edge, star_graph)


def test_basic_constructors():
    assert complete_graph(5).num_edges == 10
    assert cycle_graph(4).num_edges == 4
    assert path_graph(4).num_edges == 3
    assert star_graph(3).degrees() == [3, 1, 1, 1]
    assert matching_graph(3).num_edges == 3
    g = clique_with_pendant(4)
    assert g.n == 5 and g.num_edges == 7
    assert sorted(g.degrees()) == [1, 3, 3, 3, 4]


def test_named_families():
    assert graphs_isomorphic(graph_from_name("K4"), complete_graph(4))
    assert graphs_isomorphic(graph_from_name("C5"), cycle_graph(5))
    assert graphs_isomorphic(graph_from_name("P3"), path_graph(3))
    assert graphs_isomorphic(graph_from_name("K1,3"), star_graph(3))
    assert graphs_isomorphic(graph_from_name("K4K2"), clique_with_pendant(4))
    assert graphs_isomorphic(graph_from_name("g6:D~{"), complete_graph(5))
    with pytest.raises(GraphError):
        graph_from_name("nonsense")


def test_edge_ids_are_stable():
    g = from_edges(3, [(0, 1), (1, 2)])
    assert g.edge_id(1, 0) == 0
    assert g.edge_id(1, 2) == 1
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    with pytest.raises(GraphError):
        g.edge_id(0, 2)


def test_duplicate_edge_rejected():
    with pytest.raises(GraphError):
        from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        from_edges(2, [(0, 0)])


def test_json_form_keeps_edge_ids_and_labels():
    g = Graph(4, ((2, 3), (0, 1), (1, 3)), ("a", None, "c", None))
    data = json.loads(json.dumps(g.to_json()))
    assert data == {"n": 4, "edges": [[2, 3], [0, 1], [1, 3]],
                    "labels": ["a", None, "c", None]}
    assert Graph.from_json(data) == g
    assert Graph.from_json({"n": 2, "edges": [[0, 1]]}) == single_edge()


@pytest.mark.parametrize("data", [
    None, [], {"edges": []}, {"n": "3", "edges": []}, {"n": 3},
    {"n": 3, "edges": [[0, 1, 2]]}, {"n": 3, "edges": [[0, "1"]]},
    {"n": 3, "edges": [[0, 1.0]]}, {"n": 3, "edges": [[0, True]]},
    {"n": 3, "edges": [[1, 0]]},
    {"n": 3, "edges": [[0, 5]]}, {"n": 3, "edges": [[0, 1], [0, 1]]},
    {"n": 2, "edges": [], "labels": ["a"]},
    {"n": 2, "edges": [], "labels": ["a", 7]},
    {"n": 2, "edges": [], "labels": ["a", "a"]},
])
def test_graph_from_json_rejects_malformed(data):
    with pytest.raises(GraphError):
        Graph.from_json(data)


def test_delete_and_induced():
    g = complete_graph(4)
    h = g.delete_edge(0)
    assert h.num_edges == 5 and not h.has_edge(0, 1)
    sub = g.induced([0, 1, 2])
    assert graphs_isomorphic(sub, complete_graph(3))
    assert g.edge_vertices([0, 1]) == {0, 1, 2}


def test_distances_and_girth():
    p = path_graph(5)
    assert distance(p, [0], [4]) == 4
    assert girth(p) == float("inf")
    assert girth(cycle_graph(5)) == 5
    assert girth(complete_graph(4)) == 3
    # edges (0,1) and (3,4) of P5 are 2 apart endpoint-to-endpoint
    assert edge_distance(p, [0], [3]) == 2
    assert edge_distance(p, [0], [0]) == 0


def test_connectivity():
    assert is_k_connected(complete_graph(4), 3)
    assert not is_k_connected(cycle_graph(5), 3)
    assert is_k_connected(cycle_graph(5), 2)
    assert not is_k_connected(path_graph(3), 2)
    assert disjoint_union(single_edge(), single_edge()).is_connected() is False


# copy counts frozen from hand counts / standard identities
@pytest.mark.parametrize("host,pattern,count", [
    (complete_graph(4), complete_graph(3), 4),
    (complete_graph(5), complete_graph(3), 10),
    (complete_graph(4), path_graph(3), 12),
    (cycle_graph(6), path_graph(4), 6),
    (complete_graph(4), cycle_graph(4), 3),
])
def test_copy_counts(host, pattern, count):
    assert len(enumerate_copies(host, pattern)) == count


@pytest.mark.parametrize("host", [complete_graph(5), cycle_graph(6),
                                  clique_with_pendant(4)])
@pytest.mark.parametrize("pattern", [path_graph(3), complete_graph(3),
                                     cycle_graph(4), star_graph(3)])
def test_copies_match_networkx(host, pattern):
    ours = {e.edge_set for e in enumerate_copies(host, pattern)}
    assert ours == nx_copies(host, pattern)


def test_isomorphism():
    assert graphs_isomorphic(cycle_graph(3), complete_graph(3))
    assert not graphs_isomorphic(cycle_graph(6),
                                 disjoint_union(cycle_graph(3), cycle_graph(3)))
    assert not graphs_isomorphic(path_graph(4), star_graph(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 6), st.data())
def test_isomorphism_invariant_under_relabeling(n, data):
    import itertools
    base = complete_graph(n)
    keep = data.draw(st.sets(st.integers(0, base.num_edges - 1), min_size=2))
    g = base.delete_edges(set(range(base.num_edges)) - keep)
    perm = data.draw(st.permutations(range(n)))
    h = from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
    assert graphs_isomorphic(g, h)


def test_compose_basic():
    host = complete_graph(3)
    res = compose(host, path_graph(3), {0: 0, 2: 1})
    g = res.graph
    assert g.n == 4 and g.num_edges == 5
    # host edges keep ids, new path edges appended
    assert g.edges[:3] == host.edges
    assert res.vertex_map[1] == 3
    assert res.edge_map == (3, 4)


def test_compose_interface_edge_must_exist():
    host = path_graph(3)               # 0-1-2, no 0-2 edge
    gadget = complete_graph(3)
    with pytest.raises(ComposeError):
        compose(host, gadget, {0: 0, 1: 1, 2: 2})
    res = compose(host, gadget, {0: 0, 1: 1})   # only edge (0,1) identified
    assert res.edge_map[res.graph.n and 0] == 0
    assert res.graph.num_edges == 4


def test_compose_rejects_collapsing():
    with pytest.raises(ComposeError):
        compose(complete_graph(3), single_edge(), {0: 0, 1: 0})


def test_labels():
    g = star_graph(2).relabel({0: "v"})
    assert g.vertex_by_label("v") == 0
    res = compose(complete_graph(3), g, {1: 0, 2: 1}, label_prefix="a.")
    assert res.graph.vertex_by_label("a.v") == 3
    with pytest.raises(GraphError):
        Graph(2, ((0, 1),), ("x", "x"))
