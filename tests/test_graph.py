import json
import time
from itertools import combinations
from typing import Optional, Union, get_args, get_origin

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nx_copies, to_networkx
from ramsey_gadgets import graph as graph_module
from ramsey_gadgets import (ComposeError, Graph, GraphError, InternalError,
                            StubSenderProvider, build_clique_gtilde,
                            build_cycle_abundant, build_indicator,
                            complete_graph,
                            compose, cycle_graph, clique_with_pendant,
                            disjoint_union, distance, edge_distance,
                            enumerate_copies, far_edge_pairs, from_edges,
                            girth, graph_from_name, graphs_isomorphic,
                            is_k_connected, matching_graph, parse_any,
                            path_graph, single_edge, star_graph,
                            write_graph6, write_sparse6)
from ramsey_gadgets.gadgets import POSITIVE, check_robust
from ramsey_gadgets.graph import INFINITY, MAX_ORDER, decode_json


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


def test_graph_equality_and_repr():
    assert complete_graph(3) == complete_graph(3)
    assert complete_graph(3) != "K3"
    assert complete_graph(3).__eq__((3, ((0, 1), (0, 2), (1, 2)))) \
        is NotImplemented
    assert repr(complete_graph(4)) == "Graph(n=4, m=6)"


@pytest.mark.parametrize("data", [
    None, [], {"edges": []}, {"n": "3", "edges": []}, {"n": 3},
    {"n": 3, "edges": [[0, 1, 2]]}, {"n": 3, "edges": [[0, "1"]]},
    {"n": 3, "edges": [[0, 1.0]]}, {"n": 3, "edges": [[0, True]]},
    {"n": 3, "edges": [[1, 0]]},
    {"n": 3, "edges": [[0, 5]]}, {"n": 3, "edges": [[0, 1], [0, 1]]},
    {"n": 2, "edges": [], "labels": ["a"]},
    {"n": 2, "edges": [], "labels": ["a", 7]},
    {"n": 2, "edges": [], "labels": ["a", "a"]},
    {"n": -1, "edges": []},
    {"n": MAX_ORDER + 1, "edges": []},
    {"n": 2**62, "edges": []},
])
def test_graph_from_json_rejects_malformed(data):
    with pytest.raises(GraphError):
        Graph.from_json(data)


@pytest.mark.parametrize("n, edges, labels, message", [
    (3, ((0, 5), (0, 1), (0, 1)), (), "bad edge (0,5) for n=3"),
    (3, ((0, 1), (0, 1), (0, 5)), (), "duplicate edge (0,1)"),
    (3, ((1, 2), (2, 1), (0, 1)), (), "bad edge (2,1) for n=3"),
    (3, ((0, 5),), ("a", None, "a"), "duplicate vertex label 'a'"),
    (3, ((0, 1), (0, 1)), ("a", "b", "b", "a"),
     "labels length must equal vertex count"),
    (4, (), (None, "b", None, "b"), "duplicate vertex label 'b'"),
])
def test_graph_reports_its_first_fault(n, edges, labels, message):
    # labels are checked before edges, and edges in edge-id order
    with pytest.raises(GraphError) as info:
        Graph(n, edges, labels)
    assert str(info.value) == message


def _reference_decode(hint, data, where):
    """An independent decoder: the per-element recursion that
    `decode_json` replaced, kept as the oracle of its results and
    messages."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return None if data is None else _reference_decode(args[0], data, where)
    if hasattr(hint, "from_json"):
        return hint.from_json(data)
    if origin is tuple:
        if not isinstance(data, list):
            raise GraphError(f"{where} must be a list")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(data)
        if len(data) != len(args):
            raise GraphError(f"{where} must have {len(args)} entries")
        return tuple(_reference_decode(a, x, where) for a, x in zip(args, data))
    if type(data) is hint:
        return data
    raise GraphError(f"{where} must be a JSON {hint.__name__}")


class _Items(list):
    """A list subclass: accepted where a list is, off the bulk path."""


_GRAPH = {"n": 2, "edges": [[0, 1]]}
_DECODE_CASES = {
    tuple[tuple[int, int], ...]: (
        [[0, 1], [1, 2]], [], [_Items([0, 1])], _Items([[0, 1]]),
        [[0, True]], [[0, 1.0]], [[0, 1, 2]], [[0]], [(0, 1)], [5],
        {"0": [0, 1]}, "01", None, [[0, 1], [2, True], [1.5, 0]]),
    tuple[Optional[str], ...]: (
        ["a", None], [], [True], [1.0], [["a"]], "ab", None,
        [None, 7, 1.5]),
    tuple[Graph, ...]: (
        [_GRAPH], [True], [1.5], [{"n": 2, "edges": [[0, 1, 1]]}], _GRAPH,
        [{"n": True, "edges": []}], [{"n": 2, "edges": [[0, 1.0]]}]),
    tuple[tuple[int, ...], ...]: (
        [[0, 1, 2], [], [3]], [[True]], [[1.0]], [0, [1]], [[0], 5],
        {"a": 1}, [[0, 1], [2, False]]),
    tuple[list, ...]: (
        [[0], [[1, 2]], []], [True], [1.5], [(0,)], {"a": []}, [[], {}]),
}


@pytest.mark.parametrize("hint, data", [
    (hint, data) for hint, cases in _DECODE_CASES.items() for data in cases])
def test_decode_json_matches_the_reference(hint, data):
    try:
        expected = _reference_decode(hint, data, "the field")
    except GraphError as exc:
        with pytest.raises(type(exc)) as info:
            decode_json(hint, data, "the field")
        assert str(info.value) == str(exc)
    else:
        assert decode_json(hint, data, "the field") == expected


def test_decode_json_messages_name_the_first_fault():
    edges = tuple[tuple[int, int], ...]
    for data, message in (
            ([[0, 1], [0, True], [0, 1.5]], "e must be a JSON int"),
            ([[0, 1], [0, 1, 2]], "e must have 2 entries"),
            ([[0, 1], 7], "e must be a list"),
            ({"edges": []}, "e must be a list")):
        with pytest.raises(GraphError, match=f"^{message}$"):
            decode_json(edges, data, "e")
    with pytest.raises(GraphError, match="^l must be a JSON str$"):
        decode_json(tuple[Optional[str], ...], ["a", None, 7], "l")


def test_decode_json_introspects_a_hint_once(monkeypatch):
    calls = []
    monkeypatch.setattr(graph_module, "get_origin",
                        lambda hint: calls.append(hint) or get_origin(hint))
    graph_module._decoder.cache_clear()
    hint = tuple[tuple[int, int], ...]
    decode_json(hint, [[0, 1]] * 10, "edges")
    first = len(calls)
    assert first > 0
    decode_json(hint, [[0, 1]] * 1000, "edges")
    decode_json(hint, [_Items([0, 1])] * 1000, "edges")     # item by item
    with pytest.raises(GraphError):
        decode_json(hint, [[0, 1]] * 1000 + [[0, True]], "edges")
    assert len(calls) == first
    graph_module._decoder.cache_clear()


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
    assert_copies_match_networkx(host, pattern)


def assert_copies_match_networkx(host: Graph, pattern: Graph) -> list:
    """The copies are networkx's, each its edge ids in increasing order,
    in increasing order of those tuples: the order `_solve` branches in."""
    copies = [emb.edge_set for emb in enumerate_copies(host, pattern)]
    assert {frozenset(c) for c in copies} == nx_copies(host, pattern)
    assert all(a < b for c in copies for a, b in zip(c, c[1:]))
    assert all(a < b for a, b in zip(copies, copies[1:]))
    return copies


def random_graph(data, n: int, m=None) -> Graph:
    """n vertices and m random edges (a random number if m is None)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if m is None:
        m = data.draw(st.integers(0, len(pairs)))
    return from_edges(n, data.draw(st.permutations(pairs))[:m])


# disconnected patterns and isolated pattern vertices included
# the relabelled P4 places its symmetry condition's upper vertex (0 < 3)
# after the lower one, so the candidate mask runs on the upper bound
PATTERNS = [path_graph(3), path_graph(4), complete_graph(3), cycle_graph(4),
            star_graph(3), matching_graph(2), from_edges(4, [(1, 2), (2, 3)]),
            complete_graph(4), cycle_graph(5), clique_with_pendant(3),
            complete_graph(4).delete_edge(0),
            from_edges(4, [(0, 2), (1, 2), (1, 3)]),
            # a degree-4 vertex: most small hosts have few candidates for it
            star_graph(4), clique_with_pendant(4)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_copies_match_networkx(data):
    host = random_graph(data, data.draw(st.integers(1, 7)))
    pattern = data.draw(st.sampled_from(PATTERNS))
    assert_copies_match_networkx(host, pattern)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_distances_match_networkx(data):
    # up to 10 edges on up to 8 vertices: many hosts are disconnected,
    # and d runs past the largest finite distance, n - 1
    n = data.draw(st.integers(1, 8))
    g = random_graph(data, n, data.draw(st.integers(0, 10)))
    lengths = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))

    def nx_distance(a, b):
        return min(lengths[u].get(v, INFINITY) for u in a for v in b)

    vertex_sets = st.sets(st.integers(0, n - 1), min_size=1)
    a, b = data.draw(vertex_sets), data.draw(vertex_sets)
    assert distance(g, a, b) == nx_distance(a, b)
    d = data.draw(st.integers(0, n + 1))
    assert far_edge_pairs(g, d) == [
        (e, f) for e, f in combinations(range(g.num_edges), 2)
        if nx_distance(g.edges[e], g.edges[f]) >= d]
    assert "ranked" not in g.__dict__    # no n-bit bitsets were built


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_traversals_match_networkx(data):
    # up to 12 edges on up to 8 vertices: many graphs are disconnected or
    # have isolated vertices
    n = data.draw(st.integers(1, 8))
    g = random_graph(data, n, data.draw(st.integers(0, 12)))
    nxg = to_networkx(g)
    assert g.is_connected() == nx.is_connected(nxg)

    def shortest_cycle_through(u, v):
        rest = nxg.copy()
        rest.remove_edge(u, v)
        try:
            return nx.shortest_path_length(rest, u, v) + 1
        except nx.NetworkXNoPath:
            return INFINITY
    assert girth(g) == min((shortest_cycle_through(u, v) for u, v in g.edges),
                           default=INFINITY)
    assert "ranked" not in vars(g)       # no n-bit bitsets were built

    perm = data.draw(st.permutations(range(n)))
    relabelled = from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
    assert graphs_isomorphic(g, relabelled)
    assert graphs_isomorphic(relabelled, g)
    non_edges = [e for e in combinations(range(n), 2) if not g.has_edge(*e)]
    if g.num_edges and non_edges:
        gone = data.draw(st.integers(0, g.num_edges - 1))
        moved = from_edges(n, g.delete_edge(gone).edges
                           + (data.draw(st.sampled_from(non_edges)),))
        assert graphs_isomorphic(g, moved) == nx.is_isomorphic(
            nxg, to_networkx(moved))


def counting_embed(monkeypatch, pattern) -> list:
    """Counts the full maps `graph._embed` visits from now on.  The
    pattern's symmetry conditions, its own search, are computed first, so
    every counted map is one of a host's search, whatever adjacency that
    search runs on."""
    pattern.symmetry_conditions                 # kept on the pattern
    visits = []
    embed = graph_module._embed

    def counted(adj, pattern, starts, visit, *rest):
        def seen(image):
            visits.append(1)
            return visit(image)
        return embed(adj, pattern, starts, seen, *rest)
    monkeypatch.setattr(graph_module, "_embed", counted)
    return visits


@pytest.mark.parametrize("n,t,count", [(10, 5, 252), (17, 4, 2380)])
def test_each_copy_is_visited_once(monkeypatch, n, t, count):
    pattern = complete_graph(t)
    visits = counting_embed(monkeypatch, pattern)
    assert len(enumerate_copies(complete_graph(n), pattern)) == count
    assert len(visits) == count            # not |Aut(K_t)| times as many


def wheel(rim: int) -> Graph:
    """A hub, vertex 0, joined to every vertex of a cycle 1..rim."""
    return from_edges(rim + 1, [(0, i) for i in range(1, rim + 1)]
                      + [(i, i % rim + 1) for i in range(1, rim + 1)])


STUB = StubSenderProvider()
STUB_INDICATOR = build_indicator(complete_graph(4), complete_graph(3), 2,
                                 POSITIVE, STUB).graph


@pytest.mark.parametrize("host,pattern", [
    (wheel(8), complete_graph(3)), (wheel(8), cycle_graph(4)),
    (STUB_INDICATOR, complete_graph(3)), (STUB_INDICATOR, cycle_graph(4))])
def test_each_copy_is_visited_once_in_a_non_regular_host(monkeypatch, host,
                                                         pattern):
    assert host.ranked[0] != tuple(range(host.n))    # the hubs move last
    visits = counting_embed(monkeypatch, pattern)
    count = len(nx_copies(host, pattern))
    assert len(enumerate_copies(host, pattern)) == count > 0
    assert len(visits) == count


def test_too_low_degree_candidates_are_cut_before_their_neighbours(
        monkeypatch):
    # the ranked K_{8,9} lists its nine degree-8 vertices first, and none
    # can image the pattern's degree-9 root; each is cut on its degree,
    # not after the root's neighbours are placed in all 8! orders
    g = from_edges(17, [(u, 8 + v) for u in range(8) for v in range(9)])
    reads = []

    class CountedAdj(tuple):
        def __getitem__(self, i):
            reads.append(i)
            return tuple.__getitem__(self, i)
    embed = graph_module._embed
    monkeypatch.setattr(graph_module, "_embed",
                        lambda adj, *rest: embed(CountedAdj(adj), *rest))
    assert graphs_isomorphic(g, g)
    assert len(reads) < 1000


def test_ranked_orders_by_degree_then_id():
    host = star_graph(3)                            # degrees 3, 1, 1, 1
    order, adj = host.ranked
    assert order == (1, 2, 3, 0)
    assert adj == (0b1000, 0b1000, 0b1000, 0b0111)
    regular = cycle_graph(5)                        # the identity order
    assert regular.ranked == (tuple(range(5)),
                              (0b10010, 0b00101, 0b01010, 0b10100, 0b01001))


@pytest.mark.parametrize("host,pattern", [
    (build_clique_gtilde(4, 2, STUB).graph, complete_graph(3)),
    (build_clique_gtilde(4, 2, STUB).graph, cycle_graph(4)),
    (build_cycle_abundant(2, 4, 1, STUB).graph, cycle_graph(4)),
    (build_cycle_abundant(2, 5, 1, STUB).graph, cycle_graph(5))])
def test_copies_in_stub_gadgets_match_networkx(host, pattern):
    # hundreds of vertices, most of degree 2, a few hubs of degree 13-28
    assert host.n > 150 and max(host.degrees()) > 12
    assert assert_copies_match_networkx(host, pattern)


# minimum degree 2 or more, which the host is pruned for, and one with a
# degree-1 vertex, which leaves the host whole
PRUNED_PATTERNS = [cycle_graph(3), cycle_graph(4), cycle_graph(5),
                   cycle_graph(6), complete_graph(4), clique_with_pendant(3)]


def chained_host(data, pattern: Graph) -> Graph:
    """A small random graph grown by chains of degree-2 vertices between
    two of its vertices or back to one, pendant paths and lone cycles.
    A chain's inner vertex count is often v(pattern) - 1, v(pattern) or
    v(pattern) + 1, where whether a chain can hold a copy turns."""
    size = sum(1 for d in pattern.degrees() if d)
    n = data.draw(st.integers(2, 6))
    edges = list(random_graph(data, n).edges)
    inner = st.one_of(st.sampled_from([size - 1, size, size + 1]),
                      st.integers(1, 8))
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(["chain", "loop", "pendant",
                                          "cycle"]))
        a, b = (data.draw(st.integers(0, n - 1)) for _ in "ab")
        if kind == "loop":
            b = a
        length = data.draw(inner)
        if a == b or kind == "cycle":           # no repeated edge
            length = max(length, 2 + (kind == "cycle"))
        new = list(range(n, n + length))
        n += length
        path = {"chain": [a, *new, b], "loop": [a, *new, a],
                "pendant": [a, *new], "cycle": [*new, new[0]]}[kind]
        edges += zip(path, path[1:])
    return from_edges(n, edges)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_copies_in_chained_hosts_match_networkx(data):
    pattern = data.draw(st.sampled_from(PRUNED_PATTERNS))
    assert_copies_match_networkx(chained_host(data, pattern), pattern)


def test_long_chains_of_a_recipe_graph_are_not_searched():
    host = build_cycle_abundant(2, 5, 3, STUB).graph
    c5 = cycle_graph(5)
    order, adj = graph_module._search_host(host, c5)
    assert (host.n, len(order), len(adj)) == (5340, 936, 936)
    # the copies, in their order, are those of a plain search over the
    # whole host
    whole, ranked = host.ranked
    plain = []
    graph_module._embed(ranked, c5, [{}], lambda image: plain.append(tuple(
        sorted(host.edge_id(whole[image[u]], whole[image[v]])
               for u, v in c5.edges))), c5.symmetry_conditions)
    assert [c.edge_set for c in enumerate_copies(host, c5)] == sorted(plain)
    assert len(plain) == len(set(plain)) == 192


@pytest.mark.parametrize("host,pattern", [
    (cycle_graph(7), path_graph(3)),                # a degree-1 vertex
    (wheel(6), star_graph(3)),
    (build_cycle_abundant(2, 4, 1, STUB).graph, clique_with_pendant(3)),
    (complete_graph(6), cycle_graph(4)),            # minimum degree >= 3
    (wheel(6), cycle_graph(5)),
    (complete_graph(6), complete_graph(4)),
    (cycle_graph(5), cycle_graph(6)),               # too few of degree 2
    (wheel(6).delete_edge(0), cycle_graph(4)),
    (cycle_graph(6), cycle_graph(6)),               # a cycle with no end
    # vertices of degree below the pattern's least one but no long chain:
    # a pendant vertex, a cycle for K4, and K5 with chains of v(K4) - 1
    # inner vertices between two of its vertices and from one back to it
    (from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), cycle_graph(3)),
    (cycle_graph(4), complete_graph(4)),
    (from_edges(11, [*complete_graph(5).edges, (0, 5), (5, 6), (6, 7),
                     (7, 1), (2, 8), (8, 9), (9, 10), (10, 2)]),
     complete_graph(4))])
def test_the_search_host_is_the_whole_host_where_nothing_can_go(host,
                                                                pattern):
    assert graph_module._search_host(host, pattern) is host.ranked


def test_a_pruned_host_keeps_its_vertex_ranking():
    # a triangle 0 1 2 with a chain of three inner vertices from 0 to 1
    # and one of two from 2 back to itself: the long chain goes, the
    # short one (a second triangle) stays, and what is kept is ranked by
    # its own degrees, so 0 and 1 (degree 3 in the host, 2 in what is
    # kept) come before 6 and 7
    host = from_edges(8, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5),
                          (5, 1), (2, 6), (6, 7), (7, 2)])
    assert host.ranked[0] == (3, 4, 5, 6, 7, 0, 1, 2)
    order, adj = graph_module._search_host(host, cycle_graph(3))
    assert order == (0, 1, 6, 7, 2)
    assert [a.bit_count() for a in adj] == [2, 2, 2, 2, 4]
    assert [c.edge_set for c in enumerate_copies(host, cycle_graph(3))] \
        == [(0, 1, 2), (7, 8, 9)]


def test_symmetry_conditions_are_computed_once_per_pattern(monkeypatch):
    calls = []
    conditions = graph_module._symmetry_conditions
    monkeypatch.setattr(graph_module, "_symmetry_conditions",
                        lambda p: calls.append(p) or conditions(p))
    pattern = cycle_graph(5)
    first = enumerate_copies(complete_graph(7), pattern)
    second = enumerate_copies(wheel(6), pattern)
    assert len(calls) == 1
    assert len(first) == 252 and len(second) == len(nx_copies(wheel(6),
                                                              pattern))


def test_embedding_plan_is_built_once_per_pattern_and_conditions(
        monkeypatch):
    # the pattern's neighbour lists are the plan's set-up: one plan for
    # the symmetry conditions' own search (no conditions), one for the
    # copies, however many hosts the pattern is enumerated in
    pattern = cycle_graph(5)
    built = []
    lists = graph_module._neighbour_lists

    def spy(g):
        if g is pattern:
            built.append(g)
        return lists(g)

    monkeypatch.setattr(graph_module, "_neighbour_lists", spy)
    for host in (complete_graph(7), wheel(6), wheel(8), complete_graph(7)):
        assert_copies_match_networkx(host, pattern)
    assert len(built) == 2
    assert set(pattern._embed_plans) == {(), pattern.symmetry_conditions}


def test_plans_with_and_without_conditions_are_kept_apart():
    # a plan keyed by the pattern alone would give the copies the plan
    # of the uses without conditions, and find each triangle six times
    def uses_without_conditions(triangle):
        assert graphs_isomorphic(triangle, cycle_graph(3))
        assert check_robust(path_graph(3), [0, 2], triangle).results[0] \
            .outcome == "fail"                  # the added edge closes it

    first = complete_graph(3)
    uses_without_conditions(first)
    assert assert_copies_match_networkx(wheel(8), first)
    second = complete_graph(3)
    assert assert_copies_match_networkx(wheel(8), second)
    uses_without_conditions(second)
    assert assert_copies_match_networkx(wheel(8), second)


def test_serialized_graph_builds_no_adjacency():
    # only composed, written and parsed: no n-bit adjacency, no ranking
    g = build_cycle_abundant(2, 4, 1, STUB).graph
    json.dumps(g.to_json())
    back = Graph.from_json(g.to_json())
    parsed = parse_any(write_graph6(g))
    assert write_sparse6(g) and set(parsed.edges) == set(g.edges)
    for graph in (g, back, parsed):
        assert "ranked" not in vars(graph)
    assert g.degrees() and "ranked" not in vars(g)


def test_enumeration_stops_at_its_deadline():
    host = complete_graph(12)
    assert enumerate_copies(host, complete_graph(4),
                            time.monotonic() - 1) is None
    assert len(enumerate_copies(host, complete_graph(4),
                                time.monotonic() + 60)) == 495


def test_second_visit_of_a_copy_is_a_bug(monkeypatch):
    monkeypatch.setattr(graph_module, "_symmetry_conditions", lambda p: [])
    with pytest.raises(InternalError):
        enumerate_copies(complete_graph(4), complete_graph(3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_isomorphism_matches_networkx(data):
    n = data.draw(st.integers(0, 7))
    m = data.draw(st.integers(0, n * (n - 1) // 2))
    a = random_graph(data, n, m)
    if data.draw(st.booleans()):
        perm = data.draw(st.permutations(range(n)))
        b = from_edges(n, [(perm[u], perm[v]) for u, v in a.edges])
    else:
        b = random_graph(data, n, m)
    assert graphs_isomorphic(a, b) == nx.is_isomorphic(to_networkx(a),
                                                       to_networkx(b))


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
