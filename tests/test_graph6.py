import os

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import to_networkx
from ramsey_gadgets import (FormatError, complete_graph, cycle_graph,
                            from_edges, graphs_isomorphic, load_corpus,
                            parse_any, parse_graph6, parse_sparse6, path_graph,
                            read_graph_file, write_auto, write_graph6,
                            write_graph_file, write_sparse6)
from ramsey_gadgets.graph6 import bundled_corpus_path


# frozen from the reference format description's worked examples
def test_known_encodings():
    assert write_graph6(complete_graph(5)) == "D~{"
    assert parse_graph6("D~{").num_edges == 10
    assert write_graph6(from_edges(2, [])) == "A?"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.data())
def test_graph6_round_trip_matches_networkx(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs) if pairs else st.nothing(),
                               max_size=len(pairs)) if pairs else st.just(set()))
    g = from_edges(n, sorted(chosen))
    text = write_graph6(g)
    # byte-exact agreement with the networkx encoder
    assert text == nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
    back = parse_graph6(text)
    assert back.n == g.n and set(back.edges) == set(g.edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.data())
def test_sparse6_round_trip(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))
                       if pairs else st.just(set()))
    g = from_edges(n, sorted(chosen))
    text = write_sparse6(g)
    assert text.startswith(":")
    back = parse_sparse6(text)
    assert back.n == g.n and set(back.edges) == set(g.edges)
    # networkx parses our sparse6 to the same graph
    nxg = nx.from_sparse6_bytes(text.encode())
    assert nx.is_isomorphic(nxg, to_networkx(g))


def test_parse_any_dispatch():
    assert parse_any(":Fa@x^").n == 7
    assert parse_any("D~{").n == 5
    with pytest.raises(FormatError):
        parse_any("\x01bad")
    with pytest.raises(FormatError):
        parse_any("D\u00e9{")                 # not ASCII


def test_write_auto_prefers_shorter():
    dense = complete_graph(6)
    sparse = from_edges(30, [(0, 1)])
    tie = from_edges(6, [(0, 1), (1, 2), (2, 3)])
    assert write_auto(dense) == write_graph6(dense)
    assert write_auto(sparse).startswith(":")
    assert len(write_graph6(tie)) == len(write_sparse6(tie))
    assert write_auto(tie) == write_graph6(tie)       # ties go to graph6
    # n = 62, 63 straddle the one- and four-byte size fields
    graphs = [dense, sparse, tie] + [
        g for n in (0, 1, 2, 62, 63, 64)
        for g in (from_edges(n, []), path_graph(n), complete_graph(n))]
    for g in graphs:
        g6, s6 = write_graph6(g), write_sparse6(g)
        assert write_auto(g) == (s6 if len(s6) < len(g6) else g6)


def test_graph_file_round_trip(tmp_path):
    graphs = [complete_graph(4), cycle_graph(5)]
    path = tmp_path / "two.g6"
    write_graph_file(str(path), graphs)
    back = read_graph_file(str(path))
    assert len(back) == 2
    assert all(graphs_isomorphic(a, b) for a, b in zip(graphs, back))


def test_bundled_corpus():
    graphs = load_corpus()
    # all connected graphs on 1..6 vertices: 1+1+2+6+21+112
    assert len(graphs) == 143
    assert all(g.is_connected() for g in graphs)
    assert all(g.n <= 6 for g in graphs)
    assert len(load_corpus(max_order=4)) == 10
    # pairwise non-isomorphic at order 4
    small = [g for g in load_corpus(max_order=4) if g.n == 4]
    for i in range(len(small)):
        for j in range(i + 1, len(small)):
            assert not graphs_isomorphic(small[i], small[j])


def test_corpus_env_override(tmp_path, monkeypatch):
    write_graph_file(str(tmp_path / "connected_le6.g6"), [complete_graph(3)])
    monkeypatch.setenv("RAMSEY_CORPUS_DIR", str(tmp_path))
    assert len(load_corpus()) == 1
    monkeypatch.delenv("RAMSEY_CORPUS_DIR")
    assert os.path.exists(bundled_corpus_path())
    assert len(load_corpus()) == 143
