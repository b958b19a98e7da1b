"""Shared oracles.  The exhaustive colorer and the networkx-based copy
enumerator are deliberately independent of the package's own engine so
unit tests cross-check rather than echo it.  `fake_clock` lets a test
run a budget's clock itself, so no outcome depends on the machine's
speed."""

import itertools
from types import SimpleNamespace

import networkx as nx

from ramsey_gadgets import ARROWS, DOES_NOT_ARROW, Graph, arrowing
from ramsey_gadgets import graph as graph_module


def fake_clock(monkeypatch, jumped) -> None:
    """Give `arrowing` and `graph`, the modules that read the clock, one
    that stands at 0 while `jumped()` is false and at 1 once it is true."""
    fake_time = SimpleNamespace(monotonic=lambda: float(jumped()))
    monkeypatch.setattr(arrowing, "time", fake_time)
    monkeypatch.setattr(graph_module, "time", fake_time)


def after_first_read(monkeypatch) -> None:
    """A fake clock that jumps right after its first read: a budget
    started then (the first read) has run out at every later one."""
    reads = itertools.count()
    fake_clock(monkeypatch, lambda: next(reads) > 0)


def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def nx_copies(host: Graph, pattern: Graph) -> set[frozenset[int]]:
    """Distinct pattern copies in host as host-edge-id sets, found with
    networkx subgraph monomorphisms (non-induced)."""
    hn = to_networkx(host)
    pn = to_networkx(pattern.without_isolated())
    matcher = nx.algorithms.isomorphism.GraphMatcher(hn, pn)
    out = set()
    for mapping in matcher.subgraph_monomorphisms_iter():
        inv = {pv: hv for hv, pv in mapping.items()}
        out.add(frozenset(host.edge_id(inv[u], inv[v])
                          for u, v in pattern.without_isolated().edges))
    return out


def free_of(coloring, copies) -> bool:
    """No copy (edge ids) is monochromatic under `coloring`."""
    return not any(len({coloring[e] for e in copy}) == 1 for copy in copies)


def free_extension_exists(host: Graph, target: Graph, q: int, fixed,
                          copies=None) -> bool:
    """Some coloring of the edges outside `fixed` by 1..q leaves no
    copy monochromatic: plain q^(free edges) enumeration."""
    if copies is None:
        copies = nx_copies(host, target)
    free = [e for e in range(host.num_edges) if e not in fixed]
    return any(free_of({**fixed, **dict(zip(free, colors))}, copies)
               for colors in itertools.product(range(1, q + 1),
                                               repeat=len(free)))


def naive_arrows(host: Graph, target: Graph, q: int) -> str:
    """Plain q^|E| enumeration; desk sizes only."""
    copies = [tuple(c) for c in nx_copies(host, target)]
    for colors in itertools.product(range(q), repeat=host.num_edges):
        if not any(all(colors[e] == colors[c[0]] for e in c) for c in copies):
            return DOES_NOT_ARROW
    return ARROWS


def naive_is_minimal(g: Graph, target: Graph, q: int) -> bool:
    """Minimal by the definition: g arrows and no g - e does, each
    subgraph rebuilt and decided by `naive_arrows`."""
    return naive_arrows(g, target, q) == ARROWS and all(
        naive_arrows(g.delete_edge(e), target, q) == DOES_NOT_ARROW
        for e in range(g.num_edges))


def naive_minimalize(g: Graph, target: Graph, q: int,
                     decide=naive_arrows) -> Graph:
    """Greedy deletion, lowest edge id first, each subgraph rebuilt and
    decided by `decide` (`naive_arrows` by default); g must arrow."""
    i = 0
    while i < g.num_edges:
        sub = g.delete_edge(i)
        if decide(sub, target, q) == ARROWS:
            g = sub
        else:
            i += 1
    return g.without_isolated()
