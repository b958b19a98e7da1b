"""Immutable labeled simple graphs with bitset adjacency.

Vertices are 0..n-1.  Edges are stored as a tuple of (u, v) pairs with
u < v; the index of an edge in that tuple is its stable edge id.  Edge
ids are assigned in construction order and never renumbered, so
replaying a construction recipe reproduces identical ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import (Iterable, Mapping, Optional, Sequence, Union, get_args,
                    get_origin)

INFINITY = math.inf


class GraphError(ValueError):
    pass


class InternalError(Exception):
    """A result failed its own re-check: a bug, never bad input."""


class ComposeError(GraphError):
    pass


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise GraphError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, eq=False)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[Optional[str], ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", (None,) * self.n)
        if len(self.labels) != self.n:
            raise GraphError("labels length must equal vertex count")
        seen_labels = set()
        for lab in self.labels:
            if lab is None:
                continue
            if lab in seen_labels:
                raise GraphError(f"duplicate vertex label {lab!r}")
            seen_labels.add(lab)
        adj = [0] * self.n
        index: dict[tuple[int, int], int] = {}
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < v < self.n):
                raise GraphError(f"bad edge ({u},{v}) for n={self.n}")
            if (u, v) in index:
                raise GraphError(f"duplicate edge ({u},{v})")
            index[(u, v)] = eid
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "_edge_index", index)

    # derived, set in __post_init__
    adj: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.edges, self.labels) == (other.n, other.edges, other.labels)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"

    def to_json(self) -> dict:
        """The one JSON form of a graph.  Edges are listed in edge-id
        order, so edge ids survive a round trip."""
        return {"n": self.n, "edges": [list(e) for e in self.edges],
                "labels": list(self.labels)}

    @classmethod
    def from_json(cls, data) -> "Graph":
        """Inverse of `to_json`; malformed input raises GraphError."""
        if not isinstance(data, dict) or type(data.get("n")) is not int:
            raise GraphError('a graph is {"n": int, "edges", "labels"}')
        return cls(data["n"],
                   decode_json(tuple[tuple[int, int], ...], data.get("edges"),
                               "graph edges"),
                   decode_json(tuple[Optional[str], ...],
                               data.get("labels", []), "graph labels"))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self._edge_index

    def edge_id(self, u: int, v: int) -> int:
        try:
            return self._edge_index[_norm_edge(u, v)]
        except KeyError:
            raise GraphError(f"no edge ({u},{v})") from None

    def neighbors(self, v: int) -> list[int]:
        return _bits_to_list(self.adj[v])

    def degree(self, v: int) -> int:
        return bin(self.adj[v]).count("1")

    def degrees(self) -> list[int]:
        return [self.degree(v) for v in range(self.n)]

    def vertex_by_label(self, label: str) -> int:
        for v, lab in enumerate(self.labels):
            if lab == label:
                return v
        raise KeyError(label)

    def relabel(self, mapping: Mapping[int, Optional[str]]) -> "Graph":
        labels = list(self.labels)
        for v, lab in mapping.items():
            labels[v] = lab
        return Graph(self.n, self.edges, tuple(labels))

    def delete_edge(self, eid: int) -> "Graph":
        """Graph with one edge removed; remaining edges are renumbered."""
        edges = self.edges[:eid] + self.edges[eid + 1:]
        return Graph(self.n, edges, self.labels)

    def delete_edges(self, eids: Iterable[int]) -> "Graph":
        drop = set(eids)
        edges = tuple(e for i, e in enumerate(self.edges) if i not in drop)
        return Graph(self.n, edges, self.labels)

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph; vertices are renumbered in sorted order."""
        vs = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(vs)}
        edges = tuple(
            (pos[u], pos[v]) for (u, v) in self.edges if u in pos and v in pos
        )
        labels = tuple(self.labels[v] for v in vs)
        return Graph(len(vs), edges, labels)

    def without_isolated(self) -> "Graph":
        keep = [v for v in range(self.n) if self.adj[v]]
        if len(keep) == self.n:
            return self
        return self.induced(keep)

    def edge_induced(self, eids: Iterable[int]) -> "Graph":
        """Subgraph formed by the given edges and their endpoints."""
        es = sorted(set(eids))
        verts = sorted({v for eid in es for v in self.edges[eid]})
        pos = {v: i for i, v in enumerate(verts)}
        edges = tuple((pos[self.edges[e][0]], pos[self.edges[e][1]]) for e in es)
        return Graph(len(verts), edges)

    def edge_vertices(self, eids: Iterable[int]) -> set[int]:
        return {v for eid in eids for v in self.edges[eid]}

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            b = frontier
            while b:
                v = (b & -b).bit_length() - 1
                b &= b - 1
                nxt |= self.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1


def decode_json(hint, data, where: str):
    """The value of type `hint` whose JSON form is `data`, for a class with
    a `from_json`, Optional[X], tuple[X, ...], a fixed-length tuple, int,
    str, list or dict; GraphError naming `where` if `data` is not one."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:                                  # Optional[X]
        return None if data is None else decode_json(args[0], data, where)
    if hasattr(hint, "from_json"):
        return hint.from_json(data)
    if origin is tuple:
        if not isinstance(data, list):
            raise GraphError(f"{where} must be a list")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(data)
        if len(data) != len(args):
            raise GraphError(f"{where} must have {len(args)} entries")
        return tuple(decode_json(a, x, where) for a, x in zip(args, data))
    if type(data) is hint:
        return data
    raise GraphError(f"{where} must be a JSON {hint.__name__}")


def _bits_to_list(bits: int) -> list[int]:
    out = []
    while bits:
        v = (bits & -bits).bit_length() - 1
        out.append(v)
        bits &= bits - 1
    return out


# ---------------------------------------------------------------------------
# constructors

def from_edges(n: int, edges: Iterable[tuple[int, int]],
               labels: Sequence[Optional[str]] = ()) -> Graph:
    return Graph(n, tuple(_norm_edge(u, v) for u, v in edges), tuple(labels))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """Path on n vertices (n-1 edges)."""
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def star_graph(m: int) -> Graph:
    """Star K_{1,m}: center 0, leaves 1..m."""
    return Graph(m + 1, tuple((0, i) for i in range(1, m + 1)))


def matching_graph(size: int) -> Graph:
    """Matching of `size` disjoint edges on vertices 0..2*size-1."""
    return Graph(2 * size, tuple((2 * i, 2 * i + 1) for i in range(size)))


def clique_with_pendant(t: int) -> Graph:
    """K_t plus one new vertex attached to vertex 0 of the clique."""
    edges = list(combinations(range(t), 2)) + [(0, t)]
    return from_edges(t + 1, edges)


def single_edge() -> Graph:
    return Graph(2, ((0, 1),))


_NAMED_HINT = "expected Kt, Ct, Pn, K1,m / Sm, KtK2 / Kt.K2, or g6:<token>"


def graph_from_name(name: str) -> Graph:
    """Parse a named graph family ("K6", "C4", "P4", "K1,3", "K4K2")
    or a graph6 literal ("g6:D?{")."""
    from . import graph6 as g6mod

    s = name.strip()
    if s.startswith("g6:"):
        return g6mod.parse_graph6(s[3:])
    up = s.upper().replace(".", "")
    try:
        if up.startswith("K1,"):
            return star_graph(int(up[3:]))
        if up.startswith("S") and up[1:].isdigit():
            return star_graph(int(up[1:]))
        if up.endswith("K2") and up.startswith("K") and len(up) > 3:
            return clique_with_pendant(int(up[1:-2]))
        if up.startswith("K") and up[1:].isdigit():
            return complete_graph(int(up[1:]))
        if up.startswith("C") and up[1:].isdigit():
            return cycle_graph(int(up[1:]))
        if up.startswith("P") and up[1:].isdigit():
            return path_graph(int(up[1:]))
    except ValueError as exc:
        raise GraphError(f"cannot parse graph name {name!r}: {_NAMED_HINT}") from exc
    raise GraphError(f"unknown graph name {name!r}: {_NAMED_HINT}")


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = a.edges + tuple((u + a.n, v + a.n) for (u, v) in b.edges)
    return Graph(a.n + b.n, edges, a.labels + b.labels)


# ---------------------------------------------------------------------------
# metrics

def distance(g: Graph, a: Iterable[int], b: Iterable[int]) -> float:
    """BFS distance (edge count) between two vertex sets; 0 if they
    intersect, INFINITY if disconnected."""
    aset = set(a)
    bset = set(b)
    if not aset or not bset:
        raise GraphError("distance requires nonempty sets")
    if aset & bset:
        return 0
    target = 0
    for v in bset:
        target |= 1 << v
    seen = 0
    for v in aset:
        seen |= 1 << v
    frontier = seen
    dist = 0
    while frontier:
        dist += 1
        nxt = 0
        bts = frontier
        while bts:
            v = (bts & -bts).bit_length() - 1
            bts &= bts - 1
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        if frontier & target:
            return dist
        seen |= frontier
    return INFINITY


def edge_distance(g: Graph, eids_a: Iterable[int], eids_b: Iterable[int]) -> float:
    return distance(g, g.edge_vertices(eids_a), g.edge_vertices(eids_b))


def girth(g: Graph) -> float:
    """Length of a shortest cycle; INFINITY for forests."""
    best = INFINITY
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        while queue:
            nq = []
            for u in queue:
                for w in g.neighbors(u):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nq.append(w)
                    elif w != parent[u]:
                        best = min(best, dist[u] + dist[w] + 1)
            queue = nq
    return best


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff g has more than k vertices and removing any set of at
    most k-1 vertices leaves a connected graph."""
    if k < 1:
        raise GraphError("k must be >= 1")
    if g.n <= k:
        return False
    for size in range(0, k):
        for drop in combinations(range(g.n), size):
            rest = [v for v in range(g.n) if v not in drop]
            if not g.induced(rest).is_connected():
                return False
    return True


# ---------------------------------------------------------------------------
# embeddings and copy enumeration

@dataclass(frozen=True)
class Embedding:
    """An injective map from a pattern graph into a host graph."""
    vertex_map: tuple[int, ...]           # pattern vertex -> host vertex
    edge_map: tuple[int, ...]             # pattern edge id -> host edge id
    edge_set: frozenset[int]              # host edge ids, dedup key


def _pattern_order(pattern: Graph) -> list[int]:
    """Vertex order where each vertex after the first of its component is
    adjacent to an earlier one; isolated vertices are dropped."""
    order: list[int] = []
    placed = set()
    for start in sorted(range(pattern.n), key=lambda v: -pattern.degree(v)):
        if start in placed or pattern.degree(start) == 0:
            continue
        comp = [start]
        placed.add(start)
        i = 0
        while i < len(comp):
            for w in pattern.neighbors(comp[i]):
                if w not in placed:
                    placed.add(w)
                    comp.append(w)
            i += 1
        order.extend(comp)
    return order


def enumerate_copies(host: Graph, pattern: Graph) -> list[Embedding]:
    """All distinct copies of `pattern` in `host`, deduplicated by edge
    set (automorphic re-embeddings of the same edges count once).
    Isolated pattern vertices are ignored: a copy is determined by its
    edges.  Deterministic order (sorted by edge set)."""
    if pattern.num_edges == 0:
        raise GraphError("pattern must have at least one edge")
    order = _pattern_order(pattern)
    full = (1 << host.n) - 1
    host_deg = host.degrees()
    pat_deg = pattern.degrees()
    found: dict[frozenset[int], Embedding] = {}
    image = {}

    def extend(idx: int):
        if idx == len(order):
            edge_ids = []
            for (pu, pv) in pattern.edges:
                edge_ids.append(host.edge_id(image[pu], image[pv]))
            key = frozenset(edge_ids)
            if key not in found:
                vm = tuple(image.get(v, -1) for v in range(pattern.n))
                found[key] = Embedding(vm, tuple(edge_ids), key)
            return
        p = order[idx]
        cand = full
        for w in pattern.neighbors(p):
            if w in image:
                cand &= host.adj[image[w]]
        used = 0
        for v in image.values():
            used |= 1 << v
        cand &= ~used
        bts = cand
        while bts:
            hv = (bts & -bts).bit_length() - 1
            bts &= bts - 1
            if host_deg[hv] < pat_deg[p]:
                continue
            image[p] = hv
            extend(idx + 1)
            del image[p]

    extend(0)
    return [found[k] for k in sorted(found, key=lambda s: sorted(s))]


def graphs_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test for small graphs (backtracking with degree
    pruning).  Isolated vertices count."""
    if a.n != b.n or a.num_edges != b.num_edges:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    deg_a, deg_b = a.degrees(), b.degrees()
    order = sorted(range(a.n), key=lambda v: -deg_a[v])
    image: dict[int, int] = {}
    used = set()

    def extend(idx: int) -> bool:
        if idx == a.n:
            return True
        p = order[idx]
        for q in range(b.n):
            if q in used or deg_b[q] != deg_a[p]:
                continue
            ok = True
            for w in a.neighbors(p):
                if w in image and not (b.adj[q] >> image[w]) & 1:
                    ok = False
                    break
            if ok:
                # non-edges must stay non-edges (bijective map)
                for w, qw in image.items():
                    has_a = (a.adj[p] >> w) & 1
                    has_b = (b.adj[q] >> qw) & 1
                    if has_a != has_b:
                        ok = False
                        break
            if ok:
                image[p] = q
                used.add(q)
                if extend(idx + 1):
                    return True
                del image[p]
                used.remove(q)
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# composition

@dataclass(frozen=True)
class ComposeResult:
    graph: Graph
    vertex_map: tuple[int, ...]   # gadget vertex -> host vertex
    edge_map: tuple[int, ...]     # gadget edge id -> host edge id


def compose(host: Graph, gadget: Graph,
            identification: Mapping[int, int],
            label_prefix: Optional[str] = None) -> ComposeResult:
    """Disjoint union of host and gadget, then identify the mapped gadget
    vertices with host vertices.

    Every gadget edge whose endpoints are both identified must land on an
    existing host edge (the interfaces are edges or subgraphs, never new
    host-internal edges).  Edge ids: host edges keep their ids; new gadget
    edges are appended in gadget edge order.
    """
    ident = dict(identification)
    if len(set(ident.values())) != len(ident):
        raise ComposeError("identification collapses two gadget vertices")
    for gv, hv in ident.items():
        if not (0 <= gv < gadget.n) or not (0 <= hv < host.n):
            raise ComposeError(f"identification {gv}->{hv} out of range")

    vmap = list(range(gadget.n))
    nxt = host.n
    new_labels = list(host.labels)
    for gv in range(gadget.n):
        if gv in ident:
            vmap[gv] = ident[gv]
        else:
            vmap[gv] = nxt
            lab = gadget.labels[gv]
            if lab is not None and label_prefix is not None:
                lab = f"{label_prefix}{lab}"
            new_labels.append(lab)
            nxt += 1

    edges = list(host.edges)
    emap = []
    for (gu, gv) in gadget.edges:
        hu, hv = vmap[gu], vmap[gv]
        if gu in ident and gv in ident:
            if not host.has_edge(hu, hv):
                raise ComposeError(
                    f"interface edge ({gu},{gv}) maps onto host non-edge ({hu},{hv})")
            emap.append(host.edge_id(hu, hv))
        else:
            emap.append(len(edges))
            edges.append(_norm_edge(hu, hv))

    g = Graph(nxt, tuple(edges), tuple(new_labels))
    return ComposeResult(g, tuple(vmap), tuple(emap))
