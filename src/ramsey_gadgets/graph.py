"""Immutable labeled simple graphs.

Vertices are 0..n-1.  Edges are stored as a tuple of (u, v) pairs with
u < v; the index of an edge in that tuple is its stable edge id.  Edge
ids are assigned in construction order and never renumbered, so
replaying a construction recipe reproduces identical ids.  A graph built
from many gadgets grows in a `_GraphDraft`, which appends to lists and
builds the `Graph` once.  Derived structure (degrees, the degree-ranked
bitset adjacency that copy enumeration runs on, a pattern's symmetry
conditions and embedding plans) is computed on first read and kept, so a
graph that is only composed, replayed or serialized never builds it.  A
graph keeps one bitset adjacency, `Graph.ranked`.  Traversals (distances,
girth, connectivity, far edge pairs) walk neighbour lists built for the
call, so measuring a large sparse gadget graph never builds its n-bit
bitsets.  A copy of a pattern is the increasing tuple of its host edge
ids, the one form the search, the target-freeness test and refutation
supports use.

Construction runs at list speed.  `Graph` validates in bulk: the edge
index is `dict(zip(edges, ids))` and a repeat shows as a shorter index,
bounds take one loop and labels one set-size test; only a graph that
fails is scanned again, in the old order, to report its first bad
label or edge.  `_GraphDraft.compose` maps and appends a gadget's edges
in one pass and extends the edge list and index in bulk.
`decode_json` builds one decoder per type hint (cached), so decoding a
list makes no typing introspection per item, and a list of scalars or
of edges is type-checked in bulk.  `Graph.from_json` rejects a vertex
count above `MAX_ORDER`, and `graph_from_name` a vertex or edge count
above it, before either allocates anything.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import chain, combinations, islice
from typing import (Callable, Iterable, Mapping, Optional, Sequence, Union,
                    get_args, get_origin)

INFINITY = math.inf
# The largest vertex count a graph read from JSON, graph6 or sparse6 may
# have, and the largest vertex or edge count of a named graph: labels
# and the edge index are built in memory, so a larger count is rejected
# before anything is allocated.  Far above the 24 174
# vertices of the largest graph the library builds.
MAX_ORDER = 1 << 22


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


def _bitsets(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


@dataclass(frozen=True, eq=False)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[Optional[str], ...] = ()

    def __post_init__(self):
        n, edges, labels = self.n, self.edges, self.labels
        if not labels:
            labels = (None,) * n
            object.__setattr__(self, "labels", labels)
        index = dict(zip(edges, range(len(edges))))
        names = set(labels)
        names.discard(None)
        if (len(labels) != n or len(names) != n - labels.count(None)
                or len(index) != len(edges)
                or not all(0 <= u < v < n for u, v in edges)):
            self._raise_first_fault()
        object.__setattr__(self, "_edge_index", index)

    def _raise_first_fault(self):
        """Raise the GraphError of a negative vertex count, then of the
        first bad label, then of the first bad or repeated edge in edge-id
        order; run only after the bulk checks of `__post_init__` failed."""
        if self.n < 0:
            raise GraphError(f"vertex count {self.n} is negative")
        if len(self.labels) != self.n:
            raise GraphError("labels length must equal vertex count")
        seen_labels = set()
        for lab in self.labels:
            if lab is None:
                continue
            if lab in seen_labels:
                raise GraphError(f"duplicate vertex label {lab!r}")
            seen_labels.add(lab)
        seen_edges = set()
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise GraphError(f"bad edge ({u},{v}) for n={self.n}")
            if (u, v) in seen_edges:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen_edges.add((u, v))

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def ranked(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(order, ranked_adj): the vertices by increasing (degree, id),
        and the adjacency bitsets of the graph with vertex order[r]
        renamed r: bit s of ranked_adj[r] is set when order[r] and
        order[s] are adjacent.  The graph's one bitset adjacency."""
        order = tuple(sorted(range(self.n), key=self._degrees.__getitem__))
        rank = [0] * self.n
        for r, v in enumerate(order):
            rank[v] = r
        return order, _bitsets(self.n, ((rank[u], rank[v])
                                        for u, v in self.edges))

    @cached_property
    def _embed_plans(self) -> dict:
        """The `_EmbedPlan`s of this graph as a pattern, keyed by the
        conditions tuple (none, or `symmetry_conditions`): `_embed` builds
        each on its first call and every later call reuses it."""
        return {}

    @cached_property
    def symmetry_conditions(self) -> tuple[tuple[int, int], ...]:
        """`_symmetry_conditions` of this graph as a pattern."""
        return tuple(_symmetry_conditions(self))

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
        if not 0 <= data["n"] <= MAX_ORDER:
            raise GraphError(f"vertex count {data['n']} is outside "
                             f"0..{MAX_ORDER}")
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

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def degrees(self) -> list[int]:
        return list(self._degrees)

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
        keep = [v for v in range(self.n) if self._degrees[v]]
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
        reached = _bfs_layers(_neighbour_lists(self), [0])
        return sum(map(len, reached)) == self.n


def decode_json(hint, data, where: str):
    """The value of type `hint` whose JSON form is `data`, for a class with
    a `from_json`, Optional[X], tuple[X, ...], a fixed-length tuple, int,
    str, list or dict; GraphError naming `where` if `data` is not one."""
    return _decoder(hint)(data, where)


@cache
def _decoder(hint) -> Callable[[object, str], object]:
    """`decode_json` for one hint, built once: all typing introspection
    happens here, so decoding a list of N items makes none per item."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:                                  # Optional[X]
        inner = _decoder(args[0])
        return lambda data, where: None if data is None else inner(data, where)
    if hasattr(hint, "from_json"):
        return lambda data, where: hint.from_json(data)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return _list_decoder(args[0])
        items = [_decoder(a) for a in args]

        def fixed(data, where):
            if not isinstance(data, list):
                raise GraphError(f"{where} must be a list")
            if len(data) != len(items):
                raise GraphError(f"{where} must have {len(items)} entries")
            return tuple([d(x, where) for d, x in zip(items, data)])
        return fixed

    def leaf(data, where):
        if type(data) is hint:
            return data
        raise GraphError(f"{where} must be a JSON {hint.__name__}")
    return leaf


def _scalar_types(hint) -> Optional[frozenset]:
    """The types a JSON value of `hint` may have, when `hint` is a plain
    type such as int or str, or Optional of one; None otherwise."""
    if get_origin(hint) is Union:
        inner = _scalar_types(get_args(hint)[0])
        return None if inner is None else inner | {type(None)}
    if isinstance(hint, type) and not hasattr(hint, "from_json") \
            and get_origin(hint) is None:
        return frozenset({hint})
    return None


def _list_decoder(item_hint) -> Callable[[object, str], tuple]:
    """The decoder of tuple[item_hint, ...].  A list of scalars, or of
    fixed-length lists whose entries are scalars of one kind (edges), is
    checked in bulk, by set operations over the item types and lengths.
    Only a list that fails the bulk check is decoded item by item, which
    accepts what the check is too strict for (a list subclass) and
    otherwise raises the error of the first bad item."""
    item = _decoder(item_hint)
    scalars = _scalar_types(item_hint)
    args = get_args(item_hint) if get_origin(item_hint) is tuple else ()
    inner = {_scalar_types(a) for a in args}
    inner_types = inner.pop() if len(inner) == 1 else None
    only_lists, arity = frozenset({list}), frozenset({len(args)})

    def decode(data, where):
        if not isinstance(data, list):
            raise GraphError(f"{where} must be a list")
        if scalars is not None and scalars.issuperset(map(type, data)):
            return tuple(data)
        if inner_types is not None and only_lists.issuperset(map(type, data)) \
                and arity.issuperset(map(len, data)) \
                and inner_types.issuperset(map(type, chain.from_iterable(data))):
            return tuple(map(tuple, data))
        return tuple([item(x, where) for x in data])
    return decode


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

# each named family's (vertex count, edge count) for its parameter
_NAMED_SIZES = {
    star_graph: lambda k: (k + 1, k),
    clique_with_pendant: lambda k: (k + 1, k * (k - 1) // 2 + 1),
    complete_graph: lambda k: (k, k * (k - 1) // 2),
    cycle_graph: lambda k: (k, k),
    path_graph: lambda k: (k, k - 1),
}


def graph_from_name(name: str) -> Graph:
    """Parse a named graph family ("K6", "C4", "P4", "K1,3", "K4K2")
    or a graph6 literal ("g6:D?{").  A named graph with more than
    `MAX_ORDER` vertices or edges is refused before it is built."""
    from . import graph6 as g6mod

    s = name.strip()
    if s.startswith("g6:"):
        return g6mod.parse_graph6(s[3:])
    up = s.upper().replace(".", "")
    if up.startswith("K1,"):
        make, arg = star_graph, up[3:]
    elif up.startswith("S") and up[1:].isdigit():
        make, arg = star_graph, up[1:]
    elif up.endswith("K2") and up.startswith("K") and len(up) > 3:
        make, arg = clique_with_pendant, up[1:-2]
    elif up.startswith("K") and up[1:].isdigit():
        make, arg = complete_graph, up[1:]
    elif up.startswith("C") and up[1:].isdigit():
        make, arg = cycle_graph, up[1:]
    elif up.startswith("P") and up[1:].isdigit():
        make, arg = path_graph, up[1:]
    else:
        raise GraphError(f"unknown graph name {name!r}: {_NAMED_HINT}")
    try:
        k = int(arg)
        n, m = _NAMED_SIZES[make](k)
        if max(n, m) <= MAX_ORDER:
            return make(k)
    except ValueError as exc:
        raise GraphError(f"cannot parse graph name {name!r}: {_NAMED_HINT}") from exc
    raise GraphError(f"graph name {name!r} gives {n} vertices and {m} edges, "
                     f"above the limit {MAX_ORDER}")


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = a.edges + tuple((u + a.n, v + a.n) for (u, v) in b.edges)
    return Graph(a.n + b.n, edges, a.labels + b.labels)


# ---------------------------------------------------------------------------
# metrics

def _neighbour_lists(g: Graph) -> list[list[int]]:
    """nbrs[u] holds u's neighbours in edge-id order."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def _bfs_layers(nbrs: list[list[int]], sources: Iterable[int]):
    """Breadth-first search over neighbour lists: yields the vertices at
    distance 0 (the sources), 1, 2, ... from `sources`, one list a layer,
    until no vertex is left to reach."""
    seen = set(sources)
    layer = list(seen)
    while layer:
        yield layer
        nxt = []
        for u in layer:
            for w in nbrs[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        layer = nxt


def distance(g: Graph, a: Iterable[int], b: Iterable[int]) -> float:
    """BFS distance (edge count) between two vertex sets; 0 if they
    intersect, INFINITY if disconnected.  The search stops at the first
    layer that meets b."""
    aset = set(a)
    bset = set(b)
    if not aset or not bset:
        raise GraphError("distance requires nonempty sets")
    for dist, layer in enumerate(_bfs_layers(_neighbour_lists(g), aset)):
        if not bset.isdisjoint(layer):
            return dist
    return INFINITY


def edge_distance(g: Graph, eids_a: Iterable[int], eids_b: Iterable[int]) -> float:
    return distance(g, g.edge_vertices(eids_a), g.edge_vertices(eids_b))


def far_edge_pairs(g: Graph, d: int) -> list[tuple[int, int]]:
    """The edge-id pairs (e, f), e < f, at `edge_distance` >= d, in
    `combinations` order.  Each vertex gets its ball of radius d - 1 (no
    ball for d <= 0), an int bitset over vertex ids grown over neighbour
    lists one radius at a time; f qualifies when the union of the balls
    of e's endpoints misses both of f's, so an f out of e's reach
    (distance INFINITY) qualifies too.  A connected graph with fewer than
    d + 3 vertices has no pair: a shortest path between the near ends of
    two edges at distance d has d + 1 vertices, and their far ends are
    two more."""
    if g.n < d + 3 and g.is_connected():
        return []
    nbrs = _neighbour_lists(g)
    ball = [1 << v for v in range(g.n)] if d > 0 else [0] * g.n
    for _ in range(min(d - 1, g.n)):
        grown = []
        for b, ws in zip(ball, nbrs):
            for w in ws:
                b |= ball[w]
            grown.append(b)
        ball = grown
    ends = [1 << u | 1 << v for u, v in g.edges]
    pairs = []
    for e, (u, v) in enumerate(g.edges):
        near = ball[u] | ball[v]
        pairs.extend((e, f) for f in range(e + 1, len(ends))
                     if not near & ends[f])
    return pairs


def girth(g: Graph) -> float:
    """Length of a shortest cycle; INFINITY for forests."""
    nbrs = _neighbour_lists(g)
    best = INFINITY
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        while queue:
            nq = []
            for u in queue:
                for w in nbrs[u]:
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
    edge_set: tuple[int, ...]     # one copy: its host edge ids, increasing


class _EmbedPlan:
    """The pattern side of `_embed` for one (pattern, conditions): the
    pattern degrees, its sorted neighbour lists, the roots by decreasing
    degree, each vertex's `below` and `above` condition partners, and the
    placement order of each pinned vertex tuple, grown the first time a
    start pins it.  Built once and kept in `Graph._embed_plans`."""

    def __init__(self, pattern: Graph, conditions: tuple[tuple[int, int], ...]):
        self.deg = pattern._degrees
        self.nbrs = [sorted(ws) for ws in _neighbour_lists(pattern)]
        self.roots = sorted(range(pattern.n), key=lambda v: -self.deg[v])
        self.below: list[list[int]] = [[] for _ in range(pattern.n)]
        self.above: list[list[int]] = [[] for _ in range(pattern.n)]
        for a, b in conditions:
            self.below[b].append(a)
            self.above[a].append(b)
        self.orders: dict[tuple[int, ...], list[int]] = {}

    def order(self, pinned: tuple[int, ...]) -> list[int]:
        """The pinned vertices, then the rest of the non-isolated ones in
        an order that grows along pattern edges, each later component
        from its vertex of largest degree."""
        order = self.orders.get(pinned)
        if order is not None:
            return order
        order, i = list(pinned), 0
        rest = iter(self.roots)
        while True:
            if i == len(order):
                root = next((r for r in rest if self.deg[r] and r not in order),
                            None)
                if root is None:
                    self.orders[pinned] = order
                    return order
                order.append(root)
            order += [w for w in self.nbrs[order[i]] if w not in order]
            i += 1


def _embed(adj: Sequence[int], pattern: Graph, starts: Iterable[dict],
           visit: Callable[[dict], bool],
           conditions: Sequence[tuple[int, int]] = (),
           deadline: Optional[float] = None) -> bool:
    """Backtracking search for embeddings of `pattern` into the host whose
    adjacency bitsets are `adj`.

    Each partial map in `starts` (pattern vertex -> host vertex) is
    extended to injective maps of every non-isolated pattern vertex that
    send pattern edges onto host edges and satisfy every condition
    `(a, b)` of `conditions` (none or `pattern.symmetry_conditions`):
    image[a] < image[b].  Vertices are placed in the order of the
    pattern's kept `_EmbedPlan`, grown from the pinned ones along pattern
    edges, and candidates are tried in increasing host vertex number
    (rank order on a `Graph.ranked` adjacency).  Candidates are cut by
    bitmasks (unused, adjacent to each placed neighbour's image, on the
    required side of a placed condition partner's image) and by degree,
    read from the candidate's own mask: a vertex of too low degree would
    fail anyway, but only after its pattern neighbours were placed in
    every order.  `visit(image)` is called on each full map; when it
    returns True the search stops and returns True.  It also stops and
    returns True when, before a candidate for the first unpinned vertex
    is tried, the clock (`time.monotonic`) is past `deadline`."""
    key = tuple(conditions)
    plan = pattern._embed_plans.get(key)
    if plan is None:
        plan = pattern._embed_plans[key] = _EmbedPlan(pattern, key)
    deg, nbrs, below, above = plan.deg, plan.nbrs, plan.below, plan.above
    full = (1 << len(adj)) - 1

    def extend(idx: int, used: int) -> bool:
        if idx == len(order):
            return visit(image)
        p = order[idx]
        cand = full & ~used
        for w in nbrs[p]:
            if w in image:
                cand &= adj[image[w]]
        for w in below[p]:
            if w in image:
                cand &= -2 << image[w]
        for w in above[p]:
            if w in image:
                cand &= (1 << image[w]) - 1
        timed, need = deadline is not None and idx == first, deg[p]
        while cand:
            hv = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if adj[hv].bit_count() < need:
                continue
            if timed and time.monotonic() > deadline:
                return True
            image[p] = hv
            if extend(idx + 1, used | 1 << hv):
                return True
            del image[p]
        return False

    for start in starts:
        order, image, first = plan.order(tuple(start)), dict(start), len(start)
        if extend(first, sum(1 << v for v in start.values())):
            return True
    return False


def _symmetry_conditions(pattern: Graph) -> list[tuple[int, int]]:
    """Conditions (a, b), read image[a] < image[b], that exactly one
    embedding of each copy of `pattern` meets (Grochow & Kellis,
    RECOMB 2007).  The embeddings of one copy differ by an automorphism
    of the pattern's non-isolated part; these come from one embedding of
    the pattern into itself.  While more than the identity is left, take
    the largest orbit (lowest vertex first on ties), require its lowest
    vertex to map below the rest of the orbit, and keep only the
    automorphisms that fix that vertex.  Computed once per pattern, as
    `Graph.symmetry_conditions`."""
    auts: list[dict[int, int]] = []
    _embed(_bitsets(pattern.n, pattern.edges), pattern, [{}],
           lambda image: auts.append(dict(image)))
    conditions: list[tuple[int, int]] = []
    while len(auts) > 1:
        orbit = {v: {a[v] for a in auts} for v in auts[0]}
        v = max(orbit, key=lambda u: (len(orbit[u]), -u))
        conditions += [(v, w) for w in sorted(orbit[v]) if w != v]
        auts = [a for a in auts if a[v] == v]
    return conditions


def enumerate_copies(host: Graph, pattern: Graph,
                     deadline: Optional[float] = None
                     ) -> Optional[list[Embedding]]:
    """All distinct copies of `pattern` in `host`.  A copy is its host
    edge ids in increasing order (isolated pattern vertices are ignored),
    and the copies come in increasing order, the order the search
    branches in.  The search runs on `host.ranked`, the host relabelled
    by increasing degree, so the symmetry conditions root each copy at
    its lowest-degree vertex and the few high-degree vertices are placed
    last (Chiba & Nishizeki, SIAM J. Comput. 1985).  It meets
    `pattern.symmetry_conditions`, so it finds each copy exactly once; a
    second visit of one edge set is a bug and raises InternalError.  The
    pattern side of the search (`_EmbedPlan`) is built on the pattern's
    first enumeration and kept on it, so a later call sets up only the
    host side.  None if the clock (`time.monotonic`) passes `deadline`
    first.  In the package, `arrowing.ArrowInstance.create` is its one
    caller: every copy list comes from an instance."""
    if pattern.num_edges == 0:
        raise GraphError("pattern must have at least one edge")
    order, adj = host.ranked
    index = host._edge_index
    found: list[tuple[int, ...]] = []

    def visit(image: dict) -> bool:
        ends = [(order[image[u]], order[image[v]]) for u, v in pattern.edges]
        found.append(tuple(sorted([index[(a, b) if a < b else (b, a)]
                                   for a, b in ends])))
        return False

    if _embed(adj, pattern, [{}], visit, pattern.symmetry_conditions,
              deadline):
        return None
    found.sort()
    if any(a == b for a, b in zip(found, islice(found, 1, None))):
        raise InternalError("symmetry breaking let a copy through twice")
    return [Embedding(ids) for ids in found]


def graphs_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test for small graphs.  Isolated vertices count.
    With equal orders, sizes and degree sequences, any embedding of a's
    edges into b maps them onto b's edges, so it is an isomorphism.  The
    search runs on `b.ranked`: isomorphism does not depend on the
    labelling."""
    if a.n != b.n or a.num_edges != b.num_edges:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    return a.num_edges == 0 or _embed(b.ranked[1], a, [{}], lambda image: True)


# ---------------------------------------------------------------------------
# composition

@dataclass(frozen=True)
class ComposeResult:
    vertex_map: tuple[int, ...]   # gadget vertex -> host vertex
    edge_map: tuple[int, ...]     # gadget edge id -> host edge id
    graph: Optional[Graph] = None  # None from a builder, which builds on read


class _GraphDraft:
    """A graph under construction: append-only edge and label lists and
    the (u, v) -> edge id index.  `compose` and `add_edges` check their
    input before they append anything, so a failed step leaves the draft
    as it was.  `graph` builds the immutable Graph once, on the first
    read after the last append."""

    def __init__(self, base: Graph):
        self.edges = list(base.edges)
        self.labels = list(base.labels)
        self._edge_index = dict(base._edge_index)
        self._named = {lab for lab in base.labels if lab is not None}
        self._graph: Optional[Graph] = base

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def graph(self) -> Graph:
        if self._graph is None:
            self._graph = Graph(self.n, tuple(self.edges), tuple(self.labels))
        return self._graph

    def _append(self, edges: list[tuple[int, int]]):
        m = len(self.edges)
        self._edge_index.update(zip(edges, range(m, m + len(edges))))
        self.edges += edges
        self._graph = None

    def compose(self, gadget: Graph, identification: Mapping[int, int],
                label_prefix: Optional[str] = None) -> ComposeResult:
        """Append `gadget`, identifying the mapped gadget vertices with
        draft vertices; see `compose`."""
        n, index, m = self.n, self._edge_index, len(self.edges)
        ident = dict(identification)
        if len(set(ident.values())) != len(ident):
            raise ComposeError("identification collapses two gadget vertices")
        for gv, hv in ident.items():
            if not (0 <= gv < gadget.n) or not (0 <= hv < n):
                raise ComposeError(f"identification {gv}->{hv} out of range")

        vmap, new_labels = [], []
        for gv, lab in enumerate(gadget.labels):
            hv = ident.get(gv)
            if hv is None:
                hv = n + len(new_labels)
                if lab is not None and label_prefix is not None:
                    lab = f"{label_prefix}{lab}"
                new_labels.append(lab)
            vmap.append(hv)
        named = [lab for lab in new_labels if lab is not None]
        if len(set(named)) != len(named) or not self._named.isdisjoint(named):
            raise GraphError("composition repeats a vertex label")

        # identified vertices map below n and new ones to n and above, so
        # an edge is an interface edge exactly when both images are below n
        emap, new_edges = [], []
        for gu, gv in gadget.edges:
            a, b = vmap[gu], vmap[gv]
            e = (a, b) if a < b else (b, a)
            if a < n and b < n:
                eid = index.get(e)
                if eid is None:
                    raise ComposeError(f"interface edge ({gu},{gv}) maps onto "
                                       f"host non-edge {e}")
                emap.append(eid)
            else:
                emap.append(m + len(new_edges))
                new_edges.append(e)

        self.labels += new_labels
        self._named.update(named)
        self._append(new_edges)
        return ComposeResult(tuple(vmap), tuple(emap))

    def add_edges(self, pairs: Iterable[tuple[int, int]]) -> list[int]:
        """Append edges between existing vertices; returns their ids."""
        n, new = self.n, {}
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ComposeError(f"edge ({u},{v}) out of range")
            e = _norm_edge(u, v)
            if e in self._edge_index or e in new:
                raise ComposeError(f"edge ({u},{v}) already present")
            new[e] = None
        first = len(self.edges)
        self._append(list(new))
        return list(range(first, len(self.edges)))


def compose(host: Graph, gadget: Graph,
            identification: Mapping[int, int],
            label_prefix: Optional[str] = None) -> ComposeResult:
    """Disjoint union of host and gadget, then identify the mapped gadget
    vertices with host vertices.

    Every gadget edge whose endpoints are both identified must land on an
    existing host edge (the interfaces are edges or subgraphs, never new
    host-internal edges).  Edge ids: host edges keep their ids; new gadget
    edges are appended in gadget edge order.  New gadget vertices keep
    their labels, behind `label_prefix` if one is given.  One-shot form
    of `manifest.ManifestBuilder.compose`, which appends many gadgets
    and builds the graph once.
    """
    draft = _GraphDraft(host)
    res = draft.compose(gadget, identification, label_prefix)
    return replace(res, graph=draft.graph)
