"""Ground-truth checks that do not use the library under test.

Everything here works on plain data (vertex counts, edge tuples, dicts
of edge colors), so a bug in the library's copy enumeration or search
cannot hide a wrong answer.  Known facts used as ground truth:

- Greenwood and Gleason 1955: R(3,3) = 6, R(3,3,3) = 17, R(4,4) = 18.
- Chvatal and Harary 1972: R(C4,C4) = 6.  Bondy and Erdos 1973:
  R(Cn,Cn) = 2n - 1 for odd n >= 5, so R(C5,C5) = 9.
- For 2 colors and the path with 2 edges (the star K1,2), a graph is
  forced iff it has a vertex of degree >= 3 or an odd cycle: otherwise
  a proper 2-edge-coloring exists, and one always exists then.
- The 2-color star predicate: K1,m is forced iff the maximum degree is
  >= 2m-1, or m is even and the graph is (2m-2)-regular on an odd
  number of vertices.
"""

from __future__ import annotations

import itertools
import zlib
from collections import deque
from typing import Optional, Sequence

Edges = Sequence[tuple[int, int]]


class WrongResult(Exception):
    """The library returned an answer that contradicts ground truth."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise WrongResult(message)


def digest(data) -> int:
    """Stable checksum of a JSON-like value, for repeatability checks."""
    return zlib.crc32(repr(data).encode())


def adjacency(n: int, edges: Edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def degrees(n: int, edges: Edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def find_subgraph(adj: list[set[int]], target_n: int,
                  target_edges: Edges) -> Optional[dict[int, int]]:
    """A (not necessarily induced) copy of the target in the graph given
    by `adj`, as a target-vertex -> host-vertex map, or None."""
    tadj = adjacency(target_n, target_edges)
    order: list[int] = []
    for start in sorted(range(target_n), key=lambda v: -len(tadj[v])):
        if start in order or not tadj[start]:
            continue
        queue = deque([start])
        order.append(start)
        while queue:
            v = queue.popleft()
            for w in sorted(tadj[v]):
                if w not in order:
                    order.append(w)
                    queue.append(w)
    need = [len(tadj[v]) for v in range(target_n)]
    image: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        p = order[i]
        placed = [image[w] for w in tadj[p] if w in image]
        if placed:
            cands = set(adj[placed[0]])
            for hv in placed[1:]:
                cands &= adj[hv]
        else:
            cands = set(range(len(adj)))
        for hv in sorted(cands - used):
            if len(adj[hv]) < need[p]:
                continue
            image[p] = hv
            used.add(hv)
            if extend(i + 1):
                return True
            del image[p]
            used.discard(hv)
        return False

    return dict(image) if extend(0) else None


def mono_copy(n: int, edges: Edges, coloring: dict[int, int], q: int,
              target_n: int, target_edges: Edges) -> Optional[int]:
    """The first color whose class contains a target copy, or None."""
    for c in range(1, q + 1):
        cls = [edges[e] for e, col in coloring.items() if col == c]
        if len(cls) < len(target_edges):
            continue
        if find_subgraph(adjacency(n, cls), target_n, target_edges) is not None:
            return c
    return None


def check_free_coloring(n: int, edges: Edges, coloring: dict[int, int],
                        q: int, target_n: int, target_edges: Edges,
                        partial: Optional[dict[int, int]] = None) -> None:
    """A total q-coloring with no monochromatic target copy that keeps
    the colors of `partial`."""
    require(set(coloring) == set(range(len(edges))), "witness is not total")
    require(all(1 <= c <= q for c in coloring.values()),
            "witness uses a color out of range")
    for e, c in (partial or {}).items():
        require(coloring[e] == c, f"witness recolors fixed edge {e}")
    color = mono_copy(n, edges, coloring, q, target_n, target_edges)
    require(color is None, f"witness has a monochromatic copy in color {color}")


def is_bipartite(n: int, edges: Edges) -> bool:
    adj = adjacency(n, edges)
    side = [-1] * n
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if side[w] < 0:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def p3_forced_2(n: int, edges: Edges) -> bool:
    return max(degrees(n, edges), default=0) >= 3 or not is_bipartite(n, edges)


def star_forced_2(n: int, edges: Edges, m: int) -> bool:
    deg = degrees(n, edges)
    if max(deg, default=0) >= 2 * m - 1:
        return True
    return m % 2 == 0 and n % 2 == 1 and all(d == 2 * m - 2 for d in deg)


def is_complete(n: int, edges: Edges) -> bool:
    return len(set(edges)) == n * (n - 1) // 2


def is_star(n: int, edges: Edges, leaves: int) -> bool:
    deg = sorted(d for d in degrees(n, edges) if d > 0)
    return len(edges) == leaves and deg == [1] * leaves + [leaves]


def edge_distance(n: int, edges: Edges, e: int, f: int) -> float:
    """BFS distance between the endpoint sets of edges e and f."""
    adj = adjacency(n, edges)
    src, dst = set(edges[e]), set(edges[f])
    if src & dst:
        return 0
    dist = {v: 0 for v in src}
    queue = deque(src)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                if w in dst:
                    return dist[w]
                queue.append(w)
    return float("inf")


def free_colorings(n: int, edges: Edges, q: int, target_n: int,
                   target_edges: Edges):
    """All q-colorings (as color tuples) with no monochromatic target
    copy, by brute force over q^m colorings; for a dozen edges or so."""
    require(len(edges) <= 14, "brute force needs at most 14 edges")
    for colors in itertools.product(range(1, q + 1), repeat=len(edges)):
        if mono_copy(n, edges, dict(enumerate(colors)), q, target_n,
                     target_edges) is None:
            yield colors


def arrows_brute(n: int, edges: Edges, q: int, target_n: int,
                 target_edges: Edges) -> bool:
    return next(free_colorings(n, edges, q, target_n, target_edges), None) is None


def is_sender(free: list[tuple[int, ...]], e: int, f: int,
              positive: bool) -> bool:
    """Given all target-free colorings: one exists, and every one gives
    e and f equal colors (positive) or different colors (negative)."""
    return bool(free) and all((c[e] == c[f]) == positive for c in free)


def no_free_extension(n: int, edges: Edges, partial: dict[int, int],
                      t: int, q: int) -> bool:
    """The uncolored edges form a star at one new vertex x; every way to
    color them closes a monochromatic t-clique through x."""
    free = [edges[e] for e in range(len(edges)) if e not in partial]
    centers = set(free[0]).intersection(*map(set, free))
    require(len(centers) == 1, "uncolored edges do not form a star")
    x = centers.pop()
    old = sorted({v for uv in free for v in uv} - {x})
    pair_color = {edges[e]: c for e, c in partial.items()}
    mono_sets = []
    for subset in itertools.combinations(old, t - 1):
        colors = {pair_color[(min(a, b), max(a, b))]
                  for a, b in itertools.combinations(subset, 2)}
        if len(colors) == 1:
            mono_sets.append((subset, colors.pop()))
    pos = {v: i for i, v in enumerate(old)}
    for assign in itertools.product(range(1, q + 1), repeat=len(old)):
        if not any(all(assign[pos[v]] == c for v in subset)
                   for subset, c in mono_sets):
            return False
    return True


def cycle_copies(n: int, edges: Edges, k: int) -> set[frozenset[int]]:
    """All k-cycles as edge-id sets: simple paths from their smallest
    vertex, closed back to it."""
    adj = adjacency(n, edges)
    eid = {}
    for i, (u, v) in enumerate(edges):
        eid[(u, v)] = eid[(v, u)] = i
    found: set[frozenset[int]] = set()
    for s in range(n):
        stack = [(s, (s,))]
        while stack:
            v, path = stack.pop()
            if len(path) == k:
                if s in adj[v]:
                    ids = [eid[(a, b)] for a, b in zip(path, path[1:])]
                    found.add(frozenset(ids + [eid[(v, s)]]))
                continue
            for w in adj[v]:
                if w > s and w not in path:
                    stack.append((w, path + (w,)))
    return found
