"""Application constructions on top of pattern gadgets.

Builds the abundance recipes (many minimum-degree vertices in one
minimal Ramsey graph) for long cycles, cliques with a pendant edge, and
targets supplied via a seed graph, plus the sender-free verifiable
pieces: the recursive clique coloring ladder, the star arrowing
predicate, the degree-one counting check, and the pendant-cycle example
for the 3-edge path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .arrowing import (ARROWS, DOES_NOT_ARROW, MINIMAL, NO_BUDGET, UNKNOWN,
                       ArrowInstance, Budget, arrows, extendable, is_minimal)
from .coloring import EXACT, ColorPattern, EdgeColoring, PatternFamily, pattern_of
from .gadgets import (NEGATIVE, POSITIVE, PatternGadgetSpec, SenderProvider,
                      _attach_sender, _worst_status, build_pattern_gadget)
from .graph import (Graph, GraphError, InternalError, clique_with_pendant,
                    complete_graph, cycle_graph, disjoint_union, distance,
                    enumerate_copies, from_edges, graphs_isomorphic,
                    is_k_connected, matching_graph, path_graph, single_edge,
                    star_graph)
from .manifest import ConstructionManifest, ManifestBuilder


# ---------------------------------------------------------------------------
# clique coloring ladder

_MAX_LADDER_ORDER = 512


def _ladder_order(q: int, t: int) -> int:
    if q < 2 or t < 3:
        raise GraphError("ladder needs q >= 2 and clique size >= 3")
    n = (t - 1) ** q
    if n > _MAX_LADDER_ORDER:
        raise GraphError(
            f"ladder order {n} exceeds the materialization cap {_MAX_LADDER_ORDER}")
    return n


def _phi_map(q: int, t: int) -> dict[tuple[int, int], int]:
    """Blocked coloring of the complete graph on (t-1)^q vertices:
    recursive inside each of t-1 equal blocks, color q between blocks."""
    n = (t - 1) ** q
    size = (t - 1) ** (q - 1)
    inner = _phi_map(q - 1, t) if q > 2 else {}
    out = {}
    for u in range(n):
        for w in range(u + 1, n):
            if u // size != w // size:
                out[(u, w)] = q
            elif q == 2:
                out[(u, w)] = 1
            else:
                off = (u // size) * size
                out[(u, w)] = inner[(u - off, w - off)]
    return out


def _psi_map(q: int, t: int) -> dict[tuple[int, int], int]:
    """Clique-free coloring of the complete graph on (t-1)^q + 1
    vertices; the last vertex is the extra one."""
    n = (t - 1) ** q
    size = (t - 1) ** (q - 1)
    v = n
    if q == 2:
        out = dict(_phi_map(2, t))
        # one marked vertex per block (its first); the edge between the
        # first two marked vertices flips to color 1, the extra vertex
        # sees the marked vertices in color 2 and everything else in 1
        out[(0, size)] = 1
        marked = {i * size for i in range(t - 1)}
        for w in range(n):
            out[(w, v)] = 2 if w in marked else 1
        return out
    inner = _psi_map(q - 1, t)
    out = {}
    for i in range(t - 1):
        off = i * size
        for u in range(size):
            for w in range(u + 1, size):
                out[(off + u, off + w)] = inner[(u, w)]
            out[(off + u, v)] = inner[(u, size)]
    for u in range(n):
        for w in range(u + 1, n):
            if u // size != w // size:
                out[(u, w)] = q
    return out


def phi_coloring(q: int, t: int) -> EdgeColoring:
    """Total q-coloring of the complete graph on (t-1)^q vertices that
    avoids monochromatic t-cliques but admits no clique-free extension
    by one more dominating vertex."""
    n = _ladder_order(q, t)
    kn = complete_graph(n)
    cmap = _phi_map(q, t)
    return EdgeColoring.from_map(q, {kn.edge_id(u, w): c
                                     for (u, w), c in cmap.items()})


def psi_coloring(q: int, t: int) -> EdgeColoring:
    """Clique-free total q-coloring of the complete graph on
    (t-1)^q + 1 vertices."""
    n = _ladder_order(q, t)
    kn = complete_graph(n + 1)
    cmap = _psi_map(q, t)
    return EdgeColoring.from_map(q, {kn.edge_id(u, w): c
                                     for (u, w), c in cmap.items()})


@dataclass(frozen=True)
class CliqueLadder:
    t: int
    q: int
    n_q: int
    phi: EdgeColoring       # on the complete graph with n_q vertices
    psi: EdgeColoring       # on the complete graph with n_q + 1 vertices


def clique_ladder(q: int, t: int) -> CliqueLadder:
    return CliqueLadder(t, q, _ladder_order(q, t),
                        phi_coloring(q, t), psi_coloring(q, t))


# ---------------------------------------------------------------------------
# stars

def star_arrow_predicate(g: Graph, m: int) -> bool:
    """Closed-form arrowing test for 2 colors and a star target with m
    leaves: max degree at least 2m-1, or m even and g (2m-2)-regular on
    an odd number of vertices."""
    if m < 1:
        raise GraphError("star needs at least one leaf")
    if not g.is_connected():
        raise GraphError("predicate applies to connected graphs only")
    degs = g.degrees()
    if degs and max(degs) >= 2 * m - 1:
        return True
    return m % 2 == 0 and g.n % 2 == 1 and \
        all(d == 2 * m - 2 for d in degs)


def star_degree_one_count_check(g: Graph, m: int, q: int = 2,
                                budget: Budget = NO_BUDGET) -> bool:
    """For a minimal graph arrowing the m-leaf star, the number of
    degree-one vertices must be 0 or q(m-1)+1."""
    res = is_minimal(g, star_graph(m), q, budget)
    if res.verdict != MINIMAL:
        raise GraphError(
            f"input must be minimal for the star target ({res.verdict}: {res.detail})")
    ones = g.degrees().count(1)
    return ones in (0, q * (m - 1) + 1)


def p4_abundant(k: int) -> Graph:
    """Odd cycle of length k with a distinct pendant edge at every
    cycle vertex, so k degree-one vertices; minimal for the 3-edge path
    with 2 colors for odd k >= 5.  k = 3 builds but does not arrow the
    3-edge path: color the triangle with color 1 and the pendant
    matching with color 2."""
    if k < 3 or k % 2 == 0:
        raise GraphError("needs an odd cycle length of at least 3")
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return from_edges(2 * k, edges)


# ---------------------------------------------------------------------------
# abundance recipes

@dataclass
class AbundanceRecipe:
    """A pattern gadget over k disjoint base blocks, plus one low-degree
    vertex attached to each block's interface set."""
    h: Graph
    q: int
    k: int
    graph: Graph
    base: Graph                                  # one block, local coordinates
    block_vertices: tuple[tuple[int, ...], ...]  # host vertices per block
    w_sets: tuple[tuple[int, ...], ...]          # interface vertices per block
    v_vertices: tuple[int, ...]                  # the added low-degree vertices
    attachment_edges: tuple[tuple[int, ...], ...]
    expected_degree: int
    family: PatternFamily
    gadget: PatternGadgetSpec
    manifest: ConstructionManifest
    extras: dict = field(default_factory=dict)

    def degrees_ok(self) -> bool:
        return all(self.graph.degree(v) == self.expected_degree
                   for v in self.v_vertices)

    def to_json(self) -> dict:
        return {
            "kind": "abundance_recipe",
            "target": self.h.to_json(),
            "q": self.q,
            "k": self.k,
            "graph": self.graph.to_json(),
            "vertices": self.graph.n,
            "edges": self.graph.num_edges,
            "low_degree_vertices": list(self.v_vertices),
            "expected_degree": self.expected_degree,
            "degrees_ok": self.degrees_ok(),
            "family_size": len(self.family),
            "senders_status": self.gadget.senders_status,
            "gadget_status": self.gadget.status,
        }


def _blocks_graph(base: Graph, k: int) -> Graph:
    g = base
    for _ in range(k - 1):
        g = disjoint_union(g, base)
    return g


def _block_pattern(g: Graph, base_m: int, k: int, i: int,
                   special: ColorPattern, other: ColorPattern) -> ColorPattern:
    """Pattern of the k-block graph: block i colored per `special`,
    every other block per `other`."""
    classes = []
    for c in range(special.q):
        cls: set[int] = set()
        for b in range(k):
            src = special if b == i else other
            cls |= {e + b * base_m for e in src.classes[c]}
        classes.append(frozenset(cls))
    return ColorPattern(g, tuple(classes))


def _attach_low_degree_vertex(builder: ManifestBuilder, w_hosts, tag: str,
                              note: str):
    """New vertex joined to each host vertex in w_hosts; returns
    (vertex, edge ids in w_hosts order)."""
    star = star_graph(len(w_hosts)).relabel({0: "v"})
    res = builder.compose(star, {j + 1: hv for j, hv in enumerate(w_hosts)},
                          label_prefix=tag, note=note)
    return res.vertex_map[0], tuple(res.edge_map)


def _cycle_base(q: int, t: int):
    """Hub set of q+1 vertices; q internally disjoint paths of length
    t-2 between every hub pair.  Returns the graph and, per hub pair,
    the edge-id list of each path."""
    hubs = q + 1
    edges: list[tuple[int, int]] = []
    n = hubs
    pair_paths = []
    for (u, w) in combinations(range(hubs), 2):
        per_pair = []
        for _ in range(q):
            chain = [u] + list(range(n, n + t - 3)) + [w]
            n += t - 3
            eids = []
            for a, b in zip(chain, chain[1:]):
                eids.append(len(edges))
                edges.append((a, b))
            per_pair.append(eids)
        pair_paths.append(per_pair)
    return from_edges(n, edges), pair_paths


def _cycle_patterns(q: int, f: Graph, pair_paths):
    """Two cycle-free patterns of the hub-path base: in the first every
    hub-to-hub path is monochromatic with the q paths of a pair using q
    distinct colors; in the second no path is monochromatic (its first
    edge differs from the rest)."""
    c1: dict[int, int] = {}
    c2: dict[int, int] = {}
    for per_pair in pair_paths:
        for j, eids in enumerate(per_pair):
            for e in eids:
                c1[e] = j + 1
            c2[eids[0]] = (j + 1) % q + 1
            for e in eids[1:]:
                c2[e] = j % q + 1
    f1 = pattern_of(f, EdgeColoring.from_map(q, c1))
    f2 = pattern_of(f, EdgeColoring.from_map(q, c2))
    return f1, f2


def build_cycle_abundant(q: int, t: int, k: int, provider: SenderProvider,
                         d: Optional[int] = None, check_base: bool = True,
                         budget: Budget = NO_BUDGET) -> AbundanceRecipe:
    if q < 2 or k < 1:
        raise GraphError("need q >= 2 and k >= 1")
    if t < 4:
        raise GraphError(
            "triangles behave like larger cliques, not long cycles; "
            "use the seeded builder instead (cycle length must be >= 4)")
    h = cycle_graph(t)
    f, pair_paths = _cycle_base(q, t)
    f1, f2 = _cycle_patterns(q, f, pair_paths)
    for p in (f1, f2):
        if not p.is_h_free(h):
            raise InternalError("base pattern is not target-free")

    g = _blocks_graph(f, k)
    members = tuple(_block_pattern(g, f.num_edges, k, i, f1, f2)
                    for i in range(k))
    family = PatternFamily(g, members, EXACT)
    gadget = build_pattern_gadget(h, g, family, q, provider, d,
                                  check_base=check_base, budget=budget)

    builder = ManifestBuilder.resume(gadget.graph, gadget.manifest)
    blocks, w_sets, v_vertices, attach = [], [], [], []
    for i in range(k):
        off = i * f.n
        blocks.append(tuple(range(off, off + f.n)))
        wset = tuple(off + wv for wv in range(q + 1))
        w_sets.append(wset)
        v, eids = _attach_low_degree_vertex(
            builder, wset, f"b{i + 1}.",
            note=f"degree-{q + 1} vertex for block {i + 1}")
        v_vertices.append(v)
        attach.append(eids)

    return AbundanceRecipe(h, q, k, builder.graph, f, tuple(blocks),
                           tuple(w_sets), tuple(v_vertices), tuple(attach),
                           q + 1, family, gadget, builder.manifest)


def build_ktk2_abundant(t: int, k: int, provider: SenderProvider,
                        d: Optional[int] = None, check_base: bool = True,
                        budget: Budget = NO_BUDGET) -> AbundanceRecipe:
    """Clique-with-pendant target, 2 colors only."""
    if t < 3 or k < 1:
        raise GraphError("need clique size >= 3 and k >= 1")
    q = 2
    h = clique_with_pendant(t)
    f = _blocks_graph(complete_graph(t), t - 1)
    clique_m = t * (t - 1) // 2
    # all edges color 1 / one off-color edge per clique so neither class
    # holds a full clique
    c1 = {e: 1 for e in range(f.num_edges)}
    c2 = dict(c1)
    for c in range(t - 1):
        c2[c * clique_m] = 2
    f1 = pattern_of(f, EdgeColoring.from_map(q, c1))
    f2 = pattern_of(f, EdgeColoring.from_map(q, c2))
    for p in (f1, f2):
        if not p.is_h_free(h):
            raise InternalError("base pattern is not target-free")

    g = _blocks_graph(f, k)
    if enumerate_copies(g, h):
        raise InternalError("block graph contains the target")
    members = tuple(_block_pattern(g, f.num_edges, k, i, f1, f2)
                    for i in range(k))
    family = PatternFamily(g, members, EXACT)
    gadget = build_pattern_gadget(h, g, family, q, provider, d,
                                  check_base=check_base, budget=budget)

    builder = ManifestBuilder.resume(gadget.graph, gadget.manifest)
    blocks, w_sets, v_vertices, attach = [], [], [], []
    pendants, clique_edges = [], []
    for i in range(k):
        off = i * f.n
        blocks.append(tuple(range(off, off + f.n)))
        # one marked vertex (the first) per clique of the block
        wset = tuple(off + c * t for c in range(t - 1))
        w_sets.append(wset)
        v, eids = _attach_low_degree_vertex(
            builder, wset, f"b{i + 1}.",
            note=f"degree-{t - 1} vertex for block {i + 1}")
        v_vertices.append(v)
        attach.append(eids)
        clique_edges.append(tuple(builder.add_edges(
            [(wset[a], wset[b]) for a, b in combinations(range(t - 1), 2)],
            note=f"clique on the interface set of block {i + 1}")))
        res = builder.compose(single_edge(), {0: wset[0]},
                              label_prefix=f"b{i + 1}.p",
                              note=f"pendant edge for block {i + 1}")
        pendants.append(res.edge_map[0])

    return AbundanceRecipe(
        h, q, k, builder.graph, f, tuple(blocks), tuple(w_sets),
        tuple(v_vertices), tuple(attach), t - 1, family, gadget,
        builder.manifest,
        extras={"pendant_edges": tuple(pendants),
                "interface_clique_edges": tuple(clique_edges)})


# ---------------------------------------------------------------------------
# seeded recipes for arbitrary targets

@dataclass
class ThreeConnectedSeed:
    """A graph that forces the target, with a marked vertex and a marked
    edge whose individual removal breaks the forcing, and which never
    appear together in one copy of the target."""
    f: Graph
    v: int
    e: int
    h: Graph
    q: int
    flags: dict = field(default_factory=dict)


def default_three_connected_seed() -> ThreeConnectedSeed:
    """Desk-scale seed: the 5-cycle forces a monochromatic 2-edge path
    with 2 colors, any single edge removal breaks that."""
    f = cycle_graph(5)
    return ThreeConnectedSeed(f, 0, f.edge_id(2, 3), path_graph(3), 2)


def _delete_keeping_ids(g: Graph, drop: set[int]):
    """Delete edges; returns the subgraph and the original id of each
    remaining local edge, in order."""
    keep = [e for e in range(g.num_edges) if e not in drop]
    return g.delete_edges(drop), keep


def check_seed(seed: ThreeConnectedSeed,
               budget: Budget = NO_BUDGET) -> dict:
    """Verify the four seed conditions with the search engine; raises a
    named error on the first failure, returns the found colorings
    (in seed edge ids) keyed by the deleted edge."""
    f, hv, he, h, q = seed.f, seed.v, seed.e, seed.h, seed.q
    if not (0 <= hv < f.n) or not (0 <= he < f.num_edges):
        raise GraphError("marked vertex or edge out of range")
    if hv in f.edges[he]:
        raise GraphError("the marked edge must not touch the marked vertex")

    res = arrows(ArrowInstance.create(f, h, q, budget))
    seed.flags["F1"] = res.verdict
    if res.verdict == UNKNOWN:
        raise GraphError("condition F1 undecided within budget")
    if res.verdict != ARROWS:
        raise GraphError("condition F1 fails: the seed graph does not "
                         "force the target")

    for emb in enumerate_copies(f, h):
        verts = {w for eid in emb.edge_set for w in f.edges[eid]}
        if he in emb.edge_set and hv in verts:
            raise GraphError("condition F2 fails: the marked vertex and "
                             "edge share a copy of the target")
    seed.flags["F2"] = "pass"

    witnesses: dict[int, dict[int, int]] = {}
    g_edges = [eid for eid in range(f.num_edges) if hv in f.edges[eid]]
    for name, drops in (("F3", [he]), ("F4", g_edges)):
        for eid in drops:
            sub, keep = _delete_keeping_ids(f, {eid})
            res = arrows(ArrowInstance.create(sub, h, q, budget))
            if res.verdict == UNKNOWN:
                raise GraphError(f"condition {name} undecided within budget")
            if res.verdict != DOES_NOT_ARROW:
                raise GraphError(
                    f"condition {name} fails: removing edge {eid} still "
                    "forces the target")
            local = res.witness.as_dict()
            witnesses[eid] = {keep[j]: c for j, c in local.items()}
        seed.flags[name] = "pass"
    return witnesses


def build_3connected_abundant(seed: ThreeConnectedSeed, k: int,
                              provider: SenderProvider,
                              d: Optional[int] = None,
                              check_base: bool = True,
                              budget: Budget = NO_BUDGET) -> AbundanceRecipe:
    if k < 1:
        raise GraphError("need k >= 1")
    f, hv, he, h, q = seed.f, seed.v, seed.e, seed.h, seed.q
    witnesses = check_seed(seed, budget)

    g_edges = [eid for eid in range(f.num_edges) if hv in f.edges[eid]]
    drop = set(g_edges) | {he}
    keep = [eid for eid in range(f.num_edges) if eid not in drop]
    verts = [w for w in range(f.n) if w != hv]
    pos = {w: i for i, w in enumerate(verts)}
    fprime = from_edges(
        f.n - 1, [(pos[a], pos[b]) for (a, b) in (f.edges[e] for e in keep)])

    def local_pattern(colors_by_seed_eid: dict[int, int]) -> ColorPattern:
        return pattern_of(fprime, EdgeColoring.from_map(
            q, {j: colors_by_seed_eid[keep[j]] for j in range(len(keep))}))

    # a per-edge coloring survives removing its own edge plus the marked
    # one, but never the marked one alone; re-verify both claims
    specials = []
    for g_eid in g_edges:
        part_seed = {eid: witnesses[g_eid][eid] for eid in keep}
        for drops, expect in (({he, g_eid}, True), ({he}, False)):
            sub, sub_keep = _delete_keeping_ids(f, drops)
            back = {orig: j for j, orig in enumerate(sub_keep)}
            partial = EdgeColoring.from_map(
                q, {back[eid]: c for eid, c in part_seed.items()})
            ext = extendable(sub, partial, h, q, budget)
            if ext.verdict == UNKNOWN:
                raise GraphError("extension re-check undecided within budget")
            if ext.extendable != expect:
                raise InternalError(
                    "derived coloring fails its extension "
                    f"contract for edge {g_eid}")
        specials.append(local_pattern(part_seed))
    f2 = local_pattern({eid: witnesses[he][eid] for eid in keep})

    g = _blocks_graph(fprime, k)
    members = tuple(_block_pattern(g, fprime.num_edges, k, i, sp, f2)
                    for i in range(k) for sp in specials)
    family = PatternFamily(g, members, EXACT)
    gadget = build_pattern_gadget(h, g, family, q, provider, d,
                                  check_base=check_base, budget=budget)

    deg = len(g_edges)
    builder = ManifestBuilder.resume(gadget.graph, gadget.manifest)
    blocks, w_sets, v_vertices, attach = [], [], [], []
    for i in range(k):
        off = i * fprime.n
        blocks.append(tuple(range(off, off + fprime.n)))
        # attachment order follows the seed's edge order at the marked
        # vertex, so attachment_edges[i][j] represents g_edges[j]
        w_hosts = []
        for g_eid in g_edges:
            a, b = f.edges[g_eid]
            other = b if a == hv else a
            w_hosts.append(off + pos[other])
        w_sets.append(tuple(sorted(w_hosts)))
        v, eids = _attach_low_degree_vertex(
            builder, w_hosts, f"b{i + 1}.",
            note=f"degree-{deg} vertex for block {i + 1}")
        v_vertices.append(v)
        attach.append(eids)

    return AbundanceRecipe(
        h, q, k, builder.graph, fprime, tuple(blocks), tuple(w_sets),
        tuple(v_vertices), tuple(attach), deg, family, gadget,
        builder.manifest,
        extras={"seed_flags": dict(seed.flags),
                "target_hypothesis_ok":
                    is_k_connected(h, 3) or graphs_isomorphic(h, complete_graph(3)),
                "expected_family_size": k * deg})


# ---------------------------------------------------------------------------
# clique construction with one low-degree vertex

@dataclass
class CliqueGtildeSpec:
    graph: Graph
    t: int
    q: int
    base_vertices: tuple[int, ...]
    base_pattern: ColorPattern
    m_eids: tuple[int, ...]
    v: int
    senders_status: str
    counts: dict
    manifest: ConstructionManifest
    optimal_base: bool = False      # base size is an upper-bound witness only

    def to_json(self) -> dict:
        return {
            "kind": "clique_construction",
            "t": self.t, "q": self.q,
            "graph": self.graph.to_json(),
            "vertices": self.graph.n,
            "edges": self.graph.num_edges,
            "low_degree_vertex": self.v,
            "degree": self.graph.degree(self.v),
            "matching_edges": list(self.m_eids),
            "senders_status": self.senders_status,
            "counts": self.counts,
            "optimal_base": self.optimal_base,
        }


def build_clique_gtilde(t: int, q: int, provider: SenderProvider,
                        base_pattern: Optional[ColorPattern] = None,
                        d: Optional[int] = None) -> CliqueGtildeSpec:
    """Complete-graph base with a clique-free pattern, one signal edge
    per color tied to its class by positive senders, pairwise negative
    senders between the signal edges, and a new vertex joined to the
    whole base."""
    if t < 3 or q < 2:
        raise GraphError("need clique size >= 3 and q >= 2")
    if d is None:
        d = t + 1
    if d <= t:
        raise GraphError("distance parameter must exceed the clique size")
    if base_pattern is None:
        base = complete_graph(_ladder_order(q, t))
        base_pattern = pattern_of(base, phi_coloring(q, t))
    else:
        base = base_pattern.graph
        if base_pattern.q != q:
            raise GraphError("base pattern has wrong color count")
    h = complete_graph(t)
    if not base_pattern.is_h_free(h):
        raise GraphError("base pattern must be clique-free")

    builder = ManifestBuilder(
        base.relabel({w: f"G{w}" for w in range(base.n)}), note="base graph")
    res = builder.compose(matching_graph(q), {}, note="signal matching")
    m_eids = tuple(res.edge_map[i] for i in range(q))

    counts: dict = {}
    statuses: set = set()
    for i, j in combinations(range(q), 2):
        s = provider.get(NEGATIVE, h, q, d)
        statuses.add(s.status)
        _attach_sender(builder, s, m_eids[i], m_eids[j],
                       note="negative sender between signal edges")
        counts["negative_senders"] = counts.get("negative_senders", 0) + 1
    for i in range(q):
        for e_local in sorted(base_pattern.classes[i]):
            s = provider.get(POSITIVE, h, q, d)
            statuses.add(s.status)
            _attach_sender(builder, s, m_eids[i], e_local,
                           note=f"positive sender class {i + 1}")
            counts["positive_senders"] = counts.get("positive_senders", 0) + 1

    v, _ = _attach_low_degree_vertex(builder, list(range(base.n)), "x.",
                                     note="low-degree vertex")
    dist = distance(builder.graph, [v],
                    builder.graph.edge_vertices(m_eids))
    counts["dist_v_matching"] = dist
    if dist <= t:
        raise InternalError("low-degree vertex too close to the signal "
                            "matching")

    return CliqueGtildeSpec(builder.graph, t, q, tuple(range(base.n)),
                            base_pattern, m_eids, v,
                            _worst_status(statuses), counts, builder.manifest)
