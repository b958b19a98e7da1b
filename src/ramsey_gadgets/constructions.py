"""Application constructions on top of pattern gadgets.

Builds the abundance recipes (many minimum-degree vertices in one
minimal Ramsey graph) for long cycles, cliques with a pendant edge, and
targets supplied via a seed graph.  The three share one path,
`_abundance_recipe`: a pattern gadget over k disjoint copies of a base
block, then one new vertex joined to each block's attachment points;
each recipe supplies only its base, patterns, attachment points and
checks.  The pattern gadget's family check is the only target-freeness
check of the patterns: a copy of a connected target lies in one block.
Also builds the sender-free verifiable pieces: the clique coloring
ladder (each edge colored by the base-(t-1) digits of its ends), the
star arrowing predicate, the degree-one counting check, and the
pendant-cycle example for the 3-edge path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional, Sequence

from .arrowing import (ARROWS, DOES_NOT_ARROW, MINIMAL, NO_BUDGET, UNKNOWN,
                       ArrowInstance, Budget, BudgetExhausted, _avoiding,
                       arrows, is_minimal)
from .coloring import (EXACT, ColorPattern, EdgeColoring, PatternFamily,
                       pattern_of)
from .gadgets import (NEGATIVE, POSITIVE, PatternGadgetSpec, SenderProvider,
                      _Assembly, _gadget_distance, build_pattern_gadget)
from .graph import (Graph, GraphError, InternalError, clique_with_pendant,
                    complete_graph, cycle_graph, distance, from_edges,
                    graphs_isomorphic, is_k_connected, matching_graph,
                    path_graph, single_edge, star_graph)
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


def _phi_color(b: int, u: int, w: int) -> int:
    """1 plus the position of the most significant base-b digit where u
    and w differ: the number of floor divisions by b that make them
    equal."""
    color = 0
    while u != w:
        u, w, color = u // b, w // b, color + 1
    return color


def phi_coloring(q: int, t: int) -> EdgeColoring:
    """Total q-coloring of the complete graph on n = (t-1)^q vertices that
    avoids monochromatic t-cliques but admits no clique-free extension
    by one more dominating vertex.  With b = t-1, edge uw gets 1 plus the
    position of the most significant base-b digit where u and w differ:
    color q between the b blocks of b^(q-1) vertices, the coloring for
    q-1 inside each block, and color 1 inside the blocks of size b."""
    b = t - 1
    kn = complete_graph(_ladder_order(q, t))
    return EdgeColoring(q, tuple((eid, _phi_color(b, u, w))
                                 for eid, (u, w) in enumerate(kn.edges)))


def psi_coloring(q: int, t: int) -> EdgeColoring:
    """Clique-free total q-coloring of the complete graph on n + 1
    vertices, n = (t-1)^q, whose last vertex n is the extra one.  With
    b = t-1, the extra vertex sees the multiples of b in color 2 and
    every other vertex in color 1; edge (u, u+b) for u a multiple of b^2
    gets color 1; every other edge keeps its phi color."""
    b = t - 1
    n = _ladder_order(q, t)

    def color(u: int, w: int) -> int:
        if w == n:
            return 2 if u % b == 0 else 1
        if w == u + b and u % (b * b) == 0:
            return 1
        return _phi_color(b, u, w)
    return EdgeColoring(q, tuple((eid, color(u, w)) for eid, (u, w)
                                 in enumerate(complete_graph(n + 1).edges)))


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
    if res.verdict == UNKNOWN:
        raise BudgetExhausted(f"minimality undecided: {res.detail}")
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
    vertex attached to each block's interface set.  The target, color
    count and family are the gadget's."""
    k: int
    graph: Graph
    w_sets: tuple[tuple[int, ...], ...]          # interface vertices per block
    v_vertices: tuple[int, ...]                  # the added low-degree vertices
    expected_degree: int
    gadget: PatternGadgetSpec
    manifest: ConstructionManifest
    extras: dict = field(default_factory=dict)

    def degrees_ok(self) -> bool:
        return all(self.graph.degree(v) == self.expected_degree
                   for v in self.v_vertices)

    def to_json(self) -> dict:
        return {
            "kind": "abundance_recipe",
            "target": self.gadget.h.to_json(),
            "q": self.gadget.q,
            "k": self.k,
            "graph": self.graph.to_json(),
            "vertices": self.graph.n,
            "edges": self.graph.num_edges,
            "low_degree_vertices": list(self.v_vertices),
            "expected_degree": self.expected_degree,
            "degrees_ok": self.degrees_ok(),
            "family_size": len(self.gadget.family),
            "senders_status": self.gadget.senders_status,
            "gadget_status": self.gadget.status,
        }


def _blocks_graph(base: Graph, k: int) -> Graph:
    """k disjoint unlabelled copies of base; block i holds vertices
    i*n..(i+1)*n-1 and edges i*m..(i+1)*m-1."""
    return Graph(base.n * k,
                 tuple((u + i * base.n, v + i * base.n)
                       for i in range(k) for (u, v) in base.edges))


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
                              note: str) -> int:
    """New vertex joined to each host vertex in w_hosts; returns it."""
    star = star_graph(len(w_hosts)).relabel({0: "v"})
    res = builder.compose(star, {j + 1: hv for j, hv in enumerate(w_hosts)},
                          label_prefix=tag, note=note)
    return res.vertex_map[0]


def _abundance_recipe(h: Graph, q: int, k: int, base: Graph,
                      specials: tuple[ColorPattern, ...], other: ColorPattern,
                      points: Sequence[int], provider: SenderProvider,
                      d: Optional[int], budget: Budget,
                      per_block: Optional[Callable] = None) -> AbundanceRecipe:
    """The scheme every abundance recipe shares.  The family has one
    member per (block, special pattern): that block colored per the
    special pattern, every other block per `other`.  After the pattern
    gadget, each block gets a new vertex joined to its attachment points
    (vertices of `base`, in attachment order); `per_block(builder, i,
    hosts)` then adds block i's own pieces."""
    g = _blocks_graph(base, k)
    members = tuple(_block_pattern(g, base.num_edges, k, i, sp, other)
                    for i in range(k) for sp in specials)
    family = PatternFamily(g, members, EXACT)
    gadget = build_pattern_gadget(h, g, family, q, provider, d, budget=budget)

    builder = ManifestBuilder.resume(gadget.graph, gadget.manifest)
    hosts = [[i * base.n + w for w in points] for i in range(k)]
    v_vertices = []
    for i, w_hosts in enumerate(hosts):
        v_vertices.append(_attach_low_degree_vertex(
            builder, w_hosts, f"b{i + 1}.",
            note=f"degree-{len(points)} vertex for block {i + 1}"))
        if per_block is not None:
            per_block(builder, i, w_hosts)
    return AbundanceRecipe(k, builder.graph,
                           tuple(tuple(sorted(w)) for w in hosts),
                           tuple(v_vertices), len(points), gadget,
                           builder.manifest)


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
                         d: Optional[int] = None,
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
    # the low-degree vertex of each block is joined to its hubs
    return _abundance_recipe(h, q, k, f, (f1,), f2, range(q + 1), provider,
                             d, budget)


def build_ktk2_abundant(t: int, k: int, provider: SenderProvider,
                        d: Optional[int] = None,
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

    pendants, clique_edges = [], []

    def interface_clique_and_pendant(builder, i, wset):
        clique_edges.append(tuple(builder.add_edges(
            [(wset[a], wset[b]) for a, b in combinations(range(t - 1), 2)],
            note=f"clique on the interface set of block {i + 1}")))
        res = builder.compose(single_edge(), {0: wset[0]},
                              label_prefix=f"b{i + 1}.p",
                              note=f"pendant edge for block {i + 1}")
        pendants.append(res.edge_map[0])

    # one marked vertex (the first) per clique of the block
    recipe = _abundance_recipe(h, q, k, f, (f1,), f2,
                               [c * t for c in range(t - 1)], provider, d,
                               budget, interface_clique_and_pendant)
    recipe.extras.update(pendant_edges=tuple(pendants),
                         interface_clique_edges=tuple(clique_edges))
    return recipe


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


def default_three_connected_seed() -> ThreeConnectedSeed:
    """Desk-scale seed: the 5-cycle forces a monochromatic 2-edge path
    with 2 colors, any single edge removal breaks that."""
    f = cycle_graph(5)
    return ThreeConnectedSeed(f, 0, f.edge_id(2, 3), path_graph(3), 2)


def check_seed(seed: ThreeConnectedSeed,
               budget: Budget = NO_BUDGET) -> dict:
    """Verify the four seed conditions with the search engine, under one
    clock; raises a named error on the first failure (BudgetExhausted
    on one left undecided), returns the found colorings (in seed edge
    ids) keyed by the deleted edge."""
    return _check_seed(seed, budget)[1]


def _check_seed(seed: ThreeConnectedSeed, budget: Budget):
    """`check_seed`, returning (the seed's instance, the colorings)."""
    f, hv, he, h, q = seed.f, seed.v, seed.e, seed.h, seed.q
    if not (0 <= hv < f.n) or not (0 <= he < f.num_edges):
        raise GraphError("marked vertex or edge out of range")
    if hv in f.edges[he]:
        raise GraphError("the marked edge must not touch the marked vertex")

    inst = ArrowInstance.create(f, h, q, budget)
    res = arrows(inst)
    if res.verdict == UNKNOWN:
        raise BudgetExhausted("seed condition F1 undecided")
    if res.verdict != ARROWS:
        raise GraphError("condition F1 fails: the seed graph does not "
                         "force the target")

    for es in inst.copies:
        if he in es and hv in f.edge_vertices(es):
            raise GraphError("condition F2 fails: the marked vertex and "
                             "edge share a copy of the target")

    witnesses: dict[int, dict[int, int]] = {}
    g_edges = [eid for eid in range(f.num_edges) if hv in f.edges[eid]]
    for name, drops in (("F3", [he]), ("F4", g_edges)):
        for eid in drops:
            res = arrows(_avoiding(inst, {eid}))
            if res.verdict == UNKNOWN:
                raise BudgetExhausted(f"seed condition {name} undecided")
            if res.verdict != DOES_NOT_ARROW:
                raise GraphError(
                    f"condition {name} fails: removing edge {eid} still "
                    "forces the target")
            witnesses[eid] = {e: c for e, c in res.witness.colors if e != eid}
    return inst, witnesses


def build_3connected_abundant(seed: ThreeConnectedSeed, k: int,
                              provider: SenderProvider,
                              d: Optional[int] = None,
                              budget: Budget = NO_BUDGET) -> AbundanceRecipe:
    """Blocks of F' = F - he - v (he the marked edge, v the marked
    vertex).  Each edge g at v gives one special pattern, the F4 witness
    of F - g on F'; every other block takes the F3 witness of F - he.

    `check_seed` proves all that the patterns need, so nothing is
    searched again.  No special pattern extends to a free coloring psi
    of F - he: give he its color in the witness of F - g.  A copy through
    he misses every edge at v (F2), so it lies in F - g, where psi agrees
    with that witness, and is not monochromatic; every other copy lies in
    F - he, where psi is free.  That makes a free coloring of F, against
    F1."""
    if k < 1:
        raise GraphError("need k >= 1")
    f, hv, he, h, q = seed.f, seed.v, seed.e, seed.h, seed.q
    d = _gadget_distance(h, d)
    inst, witnesses = _check_seed(seed, budget)

    g_edges = [eid for eid in range(f.num_edges) if hv in f.edges[eid]]
    drop = set(g_edges) | {he}
    keep = [eid for eid in range(f.num_edges) if eid not in drop]
    fprime = f.delete_edges([he]).induced(w for w in range(f.n) if w != hv)

    def local_pattern(colors_by_seed_eid: dict[int, int]) -> ColorPattern:
        return pattern_of(fprime, EdgeColoring.from_map(
            q, {j: colors_by_seed_eid[keep[j]] for j in range(len(keep))}))

    specials = tuple(local_pattern(witnesses[g]) for g in g_edges)
    f2 = local_pattern(witnesses[he])

    # attachment order follows the seed's edge order at the marked
    # vertex, so a block's j-th low-degree edge represents g_edges[j];
    # its point is the edge's other end, one lower in F' when above the
    # marked vertex
    points = [w - (w > hv) for w in (sum(f.edges[e]) - hv for e in g_edges)]
    recipe = _abundance_recipe(h, q, k, fprime, specials, f2, points,
                               provider, d, inst.budget)
    recipe.extras.update(
        target_hypothesis_ok=(is_k_connected(h, 3)
                              or graphs_isomorphic(h, complete_graph(3))))
    return recipe


# ---------------------------------------------------------------------------
# clique construction with one low-degree vertex

@dataclass
class CliqueGtildeSpec:
    graph: Graph
    t: int
    q: int
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
                        d: Optional[int] = None,
                        budget: Budget = NO_BUDGET) -> CliqueGtildeSpec:
    """The complete graph on n = (t-1)^q vertices colored by
    `phi_coloring`, one signal edge per color tied to its class by
    positive senders, pairwise negative senders between the signal
    edges, and a new vertex joined to the whole base.  `budget` bounds
    the assembly.

    The base needs no check: phi colors uw by 1 plus the highest
    base-(t-1) digit where u and w differ, so a K_t of color c would need
    t distinct values of one base-(t-1) digit, which has only t-1."""
    if t < 3 or q < 2:
        raise GraphError("need clique size >= 3 and q >= 2")
    h = complete_graph(t)
    d = _gadget_distance(h, d)
    base = complete_graph(_ladder_order(q, t))
    base_pattern = pattern_of(base, phi_coloring(q, t))
    asm = _Assembly(base.relabel({w: f"G{w}" for w in range(base.n)}),
                    "base graph", h, q, d, provider, budget.start())
    m_eids = asm.fresh(matching_graph(q), "signal matching")
    for i, j in combinations(range(q), 2):
        asm.attach_sender(NEGATIVE, m_eids[i], m_eids[j],
                          note="negative sender between signal edges")
    for i in range(q):
        for e_local in sorted(base_pattern.classes[i]):
            asm.attach_sender(POSITIVE, m_eids[i], e_local,
                              note=f"positive sender class {i + 1}")

    v = _attach_low_degree_vertex(asm.builder, list(range(base.n)), "x.",
                                  note="low-degree vertex")
    dist = distance(asm.builder.graph, [v],
                    asm.builder.graph.edge_vertices(m_eids))
    asm.counts["dist_v_matching"] = dist
    if dist <= t:
        raise InternalError("low-degree vertex too close to the signal "
                            "matching")
    graph, senders_status, counts, manifest = asm.finish()
    return CliqueGtildeSpec(graph, t, q, m_eids, v,
                            senders_status, counts, manifest)
