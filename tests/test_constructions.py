import itertools

import pytest

from conftest import fake_clock, free_extension_exists, nx_copies

from ramsey_gadgets import arrowing, constructions, gadgets
from ramsey_gadgets import (EXACT, ARROWS, Budget, BudgetExhausted,
                            EdgeColoring, GraphError,
                            PatternFamily, StubSenderProvider,
                            ThreeConnectedSeed,
                            ArrowInstance, arrows, build_3connected_abundant,
                            build_clique_gtilde, build_cycle_abundant,
                            build_ktk2_abundant, build_pattern_gadget,
                            check_seed, clique_ladder,
                            complete_graph, cycle_graph, clique_with_pendant,
                            default_three_connected_seed, disjoint_union,
                            enumerate_copies, graphs_isomorphic, is_minimal,
                            load_corpus, p4_abundant, path_graph, pattern_of,
                            phi_coloring, psi_coloring, star_arrow_predicate,
                            star_degree_one_count_check, star_graph)
from ramsey_gadgets.coloring import _mono_copy
from ramsey_gadgets.constructions import _cycle_base, _cycle_patterns

STUB = StubSenderProvider()


# ---------------------------------------------------------------------------
# clique coloring ladder

def mono_clique_free(n: int, coloring: EdgeColoring, t: int) -> bool:
    kn = complete_graph(n)
    cmap = coloring.as_dict()
    for verts in itertools.combinations(range(n), t):
        eids = [kn.edge_id(u, w) for u, w in itertools.combinations(verts, 2)]
        if len({cmap[e] for e in eids}) == 1:
            return False
    return True


def no_extension_avoids_clique(n: int, coloring: EdgeColoring,
                               t: int, q: int) -> bool:
    """Every way of coloring the edges from one fresh dominating vertex
    creates a monochromatic t-clique."""
    kn = complete_graph(n)
    cmap = coloring.as_dict()
    for assign in itertools.product(range(1, q + 1), repeat=n):
        ok = False
        for verts in itertools.combinations(range(n), t - 1):
            colors = {assign[w] for w in verts}
            colors |= {cmap[kn.edge_id(u, w)]
                       for u, w in itertools.combinations(verts, 2)}
            if len(colors) == 1:
                ok = True
                break
        if not ok:
            return False
    return True


def test_phi_2_3_structure():
    col = phi_coloring(2, 3)
    k4 = complete_graph(4)
    intra = [e for e, c in col.as_dict().items() if c == 1]
    inter = [e for e, c in col.as_dict().items() if c == 2]
    assert len(intra) == 2 and len(inter) == 4
    # the two blocks are {0,1} and {2,3}
    assert {k4.edges[e] for e in intra} == {(0, 1), (2, 3)}
    assert mono_clique_free(4, col, 3)


# the clique builder checks no base, so these own its clique-freeness;
# the stuck check tries all q^n colorings of a new vertex's edges, so it
# runs only up to 3^8 of them: on (2, 3), (3, 3) and (2, 4)
CLIQUE_FREE_LADDERS = [(2, 3), (3, 3), (2, 4), (4, 3), (5, 3), (6, 3),
                       (3, 4), (2, 5)]


@pytest.mark.parametrize("q,t", CLIQUE_FREE_LADDERS)
def test_phi_is_clique_free_and_stuck(q, t):
    n = (t - 1) ** q
    col = phi_coloring(q, t)
    assert col.is_total(complete_graph(n))
    assert mono_clique_free(n, col, t)
    if q ** n <= 3 ** 8:
        assert no_extension_avoids_clique(n, col, t, q)


@pytest.mark.parametrize("q,t", CLIQUE_FREE_LADDERS)
def test_psi_is_clique_free(q, t):
    n = (t - 1) ** q + 1
    col = psi_coloring(q, t)
    assert col.is_total(complete_graph(n))
    assert mono_clique_free(n, col, t)


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


# every (q, t) under the 512-vertex cap: q <= 9 as 2^10 > 512, and
# t <= 23 as 23^2 = 529 > 512
LADDER_PAIRS = [(q, t) for q in range(2, 10) for t in range(3, 24)
                if (t - 1) ** q <= 512]


@pytest.mark.parametrize("q,t", LADDER_PAIRS)
def test_ladder_matches_its_recursive_definition(q, t):
    # the recursive block construction is the reference for the digit rule
    n = (t - 1) ** q
    for col, cmap, order in ((phi_coloring(q, t), _phi_map(q, t), n),
                             (psi_coloring(q, t), _psi_map(q, t), n + 1)):
        kn = complete_graph(order)
        assert col.q == q
        assert col.as_dict() == {kn.edge_id(u, w): c
                                 for (u, w), c in cmap.items()}


def test_clique_ladder_bundle():
    lad = clique_ladder(2, 4)
    assert lad.n_q == 9
    assert lad.phi.is_total(complete_graph(9))
    assert lad.psi.is_total(complete_graph(10))


def test_ladder_size_guard():
    with pytest.raises(GraphError):
        phi_coloring(5, 6)      # 5^5 = 3125 vertices
    with pytest.raises(GraphError):
        psi_coloring(2, 24)     # 23^2 = 529 vertices, just over the cap


# ---------------------------------------------------------------------------
# stars

def test_star_predicate_known_values():
    assert star_arrow_predicate(cycle_graph(5), 2)      # 2-regular, odd order
    assert star_arrow_predicate(star_graph(3), 2)       # max degree 3 = 2m-1
    assert not star_arrow_predicate(path_graph(3), 2)
    assert not star_arrow_predicate(cycle_graph(6), 2)  # even order
    assert not star_arrow_predicate(cycle_graph(5), 3)  # m odd, degree 2 < 5
    with pytest.raises(GraphError):
        star_arrow_predicate(disjoint_union(path_graph(2), path_graph(2)), 2)


def test_star_predicate_matches_engine_on_small_corpus():
    for g in load_corpus(max_order=5):
        for m in (2, 3):
            verdict = arrows(ArrowInstance.create(g, star_graph(m), 2)).verdict
            assert star_arrow_predicate(g, m) == (verdict == ARROWS), \
                (g.edges, m)


def test_star_degree_one_count():
    assert star_degree_one_count_check(star_graph(5), 3) is True
    assert star_graph(5).degrees().count(1) == 5        # q(m-1)+1
    assert star_degree_one_count_check(cycle_graph(5), 2) is True
    with pytest.raises(GraphError):
        star_degree_one_count_check(complete_graph(5), 2)   # not minimal


# ---------------------------------------------------------------------------
# pendant-cycle family for the 3-edge path

def test_p4_abundant_structure():
    g = p4_abundant(3)
    assert g.n == 6 and g.num_edges == 6
    assert sorted(g.degrees()) == [1, 1, 1, 3, 3, 3]
    assert p4_abundant(5).degrees().count(1) == 5
    with pytest.raises(GraphError):
        p4_abundant(4)
    with pytest.raises(GraphError):
        p4_abundant(1)


def test_p4_abundant_is_minimal_for_k5():
    assert is_minimal(p4_abundant(5), path_graph(4), 2)


def test_p4_abundant_k3_boundary_refutation():
    # frozen engine + exhaustive-oracle fact: the k=3 member does not
    # force the 3-edge path (color the triangle one color and the
    # pendant matching the other), so minimality genuinely fails there
    from conftest import naive_arrows
    from ramsey_gadgets import DOES_NOT_ARROW, NOT_MINIMAL
    g = p4_abundant(3)
    assert naive_arrows(g, path_graph(4), 2) == DOES_NOT_ARROW
    res = is_minimal(g, path_graph(4), 2)
    assert res.verdict == NOT_MINIMAL
    assert res.detail == "graph does not arrow"


# ---------------------------------------------------------------------------
# cycle recipes

@pytest.mark.parametrize("q,t", [(2, 4), (2, 5), (2, 6),
                                 (3, 4), (3, 5), (3, 6)])
def test_cycle_base_patterns_are_target_free(q, t):
    f, pair_paths = _cycle_base(q, t)
    f1, f2 = _cycle_patterns(q, f, pair_paths)
    h = cycle_graph(t)
    copies = ArrowInstance.create(f, h, q).copies
    assert _mono_copy(copies, f1.to_coloring()) is None
    assert _mono_copy(copies, f2.to_coloring()) is None
    # f1: each path monochromatic; f2: no path monochromatic
    for per_pair in pair_paths:
        c1, c2 = f1.to_coloring().as_dict(), f2.to_coloring().as_dict()
        for eids in per_pair:
            assert len({c1[e] for e in eids}) == 1
            assert len({c2[e] for e in eids}) > 1


def test_cycle_recipe_structure():
    recipe = build_cycle_abundant(2, 4, 2, STUB)
    assert recipe.degrees_ok()
    assert recipe.expected_degree == 3              # q + 1
    assert len(recipe.v_vertices) == 2
    assert len(recipe.gadget.family) == 2
    for v in recipe.v_vertices:
        assert recipe.graph.degree(v) == 3
    assert all(len(w) == 3 for w in recipe.w_sets)
    assert recipe.manifest.replay().edges == recipe.graph.edges


def test_cycle_rejects_triangle_target():
    with pytest.raises(GraphError, match="cycle length must be >= 4"):
        build_cycle_abundant(2, 3, 1, STUB)


# ---------------------------------------------------------------------------
# clique-with-pendant recipes

def test_ktk2_recipe_structure():
    t, k = 3, 2
    recipe = build_ktk2_abundant(t, k, STUB)
    assert recipe.gadget.q == 2
    assert graphs_isomorphic(recipe.gadget.h, clique_with_pendant(t))
    assert recipe.degrees_ok()
    assert recipe.expected_degree == t - 1
    assert len(recipe.gadget.family) == k
    for v in recipe.v_vertices:
        assert recipe.graph.degree(v) == t - 1
    # marked vertices of each block form a clique; pendants attached
    assert len(recipe.extras["interface_clique_edges"]) == k
    assert len(recipe.extras["pendant_edges"]) == k
    assert recipe.manifest.replay().edges == recipe.graph.edges


def test_ktk2_pattern_base_has_no_target_copy():
    # the pattern-gadget base (clique blocks before any interface
    # wiring) must be free of the clique-with-pendant target
    recipe = build_ktk2_abundant(4, 1, STUB)
    assert not enumerate_copies(recipe.gadget.family.base,
                                clique_with_pendant(4))


# ---------------------------------------------------------------------------
# seeded recipes

def test_default_seed_passes_all_conditions():
    seed = default_three_connected_seed()
    witnesses = check_seed(seed)
    # one witness per removed edge: the marked edge plus both at v
    assert set(witnesses) == {seed.e} | \
        {eid for eid in range(seed.f.num_edges) if seed.v in seed.f.edges[eid]}


@pytest.mark.parametrize("seed", [
    default_three_connected_seed(),
    ThreeConnectedSeed(cycle_graph(7), 0, cycle_graph(7).edge_id(3, 4),
                       path_graph(3), 2)])
def test_seed_witnesses_are_free_in_seed_ids(seed):
    f = seed.f
    for eid, colors in check_seed(seed).items():
        # the coloring of f - eid, in seed edge ids
        keep = [e for e in range(f.num_edges) if e != eid]
        assert sorted(colors) == keep
        for copy in nx_copies(f.delete_edge(eid), seed.h):
            assert len({colors[keep[j]] for j in copy}) == 2


def test_seed_marked_edge_position():
    f = cycle_graph(5)
    with pytest.raises(GraphError, match="must not touch"):
        check_seed(ThreeConnectedSeed(f, 0, f.edge_id(0, 1), path_graph(3), 2))


def test_seed_f1_failure_is_named():
    # the 4-cycle admits a proper 2-edge-coloring, so it does not force
    with pytest.raises(GraphError, match="F1"):
        check_seed(ThreeConnectedSeed(cycle_graph(4), 0,
                                      cycle_graph(4).edge_id(1, 2),
                                      path_graph(3), 2))


def test_seed_f2_failure_is_named():
    f = cycle_graph(5)
    with pytest.raises(GraphError, match="F2"):
        check_seed(ThreeConnectedSeed(f, 0, f.edge_id(1, 2), path_graph(3), 2))


def test_seed_checks_and_the_recipe_share_one_deadline(monkeypatch):
    # check_seed, the pattern gadget's base check and its two indicators'
    # containment checks enumerate under one clock
    deadlines = []
    real = arrowing.enumerate_copies
    monkeypatch.setattr(arrowing, "enumerate_copies",
                        lambda host, pattern, deadline: deadlines.append(
                            deadline) or real(host, pattern, deadline))
    build_3connected_abundant(default_three_connected_seed(), 1, STUB,
                              budget=Budget(max_seconds=60))
    assert len(deadlines) == 4
    assert deadlines[0] is not None and len(set(deadlines)) == 1
    # a started budget is passed on: check_seed keeps its caller's clock
    started = Budget(max_seconds=60).start()
    check_seed(default_three_connected_seed(), started)
    assert deadlines[4:] == [started.deadline]


@pytest.mark.parametrize("searches, message", [
    (1, "seed condition F3 undecided"),
    (2, "seed condition F4 undecided"),
])
def test_3connected_search_out_of_time_is_named(searches, message,
                                                monkeypatch):
    # each check after F1 searches an instance that `_avoiding` filters;
    # the clock stands still until the given one is made, then runs out
    made = []
    avoiding = constructions._avoiding

    def counted(*args):
        made.append(args)
        return avoiding(*args)
    monkeypatch.setattr(constructions, "_avoiding", counted)
    fake_clock(monkeypatch, lambda: len(made) >= searches)
    with pytest.raises(BudgetExhausted, match=message):
        build_3connected_abundant(default_three_connected_seed(), 1, STUB,
                                  budget=Budget(max_seconds=0.5))
    assert len(made) == searches


def _corpus_seeds() -> list:
    """Every seed on a corpus graph (its marked vertex and an edge away
    from it) that passes `check_seed` for P3, K3 or K1,3 with q = 2."""
    seeds = []
    for h in (path_graph(3), complete_graph(3), star_graph(3)):
        for f in load_corpus(max_order=6):
            if arrows(ArrowInstance.create(f, h, 2)).verdict != ARROWS:
                continue
            for v, e in itertools.product(range(f.n), range(f.num_edges)):
                seed = ThreeConnectedSeed(f, v, e, h, 2)
                try:
                    check_seed(seed)
                except GraphError:
                    continue
                seeds.append(seed)
    return seeds


def test_no_special_pattern_extends_without_the_marked_edge():
    # the recipe's special patterns, one per edge g at the marked
    # vertex, are the seed's F4 witnesses of F - g off the marked vertex
    # and edge; brute force confirms that none extends to a free coloring
    # of F - he, which the builder no longer searches
    corpus = _corpus_seeds()
    # the five on the corpus's 5-cycle, one per marked vertex, for P3
    assert [(s.f.n, s.h.num_edges) for s in corpus] == [(5, 2)] * 5
    c7 = cycle_graph(7)
    for seed in [default_three_connected_seed(),
                 ThreeConnectedSeed(c7, 0, c7.edge_id(3, 4), path_graph(3), 2),
                 *corpus]:
        f, he = seed.f, seed.e
        witnesses = check_seed(seed)
        g_edges = [e for e in range(f.num_edges) if seed.v in f.edges[e]]
        without_he = f.delete_edge(he)
        for g in g_edges:
            special = {e - (e > he): c for e, c in witnesses[g].items()
                       if e not in g_edges and e != he}
            assert not free_extension_exists(without_he, seed.h, seed.q,
                                             special)


@pytest.mark.parametrize("build", [
    lambda budget: build_clique_gtilde(3, 2, STUB, budget=budget),
    lambda budget: build_cycle_abundant(2, 5, 3, STUB, budget=budget),
], ids=["clique", "cycle"])
def test_assembly_runs_out_after_the_senders_it_attached(build, monkeypatch):
    # the clock stands still until the fifth sender is attached, where
    # the assembly reads it and stops; the clique build has no other step
    # that reads it
    attached = []
    attach = gadgets._Assembly.attach_sender
    monkeypatch.setattr(gadgets._Assembly, "attach_sender",
                        lambda self, *a, **k: attached.append(a)
                        or attach(self, *a, **k))
    fake_clock(monkeypatch, lambda: len(attached) >= 5)
    with pytest.raises(BudgetExhausted, match="^construction out of time$"):
        build(Budget(max_seconds=0.5))
    assert len(attached) == 5


def test_assembly_with_no_budget_reads_no_clock(monkeypatch):
    reads = []
    fake_clock(monkeypatch, lambda: reads.append(1) or False)
    build_clique_gtilde(3, 2, STUB)
    build_cycle_abundant(2, 5, 3, STUB)
    assert reads == []


def test_3connected_recipe_structure():
    recipe = build_3connected_abundant(default_three_connected_seed(), 2, STUB)
    assert recipe.degrees_ok()
    assert recipe.expected_degree == 2              # degree of v in C5
    assert len(recipe.gadget.family) == 4
    # the desk-scale target is a path, so the size hypothesis flag is off
    assert recipe.extras["target_hypothesis_ok"] is False
    assert recipe.manifest.replay().edges == recipe.graph.edges


def test_3connected_blocks_drop_the_marked_vertex_and_the_seed_labels():
    # marked vertex 2 of C5 and the opposite edge (0,4): F' renumbers
    # vertices 3 and 4 down one, so the neighbours 1 and 3 of vertex 2
    # are vertices 1 and 2 of each 4-vertex block
    c5 = cycle_graph(5)
    seed = ThreeConnectedSeed(c5, 2, c5.edge_id(0, 4), path_graph(3), 2)
    recipe = build_3connected_abundant(seed, 2, STUB)
    assert recipe.w_sets == ((1, 2), (5, 6))
    assert recipe.degrees_ok()
    named = ThreeConnectedSeed(c5.relabel({v: f"s{v}" for v in range(5)}),
                               seed.v, seed.e, seed.h, seed.q)
    assert (build_3connected_abundant(named, 2, STUB).to_json()
            == recipe.to_json())


def _count_enumerations(monkeypatch) -> list:
    """The hosts of every copy enumeration; `ArrowInstance.create` makes
    them all."""
    calls = []
    real = arrowing.enumerate_copies

    def spy(host, pattern, deadline=None):
        calls.append(host)
        return real(host, pattern, deadline)
    monkeypatch.setattr(arrowing, "enumerate_copies", spy)
    return calls


def test_pattern_family_enumerates_once_per_graph(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    recipe = build_3connected_abundant(default_three_connected_seed(), 3, STUB)
    assert len(recipe.gadget.family) == 6
    # the family check and the base check share one copy list
    assert calls.count(recipe.gadget.family.base) == 1


def _two_pattern_k3_gadget():
    c4 = cycle_graph(4)
    alt = pattern_of(c4, EdgeColoring.from_map(2, {0: 1, 1: 2, 2: 1, 3: 2}))
    adj = pattern_of(c4, EdgeColoring.from_map(2, {0: 1, 1: 1, 2: 2, 3: 2}))
    build_pattern_gadget(complete_graph(3), c4,
                         PatternFamily(c4, (alt, adj), EXACT), 2, STUB)


def _count_solves(monkeypatch) -> list:
    solves = []
    real = arrowing._solve
    monkeypatch.setattr(arrowing, "_solve",
                        lambda *a, **k: solves.append(a) or real(*a, **k))
    return solves


@pytest.mark.parametrize("build, searches, count, indicators", [
    (lambda: build_cycle_abundant(2, 5, 3, STUB), 0, 1, 2),
    (lambda: build_ktk2_abundant(3, 2, STUB), 0, 1, 2),
    (lambda: build_3connected_abundant(default_three_connected_seed(), 2,
                                       STUB), 4, 5, 3),
    (_two_pattern_k3_gadget, 0, 1, 2),
], ids=["cycle", "ktk2", "3connected", "two_pattern_k3"])
def test_builds_enumerate_each_graph_target_pair_once(build, searches, count,
                                                      indicators, monkeypatch):
    # each (graph, target) pair once: the family check reads the base
    # instance's copies; each fact is searched once: the family check
    # proves the base check, and the seed's four searches (F1, F3 and F4
    # at the marked vertex's two edges) prove its patterns; and the rainbow
    # gadgets share their indicators, whose classes the family check
    # already covered; with r = 2 the positive indicator, for a 2-edge
    # matching, is also the pair indicator (the 3-connected recipe has
    # r = 3)
    calls = _count_enumerations(monkeypatch)
    solves = _count_solves(monkeypatch)
    built = []
    real = gadgets.build_indicator
    monkeypatch.setattr(gadgets, "build_indicator",
                        lambda *a, **k: built.append(a) or real(*a, **k))
    build()
    assert (len(solves), len(calls), len(built)) == (searches, count,
                                                     indicators)


def test_3connected_checks_distance_before_searching(monkeypatch):
    solves = _count_solves(monkeypatch)
    with pytest.raises(GraphError, match="must exceed the target order"):
        build_3connected_abundant(default_three_connected_seed(), 1, STUB,
                                  d=3)
    assert solves == []


# ---------------------------------------------------------------------------
# clique construction

def test_clique_gtilde_structure():
    spec = build_clique_gtilde(3, 2, STUB)
    base_n = 4                                      # (t-1)^q
    assert spec.graph.degree(spec.v) == base_n
    assert len(spec.m_eids) == 2
    assert spec.counts["negative_senders"] == 1     # C(q,2)
    assert spec.counts["positive_senders"] == 6     # all base edges
    assert spec.counts["dist_v_matching"] > 3
    assert spec.optimal_base is False
    assert spec.manifest.replay().edges == spec.graph.edges
