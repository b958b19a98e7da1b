import hashlib
import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (free_extension_exists, free_of, naive_arrows,
                      naive_is_minimal, naive_minimalize, nx_copies)
from ramsey_gadgets import arrowing
from ramsey_gadgets import (ARROWS, DOES_NOT_ARROW, MINIMAL, NOT_MINIMAL,
                            NO_BUDGET, UNKNOWN, ArrowInstance, Budget,
                            BudgetExhausted, EdgeColoring, Graph, GraphError,
                            StubSenderProvider,
                            arrows, build_cycle_abundant, complete_graph,
                            cycle_graph, disjoint_union, extendable,
                            from_edges, is_minimal, min_degree_stats,
                            minimalize, path_graph, phi_coloring,
                            single_edge, sq_lower_bound, star_graph,
                            to_dimacs, verify_witness)


def run(host, target, q=2, budget=NO_BUDGET):
    return arrows(ArrowInstance.create(host, target, q, budget))


# classic ground truth, frozen: R(3,3) = 6
def test_k6_arrows_k3():
    assert run(complete_graph(6), complete_graph(3)).verdict == ARROWS


def test_k5_does_not_arrow_k3_with_witness():
    res = run(complete_graph(5), complete_graph(3))
    assert res.verdict == DOES_NOT_ARROW
    inst = ArrowInstance.create(complete_graph(5), complete_graph(3), 2)
    assert verify_witness(inst, res.witness)


def test_witness_rejection():
    inst = ArrowInstance.create(complete_graph(6), complete_graph(3), 2)
    mono = EdgeColoring.from_map(2, {e: 1 for e in range(15)})
    assert not verify_witness(inst, mono)


def test_witness_must_color_exactly_the_host_edges():
    # K3 arrows P3; with edge 2 uncolored and id 7 naming no edge, the
    # two copies through edge 2 cannot be monochromatic, yet this is no
    # coloring of K3
    inst = ArrowInstance.create(complete_graph(3), path_graph(3), 2)
    stray = EdgeColoring.from_map(2, {0: 1, 1: 2, 7: 1})
    assert not stray.is_total(inst.host)
    assert not verify_witness(inst, stray)


@pytest.mark.parametrize("host,target,q", [
    (complete_graph(5), complete_graph(3), 2),
    (complete_graph(4), path_graph(3), 2),
    (cycle_graph(5), path_graph(3), 2),
    (star_graph(5), star_graph(3), 2),
    (star_graph(4), star_graph(3), 2),
    (complete_graph(4), path_graph(4), 2),
    (cycle_graph(6), path_graph(4), 3),
])
def test_engine_matches_naive_oracle(host, target, q):
    assert run(host, target, q).verdict == naive_arrows(host, target, q)


# K_{1,2m-1} -> K_{1,m} in 2 colors; one leaf fewer breaks it
def test_star_threshold():
    assert run(star_graph(5), star_graph(3)).verdict == ARROWS
    assert run(star_graph(4), star_graph(3)).verdict == DOES_NOT_ARROW


def test_monotone_under_supergraph():
    # adding edges can only help arrowing
    host = complete_graph(6)
    sub = host.delete_edge(0)
    if run(sub, complete_graph(3)).verdict == ARROWS:
        assert run(host, complete_graph(3)).verdict == ARROWS


def test_budget_exhaustion_is_first_class():
    res = run(complete_graph(6), complete_graph(3), budget=Budget(max_nodes=3))
    assert res.verdict == UNKNOWN
    assert res.witness is None
    with pytest.raises(BudgetExhausted):
        res.arrows


@pytest.mark.parametrize("seconds", [0, -1, float("nan")])
def test_budget_rejects_a_time_bound_that_is_not_positive(seconds):
    # NaN compares false both ways: accepted, its deadline would be NaN,
    # a clock that never runs out
    with pytest.raises(GraphError):
        Budget(max_seconds=seconds)


def test_budgets_bound_the_search():
    # K9 ->2 C5 takes thousands of decisions
    for n in (1, 10, 100):
        res = run(complete_graph(9), cycle_graph(5),
                  budget=Budget(max_nodes=n))
        assert res.verdict == UNKNOWN
        assert res.stats.nodes <= n
    # R(3,3,3) = 17: K17 ->3 K3 arrows, so the local search finds nothing
    # and the exhaustive search needs far more than the budget
    start = time.monotonic()
    res = run(complete_graph(17), complete_graph(3), 3,
              budget=Budget(max_seconds=0.5))
    assert res.verdict == UNKNOWN
    assert time.monotonic() - start < 2


def test_max_nodes_bounds_decisions_plus_flips():
    host, k3 = complete_graph(17), complete_graph(3)
    for n in (arrowing._LS_START, arrowing._LS_START + 100, 3000, 5000):
        res = run(host, k3, 3, budget=Budget(max_nodes=n))
        assert res.verdict == UNKNOWN
        assert res.stats.nodes + res.stats.flips <= n
        assert res.stats.flips > 0 or n == arrowing._LS_START


def test_max_seconds_stops_a_local_search_round():
    host, k3 = complete_graph(17), complete_graph(3)
    inst = ArrowInstance.create(host, k3, 3)
    start = time.monotonic()
    local = arrowing._local_search(host.num_edges, 3, inst.copies, {},
                                   start + 0.2)
    next(local)
    flips, found = local.send(10 ** 9)
    assert found is None and 0 < flips < 10 ** 9
    assert time.monotonic() - start < 1


def test_max_seconds_holds_on_a_sparse_host():
    # 2000 disjoint K5: one flip scans thousands of edges, so a deadline
    # checked only every 256 flips ran 1.4 s over a 0.5 s budget
    edges = [(5 * i + u, 5 * i + v) for i in range(2000)
             for u, v in itertools.combinations(range(5), 2)]
    inst = ArrowInstance.create(from_edges(10000, edges), complete_graph(3),
                                2, Budget(max_seconds=0.5))
    start = time.monotonic()
    res = arrows(inst)
    assert time.monotonic() - start < 0.5 + 0.5
    assert res.verdict in (UNKNOWN, DOES_NOT_ARROW)


def test_max_seconds_covers_copy_enumeration(monkeypatch):
    # 24 174 vertices and 1152 copies of C4: enumerating them takes
    # several times the budget, so the verdict is unknown with no search
    host = build_cycle_abundant(3, 4, 2, StubSenderProvider()).graph
    c4, budget = cycle_graph(4), Budget(max_seconds=0.05)
    start = time.monotonic()
    res = run(host, c4, 2, budget)
    assert time.monotonic() - start < 0.5
    assert res.verdict == UNKNOWN and res.stats.nodes == 0
    start = time.monotonic()
    ext = extendable(host, EdgeColoring.from_map(2, {0: 1}), c4, 2, budget)
    assert time.monotonic() - start < 0.5
    assert ext.verdict == UNKNOWN and ext.stats.nodes == 0
    with pytest.raises(GraphError):
        to_dimacs(ArrowInstance.create(host, c4, 2, budget))
    # with time to spare the instance keeps the budget started before
    # the enumeration: its deadline is the one the enumeration got
    given, enumerate_copies = [], arrowing.enumerate_copies
    monkeypatch.setattr(arrowing, "enumerate_copies",
                        lambda host, pattern, deadline: given.append(deadline)
                        or enumerate_copies(host, pattern, deadline))
    before = time.monotonic()
    inst = ArrowInstance.create(complete_graph(6), complete_graph(3), 2,
                                Budget(max_nodes=10 ** 6, max_seconds=60))
    assert given == [inst.budget.deadline]
    assert before + 60 <= inst.budget.deadline <= time.monotonic() + 60
    assert inst.budget.max_seconds == 60
    assert inst.budget.max_nodes == 10 ** 6
    assert len(inst.copies) == 20 and arrows(inst).verdict == ARROWS


@pytest.mark.parametrize("n,t,q", [(13, 4, 2), (17, 4, 2), (16, 3, 3)])
def test_ramsey_witnesses_are_found(n, t, q):
    # R(4,4) = 18 and R(3,3,3) = 17: each host has a free coloring
    host, target = complete_graph(n), complete_graph(t)
    inst = ArrowInstance.create(host, target, q, Budget(max_seconds=5))
    res = arrows(inst)
    assert res.verdict == DOES_NOT_ARROW
    assert verify_witness(inst, res.witness)
    assert res.stats.flips > 0


def test_search_is_reproducible():
    a, b = (run(complete_graph(17), complete_graph(4)) for _ in range(2))
    assert a.witness == b.witness
    assert a.stats == b.stats
    assert a.stats.flips > 0


def _ladder(q, t):
    # phi(q, t) fixed on K_n inside K_{n+1}: no clique-free extension
    n = (t - 1) ** q
    host, kn = complete_graph(n + 1), complete_graph(n)
    partial = {host.edge_id(*kn.edges[e]): c
               for e, c in phi_coloring(q, t).colors}
    return host, EdgeColoring.from_map(q, partial), complete_graph(t)


@pytest.mark.parametrize("case,counters,digest", [
    ("K9 C5 2", (2942, 512), None),
    ("K13 K4 2", (2048, 10), "272643dac3b21cef"),
    ("K16 K3 3", (8192, 1863), "caea252d9e6780da"),
    ("K17 K4 2", (4096, 1098), "18f40c8afbac6dbb"),
    ("ladder 4 3", (6962, 1536), None),
    ("K8 K3 3", (29, 0), "6d7534277f91498d"),     # smallest domain first
    ("K10 C5 2", (5508, 1536), None),              # local search, then refuted
    ("K16 K3 3 3000", (2488, 512), None),          # max_nodes runs out
])
def test_search_counters_are_pinned(case, counters, digest):
    # unit propagation reaches one fixpoint however it is computed, so
    # the decisions, the flips and the witness must not move
    kind, a, b, *cap = case.split()
    if kind == "ladder":
        host, partial, target = _ladder(int(a), int(b))
        res = extendable(host, partial, target, int(a))
    else:
        target = cycle_graph(5) if a == "C5" else complete_graph(int(a[1:]))
        budget = Budget(max_nodes=int(cap[0])) if cap else NO_BUDGET
        res = run(complete_graph(int(kind[1:])), target, int(b), budget)
        assert (res.verdict == UNKNOWN) == bool(cap)
    assert (res.stats.nodes, res.stats.flips) == counters
    got = res.witness and hashlib.sha256(
        bytes(c for _, c in res.witness.colors)).hexdigest()[:16]
    assert got == digest


def test_search_corpus_is_pinned():
    # 400 small seeded searches, with fixed edges and node budgets: the
    # status, counters and coloring of each are hashed into one digest
    rng = random.Random(14)
    targets = (complete_graph(3), path_graph(3), cycle_graph(4),
               star_graph(3), path_graph(4))
    digest = hashlib.sha256()
    total = 0
    for _ in range(400):
        n = rng.randint(4, 9)
        host = from_edges(n, [p for p in itertools.combinations(range(n), 2)
                              if rng.random() < 0.7])
        q = rng.randint(2, 4)
        copies = ArrowInstance.create(host, rng.choice(targets), q).copies
        fixed = {e: rng.randint(1, q) for e in range(host.num_edges)
                 if rng.random() < 0.2}
        max_nodes = rng.choice((None, 50, 200))
        status, found, nodes, flips = arrowing._solve(
            host.num_edges, q, copies, fixed, max_nodes, None)[:4]
        total += nodes
        digest.update(repr((status, nodes, flips,
                            found and sorted(found.items()))).encode())
    assert total == 2579
    assert digest.hexdigest()[:16] == "1a808f86dcc9ead5"


@pytest.mark.parametrize("n,q,verdict", [
    (5, 4, ARROWS), (5, 5, DOES_NOT_ARROW),   # odd K_n needs n edge colors
    (7, 6, ARROWS), (7, 7, DOES_NOT_ARROW),
])
def test_decisions_reach_every_color(n, q, verdict):
    # a P3-free coloring is a proper edge coloring
    res = run(complete_graph(n), path_graph(3), q)
    assert res.verdict == verdict
    if verdict == DOES_NOT_ARROW:
        assert len(set(res.witness.as_dict().values())) == q


def test_k8_has_a_k3_free_3_coloring():
    # R(3,3,3) = 17; K8 needs the third color
    host, k3 = complete_graph(8), complete_graph(3)
    res = run(host, k3, 3)
    assert res.verdict == DOES_NOT_ARROW
    assert verify_witness(ArrowInstance.create(host, k3, 3), res.witness)


def test_extendable():
    host = complete_graph(5)
    target = complete_graph(3)
    free = extendable(host, EdgeColoring.from_map(2, {}), target, 2)
    assert free.extendable
    # forcing a monochromatic triangle directly
    tri = [host.edge_id(0, 1), host.edge_id(0, 2), host.edge_id(1, 2)]
    stuck = extendable(host, EdgeColoring.from_map(2, {e: 1 for e in tri}),
                       target, 2)
    assert not stuck.extendable
    assert stuck.certificate is not None
    assert set(stuck.certificate) == set(tri)


def test_extendable_respects_partial():
    res = extendable(complete_graph(5), EdgeColoring.from_map(2, {0: 2}),
                     complete_graph(3), 2)
    assert res.extendable
    assert res.witness.color_of(0) == 2
    assert verify_witness(
        ArrowInstance.create(complete_graph(5), complete_graph(3), 2),
        res.witness)


def test_is_minimal():
    # K_6 arrows K_3 and every edge is needed
    assert is_minimal(complete_graph(6), complete_graph(3), 2)
    # K_{1,5} is minimal for K_{1,3}, K_{1,6} is not
    assert is_minimal(star_graph(5), star_graph(3), 2).verdict == MINIMAL
    res = is_minimal(star_graph(6), star_graph(3), 2)
    assert res.verdict == NOT_MINIMAL
    assert res.removable_edge is not None
    # non-arrowing graphs are not minimal
    assert is_minimal(complete_graph(5), complete_graph(3), 2).verdict == NOT_MINIMAL


def test_edge_in_no_copy_is_removable_without_search(monkeypatch):
    # edge 0 is a K2 beside a K6: no triangle uses it
    host = disjoint_union(single_edge(), complete_graph(6))
    calls = []
    create = ArrowInstance.create
    monkeypatch.setattr(ArrowInstance, "create",
                        lambda *args: calls.append(args) or create(*args))
    res = is_minimal(host, complete_graph(3), 2)
    assert (res.verdict, res.removable_edge, res.detail) == (
        NOT_MINIMAL, 0, "edge 0 is removable")
    assert len(calls) == 1


def test_edge_outside_the_support_is_removable_without_search(monkeypatch):
    # a triangle hung on vertex 0 of a K6, its edges first: it is a copy,
    # but the refutation of K6 ->2 K3 never touches it
    host = from_edges(8, [(0, 6), (0, 7), (6, 7)]
                      + list(itertools.combinations(range(6), 2)))
    k3 = complete_graph(3)
    inst = ArrowInstance.create(host, k3, 2)
    assert (0, 1, 2) in inst.copies
    assert all(e > 2 for es in arrows(inst).support for e in es)
    calls = []
    create = ArrowInstance.create
    monkeypatch.setattr(ArrowInstance, "create",
                        lambda *args: calls.append(args) or create(*args))
    res = is_minimal(host, k3, 2)
    assert (res.verdict, res.removable_edge, res.detail) == (
        NOT_MINIMAL, 0, "edge 0 is removable")
    assert len(calls) == 1


def test_minimalize_searches_only_support_edges(monkeypatch):
    # 29 searches and 2666 decisions when every edge was searched, 17 and
    # 828 when only support edges were; the first needed edge of K6 now
    # keeps its whole orbit, the other 14 edges, with no search
    decisions = []
    solve = arrowing._solve

    def spy(*args):
        found = solve(*args)
        decisions.append(found[2])
        return found

    monkeypatch.setattr(arrowing, "_solve", spy)
    g, verdict = minimalize(complete_graph(8), cycle_graph(4), 2)
    assert verdict == MINIMAL and g == complete_graph(6)
    assert (len(decisions), sum(decisions)) == (3, 338)


def test_minimalize_builds_g_minus_d_once_per_deletion(monkeypatch):
    # K8 -> C4 drops 13 edges, then finds the first needed edge; its
    # orbit test and the result share one G - D, where each needed edge
    # used to build its own and the result one more
    rebuilds = []
    delete_edges = Graph.delete_edges

    def spy(self, eids):
        eids = set(eids)
        rebuilds.append(len(eids))
        return delete_edges(self, eids)

    monkeypatch.setattr(Graph, "delete_edges", spy)
    g, verdict = minimalize(complete_graph(8), cycle_graph(4), 2)
    assert verdict == MINIMAL and g == complete_graph(6)
    assert rebuilds == [13]


def _nx_graph(nxg) -> Graph:
    return from_edges(nxg.number_of_nodes(), sorted(
        (min(e), max(e)) for e in nxg.edges))


@pytest.mark.parametrize("host, target", [
    (complete_graph(6), complete_graph(3)),
    (_nx_graph(nx.complete_bipartite_graph(3, 4)), path_graph(3)),
    (_nx_graph(nx.complete_bipartite_graph(2, 5)), star_graph(3)),
    (cycle_graph(7), path_graph(3)),
    (_nx_graph(nx.circulant_graph(8, [1, 4])), path_graph(3)),
    (_nx_graph(nx.petersen_graph()), path_graph(4)),
], ids=["K6-K3", "K3,4-P3", "K2,5-K1,3", "C7-P3", "C8(1,4)-P3",
        "Petersen-P4"])
def test_minimalize_keeps_orbits_on_symmetric_hosts(monkeypatch, host,
                                                      target):
    # each needed edge's automorphism orbit is kept without a search:
    # fewer searches find a free coloring than the result has edges,
    # where searching every needed edge takes one for each
    frees = []
    solve = arrowing._solve

    def spy(*args):
        found = solve(*args)
        frees.append(found[0] is True)
        return found

    monkeypatch.setattr(arrowing, "_solve", spy)
    g, verdict = minimalize(host, target, 2)
    assert sum(frees) < g.num_edges
    monkeypatch.undo()
    assert verdict == MINIMAL
    # the rebuilt subgraphs, each searched
    assert g == naive_minimalize(host, target, 2,
                                 lambda h, t, q: run(h, t, q).verdict)


def test_minimalize_keeps_no_orbit_once_the_clock_has_run_out(monkeypatch):
    # `_embed` stops with True past its deadline; such a True must keep
    # no edge, or the walk would call K6 minimal with no search left
    embeds = []

    def late(*args, deadline=None, **kwargs):
        embeds.append(deadline)
        while time.monotonic() <= deadline:
            time.sleep(0.005)
        return True

    monkeypatch.setattr(arrowing, "_embed", late)
    g, verdict = minimalize(complete_graph(8), cycle_graph(4), 2,
                            Budget(max_seconds=0.3))
    assert embeds and verdict == UNKNOWN
    monkeypatch.undo()
    assert run(g, cycle_graph(4)).verdict == ARROWS


def test_minimalize_out_of_budget_keeps_an_arrowing_graph(monkeypatch):
    # K6 with a pendant edge first: the base search arrows, the pendant
    # edge lies in no triangle and goes with no search, and the budget
    # runs out at the next search
    host = from_edges(7, [(0, 6), *complete_graph(6).edges])
    solve = arrowing._solve
    calls = []

    def spy(*args):
        calls.append(args)
        if len(calls) == 2:
            return None, None, 0, 0, 0, 0, ()
        return solve(*args)

    monkeypatch.setattr(arrowing, "_solve", spy)
    g, verdict = minimalize(host, complete_graph(3), 2)
    assert (verdict, len(calls)) == (UNKNOWN, 2)
    assert g == complete_graph(6)
    monkeypatch.undo()
    assert run(g, complete_graph(3)).verdict == ARROWS


def test_one_edge_copy_is_the_whole_support():
    res = arrows(ArrowInstance.create(path_graph(3), single_edge(), 2))
    assert (res.verdict, res.support) == (ARROWS, ((0,),))


def test_minimalize_star():
    g, verdict = minimalize(star_graph(7), star_graph(3), 2)
    assert verdict == MINIMAL
    # the only minimal subgraph is the 5-leaf star (plus isolated leaves)
    assert sorted(d for d in g.degrees() if d > 0) == [1, 1, 1, 1, 1, 5]


def test_degree_stats_and_bound():
    stats = min_degree_stats(star_graph(5))
    assert stats.min_degree == 1 and stats.min_count == 5
    assert stats.max_degree == 5
    assert stats.histogram_dict() == {1: 5, 5: 1}
    assert sq_lower_bound(complete_graph(3), 2) == 3
    assert sq_lower_bound(path_graph(4), 2) == 1
    with pytest.raises(GraphError):
        sq_lower_bound(from_edges(2, []), 2)


def test_dimacs_export():
    inst = ArrowInstance.create(complete_graph(3), path_graph(3), 2)
    text = to_dimacs(inst)
    lines = text.strip().splitlines()
    header = next(l for l in lines if l.startswith("p")).split()
    assert header[:2] == ["p", "cnf"]
    nvars, nclauses = int(header[2]), int(header[3])
    assert nvars == 6                       # 3 edges x 2 colors
    assert len([l for l in lines if not l.startswith(("c", "p"))]) == nclauses
    for line in lines:
        if line.startswith(("c", "p")):
            continue
        assert line.split()[-1] == "0"


def test_dimacs_satisfiable_iff_not_arrowing():
    # brute-force the CNF for a tiny arrowing instance
    def sat(inst):
        text = to_dimacs(inst)
        clauses = [[int(x) for x in l.split()[:-1]]
                   for l in text.splitlines()
                   if l and not l.startswith(("c", "p"))]
        nvars = max(abs(x) for cl in clauses for x in cl)
        for bits in itertools.product((False, True), repeat=nvars):
            def val(lit):
                return bits[abs(lit) - 1] if lit > 0 else not bits[abs(lit) - 1]
            if all(any(val(x) for x in cl) for cl in clauses):
                return True
        return False

    yes = ArrowInstance.create(star_graph(4), star_graph(3), 2)   # colorable
    no = ArrowInstance.create(star_graph(5), star_graph(3), 2)    # arrows
    assert sat(yes)
    assert not sat(no)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_hosts_match_oracle(data):
    n = data.draw(st.integers(3, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(data.draw(st.sets(st.sampled_from(pairs), min_size=2)))
    host = from_edges(n, chosen)
    target = data.draw(st.sampled_from([path_graph(3), complete_graph(3)]))
    assert run(host, target, 2).verdict == naive_arrows(host, target, 2)


TARGETS = [path_graph(3), path_graph(4), complete_graph(3), cycle_graph(4),
           star_graph(3)]


def small_host(data, q):
    """At most 7 vertices and 14 edges for 2 colors, 8 for 3."""
    n = data.draw(st.integers(3, 7))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.sets(st.sampled_from(pairs), min_size=1,
                               max_size=14 if q == 2 else 8))
    return from_edges(n, sorted(chosen))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arrows_matches_naive_oracle(data):
    q = data.draw(st.sampled_from([2, 3]))
    host = small_host(data, q)
    target = data.draw(st.sampled_from(TARGETS))
    inst = ArrowInstance.create(host, target, q)
    res = arrows(inst)
    assert res.verdict == naive_arrows(host, target, q)
    if res.verdict == DOES_NOT_ARROW:
        assert verify_witness(inst, res.witness)
        assert free_of(res.witness.as_dict(), nx_copies(host, target))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_local_search_matches_naive_oracle(data):
    q = data.draw(st.sampled_from([2, 3]))
    host = small_host(data, q)
    target = data.draw(st.sampled_from(TARGETS))
    fixed = data.draw(st.dictionaries(
        st.integers(0, host.num_edges - 1), st.integers(1, q)))
    inst = ArrowInstance.create(host, target, q)
    local = arrowing._local_search(host.num_edges, q, inst.copies, fixed,
                                   None)
    next(local)
    found = None
    for quota in (0, 1, 40, 400):            # its state carries over
        flips, found = local.send(quota)
        assert flips <= quota
        if found is not None:
            break
    if found is None:
        return
    assert all(found[e] == c for e, c in fixed.items())
    assert verify_witness(inst, EdgeColoring.from_map(q, found))
    assert free_of(found, nx_copies(host, target))
    assert free_extension_exists(host, target, q, fixed)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_alternating_phases_match_naive_oracle(data):
    # a stop after every doubling from the first decision on, each
    # handing the local search as many flips as decisions so far
    q = data.draw(st.sampled_from([2, 3]))
    host = small_host(data, q)
    target = data.draw(st.sampled_from(TARGETS))
    fixed = data.draw(st.dictionaries(
        st.integers(0, host.num_edges - 1), st.integers(1, q)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arrowing, "_LS_START", 1)
        mp.setattr(arrowing, "_LS_SHARE", 1)
        inst = ArrowInstance.create(host, target, q)
        res = arrows(inst)
        ext = extendable(host, EdgeColoring.from_map(q, fixed), target, q)
    assert res.verdict == naive_arrows(host, target, q)
    if res.verdict == DOES_NOT_ARROW:
        assert verify_witness(inst, res.witness)
    assert ext.extendable == free_extension_exists(host, target, q, fixed)
    if ext.extendable:
        assert all(ext.witness.color_of(e) == c for e, c in fixed.items())
        assert verify_witness(inst, ext.witness)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extendable_matches_brute_force(data):
    q = data.draw(st.sampled_from([2, 3]))
    host = small_host(data, q)
    target = data.draw(st.sampled_from(TARGETS))
    fixed = data.draw(st.dictionaries(
        st.integers(0, host.num_edges - 1), st.integers(1, q)))
    copies = nx_copies(host, target)
    truth = free_extension_exists(host, target, q, fixed, copies)
    res = extendable(host, EdgeColoring.from_map(q, fixed), target, q)
    assert res.extendable == truth
    if truth:
        witness = res.witness.as_dict()
        assert all(witness[e] == c for e, c in fixed.items())
        assert free_of(witness, copies)
    elif res.certificate is not None:
        assert frozenset(res.certificate) in copies
        assert len({fixed.get(e) for e in res.certificate}) == 1
        assert set(res.certificate) <= set(fixed)


# the wheel W4: hub 0 and the rim 1-2-3-4
W4 = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4),
                    (1, 2), (2, 3), (3, 4), (1, 4)])
# unfixed edges per color count, so that brute force stays small
FREE_EDGES = {2: 8, 3: 5, 4: 4}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_wide_copies_match_naive_oracle(data):
    # the search's per-copy counters for copies of 5, 6 and 8 edges have
    # 3 bits each and start at 3, 2 and 0: the wheel fills all 3 bits
    q = data.draw(st.sampled_from([2, 3, 4]))
    target = data.draw(st.sampled_from([cycle_graph(5), complete_graph(4),
                                        W4]))
    n = data.draw(st.integers(5, 7))
    pairs = list(itertools.combinations(range(n), 2))
    gone = data.draw(st.sets(st.sampled_from(pairs), max_size=5))
    host = from_edges(n, [p for p in pairs if p not in gone])
    m = host.num_edges
    keys = data.draw(st.sets(st.integers(0, m - 1), max_size=m,
                             min_size=max(0, m - FREE_EDGES[q])))
    fixed = {e: data.draw(st.integers(1, q)) for e in sorted(keys)}
    inst = ArrowInstance.create(host, target, q)
    copies = nx_copies(host, target)
    status, found = arrowing._solve(m, q, inst.copies, fixed,
                                    None, None)[:2]
    assert status == free_extension_exists(host, target, q, fixed, copies)
    if status:
        assert all(found[e] == c for e, c in fixed.items())
        assert free_of(found, copies)
    if m <= FREE_EDGES[q]:
        assert arrows(inst).verdict == naive_arrows(host, target, q)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_support_arrows_on_its_own(data):
    # the copies a refutation used arrow without the others; a witness
    # or an unknown names none
    q = data.draw(st.sampled_from([2, 3]))
    host = small_host(data, q)
    target = data.draw(st.sampled_from(TARGETS))
    budget = Budget(max_nodes=data.draw(st.sampled_from([None, 1, 4])))
    inst = ArrowInstance.create(host, target, q, budget)
    res = arrows(inst)
    if res.verdict != ARROWS:
        assert res.support == ()
        return
    assert set(res.support) <= set(inst.copies)
    assert arrowing._solve(host.num_edges, q, res.support, {},
                           None, None)[0] is False
    if host.num_edges <= FREE_EDGES[q]:
        assert not free_extension_exists(host, target, q, {},
                                         list(res.support))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_minimality_matches_rebuild_oracle(data):
    n = data.draw(st.integers(3, 7))
    pairs = list(itertools.combinations(range(n), 2))
    host = from_edges(n, sorted(data.draw(st.sets(st.sampled_from(pairs),
                                                  min_size=1, max_size=11))))
    target = data.draw(st.sampled_from(TARGETS))
    minimal = naive_is_minimal(host, target, 2)
    res = is_minimal(host, target, 2)
    assert (res.verdict == MINIMAL) == minimal
    if naive_arrows(host, target, 2) == DOES_NOT_ARROW:
        with pytest.raises(GraphError):
            minimalize(host, target, 2)
        return
    # the first removable edge, whether or not it lies in a copy
    assert res.removable_edge == next(
        (e for e in range(host.num_edges)
         if naive_arrows(host.delete_edge(e), target, 2) == ARROWS), None)
    g, verdict = minimalize(host, target, 2)
    assert verdict == MINIMAL
    assert g == naive_minimalize(host, target, 2)


def test_minimalize_enumerates_copies_once(monkeypatch):
    calls = []
    enumerate_copies = arrowing.enumerate_copies
    monkeypatch.setattr(arrowing, "enumerate_copies",
                        lambda host, pattern, *rest: calls.append(host)
                        or enumerate_copies(host, pattern, *rest))
    g, verdict = minimalize(star_graph(7), star_graph(3), 2)
    assert verdict == MINIMAL and g.num_edges == 5
    assert len(calls) == 1


def test_max_seconds_bounds_a_whole_minimalize_call():
    # every edge-deleted search of K9 ->2 C5 once got the full budget
    start = time.monotonic()
    g, verdict = minimalize(complete_graph(9), cycle_graph(5), 2,
                            Budget(max_seconds=0.8))
    assert time.monotonic() - start <= 0.8 + 0.4
    assert verdict in (UNKNOWN, MINIMAL)
    # no time left once the copies are enumerated: unknown, no search
    res = is_minimal(complete_graph(9), cycle_graph(5), 2,
                     Budget(max_seconds=1e-6))
    assert res.verdict == UNKNOWN


def test_is_minimal_enumerations_share_one_deadline(monkeypatch):
    # each edge-deleted instance once got the full max_seconds afresh
    deadlines = []
    enumerate_copies = arrowing.enumerate_copies

    def slow(host, pattern, deadline=None):
        deadlines.append(deadline)
        time.sleep(0.2)
        return enumerate_copies(host, pattern, deadline)

    monkeypatch.setattr(arrowing, "enumerate_copies", slow)
    res = is_minimal(complete_graph(6), complete_graph(3), 2,
                     Budget(max_seconds=0.3))
    assert res.verdict == UNKNOWN
    assert all(abs(d - deadlines[0]) <= 0.01 for d in deadlines)


def test_long_cycles_have_no_recursion_limit():
    assert run(cycle_graph(1001), path_graph(3)).verdict == ARROWS
    host = cycle_graph(1000)
    res = run(host, path_graph(3))
    assert res.verdict == DOES_NOT_ARROW
    assert verify_witness(ArrowInstance.create(host, path_graph(3), 2),
                          res.witness)
    # a P3-free 2-coloring of an even cycle alternates
    colors = res.witness.as_dict()
    assert all(colors[e] != colors[(e + 1) % 1000] for e in range(1000))


def test_host_with_5200_edges():
    # 520 disjoint copies of K5: 2600 decisions deep
    edges = [(5 * i + u, 5 * i + v) for i in range(520)
             for u, v in itertools.combinations(range(5), 2)]
    host = from_edges(2600, edges)
    res = run(host, complete_graph(3))
    assert res.verdict == DOES_NOT_ARROW
    colors = res.witness.as_dict()
    for u, v, w in ((5 * i + a, 5 * i + b, 5 * i + c) for i in range(520)
                    for a, b, c in itertools.combinations(range(5), 3)):
        tri = {colors[host.edge_id(u, v)], colors[host.edge_id(u, w)],
               colors[host.edge_id(v, w)]}
        assert len(tri) == 2
