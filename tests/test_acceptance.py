"""End-to-end acceptance checks.

Each test here is one acceptance criterion with its stated time budget.
Expected values are frozen from independent oracles (exhaustive coloring
enumeration, networkx cross-checks) — see the unit-test modules for the
oracle definitions.
"""

import json
import os
import time

import pytest

from conftest import naive_arrows, nx_copies
from test_constructions import mono_clique_free, no_extension_avoids_clique

from ramsey_gadgets import (ARROWS, DOES_NOT_ARROW, EXACT, MINIMAL,
                            NOT_MINIMAL,
                            ArrowInstance, EdgeColoring, FixedSenderProvider,
                            IndicatorSpec, PatternFamily, PatternGadgetSpec,
                            SenderSpec, StubSenderProvider, arrows,
                            build_gni, build_indicator, build_pattern_gadget,
                            check_robust, clique_ladder, complete_graph,
                            cycle_graph, graphs_isomorphic, is_minimal,
                            load_corpus, matching_graph, minimalize,
                            p4_abundant, path_graph, pattern_of,
                            search_sender, single_edge, star_arrow_predicate,
                            star_degree_one_count_check, star_graph,
                            verify_gni, verify_indicator,
                            verify_pattern_gadget, verify_sender,
                            verify_witness)
from ramsey_gadgets.gadgets import FAIL, NEGATIVE, PASS, POSITIVE

K3 = complete_graph(3)
P3 = path_graph(3)
P4 = path_graph(4)
STUB = StubSenderProvider()

# JSON file with a list of sender specifications; when it names fully
# verifiable senders for a 3-edge target, the semantic pipeline check runs.
SENDER_SPECS_ENV = "RAMSEY_SENDER_SPECS"


# ---------------------------------------------------------------------------
# 1. arrowing ground truth

def test_criterion_1_arrowing_ground_truth():
    t0 = time.monotonic()
    res = arrows(ArrowInstance.create(complete_graph(6), K3, 2))
    assert res.verdict == ARROWS
    assert time.monotonic() - t0 <= 10

    t0 = time.monotonic()
    res = arrows(ArrowInstance.create(complete_graph(5), K3, 2))
    assert res.verdict == DOES_NOT_ARROW
    assert verify_witness(ArrowInstance.create(complete_graph(5), K3, 2),
                          res.witness)
    assert time.monotonic() - t0 <= 10

    # independent oracle: plain enumeration of all 2^10 colorings of K5
    assert naive_arrows(complete_graph(5), K3, 2) == DOES_NOT_ARROW


# ---------------------------------------------------------------------------
# 2. pendant-cycle family for the 3-edge path
#
# p4_abundant(k) is minimal for the 3-edge path with 2 colors exactly for
# odd k >= 5.  At the boundary k=3 (the triangle with three pendants) the
# graph does not arrow at all: color the triangle with color 1 and the
# pendant matching with color 2; class 1 has only 3 vertices and class 2
# is a matching, so neither holds a 4-vertex path.  The k=3 case checks
# this refutation three ways: the exact NOT_MINIMAL verdict and detail
# from is_minimal, the explicit coloring through verify_witness, and the
# same coloring against every copy the networkx oracle finds.  The plain
# enumeration oracle confirms it in test_p4_abundant_k3_boundary_refutation.

@pytest.mark.parametrize("k", [3, 5])
def test_criterion_2_pendant_cycle_minimality(k):
    t0 = time.monotonic()
    g = p4_abundant(k)
    assert g.degrees().count(1) == k
    res = is_minimal(g, P4, 2)
    if k >= 5:
        assert res.verdict == MINIMAL, (
            f"p4_abundant({k}) is not minimal: {res.detail}")
    else:
        assert res.verdict == NOT_MINIMAL
        assert res.detail == "graph does not arrow"
        # cycle edges (both ends < k) get color 1, pendant edges color 2
        coloring = EdgeColoring.from_map(
            2, {g.edge_id(u, v): 1 if max(u, v) < k else 2
                for u, v in g.edges})
        assert verify_witness(ArrowInstance.create(g, P4, 2), coloring)
        copies = nx_copies(g, P4)
        assert copies
        assert all(len({coloring.color_of(e) for e in c}) > 1
                   for c in copies)
    assert time.monotonic() - t0 <= 60


# ---------------------------------------------------------------------------
# 3. star forcing predicate vs engine, whole corpus

def test_criterion_3_star_predicate_matches_engine():
    t0 = time.monotonic()
    mismatches = []
    for g in load_corpus():
        for m in (2, 3):
            verdict = arrows(ArrowInstance.create(g, star_graph(m), 2)).verdict
            assert verdict in (ARROWS, DOES_NOT_ARROW)
            if star_arrow_predicate(g, m) != (verdict == ARROWS):
                mismatches.append((g.edges, m))
    assert mismatches == []
    assert time.monotonic() - t0 <= 300


# ---------------------------------------------------------------------------
# 4. the unique minimal graph for the 3-star at corpus scale

def test_criterion_4_star_minimal_family():
    h = star_graph(3)
    found = [g for g in load_corpus()
             if is_minimal(g, h, 2).verdict == MINIMAL]
    assert len(found) == 1
    assert graphs_isomorphic(found[0], star_graph(5))
    assert is_minimal(star_graph(5), h, 2).verdict == MINIMAL
    assert star_graph(5).degrees().count(1) == 5          # q(m-1)+1
    assert star_degree_one_count_check(star_graph(5), 3) is True


# ---------------------------------------------------------------------------
# 5. clique coloring ladder

def test_criterion_5_clique_ladder():
    t0 = time.monotonic()
    lad2 = clique_ladder(2, 3)
    assert mono_clique_free(4, lad2.phi, 3)
    assert no_extension_avoids_clique(4, lad2.phi, 3, 2)   # all 16 fail
    assert mono_clique_free(5, lad2.psi, 3)

    lad3 = clique_ladder(3, 3)
    assert mono_clique_free(8, lad3.phi, 3)
    assert no_extension_avoids_clique(8, lad3.phi, 3, 3)   # all 6561 fail
    assert mono_clique_free(9, lad3.psi, 3)
    assert time.monotonic() - t0 <= 10


# ---------------------------------------------------------------------------
# 6. cycle minimum degree and the general degree bound

def test_criterion_6_cycle_min_degree_and_bound():
    g, verdict = minimalize(complete_graph(6), cycle_graph(4), 2)
    assert verdict == "minimal"
    degs = [d for d in g.degrees() if d > 0]
    assert min(degs) >= 3                                  # q + 1

    # degree bound for minimal graphs with a bipartite target:
    # every vertex degree >= q * (min target degree - 1) + 1
    produced = [(g, cycle_graph(4), 2)]
    m, verdict = minimalize(star_graph(7), star_graph(3), 2)
    assert verdict == "minimal"
    produced.append((m, star_graph(3), 2))
    produced.append((p4_abundant(5), P4, 2))
    produced.append((star_graph(5), star_graph(3), 2))
    for graph, target, q in produced:
        bound = q * (min(target.degrees()) - 1) + 1
        assert min(d for d in graph.degrees() if d > 0) >= bound


# ---------------------------------------------------------------------------
# 7. gadget structure + exact robustness checks

def _c4_family(q, size):
    c4 = cycle_graph(4)
    alt = pattern_of(c4, EdgeColoring.from_map(q, {0: 1, 1: 2, 2: 1, 3: 2}))
    adj = pattern_of(c4, EdgeColoring.from_map(q, {0: 1, 1: 1, 2: 2, 3: 2}))
    return c4, PatternFamily(c4, (alt, adj)[:size], EXACT)


def test_criterion_7_gadget_structure_and_robustness():
    t0 = time.monotonic()
    builds = []
    for q in (2, 3):
        for f in (P3, path_graph(4)):                      # 2 and 3 edges
            spec = build_indicator(K3, f, q, POSITIVE, STUB)
            builds.append((spec, verify_indicator, spec.f_vertices))
        rest = single_edge() if q == 2 else matching_graph(2)
        spec = build_gni(K3, P3, rest,
                         [[i] for i in range(rest.num_edges)], q, STUB)
        builds.append((spec, verify_gni,
                       tuple(spec.f_vertices) + tuple(spec.g_vertices)))
        for size in (1, 2):
            c4, family = _c4_family(q, size)
            spec = build_pattern_gadget(K3, c4, family, q, STUB)
            builds.append((spec, verify_pattern_gadget, spec.g_vertices))
    for spec, verifier, inner in builds:
        assert spec.status == "structurally_verified"
        report = verifier(spec)
        assert report.ok, report.to_json()
        robust = check_robust(spec.graph, inner, K3)
        assert robust.ok, robust.to_json()
    assert time.monotonic() - t0 <= 120


# ---------------------------------------------------------------------------
# 8. negative controls

def test_criterion_8_negative_controls():
    # a graph that forces the target outright is not a sender
    fake_sender = SenderSpec(complete_graph(6), 0, 14, POSITIVE, K3, 2, 1)
    rep = verify_sender(fake_sender)
    assert rep.outcome_of("S1") == FAIL

    # indicator edge with no machinery: free to disobey the subgraph color
    from ramsey_gadgets import disjoint_union
    g = disjoint_union(P3, single_edge())
    fake_ind = IndicatorSpec(g, (0, 1, 2), (0, 1), 2, POSITIVE, K3, 2, 1)
    rep = verify_indicator(fake_ind)
    assert rep.outcome_of("I3") == FAIL
    bad = next(r for r in rep.results if r.name == "I3")
    witness = EdgeColoring.from_json(2, bad.counterexample["coloring"])
    assert verify_witness(ArrowInstance.create(g, K3, 2), witness)
    assert witness.color_of(0) == witness.color_of(1) == 1
    assert witness.color_of(2) == 2

    # pattern gadget whose matching constrains nothing: an out-of-family
    # pattern extends to a target-free coloring
    c4, family = _c4_family(2, 2)
    g = disjoint_union(c4, single_edge())
    fake_pg = PatternGadgetSpec(g, (0, 1, 2, 3), (0, 1, 2, 3), family, K3, 2,
                                1, 1, (4,), (((0,), 0),))
    rep = verify_pattern_gadget(fake_pg)
    assert rep.outcome_of("P2") == FAIL
    bad = next(r for r in rep.results if r.name == "P2")
    witness = EdgeColoring.from_json(2, bad.counterexample["coloring"])
    assert verify_witness(ArrowInstance.create(g, K3, 2), witness)
    assert not family.contains(pattern_of(c4, witness.restricted([0, 1, 2, 3])))


# ---------------------------------------------------------------------------
# 9. full semantic pipeline (conditional)
#
# The coloring-level gadget properties need verified senders at signal
# distance >= v(target)+1 for a target with at least three edges.  No
# such sender exists in the bundled corpus: no corpus graph (all have
# <= 6 vertices) has an edge pair at distance >= 4, so the triangle
# search below comes back empty without running a single search.
# Exhaustive sender verification beyond ~6-vertex graphs is out of
# desk-scale reach, so this test normally skips; the
# structural and exact robustness checks of criterion 7 stand in for it.
# Supply verified senders via the environment variable to activate it.

def _available_semantic_senders():
    found = []
    for polarity in (POSITIVE, NEGATIVE):
        spec = search_sender(K3, 2, 4, polarity, max_order=6)
        if spec is not None:
            found.append(spec)
    path = os.environ.get(SENDER_SPECS_ENV)
    if path:
        with open(path) as fh:
            found.extend(SenderSpec.from_json(s) for s in json.load(fh))
    usable = []
    for spec in found:
        if spec.h.num_edges < 3 or spec.q != 2 or spec.d < spec.h.n + 1:
            continue
        if verify_sender(spec).fully_verified:
            usable.append(spec)
    return usable


def test_criterion_9_semantic_pipeline():
    senders = _available_semantic_senders()
    polarities = {s.polarity for s in senders}
    if polarities != {POSITIVE, NEGATIVE}:
        pytest.skip(
            "no fully verified sender pair at signal distance >= "
            "v(target)+1 for a 3-edge target is available at desk scale "
            "(corpus search exhausted; set "
            f"{SENDER_SPECS_ENV} to supply one); the structural and "
            "exact robustness checks of criterion 7 substitute")

    h = senders[0].h
    provider = FixedSenderProvider(senders)
    ind = build_indicator(h, matching_graph(2), 2, POSITIVE, provider)
    rep = verify_indicator(ind)
    assert all(r.outcome == PASS for r in rep.results), rep.to_json()

    gni = build_gni(h, matching_graph(2), single_edge(), [[0]], 2, provider)
    rep = verify_gni(gni)
    assert all(r.outcome == PASS for r in rep.results), rep.to_json()

    c4, family = _c4_family(2, 2)
    pg = build_pattern_gadget(h, c4, family, 2, provider)
    rep = verify_pattern_gadget(pg)
    assert all(r.outcome == PASS for r in rep.results), rep.to_json()
