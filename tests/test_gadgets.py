import hashlib
import json
import time
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nx_copies

from ramsey_gadgets import (DOES_NOT_ARROW, EXACT, Budget, BudgetExhausted,
                            EdgeColoring, GNISpec, Graph, GraphError,
                            IndicatorSpec, PatternFamily, PatternGadgetSpec,
                            SenderSpec, StubSenderProvider,
                            ThreeConnectedSeed, ArrowInstance,
                            build_3connected_abundant, build_clique_gtilde,
                            build_cycle_abundant, build_gni, build_indicator,
                            build_ktk2_abundant, build_pattern_gadget,
                            check_robust, choose_r, clique_with_pendant,
                            complete_graph, cycle_graph,
                            arrows, default_three_connected_seed,
                            disjoint_union, edge_distance, extendable,
                            from_edges, gni_expected_counts, load_corpus,
                            make_stub_sender, matching_graph, path_graph,
                            pattern_of, search_sender, single_edge, star_graph,
                            string_senders, verify_gni, verify_indicator,
                            verify_pattern_gadget, verify_sender,
                            verify_witness, UP_TO_ISO)
from ramsey_gadgets import gadgets
from ramsey_gadgets.gadgets import (EXHAUSTED, FAIL, NEGATIVE, PASS, POSITIVE,
                                    SKIPPED_STUB, STATUS_FULL, STATUS_STUB,
                                    STATUS_STRUCTURAL, STATUS_UNVERIFIED)

K3 = complete_graph(3)
P3 = path_graph(3)
STUB = StubSenderProvider()


def assert_json_round_trip(spec):
    """Every field survives to_json, a JSON text and from_json."""
    back = type(spec).from_json(json.loads(json.dumps(spec.to_json())))
    assert back == spec


# ---------------------------------------------------------------------------
# senders

def test_stub_sender_structure():
    for d in (1, 3, 5):
        s = make_stub_sender(K3, 2, d, POSITIVE)
        assert s.status == STATUS_STUB
        assert s.signal_distance() == d


def test_stub_sender_verification_skips_semantics():
    rep = verify_sender(make_stub_sender(K3, 2, 4, NEGATIVE))
    assert rep.outcome_of("S3") == PASS
    assert rep.outcome_of("S1") == SKIPPED_STUB
    assert rep.outcome_of("S2") == SKIPPED_STUB
    assert rep.ok and not rep.fully_verified


def test_sender_distance_axiom_failure():
    g = make_stub_sender(K3, 2, 1, POSITIVE).graph
    spec = SenderSpec(g, 0, 1, POSITIVE, K3, 2, 5, status=STATUS_STUB)
    rep = verify_sender(spec)
    assert rep.outcome_of("S3") == FAIL


def test_k6_is_not_a_sender():
    # arrows the target, so S1 must fail
    spec = SenderSpec(complete_graph(6), 0, 14, POSITIVE, K3, 2, 1)
    rep = verify_sender(spec)
    assert rep.outcome_of("S1") == FAIL
    assert not rep.ok


def test_sender_json_round_trip():
    assert_json_round_trip(make_stub_sender(K3, 3, 2, NEGATIVE))


def test_search_sender_for_path_target():
    spec = search_sender(P3, 2, 1, NEGATIVE, max_order=5)
    assert spec is not None
    assert spec.status == STATUS_FULL
    rep = verify_sender(spec)
    assert rep.fully_verified


def _count_instances(monkeypatch) -> list:
    calls = []
    create = ArrowInstance.create
    monkeypatch.setattr(ArrowInstance, "create",
                        lambda *args: calls.append(args) or create(*args))
    return calls


def test_search_sender_builds_one_instance_per_graph(monkeypatch):
    # S3 picks the four edge pairs of C8 at distance >= 3 first; the
    # graph's own search then decides S1, and each pair runs S2 on the
    # same instance
    calls = _count_instances(monkeypatch)
    assert search_sender(P3, 2, 3, NEGATIVE, 8,
                         corpus=[cycle_graph(8)]) is None
    assert len(calls) == 1


def test_search_sender_skips_graphs_without_a_far_pair(monkeypatch):
    # no bundled corpus graph (all have <= 6 vertices) has an edge pair
    # at distance >= 4, so the search enumerates no copies at all
    calls = _count_instances(monkeypatch)
    assert search_sender(K3, 2, 4, POSITIVE, max_order=6) is None
    assert calls == []


def test_search_sender_skips_supplied_graphs_above_max_order(monkeypatch):
    # K7 has edge pairs at distance 1, so only its order keeps it out
    calls = _count_instances(monkeypatch)
    assert search_sender(P3, 2, 1, POSITIVE, 5,
                         corpus=[complete_graph(7)]) is None
    assert calls == []


def test_search_provider_serves_a_found_sender_once(monkeypatch):
    searches = []
    search = gadgets.search_sender
    monkeypatch.setattr(gadgets, "search_sender",
                        lambda *args, **kw: searches.append(args)
                        or search(*args, **kw))
    provider = gadgets.SearchSenderProvider(5)
    spec = provider.get(POSITIVE, P3, 2, 1)
    assert spec.status == STATUS_FULL and spec.polarity == POSITIVE
    assert verify_sender(spec).fully_verified
    assert provider.get(POSITIVE, P3, 2, 1) is spec
    assert len(searches) == 1


def test_search_sender_keeps_one_clock():
    # K9 ->2 C5 is far beyond 0.05 s; each of the 20 graphs once got the
    # whole budget afresh (about 1.2 s in all) and the search then
    # reported no sender; the budget it left undecided is unknown
    start = time.monotonic()
    with pytest.raises(BudgetExhausted, match="budget"):
        search_sender(cycle_graph(5), 2, 1, POSITIVE, 9,
                      corpus=[complete_graph(9)] * 20,
                      budget=Budget(max_seconds=0.05))
    assert time.monotonic() - start < 0.5


def _scan_then_filter(h, q, d, polarity, corpus):
    """The sender search without the early distance filter: search
    every graph, then test each edge pair's distance with its own BFS."""
    for g in corpus:
        if g.num_edges < 2:
            continue
        inst = ArrowInstance.create(g, h, q)
        if arrows(inst).verdict != DOES_NOT_ARROW:
            continue
        for e, f in combinations(range(g.num_edges), 2):
            if edge_distance(g, [e], [f]) < d:
                continue
            spec = SenderSpec(g, e, f, polarity, h, q, d)
            if gadgets._sender_s2(spec, inst).outcome == PASS:
                return spec
    return None


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("polarity", [POSITIVE, NEGATIVE])
@pytest.mark.parametrize("h", [P3, K3], ids=["P3", "K3"])
def test_search_sender_matches_the_scan_then_filter_oracle(h, polarity, d):
    def found(spec):
        return spec and (spec.graph, spec.e, spec.f)

    corpus = load_corpus(max_order=6)
    assert found(search_sender(h, 2, d, polarity, 6, corpus)) == \
        found(_scan_then_filter(h, 2, d, polarity, corpus))


def test_string_senders():
    a = make_stub_sender(K3, 2, 2, POSITIVE)
    b = make_stub_sender(K3, 2, 3, NEGATIVE)
    s = string_senders([a, b])
    assert s.polarity == NEGATIVE
    assert s.d == 5
    assert s.status == STATUS_STUB
    assert s.signal_distance() >= 5
    with pytest.raises(GraphError):
        string_senders([b, a])          # negative must come last
    with pytest.raises(GraphError):
        string_senders([])


def test_chain_of_full_senders_is_unverified():
    # gluing keeps no S1: a P4 copy straddles the glued edge's two ends
    s = search_sender(path_graph(4), 2, 2, POSITIVE, max_order=6)
    assert s.status == STATUS_FULL and s.graph.n == 6
    chain = string_senders([s, s, s])
    assert chain.status == STATUS_UNVERIFIED and chain.d == 6
    assert verify_sender(chain).outcome_of("S1") == FAIL
    assert string_senders([s]).status == STATUS_FULL


# ---------------------------------------------------------------------------
# indicators

def test_indicator_two_edge_base_counts():
    spec = build_indicator(K3, P3, 2, POSITIVE, STUB)
    assert spec.senders_status == STATUS_STUB
    assert spec.status == STATUS_STRUCTURAL
    # one starting target copy, one sender per non-distinguished target
    # edge, one for the second subgraph edge, one positive to the edge
    assert spec.counts["start_copies"] == 1
    assert spec.counts["negative_senders"] == K3.num_edges - 2 + 1
    assert spec.counts["positive_senders"] == 1
    assert edge_distance(spec.graph, spec.f_eids, [spec.e]) >= spec.d
    assert spec.manifest.replay().edges == spec.graph.edges


def test_indicator_negative_polarity_adds_sender():
    pos = build_indicator(K3, P3, 2, POSITIVE, STUB)
    neg = build_indicator(K3, P3, 2, NEGATIVE, STUB)
    assert neg.counts["negative_senders"] == \
        pos.counts["negative_senders"] + 1
    assert neg.graph.num_edges > pos.graph.num_edges


def test_indicator_recursion_on_three_edges():
    spec = build_indicator(K3, path_graph(4), 2, POSITIVE, STUB)
    assert spec.counts["recursive_steps"] == 1
    assert spec.counts["base_q2"] == 2
    assert spec.status == STATUS_STRUCTURAL


def test_indicator_qgt2_base():
    spec = build_indicator(K3, path_graph(4).delete_edge(2), 3, POSITIVE, STUB)
    assert spec.counts["base_qgt2"] == 1
    assert spec.counts["start_copies"] == 2       # q-1 starting copies
    assert spec.status == STATUS_STRUCTURAL


def test_indicator_preconditions():
    with pytest.raises(GraphError):
        build_indicator(K3, complete_graph(4), 2, POSITIVE, STUB)   # contains K3
    with pytest.raises(GraphError):
        build_indicator(cycle_graph(4), cycle_graph(4), 2, POSITIVE, STUB)
    with pytest.raises(GraphError):
        build_indicator(K3, single_edge(), 2, POSITIVE, STUB)


def test_indicator_and_gni_need_two_colors():
    with pytest.raises(GraphError, match="q >= 2"):
        build_indicator(K3, P3, 1, POSITIVE, STUB)
    with pytest.raises(GraphError, match="q >= 2"):
        build_gni(K3, P3, Graph(2, ()), [], 1, STUB)


def test_verify_indicator_stub_skips():
    rep = verify_indicator(build_indicator(K3, P3, 2, POSITIVE, STUB))
    assert rep.outcome_of("I1") == PASS
    for name in ("I2", "I3", "I4"):
        assert rep.outcome_of(name) == SKIPPED_STUB
    assert rep.ok


def test_i1_fails_on_a_subgraph_that_is_not_induced():
    # f's edges (0,1) and (0,2) span the triangle's third edge (1,2)
    g = disjoint_union(K3, single_edge())
    for f_eids, outcome in (((0, 1), FAIL), ((0, 1, 2), PASS)):
        spec = IndicatorSpec(g, (0, 1, 2), f_eids, 3, POSITIVE, K3, 2, 1,
                             senders_status=STATUS_STUB)
        assert verify_indicator(spec).outcome_of("I1") == outcome


def test_verify_indicator_rejects_fake():
    # subgraph and indicator edge with no machinery between them: the
    # edge is free to disobey, so I3 must fail with a counterexample
    g = disjoint_union(P3, single_edge())
    fake = IndicatorSpec(g, (0, 1, 2), (0, 1), 2, POSITIVE, K3, 2, 1)
    rep = verify_indicator(fake)
    assert rep.outcome_of("I3") == FAIL
    bad = next(r for r in rep.results if r.name == "I3")
    witness = EdgeColoring.from_json(2, bad.counterexample["coloring"])
    # the counterexample really is a target-free coloring breaking I3
    assert verify_witness(ArrowInstance.create(g, K3, 2), witness)
    assert witness.color_of(0) == witness.color_of(1) == 1
    assert witness.color_of(2) == 2


def test_verify_indicator_stuck_case_names_its_partial():
    # the subgraph is the target itself, so no target-free coloring keeps
    # it monochromatic: I2 fails with the stuck partial coloring
    g = disjoint_union(K3, single_edge())
    fake = IndicatorSpec(g, (0, 1, 2), (0, 1, 2), 3, POSITIVE, K3, 2, 1)
    bad = next(r for r in verify_indicator(fake).results if r.name == "I2")
    assert bad.outcome == FAIL
    assert bad.counterexample == {"partial": [[0, 1], [1, 1], [2, 1]]}
    partial = EdgeColoring.from_json(2, bad.counterexample["partial"])
    assert extendable(g, partial, K3, 2).verdict == "not_extendable"


def test_verifier_stops_its_case_loop_on_an_expired_clock(monkeypatch):
    # every case is slowed to 0.05 s; the 72 I4 cases once all ran
    # (about 3.7 s), each search given the time left afresh
    spec = build_indicator(K3, path_graph(4), 3, POSITIVE, STUB)
    spec.senders_status = "unverified"
    extend = gadgets.extendable

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return extend(*args, **kwargs)

    monkeypatch.setattr(gadgets, "extendable", slow)
    start = time.monotonic()
    report = verify_indicator(spec, Budget(max_seconds=0.3))
    assert time.monotonic() - start < 1.5
    i4 = next(r for r in report.results if r.name == "I4")
    assert i4.outcome == EXHAUSTED
    covered = int(i4.detail.split()[1])
    assert i4.detail == f"covered {covered} of 72 cases" and covered < 72


def test_indicator_json_round_trip():
    assert_json_round_trip(build_indicator(K3, P3, 2, NEGATIVE, STUB))
    bare = IndicatorSpec(disjoint_union(P3, single_edge()), (0, 1, 2), (0, 1),
                         2, POSITIVE, K3, 2, 1)
    assert bare.manifest is None
    assert_json_round_trip(bare)


def test_spec_whose_manifest_does_not_replay_is_rejected():
    spec = build_indicator(K3, P3, 2, POSITIVE, STUB)
    data = json.loads(json.dumps(spec.to_json()))
    edges = data["graph"]["edges"]
    edges[0], edges[1] = edges[1], edges[0]     # same edge set, other ids
    with pytest.raises(GraphError, match="replay"):
        IndicatorSpec.from_json(data)
    relabelled = replace(spec, graph=spec.graph.relabel({0: "x"}))
    with pytest.raises(GraphError, match="replay"):
        IndicatorSpec.from_json(relabelled.to_json())


@pytest.mark.parametrize("damage", [
    lambda d: d.pop("e"),                                   # missing key
    lambda d: d.update(q="2"),                              # wrong type
    lambda d: d.update(f_eids=[0, [1]]),                    # wrong type
    lambda d: d["manifest"].update(manifest_version=1),     # old layout
    lambda d: d["manifest"]["steps"][1].update(part=99),    # no such part
    lambda d: d.update(kind="sender"),                      # other kind
    lambda d: d["h"].update(edges=[[0, 1, 2]]),             # bad graph
])
def test_malformed_spec_raises_graph_error(damage):
    data = json.loads(json.dumps(
        build_indicator(K3, P3, 2, POSITIVE, STUB).to_json()))
    damage(data)
    with pytest.raises(GraphError):
        IndicatorSpec.from_json(data)


# ---------------------------------------------------------------------------
# generalized negative indicators

@pytest.mark.parametrize("q", [2, 3])
def test_gni_counts_match_closed_form(q):
    g = matching_graph(q - 1) if q > 2 else single_edge()
    classes = [[i] for i in range(g.num_edges)]
    spec = build_gni(K3, P3, g, classes, q, STUB)
    expected = gni_expected_counts(q, [len(c) for c in classes])
    for key, val in expected.items():
        assert spec.counts.get(key, 0) == val, key
    assert spec.status == STATUS_STRUCTURAL
    assert len(spec.m_edges) == q - 1
    assert all(len(m) == q for m in spec.m_edges)
    assert all(len(p) == 2 for p in spec.p_edges)
    assert spec.manifest.replay().edges == spec.graph.edges


def test_gni_partition_validation():
    g = path_graph(3)
    with pytest.raises(GraphError):
        build_gni(K3, P3, g, [[0]], 2, STUB)            # does not cover
    with pytest.raises(GraphError):
        build_gni(K3, P3, g, [[0, 1], [1]], 3, STUB)    # overlap
    with pytest.raises(GraphError):
        build_gni(K3, P3, g, [[0, 1]], 3, STUB)         # wrong class count
    with pytest.raises(GraphError, match="must not contain the target"):
        build_gni(P3, P3, single_edge(), [[0]], 2, STUB)   # f contains it
    with pytest.raises(GraphError, match="class of g contains the target"):
        build_gni(K3, P3, K3, [[0, 1, 2]], 2, STUB)     # a class holds it


def test_verify_gni_stub_skips():
    rep = verify_gni(build_gni(K3, P3, single_edge(), [[0]], 2, STUB))
    assert rep.outcome_of("GI1") == PASS
    for name in ("GI2", "GI3", "GI4"):
        assert rep.outcome_of(name) == SKIPPED_STUB
    assert rep.ok


def test_gni_json_round_trip():
    assert_json_round_trip(build_gni(K3, P3, path_graph(3), [[0], [1]], 3,
                                     STUB))


# ---------------------------------------------------------------------------
# pattern gadgets

def test_choose_r():
    assert choose_r(2, 1) == 1
    assert choose_r(2, 2) == 2      # C(3,2) = 3 >= 2
    assert choose_r(2, 3) == 2
    assert choose_r(2, 4) == 3      # C(5,3) = 10
    assert choose_r(3, 2) == 2      # C(4,2) = 6
    with pytest.raises(GraphError):
        choose_r(1, 1)


def family_c4(q=2):
    c4 = cycle_graph(4)
    alt = pattern_of(c4, EdgeColoring.from_map(q, {0: 1, 1: 2, 2: 1, 3: 2}))
    adj = pattern_of(c4, EdgeColoring.from_map(q, {0: 1, 1: 1, 2: 2, 3: 2}))
    return c4, PatternFamily(c4, (alt, adj), EXACT)


@pytest.mark.parametrize("q", [2, 3])
def test_pattern_gadget_structure(q):
    c4, family = family_c4(q)
    spec = build_pattern_gadget(K3, c4, family, q, STUB)
    assert spec.r == 2
    assert len(spec.m_eids) == (spec.r - 1) * q + 1
    # surjective onto the family, overflow subsets fall back to pattern 0
    hit = {idx for _, idx in spec.surjection}
    assert hit == {0, 1}
    assert spec.status == STATUS_STRUCTURAL
    assert edge_distance(spec.graph, spec.m_eids, spec.g_eids) >= spec.d
    assert spec.manifest.replay().edges == spec.graph.edges


def test_pattern_gadget_single_pattern_q2_needs_no_rainbow_gadget(
        monkeypatch):
    c4 = cycle_graph(4)
    mono2 = pattern_of(c4, EdgeColoring.from_map(2, {e: 2 for e in range(4)}))
    family = PatternFamily(c4, (mono2,), EXACT)
    built = []
    real = gadgets.build_indicator
    monkeypatch.setattr(gadgets, "build_indicator",
                        lambda *a, **k: built.append(a) or real(*a, **k))
    spec = build_pattern_gadget(K3, c4, family, 2, STUB)
    # every edge sits in the last class: only positive indicators remain,
    # one-edge ones (r = 1), and no rainbow gadget's indicators are built
    assert spec.counts.get("gni_copies", 0) == 0
    assert built == []
    assert spec.counts["gni_skipped_empty"] == len(spec.surjection)


def test_pattern_gadget_rejects_bad_family():
    c4 = cycle_graph(4)
    mono = pattern_of(c4, EdgeColoring.from_map(2, {e: 1 for e in range(4)}))
    family = PatternFamily(c4, (mono,), EXACT)
    with pytest.raises(GraphError):
        build_pattern_gadget(cycle_graph(4), c4, family, 2, STUB)



def test_pattern_gadget_rejects_a_family_over_another_base():
    # P5 has C4's four edges, but the family's patterns color C4
    c4, family = family_c4()
    with pytest.raises(GraphError, match="family is not over"):
        build_pattern_gadget(K3, path_graph(5), family, 2, STUB)


@pytest.mark.parametrize("base", [
    [[0, 1], [1, 2], [2, 3], [0, 2]],       # four vertices, other edges
    [[0, 1], [1, 2], [2, 3], [0, 4]],       # P5: one vertex more
    [[1, 2], [0, 1], [2, 3], [0, 3]],       # C4 with two edges swapped
])
def test_pattern_gadget_spec_with_another_family_base_fails_at_load(base):
    c4, family = family_c4()
    data = json.loads(json.dumps(
        build_pattern_gadget(K3, c4, family, 2, STUB).to_json()))
    data["family"]["base"] = {"n": 1 + max(max(e) for e in base),
                              "edges": base}
    with pytest.raises(GraphError, match="family base differs"):
        PatternGadgetSpec.from_json(data)

def test_verify_pattern_gadget_stub_skips():
    c4, family = family_c4()
    rep = verify_pattern_gadget(build_pattern_gadget(K3, c4, family, 2, STUB))
    assert rep.outcome_of("P1") == PASS
    assert rep.outcome_of("P2") == SKIPPED_STUB
    assert rep.outcome_of("P3") == SKIPPED_STUB


def test_verify_pattern_gadget_rejects_fake():
    # base plus a bare matching with no senders constrains nothing, so
    # an out-of-family pattern extends freely
    c4, family = family_c4()
    g = disjoint_union(c4, single_edge())
    fake = PatternGadgetSpec(g, (0, 1, 2, 3), (0, 1, 2, 3), family, K3, 2,
                             1, 1, (4,), (((0,), 0),))
    rep = verify_pattern_gadget(fake)
    assert rep.outcome_of("P2") == FAIL
    bad = next(r for r in rep.results if r.name == "P2")
    witness = EdgeColoring.from_json(2, bad.counterexample["coloring"])
    assert verify_witness(ArrowInstance.create(g, K3, 2), witness)
    out = pattern_of(c4, witness.restricted([0, 1, 2, 3]))
    assert not family.contains(out)


def test_pattern_gadget_json_round_trip():
    c4, family = family_c4()
    assert_json_round_trip(build_pattern_gadget(K3, c4, family, 2, STUB))


def test_family_json_round_trip():
    # the family travels inside the spec's JSON form; both modes survive
    c4, family = family_c4()
    spec = build_pattern_gadget(K3, c4, family, 2, STUB)
    for fam in (family, PatternFamily(c4, family.members, UP_TO_ISO)):
        text = json.dumps(replace(spec, family=fam).to_json())
        back = PatternGadgetSpec.from_json(json.loads(text)).family
        assert back == fam
        assert back.mode == fam.mode
        assert len(back) == len(fam)
        assert all(back.contains(m) for m in fam.members)


@pytest.mark.parametrize("name, build, verify", [
    ("I1", lambda: build_indicator(K3, P3, 2, POSITIVE, STUB),
     verify_indicator),
    ("GI1", lambda: build_gni(K3, P3, single_edge(), [[0]], 2, STUB),
     verify_gni),
    ("P1", lambda: build_pattern_gadget(K3, *family_c4(), 2, STUB),
     verify_pattern_gadget),
], ids=["I1", "GI1", "P1"])
def test_structural_property_fails_below_the_distance(name, build, verify):
    # the builder promotes the spec with the predicate the verifier reports
    spec = build()
    assert spec.status == STATUS_STRUCTURAL
    assert verify(spec).results[0].outcome == PASS
    far = replace(spec, d=100)
    result = verify(far).results[0]
    assert (result.name, result.outcome) == (name, FAIL)
    assert " < 100" in result.detail


def test_gni_over_an_edgeless_graph_fails_gi1():
    # nothing to keep at distance d from the subgraph: a failed property,
    # not a distance error
    spec = build_gni(K3, P3, Graph(2, ()), [[]], 2, STUB)
    assert spec.status != STATUS_STRUCTURAL
    gi1 = verify_gni(spec).results[0]
    assert (gi1.name, gi1.outcome) == ("GI1", FAIL)


# ---------------------------------------------------------------------------
# robustness probe

def test_gi4_skips_class_colorings_with_a_target_copy():
    # g is a triangle split over two classes, so its 3 monochromatic
    # colorings are not target-free: 6 non-constant colorings of f times
    # the 24 others (stub senders, declared unverified)
    spec = build_gni(K3, matching_graph(2), K3, [[0, 1], [2]], 3, STUB)
    spec.senders_status = "unverified"
    gi4 = verify_gni(spec).results[3]
    assert (gi4.name, gi4.outcome, gi4.detail) == \
        ("GI4", PASS, "all 144 cases extend")


def test_gi3_fails_on_a_class_that_can_be_split():
    # f is the path 0-1-2 and the one class {(0,2), (3,4)}: with f colored
    # 1, coloring the class 1 (the palette case) or splitting it 1/2
    # closes a monochromatic triangle, but the 2/1 split extends
    graph = from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    spec = GNISpec(graph, (0, 1, 2), (0, 1), (0, 2, 3, 4), ((2, 3),), K3, 2,
                   1, (), (), ())
    gi3 = verify_gni(spec).results[2]
    assert (gi3.name, gi3.outcome, gi3.detail) == \
        ("GI3", FAIL, "class 1 can be split 2/1")
    colors = dict(EdgeColoring.from_json(
        2, gi3.counterexample["coloring"]).colors)
    assert sorted(colors) == list(range(graph.num_edges))
    assert {e: colors[e] for e in (0, 1, 2, 3)} == {0: 1, 1: 1, 2: 2, 3: 1}
    assert not any(len({colors[e] for e in copy}) == 1
                   for copy in nx_copies(graph, K3))



@pytest.mark.parametrize("graph, f_eids, cls, calls", [
    # K4, f the star at vertex 0, one class the triangle 1-2-3: with f
    # colored 1 a class edge of color 1 closes a triangle, so GI3 passes
    # after every split case
    (complete_graph(4), (0, 1, 2), (3, 4, 5), (5, 7)),
    # the split test's graph with a third class edge: the first pair
    # already splits 2/1
    (from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]), (0, 1),
     (2, 3, 4), (3, 3)),
])
def test_gi3_splits_a_class_only_against_its_first_edge(graph, f_eids, cls,
                                                       calls, monkeypatch):
    spec = GNISpec(graph, tuple(range(graph.n)), f_eids, (), (cls,), K3, 2,
                   1, (), (), ())
    made = []

    def counted(*args, **kwargs):
        made.append(args[1])
        return extendable(*args, **kwargs)
    monkeypatch.setattr(gadgets, "extendable", counted)
    # GI2 makes one case and GI4, with max_cases 0, none
    gi3 = verify_gni(spec, max_cases=0).results[2]
    new_calls = len(made) - 1
    # the loop over every pair of class edges that this one replaced
    mono = {e: 1 for e in f_eids}
    pairwise = [({**mono, **{e: 1 for e in cls}},
                 "monochromatic classes colored (1,) extend")]
    pairwise += [({**mono, e1: a, e2: b}, f"class 1 can be split {a}/{b}")
                 for e1, e2 in combinations(cls, 2)
                 for a, b in ((1, 2), (2, 1))]
    made.clear()
    old = gadgets._check_cases("GI3", ArrowInstance.create(graph, K3, 2),
                               pairwise, False)
    assert (new_calls, len(made)) == calls
    assert gi3.to_json() == old.to_json()

def counting_product(monkeypatch) -> list:
    """Records each coloring the verifiers draw from `gadgets.product`."""
    drawn = []
    product = gadgets.product

    def counted(*args, **kwargs):
        for item in product(*args, **kwargs):
            drawn.append(item)
            yield item

    monkeypatch.setattr(gadgets, "product", counted)
    return drawn


def test_i4_and_gi4_make_cases_only_as_the_loop_reaches_them(monkeypatch):
    # a 15-edge subgraph has 2^15 - 2 non-constant colorings; out of
    # time, the verifiers report the closed-form count without drawing
    # more colorings than the cases they reach (at most max_cases)
    drawn = counting_product(monkeypatch)
    f = path_graph(16)
    for spec, verify, name in (
            (build_indicator(K3, f, 2, POSITIVE, STUB), verify_indicator,
             "I4"),
            (build_gni(K3, f, single_edge(), [[0]], 2, STUB), verify_gni,
             "GI4")):
        spec.senders_status = "unverified"
        drawn.clear()
        result = next(r for r in verify(spec, Budget(max_seconds=0.01)).results
                      if r.name == name)
        assert result.outcome == EXHAUSTED
        assert result.detail.endswith(" of 65532 cases")
        assert len(drawn) < 1000


def test_gi4_reads_the_clock_while_listing_class_colorings(monkeypatch):
    # one 16-edge matching class has 2^16 colorings to test for target
    # copies before the first case; out of time, the scan stops early
    # (one coloring takes microseconds, so 10 ms reach far fewer than 2^14)
    drawn = counting_product(monkeypatch)
    spec = build_gni(K3, P3, matching_graph(16), [list(range(16))], 2, STUB)
    spec.senders_status = "unverified"
    gi4 = verify_gni(spec, Budget(max_seconds=0.01)).results[3]
    assert (gi4.name, gi4.outcome) == ("GI4", EXHAUSTED)
    assert len(drawn) < 2 ** 14


def _clique_pendant_gadget() -> PatternGadgetSpec:
    # K3 plus a pendant; the base is a triangle, colored monochromatic by
    # both family patterns, and vertex 3 closes a clique copy with the
    # base edge (0, 1), which every free extension leaves non-monochromatic
    h = clique_with_pendant(3)
    graph = from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (4, 5)])
    base = complete_graph(3)
    family = PatternFamily(base, tuple(
        pattern_of(base, EdgeColoring.from_map(2, {0: c, 1: c, 2: c}))
        for c in (1, 2)), EXACT)
    return PatternGadgetSpec(graph, (0, 1, 2), (0, 1, 2), family, h, 2, 4, 1,
                             (5,), (((0,), 0),))


def test_clique_copy_flag_enumerates_cliques_once(monkeypatch):
    spec = _clique_pendant_gadget()
    calls = []
    enumerate_copies = gadgets.enumerate_copies
    monkeypatch.setattr(gadgets, "enumerate_copies",
                        lambda host, pattern, deadline: calls.append(pattern)
                        or enumerate_copies(host, pattern, deadline))
    p3 = verify_pattern_gadget(spec).results[2]
    assert p3.name == "P3" and p3.outcome == PASS
    assert p3.detail.endswith("clique-copy containment flag holds")
    assert calls == [complete_graph(3)]


def test_clique_copy_flag_out_of_time_is_unknown(monkeypatch):
    # the clique copies are enumerated under the verifier's clock; when
    # it runs out there, P3 is unknown, not passed
    deadlines = []
    monkeypatch.setattr(gadgets, "enumerate_copies",
                        lambda host, pattern, deadline:
                        deadlines.append(deadline))
    budget = Budget(max_seconds=60)
    p3 = verify_pattern_gadget(_clique_pendant_gadget(), budget).results[2]
    assert (p3.name, p3.outcome) == ("P3", EXHAUSTED)
    assert p3.detail.endswith("clique-copy containment flag undecided")
    assert len(deadlines) == 1 and deadlines[0] is not None


def test_check_robust_clean_case():
    g = build_pattern_gadget(K3, cycle_graph(4), family_c4()[1], 2, STUB)
    rep = check_robust(g.graph, g.g_vertices, K3, trials=300, seed=7)
    assert rep.ok


def test_check_robust_finds_violation():
    # P3 with inner = its endpoints: adding the closing edge creates a
    # triangle straddling the original graph and the augmentation
    rep = check_robust(P3, [0, 2], K3, trials=2000, seed=1)
    assert not rep.ok
    assert any(r.outcome == FAIL for r in rep.results)


def test_check_robust_deterministic_under_seed():
    g = cycle_graph(5)
    a = check_robust(g, [0, 1], K3, trials=100, seed=3).to_json()
    b = check_robust(g, [0, 1], K3, trials=100, seed=3).to_json()
    assert a == b


def test_check_robust_rejects_bad_vertices():
    with pytest.raises(GraphError):
        check_robust(P3, [99], K3, trials=1)


def test_check_robust_rejects_negative_s_max():
    with pytest.raises(GraphError):
        check_robust(P3, [0, 2], K3, s_max=-1)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_check_robust_rejects_a_target_with_no_edges(n):
    # K0 once raised IndexError, and K1 or three isolated vertices
    # passed as robust
    with pytest.raises(GraphError, match="target must have edges"):
        check_robust(K3, [0, 1], Graph(n, ()))


def robust_oracle(outer, inner, h, s_max) -> bool:
    """Whether some augmentation by s_max new vertices S and a set of new
    edges within inner and S has a copy of h that is neither inside the
    original edges nor inside inner and S: every such edge set is tried,
    with the networkx copy enumerator."""
    n = outer.n + s_max
    pool = sorted(inner) + list(range(outer.n, n))
    original = set(outer.edges)
    free = [e for e in combinations(pool, 2) if e not in original]
    for k in range(1, len(free) + 1):
        for extra in combinations(free, k):
            aug = from_edges(n, list(outer.edges) + list(extra))
            for copy in nx_copies(aug, h):
                edges = {aug.edges[e] for e in copy}
                verts = {v for e in edges for v in e}
                if not edges <= original and not verts <= set(pool):
                    return True
    return False


ROBUST_TARGETS = [P3, K3, cycle_graph(4), star_graph(3), path_graph(4)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_robust_matches_exhaustive_oracle(data):
    n = data.draw(st.integers(2, 5))
    pairs = list(combinations(range(n), 2))
    outer = from_edges(n, data.draw(st.lists(st.sampled_from(pairs),
                                             unique=True)))
    inner = data.draw(st.sets(st.integers(0, n - 1), max_size=4))
    s_max = data.draw(st.integers(0, 4 - len(inner)))
    h = data.draw(st.sampled_from(ROBUST_TARGETS))
    result = check_robust(outer, inner, h, s_max=s_max).results[0]
    assert result.method == "exhaustive"
    assert (result.outcome == FAIL) == robust_oracle(outer, inner, h, s_max)
    if result.outcome == PASS:
        return
    # the counterexample re-checks: in the stated augmentation some copy
    # on the stated vertices uses every stated added edge and a vertex
    # outside inner and S
    cex = result.counterexample
    aug_n = outer.n + cex["new_vertices"]
    assert cex["new_vertices"] <= s_max
    allowed = set(inner) | set(range(outer.n, aug_n))
    added = {tuple(e) for e in cex["added_edges"]}
    assert added and not added & set(outer.edges)
    assert all(u in allowed and v in allowed for u, v in added)
    verts = set(cex["copy_vertices"])
    assert not verts <= allowed
    aug = from_edges(aug_n, list(outer.edges) + sorted(added))
    assert any({v for e in copy for v in aug.edges[e]} == verts
               and added <= {aug.edges[e] for e in copy}
               for copy in nx_copies(aug, h))


# ---------------------------------------------------------------------------
# pinned verifier reports
#
# Nine of criterion 7's stub builds, declared as built from unverified
# senders so that every coloring-level property runs.  Stubs do not have
# the coloring semantics, so the reports mix passes and refutations with
# counterexamples; a one-decision node budget turns every search property
# into budget_exhausted, and max_cases caps the two largest case loops (I4
# with 72 cases, GI4 with 54).  The expected reports were recorded before
# the verifiers shared one case loop and before the search propagated.
# `pattern q=3 family=2` is checked on its own below.

PINNED_REPORTS = Path(__file__).with_name("verifier_reports.json")


def _pinned_builds():
    for q in (2, 3):
        for name, f in (("P3", P3), ("P4", path_graph(4))):
            yield (f"indicator q={q} F={name}",
                   build_indicator(K3, f, q, POSITIVE, STUB), verify_indicator)
        rest = single_edge() if q == 2 else matching_graph(2)
        yield (f"gni q={q}",
               build_gni(K3, P3, rest, [[i] for i in range(rest.num_edges)],
                         q, STUB), verify_gni)
        for size in (1, 2) if q == 2 else (1,):
            c4, family = family_c4(q)
            family = PatternFamily(c4, family.members[:size], EXACT)
            yield (f"pattern q={q} family={size}",
                   build_pattern_gadget(K3, c4, family, q, STUB),
                   verify_pattern_gadget)


def pinned_reports() -> dict:
    out = {}
    for key, spec, verify in _pinned_builds():
        spec.senders_status = "unverified"
        out[key] = verify(spec).to_json()
        out[f"{key} max_nodes=1"] = verify(spec, Budget(max_nodes=1)).to_json()
        if key in ("indicator q=3 F=P4", "gni q=3"):
            out[f"{key} max_cases=10"] = verify(spec, max_cases=10).to_json()
    return json.loads(json.dumps(out))


def test_verifier_reports_are_pinned():
    want = json.loads(PINNED_REPORTS.read_text())
    got = pinned_reports()
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


def test_verify_large_pattern_gadget():
    # 3894 vertices: once out of reach of a recursive search
    c4, family = family_c4(3)
    family = PatternFamily(c4, family.members[:2], EXACT)
    spec = build_pattern_gadget(K3, c4, family, 3, STUB)
    spec.senders_status = "unverified"
    assert spec.graph.n == 3894
    start = time.monotonic()
    report = verify_pattern_gadget(spec)
    assert time.monotonic() - start < 5
    assert [(r.name, r.outcome) for r in report.results] == \
        [("P1", PASS), ("P2", FAIL), ("P3", PASS)]
    coloring = EdgeColoring.from_json(
        3, report.results[1].counterexample["coloring"])
    assert verify_witness(ArrowInstance.create(spec.graph, K3, 3), coloring)
    induced = pattern_of(c4, EdgeColoring.from_map(
        3, {i: coloring.color_of(e) for i, e in enumerate(spec.g_eids)}))
    assert not family.contains(induced)


# ---------------------------------------------------------------------------
# pinned builds
#
# The sha256 of each build's spec JSON and manifest JSON (and, for the
# abundance recipes, of the pattern gadget's spec, which carries the piece
# counts), as recorded before the builders shared one assembly path: the
# step order, edge ids, labels, counts and statuses must not change.

PINNED_BUILDS = Path(__file__).with_name("build_digests.json")


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def _golden_builds():
    for q in (2, 3):
        for name, f in (("P3", P3), ("P4", path_graph(4))):
            for polarity in (POSITIVE, NEGATIVE):
                yield (f"indicator q={q} F={name} {polarity}",
                       build_indicator(K3, f, q, polarity, STUB))
    for key, spec, _ in _pinned_builds():
        if not key.startswith("indicator"):
            yield key, spec
    for q, t, k in ((2, 5, 3), (3, 4, 1)):
        yield f"cycle_abundant {q},{t},{k}", build_cycle_abundant(q, t, k, STUB)
    for t, k in ((3, 2), (4, 1)):
        yield f"ktk2_abundant {t},{k}", build_ktk2_abundant(t, k, STUB)
    c7 = cycle_graph(7)
    for name, seed, k in (
            ("default", default_three_connected_seed(), 2),
            ("C7", ThreeConnectedSeed(c7, 0, c7.edge_id(3, 4), P3, 2), 3)):
        yield (f"3connected_abundant {name},{k}",
               build_3connected_abundant(seed, k, STUB))
    for t, q in ((3, 2), (3, 3)):
        yield f"clique_gtilde {t},{q}", build_clique_gtilde(t, q, STUB)
    yield "string_senders", string_senders(
        [make_stub_sender(K3, 2, 2, POSITIVE), make_stub_sender(K3, 2, 1, POSITIVE),
         make_stub_sender(K3, 2, 3, NEGATIVE)])


def pinned_build_digests() -> dict:
    out = {}
    for key, x in _golden_builds():
        out[key] = {"spec": _digest(x.to_json())}
        if getattr(x, "manifest", None) is not None:
            out[key]["manifest"] = _digest(x.manifest.to_json())
        if hasattr(x, "gadget"):
            out[key]["gadget"] = _digest(x.gadget.to_json())
    return out


def test_builds_are_pinned():
    want = json.loads(PINNED_BUILDS.read_text())
    got = pinned_build_digests()
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key
