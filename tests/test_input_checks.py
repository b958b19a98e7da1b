"""Every input check of the package raises its named error with its own
message, reached through a public entry point where one exists; and a
result's truth-value accessors raise BudgetExhausted on an unknown
verdict, never a guess."""

from dataclasses import replace

import pytest

from ramsey_gadgets import (EXACT, POSITIVE, ArrowInstance, Budget,
                            BudgetExhausted, ComposeError,
                            ConstructionManifest, EdgeColoring,
                            FixedSenderProvider, FormatError, Graph,
                            GraphError, IndicatorSpec, ManifestStep,
                            PatternFamily, SenderSpec, StubSenderProvider,
                            ThreeConnectedSeed, arrows,
                            build_3connected_abundant, build_clique_gtilde,
                            build_cycle_abundant, build_gni, build_indicator,
                            build_ktk2_abundant, build_pattern_gadget,
                            check_robust, check_seed,
                            clique_ladder, complete_graph, compose,
                            cycle_graph, default_three_connected_seed,
                            disjoint_union, distance, enumerate_copies,
                            extendable, graph_from_name, is_k_connected,
                            is_minimal, make_stub_sender, matching_graph,
                            min_degree_stats, path_graph, pattern_of,
                            search_sender, single_edge, sq_lower_bound,
                            star_arrow_predicate, string_senders,
                            write_sparse6)
from ramsey_gadgets.cli import main
from ramsey_gadgets.graph import MAX_ORDER

K3, P3 = complete_graph(3), path_graph(3)
C4, C5 = cycle_graph(4), cycle_graph(5)
STUB = StubSenderProvider()


def _c4_pattern(q):
    return pattern_of(C4, EdgeColoring.from_map(q, {0: 1, 1: 2, 2: 1, 3: 2}))


def _q3_gni():
    # two one-edge classes, ids 2 and 3 after P3's edges 0 and 1
    return build_gni(K3, P3, P3, [[0], [1]], 3, STUB)


def _unread_corpus():
    # the distance claim is checked before any corpus graph is read
    raise AssertionError("the corpus was read")
    yield


def _two_c5_seed():
    # the second 5-cycle alone still forces a one-colored P3 once an edge
    # of the first is gone, so condition F3 fails
    f = disjoint_union(C5, C5)
    return ThreeConnectedSeed(f, 5, 0, P3, 2)


CASES = [
    # arrowing
    ("budget-max-nodes", lambda: Budget(max_nodes=0),
     GraphError, "max_nodes must be positive"),
    ("instance-one-color", lambda: ArrowInstance.create(K3, K3, 1),
     GraphError, "need at least 2 colors"),
    ("instance-edgeless-target",
     lambda: ArrowInstance.create(K3, Graph(2, ()), 2),
     GraphError, "target must have edges"),
    ("extendable-other-q",
     lambda: extendable(K3, EdgeColoring.from_map(3, {0: 1}), P3, 2),
     GraphError, "partial coloring has wrong color count"),
    ("extendable-unknown-edge",
     lambda: extendable(K3, EdgeColoring.from_map(2, {7: 1}), P3, 2),
     GraphError, "partial coloring mentions unknown edge 7"),
    ("degree-stats-empty", lambda: min_degree_stats(Graph(0, ())),
     GraphError, "empty graph has no degrees"),
    ("degree-bound-one-color", lambda: sq_lower_bound(K3, 1),
     GraphError, "need at least 2 colors"),
    # coloring
    ("edge-colored-twice", lambda: EdgeColoring(2, ((0, 1), (0, 2))),
     GraphError, "edge colored twice"),
    # constructions
    ("ladder-one-color", lambda: clique_ladder(1, 3),
     GraphError, "ladder needs q >= 2 and clique size >= 3"),
    ("star-no-leaf", lambda: star_arrow_predicate(K3, 0),
     GraphError, "star needs at least one leaf"),
    ("cycle-recipe-one-color", lambda: build_cycle_abundant(1, 5, 1, STUB),
     GraphError, "need q >= 2 and k >= 1"),
    ("ktk2-small-clique", lambda: build_ktk2_abundant(2, 1, STUB),
     GraphError, "need clique size >= 3 and k >= 1"),
    ("seed-vertex-out-of-range",
     lambda: check_seed(ThreeConnectedSeed(C5, 5, 0, P3, 2)),
     GraphError, "marked vertex or edge out of range"),
    ("seed-f3-fails", lambda: check_seed(_two_c5_seed()),
     GraphError, "condition F3 fails: removing edge 0 still forces"),
    ("3conn-no-blocks",
     lambda: build_3connected_abundant(default_three_connected_seed(), 0,
                                       STUB),
     GraphError, "need k >= 1"),
    ("gtilde-small-clique", lambda: build_clique_gtilde(2, 2, STUB),
     GraphError, "need clique size >= 3 and q >= 2"),
    # gadgets
    ("report-unknown-property",
     lambda: check_robust(C5, [0, 1], K3).outcome_of("S1"),
     KeyError, "S1"),
    ("stub-distance-zero", lambda: make_stub_sender(P3, 2, 0, POSITIVE),
     GraphError, "distance must be at least 1"),
    ("indicator-one-edge-target",
     lambda: build_indicator(single_edge(), P3, 2, POSITIVE, STUB),
     GraphError, "target needs at least 2 edges"),
    ("indicator-short-girth",
     lambda: build_indicator(C4, K3, 2, POSITIVE, STUB),
     GraphError, "needs indicator subgraph of girth > 4"),
    ("indicator-polarity",
     lambda: build_indicator(K3, P3, 2, "sideways", STUB),
     GraphError, "unknown polarity 'sideways'"),
    ("pattern-gadget-empty-family",
     lambda: build_pattern_gadget(K3, C4, PatternFamily(C4, (), EXACT), 2,
                                  STUB),
     GraphError, "pattern family must be nonempty"),
    ("pattern-gadget-other-q",
     lambda: build_pattern_gadget(
         K3, C4, PatternFamily(C4, (_c4_pattern(3),), EXACT), 2, STUB),
     GraphError, "family pattern has wrong color count"),
    ("pattern-gadget-spec-other-q",
     lambda: replace(build_pattern_gadget(
         K3, C4, PatternFamily(C4, (_c4_pattern(2),), EXACT), 2, STUB),
         family=PatternFamily(C4, (_c4_pattern(3),), EXACT)),
     GraphError, "family pattern has wrong color count"),
    ("sender-one-signal-edge",
     lambda: SenderSpec(P3, 0, 0, POSITIVE, P3, 2, 1),
     GraphError, "signal edges must differ"),
    ("sender-polarity", lambda: SenderSpec(P3, 0, 1, "sideways", P3, 2, 1),
     GraphError, "unknown polarity 'sideways'"),
    ("sender-distance-zero",
     lambda: SenderSpec(P3, 0, 1, POSITIVE, P3, 2, 0),
     GraphError, "distance must be at least 1"),
    ("sender-spec-file-negative-distance",
     lambda: SenderSpec.from_json(
         {**make_stub_sender(P3, 2, 1, POSITIVE).to_json(), "d": -2}),
     GraphError, "distance must be at least 1"),
    ("search-sender-negative-distance",
     lambda: search_sender(P3, 2, -2, POSITIVE, 4, corpus=_unread_corpus()),
     GraphError, "distance must be at least 1"),
    ("sender-status",
     lambda: SenderSpec(P3, 0, 1, POSITIVE, P3, 2, 1, status="bogus"),
     GraphError, "sender spec has unknown status 'bogus'"),
    ("indicator-spec-polarity",
     lambda: IndicatorSpec(disjoint_union(P3, single_edge()), (0, 1, 2),
                           (0, 1), 2, "sideways", K3, 2, 1),
     GraphError, "indicator spec has unknown polarity 'sideways'"),
    ("indicator-spec-status",
     lambda: replace(build_indicator(K3, P3, 2, POSITIVE, STUB),
                     status="bogus"),
     GraphError, "indicator spec has unknown status 'bogus'"),
    ("indicator-spec-repeated-edge",
     lambda: replace(build_indicator(K3, P3, 2, POSITIVE, STUB),
                     f_eids=(0, 0)),
     GraphError, "indicator spec repeats edge 0"),
    ("gni-spec-merged-classes",
     lambda: replace(_q3_gni(), g_classes=((2, 3),)),
     GraphError, "generalized_negative_indicator spec needs q - 1 = 2 "
     "edge classes, not 1"),
    ("gni-spec-class-edge-twice",
     lambda: replace(_q3_gni(), g_classes=((2, 2), (3,))),
     GraphError, "generalized_negative_indicator spec repeats edge 2"),
    ("gni-spec-subgraph-edge-in-a-class",
     lambda: replace(_q3_gni(), g_classes=((2,), (1,))),
     GraphError, "generalized_negative_indicator spec repeats edge 1"),
    ("gni-spec-senders-status",
     lambda: replace(build_gni(K3, P3, single_edge(), [[0]], 2, STUB),
                     senders_status="bogus"),
     GraphError, "generalized_negative_indicator spec has unknown "
     "senders_status 'bogus'"),
    ("pattern-gadget-spec-status",
     lambda: replace(build_pattern_gadget(
         K3, C4, PatternFamily(C4, (_c4_pattern(2),), EXACT), 2, STUB),
         status="bogus"),
     GraphError, "pattern_gadget spec has unknown status 'bogus'"),
    ("fixed-sender-fails-s3",
     # P5's edges 0 and 3 lie 2 apart
     lambda: FixedSenderProvider([SenderSpec(path_graph(5), 0, 3, POSITIVE,
                                             P3, 2, 100)]),
     GraphError, "sender claims d = 100 but its signal edges lie 2 apart"),
    ("string-other-target",
     lambda: string_senders([make_stub_sender(P3, 2, 1, POSITIVE),
                             make_stub_sender(K3, 2, 1, POSITIVE)]),
     GraphError, "stringed senders must share target and color count"),
    # graph
    ("unknown-label", lambda: K3.vertex_by_label("x"), KeyError, "x"),
    ("short-cycle", lambda: cycle_graph(2),
     GraphError, "cycle needs at least 3 vertices"),
    ("distance-empty-set", lambda: distance(K3, [], [0]),
     GraphError, "distance requires nonempty sets"),
    ("connectivity-zero", lambda: is_k_connected(K3, 0),
     GraphError, "k must be >= 1"),
    ("edgeless-pattern", lambda: enumerate_copies(K3, Graph(2, ())),
     GraphError, "pattern must have at least one edge"),
    ("star-name-not-a-number", lambda: graph_from_name("K1,x"),
     GraphError, "cannot parse graph name 'K1,x'"),
    # a sign is not part of a named family's parameter: K1,-1 was the
    # empty graph and K1,-0 was K1,0
    ("star-name-negative", lambda: graph_from_name("K1,-1"),
     GraphError, "cannot parse graph name 'K1,-1'"),
    ("star-name-minus-zero", lambda: graph_from_name("K1,-0"),
     GraphError, "cannot parse graph name 'K1,-0'"),
    # refused before they are built: K2896 is the largest complete graph
    ("named-complete-too-large", lambda: graph_from_name("K3000"),
     GraphError, f"'K3000' gives 3000 vertices and 4498500 edges, above "
     f"the limit {MAX_ORDER}"),
    ("named-cycle-too-large", lambda: graph_from_name("C5000000"),
     GraphError, "'C5000000' gives 5000000 vertices"),
    ("named-star-too-large", lambda: graph_from_name("K1,5000000"),
     GraphError, "'K1,5000000' gives 5000001 vertices"),
    ("compose-out-of-range", lambda: compose(K3, single_edge(), {0: 5}),
     ComposeError, "identification 0->5 out of range"),
    ("negative-order", lambda: Graph(-1, ()),
     GraphError, "vertex count -1 is negative"),
    ("negative-order-labelled", lambda: Graph(-1, (), ("a",)),
     GraphError, "vertex count -1 is negative"),
    ("negative-complete", lambda: complete_graph(-2),
     GraphError, "vertex count -2 is negative"),
    ("negative-matching", lambda: matching_graph(-1),
     GraphError, "vertex count -2 is negative"),
    ("size-field-too-large", lambda: write_sparse6(Graph(MAX_ORDER + 1, ())),
     FormatError, f"vertex count {MAX_ORDER + 1} exceeds the limit"),
    # manifest
    ("manifest-step-kind",
     lambda: ConstructionManifest([ManifestStep("base", K3),
                                   ManifestStep("glue", None)]).replay(),
     ComposeError, "unknown manifest step kind 'glue'"),
]


@pytest.mark.parametrize("call, error, message",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_input_check_names_the_fault(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)


def test_cli_rejects_an_empty_graph_file(tmp_path, capsys):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    code = main(["stats", "--graph", f"file:{empty}", "--target", "C4"])
    assert code == 3
    assert f"no graphs in {str(empty)!r}" in capsys.readouterr().err


def test_decided_arrowing_reads_as_a_bool():
    for n, forced in ((6, True), (5, False)):
        inst = ArrowInstance.create(complete_graph(n), K3, 2)
        assert arrows(inst).arrows is forced


def test_unknown_extension_and_minimality_raise_when_read_as_bools():
    k6, spent = complete_graph(6), Budget(max_nodes=1)
    ext = extendable(k6, EdgeColoring.from_map(2, {}), K3, 2, spent)
    with pytest.raises(BudgetExhausted, match="the verdict is unknown"):
        ext.extendable
    minimal = is_minimal(k6, K3, 2, spent)
    with pytest.raises(BudgetExhausted, match="the verdict is unknown"):
        bool(minimal)
