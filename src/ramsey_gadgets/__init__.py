"""Gadget-based construction and desk-scale verification of minimal
Ramsey graphs: an exhaustive/budgeted arrowing engine, composable
signal-sender/indicator/pattern gadgets, and the abundance recipes
built on them."""

__version__ = "0.1.0"

from .arrowing import (ARROWS, DOES_NOT_ARROW, MINIMAL, NO_BUDGET,
                       NOT_MINIMAL, UNKNOWN, ArrowInstance, ArrowResult,
                       Budget, BudgetExhausted, DegreeStats, ExtendResult,
                       MinimalityResult, arrows, extendable, is_minimal,
                       min_degree_stats, minimalize, sq_lower_bound,
                       to_dimacs, verify_witness)
from .coloring import (EXACT, UP_TO_ISO, ColorPattern, EdgeColoring,
                       PatternFamily, pattern_of, patterns_isomorphic)
from .constructions import (AbundanceRecipe, CliqueGtildeSpec, CliqueLadder,
                            ThreeConnectedSeed, build_3connected_abundant,
                            build_clique_gtilde, build_cycle_abundant,
                            build_ktk2_abundant, check_seed, clique_ladder,
                            default_three_connected_seed, p4_abundant,
                            phi_coloring, psi_coloring, star_arrow_predicate,
                            star_degree_one_count_check)
from .gadgets import (NEGATIVE, POSITIVE, FixedSenderProvider, GNISpec,
                      IndicatorSpec, PatternGadgetSpec, PropertyResult,
                      SearchSenderProvider, SenderSpec, StubSenderProvider,
                      VerificationReport, build_gni, build_indicator,
                      build_pattern_gadget, check_robust, choose_r,
                      gni_expected_counts, make_stub_sender, search_sender,
                      string_senders, verify_gni, verify_indicator,
                      verify_pattern_gadget, verify_sender)
from .graph import (Graph, GraphError, ComposeError, InternalError,
                    compose, complete_graph, cycle_graph, clique_with_pendant,
                    disjoint_union, distance, edge_distance, enumerate_copies,
                    far_edge_pairs, from_edges, girth, graph_from_name,
                    graphs_isomorphic, is_k_connected, matching_graph,
                    path_graph, single_edge, star_graph)
from .graph6 import (FormatError, load_corpus, parse_any, parse_graph6,
                     parse_sparse6, read_graph_file, write_auto,
                     write_graph6, write_graph_file, write_sparse6)
from .manifest import ConstructionManifest, ManifestBuilder, ManifestStep
