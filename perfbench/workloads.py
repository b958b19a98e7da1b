"""The benchmark's three workloads.

Each workload's `setup(lib, seed)` makes its inputs from the seed and
returns the fixed list of operations of one pass.  An operation's `run`
calls the library through module attributes looked up at call time
(`lib.arrows`, not a copied reference), so the traced run's wrappers
see every call.  Its `check(result, deep)` compares the result with
ground truth from `check.py`, raises `WrongResult` on a wrong answer,
and returns whether the result is decided plus the exact facts
(verdict, search nodes, copies, bytes, witness checksums) that two
passes over the same inputs must reproduce.  `deep` is set on a run's
first pass and turns on the expensive brute-force checks; later passes
must repeat the first pass's facts exactly.

See README.md for why each workload and each operation is there.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from check import (arrows_brute, check_free_coloring, cycle_copies, degrees,
                   digest, edge_distance, free_colorings, is_complete,
                   is_sender, is_star, no_free_extension, p3_forced_2, require,
                   star_forced_2)

# A beyond-reach operation costs exactly this budget.  Every current
# decide time of those operations is at least 20 times larger.
HARD_BUDGET_S = 1.0
# Every other search call gets this budget.  It is far above every
# decide time and only keeps a hang from stalling the benchmark.
SAFE_BUDGET_S = 120.0
# Seeded full relabellings per small host and pass.
RELABELLINGS = 4
ROBUST_TRIALS = 500


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, bool], tuple[bool, dict]]


def plain(g) -> tuple[int, tuple[tuple[int, int], ...]]:
    return g.n, tuple(g.edges)


def coloring_dict(coloring) -> dict[int, int]:
    return {int(e): int(c) for e, c in coloring.colors}


def relabel_vertices(lib, g, rng: random.Random):
    """Seeded vertex permutation; edge i of the result is the image of
    edge i of g, so edge ids (and colorings given on them) carry over."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return lib.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def relabel_full(lib, g, rng: random.Random):
    """Seeded vertex permutation and seeded edge order."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return lib.from_edges(g.n, edges)


# ---------------------------------------------------------------------------
# operation builders shared by the workloads

def arrows_op(lib, name: str, host, target, q: int, budget_s: float,
              expect: Callable[[], bool]) -> Op:
    """`arrows` on a fresh instance; expect() is the ground truth."""
    budget = lib.Budget(max_seconds=budget_s)
    n, edges = plain(host)
    tn, tedges = plain(target)

    def run():
        inst = lib.ArrowInstance.create(host, target, q, budget)
        return len(inst.copies), lib.arrows(inst)

    def check(result, deep):
        copies, res = result
        if res.verdict == lib.UNKNOWN:
            return False, {"verdict": res.verdict, "copies": copies}
        truth = lib.ARROWS if expect() else lib.DOES_NOT_ARROW
        require(res.verdict == truth, f"{name}: {res.verdict}, truth {truth}")
        facts = {"verdict": res.verdict, "copies": copies,
                 "nodes": res.stats.nodes}
        if res.verdict == lib.DOES_NOT_ARROW:
            witness = coloring_dict(res.witness)
            check_free_coloring(n, edges, witness, q, tn, tedges)
            facts["witness"] = digest(sorted(witness.items()))
        return True, facts

    return Op(name, run, check)


def extendable_op(lib, name: str, host, partial: dict[int, int], target,
                  q: int, budget_s: float,
                  deep_truth: Optional[Callable[[], bool]]) -> Op:
    """`extendable` of a partial coloring expected to be stuck; when
    deep, deep_truth() re-derives that by brute force.  Without it the
    expected verdict rests on the construction alone."""
    budget = lib.Budget(max_seconds=budget_s)
    coloring = lib.EdgeColoring.from_map(q, partial)
    n, edges = plain(host)
    tn, tedges = plain(target)

    def run():
        return lib.extendable(host, coloring, target, q, budget)

    def check(res, deep):
        if res.verdict == lib.UNKNOWN:
            return False, {"verdict": res.verdict}
        if res.verdict == "extendable":
            # a valid witness would refute the construction itself
            check_free_coloring(n, edges, coloring_dict(res.witness), q, tn,
                                tedges, partial)
        require(res.verdict == "not_extendable", f"{name}: {res.verdict}")
        if deep and deep_truth is not None:
            require(deep_truth(), f"{name}: brute force finds a free extension")
        return True, {"verdict": res.verdict, "nodes": res.stats.nodes}

    return Op(name, run, check)


# ---------------------------------------------------------------------------
# ramsey-search

def ramsey_search(lib, seed: int) -> list[Op]:
    rng = random.Random(seed)
    K, C, P = lib.complete_graph, lib.cycle_graph, lib.path_graph
    K3, K4, C4, C5, P3 = K(3), K(4), C(4), C(5), P(3)
    yes, no = (lambda: True), (lambda: False)
    ops: list[Op] = []

    # small hosts: cost stays within a few thousand nodes under any edge
    # order, so each appears under several full relabellings
    for n, tname, target, q, truth in (
            (5, "K3", K3, 2, no),     # R(3,3) = 6
            (6, "K3", K3, 2, yes),
            (6, "C4", C4, 2, yes),    # R(C4,C4) = 6
            (8, "C5", C5, 2, no)):    # R(C5,C5) = 9
        for i in range(RELABELLINGS):
            host = relabel_full(lib, K(n), rng)
            ops.append(arrows_op(lib, f"arrows K{n}->{tname} q={q} #{i}",
                                 host, target, q, SAFE_BUDGET_S, truth))

    # Ramsey-scale hosts keep their construction edge order: under random
    # edge orders their cost is heavy-tailed and the verdict would depend
    # on the seed
    for n, tname, target, q, truth, budget in (
            (9, "C5", C5, 2, yes, SAFE_BUDGET_S),
            (9, "K3", K3, 3, no, SAFE_BUDGET_S),    # R(3,3,3) = 17
            (10, "K3", K3, 3, no, HARD_BUDGET_S),
            (13, "K4", K4, 2, no, HARD_BUDGET_S),   # R(4,4) = 18
            (16, "K3", K3, 3, no, HARD_BUDGET_S),
            (17, "K4", K4, 2, no, HARD_BUDGET_S)):
        host = relabel_vertices(lib, K(n), rng)
        ops.append(arrows_op(lib, f"arrows K{n}->{tname} q={q}", host, target,
                             q, budget, truth))

    # clique ladder: phi(q,t) fixed on K_n, one new vertex to color
    for q, t, budget in ((3, 3, SAFE_BUDGET_S), (2, 4, SAFE_BUDGET_S),
                         (4, 3, HARD_BUDGET_S)):
        n = (t - 1) ** q
        base, kn = K(n + 1), K(n)
        phi = lib.phi_coloring(q, t)
        partial = {base.edge_id(*kn.edges[e]): c
                   for e, c in coloring_dict(phi).items()}
        host = relabel_vertices(lib, base, rng)
        hn, hedges = plain(host)
        # brute force tries all q^n colorings of the new vertex's edges
        truth = (lambda hn=hn, hedges=hedges, partial=partial, t=t, q=q:
                 no_free_extension(hn, hedges, partial, t, q))
        ops.append(extendable_op(
            lib, f"extendable ladder q={q} t={t}", host, partial, K(t), q,
            budget, truth if q ** n <= 10 ** 4 else None))

    # long cycles: an odd one is forced (odd cycle), an even one is not
    for n in (1001, 1000):
        host = relabel_vertices(lib, C(n), rng)
        ops.append(arrows_op(lib, f"arrows C{n}->P3 q=2", host, P3, 2,
                             SAFE_BUDGET_S, yes if n % 2 else no))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# minimality-sweep

def minimality_sweep(lib, seed: int) -> list[Op]:
    rng = random.Random(seed)
    corpus = lib.load_corpus(lib.graph6.bundled_corpus_path())
    numbered = [(i, relabel_full(lib, g, rng)) for i, g in enumerate(corpus)]
    rng.shuffle(numbered)
    hosts = [g for _, g in numbered]
    budget = lib.Budget(max_seconds=SAFE_BUDGET_S)
    S, K, C, P = lib.star_graph, lib.complete_graph, lib.cycle_graph, lib.path_graph
    ops: list[Op] = []

    star2, star3, k3 = S(2), S(3), K(3)
    for i, g in numbered:
        n, edges = plain(g)
        for tname, target, truth in (
                ("K1,2", star2, lambda n=n, e=edges: p3_forced_2(n, e)),
                ("K1,3", star3, lambda n=n, e=edges: star_forced_2(n, e, 3)),
                ("K3", k3, lambda n=n, e=edges: n == 6 and is_complete(n, e))):
            ops.append(arrows_op(lib, f"arrows corpus[{i}]->{tname} q=2", g,
                                 target, 2, SAFE_BUDGET_S, truth))

    def scan():
        return [lib.is_minimal(g, star3, 2, budget).verdict for g in hosts]

    def check_scan(verdicts, deep):
        if lib.UNKNOWN in verdicts:
            return False, {"verdicts": digest(verdicts)}
        found = [g for g, v in zip(hosts, verdicts) if v == lib.MINIMAL]
        require(len(found) == 1 and is_star(*plain(found[0]), 5),
                "corpus scan: the only minimal graph for K1,3 is K1,5")
        return True, {"verdicts": digest(verdicts)}

    ops.append(Op("is_minimal corpus scan K1,3", scan, check_scan))

    p4 = P(4)
    for k in (3, 5, 9, 13):
        ops.append(_p4_op(lib, k, relabel_vertices(lib, lib.p4_abundant(k), rng),
                          p4, budget))

    c4 = C(4)
    for n, tname, target in ((7, "C4", c4), (8, "C4", c4),
                             (7, "K3", k3), (8, "K3", k3)):
        ops.append(_minimalize_op(lib, f"minimalize K{n} {tname}",
                                  relabel_vertices(lib, K(n), rng), target, budget,
                                  star=False))
    ops.append(_minimalize_op(lib, "minimalize K1,7 K1,3",
                              relabel_vertices(lib, S(7), rng), star3, budget,
                              star=True))

    for tname, target, d in (("K3", k3, 4), ("P3", P(3), 3)):
        for polarity in ("positive", "negative"):
            ops.append(_sender_op(lib, tname, target, d, polarity, hosts,
                                  budget))
    rng.shuffle(ops)
    return ops


def _p4_op(lib, k: int, host, p4, budget) -> Op:
    """p4_abundant(3) does not force P4 (triangle in one color, pendant
    matching in the other); the family is minimal from k = 5 on."""
    n, edges = plain(host)

    def run():
        return lib.is_minimal(host, p4, 2, budget).verdict

    def check(verdict, deep):
        if verdict == lib.UNKNOWN:
            return False, {"verdict": verdict}
        require(verdict == (lib.NOT_MINIMAL if k == 3 else lib.MINIMAL),
                f"is_minimal p4_abundant({k}): {verdict}")
        if deep and k == 3:
            deg = degrees(n, edges)
            coloring = {e: 1 if deg[u] == 3 and deg[v] == 3 else 2
                        for e, (u, v) in enumerate(edges)}
            check_free_coloring(n, edges, coloring, 2, 4, p4.edges)
        if deep and k == 5:
            require(arrows_brute(n, edges, 2, 4, p4.edges),
                    "p4_abundant(5) must force P4")
            for e in range(len(edges)):
                rest = edges[:e] + edges[e + 1:]
                require(not arrows_brute(n, rest, 2, 4, p4.edges),
                        f"p4_abundant(5) minus edge {e} must not force P4")
        return True, {"verdict": verdict}

    return Op(f"is_minimal p4_abundant({k})", run, check)


def _minimalize_op(lib, name: str, host, target, budget, star: bool) -> Op:
    """The result has no more edges than the host, at least R(H,H) = 6
    vertices and every degree at least q(delta(H)-1)+1; on 6 vertices a
    K3-minimal graph is K6, and the only K1,3-minimal graph is K1,5."""
    tn, tedges = plain(target)
    tdeg = min(degrees(tn, tedges))
    bound = 2 * (tdeg - 1) + 1

    def run():
        return lib.minimalize(host, target, 2, budget)

    def check(result, deep):
        g, verdict = result
        if verdict == lib.UNKNOWN:
            return False, {"verdict": verdict}
        require(verdict == lib.MINIMAL, f"{name}: {verdict}")
        n, edges = plain(g)
        require(len(edges) <= host.num_edges, f"{name}: result gained edges")
        require(min(d for d in degrees(n, edges) if d) >= bound,
                f"{name}: degree below q(delta-1)+1 = {bound}")
        if star:
            require(is_star(n, edges, 5), f"{name}: result is not K1,5")
        else:
            require(n >= 6, f"{name}: fewer than R(H,H) = 6 vertices")
            if tn == 3 and n == 6:
                require(is_complete(n, edges), f"{name}: 6-vertex result is not K6")
        return True, {"verdict": verdict, "graph": digest(edges)}

    return Op(name, run, check)


def _sender_op(lib, tname: str, target, d: int, polarity: str, hosts,
               budget) -> Op:
    """search_sender over the relabelled corpus; brute force re-derives
    whether any corpus graph has a sender at distance >= d."""
    tn, tedges = plain(target)
    positive = polarity == "positive"

    def run():
        return lib.search_sender(target, 2, d, polarity, max_order=6,
                                 corpus=hosts, budget=budget)

    def check(spec, deep):
        if spec is not None:
            n, edges = plain(spec.graph)
            require(spec.status == "fully_verified", "sender status")
            require(edge_distance(n, edges, spec.e, spec.f) >= d,
                    "sender signal distance")
            if deep:
                free = list(free_colorings(n, edges, 2, tn, tedges))
                require(is_sender(free, spec.e, spec.f, positive),
                        "returned sender fails brute force")
            return True, {"found": digest(edges), "e": spec.e, "f": spec.f}
        if deep:
            for g in hosts:
                n, edges = plain(g)
                pairs = [(e, f) for e in range(len(edges))
                         for f in range(e + 1, len(edges))
                         if edge_distance(n, edges, e, f) >= d]
                if not pairs:
                    continue
                free = list(free_colorings(n, edges, 2, tn, tedges))
                require(not any(is_sender(free, e, f, positive)
                                for e, f in pairs),
                        f"missed a {polarity} {tname} sender")
        return True, {"found": None}

    return Op(f"search_sender {tname} d={d} {polarity}", run, check)


# ---------------------------------------------------------------------------
# gadget-pipeline

def gadget_pipeline(lib, seed: int) -> list[Op]:
    rng = random.Random(seed)
    pos = lib.gadgets.POSITIVE
    stub = lib.StubSenderProvider()
    K, C, P = lib.complete_graph, lib.cycle_graph, lib.path_graph
    K3, P3 = K(3), P(3)
    ctx: dict[str, Any] = {}

    def c4_family(q: int, size: int):
        c4 = C(4)
        alt = lib.pattern_of(c4, lib.EdgeColoring.from_map(q, {0: 1, 1: 2, 2: 1, 3: 2}))
        adj = lib.pattern_of(c4, lib.EdgeColoring.from_map(q, {0: 1, 1: 1, 2: 2, 3: 2}))
        return c4, lib.PatternFamily(c4, (alt, adj)[:size], lib.EXACT)

    # the ten criterion-7 builds: (key, build, verifier name, inner vertices)
    builds = []
    for q in (2, 3):
        for fname, f in (("P3", P3), ("P4", P(4))):
            builds.append((f"indicator q={q} F={fname}",
                           lambda q=q, f=f: lib.build_indicator(K3, f, q, pos, stub),
                           "verify_indicator", lambda s: s.f_vertices))
        rest = lib.single_edge() if q == 2 else lib.matching_graph(2)
        builds.append((f"gni q={q}",
                       lambda q=q, rest=rest: lib.build_gni(
                           K3, P3, rest, [[i] for i in range(rest.num_edges)],
                           q, stub),
                       "verify_gni",
                       lambda s: tuple(s.f_vertices) + tuple(s.g_vertices)))
        for size in (1, 2):
            c4, family = c4_family(q, size)
            builds.append((f"pattern q={q} family={size}",
                           lambda q=q, c4=c4, family=family:
                           lib.build_pattern_gadget(K3, c4, family, q, stub),
                           "verify_pattern_gadget", lambda s: s.g_vertices))
    rng.shuffle(builds)

    ops = [_build_op(key, build, ctx) for key, build, _, _ in builds]

    def build_recipe():
        ctx["recipe"] = lib.build_cycle_abundant(2, 5, 3, stub)
        return ctx["recipe"]

    def check_recipe(recipe, deep):
        n, edges = plain(recipe.graph)
        deg = degrees(n, edges)
        require(all(deg[v] == 3 for v in recipe.v_vertices),
                "low-degree vertices must have degree q+1 = 3")
        require(len(recipe.v_vertices) == 3, "one low-degree vertex per block")
        return True, {"n": n, "m": len(edges),
                      "steps": len(recipe.manifest.steps)}

    ops.append(Op("build_cycle_abundant(2,5,3)", build_recipe, check_recipe))

    chains: list[list[Op]] = []
    for key, _, verifier, inner in builds:
        chains.append([_to_json_op(key, KINDS[verifier], ctx)])
        chains.append([_verify_op(lib, key, verifier, ctx)])
        chains.append([_robust_op(lib, key, inner, K3, rng.randrange(2 ** 31),
                                  ctx)])
    chains.append([_to_json_op("recipe", "abundance_recipe", ctx)])
    chains.append(_graph6_chain(lib, ctx))
    chains.append(_manifest_chain(lib, ctx))
    chains.append([_copies_op(lib, C(5), ctx)])
    chains.extend([op] for op in _negative_controls(lib, c4_family))
    chains.append([_cli_op(lib)])
    rng.shuffle(chains)
    ops.extend(op for chain in chains for op in chain)
    return ops


# the JSON "kind" of the specs each verifier takes
KINDS = {"verify_indicator": "indicator",
         "verify_gni": "generalized_negative_indicator",
         "verify_pattern_gadget": "pattern_gadget"}


def _build_op(key: str, build: Callable, ctx: dict) -> Op:
    def run():
        ctx[key] = build()
        return ctx[key]

    def check(spec, deep):
        require(spec.status == "structurally_verified", f"{key}: {spec.status}")
        return True, {"n": spec.graph.n, "m": spec.graph.num_edges,
                      "steps": len(spec.manifest.steps)}

    return Op(f"build {key}", run, check)


def _to_json_op(key: str, kind: str, ctx: dict) -> Op:
    def run():
        return json.dumps(ctx[key].to_json())

    def check(text, deep):
        require(json.loads(text)["kind"] == kind, f"{key}: JSON of another kind")
        return True, {"bytes": len(text), "json": digest(text)}

    return Op(f"to_json {key}", run, check)


def _verify_op(lib, key: str, verifier: str, ctx: dict) -> Op:
    """Stub builds pass their structural property; the coloring-level
    properties are skipped, never passed or failed."""
    def run():
        return getattr(lib, verifier)(ctx[key])

    def check(report, deep):
        outcomes = [(r.name, r.outcome) for r in report.results]
        require(outcomes[0][1] == "pass", f"{key}: {outcomes[0]}")
        require(all(o == "skipped_stub" for _, o in outcomes[1:]),
                f"{key}: {outcomes}")
        return True, {"outcomes": outcomes}

    return Op(f"{verifier} {key}", run, check)


def _robust_op(lib, key: str, inner: Callable, h, seed: int, ctx: dict) -> Op:
    def run():
        spec = ctx[key]
        return lib.check_robust(spec.graph, inner(spec), h,
                                trials=ROBUST_TRIALS, seed=seed)

    def check(report, deep):
        outcomes = [(r.name, r.outcome) for r in report.results]
        require(outcomes == [("robust", "pass")], f"{key}: {outcomes}")
        return True, {"outcomes": outcomes}

    return Op(f"check_robust {key}", run, check)


def _graph6_chain(lib, ctx: dict) -> list[Op]:
    def write():
        ctx["g6"] = lib.write_auto(ctx["recipe"].graph)
        return ctx["g6"]

    def check_write(text, deep):
        return True, {"bytes": len(text), "text": digest(text)}

    def parse():
        return lib.parse_any(ctx["g6"])

    def check_parse(g, deep):
        n, edges = plain(ctx["recipe"].graph)
        require(g.n == n and set(g.edges) == set(edges),
                "graph6 round trip changed the graph")
        return True, {"n": g.n, "m": g.num_edges}

    return [Op("write_auto recipe graph", write, check_write),
            Op("parse_any recipe graph", parse, check_parse)]


def _manifest_chain(lib, ctx: dict) -> list[Op]:
    def write():
        ctx["manifest"] = json.dumps(ctx["recipe"].manifest.to_json())
        return ctx["manifest"]

    def check_write(text, deep):
        return True, {"bytes": len(text), "json": digest(text)}

    def replay():
        manifest = lib.ConstructionManifest.from_json(json.loads(ctx["manifest"]))
        return manifest.replay()

    def check_replay(g, deep):
        built = ctx["recipe"].graph
        require((g.n, tuple(g.edges), tuple(g.labels))
                == (built.n, tuple(built.edges), tuple(built.labels)),
                "manifest replay differs from the built graph")
        return True, {"n": g.n, "m": g.num_edges}

    return [Op("manifest to_json", write, check_write),
            Op("manifest from_json+replay", replay, check_replay)]


def _copies_op(lib, c5, ctx: dict) -> Op:
    def run():
        return lib.enumerate_copies(ctx["recipe"].graph, c5)

    def check(copies, deep):
        n, edges = plain(ctx["recipe"].graph)
        sets = {frozenset(emb.edge_set) for emb in copies}
        require(len(sets) == len(copies), "duplicate copies")
        for s in sets:
            verts = [v for e in s for v in edges[e]]
            require(len(s) == 5 and len(set(verts)) == 5
                    and all(verts.count(v) == 2 for v in verts),
                    "a copy is not a 5-cycle")
        if deep:
            require(sets == cycle_copies(n, edges, 5), "copies differ from "
                    "an independent 5-cycle enumeration")
        return True, {"copies": len(copies)}

    return Op("enumerate_copies recipe graph C5", run, check)


def _negative_controls(lib, c4_family) -> list[Op]:
    """Criterion 8: fake gadgets are rejected with counterexamples that
    check out again."""
    pos = lib.gadgets.POSITIVE
    K3, P3, K2 = lib.complete_graph(3), lib.path_graph(3), lib.single_edge()
    k3n, k3e = plain(K3)
    # K6 forces K3 (R(3,3) = 6), so it has no target-free coloring
    fake_sender = lib.SenderSpec(lib.complete_graph(6), 0, 14, pos, K3, 2, 1)
    ind_graph = lib.disjoint_union(P3, K2)
    fake_ind = lib.IndicatorSpec(ind_graph, (0, 1, 2), (0, 1), 2, pos, K3, 2, 1)
    c4, family = c4_family(2, 2)
    pg_graph = lib.disjoint_union(c4, K2)
    fake_pg = lib.PatternGadgetSpec(pg_graph, (0, 1, 2, 3), (0, 1, 2, 3),
                                    family, K3, 2, 1, 1, (4,), (((0,), 0),))
    members = {frozenset(frozenset(cls) for cls in m.classes)
               for m in family.members}

    def outcome(report, name):
        return next(r for r in report.results if r.name == name)

    def check_sender(report, deep):
        require(outcome(report, "S1").outcome == "fail", "fake sender accepted")
        return True, {"S1": "fail"}

    def check_ind(report, deep):
        bad = outcome(report, "I3")
        require(bad.outcome == "fail", "fake indicator accepted")
        coloring = {int(e): int(c) for e, c in bad.counterexample["coloring"]}
        n, edges = plain(ind_graph)
        check_free_coloring(n, edges, coloring, 2, k3n, k3e)
        require(coloring[0] == coloring[1] == 1 and coloring[2] == 2,
                "indicator counterexample does not violate I3")
        return True, {"I3": digest(sorted(coloring.items()))}

    def check_pg(report, deep):
        bad = outcome(report, "P2")
        require(bad.outcome == "fail", "fake pattern gadget accepted")
        coloring = {int(e): int(c) for e, c in bad.counterexample["coloring"]}
        n, edges = plain(pg_graph)
        check_free_coloring(n, edges, coloring, 2, k3n, k3e)
        classes = frozenset(frozenset(e for e in range(4) if coloring[e] == c)
                            for c in (1, 2))
        require(classes not in members,
                "pattern counterexample lies inside the family")
        return True, {"P2": digest(sorted(coloring.items()))}

    return [Op("negative control sender", lambda: lib.verify_sender(fake_sender),
               check_sender),
            Op("negative control indicator",
               lambda: lib.verify_indicator(fake_ind), check_ind),
            Op("negative control pattern gadget",
               lambda: lib.verify_pattern_gadget(fake_pg), check_pg)]


CLI_ARGS = ["construct", "cycle", "--q", "2", "--t", "4", "--k", "2"]


def _cli_op(lib) -> Op:
    cli = lib.cli

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(CLI_ARGS))
        return code, out.getvalue()

    def check(result, deep):
        code, text = result
        require(code == 0, f"cli exit code {code}")
        report = json.loads(text)
        require(report["degrees_ok"] is True and report["expected_degree"] == 3
                and len(report["low_degree_vertices"]) == 2,
                "cli construct cycle report")
        return True, {"report": digest(text), "report_bytes": len(text)}

    return Op("cli construct cycle q=2 t=4 k=2", run, check)


WORKLOADS: dict[str, Callable[[Any, int], list[Op]]] = {
    "ramsey-search": ramsey_search,
    "minimality-sweep": minimality_sweep,
    "gadget-pipeline": gadget_pipeline,
}
