"""Gadget graphs: signal senders, indicators, generalized negative
indicators, and pattern gadgets.

Senders are pluggable inputs (loaded, searched for, or stubbed); every
other gadget is built mechanically by composing senders and smaller
gadgets, and verified either structurally (interfaces, distances,
piece counts) or semantically (exhaustive coloring searches).  Every
builder composes through one `_Assembly`, which also tallies the pieces
and the senders' status, and each gadget's structural property is one
predicate that sets the builder's status and gives the verifier's result.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import chain, combinations, permutations, product
from math import comb
from typing import ClassVar, Optional, Protocol, Sequence, get_type_hints

from . import graph6
from .arrowing import (DOES_NOT_ARROW, EXTENDABLE, NO_BUDGET, NOT_EXTENDABLE,
                       UNKNOWN, ArrowInstance, Budget, BudgetExhausted,
                       _verified_search, arrows)
from .coloring import (ColorPattern, EdgeColoring, PatternFamily, _mono_copy,
                       pattern_of)
from .graph import (Graph, GraphError, _bitsets, _embed, _GraphDraft,
                    clique_with_pendant, complete_graph, decode_json,
                    disjoint_union, edge_distance, far_edge_pairs,
                    from_edges, girth, graphs_isomorphic, matching_graph,
                    single_edge)
from .manifest import ConstructionManifest, ManifestBuilder

POSITIVE = "positive"
NEGATIVE = "negative"

STATUS_STUB = "stub"
STATUS_UNVERIFIED = "unverified"
STATUS_STRUCTURAL = "structurally_verified"
STATUS_FULL = "fully_verified"
_STATUS_ORDER = {STATUS_STUB: 0, STATUS_UNVERIFIED: 1,
                 STATUS_STRUCTURAL: 2, STATUS_FULL: 3}

PASS = "pass"
FAIL = "fail"
SKIPPED_STUB = "skipped_stub"
EXHAUSTED = "budget_exhausted"


def _worst_status(statuses) -> str:
    return min(statuses, key=_STATUS_ORDER.__getitem__, default=STATUS_FULL)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class PropertyResult:
    name: str
    outcome: str                     # pass / fail / skipped_stub / budget_exhausted
    method: str                      # structural / exhaustive / search
    detail: str = ""
    counterexample: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"name": self.name, "outcome": self.outcome,
               "method": self.method, "detail": self.detail}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass(frozen=True)
class VerificationReport:
    subject: str
    results: tuple[PropertyResult, ...]

    def outcome_of(self, name: str) -> str:
        for r in self.results:
            if r.name == name:
                return r.outcome
        raise KeyError(name)

    @property
    def failures(self) -> list[PropertyResult]:
        return [r for r in self.results if r.outcome == FAIL]

    @property
    def ok(self) -> bool:
        """No refutation and no exhausted budget (skips allowed)."""
        return all(r.outcome in (PASS, SKIPPED_STUB) for r in self.results)

    @property
    def fully_verified(self) -> bool:
        return all(r.outcome == PASS for r in self.results)

    def to_json(self) -> dict:
        return {"subject": self.subject,
                "results": [r.to_json() for r in self.results]}


# ---------------------------------------------------------------------------
# JSON codec of the gadget specs

def _encode(value):
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value.to_json() if hasattr(value, "to_json") else value


def _spec_to_json(spec) -> dict:
    return {"kind": spec.KIND, **{f.name: _encode(getattr(spec, f.name))
                                  for f in fields(spec)}}


def _spec_from_json(cls, data):
    """A spec from its JSON form; absent keys take the field defaults.  A
    spec with a manifest must replay to exactly its graph."""
    if not isinstance(data, dict) or data.get("kind") != cls.KIND:
        raise GraphError(f"expected a spec of kind {cls.KIND!r}")
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.name not in data and f.default is f.default_factory is MISSING:
            raise GraphError(f"{cls.KIND} spec lacks {f.name!r}")
    spec = cls(**{f.name: decode_json(hints[f.name], data[f.name],
                                      f"{cls.KIND} {f.name}")
                  for f in fields(cls) if f.name in data})
    manifest = getattr(spec, "manifest", None)
    if manifest is not None and manifest.replay() != spec.graph:
        raise GraphError("manifest does not replay to the spec graph")
    return spec


# the values a spec field of one of these names may take
_KNOWN_VALUES = {"status": tuple(_STATUS_ORDER),
                 "senders_status": tuple(_STATUS_ORDER),
                 "polarity": (POSITIVE, NEGATIVE)}


def _check_spec(spec, vertices, edges):
    """Raise GraphError unless the spec's graph has these vertex and edge
    ids and its status and polarity fields hold known values; each spec
    checks them when it is made."""
    for ids, bound, what in ((vertices, spec.graph.n, "vertex"),
                             (edges, spec.graph.num_edges, "edge")):
        bad = [i for i in ids if not 0 <= i < bound]
        if bad:
            raise GraphError(f"{spec.KIND} spec names {what} {bad[0]}, "
                             "which its graph lacks")
    for f in fields(spec):
        known, value = _KNOWN_VALUES.get(f.name), getattr(spec, f.name)
        if known and value not in known:
            raise GraphError(f"{spec.KIND} spec has unknown {f.name} "
                             f"{value!r}")


def _check_distinct(spec, eids):
    """Raise GraphError if an edge id repeats in `eids`: the verifiers
    read each as one edge of the subgraphs they color."""
    repeated = [e for e, n in Counter(eids).items() if n > 1]
    if repeated:
        raise GraphError(f"{spec.KIND} spec repeats edge {repeated[0]}")


# ---------------------------------------------------------------------------
# signal senders

@dataclass
class SenderSpec:
    KIND: ClassVar[str] = "sender"
    graph: Graph
    e: int                  # signal edge ids
    f: int
    polarity: str
    h: Graph
    q: int
    d: int
    status: str = STATUS_UNVERIFIED

    def __post_init__(self):
        _check_spec(self, (), (self.e, self.f))
        if self.e == self.f:
            raise GraphError("signal edges must differ")

    def signal_distance(self) -> float:
        return edge_distance(self.graph, [self.e], [self.f])

    def to_json(self) -> dict:
        return _spec_to_json(self)

    @classmethod
    def from_json(cls, data) -> "SenderSpec":
        return _spec_from_json(cls, data)


def make_stub_sender(h: Graph, q: int, d: int, polarity: str) -> SenderSpec:
    """Two designated edges joined by a path of length exactly d.

    Satisfies only the distance axiom; used to exercise composition
    mechanics when no real sender is available.
    """
    if d < 1:
        raise GraphError("distance must be at least 1")
    # e = (0,1), f = (2,3), path of d edges from 1 through 4..d+2 to 2
    path = [1, *range(4, d + 3), 2]
    g = from_edges(3 + d, [(0, 1), (2, 3), *zip(path, path[1:])])
    return SenderSpec(g, 0, 1, polarity, h, q, d, status=STATUS_STUB)


def string_senders(senders: Sequence[SenderSpec]) -> SenderSpec:
    """Chain senders by identifying consecutive signal edges.  All but
    the last must be positive; the result's polarity is the last one's
    and its distance claim is the sum of the members' claims.  A chain
    of two or more is unverified (a stub when every member is one): a
    copy of the target can straddle a glued edge's two ends, so S1 need
    not survive the gluing, and only `verify_sender` can decide it."""
    if not senders:
        raise GraphError("nothing to string")
    first = senders[0]
    for s in senders[:-1]:
        if s.polarity != POSITIVE:
            raise GraphError("only the last sender in a chain may be negative")
    for s in senders[1:]:
        if s.q != first.q or not graphs_isomorphic(s.h, first.h):
            raise GraphError("stringed senders must share target and color count")
    if len(senders) == 1:
        return first

    draft, f_id = _GraphDraft(first.graph), first.f
    for s in senders[1:]:
        hu, hv = draft.edges[f_id]
        gu, gv = s.graph.edges[s.e]
        f_id = draft.compose(s.graph, {gu: hu, gv: hv}).edge_map[s.f]
    status = (STATUS_STUB if all(s.status == STATUS_STUB for s in senders)
              else STATUS_UNVERIFIED)
    return SenderSpec(draft.graph, first.e, f_id, senders[-1].polarity,
                      first.h, first.q, sum(s.d for s in senders), status)


def verify_sender(spec: SenderSpec,
                  budget: Budget = NO_BUDGET) -> VerificationReport:
    results = []
    dist = spec.signal_distance()
    results.append(PropertyResult(
        "S3", PASS if dist >= spec.d else FAIL, "structural",
        f"signal distance {dist}, required {spec.d}"))

    if spec.status == STATUS_STUB:
        return _stub_report("sender", results, ("S1", "S2"),
                            "stub sender: semantics not claimed")

    inst = ArrowInstance.create(spec.graph, spec.h, spec.q, budget)
    res = arrows(inst)
    if res.verdict == UNKNOWN:
        results.append(PropertyResult("S1", EXHAUSTED, "search"))
    elif res.verdict == DOES_NOT_ARROW:
        results.append(PropertyResult("S1", PASS, "search",
                                      "target-free coloring found"))
    else:
        results.append(PropertyResult("S1", FAIL, "search",
                                      "graph forces a monochromatic target"))

    results.append(_sender_s2(spec, inst))
    return VerificationReport("sender", tuple(results))


def _sender_s2(spec: SenderSpec, inst: ArrowInstance) -> PropertyResult:
    """S2 on the instance of the sender's graph: no free coloring breaks
    the signal relation."""
    # a violating coloring can be color-permuted to fixed colors on e, f
    bad = {spec.e: 1, spec.f: 2 if spec.polarity == POSITIVE else 1}
    return _check_cases(
        "S2", inst, [(bad, "free coloring violating the signal relation")],
        False, "no violating free coloring exists")


def search_sender(h: Graph, q: int, d: int, polarity: str, max_order: int,
                  corpus: Optional[Sequence[Graph]] = None,
                  budget: Budget = NO_BUDGET) -> Optional[SenderSpec]:
    """Scan a corpus of candidate graphs and all designated edge pairs
    at distance >= d; return the first fully verified sender, if any.
    S3 is checked first: a graph with no edge pair at distance >= d is
    skipped before any copy is enumerated.  Otherwise the graph's own
    search decides S1, and each of its pairs needs only S2, on the same
    instance.  One clock bounds the whole scan.  If the budget leaves a
    graph or pair undecided and no sender turns up, BudgetExhausted is
    raised instead of returning None."""
    budget = budget.start()
    if corpus is None:
        corpus = graph6.load_corpus(max_order=max_order)
    undecided = False
    for g in corpus:
        if g.n > max_order:
            continue
        pairs = far_edge_pairs(g, d)
        if not pairs:
            continue
        inst = ArrowInstance.create(g, h, q, budget)
        s1 = arrows(inst).verdict
        undecided |= s1 == UNKNOWN
        if s1 != DOES_NOT_ARROW:
            continue
        for e_id, f_id in pairs:
            spec = SenderSpec(g, e_id, f_id, polarity, h, q, d)
            s2 = _sender_s2(spec, inst).outcome
            if s2 == PASS:
                spec.status = STATUS_FULL
                return spec
            undecided |= s2 == EXHAUSTED
    if undecided:
        raise BudgetExhausted(
            f"the budget ran out before the search for a {polarity} sender "
            f"at order <= {max_order} decided every corpus graph")
    return None


# ---------------------------------------------------------------------------
# sender providers

class SenderProvider(Protocol):
    def get(self, polarity: str, h: Graph, q: int, d: int) -> SenderSpec: ...


class StubSenderProvider:
    def get(self, polarity: str, h: Graph, q: int, d: int) -> SenderSpec:
        return make_stub_sender(h, q, d, polarity)


class FixedSenderProvider:
    """Serves pre-supplied senders, stringing stubs is not attempted;
    raises when no compatible sender is known.  A sender whose signal
    edges lie closer than its claimed d (S3 fails) is rejected here."""

    def __init__(self, senders: Sequence[SenderSpec]):
        for s in senders:
            dist = s.signal_distance()
            if dist < s.d:
                raise GraphError(f"sender claims d = {s.d} but its signal "
                                 f"edges lie {dist} apart (S3 fails)")
        self.senders = list(senders)

    def get(self, polarity: str, h: Graph, q: int, d: int) -> SenderSpec:
        for s in self.senders:
            if s.polarity == polarity and s.q == q and s.d >= d \
                    and graphs_isomorphic(s.h, h):
                return s
        raise GraphError(
            f"no {polarity} sender available for q={q}, d={d}")


class SearchSenderProvider:
    def __init__(self, max_order: int, budget: Budget = NO_BUDGET):
        self.max_order = max_order
        self.budget = budget
        self._cache: dict = {}

    def get(self, polarity: str, h: Graph, q: int, d: int) -> SenderSpec:
        key = (polarity, h, q, d)
        if key not in self._cache:
            self._cache[key] = search_sender(
                h, q, d, polarity, self.max_order, budget=self.budget)
        spec = self._cache[key]
        if spec is None:
            raise GraphError(
                f"sender search found no {polarity} sender at order "
                f"<= {self.max_order}")
        return spec


# ---------------------------------------------------------------------------
# indicators

@dataclass
class IndicatorSpec:
    KIND: ClassVar[str] = "indicator"
    graph: Graph
    f_vertices: tuple[int, ...]     # vertices of the indicator subgraph
    f_eids: tuple[int, ...]         # its edges
    e: int                          # indicator edge id
    polarity: str
    h: Graph
    q: int
    d: int
    status: str = STATUS_UNVERIFIED
    senders_status: str = STATUS_UNVERIFIED
    counts: dict = field(default_factory=dict)
    manifest: Optional[ConstructionManifest] = None

    def __post_init__(self):
        _check_spec(self, self.f_vertices, (*self.f_eids, self.e))
        _check_distinct(self, self.f_eids)

    def to_json(self) -> dict:
        return _spec_to_json(self)

    @classmethod
    def from_json(cls, data) -> "IndicatorSpec":
        return _spec_from_json(cls, data)


class _Assembly:
    """A gadget under construction, the one path every builder takes: the
    manifest builder, the sender provider with the target `h`, color
    count `q` and distance `d`, the tally of pieces, and the status of
    every sender used, directly or inside a smaller gadget.  Attaching a
    sender or a gadget copy raises BudgetExhausted once the builder's
    started `budget` has run out."""

    def __init__(self, base: Graph, note: str, h: Graph, q: int, d: int,
                 provider: SenderProvider, budget: Budget):
        self.builder = ManifestBuilder(base, note=note)
        self.provider = provider
        self.h, self.q, self.d = h, q, d
        self.budget = budget
        self.counts: Counter = Counter()
        self.statuses: set = set()

    def _in_time(self):
        if self.budget.expired():
            raise BudgetExhausted("construction out of time")

    def sender(self, polarity: str) -> SenderSpec:
        """A sender from the provider, counted, with its status noted."""
        s = self.provider.get(polarity, self.h, self.q, self.d)
        self.statuses.add(s.status)
        self.counts[f"{polarity}_senders"] += 1
        return s

    def attach_sender(self, polarity: str, host_a: int, host_b: int,
                      note: str = ""):
        """Compose a fresh sender copy, signal edges onto two host edges."""
        self._in_time()
        s = self.sender(polarity)
        au, av = s.graph.edges[s.e]
        bu, bv = s.graph.edges[s.f]
        ha = self.builder.edges[host_a]
        hb = self.builder.edges[host_b]
        ident = {au: ha[0], av: ha[1], bu: hb[0], bv: hb[1]}
        self.builder.compose(s.graph, ident,
                             note=note or f"{s.polarity} sender")

    def fresh(self, g: Graph, note: str) -> tuple[int, ...]:
        """Compose a disjoint copy of g; returns its host edge ids."""
        return self.builder.compose(g, {}, note=note).edge_map

    def attach_copy(self, spec, ident: dict[int, int], key: str, note: str):
        """Compose a copy of a built gadget glued on by `ident`; its pieces
        and senders count towards this gadget, plus one `key`."""
        self._in_time()
        self.builder.compose(spec.graph, ident, note=note)
        self.counts.update(spec.counts)
        self.counts[key] += 1
        self.statuses.add(spec.senders_status)

    def attach_indicator(self, ind: IndicatorSpec,
                         host_f_vertices: Sequence[int], host_e: int,
                         key: str, note: str):
        """A copy of a standalone indicator: its subgraph vertices land on
        host_f_vertices (same local order) and its edge on host_e."""
        ident = dict(zip(ind.f_vertices, host_f_vertices))
        eu, ev = ind.graph.edges[ind.e]
        ident[eu], ident[ev] = self.builder.edges[host_e]
        self.attach_copy(ind, ident, key, note)

    def finish(self) -> tuple:
        """(graph, senders_status, counts, manifest), in spec field order."""
        return (self.builder.graph, _worst_status(self.statuses),
                dict(self.counts), self.builder.manifest)


def _indicator(h: Graph, f: Graph, q: int, d: int, polarity: str,
               provider: SenderProvider, budget: Budget) -> IndicatorSpec:
    """A standalone indicator for f, under the caller's started budget; a
    single-edge f degenerates to a bare sender.  Its senders' status
    counts once a copy is attached."""
    if f.num_edges >= 2:
        return build_indicator(h, f, q, polarity, provider, d, budget)
    s = provider.get(polarity, h, q, d)
    return _promote(IndicatorSpec(
        s.graph, s.graph.edges[s.e], (s.e,), s.f, polarity, h, q, d,
        STATUS_UNVERIFIED, s.status,
        {f"{polarity}_senders": 1, "one_edge_bases": 1}, None), _indicator_i1)


def _promote(spec, prop):
    """A freshly built spec, structurally verified when its structural
    property `prop` holds."""
    if prop(spec).outcome == PASS:
        spec.status = STATUS_STRUCTURAL
    return spec


def _gadget_distance(h: Graph, d: Optional[int]) -> int:
    """A gadget's distance parameter: v(h)+1 unless given, and above v(h).
    A sender's d is a claim that S3 checks, so senders take any d >= 1."""
    if d is None:
        return h.n + 1
    if d <= h.n:
        raise GraphError("distance parameter must exceed the target order")
    return d


def _pick_base_edges(h: Graph) -> tuple[int, int]:
    """Two starting-copy edges; the first must not be a pendant edge
    (both its endpoints need degree >= 2), matching the constraint for
    clique-with-pendant targets."""
    e1 = next((eid for eid, (u, v) in enumerate(h.edges)
               if h.degree(u) >= 2 and h.degree(v) >= 2), 0)
    return e1, 0 if e1 != 0 else 1


def _is_cycle(h: Graph) -> bool:
    return h.n >= 3 and h.num_edges == h.n and \
        all(d == 2 for d in h.degrees()) and h.is_connected()


def _indicate_pair(asm: _Assembly, f1: int, f2: int) -> int:
    """The two-edge base: attach a positive indicator for the host edges
    f1 and f2 onto the assembly's graph; returns its fresh indicator edge."""
    h, q = asm.h, asm.q
    if q == 2:
        asm.counts["base_q2"] += 1
        asm.counts["start_copies"] += 1
        h0 = asm.fresh(h, "starting copy")
        e1_idx, e2_idx = _pick_base_edges(h)
        e, = asm.fresh(single_edge(), "indicator edge")
        for i, g_eid in enumerate(h0):
            if i not in (e1_idx, e2_idx):
                asm.attach_sender(NEGATIVE, f1, g_eid)
        asm.attach_sender(NEGATIVE, f2, h0[e2_idx])
        asm.attach_sender(POSITIVE, h0[e1_idx], e)
        return e

    asm.counts["base_qgt2"] += 1
    m_edges = asm.fresh(matching_graph(q - 1), "base matching")
    # q-1 starting copies sharing exactly the indicator edge
    e, = asm.fresh(single_edge(), "indicator edge")
    eu, ev = asm.builder.edges[e]
    shared = h.edges[0]
    copies = []
    for i in range(q - 1):
        asm.counts["start_copies"] += 1
        res = asm.builder.compose(h, {shared[0]: eu, shared[1]: ev},
                                  note=f"starting copy {i + 1}")
        copies.append(res.edge_map)
    for i in range(q - 2):
        asm.attach_sender(NEGATIVE, f1, m_edges[i])
    asm.attach_sender(NEGATIVE, f2, m_edges[q - 2])
    for i, j in combinations(range(q - 1), 2):
        asm.attach_sender(NEGATIVE, m_edges[i], m_edges[j])
    for i in range(q - 1):
        for g_eid in copies[i]:
            if g_eid != e:
                asm.attach_sender(POSITIVE, m_edges[i], g_eid)
    return e


def build_indicator(h: Graph, f: Graph, q: int, polarity: str,
                    provider: SenderProvider, d: Optional[int] = None,
                    budget: Budget = NO_BUDGET) -> IndicatorSpec:
    """An indicator for f (at least two edges): when f is monochromatic
    its edge e must take f's color (positive) or another one (negative).
    The positive core is a left fold of the two-edge base: it indicates
    f's edges 0 and 1, then each further edge together with the previous
    indicator edge (counted as `recursive_steps`).  A negative indicator
    adds one negative sender from that core's edge to a fresh edge.
    `budget` bounds the check that f does not contain the target and the
    assembly."""
    if q < 2:
        raise GraphError("need q >= 2")
    d = _gadget_distance(h, d)
    if f.num_edges < 2:
        raise GraphError("indicator subgraph needs at least 2 edges")
    if h.num_edges < 2:
        raise GraphError("target needs at least 2 edges")
    if _is_cycle(h) and girth(f) <= h.n:
        raise GraphError(
            f"cycle target of length {h.n} needs indicator subgraph of "
            f"girth > {h.n}")
    if polarity not in (POSITIVE, NEGATIVE):
        raise GraphError(f"unknown polarity {polarity!r}")
    inst = ArrowInstance.create(f, h, q, budget)
    if inst.copies is None:
        raise BudgetExhausted("indicator subgraph check undecided")
    if inst.copies:
        raise GraphError("indicator subgraph must not contain the target")

    asm = _Assembly(f.relabel({v: f"F{v}" for v in range(f.n)}),
                    "indicator subgraph", h, q, d, provider, inst.budget)
    if f.num_edges > 2:
        asm.counts["recursive_steps"] = f.num_edges - 2
    e = _indicate_pair(asm, 0, 1)
    for f_eid in range(2, f.num_edges):
        e = _indicate_pair(asm, f_eid, e)
    if polarity == NEGATIVE:
        e_prime = e
        e, = asm.fresh(single_edge(), "negative indicator edge")
        asm.attach_sender(NEGATIVE, e_prime, e)
    graph, senders_status, counts, manifest = asm.finish()
    return _promote(IndicatorSpec(
        graph, tuple(range(f.n)), tuple(range(f.num_edges)), e, polarity, h,
        q, d, STATUS_UNVERIFIED, senders_status, counts, manifest),
        _indicator_i1)


def _no_extra_edges(graph: Graph, eids) -> bool:
    eset = set(eids)
    verts = sorted(graph.edge_vertices(eids))
    for u, v in combinations(verts, 2):
        if graph.has_edge(u, v) and graph.edge_id(u, v) not in eset:
            return False
    return True


def _separated(name: str, graph: Graph, induced, a, b, d: int,
               detail: str) -> PropertyResult:
    """Structural property `name`: each edge set of `induced` spans an
    induced subgraph, and the edge sets a and b lie at distance >= d.
    `detail` shows the distance relation at its "{}"."""
    if not a or not b:
        return PropertyResult(name, FAIL, "structural",
                              "an edge set to keep apart is empty")
    dist = edge_distance(graph, a, b)
    ok = all(_no_extra_edges(graph, eids) for eids in induced) and dist >= d
    relation = f"{dist} {'>=' if dist >= d else '<'} {d}"
    return PropertyResult(name, PASS if ok else FAIL, "structural",
                          detail.format(relation))


def _indicator_i1(spec: IndicatorSpec) -> PropertyResult:
    return _separated("I1", spec.graph, [spec.f_eids], spec.f_eids, [spec.e],
                      spec.d, "induced subgraph and distance {}")


_STUB_SKIP = "built from stub senders: coloring semantics not claimed"


def _stub_report(subject: str, results: list, names: Sequence[str],
                 detail: str = _STUB_SKIP) -> VerificationReport:
    """The structural results so far plus a skip for each coloring-level
    property, which stub senders do not claim."""
    return VerificationReport(subject, tuple(results) + tuple(
        PropertyResult(name, SKIPPED_STUB, "structural", detail)
        for name in names))


def _check_cases(name: str, inst: ArrowInstance, cases, want_extendable: bool,
                 pass_detail: str = "", total: Optional[int] = None,
                 witnesses: Optional[list] = None) -> PropertyResult:
    """Decide one property by searching each case, in order, on the
    shared instance and under its one clock.

    `cases` yields (partial coloring as {edge: color}, failure detail).
    The property holds when every case extends to a target-free coloring
    (`want_extendable`) or when none does.  The first case that says
    otherwise is a FAIL, with the extension as a "coloring"
    counterexample or the stuck case as a "partial" one.  An unknown case
    does not stop the loop; with no failure it makes the result
    budget_exhausted, as does the clock running out, its only other stop.
    `cases` may be lazy; given their number, `total`, the details count
    the cases.  Each extending case's witness is appended to `witnesses`
    if given.
    """
    covered = 0
    unknown = False
    for partial, fail_detail in cases:
        if inst.budget.expired():
            unknown = True
            break
        covered += 1
        verdict, witness, _, _ = _verified_search(inst, partial, EXTENDABLE,
                                                  NOT_EXTENDABLE)
        extends = verdict == EXTENDABLE
        if verdict == UNKNOWN:
            unknown = True
        elif extends != want_extendable:
            cex = ({"coloring": witness.to_json()} if extends else
                   {"partial": [[e, c] for e, c in partial.items()]})
            return PropertyResult(name, FAIL, "search", fail_detail, cex)
        elif extends and witnesses is not None:
            witnesses.append(witness)
    if unknown:
        detail = "" if total is None else f"covered {covered} of {total} cases"
        return PropertyResult(name, EXHAUSTED, "search", detail)
    return PropertyResult(name, PASS, "search", pass_detail if total is None
                          else f"all {total} cases extend")


def verify_indicator(spec: IndicatorSpec,
                     budget: Budget = NO_BUDGET) -> VerificationReport:
    """I2 to I4 search under one clock; with no budget all (q^k - q) * q
    cases of I4 (k subgraph edges) are decided, however many there are."""
    results = [_indicator_i1(spec)]

    if spec.senders_status == STATUS_STUB:
        return _stub_report("indicator", results, ("I2", "I3", "I4"))

    q = spec.q
    inst = ArrowInstance.create(spec.graph, spec.h, q, budget)
    mono = {eid: 1 for eid in spec.f_eids}
    results.append(_check_cases(
        "I2", inst,
        [(mono, "no free coloring keeps the subgraph monochromatic")],
        True, "free coloring with monochromatic subgraph"))

    # violation: subgraph monochromatic but the indicator edge disobeys
    bad = {**mono, spec.e: 2 if spec.polarity == POSITIVE else 1}
    results.append(_check_cases(
        "I3", inst, [(bad, "indicator edge can disobey the subgraph color")],
        False))

    # every non-constant subgraph coloring leaves the edge free
    assigns, count = _nonconstant(q, len(spec.f_eids))
    cases = (({**dict(zip(spec.f_eids, assign)), spec.e: k},
              f"subgraph colors {assign} block edge color {k}")
             for assign in assigns for k in range(1, q + 1))
    results.append(_check_cases("I4", inst, cases, True, total=count * q))
    return VerificationReport("indicator", tuple(results))


def _nonconstant(q: int, k: int):
    """The colorings of k edges by 1..q with two colors or more (lazily,
    in `product` order) and their number."""
    return ((a for a in product(range(1, q + 1), repeat=k) if len(set(a)) > 1),
            q ** k - q if k else 0)


# ---------------------------------------------------------------------------
# generalized negative indicators

@dataclass
class GNISpec:
    KIND: ClassVar[str] = "generalized_negative_indicator"
    graph: Graph
    f_vertices: tuple[int, ...]
    f_eids: tuple[int, ...]
    g_vertices: tuple[int, ...]
    g_classes: tuple[tuple[int, ...], ...]    # partition of the G edges
    h: Graph
    q: int
    d: int
    m_edges: tuple[tuple[int, ...], ...]      # per k: matching of size q
    p_edges: tuple[tuple[int, ...], ...]      # per k: matching of size 2
    e_k: tuple[int, ...]                      # distinguished edge of each P_k
    status: str = STATUS_UNVERIFIED
    senders_status: str = STATUS_UNVERIFIED
    counts: dict = field(default_factory=dict)
    manifest: Optional[ConstructionManifest] = None

    def __post_init__(self):
        _check_spec(self, self.f_vertices + self.g_vertices,
                    self.f_eids + self.g_eids + self.e_k
                    + sum(self.m_edges + self.p_edges, ()))
        if len(self.g_classes) != self.q - 1:
            raise GraphError(f"{self.KIND} spec needs q - 1 = {self.q - 1} "
                             f"edge classes, not {len(self.g_classes)}")
        _check_distinct(self, self.f_eids + self.g_eids)

    @property
    def g_eids(self) -> tuple[int, ...]:
        return tuple(e for cls in self.g_classes for e in cls)

    def to_json(self) -> dict:
        return _spec_to_json(self)

    @classmethod
    def from_json(cls, data) -> "GNISpec":
        return _spec_from_json(cls, data)


def build_gni(h: Graph, f: Graph, g: Graph,
              partition: Sequence[Sequence[int]], q: int,
              provider: SenderProvider, d: Optional[int] = None,
              budget: Budget = NO_BUDGET) -> GNISpec:
    """Rainbow-forcing gadget: when the subgraph f is monochromatic, the
    classes of g (checked as a `ColorPattern` of g) must each be
    monochromatic and use all remaining colors.  Its indicators check f
    and the target.  One clock bounds the class check, the indicators'
    checks and the assembly."""
    if q < 2:
        raise GraphError("need q >= 2")
    d = _gadget_distance(h, d)
    if len(partition) != q - 1:
        raise GraphError(f"partition must have exactly {q - 1} classes")
    pattern = ColorPattern(g, tuple(partition))
    inst = ArrowInstance.create(g, h, q, budget)
    if inst.copies is None:
        raise BudgetExhausted("class check undecided")
    if _mono_copy(inst.copies, pattern.to_coloring()):
        raise GraphError("a declared class of g contains the target")
    return _promote(_gni(h, f, g, partition, q, provider, d,
                         _indicator(h, f, q, d, NEGATIVE, provider,
                                    inst.budget),
                         _indicator(h, matching_graph(2), q, d, POSITIVE,
                                    provider, inst.budget), inst.budget),
                    _gni_gi1)


def _gni(h: Graph, f: Graph, g: Graph, partition: Sequence[Sequence[int]],
         q: int, provider: SenderProvider, d: int, neg_ind: IndicatorSpec,
         pair_ind: IndicatorSpec, budget: Budget) -> GNISpec:
    """The rainbow gadget from its standalone indicators (for f and for a
    2-edge matching), assembled under the caller's started budget; the
    caller checks it and sets its status."""
    asm = _Assembly(disjoint_union(
        f.relabel({v: f"F{v}" for v in range(f.n)}),
        g.relabel({v: f"G{v}" for v in range(g.n)})),
        "indicator subgraphs", h, q, d, provider, budget)
    f_vertices = tuple(range(f.n))
    f_eids = tuple(range(f.num_edges))
    g_vertices = tuple(range(f.n, f.n + g.n))
    g_classes = tuple(tuple(e + f.num_edges for e in cls) for cls in partition)

    m_edges, p_edges = zip(*[
        (asm.fresh(matching_graph(q), f"matching M_{k + 1}"),
         asm.fresh(matching_graph(2), f"matching P_{k + 1}"))
        for k in range(q - 1)])
    e_k = tuple(p[0] for p in p_edges)

    for k in range(q - 1):
        for m in m_edges[k]:
            asm.attach_indicator(neg_ind, f_vertices, m, "negative_indicators",
                                 f"negative indicator F -> M_{k + 1}")
    for k in range(q - 1):
        for s_pair in combinations(m_edges[k], 2):
            sv = [v for eid in s_pair for v in asm.builder.edges[eid]]
            for p in p_edges[k]:
                asm.attach_indicator(pair_ind, sv, p, "positive_indicators_pairs",
                                     f"positive indicator S -> P_{k + 1}")
    for k1, k2 in combinations(range(q - 1), 2):
        asm.attach_sender(NEGATIVE, e_k[k1], e_k[k2],
                          note="negative sender between distinguished edges")
        asm.counts["cross_senders"] += 1
    for k in range(q - 1):
        pv = [v for eid in p_edges[k] for v in asm.builder.edges[eid]]
        for g_eid in g_classes[k]:
            asm.attach_indicator(pair_ind, pv, g_eid,
                                 "positive_indicators_classes",
                                 f"positive indicator P_{k + 1} -> class")

    graph, senders_status, counts, manifest = asm.finish()
    return GNISpec(graph, f_vertices, f_eids, g_vertices, g_classes, h, q, d,
                   m_edges, p_edges, e_k, STATUS_UNVERIFIED, senders_status,
                   counts, manifest)


def _gni_gi1(spec: GNISpec) -> PropertyResult:
    return _separated("GI1", spec.graph, [spec.f_eids, spec.g_eids],
                      spec.f_eids, spec.g_eids, spec.d,
                      "induced subgraphs and distance {}")


def gni_expected_counts(q: int, class_sizes: Sequence[int]) -> dict:
    """Closed-form piece counts for the rainbow gadget construction."""
    return {
        "negative_indicators": (q - 1) * q,
        "positive_indicators_pairs": (q - 1) * comb(q, 2) * 2,
        "cross_senders": comb(q - 1, 2),
        "positive_indicators_classes": sum(class_sizes),
    }


def verify_gni(spec: GNISpec,
               budget: Budget = NO_BUDGET) -> VerificationReport:
    """GI2 to GI4 search under one clock; with no budget every GI4 case
    (each non-constant subgraph coloring with each target-free class
    coloring) is decided."""
    results = [_gni_gi1(spec)]

    if spec.senders_status == STATUS_STUB:
        return _stub_report("generalized_negative_indicator", results,
                            ("GI2", "GI3", "GI4"))

    q = spec.q
    inst = ArrowInstance.create(spec.graph, spec.h, q, budget)
    mono = {eid: 1 for eid in spec.f_eids}
    results.append(_check_cases(
        "GI2", inst,
        [(mono, "no free coloring keeps the subgraph monochromatic")], True))

    # GI3 violations: subgraph mono (color 1 wlog) while either some class
    # is split or the class colors fail to use the remaining palette
    palettes = (({**mono, **{e: c for cls, c in zip(spec.g_classes, gamma)
                             for e in cls}},
                 f"monochromatic classes colored {gamma} extend")
                for gamma in product(range(1, q + 1), repeat=q - 1)
                if {1, *gamma} != set(range(1, q + 1)))
    # a class can be split iff one of its edges can differ from its first
    splits = (({**mono, cls[0]: a, e: b},
               f"class {k + 1} can be split {a}/{b}")
              for k, cls in enumerate(spec.g_classes) for e in cls[1:]
              for a, b in permutations(range(1, q + 1), 2))
    results.append(_check_cases("GI3", inst, chain(palettes, splits), False))

    # GI4: any non-constant subgraph coloring + any target-free coloring
    # of g extends; the copies inside g are the host copies within g_eids
    # (with no copies in time, every case is unknown)
    g_set = set(spec.g_eids)
    g_copies = [es for es in inst.copies or () if g_set.issuperset(es)]
    g_sorted = sorted(g_set)
    phi_fs, count = _nonconstant(q, len(spec.f_eids))
    phi_gs = []
    for a in product(range(1, q + 1), repeat=len(g_sorted)):
        if inst.budget.expired():
            results.append(PropertyResult(
                "GI4", EXHAUSTED, "search",
                "covered 0 cases: out of time listing the class colorings"))
            return VerificationReport("generalized_negative_indicator",
                                      tuple(results))
        if _mono_copy(g_copies, EdgeColoring.from_map(
                q, dict(zip(g_sorted, a)))) is None:
            phi_gs.append(a)
    cases = (({**dict(zip(spec.f_eids, phi_f)), **dict(zip(g_sorted, phi_g))},
              f"subgraph colors {phi_f} with class coloring {phi_g} "
              "do not extend")
             for phi_f in phi_fs for phi_g in phi_gs)
    results.append(_check_cases("GI4", inst, cases, True,
                                total=count * len(phi_gs)))
    return VerificationReport("generalized_negative_indicator", tuple(results))


# ---------------------------------------------------------------------------
# pattern gadgets

@dataclass
class PatternGadgetSpec:
    KIND: ClassVar[str] = "pattern_gadget"
    graph: Graph
    g_vertices: tuple[int, ...]
    g_eids: tuple[int, ...]
    family: PatternFamily
    h: Graph
    q: int
    d: int
    r: int
    m_eids: tuple[int, ...]                     # matching of size (r-1)q+1
    surjection: tuple[tuple[tuple[int, ...], int], ...]   # r-subset -> pattern index
    status: str = STATUS_UNVERIFIED
    senders_status: str = STATUS_UNVERIFIED
    counts: dict = field(default_factory=dict)
    manifest: Optional[ConstructionManifest] = None

    def __post_init__(self):
        _check_spec(self, self.g_vertices, self.g_eids + self.m_eids)
        # base edge i is edge g_eids[i] of the graph, under g_vertices
        base, v = self.family.base, self.g_vertices
        if len(v) != base.n or len(self.g_eids) != base.num_edges or any(
                self.graph.edges[e] != tuple(sorted((v[a], v[b])))
                for e, (a, b) in zip(self.g_eids, base.edges)):
            raise GraphError(f"{self.KIND} spec's family base differs "
                             "from its g_eids edges")
        if any(m.q != self.q for m in self.family.members):
            raise GraphError("family pattern has wrong color count")

    def to_json(self) -> dict:
        return _spec_to_json(self)

    @classmethod
    def from_json(cls, data) -> "PatternGadgetSpec":
        return _spec_from_json(cls, data)


def choose_r(q: int, t_patterns: int) -> int:
    """Least r with C((r-1)q+1, r) >= t_patterns."""
    if q < 2 or t_patterns < 1:
        raise GraphError("need q >= 2 and at least one pattern")
    r = 1
    while comb((r - 1) * q + 1, r) < t_patterns:
        r += 1
    return r


def build_pattern_gadget(h: Graph, g: Graph, family: PatternFamily, q: int,
                         provider: SenderProvider, d: Optional[int] = None,
                         budget: Budget = NO_BUDGET) -> PatternGadgetSpec:
    """Base graph g, a matching M, and per r-subset of M positive
    indicators onto its pattern's last class and one rainbow gadget for
    the rest.  The family check covers every class, so the rainbow
    gadgets share two indicators, built with the first one needed; for
    r = 2 the pair indicator is the positive one.  One clock bounds the
    family check, the indicators' checks and the assembly."""
    d = _gadget_distance(h, d)
    if len(family) == 0:
        raise GraphError("pattern family must be nonempty")
    if (family.base.n, family.base.edges) != (g.n, g.edges):
        raise GraphError("family is not over the given base graph")
    if any(m.q != q for m in family.members):
        raise GraphError("family pattern has wrong color count")
    # a target-free member is a free coloring of g: g does not force h
    inst = ArrowInstance.create(g, h, q, budget)
    if inst.copies is None:
        raise BudgetExhausted("family check undecided")
    if any(_mono_copy(inst.copies, m.to_coloring()) for m in family.members):
        raise GraphError("every family pattern must be target-free")

    t = len(family)
    r = choose_r(q, t)
    m_size = (r - 1) * q + 1
    subsets = list(combinations(range(m_size), r))
    # lexicographically first subsets map to the patterns in declared
    # order; the rest to the first pattern, keeping s surjective
    surjection = tuple(
        (sub, i if i < t else 0) for i, sub in enumerate(subsets))

    asm = _Assembly(g.relabel({v: f"G{v}" for v in range(g.n)}),
                    "pattern base graph", h, q, d, provider, inst.budget)
    g_vertices = tuple(range(g.n))
    g_eids = tuple(range(g.num_edges))
    m_eids = asm.fresh(matching_graph(m_size), "pattern matching M")

    sub_f = matching_graph(r)
    pos_ind = _indicator(h, sub_f, q, d, POSITIVE, provider, inst.budget)
    gni_cache: dict[int, tuple] = {}

    for sub, pat_idx in surjection:
        pattern = family.members[pat_idx]
        host_f = [v for i in sub for v in asm.builder.edges[m_eids[i]]]
        for e_local in sorted(pattern.classes[q - 1]):
            asm.attach_indicator(pos_ind, host_f, g_eids[e_local],
                                 "positive_indicators",
                                 "positive indicator A -> last class")

        rest = sorted(e for cls in pattern.classes[:q - 1] for e in cls)
        if not rest:
            # the pattern puts every edge in the last class: there is
            # nothing left to force, no rainbow gadget is needed
            asm.counts["gni_skipped_empty"] += 1
            continue
        if pat_idx not in gni_cache:
            if not gni_cache:   # the first rainbow gadget: build its pieces
                neg_ind = _indicator(h, sub_f, q, d, NEGATIVE, provider,
                                     inst.budget)
                pair_ind = pos_ind if r == 2 else _indicator(
                    h, matching_graph(2), q, d, POSITIVE, provider,
                    inst.budget)
            sub_g = g.edge_induced(rest)
            vert_list = sorted(g.edge_vertices(rest))
            local_pos = {e: i for i, e in enumerate(rest)}
            sub_partition = [
                sorted(local_pos[e] for e in cls)
                for cls in pattern.classes[:q - 1]]
            gni = _gni(h, sub_f, sub_g, sub_partition, q, provider, d,
                       neg_ind, pair_ind, inst.budget)
            gni_cache[pat_idx] = (gni, vert_list)
        gni, vert_list = gni_cache[pat_idx]
        ident = dict(zip(gni.f_vertices, host_f))
        ident.update(zip(gni.g_vertices, vert_list))
        asm.attach_copy(gni, ident, "gni_copies",
                        "rainbow gadget A -> remaining classes")

    graph, senders_status, counts, manifest = asm.finish()
    return _promote(PatternGadgetSpec(
        graph, g_vertices, g_eids, family, h, q, d, r, m_eids, surjection,
        STATUS_UNVERIFIED, senders_status, counts, manifest), _pattern_p1)


def _pattern_p1(spec: PatternGadgetSpec) -> PropertyResult:
    return _separated("P1", spec.graph, [spec.g_eids], spec.m_eids,
                      spec.g_eids, spec.d,
                      "base graph induced; matching distance {}")


def verify_pattern_gadget(spec: PatternGadgetSpec,
                          budget: Budget = NO_BUDGET) -> VerificationReport:
    results = [_pattern_p1(spec)]

    if spec.senders_status == STATUS_STUB:
        return _stub_report("pattern_gadget", results, ("P2", "P3"))

    q = spec.q
    inst = ArrowInstance.create(spec.graph, spec.h, q, budget)
    g_eids = list(spec.g_eids)
    base = spec.family.base

    # P2: no free coloring may induce a pattern outside the family
    outside = ((dict(zip(g_eids, assign)),
                f"pattern {assign} outside the family extends")
               for assign in product(range(1, q + 1), repeat=len(g_eids))
               if not spec.family.contains(pattern_of(
                   base, EdgeColoring.from_map(q, dict(enumerate(assign))))))
    results.append(_check_cases("P2", inst, outside, False,
                                "no outside pattern extends"))

    # P3: every family pattern extends
    members = (({g_eids[e_local]: ci + 1
                 for ci, cls in enumerate(member.classes) for e_local in cls},
                f"family pattern {idx} does not extend")
               for idx, member in enumerate(spec.family.members))
    witnesses: list[EdgeColoring] = []
    p3 = _check_cases("P3", inst, members, True, "all family patterns extend",
                      witnesses=witnesses)
    if p3.outcome == PASS and _is_clique_pendant(spec.h):
        # monochromatic clique copies touching the base graph must lie
        # inside it
        gset, k = set(spec.g_vertices), spec.h.n - 1
        cliques = ArrowInstance.create(spec.graph, complete_graph(k), q,
                                       inst.budget).copies
        straddling = [es for es in cliques or () if 0 < len(
            gset & spec.graph.edge_vertices(es)) < k]
        special_ok = all(_mono_copy(straddling, w) is None for w in witnesses)
        p3 = replace(p3, outcome=EXHAUSTED if cliques is None else PASS,
                     detail=p3.detail + "; clique-copy containment flag " + (
                         "undecided" if cliques is None else "holds"
                         if special_ok else "NOT satisfied by found witnesses"))
    results.append(p3)
    return VerificationReport("pattern_gadget", tuple(results))


def _is_clique_pendant(h: Graph) -> bool:
    return h.n >= 4 and graphs_isomorphic(h, clique_with_pendant(h.n - 1))


# ---------------------------------------------------------------------------
# robustness

def check_robust(outer: Graph, inner_vertices: Sequence[int], h: Graph,
                 trials: int = 10000, s_max: int = 3,
                 seed: int = 0) -> VerificationReport:
    """Exact check of the containment dichotomy: after adding at most
    s_max new vertices S and any edges within S plus the inner vertex set,
    every copy of the target must lie inside the original graph or inside
    the subgraph induced by S and the inner vertices.

    A violating copy uses an added edge and a vertex outside the inner
    vertices and S.  Adding more edges keeps such a copy, and the new
    vertices are interchangeable, so one search of the complete
    augmentation on the inner vertices plus min(s_max, v(h) - 1) new
    vertices decides the property: a violating copy keeps a vertex
    outside, so it needs at most v(h) - 1 new vertices.  As in
    `enumerate_copies`, a copy is its edges.  A counterexample gives the
    copy's vertices and the added edges it uses, with its new vertices
    numbered from outer.n.

    `trials` and `seed` are accepted and ignored; they belonged to the
    randomized probe this check replaced.
    """
    if s_max < 0:
        raise GraphError("s_max must be non-negative")
    if h.num_edges == 0:
        raise GraphError("target must have edges")
    inner = sorted(set(inner_vertices))
    for v in inner:
        if not (0 <= v < outer.n):
            raise GraphError(f"inner vertex {v} out of range")
    n = outer.n + min(s_max, h.n - 1)
    pool = inner + list(range(outer.n, n))
    added = [(u, v) for u, v in combinations(pool, 2)
             if not outer.has_edge(u, v)]
    adj = _bitsets(n, chain(outer.edges, added))
    allowed = set(pool)
    found: list[dict[int, int]] = []

    def outside(image: dict[int, int]) -> bool:
        if allowed.issuperset(image.values()):
            return False
        found.append(dict(image))
        return True

    starts = ({pu: iu, pv: iv} for au, av in added for pu, pv in h.edges
              for iu, iv in ((au, av), (av, au)))
    if not _embed(adj, h, starts, outside):
        return VerificationReport("robustness", (PropertyResult(
            "robust", PASS, "exhaustive",
            f"no copy straddles an augmentation with at most {s_max} "
            "new vertices"),))

    image = found[0]
    new = sorted(v for v in image.values() if v >= outer.n)
    renumber = dict(zip(new, range(outer.n, outer.n + len(new))))
    copy_edges = {tuple(sorted((image[a], image[b]))) for a, b in h.edges}
    violation = {
        "new_vertices": len(new),
        "added_edges": sorted([renumber.get(u, u), renumber.get(v, v)]
                              for u, v in copy_edges & set(added)),
        "copy_vertices": sorted(renumber.get(v, v) for v in image.values()),
    }
    return VerificationReport("robustness", (PropertyResult(
        "robust", FAIL, "exhaustive",
        "copy straddles the augmentation and the host", violation),))

