"""Gadget graphs: signal senders, indicators, generalized negative
indicators, and pattern gadgets.

Senders are pluggable inputs (loaded, searched for, or stubbed); every
other gadget is built mechanically by composing senders and smaller
gadgets, and verified either structurally (interfaces, distances,
piece counts) or semantically (exhaustive coloring searches).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import chain, combinations, permutations, product
from math import comb
from typing import ClassVar, Optional, Protocol, Sequence, get_type_hints

from . import graph6
from .arrowing import (ARROWS, DOES_NOT_ARROW, NO_BUDGET, UNKNOWN, ArrowInstance,
                       Budget, arrows, extendable, verify_witness)
from .coloring import EXACT, ColorPattern, EdgeColoring, PatternFamily, pattern_of
from .graph import (Graph, GraphError, compose, disjoint_union, edge_distance,
                    decode_json, enumerate_copies, girth, graphs_isomorphic,
                    matching_graph, single_edge)
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
    if isinstance(value, PatternFamily):      # the base graph is stored once
        return {"base": value.base.to_json(), "mode": value.mode,
                "members": [[sorted(c) for c in m.classes]
                            for m in value.members]}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value.to_json() if hasattr(value, "to_json") else value


def _decode(hint, data, where: str):
    if hint is not PatternFamily:
        return decode_json(hint, data, where)
    data = data if isinstance(data, dict) else {}
    base = Graph.from_json(data.get("base"))
    members = decode_json(tuple[tuple[tuple[int, ...], ...], ...],
                          data.get("members"), where)
    return PatternFamily(base, tuple(
        ColorPattern(base, tuple(map(frozenset, m))) for m in members),
        data.get("mode", EXACT))


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
    spec = cls(**{f.name: _decode(hints[f.name], data[f.name],
                                  f"{cls.KIND} {f.name}")
                  for f in fields(cls) if f.name in data})
    manifest = getattr(spec, "manifest", None)
    if manifest is not None and manifest.replay() != spec.graph:
        raise GraphError("manifest does not replay to the spec graph")
    return spec


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
        if self.e == self.f:
            raise GraphError("signal edges must differ")
        if self.polarity not in (POSITIVE, NEGATIVE):
            raise GraphError(f"unknown polarity {self.polarity!r}")

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
    # e = (0,1), f = (2,3), path of d edges from 1 to 2
    edges = [(0, 1), (2, 3)]
    prev = 1
    for i in range(d - 1):
        edges.append(tuple(sorted((prev, 4 + i))))
        prev = 4 + i
    edges.append(tuple(sorted((prev, 2))))
    g = Graph(3 + d, tuple(edges))
    return SenderSpec(g, 0, 1, polarity, h, q, d, status=STATUS_STUB)


def string_senders(senders: Sequence[SenderSpec]) -> SenderSpec:
    """Chain senders by identifying consecutive signal edges.  All but
    the last must be positive; the result's polarity is the last one's
    and its distance claim is the sum of the members' claims."""
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

    g = first.graph
    e_id, f_id = first.e, first.f
    for s in senders[1:]:
        hu, hv = g.edges[f_id]
        gu, gv = s.graph.edges[s.e]
        res = compose(g, s.graph, {gu: hu, gv: hv})
        g = res.graph
        f_id = res.edge_map[s.f]
    statuses = {s.status for s in senders}
    if statuses == {STATUS_FULL}:
        status = STATUS_FULL          # semantics follow from the members'
    elif STATUS_STUB in statuses:
        status = STATUS_STUB
    else:
        status = STATUS_UNVERIFIED
    return SenderSpec(g, e_id, f_id, senders[-1].polarity, first.h, first.q,
                      sum(s.d for s in senders), status)


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

    # a violating coloring can be color-permuted to fixed colors on e, f
    bad = {spec.e: 1, spec.f: 2 if spec.polarity == POSITIVE else 1}
    results.append(_check_cases(
        "S2", inst, [(bad, "free coloring violating the signal relation")],
        False, "no violating free coloring exists"))
    return VerificationReport("sender", tuple(results))


def search_sender(h: Graph, q: int, d: int, polarity: str, max_order: int,
                  corpus: Optional[Sequence[Graph]] = None,
                  budget: Budget = NO_BUDGET) -> Optional[SenderSpec]:
    """Scan a corpus of candidate graphs and all designated edge pairs
    at distance >= d; return the first fully verified sender, if any."""
    if corpus is None:
        corpus = graph6.load_corpus(max_order=max_order)
    for g in corpus:
        if g.n > max_order or g.num_edges < 2:
            continue
        inst = ArrowInstance.create(g, h, q, budget)
        base = arrows(inst)
        if base.verdict != DOES_NOT_ARROW:
            continue
        for e_id, f_id in combinations(range(g.num_edges), 2):
            if edge_distance(g, [e_id], [f_id]) < d:
                continue
            spec = SenderSpec(g, e_id, f_id, polarity, h, q, d)
            report = verify_sender(spec, budget)
            if report.fully_verified:
                spec.status = STATUS_FULL
                return spec
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
    raises when no compatible sender is known."""

    def __init__(self, senders: Sequence[SenderSpec]):
        self.senders = list(senders)

    def get(self, polarity: str, h: Graph, q: int, d: int) -> SenderSpec:
        for s in self.senders:
            if s.polarity == polarity and s.q == q and s.d >= d \
                    and graphs_isomorphic(s.h, h):
                return s
        raise GraphError(
            f"no {polarity} sender available for q={q}, d={d}")


class SearchSenderProvider:
    def __init__(self, max_order: int,
                 corpus: Optional[Sequence[Graph]] = None,
                 budget: Budget = NO_BUDGET):
        self.max_order = max_order
        self.corpus = corpus
        self.budget = budget
        self._cache: dict = {}

    def get(self, polarity: str, h: Graph, q: int, d: int) -> SenderSpec:
        key = (polarity, h, q, d)
        if key not in self._cache:
            self._cache[key] = search_sender(
                h, q, d, polarity, self.max_order, self.corpus, self.budget)
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

    def to_json(self) -> dict:
        return _spec_to_json(self)

    @classmethod
    def from_json(cls, data) -> "IndicatorSpec":
        return _spec_from_json(cls, data)


def _attach_sender(builder: ManifestBuilder, spec: SenderSpec,
                   host_a: int, host_b: int, note: str = ""):
    """Compose a fresh sender copy, signal edges onto two host edges."""
    g = spec.graph
    au, av = g.edges[spec.e]
    bu, bv = g.edges[spec.f]
    ha = builder.graph.edges[host_a]
    hb = builder.graph.edges[host_b]
    ident = {au: ha[0], av: ha[1], bu: hb[0], bv: hb[1]}
    builder.compose(g, ident, note=note or f"{spec.polarity} sender")


def _attach_fresh_edge(builder: ManifestBuilder, note: str = "") -> int:
    res = builder.compose(single_edge(), {}, note=note or "fresh edge")
    return res.edge_map[0]


def _attach_fresh_graph(builder: ManifestBuilder, g: Graph, note: str = ""):
    return builder.compose(g, {}, note=note)


def _pick_base_edges(h: Graph) -> tuple[int, int]:
    """Two starting-copy edges; the first must not be a pendant edge
    (both its endpoints need degree >= 2), matching the constraint for
    clique-with-pendant targets."""
    e1 = None
    for eid, (u, v) in enumerate(h.edges):
        if h.degree(u) >= 2 and h.degree(v) >= 2:
            e1 = eid
            break
    if e1 is None:
        e1 = 0
    e2 = 0 if e1 != 0 else 1
    return e1, e2


def _is_cycle(h: Graph) -> bool:
    return h.n >= 3 and h.num_edges == h.n and \
        all(d == 2 for d in h.degrees()) and h.is_connected()


def _check_indicator_preconditions(h: Graph, f: Graph):
    if h.num_edges < 2:
        raise GraphError("target needs at least 2 edges")
    if f.num_edges >= h.num_edges and enumerate_copies(f, h):
        raise GraphError("indicator subgraph must not contain the target")
    if _is_cycle(h) and girth(f) <= h.n:
        raise GraphError(
            f"cycle target of length {h.n} needs indicator subgraph of "
            f"girth > {h.n}")


def _attach_indicator_core(builder: ManifestBuilder, f_eids: list[int],
                           h: Graph, q: int, d: int,
                           provider: SenderProvider, counts: dict,
                           statuses: set) -> int:
    """Recursively attach a positive indicator for the host edges f_eids
    onto the builder's graph; returns the fresh indicator edge id."""

    def sender(polarity: str) -> SenderSpec:
        s = provider.get(polarity, h, q, d)
        statuses.add(s.status)
        key = f"{polarity}_senders"
        counts[key] = counts.get(key, 0) + 1
        return s

    if len(f_eids) == 1:
        # one-edge subgraph: the indicator degenerates to a sender
        s = sender(POSITIVE)
        g = s.graph
        eu, ev = g.edges[s.e]
        hf = builder.graph.edges[f_eids[0]]
        res = builder.compose(g, {eu: hf[0], ev: hf[1]},
                              note="positive sender as one-edge indicator")
        counts["one_edge_bases"] = counts.get("one_edge_bases", 0) + 1
        return res.edge_map[s.f]

    if len(f_eids) == 2:
        f1, f2 = f_eids
        if q == 2:
            counts["base_q2"] = counts.get("base_q2", 0) + 1
            counts["start_copies"] = counts.get("start_copies", 0) + 1
            res = _attach_fresh_graph(builder, h, note="starting copy")
            h0 = [res.edge_map[i] for i in range(h.num_edges)]
            e1_idx, e2_idx = _pick_base_edges(h)
            e1, e2 = h0[e1_idx], h0[e2_idx]
            e = _attach_fresh_edge(builder, note="indicator edge")
            for i, g_eid in enumerate(h0):
                if i in (e1_idx, e2_idx):
                    continue
                _attach_sender(builder, sender(NEGATIVE), f1, g_eid)
            _attach_sender(builder, sender(NEGATIVE), f2, e2)
            _attach_sender(builder, sender(POSITIVE), e1, e)
            return e

        counts["base_qgt2"] = counts.get("base_qgt2", 0) + 1
        mres = _attach_fresh_graph(builder, matching_graph(q - 1),
                                   note="base matching")
        m_edges = [mres.edge_map[i] for i in range(q - 1)]
        # q-1 starting copies sharing exactly the indicator edge
        e = _attach_fresh_edge(builder, note="indicator edge")
        eu, ev = builder.graph.edges[e]
        shared = h.edges[0]
        copies = []
        for i in range(q - 1):
            counts["start_copies"] = counts.get("start_copies", 0) + 1
            res = builder.compose(h, {shared[0]: eu, shared[1]: ev},
                                  note=f"starting copy {i + 1}")
            copies.append([res.edge_map[j] for j in range(h.num_edges)])
        for i in range(q - 2):
            _attach_sender(builder, sender(NEGATIVE), f1, m_edges[i])
        _attach_sender(builder, sender(NEGATIVE), f2, m_edges[q - 2])
        for i, j in combinations(range(q - 1), 2):
            _attach_sender(builder, sender(NEGATIVE), m_edges[i], m_edges[j])
        for i in range(q - 1):
            for j, g_eid in enumerate(copies[i]):
                if g_eid == e:
                    continue
                _attach_sender(builder, sender(POSITIVE), m_edges[i], g_eid)
        return e

    # induction: split off the highest edge, indicate the rest, then the pair
    counts["recursive_steps"] = counts.get("recursive_steps", 0) + 1
    f = f_eids[-1]
    e_prime = _attach_indicator_core(builder, f_eids[:-1], h, q, d,
                                     provider, counts, statuses)
    return _attach_indicator_core(builder, [f, e_prime], h, q, d,
                                  provider, counts, statuses)


def build_indicator(h: Graph, f: Graph, q: int, polarity: str,
                    provider: SenderProvider,
                    d: Optional[int] = None) -> IndicatorSpec:
    if d is None:
        d = h.n + 1
    if f.num_edges < 2:
        raise GraphError("indicator subgraph needs at least 2 edges")
    _check_indicator_preconditions(h, f)
    if polarity not in (POSITIVE, NEGATIVE):
        raise GraphError(f"unknown polarity {polarity!r}")

    base = f.relabel({v: f"F{v}" for v in range(f.n)})
    builder = ManifestBuilder(base, note="indicator subgraph")
    counts: dict = {}
    statuses: set = set()
    e = _attach_indicator_core(builder, list(range(f.num_edges)), h, q, d,
                               provider, counts, statuses)
    if polarity == NEGATIVE:
        e_prime = e
        e = _attach_fresh_edge(builder, note="negative indicator edge")
        s = provider.get(NEGATIVE, h, q, d)
        statuses.add(s.status)
        counts["negative_senders"] = counts.get("negative_senders", 0) + 1
        _attach_sender(builder, s, e_prime, e)

    spec = IndicatorSpec(
        builder.graph, tuple(range(f.n)), tuple(range(f.num_edges)), e,
        polarity, h, q, d, STATUS_UNVERIFIED, _worst_status(statuses),
        counts, builder.manifest)
    if _structural_indicator_ok(spec):
        spec.status = STATUS_STRUCTURAL
    return spec


def _no_extra_edges(graph: Graph, eids) -> bool:
    eset = set(eids)
    verts = sorted(graph.edge_vertices(eids))
    for u, v in combinations(verts, 2):
        if graph.has_edge(u, v) and graph.edge_id(u, v) not in eset:
            return False
    return True


def _structural_indicator_ok(spec: IndicatorSpec) -> bool:
    return _no_extra_edges(spec.graph, spec.f_eids) and \
        edge_distance(spec.graph, spec.f_eids, [spec.e]) >= spec.d


_STUB_SKIP = "built from stub senders: coloring semantics not claimed"


def _stub_report(subject: str, results: list, names: Sequence[str],
                 detail: str = _STUB_SKIP) -> VerificationReport:
    """The structural results so far plus a skip for each coloring-level
    property, which stub senders do not claim."""
    return VerificationReport(subject, tuple(results) + tuple(
        PropertyResult(name, SKIPPED_STUB, "structural", detail)
        for name in names))


def _check_cases(name: str, inst: ArrowInstance, cases, want_extendable: bool,
                 pass_detail: str = "", max_cases: Optional[int] = None,
                 witnesses: Optional[list] = None) -> PropertyResult:
    """Decide one property by running `extendable` on each case, in order,
    against the shared instance and its budget.

    `cases` yields (partial coloring as {edge: color}, failure detail).
    The property holds when every case extends to a target-free coloring
    (`want_extendable`) or when none does.  The first case that says
    otherwise is a FAIL, with the extension as a "coloring"
    counterexample or the stuck case as a "partial" one.  An unknown case
    does not stop the loop; with no failure it makes the result
    budget_exhausted, as does stopping after `max_cases` cases (then
    `cases` must be sized, and the detail counts the cases covered).  The
    witness of each extending case is appended to `witnesses` if given.
    """
    total = len(cases) if max_cases is not None else None
    covered = 0
    unknown = False
    for partial, fail_detail in cases:
        if max_cases is not None and covered >= max_cases:
            break
        covered += 1
        ext = extendable(inst.host, EdgeColoring.from_map(inst.q, partial),
                         inst.target, inst.q, instance=inst)
        if ext.verdict == UNKNOWN:
            unknown = True
        elif ext.extendable != want_extendable:
            if ext.extendable:
                cex = {"coloring": ext.witness.to_json()}
            else:
                cex = {"partial": [[e, c] for e, c in partial.items()]}
            return PropertyResult(name, FAIL, "search", fail_detail, cex)
        elif ext.extendable and witnesses is not None:
            witnesses.append(ext.witness)
    if unknown or (total is not None and covered < total):
        detail = "" if total is None else f"covered {covered} of {total} cases"
        return PropertyResult(name, EXHAUSTED, "search", detail)
    return PropertyResult(name, PASS, "search", pass_detail)


def verify_indicator(spec: IndicatorSpec, budget: Budget = NO_BUDGET,
                     max_cases: int = 512) -> VerificationReport:
    results = []
    dist = edge_distance(spec.graph, spec.f_eids, [spec.e])
    i1 = _no_extra_edges(spec.graph, spec.f_eids) and dist >= spec.d
    results.append(PropertyResult(
        "I1", PASS if i1 else FAIL, "structural",
        f"induced subgraph and distance {dist} >= {spec.d}"))

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
    cases = [({**dict(zip(spec.f_eids, assign)), spec.e: k},
              f"subgraph colors {assign} block edge color {k}")
             for assign in product(range(1, q + 1), repeat=len(spec.f_eids))
             if len(set(assign)) > 1
             for k in range(1, q + 1)]
    results.append(_check_cases("I4", inst, cases, True,
                                f"all {len(cases)} cases extend", max_cases))
    return VerificationReport("indicator", tuple(results))


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

    @property
    def g_eids(self) -> tuple[int, ...]:
        return tuple(e for cls in self.g_classes for e in cls)

    def to_json(self) -> dict:
        return _spec_to_json(self)

    @classmethod
    def from_json(cls, data) -> "GNISpec":
        return _spec_from_json(cls, data)


def _indicator_for(h: Graph, f: Graph, q: int, d: int, polarity: str,
                   provider: SenderProvider) -> IndicatorSpec:
    """An indicator whose subgraph is f; a single-edge f degenerates to
    a bare sender."""
    if f.num_edges >= 2:
        return build_indicator(h, f, q, polarity, provider, d)
    s = provider.get(polarity, h, q, d)
    return IndicatorSpec(
        s.graph, s.graph.edges[s.e], (s.e,), s.f, polarity, h, q, d,
        STATUS_STRUCTURAL if s.signal_distance() >= d else STATUS_UNVERIFIED,
        s.status, {f"{polarity}_senders": 1, "one_edge_bases": 1}, None)


def _attach_indicator_copy(builder: ManifestBuilder, ind: IndicatorSpec,
                           host_f_vertices: Sequence[int], host_e: int,
                           note: str = ""):
    """Fresh copy of a standalone indicator: its subgraph vertices land
    on host_f_vertices (same local order) and its edge on host_e."""
    ident = {fv: hv for fv, hv in zip(ind.f_vertices, host_f_vertices)}
    eu, ev = ind.graph.edges[ind.e]
    hu, hv = builder.graph.edges[host_e]
    ident[eu] = hu
    ident[ev] = hv
    builder.compose(ind.graph, ident, note=note or f"{ind.polarity} indicator")


def _merge_counts(total: dict, part: dict, copies: int = 1):
    for k, v in part.items():
        total[k] = total.get(k, 0) + v * copies


def build_gni(h: Graph, f: Graph, g: Graph,
              partition: Sequence[Sequence[int]], q: int,
              provider: SenderProvider,
              d: Optional[int] = None) -> GNISpec:
    """Rainbow-forcing gadget: when the subgraph f is monochromatic,
    the declared classes of g must each be monochromatic and use all
    remaining colors."""
    if d is None:
        d = h.n + 1
    if d <= h.n:
        raise GraphError("distance parameter must exceed the target order")
    if len(partition) != q - 1:
        raise GraphError(f"partition must have exactly {q - 1} classes")
    seen: set[int] = set()
    for cls in partition:
        if seen & set(cls):
            raise GraphError("partition classes overlap")
        seen |= set(cls)
    if seen != set(range(g.num_edges)):
        raise GraphError("partition must cover the g edges exactly")
    if f.num_edges >= h.num_edges and enumerate_copies(f, h):
        raise GraphError("subgraph f must not contain the target")
    for cls in partition:
        if cls and len(cls) >= h.num_edges and \
                enumerate_copies(g.edge_induced(cls), h):
            raise GraphError("a declared class of g contains the target")

    base = disjoint_union(
        f.relabel({v: f"F{v}" for v in range(f.n)}),
        g.relabel({v: f"G{v}" for v in range(g.n)}))
    builder = ManifestBuilder(base, note="indicator subgraphs")
    f_vertices = tuple(range(f.n))
    f_eids = tuple(range(f.num_edges))
    g_vertices = tuple(range(f.n, f.n + g.n))
    g_classes = tuple(tuple(e + f.num_edges for e in cls) for cls in partition)

    m_edges = []
    p_edges = []
    for k in range(q - 1):
        res = _attach_fresh_graph(builder, matching_graph(q),
                                  note=f"matching M_{k + 1}")
        m_edges.append(tuple(res.edge_map[i] for i in range(q)))
        res = _attach_fresh_graph(builder, matching_graph(2),
                                  note=f"matching P_{k + 1}")
        p_edges.append(tuple(res.edge_map[i] for i in range(2)))
    e_k = tuple(p[0] for p in p_edges)

    counts: dict = {}
    statuses: set = set()
    neg_ind = _indicator_for(h, f, q, d, NEGATIVE, provider)
    pair_ind = _indicator_for(h, matching_graph(2), q, d, POSITIVE, provider)
    statuses.add(neg_ind.senders_status)
    statuses.add(pair_ind.senders_status)

    host_f = list(f_vertices)
    for k in range(q - 1):
        for m in m_edges[k]:
            _attach_indicator_copy(builder, neg_ind, host_f, m,
                                   note=f"negative indicator F -> M_{k + 1}")
            _merge_counts(counts, neg_ind.counts)
            counts["negative_indicators"] = counts.get("negative_indicators", 0) + 1
    for k in range(q - 1):
        for s_pair in combinations(m_edges[k], 2):
            sv = [v for eid in s_pair for v in builder.graph.edges[eid]]
            for p in p_edges[k]:
                _attach_indicator_copy(builder, pair_ind, sv, p,
                                       note=f"positive indicator S -> P_{k + 1}")
                _merge_counts(counts, pair_ind.counts)
                counts["positive_indicators_pairs"] = \
                    counts.get("positive_indicators_pairs", 0) + 1
    for k1, k2 in combinations(range(q - 1), 2):
        s = provider.get(NEGATIVE, h, q, d)
        statuses.add(s.status)
        _attach_sender(builder, s, e_k[k1], e_k[k2],
                       note="negative sender between distinguished edges")
        counts["negative_senders"] = counts.get("negative_senders", 0) + 1
        counts["cross_senders"] = counts.get("cross_senders", 0) + 1
    for k in range(q - 1):
        pv = [v for eid in p_edges[k] for v in builder.graph.edges[eid]]
        for g_eid in g_classes[k]:
            _attach_indicator_copy(builder, pair_ind, pv, g_eid,
                                   note=f"positive indicator P_{k + 1} -> class")
            _merge_counts(counts, pair_ind.counts)
            counts["positive_indicators_classes"] = \
                counts.get("positive_indicators_classes", 0) + 1

    spec = GNISpec(builder.graph, f_vertices, f_eids, g_vertices, g_classes,
                   h, q, d, tuple(m_edges), tuple(p_edges), e_k,
                   STATUS_UNVERIFIED, _worst_status(statuses), counts,
                   builder.manifest)
    if _structural_gni_ok(spec):
        spec.status = STATUS_STRUCTURAL
    return spec


def _structural_gni_ok(spec: GNISpec) -> bool:
    g_eids = spec.g_eids
    if not g_eids:
        return False
    return (_no_extra_edges(spec.graph, spec.f_eids)
            and _no_extra_edges(spec.graph, g_eids)
            and edge_distance(spec.graph, spec.f_eids, g_eids) >= spec.d)


def gni_expected_counts(q: int, class_sizes: Sequence[int]) -> dict:
    """Closed-form piece counts for the rainbow gadget construction."""
    return {
        "negative_indicators": (q - 1) * q,
        "positive_indicators_pairs": (q - 1) * comb(q, 2) * 2,
        "cross_senders": comb(q - 1, 2),
        "positive_indicators_classes": sum(class_sizes),
    }


def verify_gni(spec: GNISpec, budget: Budget = NO_BUDGET,
               max_cases: int = 256) -> VerificationReport:
    results = []
    g_eids = spec.g_eids
    dist = edge_distance(spec.graph, spec.f_eids, g_eids)
    gi1 = _no_extra_edges(spec.graph, spec.f_eids) and \
        _no_extra_edges(spec.graph, g_eids) and dist >= spec.d
    results.append(PropertyResult(
        "GI1", PASS if gi1 else FAIL, "structural",
        f"induced subgraphs and distance {dist} >= {spec.d}"))

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
    splits = (({**mono, e1: a, e2: b}, f"class {k + 1} can be split {a}/{b}")
              for k, cls in enumerate(spec.g_classes)
              for e1, e2 in combinations(cls, 2)
              for a, b in permutations(range(1, q + 1), 2))
    results.append(_check_cases("GI3", inst, chain(palettes, splits), False))

    # GI4: any non-constant subgraph coloring + any target-free coloring
    # of g extends
    g_sub_inst = None
    g_sub = spec.graph.edge_induced(g_eids)
    if g_sub.num_edges >= spec.h.num_edges:
        g_sub_inst = ArrowInstance.create(g_sub, spec.h, q, budget)
    phi_fs = [a for a in product(range(1, q + 1), repeat=len(spec.f_eids))
              if len(set(a)) > 1]
    pos_of = {e: i for i, e in enumerate(sorted(g_eids))}
    phi_gs = []
    for a in product(range(1, q + 1), repeat=len(g_eids)):
        if g_sub_inst is not None:
            wit = EdgeColoring.from_map(q, dict(enumerate(a)))
            if not verify_witness(g_sub_inst, wit):
                continue
        phi_gs.append(a)
    cases = [({**dict(zip(spec.f_eids, phi_f)),
               **{e: phi_g[pos_of[e]] for e in g_eids}},
              f"subgraph colors {phi_f} with class coloring {phi_g} "
              "do not extend")
             for phi_f in phi_fs for phi_g in phi_gs]
    results.append(_check_cases("GI4", inst, cases, True,
                                f"all {len(cases)} cases extend", max_cases))
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
                         check_base: bool = True,
                         budget: Budget = NO_BUDGET) -> PatternGadgetSpec:
    if d is None:
        d = h.n + 1
    if len(family) == 0:
        raise GraphError("pattern family must be nonempty")
    if family.base.num_edges != g.num_edges:
        raise GraphError("family is not over the given base graph")
    if not family.all_h_free(h):
        raise GraphError("every family pattern must be target-free")
    for m in family.members:
        if m.q != q:
            raise GraphError("family pattern has wrong color count")
    if check_base and g.num_edges >= h.num_edges:
        res = arrows(ArrowInstance.create(g, h, q, budget))
        if res.verdict == ARROWS:
            raise GraphError("base graph must not force the target")
        if res.verdict == UNKNOWN:
            raise GraphError("could not confirm the base graph within budget")

    t = len(family)
    r = choose_r(q, t)
    m_size = (r - 1) * q + 1
    subsets = list(combinations(range(m_size), r))
    # lexicographically first subsets map to the patterns in declared
    # order; the rest to the first pattern, keeping s surjective
    surjection = tuple(
        (sub, i if i < t else 0) for i, sub in enumerate(subsets))

    base = g.relabel({v: f"G{v}" for v in range(g.n)})
    builder = ManifestBuilder(base, note="pattern base graph")
    g_vertices = tuple(range(g.n))
    g_eids = tuple(range(g.num_edges))
    res = _attach_fresh_graph(builder, matching_graph(m_size),
                              note="pattern matching M")
    m_eids = tuple(res.edge_map[i] for i in range(m_size))

    counts: dict = {}
    statuses: set = set()
    sub_f = matching_graph(r)
    pos_ind = _indicator_for(h, sub_f, q, d, POSITIVE, provider)
    statuses.add(pos_ind.senders_status)
    gni_cache: dict[int, tuple] = {}

    for sub, pat_idx in surjection:
        pattern = family.members[pat_idx]
        host_f = [v for i in sub for v in builder.graph.edges[m_eids[i]]]
        last_class = pattern.classes[q - 1]
        for e_local in sorted(last_class):
            _attach_indicator_copy(builder, pos_ind, host_f, g_eids[e_local],
                                   note="positive indicator A -> last class")
            _merge_counts(counts, pos_ind.counts)
            counts["positive_indicators"] = counts.get("positive_indicators", 0) + 1

        rest = sorted(e for cls in pattern.classes[:q - 1] for e in cls)
        if not rest:
            # the pattern puts every edge in the last class: there is
            # nothing left to force, no rainbow gadget is needed
            counts["gni_skipped_empty"] = counts.get("gni_skipped_empty", 0) + 1
            continue
        if pat_idx not in gni_cache:
            sub_g = g.edge_induced(rest)
            vert_list = sorted(g.edge_vertices(rest))
            local_pos = {e: i for i, e in enumerate(rest)}
            sub_partition = [
                sorted(local_pos[e] for e in cls)
                for cls in pattern.classes[:q - 1]]
            gni = build_gni(h, sub_f, sub_g, sub_partition, q, provider, d)
            gni_cache[pat_idx] = (gni, vert_list)
        gni, vert_list = gni_cache[pat_idx]
        statuses.add(gni.senders_status)
        ident = {fv: hv for fv, hv in zip(gni.f_vertices, host_f)}
        for gv, orig in zip(gni.g_vertices, vert_list):
            ident[gv] = orig
        builder.compose(gni.graph, ident,
                        note="rainbow gadget A -> remaining classes")
        _merge_counts(counts, gni.counts)
        counts["gni_copies"] = counts.get("gni_copies", 0) + 1

    spec = PatternGadgetSpec(
        builder.graph, g_vertices, g_eids, family, h, q, d, r, m_eids,
        surjection, STATUS_UNVERIFIED, _worst_status(statuses), counts,
        builder.manifest)
    if _structural_pattern_ok(spec):
        spec.status = STATUS_STRUCTURAL
    return spec


def _structural_pattern_ok(spec: PatternGadgetSpec) -> bool:
    return (_no_extra_edges(spec.graph, spec.g_eids)
            and edge_distance(spec.graph, spec.m_eids, spec.g_eids) >= spec.d)


def verify_pattern_gadget(spec: PatternGadgetSpec,
                          budget: Budget = NO_BUDGET) -> VerificationReport:
    results = []
    dist = edge_distance(spec.graph, spec.m_eids, spec.g_eids)
    p1 = _no_extra_edges(spec.graph, spec.g_eids)
    results.append(PropertyResult(
        "P1", PASS if p1 else FAIL, "structural",
        f"base graph induced; matching distance {dist} >= {spec.d}"))

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
        special_ok = all(_special_witness_ok(spec, w) for w in witnesses)
        p3 = replace(p3, detail=p3.detail + "; clique-copy containment flag "
                     + ("holds" if special_ok
                        else "NOT satisfied by found witnesses"))
    results.append(p3)
    return VerificationReport("pattern_gadget", tuple(results))


def _is_clique_pendant(h: Graph) -> bool:
    from .graph import clique_with_pendant
    return h.n >= 4 and graphs_isomorphic(h, clique_with_pendant(h.n - 1))


def _special_witness_ok(spec: PatternGadgetSpec,
                        witness: EdgeColoring) -> bool:
    """Monochromatic clique copies touching the base graph must lie
    inside it (checked on pattern-gadget witnesses for clique+pendant
    targets)."""
    from .graph import complete_graph
    t = spec.h.n - 1
    clique = complete_graph(t)
    cmap = witness.as_dict()
    gset = set(spec.g_vertices)
    for emb in enumerate_copies(spec.graph, clique):
        ids = list(emb.edge_set)
        c0 = cmap[ids[0]]
        if any(cmap[e] != c0 for e in ids[1:]):
            continue
        verts = {v for e in ids for v in spec.graph.edges[e]}
        if verts & gset and not verts <= gset:
            return False
    return True


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
    outside, so it needs at most v(h) - 1 new vertices.  A counterexample
    gives the copy's vertices and the added edges it uses, with its new
    vertices numbered from outer.n.

    `trials` and `seed` are accepted and ignored; they belonged to the
    randomized probe this check replaced.
    """
    if s_max < 0:
        raise GraphError("s_max must be non-negative")
    inner = sorted(set(inner_vertices))
    for v in inner:
        if not (0 <= v < outer.n):
            raise GraphError(f"inner vertex {v} out of range")
    n = outer.n + min(s_max, h.n - 1)
    pool = inner + list(range(outer.n, n))
    adj = list(outer.adj) + [0] * (n - outer.n)
    added: list[tuple[int, int]] = []
    for u, v in combinations(pool, 2):
        if not (adj[u] >> v) & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            added.append((u, v))
    image = _anchored_copy(adj, n, h.edges, h.degrees(), added, set(pool))
    if image is None:
        return VerificationReport("robustness", (PropertyResult(
            "robust", PASS, "exhaustive",
            f"no copy straddles an augmentation with at most {s_max} "
            "new vertices"),))

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


def _anchored_copy(adj: list[int], n: int, pat_edges, pat_deg, added,
                   allowed: set[int]) -> Optional[dict[int, int]]:
    """A copy of the pattern using an added edge and a vertex outside
    `allowed`, as a map from pattern vertices to host vertices, or None."""
    np = len(pat_deg)
    deg = [a.bit_count() for a in adj]
    pat_adj: list[list[int]] = [[] for _ in range(np)]
    for (u, v) in pat_edges:
        pat_adj[u].append(v)
        pat_adj[v].append(u)

    def complete(image: dict[int, int]) -> Optional[dict[int, int]]:
        if len(image) == np:
            return None if set(image.values()) <= allowed else dict(image)
        # next unmapped pattern vertex adjacent to a mapped one if possible
        nxt = None
        for pv in range(np):
            if pv in image:
                continue
            if any(w in image for w in pat_adj[pv]):
                nxt = pv
                break
        if nxt is None:
            for pv in range(np):
                if pv not in image:
                    nxt = pv
                    break
        cand = (1 << n) - 1
        for w in pat_adj[nxt]:
            if w in image:
                cand &= adj[image[w]]
        used = 0
        for v in image.values():
            used |= 1 << v
        cand &= ~used
        while cand:
            hv = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if deg[hv] < pat_deg[nxt]:
                continue
            image[nxt] = hv
            got = complete(image)
            if got is not None:
                return got
            del image[nxt]
        return None

    for (au, av) in added:
        for (pu, pv) in pat_edges:
            for iu, iv in ((au, av), (av, au)):
                if deg[iu] < pat_deg[pu] or deg[iv] < pat_deg[pv]:
                    continue
                got = complete({pu: iu, pv: iv})
                if got is not None:
                    return got
    return None
