"""Arrowing engine.

Decides whether every q-coloring of a host graph's edges contains a
monochromatic copy of a target graph.  The search is backtracking over
edges with copy-list propagation: each copy of the target is a
constraint "not all edges one color".  Budgets (node count, wall time)
turn into an explicit unknown verdict, never a wrong one.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .coloring import EdgeColoring
from .graph import Graph, GraphError, enumerate_copies

ARROWS = "arrows"
DOES_NOT_ARROW = "does_not_arrow"
UNKNOWN = "unknown_budget_exhausted"

MINIMAL = "minimal"
NOT_MINIMAL = "not_minimal"


@dataclass(frozen=True)
class Budget:
    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise GraphError("max_nodes must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise GraphError("max_seconds must be positive")


NO_BUDGET = Budget()


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    elapsed: float
    workers: int = 1


@dataclass(frozen=True)
class ArrowInstance:
    host: Graph
    target: Graph
    q: int
    copies: tuple[tuple[int, ...], ...]   # distinct copies as sorted edge-id tuples
    budget: Budget = NO_BUDGET

    @classmethod
    def create(cls, host: Graph, target: Graph, q: int,
               budget: Budget = NO_BUDGET) -> "ArrowInstance":
        if q < 2:
            raise GraphError("need at least 2 colors")
        if target.num_edges == 0:
            raise GraphError("target must have edges")
        if target.num_edges > host.num_edges:
            copies: tuple[tuple[int, ...], ...] = ()
        else:
            copies = tuple(tuple(sorted(emb.edge_set))
                           for emb in enumerate_copies(host, target))
        return cls(host, target, q, copies, budget)


@dataclass(frozen=True)
class ArrowResult:
    verdict: str
    witness: Optional[EdgeColoring]
    stats: SearchStats

    @property
    def arrows(self) -> bool:
        if self.verdict == UNKNOWN:
            raise GraphError("verdict is unknown (budget exhausted)")
        return self.verdict == ARROWS


@dataclass(frozen=True)
class ExtendResult:
    verdict: str                               # extendable / not_extendable / unknown
    witness: Optional[EdgeColoring]            # total H-free extension when extendable
    certificate: Optional[tuple[int, ...]]     # monochromatic copy already in the partial
    stats: SearchStats

    @property
    def extendable(self) -> bool:
        if self.verdict == UNKNOWN:
            raise GraphError("verdict is unknown (budget exhausted)")
        return self.verdict == "extendable"


EXTENDABLE = "extendable"
NOT_EXTENDABLE = "not_extendable"


# ---------------------------------------------------------------------------
# core search, on plain data so worker processes can pickle the arguments

def _static_order(num_edges: int, edge_copies: list[list[int]],
                  skip: set[int]) -> list[int]:
    # most-constrained first: descending copy membership, then edge id
    return sorted((e for e in range(num_edges) if e not in skip),
                  key=lambda e: (-len(edge_copies[e]), e))


def _edge_copies_of(num_edges: int, copy_list) -> list[list[int]]:
    ec: list[list[int]] = [[] for _ in range(num_edges)]
    for ci, es in enumerate(copy_list):
        for e in es:
            ec[e].append(ci)
    return ec


def _solve(num_edges: int, q: int, copy_list, fixed: dict[int, int],
           symmetry: bool, max_nodes: Optional[int],
           max_seconds: Optional[float]):
    """Search for a total coloring with no monochromatic copy.

    Returns (status, payload, nodes): status True with an assignment
    dict, False with an optional certificate copy (when the fixed part
    is already monochromatic on it), or None on budget exhaustion.
    """
    deadline = time.monotonic() + max_seconds if max_seconds else None
    edge_copies = _edge_copies_of(num_edges, copy_list)
    size = [len(es) for es in copy_list]
    uncol = list(size)
    counts = [[0] * (q + 1) for _ in copy_list]
    color = [0] * num_edges

    def apply(e: int, c: int):
        color[e] = c
        for ci in edge_copies[e]:
            uncol[ci] -= 1
            counts[ci][c] += 1

    def undo(e: int, c: int):
        color[e] = 0
        for ci in edge_copies[e]:
            uncol[ci] += 1
            counts[ci][c] -= 1

    for e, c in fixed.items():
        apply(e, c)
    for ci, es in enumerate(copy_list):
        if uncol[ci] == 0:
            c0 = color[es[0]]
            if counts[ci][c0] == size[ci]:
                return False, tuple(es), 0

    order = _static_order(num_edges, edge_copies, set(fixed))
    start_used = max(fixed.values(), default=0)
    nodes = 0
    overflow = False

    def rec(idx: int, max_used: int) -> bool:
        nonlocal nodes, overflow
        if idx == len(order):
            return True
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            overflow = True
            return False
        if deadline is not None and nodes % 256 == 0 \
                and time.monotonic() > deadline:
            overflow = True
            return False
        e = order[idx]
        top = min(q, max_used + 1) if symmetry else q
        for c in range(1, top + 1):
            blocked = False
            for ci in edge_copies[e]:
                # last uncolored edge of an otherwise monochromatic copy
                if uncol[ci] == 1 and counts[ci][c] == size[ci] - 1:
                    blocked = True
                    break
            if blocked:
                continue
            apply(e, c)
            if rec(idx + 1, max(max_used, c)):
                return True
            undo(e, c)
            if overflow:
                return False
        return False

    if rec(0, start_used):
        assignment = dict(fixed)
        for e in order:
            assignment[e] = color[e]
        return True, assignment, nodes
    if overflow:
        return None, None, nodes
    return False, None, nodes


def _solve_task(args):
    return _solve(*args)


def _enumerate_prefixes(num_edges: int, q: int, copy_list,
                        target_count: int) -> list[dict[int, int]]:
    """Partial assignments along the static edge order, respecting the
    color-symmetry breaking, used to partition the search for workers."""
    edge_copies = _edge_copies_of(num_edges, copy_list)
    order = _static_order(num_edges, edge_copies, set())
    prefixes: list[dict[int, int]] = [{}]
    depth = 0
    while len(prefixes) < target_count and depth < len(order):
        e = order[depth]
        nxt = []
        for pre in prefixes:
            max_used = max(pre.values(), default=0)
            for c in range(1, min(q, max_used + 1) + 1):
                nxt.append({**pre, e: c})
        prefixes = nxt
        depth += 1
    return prefixes


def _mono_copy(copy_list, coloring: EdgeColoring) -> Optional[tuple[int, ...]]:
    cmap = coloring.as_dict()
    for es in copy_list:
        c0 = cmap.get(es[0])
        if c0 is not None and all(cmap.get(e) == c0 for e in es[1:]):
            return tuple(es)
    return None


def verify_witness(instance: ArrowInstance, coloring: EdgeColoring) -> bool:
    """Independent re-check: total and no copy monochromatic."""
    if coloring.q != instance.q or not coloring.is_total(instance.host):
        return False
    return _mono_copy(instance.copies, coloring) is None


# ---------------------------------------------------------------------------
# public operations

def arrows(instance: ArrowInstance, workers: int = 1) -> ArrowResult:
    start = time.monotonic()
    m, q = instance.host.num_edges, instance.q
    if not instance.copies:
        witness = EdgeColoring.from_map(q, {e: 1 for e in range(m)})
        return ArrowResult(DOES_NOT_ARROW, witness,
                           SearchStats(0, time.monotonic() - start, 1))

    budget = instance.budget
    if workers <= 1:
        status, payload, nodes = _solve(
            m, q, instance.copies, {}, True,
            budget.max_nodes, budget.max_seconds)
    else:
        prefixes = _enumerate_prefixes(m, q, instance.copies, 2 * workers)
        tasks = [(m, q, instance.copies, pre, True,
                  budget.max_nodes, budget.max_seconds) for pre in prefixes]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_task, tasks))
        nodes = sum(r[2] for r in results)
        status, payload = False, None
        for st, pl, _ in results:          # deterministic merge, task order
            if st is True:
                status, payload = True, pl
                break
            if st is None:
                status = None

    stats = SearchStats(nodes, time.monotonic() - start, max(1, workers))
    if status is True:
        witness = EdgeColoring.from_map(q, payload)
        if not verify_witness(instance, witness):
            raise GraphError("internal error: witness failed re-verification")
        return ArrowResult(DOES_NOT_ARROW, witness, stats)
    if status is None:
        return ArrowResult(UNKNOWN, None, stats)
    return ArrowResult(ARROWS, None, stats)


def extendable(host: Graph, partial: EdgeColoring, target: Graph, q: int,
               budget: Budget = NO_BUDGET,
               instance: Optional[ArrowInstance] = None) -> ExtendResult:
    if partial.q != q:
        raise GraphError("partial coloring has wrong color count")
    for eid, _ in partial.colors:
        if not (0 <= eid < host.num_edges):
            raise GraphError(f"partial coloring mentions unknown edge {eid}")
    start = time.monotonic()
    if instance is None:
        instance = ArrowInstance.create(host, target, q, budget)
    fixed = partial.as_dict()

    if not instance.copies:
        full = {e: fixed.get(e, 1) for e in range(host.num_edges)}
        return ExtendResult(EXTENDABLE, EdgeColoring.from_map(q, full), None,
                            SearchStats(0, time.monotonic() - start, 1))

    cert = _mono_copy(instance.copies, partial)
    if cert is not None:
        return ExtendResult(NOT_EXTENDABLE, None, cert,
                            SearchStats(0, time.monotonic() - start, 1))

    # pre-assigned colors are distinguishable, so no symmetry breaking
    status, payload, nodes = _solve(
        host.num_edges, q, instance.copies, fixed, not fixed,
        instance.budget.max_nodes, instance.budget.max_seconds)
    stats = SearchStats(nodes, time.monotonic() - start, 1)
    if status is True:
        witness = EdgeColoring.from_map(q, payload)
        if not verify_witness(instance, witness):
            raise GraphError("internal error: witness failed re-verification")
        return ExtendResult(EXTENDABLE, witness, None, stats)
    if status is None:
        return ExtendResult(UNKNOWN, None, None, stats)
    return ExtendResult(NOT_EXTENDABLE, None, payload, stats)


@dataclass(frozen=True)
class MinimalityResult:
    verdict: str                        # minimal / not_minimal / unknown
    removable_edge: Optional[int] = None
    detail: str = ""

    def __bool__(self) -> bool:
        if self.verdict == UNKNOWN:
            raise GraphError("verdict is unknown (budget exhausted)")
        return self.verdict == MINIMAL


def _arrows_sub(sub: Graph, target: Graph, q: int, budget: Budget,
                workers: int) -> str:
    if sub.num_edges < target.num_edges:
        return DOES_NOT_ARROW
    return arrows(ArrowInstance.create(sub, target, q, budget), workers).verdict


def is_minimal(g: Graph, target: Graph, q: int, budget: Budget = NO_BUDGET,
               workers: int = 1) -> MinimalityResult:
    """Arrows, and no single-edge-deleted subgraph does (isolated
    vertices are dropped since they never affect arrowing)."""
    base = _arrows_sub(g, target, q, budget, workers)
    if base == UNKNOWN:
        return MinimalityResult(UNKNOWN, detail="base arrowing unknown")
    if base == DOES_NOT_ARROW:
        return MinimalityResult(NOT_MINIMAL, detail="graph does not arrow")
    for eid in range(g.num_edges):
        verdict = _arrows_sub(g.delete_edge(eid), target, q, budget, workers)
        if verdict == UNKNOWN:
            return MinimalityResult(UNKNOWN, eid, "subgraph arrowing unknown")
        if verdict == ARROWS:
            return MinimalityResult(NOT_MINIMAL, eid,
                                    f"edge {eid} is removable")
    return MinimalityResult(MINIMAL)


def minimalize(g: Graph, target: Graph, q: int, budget: Budget = NO_BUDGET,
               workers: int = 1) -> tuple[Graph, str]:
    """Greedily delete removable edges, lowest edge id first, until the
    graph is minimal.  Returns (graph, verdict); verdict is unknown if
    a budget ran out mid-way (the partial result is still arrowing)."""
    base = _arrows_sub(g, target, q, budget, workers)
    if base == UNKNOWN:
        return g, UNKNOWN
    if base == DOES_NOT_ARROW:
        raise GraphError("minimalize requires an arrowing graph")
    i = 0
    while i < g.num_edges:
        verdict = _arrows_sub(g.delete_edge(i), target, q, budget, workers)
        if verdict == UNKNOWN:
            return g.without_isolated(), UNKNOWN
        if verdict == ARROWS:
            g = g.delete_edge(i)      # ids shift down; position i is the next edge
        else:
            i += 1
    return g.without_isolated(), MINIMAL


@dataclass(frozen=True)
class DegreeStats:
    min_degree: int
    max_degree: int
    min_count: int
    histogram: tuple[tuple[int, int], ...]   # sorted (degree, count)

    def histogram_dict(self) -> dict[int, int]:
        return dict(self.histogram)


def min_degree_stats(g: Graph) -> DegreeStats:
    if g.n == 0:
        raise GraphError("empty graph has no degrees")
    degs = g.degrees()
    hist: dict[int, int] = {}
    for d in degs:
        hist[d] = hist.get(d, 0) + 1
    lo = min(degs)
    return DegreeStats(lo, max(degs), degs.count(lo), tuple(sorted(hist.items())))


def sq_lower_bound(h: Graph, q: int) -> int:
    """q(delta - 1) + 1, the universal floor for the smallest minimum
    degree over minimal graphs arrowing h with q colors."""
    degs = h.degrees()
    if not degs or min(degs) == 0:
        raise GraphError("target must have no isolated vertices")
    return q * (min(degs) - 1) + 1


# ---------------------------------------------------------------------------
# propositional export for external cross-checks

def to_dimacs(instance: ArrowInstance) -> str:
    """CNF that is satisfiable iff the host has a target-free total
    q-coloring.  Variable x_{e,c} = e*q + c (1-based colors)."""
    m, q = instance.host.num_edges, instance.q

    def var(e: int, c: int) -> int:
        return e * q + c

    clauses: list[list[int]] = []
    for e in range(m):
        clauses.append([var(e, c) for c in range(1, q + 1)])
        for c1, c2 in combinations(range(1, q + 1), 2):
            clauses.append([-var(e, c1), -var(e, c2)])
    for es in instance.copies:
        for c in range(1, q + 1):
            clauses.append([-var(e, c) for e in es])
    lines = [f"c host n={instance.host.n} m={m} q={q} copies={len(instance.copies)}",
             f"p cnf {m * q} {len(clauses)}"]
    lines.extend(" ".join(map(str, cl)) + " 0" for cl in clauses)
    return "\n".join(lines) + "\n"
