"""Arrowing engine.

Decides whether every q-coloring of a host graph's edges contains a
monochromatic copy of a target graph.  Each copy of the target is a
constraint "not all edges one color".  One search core, `_solve`,
serves `arrows`, `extendable`, minimality and every gadget verifier: an
iterative backtracking search over per-edge color domains with unit
propagation on those constraints, smallest-domain-first edge choice
and first-use color symmetry breaking.  Propagation keeps, for each
color, one counter per copy, bit-sliced across big ints so that one
assignment updates every copy through its edge at once.  It has no
recursion, so host size has no depth limit.  A search that runs long
also hands rounds of work to a seeded tabu min-conflicts local search
(`_local_search`), which can find a free coloring but never proves
that none exists.
Budgets (decisions plus flips, wall time) turn into an explicit unknown
verdict, never a wrong one, and every `does_not_arrow` witness is
re-verified before it is returned.  A call keeps one clock: its budget
is started once (`Budget.start`), and every enumeration and search in
it, nested calls included, stops at that one deadline.

Every copy list in the package comes from `ArrowInstance.create`, the
one caller of `graph.enumerate_copies`, under its budget's clock.  A
subgraph check filters one copy list instead of enumerating copies
again: the copies in the host minus some edges are the host's copies
that avoid them (`_avoiding`), and the copies inside an edge set are
those it contains; `coloring._mono_copy` tests a coloring against that
list.  `minimalize`, the seed conditions, the GNI verifier and every
target-freeness check of a builder or verifier work this way.  A
refutation also names its support, the copies it used
(`ArrowResult.support`): every subgraph that keeps them arrows, so
minimality searches only the edges they cover, and `is_minimal` builds
one instance per edge-deleted subgraph for those edges only.  When
`minimalize` finds an edge needed, every later edge that an
automorphism of the current graph maps onto it is needed too (deleting
either leaves isomorphic graphs), now and after later deletions, so it
is kept with no search.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Optional

from .coloring import EdgeColoring, _mono_copy
from .graph import Graph, GraphError, InternalError, _embed, enumerate_copies

ARROWS = "arrows"
DOES_NOT_ARROW = "does_not_arrow"
EXTENDABLE = "extendable"
NOT_EXTENDABLE = "not_extendable"
UNKNOWN = "unknown_budget_exhausted"

MINIMAL = "minimal"
NOT_MINIMAL = "not_minimal"


@dataclass(frozen=True)
class Budget:
    """Bounds on the work of one call: search steps (`max_nodes`,
    decisions plus local-search flips) and wall time (`max_seconds`).
    `max_nodes` bounds each search on its own.  `max_seconds` bounds the
    whole public call the budget is given to: the call starts the clock
    (`start`), which fixes `deadline`, and its enumerations, searches
    and case loops, nested calls included, all stop there.  A started
    budget stays started, so a caller's clock bounds what it calls."""
    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None
    # the `time.monotonic()` value at which the clock runs out; `start` sets it
    deadline: Optional[float] = field(default=None, init=False)

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise GraphError("max_nodes must be positive")
        if self.max_seconds is not None and not self.max_seconds > 0:
            raise GraphError("max_seconds must be positive")

    def start(self) -> "Budget":
        """A copy whose deadline is `max_seconds` from now; the budget
        itself if it has no time bound or is already started."""
        if self.max_seconds is None or self.deadline is not None:
            return self
        started = Budget(self.max_nodes, self.max_seconds)
        object.__setattr__(started, "deadline",
                           time.monotonic() + self.max_seconds)
        return started

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


NO_BUDGET = Budget()


class BudgetExhausted(Exception):
    """A result was needed where the budget left it unknown: neither a
    refutation nor a usage error."""


@dataclass(frozen=True)
class SearchStats:
    nodes: int          # decisions of the exhaustive search
    flips: int          # recolorings made by the local search
    propagations: int   # assignments made by unit propagation
    backtracks: int     # restores of the search state from a checkpoint


_NO_SEARCH = SearchStats(0, 0, 0, 0)


@dataclass(frozen=True)
class ArrowInstance:
    host: Graph
    target: Graph
    q: int
    # `enumerate_copies`'s edge-id tuples, in its order; None when their
    # enumeration ran out of time, and every search is then unknown
    copies: Optional[tuple[tuple[int, ...], ...]]
    budget: Budget = NO_BUDGET

    @classmethod
    def create(cls, host: Graph, target: Graph, q: int,
               budget: Budget = NO_BUDGET) -> "ArrowInstance":
        """The instance with every copy of `target` in `host`.  It keeps
        `budget` started (`Budget.start`), so the clock runs from before
        the enumeration; it gets no copies if the clock runs out."""
        if q < 2:
            raise GraphError("need at least 2 colors")
        if target.num_edges == 0:
            raise GraphError("target must have edges")
        budget = budget.start()
        copies: Optional[tuple[tuple[int, ...], ...]] = ()
        if target.num_edges <= host.num_edges:
            found = enumerate_copies(host, target, budget.deadline)
            copies = None if found is None else tuple(
                emb.edge_set for emb in found)
        if budget.expired():
            copies = None
        return cls(host, target, q, copies, budget)


@dataclass(frozen=True)
class ArrowResult:
    verdict: str
    witness: Optional[EdgeColoring]
    stats: SearchStats
    # on `arrows`, the copies (edge-id tuples) the refutation used: they
    # arrow on their own, so does every subgraph that keeps them; empty
    # on any other verdict
    support: tuple[tuple[int, ...], ...] = ()

    @property
    def arrows(self) -> bool:
        if self.verdict == UNKNOWN:
            raise BudgetExhausted("the verdict is unknown")
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
            raise BudgetExhausted("the verdict is unknown")
        return self.verdict == EXTENDABLE


# ---------------------------------------------------------------------------
# core search

# The exhaustive search first stops for the local search after this many
# decisions, then each time its decision count doubles; each stop hands
# the local search 1/_LS_SHARE of the decisions made so far as flips.
# Below the first stop nothing changes, so small searches pay nothing.
_LS_START = 2048
_LS_SHARE = 4
# Local search: a recolored edge may not take its old color back during
# this many flips; a random move instead of the best one with this
# probability; a fresh coloring after this many flips.
_LS_TENURE = 3
_LS_WALK = 0.05
_LS_RESTART = 3000


def _local_search(num_edges: int, q: int, copy_list, fixed: dict[int, int],
                  deadline: Optional[float]):
    """Tabu min-conflicts search for a coloring with no monochromatic
    copy (Selman, Kautz & Cohen's WalkSAT; Exoo's Ramsey colorings).

    A generator: after priming with `next`, each `send(quota)` makes up
    to `quota` flips and yields (flips, coloring), the coloring a total
    assignment dict once no copy is monochromatic, else None.  Its state
    carries over from one round to the next.  Fixed edges keep their
    colors; edges in no copy get color 1 unless fixed.

    A flip recolors one free edge that lies in a monochromatic copy.
    For each edge e and color c it keeps make[e], the monochromatic
    copies through e, and brk[e*(q+1)+c], the copies through e whose
    other edges all have color c, so recoloring e to c changes the
    number of monochromatic copies by brk - make.  Each flip takes the
    move with the least change, ties broken at random, skipping moves
    back to a color the edge left within the tabu tenure unless they
    reach fewer monochromatic copies than seen since the last restart.
    With probability _LS_WALK, or when every move is tabu, it recolors a
    random edge of that set instead, and every _LS_RESTART flips it
    starts again from a fresh random coloring.  All randomness comes
    from one `random.Random(0)`, and only int-keyed containers are
    iterated, so a run is reproducible.
    `deadline` is checked after every flip, since on a large host one
    flip can scan thousands of edges; a round that passes it ends early.
    """
    rng = random.Random(0)
    q1 = q + 1
    # occ[e]: (ci*q1, size, edges) of each copy ci through e
    occ: list[list[tuple]] = [[] for _ in range(num_edges)]
    for ci, es in enumerate(copy_list):
        for e in es:
            occ[e].append((ci * q1, len(es), es))
    free = [e for e in range(num_edges) if occ[e] and e not in fixed]
    color = [fixed.get(e, 1) for e in range(num_edges)]
    quota = yield
    since = _LS_RESTART
    while True:
        flips = 0
        while True:
            if since == _LS_RESTART:
                since = 0
                for e in free:
                    color[e] = rng.randint(1, q)
                cnt = [0] * (len(copy_list) * q1)   # edges of ci colored c
                make = [0] * num_edges
                brk = [0] * (num_edges * q1)
                tabu = [0] * (num_edges * q1)
                nviol = 0
                for ci, es in enumerate(copy_list):
                    base = ci * q1
                    for e in es:
                        cnt[base + color[e]] += 1
                    for c in range(1, q1):
                        if cnt[base + c] == len(es):
                            nviol += 1
                            for e in es:
                                make[e] += 1
                        elif cnt[base + c] == len(es) - 1:
                            for e in es:
                                if color[e] != c:
                                    brk[e * q1 + c] += 1
                                    break
                bad = {e for e in free if make[e]}
                least = nviol
            if not bad or flips == quota:   # solved, stuck on fixed edges
                break                       # or out of flips
            flips += 1
            since += 1
            moves: list[tuple[int, int]] = []
            if rng.random() >= _LS_WALK:
                low = len(copy_list)        # d never exceeds it
                for e in bad:
                    a, m, base = color[e], make[e], e * q1
                    for b in range(1, q1):
                        d = brk[base + b] - m
                        if b == a or d > low or (tabu[base + b] >= since
                                                 and nviol + d >= least):
                            continue
                        if d < low:
                            low = d
                            moves = [(e, b)]
                        else:
                            moves.append((e, b))
            if moves:
                e, b = moves[rng.randrange(len(moves))]
            else:
                e = rng.choice(sorted(bad))
                b = rng.choice([c for c in range(1, q1) if c != color[e]])
            a = color[e]
            tabu[e * q1 + a] = since + _LS_TENURE
            for base, k, es in occ[e]:
                i = base + a
                n = cnt[i] - 1
                cnt[i] = n
                if n == k - 1:              # the copy was monochromatic in a
                    nviol -= 1
                    for f in es:
                        make[f] -= 1
                        if not make[f]:
                            bad.discard(f)
                    brk[e * q1 + a] += 1
                elif n == k - 2:            # its one edge not colored a
                    for f in es:
                        if color[f] != a:
                            brk[f * q1 + a] -= 1
                            break
                i = base + b
                n = cnt[i] + 1
                cnt[i] = n
                if n == k:                  # it turns monochromatic in b
                    brk[e * q1 + b] -= 1
                    nviol += 1
                    for f in es:
                        make[f] += 1
                        if f not in fixed:
                            bad.add(f)
                elif n == k - 1:            # its one edge not colored b
                    for f in es:
                        if f != e and color[f] != b:
                            brk[f * q1 + b] += 1
                            break
            color[e] = b
            if nviol < least:
                least = nviol
            if deadline is not None and time.monotonic() > deadline:
                break
        found = None if nviol else dict(enumerate(color))
        quota = yield flips, found


def _solve(num_edges: int, q: int, copy_list, fixed: dict[int, int],
           max_nodes: Optional[int], deadline: Optional[float]):
    """Search for a total coloring with no monochromatic copy.

    Each edge has a domain of colors (a bitmask, bit c for color c).
    Every copy gives, for each color c, the clause "not all edges color
    c".  Unit propagation: when a copy has all edges but one colored c,
    c leaves the last edge's domain; an empty domain is a conflict, and
    a one-color domain is assigned at once.  So a copy never gets all k
    of its edges one color.

    The clause counts are bit-sliced (Biham's DES, FSE 1997): bit ci of
    the int inc[e] is set when copy ci contains edge e, and for each
    color c, hi = (k-1).bit_length() ints ("planes") hold bit j of one
    counter per copy, the number of its edges colored c plus 2**hi - k.
    Assigning c to e adds inc[e] into c's planes with a ripple carry;
    the copies through e whose planes are now all set are one edge
    short of all c, and only their last edge is looked at.  The masks
    cost about m*N/8 bytes for m edges and N copies, and every
    assignment a few operations on N-bit ints.

    A decision picks the unassigned edge with the smallest domain, then
    the most copies, then the lowest id, and tries its colors in
    increasing order, but only up to one above the largest color used so
    far (fixed colors count as used): propagation removes only used
    colors, so the unused ones stay interchangeable.  For q >= 3 one
    bitmask per domain size 2..q-1 holds the ranks (positions in that
    copy order) of the unassigned edges with that many colors left.

    The search runs on an explicit stack of decisions over a trail of
    assignments and removals.  Each decision keeps a checkpoint: a copy
    of the list of planes and size bitmasks.  They are immutable ints,
    so it copies references, and the stack holds up to q*hi*N/8 bytes
    of ints per open decision (less where later decisions leave a plane
    unchanged).  Backtracking clears the colors and restores the domains
    from the trail, and puts the planes and bitmasks back from the
    checkpoint.  Edges in no copy are not searched and get color 1
    unless fixed.

    The search stops when its decision count reaches _LS_START and
    then each time it doubles, hands 1/_LS_SHARE of the decisions made
    so far as flips to one `_local_search` generator, and goes on where
    it stopped unless that found a coloring.  Only the exhaustive search
    can show that no coloring exists.

    Every color removal notes the copy that made it, whether it leaves
    a color or empties the domain (a conflict): one store in `used`.
    Each inference of a refutation comes from a noted copy, and the
    symmetry breaking holds for any set of copies, since each copy
    forbids every color; so the same search tree refutes the noted
    copies alone (an unsatisfiable core: Zhang & Malik, SAT 2003).

    Returns (status, assignment, nodes, flips, propagations,
    backtracks, support): status True with a total assignment dict,
    False when no coloring exists, or None on budget exhaustion.
    `nodes` counts decisions, `flips` local-search recolorings,
    `propagations` the assignments made by unit propagation and
    `backtracks` the restores from a checkpoint; `max_nodes` bounds
    nodes plus flips, `deadline` (a `time.monotonic()` value) the clock.
    `support` is empty unless status is False; then it holds the noted
    copies in `copy_list` order (a one-edge copy alone, if there is
    one), which with the same `fixed` colors have no free coloring.
    """
    q1 = q + 1
    full = (1 << q1) - 2                      # bits 1..q
    sizes = {len(es) for es in copy_list}
    if 1 in sizes:                            # a one-edge copy forbids all colors
        return False, None, 0, 0, 0, 0, (min(copy_list, key=len),)
    (k,) = sizes or {2}                       # every copy has the target's k edges
    inc = [0] * num_edges                     # bit ci: copy ci contains e
    for ci, es in enumerate(copy_list):
        for e in es:
            inc[e] |= 1 << ci
    order = sorted((e for e in range(num_edges)
                    if inc[e] and e not in fixed),
                   key=lambda e: (-inc[e].bit_count(), e))
    rank = [0] * num_edges
    for i, e in enumerate(order):
        rank[e] = i
    # state[c*hi + j], 1 <= c <= q: bit j of every copy's count of
    # c-colored edges plus 2**hi - k, so all hi planes of c are set where
    # one edge is not c yet (state[:hi] is unused); state[sized + s],
    # 2 <= s < q: bit rank[f] for each unassigned edge f with s colors
    # left.  A checkpoint is a copy of this list.
    hi = (k - 1).bit_length()
    every = (1 << len(copy_list)) - 1
    state = [0] * hi + [every if (2 ** hi - k) >> j & 1 else 0
                        for _ in range(q) for j in range(hi)] + [0] * q
    sized = q1 * hi
    color = [0] * num_edges
    dom = [full] * num_edges
    trail: list[int] = []           # e: assigned; ~(e << q1 | 1 << c): c removed
    queue: list[int] = []           # unassigned edges with one color left
    used = [False] * len(copy_list)           # copy ci removed a color
    max_used = nodes = flips = propagations = backtracks = 0

    def result(status, found=None):
        support = () if status is not False else tuple(
            es for es, u in zip(copy_list, used) if u)
        return status, found, nodes, flips, propagations, backtracks, support

    def assign(e: int, c: int) -> bool:
        """Color e with c, then run unit propagation to its fixpoint;
        False on a conflict."""
        nonlocal max_used, propagations
        while True:
            color[e] = c
            trail.append(e)
            if c > max_used:
                max_used = c
            base = c * hi
            carry = inc[e]
            for j in range(base, base + hi):   # count e in each copy through it
                p = state[j]
                state[j], carry = p ^ carry, p & carry
                if not carry:
                    break
            else:                               # propagation prevents this
                raise InternalError("a copy reached all edges one color")
            unit = inc[e]
            for j in range(base, base + hi):
                unit &= state[j]
            while unit:                         # copies now one edge short of all c
                ci = unit.bit_length() - 1
                unit ^= 1 << ci
                for f in copy_list[ci]:
                    if color[f] != c:
                        break
                d = dom[f]
                if color[f] or not d >> c & 1:
                    continue
                dom[f] = d ^ (1 << c)
                trail.append(~(f << q1 | 1 << c))
                used[ci] = True
                if q > 2:                       # f goes from s colors to s - 1
                    s = d.bit_count()
                    bit = 1 << rank[f]
                    if 1 < s < q:
                        state[sized + s] ^= bit
                    if s > 2:
                        state[sized + s - 1] ^= bit
                d ^= 1 << c
                if d & (d - 1) == 0:
                    if not d:
                        queue.clear()
                        return False
                    queue.append(f)
            if not queue:
                return True
            e = queue.pop()
            c = dom[e].bit_length() - 1
            propagations += 1

    for e, c in fixed.items():
        dom[e] = 1 << c
    for e, c in fixed.items():
        if not assign(e, c):
            return result(False)

    pos = 0                                   # order[:pos] is assigned
    stack: list[tuple[int, list[int], int, int, int, list[int]]] = []
    local = None                              # the _local_search generator
    stop = _LS_START
    ok = True
    while True:
        if ok:
            for s in range(2, q):             # e leaves its size bitmask before
                ranks = state[sized + s]      # the checkpoint: each retry
                if ranks:                     # assigns it
                    r = (ranks & -ranks).bit_length() - 1
                    state[sized + s] = ranks ^ (1 << r)
                    e = order[r]
                    break
            else:
                while pos < len(order) and color[order[pos]]:
                    pos += 1
                if pos == len(order):
                    return result(True, {f: color[f] or 1
                                         for f in range(num_edges)})
                e = order[pos]
            if nodes == stop:
                stop *= 2
                if local is None:
                    local = _local_search(num_edges, q, copy_list, fixed,
                                          deadline)
                    next(local)
                quota = nodes // _LS_SHARE
                if max_nodes is not None:
                    quota = min(quota, max_nodes - nodes - flips)
                done, found = local.send(quota)
                flips += done
                if found is not None:
                    return result(True, found)
                if deadline is not None and time.monotonic() > deadline:
                    return result(None)
            if max_nodes is not None and nodes + flips >= max_nodes:
                return result(None)
            nodes += 1
            if deadline is not None and nodes % 256 == 0 \
                    and time.monotonic() > deadline:
                return result(None)
            top = min(q, max_used + 1)
            colors = [c for c in range(top, 0, -1) if dom[e] >> c & 1]
            stack.append((e, colors, len(trail), pos, max_used, state[:]))
        else:
            while stack and not stack[-1][1]:
                stack.pop()
            if not stack:
                return result(False)
            backtracks += 1
            e, colors, length, pos, max_used, checkpoint = stack[-1]
            for t in trail[length:]:        # any order: the planes come back whole
                if t >= 0:
                    color[t] = 0
                else:
                    dom[~t >> q1] |= ~t & full
            del trail[length:]
            state[:] = checkpoint
        ok = assign(e, colors.pop())


def verify_witness(instance: ArrowInstance, coloring: EdgeColoring) -> bool:
    """Independent re-check: total and no copy monochromatic."""
    if coloring.q != instance.q or not coloring.is_total(instance.host):
        return False
    return _mono_copy(instance.copies, coloring) is None


# ---------------------------------------------------------------------------
# public operations

def _verified_search(instance: ArrowInstance, fixed: dict[int, int],
                     found: str, exhausted: str):
    """The search core on the instance with the `fixed` colors: (verdict,
    re-verified witness or None, stats, support).  The verdict is `found`
    for an H-free coloring, `exhausted` if none exists, unknown past the
    budget; the support is `_solve`'s, empty unless `exhausted`."""
    if instance.budget.expired():
        return UNKNOWN, None, _NO_SEARCH, ()
    status, payload, *counts, support = _solve(
        instance.host.num_edges, instance.q, instance.copies, fixed,
        instance.budget.max_nodes, instance.budget.deadline)
    stats = SearchStats(*counts)
    if status is not True:
        return (UNKNOWN if status is None else exhausted), None, stats, support
    witness = EdgeColoring.from_map(instance.q, payload)
    if not verify_witness(instance, witness):
        raise InternalError("witness failed re-verification")
    return found, witness, stats, support


def arrows(instance: ArrowInstance) -> ArrowResult:
    if instance.copies is None:
        return ArrowResult(UNKNOWN, None, _NO_SEARCH)
    return ArrowResult(*_verified_search(instance, {}, DOES_NOT_ARROW, ARROWS))


def extendable(host: Graph, partial: EdgeColoring, target: Graph, q: int,
               budget: Budget = NO_BUDGET) -> ExtendResult:
    """Whether `partial` extends to a coloring of `host` with no
    monochromatic `target`, on its own instance.  The verifiers search
    the instance they share with `_verified_search` instead."""
    if partial.q != q:
        raise GraphError("partial coloring has wrong color count")
    for eid, _ in partial.colors:
        if not (0 <= eid < host.num_edges):
            raise GraphError(f"partial coloring mentions unknown edge {eid}")
    instance = ArrowInstance.create(host, target, q, budget)
    if instance.copies is None:
        return ExtendResult(UNKNOWN, None, None, _NO_SEARCH)
    cert = _mono_copy(instance.copies, partial)
    if cert is not None:
        return ExtendResult(NOT_EXTENDABLE, None, cert, _NO_SEARCH)
    verdict, witness, stats, _ = _verified_search(
        instance, partial.as_dict(), EXTENDABLE, NOT_EXTENDABLE)
    return ExtendResult(verdict, witness, None, stats)


@dataclass(frozen=True)
class MinimalityResult:
    verdict: str                        # minimal / not_minimal / unknown
    removable_edge: Optional[int] = None
    detail: str = ""

    def __bool__(self) -> bool:
        if self.verdict == UNKNOWN:
            raise BudgetExhausted("the verdict is unknown")
        return self.verdict == MINIMAL


def _avoiding(instance: ArrowInstance, dropped) -> ArrowInstance:
    """The instance of the host minus the `dropped` edges: the copies of
    the target there are exactly the host's copies that avoid them.  The
    host and its edge ids stay, so every edge is still colored.  The
    instance's copies must have been listed in time."""
    return replace(instance, copies=tuple(
        es for es in instance.copies if dropped.isdisjoint(es)))


def is_minimal(g: Graph, target: Graph, q: int,
               budget: Budget = NO_BUDGET) -> MinimalityResult:
    """Arrows, and no single-edge-deleted subgraph does (isolated
    vertices are dropped since they never affect arrowing).  An edge in
    no copy of G's support (`ArrowResult.support`) is removable with no
    search: G - e keeps the copies that refute G, so it arrows.  Every
    other G - e is an instance that enumerates its own copies, on the
    clock the first one started."""
    inst = ArrowInstance.create(g, target, q, budget)
    base = arrows(inst)
    if base.verdict == UNKNOWN:
        return MinimalityResult(UNKNOWN, detail="base arrowing unknown")
    if base.verdict == DOES_NOT_ARROW:
        return MinimalityResult(NOT_MINIMAL, detail="graph does not arrow")
    covered = {e for es in base.support for e in es}
    for eid in range(g.num_edges):
        if eid not in covered:
            verdict = ARROWS
        else:
            verdict = arrows(ArrowInstance.create(
                g.delete_edge(eid), target, q, inst.budget)).verdict
        if verdict == UNKNOWN:
            return MinimalityResult(UNKNOWN, eid, "subgraph arrowing unknown")
        if verdict == ARROWS:
            return MinimalityResult(NOT_MINIMAL, eid,
                                    f"edge {eid} is removable")
    return MinimalityResult(MINIMAL)


def minimalize(g: Graph, target: Graph, q: int,
               budget: Budget = NO_BUDGET) -> tuple[Graph, str]:
    """Greedily delete removable edges, lowest edge id first, until the
    graph is minimal.  Returns (graph, verdict); verdict is unknown if
    a budget ran out mid-way (the partial result is still arrowing).
    The copies are enumerated once: each check filters them.  The last
    refutation's support (`ArrowResult.support`) avoids every deleted
    edge, so an edge in none of its copies is deleted with no search.
    When G - D - e has a free coloring, D the edges deleted so far, an
    automorphism of G - D that maps e onto a later edge f makes
    G - D - f isomorphic to it, so f is needed, and stays needed as D
    grows: every such f is kept with no search (`_automorphic`).  G - D,
    with its ranking and embedding plan, is built again only after an
    edge has been deleted.  The result, the verdict and the order of
    deletions are those of searching every edge."""
    inst = ArrowInstance.create(g, target, q, budget)
    res = arrows(inst)
    if res.verdict == UNKNOWN:
        return g, UNKNOWN
    if res.verdict == DOES_NOT_ARROW:
        raise GraphError("minimalize requires an arrowing graph")
    dropped: set[int] = set()
    kept: set[int] = set()
    verdict = MINIMAL
    covered = {e for es in res.support for e in es}
    rest: Optional[Graph] = g       # G - D; None once D has grown
    for eid in range(g.num_edges):
        if eid in kept:
            continue
        if eid in covered:
            sub = arrows(_avoiding(inst, dropped | {eid}))
            if sub.verdict == UNKNOWN:
                verdict = UNKNOWN
                break
            if sub.verdict != ARROWS:
                # an edge that an automorphism maps e onto is needed as e
                # is, so it lies in the support
                if rest is None:
                    rest = g.delete_edges(dropped)
                kept.update(f for f in covered if f > eid and f not in kept
                            and _automorphic(rest, g.edges[eid], g.edges[f],
                                             inst.budget))
                continue
            covered = {e for es in sub.support for e in es}
        dropped.add(eid)
        rest = None
    if rest is None:
        rest = g.delete_edges(dropped)
    return rest.without_isolated(), verdict


def _automorphic(g: Graph, e: tuple[int, int], f: tuple[int, int],
                 budget: Budget) -> bool:
    """Whether an automorphism of g maps the edge with ends `e` onto the
    one with ends `f`: their sorted end degrees agree and one embedding
    of g into itself pins e's ends on f's, either way round.  An
    edge-preserving injection of a graph into itself is an automorphism
    of its non-isolated part.  False once the budget's clock has run
    out, since `_embed` then stops with True."""
    deg = g._degrees
    if sorted(deg[v] for v in e) != sorted(deg[v] for v in f):
        return False
    order, adj = g.ranked
    (u, v), (a, b) = e, f
    ra, rb = order.index(a), order.index(b)
    starts = ({u: ra, v: rb}, {u: rb, v: ra})
    return (_embed(adj, g, starts, lambda image: True, deadline=budget.deadline)
            and not budget.expired())


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
    lo = min(degs)
    return DegreeStats(lo, max(degs), degs.count(lo),
                       tuple(sorted(Counter(degs).items())))


def sq_lower_bound(h: Graph, q: int) -> int:
    """q(delta - 1) + 1, the universal floor for the smallest minimum
    degree over minimal graphs arrowing h with q colors."""
    if q < 2:
        raise GraphError("need at least 2 colors")
    degs = h.degrees()
    if not degs or min(degs) == 0:
        raise GraphError("target must have no isolated vertices")
    return q * (min(degs) - 1) + 1


# ---------------------------------------------------------------------------
# propositional export for external cross-checks

def to_dimacs(instance: ArrowInstance) -> str:
    """CNF that is satisfiable iff the host has a target-free total
    q-coloring.  Variable x_{e,c} = e*q + c (1-based colors)."""
    if instance.copies is None:
        raise GraphError("the copies were not enumerated within the budget")
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
