"""Edge colorings, color patterns, and pattern families.

`_mono_copy` is the one monochromatic-copy test: every target-freeness
check runs it on one copy list (edge-id tuples) per graph and target,
an `arrowing.ArrowInstance`'s, under that instance's clock.  This module
lists no copies itself: `arrowing` imports it."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Mapping, Optional

from .graph import Graph, GraphError, decode_json, graphs_isomorphic


@dataclass(frozen=True)
class EdgeColoring:
    """Total or partial map edge id -> color in 1..q."""
    q: int
    colors: tuple[tuple[int, int], ...]   # sorted (edge_id, color) pairs

    def __post_init__(self):
        for eid, c in self.colors:
            if not (1 <= c <= self.q):
                raise GraphError(f"color {c} out of range 1..{self.q}")
        ids = [eid for eid, _ in self.colors]
        if len(set(ids)) != len(ids):
            raise GraphError("edge colored twice")

    @classmethod
    def from_map(cls, q: int, mapping: Mapping[int, int]) -> "EdgeColoring":
        return cls(q, tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.colors)

    def color_of(self, eid: int) -> Optional[int]:
        return self.as_dict().get(eid)

    def uncolored(self, graph: Graph) -> list[int]:
        have = {eid for eid, _ in self.colors}
        return [e for e in range(graph.num_edges) if e not in have]

    def is_total(self, graph: Graph) -> bool:
        return sorted(e for e, _ in self.colors) == list(range(graph.num_edges))

    def restricted(self, eids: Iterable[int]) -> "EdgeColoring":
        keep = set(eids)
        return EdgeColoring(self.q, tuple((e, c) for e, c in self.colors if e in keep))

    def class_edges(self, color: int) -> frozenset[int]:
        return frozenset(e for e, c in self.colors if c == color)

    def to_json(self) -> list[list[int]]:
        return [[e, c] for e, c in self.colors]

    @classmethod
    def from_json(cls, q: int, data: list[list[int]]) -> "EdgeColoring":
        """Inverse of `to_json`; malformed input raises GraphError."""
        return cls(q, tuple(sorted(decode_json(
            tuple[tuple[int, int], ...], data, "a coloring [[edge, color]]"))))


@dataclass(frozen=True)
class ColorPattern:
    """Partition of an edge set into q (possibly empty) classes, given as
    sequences of edge ids and kept as frozensets."""
    graph: Graph
    classes: tuple[frozenset[int], ...]

    def __post_init__(self):
        ids = [e for cls_ in self.classes for e in cls_]
        if len(set(ids)) != len(ids):
            raise GraphError("classes repeat an edge id")
        if set(ids) != set(range(self.graph.num_edges)):
            raise GraphError("classes must cover the graph's edge ids exactly")
        object.__setattr__(self, "classes", tuple(map(frozenset, self.classes)))

    @property
    def q(self) -> int:
        return len(self.classes)

    def as_partition(self) -> frozenset[frozenset[int]]:
        """Unordered view; comparing these ignores color names."""
        return frozenset(self.classes)

    def class_graph(self, i: int) -> Graph:
        return self.graph.edge_induced(self.classes[i])

    def to_coloring(self) -> EdgeColoring:
        """Total coloring assigning color i+1 to class i."""
        return EdgeColoring.from_map(self.q, {
            e: i + 1 for i, cls in enumerate(self.classes) for e in cls})


def _mono_copy(copy_list, coloring: EdgeColoring) -> Optional[tuple[int, ...]]:
    """The first copy in `copy_list` whose edges share one color, or None."""
    cmap = coloring.as_dict()
    for es in copy_list:
        c0 = cmap.get(es[0])
        if c0 is not None and all(cmap.get(e) == c0 for e in es[1:]):
            return tuple(es)
    return None


def pattern_of(graph: Graph, coloring: EdgeColoring) -> ColorPattern:
    if not coloring.is_total(graph):
        raise GraphError("pattern_of needs a total coloring")
    classes = tuple(coloring.class_edges(c) for c in range(1, coloring.q + 1))
    return ColorPattern(graph, classes)


def patterns_isomorphic(g: ColorPattern, g2: ColorPattern) -> bool:
    """True iff some color permutation makes the classes pairwise
    isomorphic as (abstract) graphs."""
    if g.q != g2.q:
        return False
    if sorted(len(c) for c in g.classes) != sorted(len(c) for c in g2.classes):
        return False
    class_graphs = [g.class_graph(i) for i in range(g.q)]
    other_graphs = [g2.class_graph(i) for i in range(g2.q)]
    for pi in permutations(range(g.q)):
        if all(len(g.classes[i]) == len(g2.classes[pi[i]]) for i in range(g.q)) and \
           all(graphs_isomorphic(class_graphs[i], other_graphs[pi[i]])
               for i in range(g.q)):
            return True
    return False


EXACT = "exact"
UP_TO_ISO = "up_to_iso"


@dataclass(frozen=True)
class PatternFamily:
    """A finite family of color patterns over one base graph.

    `mode` controls membership: EXACT compares partitions (ignoring color
    names); UP_TO_ISO accepts any pattern isomorphic to a member.
    """
    base: Graph
    members: tuple[ColorPattern, ...]
    mode: str = EXACT

    def __post_init__(self):
        if self.mode not in (EXACT, UP_TO_ISO):
            raise GraphError(f"unknown membership mode {self.mode!r}")
        base = (self.base.n, self.base.edges)
        for m in self.members:
            if (m.graph.n, m.graph.edges) != base:
                raise GraphError("family member is not a pattern of the base graph")

    def __len__(self) -> int:
        return len(self.members)

    def contains(self, pattern: ColorPattern) -> bool:
        if self.mode == EXACT:
            key = pattern.as_partition()
            return any(key == m.as_partition() for m in self.members)
        return any(patterns_isomorphic(pattern, m) for m in self.members)

    def to_json(self) -> dict:
        """The base graph once, and each member as its edge-id classes."""
        return {"base": self.base.to_json(), "mode": self.mode,
                "members": [[sorted(c) for c in m.classes]
                            for m in self.members]}

    @classmethod
    def from_json(cls, data) -> "PatternFamily":
        """Inverse of `to_json`; malformed input raises GraphError."""
        data = data if isinstance(data, dict) else {}
        base = Graph.from_json(data.get("base"))
        members = decode_json(tuple[tuple[tuple[int, ...], ...], ...],
                              data.get("members"), "pattern family members")
        return cls(base, tuple(ColorPattern(base, m) for m in members),
                   data.get("mode", EXACT))
