"""Replayable construction manifests.

A manifest records a base graph plus a sequence of compositions.  Since
compose() assigns edge ids deterministically, replaying a manifest
reproduces the exact same graph, vertex labels and edge ids.

The JSON layout stores each distinct step graph once, in the form of
`Graph.to_json`: {"manifest_version": 2, "parts": [graph, ...], "steps":
[{"kind", "part", "identification", "label_prefix", "note"}, ...]}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .graph import ComposeError, Graph, GraphError, compose, decode_json


@dataclass(frozen=True)
class ManifestStep:
    kind: str                       # "base", "compose" or "edges"
    graph: Optional[Graph]          # base or gadget graph (None for edges steps)
    identification: tuple[tuple[int, int], ...] = ()   # vertex pairs for edges steps
    label_prefix: Optional[str] = None
    note: str = ""


@dataclass
class ConstructionManifest:
    steps: list[ManifestStep] = field(default_factory=list)

    def record_base(self, g: Graph, note: str = ""):
        if self.steps:
            raise ComposeError("manifest already has a base step")
        self.steps.append(ManifestStep("base", g, note=note))

    def record_compose(self, gadget: Graph, identification: dict[int, int],
                       label_prefix: Optional[str] = None, note: str = ""):
        self.steps.append(ManifestStep(
            "compose", gadget, tuple(sorted(identification.items())),
            label_prefix, note))

    def record_edges(self, pairs: list[tuple[int, int]], note: str = ""):
        self.steps.append(ManifestStep("edges", None, tuple(pairs), None, note))

    def replay(self) -> Graph:
        if not self.steps or self.steps[0].kind != "base":
            raise ComposeError("manifest must start with a base step")
        g = self.steps[0].graph
        for step in self.steps[1:]:
            if step.kind == "edges":
                g = Graph(g.n, g.edges + tuple(step.identification), g.labels)
            elif step.kind == "compose":
                g = compose(g, step.graph, dict(step.identification),
                            step.label_prefix).graph
            else:
                raise ComposeError(f"unknown manifest step kind {step.kind!r}")
        return g

    def to_json(self) -> dict:
        part_of: dict[Graph, int] = {}
        steps = []
        for s in self.steps:
            part = None
            if s.graph is not None:
                part = part_of.setdefault(s.graph, len(part_of))
            steps.append({"kind": s.kind, "part": part,
                          "identification": [list(p) for p in s.identification],
                          "label_prefix": s.label_prefix, "note": s.note})
        return {"manifest_version": 2,
                "parts": [g.to_json() for g in part_of], "steps": steps}

    @classmethod
    def from_json(cls, data) -> "ConstructionManifest":
        """Inverse of `to_json`; malformed input raises GraphError."""
        if not isinstance(data, dict) or data.get("manifest_version") != 2:
            raise GraphError("not a version 2 manifest")
        parts = decode_json(tuple[Graph, ...], data.get("parts"), "parts")
        steps = []
        for s in decode_json(tuple[dict, ...], data.get("steps"), "steps"):
            part = s.get("part")        # none exactly for an edges step
            if (part is None) != (s.get("kind") == "edges") or part is not None \
                    and (type(part) is not int or not 0 <= part < len(parts)):
                raise GraphError(f"manifest step part {part!r} names no part")
            steps.append(ManifestStep(
                s.get("kind"), None if part is None else parts[part],
                decode_json(tuple[tuple[int, int], ...],
                            s.get("identification", []), "identification"),
                s.get("label_prefix"), s.get("note", "")))
        return cls(steps)

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @classmethod
    def load(cls, path: str) -> "ConstructionManifest":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


class ManifestBuilder:
    """Tracks a growing host graph together with its manifest."""

    def __init__(self, base: Graph, note: str = ""):
        self.graph = base
        self.manifest = ConstructionManifest()
        self.manifest.record_base(base, note=note)

    @classmethod
    def resume(cls, graph: Graph, manifest: ConstructionManifest) -> "ManifestBuilder":
        """Continue composing onto an already-built graph.  The given
        manifest is copied, so the original recipe stays unchanged."""
        b = cls.__new__(cls)
        b.graph = graph
        b.manifest = ConstructionManifest(list(manifest.steps))
        return b

    def compose(self, gadget: Graph, identification: dict[int, int],
                label_prefix: Optional[str] = None, note: str = ""):
        res = compose(self.graph, gadget, identification, label_prefix)
        self.graph = res.graph
        self.manifest.record_compose(gadget, identification, label_prefix, note)
        return res

    def add_edges(self, pairs, note: str = "") -> list[int]:
        """Add edges between existing vertices; returns the new edge ids."""
        norm = []
        for u, v in pairs:
            if not (0 <= u < self.graph.n and 0 <= v < self.graph.n):
                raise ComposeError(f"edge ({u},{v}) out of range")
            if self.graph.has_edge(u, v):
                raise ComposeError(f"edge ({u},{v}) already present")
            norm.append((u, v) if u < v else (v, u))
        first = self.graph.num_edges
        self.graph = Graph(self.graph.n, self.graph.edges + tuple(norm),
                           self.graph.labels)
        self.manifest.record_edges(norm, note)
        return list(range(first, first + len(norm)))
