"""Replayable construction manifests.

A manifest records a base graph plus a sequence of compositions and
edge additions.  Since composing assigns edge ids deterministically,
replaying a manifest reproduces the exact same graph, vertex labels and
edge ids.  A `ManifestBuilder` and `ConstructionManifest.replay` run
their steps through one append path (`graph._GraphDraft`): each step
appends to edge and label lists, and the `Graph` is built once, when it
is read.

The JSON layout stores each distinct step graph once, in the form of
`Graph.to_json`: {"manifest_version": 2, "parts": [graph, ...], "steps":
[{"kind", "part", "identification", "label_prefix", "note"}, ...]}.
`ConstructionManifest.from_json` decodes every field with
`graph.decode_json` and checks the step order: the first step is the
one "base" step, every later one a "compose" or "edges" step,
`label_prefix` is a string or null and `note` a string.  Anything else
raises GraphError while loading, not later in `replay`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .graph import (ComposeError, ComposeResult, Graph, GraphError,
                    _GraphDraft, decode_json)


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
        draft = _GraphDraft(self.steps[0].graph)
        for step in self.steps[1:]:
            if step.kind == "edges":
                draft.add_edges(step.identification)
            elif step.kind == "compose":
                draft.compose(step.graph, dict(step.identification),
                              step.label_prefix)
            else:
                raise ComposeError(f"unknown manifest step kind {step.kind!r}")
        return draft.graph

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
        """Inverse of `to_json` for a manifest with its base step;
        malformed input raises GraphError."""
        if not isinstance(data, dict) or data.get("manifest_version") != 2:
            raise GraphError("not a version 2 manifest")
        parts = decode_json(tuple[Graph, ...], data.get("parts"), "parts")
        raw = decode_json(tuple[dict, ...], data.get("steps"), "steps")
        if not raw:
            raise GraphError("manifest step 0 is missing; it must be the "
                             "base step")
        steps = []
        for i, s in enumerate(raw):
            kind = s.get("kind")
            if kind not in ("base", "compose", "edges") \
                    or (kind == "base") != (i == 0):
                raise GraphError(f"manifest step {i} has kind {kind!r}; "
                                 "only the first step is a base step, the "
                                 "others compose or edges steps")
            part = s.get("part")        # none exactly for an edges step
            if (part is None) != (kind == "edges") or part is not None \
                    and (type(part) is not int or not 0 <= part < len(parts)):
                raise GraphError(f"manifest step part {part!r} names no part")
            steps.append(ManifestStep(
                kind, None if part is None else parts[part],
                decode_json(tuple[tuple[int, int], ...],
                            s.get("identification", []), "identification"),
                decode_json(Optional[str], s.get("label_prefix"),
                            "label_prefix"),
                decode_json(str, s.get("note", ""), "note")))
        return cls(steps)

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @classmethod
    def load(cls, path: str) -> "ConstructionManifest":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


class ManifestBuilder(_GraphDraft):
    """Tracks a growing host graph together with its manifest.

    Each step appends to the builder's edge list (`edges`, edge id ->
    (u, v)) and label list, which callers may read mid-build; `graph`
    builds the host `Graph` once, on the first read after the last
    step."""

    def __init__(self, base: Graph, note: str = ""):
        super().__init__(base)
        self.manifest = ConstructionManifest()
        self.manifest.record_base(base, note=note)

    @classmethod
    def resume(cls, graph: Graph, manifest: ConstructionManifest) -> "ManifestBuilder":
        """Continue composing onto an already-built graph.  The given
        manifest is copied, so the original recipe stays unchanged."""
        b = cls.__new__(cls)
        _GraphDraft.__init__(b, graph)
        b.manifest = ConstructionManifest(list(manifest.steps))
        return b

    def compose(self, gadget: Graph, identification: dict[int, int],
                label_prefix: Optional[str] = None,
                note: str = "") -> ComposeResult:
        """Append a gadget as `graph.compose` does; the result carries the
        vertex and edge maps but no graph."""
        res = super().compose(gadget, identification, label_prefix)
        self.manifest.record_compose(gadget, identification, label_prefix, note)
        return res

    def add_edges(self, pairs, note: str = "") -> list[int]:
        """Add edges between existing vertices; returns the new edge ids."""
        new = super().add_edges(pairs)
        self.manifest.record_edges([self.edges[e] for e in new], note)
        return new
