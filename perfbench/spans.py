"""Span tracing for the benchmark's traced runs.

Only the benchmark uses this module.  `install` wraps the public
functions of each library layer in every module namespace where callers
look them up (for example `arrows` in `arrowing`, `gadgets`,
`constructions`, `cli` and the package itself), so nested calls such as
`is_minimal -> arrows -> ArrowInstance.create` are all recorded.  The
function it returns puts the original objects back.  An untraced run
never calls `install`.

A span is one call: name, layer, start, end, parent span, operation id
and the exact counters read from the call's arguments and return value.
The runner opens one root span per benchmark operation (layer "op").
Spans stay in memory; the runner writes them as JSONL when it ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Any, Callable, Optional

# span fields, kept as plain lists so that recording stays cheap
NAME, LAYER, START, END, PARENT, OP, COUNTERS = range(7)

OP_LAYER = "op"
PACKAGE = "ramsey_gadgets"


def _copies(args, kwargs, result) -> dict:
    return {"copies": len(result)}


def _graph6_bytes(args, kwargs, result) -> dict:
    return {"graph6_bytes": len(result)}


def _manifest_bytes(args, kwargs, result) -> dict:
    return {"manifest_bytes": len(json.dumps(result))}


def _search(unknown: str) -> Callable:
    def count(args, kwargs, result) -> dict:
        return {"nodes": result.stats.nodes,
                "unknown": int(result.verdict == unknown)}
    return count


def _argument(fn: Callable, name: str, key: str) -> Callable:
    sig = inspect.signature(fn)

    def count(args, kwargs, result) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {key: bound.arguments[name]}
    return count


_SPEC_CLASSES = ("SenderSpec", "IndicatorSpec", "GNISpec", "PatternGadgetSpec")

# (layer, module, qualified name, counter factory or None).  A counter
# factory gets the original function and the arrowing module.
LAYER_FUNCTIONS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("instance", "graph", "enumerate_copies", lambda fn, ar: _copies),
    ("instance", "arrowing", "ArrowInstance.create", None),
    ("search", "arrowing", "arrows", lambda fn, ar: _search(ar.UNKNOWN)),
    ("search", "arrowing", "extendable", lambda fn, ar: _search(ar.UNKNOWN)),
    ("minimality", "arrowing", "is_minimal", None),
    ("minimality", "arrowing", "minimalize", None),
    ("construction", "graph", "compose", None),
    ("construction", "manifest", "ManifestBuilder.__init__", None),
    ("construction", "manifest", "ManifestBuilder.resume", None),
    ("construction", "manifest", "ManifestBuilder.compose", None),
    ("construction", "manifest", "ManifestBuilder.add_edges", None),
    ("construction", "manifest", "ConstructionManifest.to_json",
     lambda fn, ar: _manifest_bytes),
    ("construction", "manifest", "ConstructionManifest.from_json", None),
    ("construction", "manifest", "ConstructionManifest.replay", None),
    ("construction", "graph6", "write_auto", lambda fn, ar: _graph6_bytes),
    ("construction", "graph6", "parse_any", None),
    ("construction", "gadgets", "build_indicator", None),
    ("construction", "gadgets", "build_gni", None),
    ("construction", "gadgets", "build_pattern_gadget", None),
    ("construction", "constructions", "build_cycle_abundant", None),
    ("construction", "constructions", "build_ktk2_abundant", None),
    ("construction", "constructions", "build_3connected_abundant", None),
    ("construction", "constructions", "build_clique_gtilde", None),
    ("construction", "constructions", "AbundanceRecipe.to_json", None),
    *[("construction", "gadgets", f"{cls}.{meth}", None)
      for cls in _SPEC_CLASSES for meth in ("to_json", "from_json")],
    ("verification", "gadgets", "verify_sender", None),
    ("verification", "gadgets", "verify_indicator", None),
    ("verification", "gadgets", "verify_gni", None),
    ("verification", "gadgets", "verify_pattern_gadget", None),
    ("verification", "gadgets", "check_robust",
     lambda fn, ar: _argument(fn, "trials", "trials")),
    ("verification", "gadgets", "search_sender", None),
    ("cli", "cli", "main", None),
]

LAYERS = ("instance", "search", "minimality", "construction",
          "verification", "cli")

# spans whose full duration counts as serialization / replay time
_SERIALIZE = {"graph6.write_auto", "ConstructionManifest.to_json",
              "AbundanceRecipe.to_json",
              *[f"{cls}.to_json" for cls in _SPEC_CLASSES]}
_REPLAY = "ConstructionManifest.replay"
_COMPOSE = "graph.compose"


class Tracer:
    """Collects spans.  Single-threaded: the open spans form a stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def begin(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent,
                           self.op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, counters: Optional[dict] = None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[COUNTERS] = counters
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} is open")

    def write_jsonl(self, fh, **extra) -> None:
        keys = ("name", "layer", "start", "end", "parent", "op", "counters")
        for i, span in enumerate(self.spans):
            fh.write(json.dumps({**extra, "id": i, **dict(zip(keys, span))})
                     + "\n")


def _wrap(tracer: Tracer, fn: Callable, name: str, layer: str,
          counter: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(idx, {"error": 1})
            raise
        tracer.end(idx)
        if counter is not None:
            tracer.spans[idx][COUNTERS] = counter(args, kwargs, result)
        return result
    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every function of LAYER_FUNCTIONS; returns the undo function."""
    modules = [m for name, m in list(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    arrowing = sys.modules[f"{PACKAGE}.arrowing"]
    undo: list[tuple[Any, str, Any]] = []
    for layer, modname, qualname, factory in LAYER_FUNCTIONS:
        mod = sys.modules[f"{PACKAGE}.{modname}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(mod, cls_name)
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            counter = factory(fn, arrowing) if factory else None
            new = _wrap(tracer, fn, qualname, layer, counter)
            setattr(owner, attr,
                    classmethod(new) if isinstance(raw, classmethod) else new)
            undo.append((owner, attr, raw))
            continue
        orig = getattr(mod, qualname)
        counter = factory(orig, arrowing) if factory else None
        new = _wrap(tracer, orig, f"{modname}.{qualname}", layer, counter)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, new)
                    undo.append((m, key, orig))

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
    return uninstall


# ---------------------------------------------------------------------------
# analysis

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Spans close in stack order, so children are disjoint and inside
    their parent."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see the README's table)."""
    selfs = self_times(spans)
    op_wall = sum(s[END] - s[START] for s in spans if s[LAYER] == OP_LAYER)
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    under_min = [False] * len(spans)
    under_ser = [False] * len(spans)
    m = dict.fromkeys(("copies", "nodes", "all_nodes", "unknown",
                       "min_instance", "min_search", "compose", "serialize_s",
                       "replay_s", "graph6_bytes", "manifest_bytes",
                       "robust_s", "robust_trials", "report_bytes"), 0)
    for i, span in enumerate(spans):
        name, layer, parent = span[NAME], span[LAYER], span[PARENT]
        counters = span[COUNTERS] or {}
        dur = span[END] - span[START]
        if parent >= 0:
            under_min[i] = under_min[parent] or spans[parent][LAYER] == "minimality"
            under_ser[i] = under_ser[parent] or spans[parent][NAME] in _SERIALIZE
        if layer == OP_LAYER:
            m["report_bytes"] += counters.get("report_bytes", 0)
            continue
        calls[layer] += 1
        self_s[layer] += selfs[i]
        m["copies"] += counters.get("copies", 0)
        m["graph6_bytes"] += counters.get("graph6_bytes", 0)
        m["manifest_bytes"] += counters.get("manifest_bytes", 0)
        if layer == "search":
            m["all_nodes"] += counters.get("nodes", 0)
            if counters.get("unknown"):
                m["unknown"] += 1
            else:
                m["nodes"] += counters.get("nodes", 0)
        if under_min[i] and layer == "instance":
            m["min_instance"] += 1
        if under_min[i] and layer == "search":
            m["min_search"] += 1
        if name == _COMPOSE:
            m["compose"] += 1
        if name in _SERIALIZE and not under_ser[i]:
            m["serialize_s"] += dur
        if name == _REPLAY:
            m["replay_s"] += dur
        if name == "gadgets.check_robust":
            m["robust_s"] += dur
            m["robust_trials"] += counters.get("trials", 0)

    def share(layer: str) -> float:
        return self_s[layer] / op_wall if op_wall > 0 else 0.0

    return {
        "instance.calls": calls["instance"],
        "instance.copies": m["copies"],
        "instance.self_s": self_s["instance"],
        "instance.share": share("instance"),
        "search.calls": calls["search"],
        "search.nodes": m["nodes"],
        "search.self_s": self_s["search"],
        "search.nodes_per_s": (m["all_nodes"] / self_s["search"]
                               if self_s["search"] > 0 else 0.0),
        "search.unknown": m["unknown"],
        "search.share": share("search"),
        "minimality.calls": calls["minimality"],
        "minimality.self_s": self_s["minimality"],
        "minimality.instance_calls": m["min_instance"],
        "minimality.search_calls": m["min_search"],
        "construction.calls": calls["construction"],
        "construction.self_s": self_s["construction"],
        "construction.compose_calls": m["compose"],
        "construction.serialize_s": m["serialize_s"],
        "construction.replay_s": m["replay_s"],
        "construction.graph6_bytes": m["graph6_bytes"],
        "construction.manifest_bytes": m["manifest_bytes"],
        "verification.calls": calls["verification"],
        "verification.self_s": self_s["verification"],
        "verification.robust_s": m["robust_s"],
        "verification.robust_trials": m["robust_trials"],
        "cli.calls": calls["cli"],
        "cli.self_s": self_s["cli"],
        "cli.report_bytes": m["report_bytes"],
    }


# metrics that count events exactly; equal inputs must give equal values
EXACT_METRICS = (
    "instance.calls", "instance.copies", "search.calls", "search.nodes",
    "search.unknown", "minimality.calls", "minimality.instance_calls",
    "minimality.search_calls", "construction.calls",
    "construction.compose_calls", "construction.graph6_bytes",
    "construction.manifest_bytes", "verification.calls",
    "verification.robust_trials", "cli.calls", "cli.report_bytes")
