"""Command-line front end.

Exit codes: 0 = claim verified / construction succeeded, 1 = claim
refuted (counterexample in the report), 2 = budget exhausted / unknown,
3 = usage or I/O error, 4 = internal error (traceback on stderr).  A
JSON report is printed on 0/1/2 and can also be written to a file with
--report.  Timing is deliberately left out of reports so runs are
byte-identical.  The budget flags --max-nodes and --max-seconds are
accepted only by the commands that search.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from typing import Optional

from . import __version__, graph6
from .arrowing import (ARROWS, DOES_NOT_ARROW, MINIMAL, UNKNOWN,
                       ArrowInstance, Budget, arrows, extendable, is_minimal,
                       min_degree_stats, minimalize, sq_lower_bound, to_dimacs)
from .coloring import EXACT, UP_TO_ISO, EdgeColoring, PatternFamily, pattern_of
from .constructions import (ThreeConnectedSeed, build_3connected_abundant,
                            build_clique_gtilde, build_cycle_abundant,
                            build_ktk2_abundant, default_three_connected_seed,
                            p4_abundant, phi_coloring, psi_coloring,
                            star_arrow_predicate, star_degree_one_count_check)
from .gadgets import (EXHAUSTED, FixedSenderProvider, GNISpec, IndicatorSpec,
                      PatternGadgetSpec, SearchSenderProvider, SenderSpec,
                      StubSenderProvider, VerificationReport, build_gni,
                      build_indicator, build_pattern_gadget, check_robust,
                      search_sender, verify_gni, verify_indicator,
                      verify_pattern_gadget, verify_sender)
from .graph import Graph, GraphError, decode_json, graph_from_name

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# shared helpers

def _load_graph(token: str) -> Graph:
    """Named family ("K6", "C4", ...), graph6 literal ("g6:..."), or the
    first graph of a file ("file:path.g6")."""
    if token.startswith("file:"):
        graphs = graph6.read_graph_file(token[5:])
        if not graphs:
            raise GraphError(f"no graphs in {token[5:]!r}")
        return graphs[0]
    return graph_from_name(token)


def _load_json(token: str):
    """Inline JSON or a path to a JSON file."""
    token = token.strip()
    try:
        return json.loads(token if token.startswith(("[", "{"))
                          else Path(token).read_text())
    except ValueError as exc:        # bad JSON or bad text encoding
        raise GraphError(f"cannot read JSON from {token[:40]!r}: {exc}") from None


def _budget(args) -> Budget:
    return Budget(getattr(args, "max_nodes", None),
                  getattr(args, "max_seconds", None))


def _provider(args, budget: Budget):
    token = getattr(args, "senders", "stub")
    if token == "stub":
        return StubSenderProvider()
    if token == "search":
        return SearchSenderProvider(getattr(args, "max_order", 6) or 6,
                                    budget=budget)
    return FixedSenderProvider(decode_json(
        tuple[SenderSpec, ...], _load_json(token), "--senders"))


def _emit(args, command: str, payload: dict) -> None:
    params = {k: v for k, v in sorted(vars(args).items())
              if k != "func" and not callable(v)}
    report = {"tool": "ramsey-gadgets", "version": __version__,
              "command": command, "parameters": params}
    report.update(payload)
    text = json.dumps(report, indent=1, sort_keys=True)
    print(text)
    path = getattr(args, "report", None)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _write_artifacts(args, artifact, manifest=None) -> None:
    """--out gets a graph as a .g6 file or a spec's JSON form;
    --manifest-out gets the build recipe."""
    path = getattr(args, "out", None)
    if path and isinstance(artifact, Graph):
        graph6.write_graph_file(path, [artifact])
    elif path:
        with open(path, "w") as fh:
            json.dump(artifact, fh, indent=1)
    if getattr(args, "manifest_out", None):
        manifest.save(args.manifest_out)


def _report_exit(report: VerificationReport) -> int:
    if report.failures:
        return EXIT_REFUTED
    if any(r.outcome == EXHAUSTED for r in report.results):
        return EXIT_UNKNOWN
    return EXIT_OK


def _arrow_exit(verdict: str, claim: str) -> int:
    if verdict == UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_OK if verdict == claim else EXIT_REFUTED


# ---------------------------------------------------------------------------
# engine commands

def cmd_arrow(args) -> int:
    host = _load_graph(args.host)
    target = _load_graph(args.target)
    inst = ArrowInstance.create(host, target, args.q, _budget(args))
    res = arrows(inst)
    payload = {"verdict": res.verdict, "nodes": res.stats.nodes,
               "copies": len(inst.copies)}
    if res.witness is not None:
        payload["witness"] = res.witness.to_json()
    if getattr(args, "dimacs_out", None):
        with open(args.dimacs_out, "w") as fh:
            fh.write(to_dimacs(inst))
    _emit(args, "arrow", payload)
    return _arrow_exit(res.verdict, ARROWS)


def cmd_color(args) -> int:
    host = _load_graph(args.host)
    target = _load_graph(args.target)
    inst = ArrowInstance.create(host, target, args.q, _budget(args))
    res = arrows(inst)
    payload = {"verdict": res.verdict, "nodes": res.stats.nodes}
    if res.witness is not None:
        payload["coloring"] = res.witness.to_json()
    _emit(args, "color", payload)
    return _arrow_exit(res.verdict, DOES_NOT_ARROW)


def cmd_extend(args) -> int:
    host = _load_graph(args.host)
    target = _load_graph(args.target)
    partial = EdgeColoring.from_json(args.q, _load_json(args.partial))
    res = extendable(host, partial, target, args.q, _budget(args))
    payload = {"verdict": res.verdict, "nodes": res.stats.nodes}
    if res.witness is not None:
        payload["witness"] = res.witness.to_json()
    if res.certificate is not None:
        payload["monochromatic_copy"] = list(res.certificate)
    _emit(args, "extend", payload)
    return _arrow_exit(res.verdict, "extendable")


def cmd_minimalize(args) -> int:
    host = _load_graph(args.host)
    target = _load_graph(args.target)
    g, verdict = minimalize(host, target, args.q, _budget(args))
    stats = min_degree_stats(g)
    payload = {"verdict": verdict, "graph": g.to_json(),
               "vertices": g.n, "edges": g.num_edges,
               "min_degree": stats.min_degree,
               "min_degree_count": stats.min_count}
    _write_artifacts(args, g)
    _emit(args, "minimalize", payload)
    return EXIT_OK if verdict == MINIMAL else EXIT_UNKNOWN


def cmd_check_minimal(args) -> int:
    host = _load_graph(args.host)
    target = _load_graph(args.target)
    res = is_minimal(host, target, args.q, _budget(args))
    payload = {"verdict": res.verdict, "detail": res.detail}
    if res.removable_edge is not None:
        payload["edge"] = res.removable_edge
    _emit(args, "check-minimal", payload)
    if res.verdict == UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_OK if res.verdict == MINIMAL else EXIT_REFUTED


def cmd_stats(args) -> int:
    g = _load_graph(args.graph)
    stats = min_degree_stats(g)
    payload = {"vertices": g.n, "edges": g.num_edges,
               "min_degree": stats.min_degree,
               "max_degree": stats.max_degree,
               "min_degree_count": stats.min_count,
               "histogram": {str(d): c for d, c in stats.histogram}}
    if getattr(args, "target", None):
        h = _load_graph(args.target)
        payload["degree_lower_bound"] = sq_lower_bound(h, args.q)
    _emit(args, "stats", payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct commands

def _emit_built(args, name: str, built, artifact=None) -> int:
    """Report a construction; --out gets `artifact` if given, else the
    JSON form of what was built."""
    payload = built.to_json()
    _write_artifacts(args, payload if artifact is None else artifact,
                     built.manifest)
    _emit(args, name, payload)
    ok = payload.get("degrees_ok", True)
    return EXIT_OK if ok else EXIT_REFUTED


def cmd_construct_cycle(args) -> int:
    recipe = build_cycle_abundant(args.q, args.t, args.k,
                                  _provider(args, _budget(args)),
                                  d=args.d, budget=_budget(args))
    return _emit_built(args, "construct cycle", recipe, recipe.graph)


def cmd_construct_ktk2(args) -> int:
    recipe = build_ktk2_abundant(args.t, args.k,
                                 _provider(args, _budget(args)),
                                 d=args.d, budget=_budget(args))
    return _emit_built(args, "construct ktk2", recipe, recipe.graph)


def cmd_construct_3conn(args) -> int:
    if args.graph:
        f = _load_graph(args.graph)
        seed = ThreeConnectedSeed(f, args.vertex, args.edge,
                                  _load_graph(args.target), args.q)
    else:
        seed = default_three_connected_seed()
    recipe = build_3connected_abundant(seed, args.k,
                                       _provider(args, _budget(args)),
                                       d=args.d, budget=_budget(args))
    return _emit_built(args, "construct 3conn", recipe, recipe.graph)


def cmd_construct_clique(args) -> int:
    spec = build_clique_gtilde(args.t, args.q,
                               _provider(args, _budget(args)), d=args.d)
    return _emit_built(args, "construct clique", spec, spec.graph)


def cmd_construct_p4(args) -> int:
    g = p4_abundant(args.k)
    stats = min_degree_stats(g)
    _write_artifacts(args, g)
    _emit(args, "construct p4", {
        "graph": g.to_json(), "vertices": g.n, "edges": g.num_edges,
        "degree_one_count": g.degrees().count(1),
        "min_degree": stats.min_degree})
    return EXIT_OK


def cmd_construct_phi(args) -> int:
    col = phi_coloring(args.q, args.t)
    n = (args.t - 1) ** args.q
    _emit(args, "construct phi", {"vertices": n, "coloring": col.to_json()})
    return EXIT_OK


def cmd_construct_psi(args) -> int:
    col = psi_coloring(args.q, args.t)
    n = (args.t - 1) ** args.q + 1
    _emit(args, "construct psi", {"vertices": n, "coloring": col.to_json()})
    return EXIT_OK


def cmd_construct_indicator(args) -> int:
    spec = build_indicator(_load_graph(args.target),
                           _load_graph(args.subgraph), args.q, args.polarity,
                           _provider(args, _budget(args)), args.d)
    return _emit_built(args, "construct indicator", spec)


def cmd_construct_gni(args) -> int:
    partition = decode_json(tuple[tuple[int, ...], ...],
                            _load_json(args.partition), "--partition")
    spec = build_gni(_load_graph(args.target), _load_graph(args.subgraph),
                     _load_graph(args.classes_graph), partition, args.q,
                     _provider(args, _budget(args)), args.d)
    return _emit_built(args, "construct gni", spec)


def cmd_construct_pattern_gadget(args) -> int:
    base = _load_graph(args.base)
    q = args.q
    members = tuple(pattern_of(base, EdgeColoring.from_json(q, m))
                    for m in decode_json(tuple[list, ...],
                                         _load_json(args.patterns), "--patterns"))
    mode = UP_TO_ISO if args.up_to_iso else EXACT
    family = PatternFamily(base, members, mode)
    spec = build_pattern_gadget(_load_graph(args.target), base, family, q,
                                _provider(args, _budget(args)), args.d,
                                budget=_budget(args))
    return _emit_built(args, "construct pattern-gadget", spec)


# ---------------------------------------------------------------------------
# verify commands

def cmd_verify_sender(args) -> int:
    if args.spec:
        spec = SenderSpec.from_json(_load_json(args.spec))
    elif not (args.graph and args.target):
        raise GraphError("verify sender needs --spec, or --graph and --target")
    else:
        spec = SenderSpec(_load_graph(args.graph), args.e, args.f,
                          args.polarity, _load_graph(args.target), args.q,
                          args.d)
    report = verify_sender(spec, _budget(args))
    _emit(args, "verify sender", report.to_json())
    return _report_exit(report)


def _verify_from_spec(args, name: str, spec_cls, verify_fn) -> int:
    spec = spec_cls.from_json(_load_json(args.spec))
    report = verify_fn(spec, _budget(args))
    _emit(args, name, report.to_json())
    return _report_exit(report)


def cmd_verify_indicator(args) -> int:
    return _verify_from_spec(args, "verify indicator", IndicatorSpec,
                             verify_indicator)


def cmd_verify_gni(args) -> int:
    return _verify_from_spec(args, "verify gni", GNISpec, verify_gni)


def cmd_verify_pattern_gadget(args) -> int:
    return _verify_from_spec(args, "verify pattern-gadget",
                             PatternGadgetSpec, verify_pattern_gadget)


def cmd_verify_robust(args) -> int:
    g = _load_graph(args.graph)
    try:
        inner = [int(v) for v in args.inner.split(",") if v != ""]
    except ValueError:
        raise GraphError(f"--inner takes comma-separated vertex ids, "
                         f"not {args.inner!r}") from None
    report = check_robust(g, inner, _load_graph(args.target),
                          s_max=args.s_max)
    _emit(args, "verify robust", report.to_json())
    return _report_exit(report)


def cmd_search_sender(args) -> int:
    spec = search_sender(_load_graph(args.target), args.q, args.d,
                         args.polarity, args.max_order, budget=_budget(args))
    if spec is None:
        _emit(args, "search-sender", {"found": False})
        return EXIT_REFUTED
    payload = spec.to_json()
    _write_artifacts(args, payload)
    _emit(args, "search-sender", {"found": True, "sender": payload})
    return EXIT_OK


def cmd_star_check(args) -> int:
    g = _load_graph(args.graph)
    predicted = star_arrow_predicate(g, args.m)
    payload: dict = {"predicate": predicted}
    code = EXIT_OK
    if not args.predicate_only:
        from .graph import star_graph
        res = arrows(ArrowInstance.create(g, star_graph(args.m), 2,
                                          _budget(args)))
        payload["engine"] = res.verdict
        if res.verdict == UNKNOWN:
            code = EXIT_UNKNOWN
        elif predicted != (res.verdict == ARROWS):
            code = EXIT_REFUTED
    if args.count_check:
        payload["degree_one_count_ok"] = star_degree_one_count_check(
            g, args.m, args.q, _budget(args))
        if not payload["degree_one_count_ok"]:
            code = max(code, EXIT_REFUTED)
    _emit(args, "star-check", payload)
    return code


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", help="write the JSON report here too")
    # only on the commands that use them
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--max-nodes", type=int, default=None)
    budget.add_argument("--max-seconds", type=float, default=None)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="artifact output path")

    # sender search (--senders search) runs under the budget flags
    build = argparse.ArgumentParser(add_help=False, parents=[budget])
    build.add_argument("--senders", default="stub",
                       help="stub | search | path to a sender JSON list")
    build.add_argument("--max-order", type=int, default=6,
                       help="corpus order cap for sender search")
    build.add_argument("--d", type=int, default=None,
                       help="interface distance parameter")
    build.add_argument("--manifest-out", help="write the build recipe here")

    p = argparse.ArgumentParser(prog="ramsey-gadgets")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, fn, parents, **kw):
        sp = sub.add_parser(name, parents=parents, **kw)
        sp.set_defaults(func=fn)
        return sp

    sp = cmd("arrow", cmd_arrow, [common, budget])
    sp.add_argument("--host", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--dimacs-out")

    sp = cmd("color", cmd_color, [common, budget])
    sp.add_argument("--host", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--q", type=int, default=2)

    sp = cmd("extend", cmd_extend, [common, budget])
    sp.add_argument("--host", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--partial", required=True,
                    help="inline JSON [[edge,color],...] or a file path")

    for name, fn, extra in (("minimalize", cmd_minimalize, [out]),
                            ("check-minimal", cmd_check_minimal, [])):
        sp = cmd(name, fn, [common, budget] + extra)
        sp.add_argument("--host", required=True)
        sp.add_argument("--target", required=True)
        sp.add_argument("--q", type=int, default=2)

    sp = cmd("stats", cmd_stats, [common])
    sp.add_argument("--graph", required=True)
    sp.add_argument("--target")
    sp.add_argument("--q", type=int, default=2)

    pc = sub.add_parser("construct")
    csub = pc.add_subparsers(dest="kind", required=True)

    def ccmd(name, fn, parents):
        sp = csub.add_parser(name, parents=parents)
        sp.set_defaults(func=fn)
        return sp

    sp = ccmd("cycle", cmd_construct_cycle, [common, out, build])
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)

    sp = ccmd("ktk2", cmd_construct_ktk2, [common, out, build])
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)

    sp = ccmd("3conn", cmd_construct_3conn, [common, out, build])
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--graph", help="seed graph (defaults to a built-in one)")
    sp.add_argument("--vertex", type=int, default=0)
    sp.add_argument("--edge", type=int, default=0)
    sp.add_argument("--target", default="P3")
    sp.add_argument("--q", type=int, default=2)

    sp = ccmd("clique", cmd_construct_clique, [common, out, build])
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--q", type=int, default=2)

    sp = ccmd("p4", cmd_construct_p4, [common, out])
    sp.add_argument("--k", type=int, required=True)

    for name, fn in (("phi", cmd_construct_phi), ("psi", cmd_construct_psi)):
        sp = ccmd(name, fn, [common])
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--t", type=int, required=True)

    sp = ccmd("indicator", cmd_construct_indicator, [common, out, build])
    sp.add_argument("--target", required=True)
    sp.add_argument("--subgraph", required=True)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--polarity", choices=["positive", "negative"],
                    default="positive")

    sp = ccmd("gni", cmd_construct_gni, [common, out, build])
    sp.add_argument("--target", required=True)
    sp.add_argument("--subgraph", required=True)
    sp.add_argument("--classes-graph", required=True)
    sp.add_argument("--partition", required=True,
                    help="inline JSON [[edge ids]...] or a file path")
    sp.add_argument("--q", type=int, default=2)

    sp = ccmd("pattern-gadget", cmd_construct_pattern_gadget,
              [common, out, build])
    sp.add_argument("--target", required=True)
    sp.add_argument("--base", required=True)
    sp.add_argument("--patterns", required=True,
                    help="JSON list of total colorings [[edge,color],...]")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--up-to-iso", action="store_true")

    pv = sub.add_parser("verify")
    vsub = pv.add_subparsers(dest="kind", required=True)

    sp = vsub.add_parser("sender", parents=[common, budget])
    sp.set_defaults(func=cmd_verify_sender)
    sp.add_argument("--spec", help="JSON spec (inline or file)")
    sp.add_argument("--graph")
    sp.add_argument("--e", type=int, default=0)
    sp.add_argument("--f", type=int, default=1)
    sp.add_argument("--polarity", choices=["positive", "negative"],
                    default="positive")
    sp.add_argument("--target")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--d", type=int, default=1)

    for name, fn in (("indicator", cmd_verify_indicator),
                     ("gni", cmd_verify_gni),
                     ("pattern-gadget", cmd_verify_pattern_gadget)):
        sp = vsub.add_parser(name, parents=[common, budget])
        sp.set_defaults(func=fn)
        sp.add_argument("--spec", required=True)

    sp = vsub.add_parser("robust", parents=[common])
    sp.set_defaults(func=cmd_verify_robust)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--inner", required=True,
                    help="comma-separated vertex ids of the inner subgraph")
    sp.add_argument("--target", required=True)
    sp.add_argument("--s-max", type=int, default=3)

    sp = cmd("search-sender", cmd_search_sender, [common, budget, out])
    sp.add_argument("--target", required=True)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--polarity", choices=["positive", "negative"],
                    default="positive")
    sp.add_argument("--max-order", type=int, default=6)

    sp = cmd("star-check", cmd_star_check, [common, budget])
    sp.add_argument("--graph", required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--predicate-only", action="store_true")
    sp.add_argument("--count-check", action="store_true")

    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # a crash must not read as a refutation (exit 1)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
