"""Command-line front end.

Exit codes: 0 = claim verified / construction succeeded, 1 = claim
refuted (counterexample in the report), 2 = budget exhausted / unknown,
3 = usage or I/O error, 4 = internal error (traceback on stderr).  A
JSON report is printed on 0/1/2 (none when a construction or sender
search runs out of budget: the reason goes to stderr) and can also be
written to a file with --report.  Timing is left out of reports so runs
are byte-identical.  Only the commands that search take the budget
flags: --max-seconds bounds the whole command, --max-nodes each search.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from functools import partial
from pathlib import Path
from typing import Optional

from . import __version__, graph6
from .arrowing import (ARROWS, DOES_NOT_ARROW, EXTENDABLE, MINIMAL, UNKNOWN,
                       ArrowInstance, Budget, BudgetExhausted, arrows,
                       extendable, is_minimal, min_degree_stats, minimalize,
                       sq_lower_bound, to_dimacs)
from .coloring import EXACT, UP_TO_ISO, EdgeColoring, PatternFamily, pattern_of
from .constructions import (ThreeConnectedSeed, build_3connected_abundant,
                            build_clique_gtilde, build_cycle_abundant,
                            build_ktk2_abundant, p4_abundant, phi_coloring,
                            psi_coloring, star_arrow_predicate,
                            star_degree_one_count_check)
from .gadgets import (EXHAUSTED, FixedSenderProvider, GNISpec, IndicatorSpec,
                      PatternGadgetSpec, SearchSenderProvider, SenderSpec,
                      StubSenderProvider, VerificationReport, build_gni,
                      build_indicator, build_pattern_gadget, check_robust,
                      search_sender, verify_gni, verify_indicator,
                      verify_pattern_gadget, verify_sender)
from .graph import Graph, GraphError, decode_json, graph_from_name, star_graph

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


def _provider(args):
    token = getattr(args, "senders", "stub")
    if token == "stub":
        return StubSenderProvider()
    if token == "search":
        return SearchSenderProvider(args.max_order, budget=args.budget)
    return FixedSenderProvider(decode_json(
        tuple[SenderSpec, ...], _load_json(token), "--senders"))


def _emit(args, command: str, payload: dict) -> None:
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "budget") and not callable(v)}
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


def _verdict_exit(verdict: str, claim: str) -> int:
    if verdict == UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_OK if verdict == claim else EXIT_REFUTED


# ---------------------------------------------------------------------------
# engine commands

def _counters(stats) -> dict:
    """The search's deterministic counters; its wall time stays out of
    reports."""
    return {"nodes": stats.nodes, "flips": stats.flips,
            "propagations": stats.propagations,
            "backtracks": stats.backtracks}


def cmd_arrow(args) -> int:
    host = _load_graph(args.host)
    target = _load_graph(args.target)
    inst = ArrowInstance.create(host, target, args.q, args.budget)
    res = arrows(inst)
    payload = {"verdict": res.verdict, **_counters(res.stats),
               "copies": None if inst.copies is None else len(inst.copies),
               "support_copies": len(res.support)
               if res.verdict == ARROWS else None}
    if res.witness is not None:
        payload["witness"] = res.witness.to_json()
    if getattr(args, "dimacs_out", None) and inst.copies is not None:
        with open(args.dimacs_out, "w") as fh:
            fh.write(to_dimacs(inst))
    _emit(args, "arrow", payload)
    return _verdict_exit(res.verdict, ARROWS)


def cmd_color(args) -> int:
    host = _load_graph(args.host)
    target = _load_graph(args.target)
    inst = ArrowInstance.create(host, target, args.q, args.budget)
    res = arrows(inst)
    payload = {"verdict": res.verdict, **_counters(res.stats)}
    if res.witness is not None:
        payload["coloring"] = res.witness.to_json()
    _emit(args, "color", payload)
    return _verdict_exit(res.verdict, DOES_NOT_ARROW)


def cmd_extend(args) -> int:
    host = _load_graph(args.host)
    target = _load_graph(args.target)
    partial = EdgeColoring.from_json(args.q, _load_json(args.partial))
    res = extendable(host, partial, target, args.q, args.budget)
    payload = {"verdict": res.verdict, **_counters(res.stats)}
    if res.witness is not None:
        payload["witness"] = res.witness.to_json()
    if res.certificate is not None:
        payload["monochromatic_copy"] = list(res.certificate)
    _emit(args, "extend", payload)
    return _verdict_exit(res.verdict, EXTENDABLE)


def cmd_minimalize(args) -> int:
    host = _load_graph(args.host)
    target = _load_graph(args.target)
    g, verdict = minimalize(host, target, args.q, args.budget)
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
    res = is_minimal(host, target, args.q, args.budget)
    payload = {"verdict": res.verdict, "detail": res.detail}
    if res.removable_edge is not None:
        payload["edge"] = res.removable_edge
    _emit(args, "check-minimal", payload)
    return _verdict_exit(res.verdict, MINIMAL)


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
    recipe = build_cycle_abundant(args.q, args.t, args.k, _provider(args),
                                  d=args.d, budget=args.budget)
    return _emit_built(args, "construct cycle", recipe, recipe.graph)


def cmd_construct_ktk2(args) -> int:
    recipe = build_ktk2_abundant(args.t, args.k, _provider(args),
                                 d=args.d, budget=args.budget)
    return _emit_built(args, "construct ktk2", recipe, recipe.graph)


def cmd_construct_3conn(args) -> int:
    seed = ThreeConnectedSeed(_load_graph(args.graph), args.vertex, args.edge,
                              _load_graph(args.target), args.q)
    recipe = build_3connected_abundant(seed, args.k, _provider(args),
                                       d=args.d, budget=args.budget)
    return _emit_built(args, "construct 3conn", recipe, recipe.graph)


def cmd_construct_clique(args) -> int:
    spec = build_clique_gtilde(args.t, args.q, _provider(args), d=args.d,
                               budget=args.budget)
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


def cmd_construct_coloring(args, coloring, extra_vertices: int) -> int:
    """`construct phi` and `construct psi`: psi colors the complete graph
    on phi's vertices plus one."""
    col = coloring(args.q, args.t)
    n = (args.t - 1) ** args.q + extra_vertices
    _emit(args, f"construct {args.kind}",
          {"vertices": n, "coloring": col.to_json()})
    return EXIT_OK


def cmd_construct_indicator(args) -> int:
    spec = build_indicator(_load_graph(args.target),
                           _load_graph(args.subgraph), args.q, args.polarity,
                           _provider(args), args.d, args.budget)
    return _emit_built(args, "construct indicator", spec)


def cmd_construct_gni(args) -> int:
    partition = decode_json(tuple[tuple[int, ...], ...],
                            _load_json(args.partition), "--partition")
    spec = build_gni(_load_graph(args.target), _load_graph(args.subgraph),
                     _load_graph(args.classes_graph), partition, args.q,
                     _provider(args), args.d, args.budget)
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
                                _provider(args), args.d, budget=args.budget)
    return _emit_built(args, "construct pattern-gadget", spec)


# ---------------------------------------------------------------------------
# verify commands

def cmd_verify_sender(args) -> int:
    if args.spec:
        if args.graph or args.target:
            raise GraphError("verify sender takes --spec, or --graph and "
                             "--target, not both")
        spec = SenderSpec.from_json(_load_json(args.spec))
    elif not (args.graph and args.target):
        raise GraphError("verify sender needs --spec, or --graph and --target")
    else:
        spec = SenderSpec(_load_graph(args.graph), args.e, args.f,
                          args.polarity, _load_graph(args.target), args.q,
                          args.d)
    report = verify_sender(spec, args.budget)
    _emit(args, "verify sender", report.to_json())
    return _report_exit(report)


def cmd_verify_spec(args, spec_cls, verify_fn) -> int:
    """`verify indicator`, `gni` and `pattern-gadget`: check a spec file."""
    report = verify_fn(spec_cls.from_json(_load_json(args.spec)), args.budget)
    _emit(args, f"verify {args.kind}", report.to_json())
    return _report_exit(report)


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
                         args.polarity, args.max_order, budget=args.budget)
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
        res = arrows(ArrowInstance.create(g, star_graph(args.m), 2,
                                          args.budget))
        payload["engine"] = res.verdict
        code = _verdict_exit(res.verdict,
                           ARROWS if predicted else DOES_NOT_ARROW)
    if args.count_check:
        payload["degree_one_count_ok"] = star_degree_one_count_check(
            g, args.m, args.q, args.budget)
        if not payload["degree_one_count_ok"]:
            code = max(code, EXIT_REFUTED)
    _emit(args, "star-check", payload)
    return code


# ---------------------------------------------------------------------------
# parser

def _option(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring one option, for every subcommand that
    takes the option in this form."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    report = _option("--report", help="write the JSON report here too")
    # only on the commands that search
    budget = [_option("--max-nodes", type=int, default=None),
              _option("--max-seconds", type=float, default=None)]
    out = _option("--out", help="artifact output path")
    max_order = _option("--max-order", type=int, default=6,
                        help="corpus order cap for sender search")
    # sender search (--senders search) runs under the budget flags
    build = [*budget,
             _option("--senders", default="stub",
                     help="stub | search (the bundled corpus is too small "
                     "for a gadget's d) | path to a sender JSON list"),
             max_order,
             _option("--d", type=int, default=None,
                     help="interface distance parameter"),
             _option("--manifest-out", help="write the build recipe here")]
    target = _option("--target", required=True)
    q = _option("--q", type=int, default=2)
    # the engine commands decide one arrowing instance under the budget flags
    engine = [*budget, _option("--host", required=True), target, q]
    graph = _option("--graph", required=True)
    optional_graph = _option("--graph")
    optional_target = _option("--target")
    t = _option("--t", type=int, required=True)
    k = _option("--k", type=int, required=True)
    subgraph = _option("--subgraph", required=True)
    polarity = _option("--polarity", choices=["positive", "negative"],
                       default="positive")
    sender_d = _option("--d", type=int, default=1)

    p = argparse.ArgumentParser(prog="ramsey-gadgets")
    p.add_argument("--version", action="version", version=__version__)
    top = p.add_subparsers(dest="command", required=True)

    def add(subparsers, name, func, *parents):
        sp = subparsers.add_parser(name, parents=[report, *parents])
        sp.set_defaults(func=func)

    add(top, "arrow", cmd_arrow, *engine, _option("--dimacs-out"))
    add(top, "color", cmd_color, *engine)
    add(top, "extend", cmd_extend, *engine,
        _option("--partial", required=True,
                help="inline JSON [[edge,color],...] or a file path"))
    add(top, "minimalize", cmd_minimalize, *engine, out)
    add(top, "check-minimal", cmd_check_minimal, *engine)
    add(top, "stats", cmd_stats, graph, optional_target, q)

    construct = top.add_parser("construct").add_subparsers(dest="kind",
                                                           required=True)
    add(construct, "cycle", cmd_construct_cycle, out, *build, q, t, k)
    add(construct, "ktk2", cmd_construct_ktk2, out, *build, t, k)
    # the defaults are the built-in seed: C5, vertex 0, edge (2,3), P3, q 2
    add(construct, "3conn", cmd_construct_3conn, out, *build, k,
        _option("--graph", default="C5"),
        _option("--vertex", type=int, default=0),
        _option("--edge", type=int, default=2),
        _option("--target", default="P3"), q)
    add(construct, "clique", cmd_construct_clique, out, *build, t, q)
    add(construct, "p4", cmd_construct_p4, out, k)
    q_required = _option("--q", type=int, required=True)
    add(construct, "phi", partial(cmd_construct_coloring,
                                  coloring=phi_coloring, extra_vertices=0),
        q_required, t)
    add(construct, "psi", partial(cmd_construct_coloring,
                                  coloring=psi_coloring, extra_vertices=1),
        q_required, t)
    add(construct, "indicator", cmd_construct_indicator, out, *build, target,
        subgraph, q, polarity)
    add(construct, "gni", cmd_construct_gni, out, *build, target, subgraph,
        _option("--classes-graph", required=True),
        _option("--partition", required=True,
                help="inline JSON [[edge ids]...] or a file path"), q)
    add(construct, "pattern-gadget", cmd_construct_pattern_gadget, out,
        *build, target, _option("--base", required=True),
        _option("--patterns", required=True,
                help="JSON list of total colorings [[edge,color],...]"), q,
        _option("--up-to-iso", action="store_true"))

    verify = top.add_parser("verify").add_subparsers(dest="kind",
                                                     required=True)
    add(verify, "sender", cmd_verify_sender, *budget,
        _option("--spec", help="JSON spec (inline or file)"), optional_graph,
        _option("--e", type=int, default=0),
        _option("--f", type=int, default=1), polarity, optional_target, q,
        sender_d)
    spec = _option("--spec", required=True)
    add(verify, "indicator", partial(cmd_verify_spec, spec_cls=IndicatorSpec,
                                     verify_fn=verify_indicator),
        *budget, spec)
    add(verify, "gni", partial(cmd_verify_spec, spec_cls=GNISpec,
                               verify_fn=verify_gni),
        *budget, spec)
    add(verify, "pattern-gadget", partial(cmd_verify_spec,
                                          spec_cls=PatternGadgetSpec,
                                          verify_fn=verify_pattern_gadget),
        *budget, spec)
    add(verify, "robust", cmd_verify_robust, graph,
        _option("--inner", required=True,
                help="comma-separated vertex ids of the inner subgraph"),
        target, _option("--s-max", type=int, default=3))

    add(top, "search-sender", cmd_search_sender, *budget, out, target, q,
        sender_d, polarity, max_order)
    add(top, "star-check", cmd_star_check, *budget, graph,
        _option("--m", type=int, required=True), q,
        _option("--predicate-only", action="store_true"),
        _option("--count-check", action="store_true"))
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        args.budget = Budget(getattr(args, "max_nodes", None),
                             getattr(args, "max_seconds", None)).start()
        return args.func(args)
    except BudgetExhausted as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # a crash must not read as a refutation (exit 1)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
