"""Benchmark runner for the ramsey_gadgets library.

    python3 perfbench/run.py --workload ramsey-search --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from `src/`.
The library runs in this one process, `workers=1` throughout.  After
one set-up (import, corpus load and seeded input generation), whole
passes over the workload's operations run until the next one would end
after `--seconds`; there is always at least one.  Every output is
checked against ground truth; a wrong output, or a pass whose verdicts
or exact counters differ from the first pass or from an earlier run of
the same seed, exits 1.

--trace 0 reports the end-to-end metrics of untraced passes.  A timer
signal times a fixed piece of pure-Python reference work every
Metronome.PERIOD_S seconds, and each timing is scaled to the machine
speed at which that work takes REFERENCE_S (see README.md).  Between
operations, about every SETUP_EVERY_S seconds, the set-up is timed again
in a fresh interpreter; the median of these is `setup_s`.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus `trace.overhead_frac`.
Per-operation records (and spans, when traced) go to perfbench/out/.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import WrongResult
from spans import (COUNTERS, EXACT_METRICS, OP_LAYER, PACKAGE, Tracer, install,
                   layer_metrics)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SPEC = HERE.parent / "BENCHMARK.json"
SETUP_EVERY_S = 2.0
SETUP_MIN_SAMPLES = 5
# Timings are scaled to the machine speed at which reference_work takes
# this long; a 2-vCPU Xeon virtual machine takes 0.7-1.3 ms as its speed
# drifts.
REFERENCE_S = 0.001
# An operation with fewer reference timings inside it is scaled by the
# mean of its whole pass.
MIN_REFS_INSIDE = 10


def reference_work() -> int:
    """A fixed piece of pure-Python work that does not touch the library;
    its time measures how fast the machine runs Python at that moment."""
    s, d, items = 0, {}, []
    for i in range(3000):
        d[i & 255] = d.get(i & 255, 0) + i
        items.append((i, s))
        s += i * i % 7
        if len(items) > 100:
            items = []
    return s


def time_reference(times: int) -> float:
    """Mean time of `times` runs of reference_work."""
    start = time.perf_counter()
    for _ in range(times):
        reference_work()
    return (time.perf_counter() - start) / times


class Metronome:
    """Times reference_work every PERIOD_S seconds from a timer signal,
    so also in the middle of a long library call.  `spent` is the time
    the signal handler took; callers subtract it from their timings."""
    PERIOD_S = 0.05

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        took = time_reference(1)
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


class Unrepeatable(Exception):
    """Two passes over the same inputs disagreed."""


def import_library():
    """Fresh import of the library from src/, never from elsewhere."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lib = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if SRC.resolve() not in Path(lib.__file__).resolve().parents:
        raise ImportError(f"{PACKAGE} came from {lib.__file__}, not {SRC}")
    return lib


def timed_setup(workload: str, seed: int) -> float:
    """One set-up, scaled by the reference work timed just before and
    just after it."""
    before = time_reference(10)
    start = time.perf_counter()
    WORKLOADS[workload](import_library(), seed)
    took = time.perf_counter() - start
    return took * REFERENCE_S / statistics.fmean((before, time_reference(10)))


class SetupSampler:
    """Times one set-up in a fresh interpreter each time it is called
    and SETUP_EVERY_S seconds have passed since the last one, so that
    the samples spread over the whole run."""

    def __init__(self, workload: str, seed: int):
        self.argv = [sys.executable, __file__, "--workload", workload,
                     "--seed", str(seed), "--seconds", "0", "--setup-only"]
        self.times: list[float] = []
        self.due = 0.0

    def sample(self) -> None:
        child = subprocess.run(self.argv, capture_output=True, text=True,
                               timeout=60, check=True)
        self.times.append(float(child.stdout))
        self.due = time.perf_counter() + SETUP_EVERY_S

    def __call__(self) -> None:
        if time.perf_counter() >= self.due:
            self.sample()


def run_pass(ops, deep: bool, tracer: Tracer | None = None,
             between=None, metronome: Metronome | None = None) -> list[tuple]:
    """One pass; returns (wall seconds, decided, facts, reference
    seconds) per operation.  Only the library call is timed, not its
    check.  `between` is called after each operation.  With a metronome,
    the reference time of an operation is the mean of the reference
    timings taken while it ran, or of its whole pass if fewer than
    MIN_REFS_INSIDE were; without one it is None."""
    records = []
    gc.collect()
    first_ref = len(metronome.samples) if metronome else 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            root = tracer.begin(op.name, OP_LAYER)
        if metronome is not None:
            refs, spent = len(metronome.samples), metronome.spent
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:       # a crash is a failed operation
            result, error = None, type(exc).__name__
        wall = time.perf_counter() - start
        ref = None
        if metronome is not None:
            wall -= metronome.spent - spent
            inside = metronome.samples[refs:]
            if len(inside) >= MIN_REFS_INSIDE:
                ref = statistics.fmean(inside)
        if tracer is not None:
            tracer.end(root)
        if error is None:
            decided, facts = op.check(result, deep)
        else:
            decided, facts = False, {"error": error}
        if tracer is not None:
            tracer.spans[root][COUNTERS] = facts
        records.append((wall, decided, facts, ref))
        if between is not None:
            between()
    if metronome is not None:
        whole = statistics.fmean(metronome.samples[first_ref:]
                                 or [time_reference(10)])
        records = [(w, d, f, whole if r is None else r)
                   for w, d, f, r in records]
    return records


def measure(ops, seconds: float, trace: bool, between=None,
            metronome: Metronome | None = None) -> list[tuple]:
    """Passes of (kind, records, tracer) until the next round would end
    more than half a round after `seconds`, so that the passes measure
    close to `seconds` in all.  A round is one untraced pass, plus one traced
    pass when tracing.  `between` and `metronome` serve the untraced
    passes."""
    kinds = ("untraced", "traced") if trace else ("untraced",)
    passes: list[tuple] = []
    reference = None
    start = time.perf_counter()
    while True:
        for kind in kinds:
            tracer = Tracer() if kind == "traced" else None
            undo = install(tracer) if tracer else None
            try:
                records = run_pass(ops, deep=not passes, tracer=tracer,
                                   between=None if tracer else between,
                                   metronome=None if tracer else metronome)
            finally:
                if undo:
                    undo()
            facts = [(r[1], r[2]) for r in records]
            if reference is None:
                reference = facts
            elif facts != reference:
                bad = next(i for i, (a, b) in enumerate(zip(facts, reference))
                           if a != b)
                raise Unrepeatable(f"{kind} pass {len(passes)}: {ops[bad].name}"
                                   f" gave {facts[bad]}, first pass "
                                   f"{reference[bad]}")
            passes.append((kind, records, tracer))
        elapsed = time.perf_counter() - start
        rounds = len(passes) // len(kinds)
        if elapsed + elapsed / rounds / 2 > seconds:
            return passes


def mean_pass_wall(passes, kind: str) -> float:
    """Measured wall time per pass of one kind."""
    walls = [sum(r[0] for r in records) for k, records, _ in passes
             if k == kind]
    return statistics.fmean(walls)


def pass_seconds(records) -> float:
    """A pass's time at reference speed: each decided operation's wall
    time scaled by REFERENCE_S over its reference time.  A failed
    operation counts its wall time unscaled: a budget-bound one costs
    its budget whatever the machine's speed."""
    return sum(wall * REFERENCE_S / ref if decided else wall
               for wall, decided, _, ref in records)


def end_to_end(passes, setup_s: float) -> dict[str, float]:
    records = passes[0][1]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"pass_s": statistics.fmean(pass_seconds(p[1]) for p in passes),
            "decided_frac": sum(r[1] for r in records) / len(records),
            "setup_s": setup_s,
            "peak_rss_mb": peak_kb / 1024}


def per_layer(passes) -> dict[str, float]:
    traced = [(records, tracer) for kind, records, tracer in passes
              if kind == "traced"]
    per_pass = [layer_metrics(tracer.spans) for _, tracer in traced]
    for metrics in per_pass[1:]:
        for name in EXACT_METRICS:
            if metrics[name] != per_pass[0][name]:
                raise Unrepeatable(f"{name}: {metrics[name]} != "
                                   f"{per_pass[0][name]}")
    out = {name: (value if name in EXACT_METRICS
                  else statistics.fmean(m[name] for m in per_pass))
           for name, value in per_pass[0].items()}
    out["trace.overhead_frac"] = (mean_pass_wall(passes, "traced")
                                  / mean_pass_wall(passes, "untraced") - 1)
    return out


def source_digest() -> str:
    """Digest of the library's files and the benchmark's code."""
    h = hashlib.sha256()
    paths = [p for p in (SRC / PACKAGE).rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(paths + list(HERE.glob("*.py"))):
        h.update(path.relative_to(SRC.parent).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_earlier_runs(path: Path, ops, passes) -> None:
    """Same-seed repeatability across runs: the verdicts and exact
    counters of this run must equal those recorded at `path` by an
    earlier run of the same seed, library and benchmark, traced or not.
    Then this run's are recorded.  This is what checks a run of one
    pass."""
    facts = json.loads(json.dumps([[op.name, r[1], r[2]] for op, r
                                   in zip(ops, passes[0][1])]))
    digest = source_digest()
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier["source"] == digest and earlier["facts"] != facts:
            bad = next(a for a, b in zip(facts, earlier["facts"]) if a != b)
            raise Unrepeatable(f"{bad[0]} gave {bad[1:]}, an earlier run "
                               f"of this seed gave something else")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"source": digest, "facts": facts}))


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the `end_to_end` or `per_layer` metrics."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def write_records(path: Path, ops, passes) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for p, (kind, records, _) in enumerate(passes):
            for i, (wall, decided, facts, ref) in enumerate(records):
                fh.write(json.dumps({"pass": p, "kind": kind, "op": i,
                                     "name": ops[i].name, "wall_s": wall,
                                     "reference_s": ref, "decided": decided,
                                     "facts": facts})
                         + "\n")


def write_spans(path: Path, passes) -> None:
    with open(path, "w") as fh:
        for p, (kind, _, tracer) in enumerate(passes):
            if tracer is not None:
                tracer.write_jsonl(fh, **{"pass": p})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the time of one set-up and exit")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(timed_setup(args.workload, args.seed))
        return 0
    try:
        ops = WORKLOADS[args.workload](import_library(), args.seed)
    except ImportError as exc:
        print(f"perfbench: cannot import {PACKAGE} from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    sampler = None if args.trace else SetupSampler(args.workload, args.seed)
    try:
        if args.trace:
            passes = measure(ops, args.seconds, True)
        else:
            with Metronome() as metronome:
                passes = measure(ops, args.seconds, False, sampler, metronome)
        check_earlier_runs(OUT / f"{args.workload}-seed{args.seed}-facts.json",
                           ops, passes)
        if args.trace:
            values, kind = per_layer(passes), "per_layer"
        else:
            while len(sampler.times) < SETUP_MIN_SAMPLES:
                sampler.sample()
            values, kind = (end_to_end(passes, statistics.median(sampler.times)),
                            "end_to_end")
    except (WrongResult, Unrepeatable) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}))
        return 1

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_records(OUT / f"{stem}-ops.jsonl", ops, passes)
    if args.trace:
        write_spans(OUT / f"{stem}-spans.jsonl", passes)
    reported = [records for kind, records, _ in passes
                if kind == ("traced" if args.trace else "untraced")]
    attempted = sum(len(records) for records in reported)
    failed = sum(not r[1] for records in reported for r in records)
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metric_units(kind).items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
