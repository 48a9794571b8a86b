"""Layered benchmark of packedge: recognize -> decompose -> color -> verify.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus|ladder|oracle --seed N \
        --seconds S --trace 0|1

One run builds the workload's inputs from the seed, then times whole passes
over them, one op after another in this single-threaded process, until S
seconds have gone by.  Every output is checked by `checker.py`, which shares
no code with `packedge.verify`.  `--trace 0` reports the end-to-end metrics;
set-up is timed here and in two fresh interpreters, and `setup_s` is the
median.  `--trace 1` alternates untraced and traced passes and reports the
per-layer metrics, with counts and self times per pass; the spans go to
`perfbench/out/`.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

OP_LIMIT_S = 20.0        # an op still running after this counts as failed
SETUP_RUNS = 3           # set-up timings per untraced run, each one cold

# family -> the layer whose share of op time each rung reports
RUNG_STAGE = {"ring": "structure.find_diamonds", "sub": "matching",
              "path": "structure.bridge_decompose",
              "bushy": "structure.bridge_decompose"}


class OpTimeout(BaseException):
    """Raised into a running op when it exceeds OP_LIMIT_S.

    A BaseException, so that no `except Exception` in the program under
    test can swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_packedge() -> None:
    """Import packedge from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import packedge
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import packedge from {SRC}: {exc}")
    here = os.path.realpath(os.path.dirname(packedge.__file__))
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"perfbench: packedge was imported from {here}, not {SRC}")


@dataclass
class Pass:
    traced: bool
    latency: List[float] = field(default_factory=list)   # per input, seconds
    ok: List[bool] = field(default_factory=list)
    three_a: int = 0
    nodes: int = 0


@dataclass
class Failures:
    counts: Dict[str, int] = field(default_factory=dict)
    first: Dict[str, str] = field(default_factory=dict)
    wrong_output: bool = False

    def add(self, kind: str, detail: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.first.setdefault(kind, detail)
        if kind in ("rejected", "wrong-verdict"):
            self.wrong_output = True

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def timed_call(fn, arg) -> Tuple[object, float, str, str]:
    """(output, seconds, failure kind or '', detail) for one op under the
    per-op time limit."""
    started = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            out = fn(arg)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return None, perf_counter() - started, "timeout", f"> {OP_LIMIT_S} s"
    except Exception as exc:   # any program error is a failed op
        return (None, perf_counter() - started, "exception",
                f"{type(exc).__name__}: {exc}")
    return out, perf_counter() - started, "", ""


def run_pass(wl, inputs, failures: Failures, tracer,
             pass_index: int) -> Pass:
    p = Pass(traced=tracer is not None)
    for idx, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = pass_index * len(inputs) + idx
            sid = tracer.open("bench.op")
        out, seconds, kind, detail = timed_call(wl.op, inp)
        if tracer is not None:
            tracer.close(sid)
            tracer.op = -1
        p.latency.append(seconds)
        if not kind:
            checked = wl.check(inp, out)
            p.three_a += checked.three_a
            p.nodes += checked.nodes
            kind, detail = checked.failure, checked.detail
        else:
            detail = f"{inp.name}: {detail}"
        if kind:
            failures.add(kind, detail)
        p.ok.append(not kind)
    return p


def setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- metrics -----------------------------------------------------------------

def nearest_rank(values: List[float], pct: int) -> float:
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def edges_per_s(passes: List[Pass], inputs) -> float:
    edges = sum(inp.m for p in passes for inp, ok in zip(inputs, p.ok) if ok)
    return edges / sum(sum(p.latency) for p in passes)


def us_per_edge(passes: List[Pass], inputs, keep) -> List[float]:
    return [p.latency[i] / inp.m * 1e6 for p in passes
            for i, inp in enumerate(inputs) if keep(inp)]


def end_to_end(passes: List[Pass], inputs, wl, setups: List[float]
               ) -> Dict[str, Tuple[float, str]]:
    latency = [t for p in passes for t in p.latency]
    out = {
        "setup_s": (statistics.median(setups), "s"),
        "edges_per_s": (edges_per_s(passes, inputs), "1/s"),
        "op_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "op_tail_ms": (nearest_rank(latency, wl.tail_percentile) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    for family in ("ring", "sub", "tree"):
        top = us_per_edge(passes, inputs,
                          lambda inp: inp.family == family and inp.top)
        out[f"{family}_top_us_per_edge"] = (statistics.median(top), "us/edge")
    return out


def ladder_rungs() -> List[Tuple[str, str]]:
    """(rung, family) for every ladder rung, in ladder order."""
    import workloads as w
    return ([(f"ring-{k}", "ring") for k in w.RING_KS]
            + [(f"sub-{n}", "sub") for n in w.SUB_HS]
            + [(f"path-{d}", "path") for d in w.PATH_DS]
            + [(f"bushy-{i}", "bushy") for i in w.BUSHY_IS])


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, as BENCHMARK.json lists them."""
    names = [("families.self_s", "s"), ("formats.self_s", "s"),
             ("recognize.self_s", "s"), ("recognize.calls", "count")]
    for fn in ("find_diamonds", "oum_decompose"):
        names += [(f"structure.{fn}.self_s", "s"),
                  (f"structure.{fn}.calls", "count")]
    names += [("structure.bridge_decompose.self_s", "s"),
              ("structure.tilde.self_s", "s"),
              ("matching.self_s", "s"), ("matching.calls", "count"),
              ("matching.anchored_calls", "count"),
              ("coloring.self_s", "s"),
              ("coloring.candidates_tried", "count"),
              ("coloring.candidates_valid", "count"),
              ("coloring.candidate_yield", "ratio"),
              ("coloring.three_a", "count"),
              ("verify.self_s", "s"), ("verify.calls", "count"),
              ("graph.edge_bfs.self_s", "s"), ("graph.edge_bfs.calls", "count"),
              ("oracle.self_s", "s"), ("oracle.nodes", "count"),
              ("oracle.nodes_per_s", "1/s"),
              ("trace.overhead_share", "ratio"), ("fail_share", "ratio")]
    for rung, family in ladder_rungs():
        stage = RUNG_STAGE[family]
        names += [(f"rung.{rung}.us_per_edge", "us/edge"),
                  (f"rung.{rung}.{stage}.self_share", "ratio")]
        if family == "sub":
            names.append((f"rung.{rung}.matching.self_s", "s"))
    return names


def layer_of(span: str) -> str:
    """The per-layer metric prefix a span's self time counts toward."""
    module, fn = span.split(".", 1)
    if module == "graph":
        return "graph.edge_bfs"
    if module != "structure":
        return module
    if fn in ("build_tilde", "component_boundary", "classify_component"):
        return "structure.tilde"
    return span


def per_layer(passes: List[Pass], inputs, tracer, failures: Failures,
              attempted: int) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Dict]]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n_traced = len(traced)
    n_in = len(inputs)
    totals = tracer.totals(lambda op: -1 if op < 0 else op % n_in)

    # families is timed over the one set-up, every other layer per pass
    layer_s: Dict[str, float] = {}
    layer_calls: Dict[str, float] = {}
    span_calls: Dict[str, float] = {}
    rung_s: Dict[Tuple[str, str], float] = {}
    for (idx, span), (seconds, calls) in totals.items():
        if span.startswith("bench."):
            continue
        key = layer_of(span)
        in_setup = idx < 0
        if in_setup == (key == "families"):
            scale = 1 if in_setup else n_traced
            layer_s[key] = layer_s.get(key, 0.0) + seconds / scale
            layer_calls[key] = layer_calls.get(key, 0) + calls / scale
        if not in_setup:
            span_calls[span] = span_calls.get(span, 0) + calls / n_traced
            rung = (inputs[idx].rung, key)
            rung_s[rung] = rung_s.get(rung, 0.0) + seconds

    def per_pass(name: str) -> float:
        return tracer.counts.get(name, 0) / n_traced

    oracle_s = layer_s.get("oracle", 0.0)
    nodes = sum(p.nodes for p in traced) / n_traced
    tried = per_pass("coloring.candidates_tried")
    metrics: Dict[str, float] = {
        "recognize.calls": layer_calls.get("recognize", 0),
        "structure.find_diamonds.calls":
            layer_calls.get("structure.find_diamonds", 0),
        "structure.oum_decompose.calls":
            layer_calls.get("structure.oum_decompose", 0),
        "matching.calls": span_calls.get("matching.two_factor_containing", 0),
        "matching.anchored_calls": per_pass("matching.anchored_calls"),
        "coloring.candidates_tried": tried,
        "coloring.candidates_valid": per_pass("coloring.candidates_valid"),
        "coloring.candidate_yield":
            per_pass("coloring.candidates_valid") / tried if tried else 0.0,
        "coloring.three_a": sum(p.three_a for p in traced) / n_traced,
        "verify.calls": span_calls.get("verify.verify", 0),
        "graph.edge_bfs.calls": layer_calls.get("graph.edge_bfs", 0),
        "oracle.nodes": nodes,
        "oracle.nodes_per_s": nodes / oracle_s if oracle_s else 0.0,
        "trace.overhead_share":
            1 - edges_per_s(traced, inputs) / edges_per_s(plain, inputs),
        "fail_share": failures.total / attempted,
    }
    for key in ("families", "formats", "recognize", "structure.find_diamonds",
                "structure.oum_decompose", "structure.bridge_decompose",
                "structure.tilde", "matching", "coloring", "verify",
                "graph.edge_bfs", "oracle"):
        metrics[f"{key}.self_s"] = layer_s.get(key, 0.0)

    breakdown: Dict[str, Dict] = {}
    rung_names = {inp.rung for inp in inputs}
    for rung, family in ladder_rungs():
        stage = RUNG_STAGE[family]
        upe = ops_s = 0.0
        share = matching_s = 0.0
        if rung in rung_names:      # ladder rung names occur only there
            members = [i for i, inp in enumerate(inputs) if inp.rung == rung]
            upe = statistics.median(us_per_edge(
                plain, inputs, lambda inp: inp.rung == rung))
            ops_s = sum(p.latency[i] for p in traced for i in members)
            share = rung_s.get((rung, stage), 0.0) / ops_s
            matching_s = (rung_s.get((rung, "matching"), 0.0)
                          / (len(members) * n_traced))
            breakdown[rung] = {key[1]: s / ops_s
                               for key, s in rung_s.items() if key[0] == rung}
            breakdown[rung]["op_ms"] = ops_s / (len(members) * n_traced) * 1e3
        metrics[f"rung.{rung}.us_per_edge"] = upe
        metrics[f"rung.{rung}.{stage}.self_share"] = share
        if family == "sub":
            metrics[f"rung.{rung}.matching.self_s"] = matching_s
    units = dict(per_layer_names())
    return {name: (metrics[name], units[name]) for name in units}, breakdown


# -- main ----------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "ladder", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the set-up time, exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # one CPU for the whole run: no migrations between cores mid-op; the
    # highest-numbered one usually serves the fewest interrupts
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_packedge()
    import checker
    import spans
    import workloads

    checker.self_test()
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        setup_span = tracer.open("bench.setup")
    started = perf_counter()
    inputs = workloads.pass_order(wl.build(args.seed))
    setups = [perf_counter() - started]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    if tracer is not None:
        tracer.close(setup_span)
    else:
        setups += [setup_in_fresh_interpreter(args.workload, args.seed)
                   for _ in range(SETUP_RUNS - 1)]

    signal.signal(signal.SIGALRM, _on_alarm)
    failures = Failures()
    passes: List[Pass] = []
    measure_start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if tracer is not None:
            (tracer.enable if traced else tracer.disable)()
        passes.append(run_pass(wl, inputs, failures,
                               tracer if traced else None, len(passes)))
        done = perf_counter() - measure_start >= args.seconds
        if done and (tracer is None or len(passes) >= 2):
            break
    if tracer is not None:
        tracer.disable()
    wall = perf_counter() - measure_start
    attempted = sum(len(p.latency) for p in passes)

    print(f"workload {args.workload} seed {args.seed}: {wl.describe}")
    print(f"inputs {len(inputs)} ops/pass, {sum(i.m for i in inputs)} "
          f"edges/pass; passes {len(passes)} "
          f"({sum(p.traced for p in passes)} traced) in {wall:.3f} s; "
          f"op_tail_ms = p{wl.tail_percentile}; per-op limit {OP_LIMIT_S} s")
    print("pass seconds: " + " ".join(
        f"{sum(p.latency):.3f}{'t' if p.traced else ''}" for p in passes))
    print(f"attempted {attempted} failed {failures.total} fail_share "
          f"{failures.total / attempted}")
    for kind, detail in sorted(failures.first.items()):
        print(f"failure {kind} x{failures.counts[kind]}, first: {detail}")

    if tracer is None:
        metrics = end_to_end(passes, inputs, wl, setups)
        print("setup runs (s): " + " ".join(f"{s:.3f}" for s in setups))
    else:
        metrics, breakdown = per_layer(passes, inputs, tracer, failures,
                                       attempted)
        for rung, shares in breakdown.items():
            op_ms = shares.pop("op_ms")
            top = sorted(((s, k) for k, s in shares.items()), reverse=True)
            print(f"rung {rung}: traced op {op_ms:.2f} ms; "
                  + ", ".join(f"{k} {s:.0%}" for s, k in top[:5]))
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"spans-{args.workload}-{args.seed}.tsv.gz")
        tracer.write(path)
        print(f"spans {len(tracer.name)} written to "
              f"{os.path.relpath(path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": not failures.wrong_output,
        "attempted": attempted,
        "failed": failures.total,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
