"""Span tracing of calls into packedge's layers, from outside the package.

`Tracer.install` wraps every public function of the layer modules and puts
the wrapper into every `packedge` module attribute that holds the same
function object, because modules import functions by name (for example
`packedge.coloring.oum_decompose`).  Generator functions are left alone: the
work they do happens in their consumer.  Spans live in flat arrays in memory
and are written out by `write`; a span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

LAYER_MODULES = ("families", "formats", "recognize", "structure", "matching",
                 "coloring", "verify", "oracle")
# of packedge.graph only the edge-distance BFS is a layer of its own
GRAPH_FUNCTIONS = ("edge_distances_from",)

NO_OP = -1           # op id of spans outside any timed op (set-up)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack: List[int] = [-1]
        self.op = NO_OP
        self.counts: Counter = Counter()
        self._patches: List[Tuple[object, str, object, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        sid = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1])
        self.op_of.append(self.op)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        if self.stack[-1] == sid:
            self.stack.pop()
        else:   # an op aborted by its time limit left inner spans open
            del self.stack[self.stack.index(sid):]

    def parent_name(self, sid: int) -> str:
        p = self.parent[sid]
        return self.names[self.name[p]] if p >= 0 else ""

    def _wrapper(self, fn, span_name: str, hook):
        def traced(*args, **kwargs):
            sid = self.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if hook is not None and self.op != NO_OP:
                hook(self, sid, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public functions wherever packedge holds them."""
        targets = {}
        for short in LAYER_MODULES + ("graph",):
            mod = importlib.import_module(f"packedge.{short}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(obj)
                        or (short == "graph" and attr not in GRAPH_FUNCTIONS)):
                    continue
                name = f"{short}.{attr}"
                targets[id(obj)] = self._wrapper(obj, name, HOOKS.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "packedge" and not modname.startswith("packedge."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((mod, attr, obj, wrapper))
        self.enable()

    def enable(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def disable(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> List[float]:
        n = len(self.name)
        dur = [max(0.0, self.end[i] - self.start[i]) for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        return [dur[i] - covered[i] for i in range(n)]

    def totals(self, op_group) -> Dict[Tuple[object, str], List[float]]:
        """(group, span name) -> [self seconds, calls], where `op_group`
        maps an op id (NO_OP for set-up) to its group."""
        out: Dict[Tuple[object, str], List[float]] = defaultdict(
            lambda: [0.0, 0])
        for i, st in enumerate(self.self_times()):
            acc = out[(op_group(self.op_of[i]), self.names[self.name[i]])]
            acc[0] += st
            acc[1] += 1
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped TSV: id, name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}"
                         f"\t{self.end[i]:.9f}\t{self.parent[i]}"
                         f"\t{self.op_of[i]}\n")


def _count_anchored(tracer: Tracer, sid, args, kwargs, result) -> None:
    required = args[1] if len(args) > 1 else kwargs.get("required", ())
    if required:
        tracer.counts["matching.anchored_calls"] += 1


def _count_candidate(tracer: Tracer, sid, args, kwargs, result) -> None:
    if tracer.parent_name(sid).startswith("coloring."):
        tracer.counts["coloring.candidates_tried"] += 1
        if result:
            tracer.counts["coloring.candidates_valid"] += 1


HOOKS = {
    "matching.two_factor_containing": _count_anchored,
    "verify.is_valid_coloring": _count_candidate,
}
