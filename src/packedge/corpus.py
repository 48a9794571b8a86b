"""The standard test corpus and batch color+verify runs.

The corpus is a fixed, seeded set of connected claw-free cubic graphs:
rings of 2..10 diamonds, triangle substitutions of every 2-edge-connected
cubic multigraph on up to 8 vertices (bare and with seeded diamond-string
plans of 1..3 strings of length 1..3), and seeded bridged compositions.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .coloring import COLOR_3A, ColoringFailed, color_graph
from .families import (SubstitutionPlan, enumerate_cubic_multigraphs,
                       gen_random_clawfree_cubic, gen_ring, gen_substituted)
from .graph import MultiGraph

RING_SIZES = range(2, 11)
H_ORDERS = (2, 4, 6, 8)
STRING_REPS = 5
BRIDGED_SEEDS = range(20_000, 20_110)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    graph: MultiGraph
    family: str
    plan: Optional[SubstitutionPlan] = None


def iter_corpus(bridged_seeds: range = BRIDGED_SEEDS) -> Iterator[CorpusEntry]:
    for k in RING_SIZES:
        yield CorpusEntry(f"ring-{k}", gen_ring(k), "ring")
    index = 0
    for n in H_ORDERS:
        for h in enumerate_cubic_multigraphs(n):
            plan = SubstitutionPlan(h)
            yield CorpusEntry(f"sub-{n}v-{index}-plain",
                              gen_substituted(plan), "substituted", plan)
            rng = random.Random(1000 + index)
            for n_strings in (1, 2, 3):
                for rep in range(STRING_REPS):
                    eids = sorted(rng.sample(list(h.edge_ids),
                                             min(n_strings, h.m)))
                    plan = SubstitutionPlan(
                        h, {e: rng.randint(1, 3) for e in eids})
                    yield CorpusEntry(
                        f"sub-{n}v-{index}-s{n_strings}r{rep}",
                        gen_substituted(plan), "substituted", plan)
            index += 1
    for seed in bridged_seeds:
        yield CorpusEntry(f"bridged-{seed}",
                          gen_random_clawfree_cubic(seed, bridged=True),
                          "bridged")


def build_corpus(bridged_seeds: range = BRIDGED_SEEDS) -> List[CorpusEntry]:
    return list(iter_corpus(bridged_seeds))


@dataclass
class CorpusReport:
    rows: List[Tuple[str, int, int, int, bool]] = field(default_factory=list)
    rejected: int = 0        # colorings rejected by color_graph's verify
    failures: int = 0
    seconds: float = 0.0

    @property
    def total(self) -> int:
        return len(self.rows)

    def add(self, name: str, n: int, m: int, three_a: int, ok: bool) -> None:
        self.rows.append((name, n, m, three_a, ok))
        if not ok:
            self.failures += 1

    def by_family(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name, *_ in self.rows:
            fam = name.split("-")[0]
            out[fam] = out.get(fam, 0) + 1
        return out

    def summary_lines(self) -> List[str]:
        lines = [f"{'family':<12} {'graphs':>6}"]
        for fam, count in sorted(self.by_family().items()):
            lines.append(f"{fam:<12} {count:>6}")
        three_a_total = sum(row[3] for row in self.rows)
        lines.append(f"graphs colored: {self.total}")
        lines.append(f"3a edges used:  {three_a_total}")
        lines.append(f"colorings rejected: {self.rejected}"
                     + ("  <-- nonzero: a constructed coloring was rejected"
                        if self.rejected else ""))
        lines.append(f"failures: {self.failures}")
        lines.append(f"wall time: {self.seconds:.1f}s")
        return lines


def run_corpus(entries: Optional[List[CorpusEntry]] = None,
               verbose: bool = False) -> CorpusReport:
    """Color and verify every corpus graph; collect diagnostics."""
    if entries is None:
        entries = build_corpus()
    report = CorpusReport()
    started = time.perf_counter()
    for entry in entries:
        g = entry.graph
        try:
            col = color_graph(g)   # verified, or ColoringFailed
            ok = True
            three_a = sum(1 for c in col.values() if c == COLOR_3A)
        except Exception as exc:   # a pipeline error counts as a failure
            ok = False
            three_a = 0
            if isinstance(exc, ColoringFailed):
                report.rejected += 1
            if verbose:
                raise
        report.add(entry.name, g.n, g.m, three_a, ok)
    report.seconds = time.perf_counter() - started
    return report
