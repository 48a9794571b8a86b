"""Exhaustive feasibility solver for packing edge-colorings.

Ground truth on small graphs: backtracking over edge-to-class assignments,
with conflict sets from one bounded BFS per edge, a most-constrained-first
dynamic edge order (Brélaz's DSATUR rule: the uncolored edge with the fewest
open classes, ties by edge id), and complete symmetry breaking among classes
that share the same packing value.  Infeasible is only reported after the
search space is exhausted; running out of the node budget is a distinct
outcome so callers can never mistake a timeout for a proof.  The search is a
loop over an explicit stack; graphs above `EDGE_BOUND` edges are refused
with `TooLarge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .graph import EdgeId, MultiGraph, TooLarge
from .verify import DEFAULT_SPEC, PackingSpec, verify

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget-exceeded"

DEFAULT_BUDGET = 10 ** 8
# The search is exponential in the worst case, so an exhaustive answer is
# only promised for small graphs; this bound says where "small" ends.
EDGE_BOUND = 512


@dataclass(frozen=True)
class OracleResult:
    status: str                      # FEASIBLE | INFEASIBLE | BUDGET_EXCEEDED
    coloring: Optional[Dict[EdgeId, str]]
    nodes: int

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE

    @property
    def infeasible(self) -> bool:
        return self.status == INFEASIBLE


def _conflict_sets(g: MultiGraph, spec: PackingSpec
                   ) -> List[List[Tuple[EdgeId, ...]]]:
    """conflicts[ci][e] = edges that cannot share class ci with e."""
    at = {v: [f for f, _ in g.incident(v)] for v in g.vertices}
    adj = [[f for f in at[u] + at[v] if f != e]
           for e, (u, v) in enumerate(g.edge_list())]
    values = sorted(set(spec.s))
    within: Dict[int, List[Tuple[EdgeId, ...]]] = {s: [] for s in values}
    for e in g.edge_ids:
        seen = {e}
        reach: List[EdgeId] = []   # BFS order: nearer edges come first
        frontier = [e]
        for d in range(1, values[-1] + 1):
            nxt = []
            for cur in frontier:
                for f in adj[cur]:
                    if f not in seen:
                        seen.add(f)
                        nxt.append(f)
            reach += nxt
            frontier = nxt
            if d in within:
                within[d].append(tuple(reach))
    return [within[s] for s in spec.s]


def oracle_color(g: MultiGraph, spec: PackingSpec = DEFAULT_SPEC,
                 budget: int = DEFAULT_BUDGET,
                 symmetry_breaking: bool = True) -> OracleResult:
    """Search for a packing edge-coloring of g, exhaustively.

    `nodes` counts the classes tried, and the search stops once it passes
    `budget`.  `symmetry_breaking` exists so tests can confirm that pruning
    equal-value class permutations never changes the verdict.
    """
    m = g.m
    if m > EDGE_BOUND:
        raise TooLarge(f"oracle bound is {EDGE_BOUND} edges, got {m}")
    if m == 0:
        return OracleResult(FEASIBLE, {}, 0)
    k = spec.k
    conflicts = _conflict_sets(g, spec)

    # within a run of equal spec values, class ci only opens after ci-1
    group_prev = [-1] * k
    if symmetry_breaking:
        for ci in range(1, k):
            if spec.s[ci] == spec.s[ci - 1]:
                group_prev[ci] = ci - 1

    color = [-1] * m
    used = [0] * k
    # blocked[ci][f] = colored edges of class ci that conflict with f
    blocked = [[0] * m for _ in range(k)]
    # rank[f] = open(f)·m + f, plus `colored` once f has a class, so
    # min(rank) % m is the uncolored edge with the fewest open classes
    colored = (k + 1) * m
    rank = [k * m + f for f in range(m)]
    path: List[EdgeId] = []          # the colored edges, in search order
    nodes = 0

    e = min(rank) % m
    ci = 0
    while True:
        while ci < k:
            gp = group_prev[ci]
            if gp >= 0 and used[gp] == 0:
                ci += 1     # closed until ci-1 is used; later runs stay open
                continue
            nodes += 1
            if nodes > budget:
                return OracleResult(BUDGET_EXCEEDED, None, nodes)
            if blocked[ci][e] == 0:
                break
            ci += 1
        if ci < k:
            color[e] = ci
            used[ci] += 1
            rank[e] += colored
            b = blocked[ci]
            for f in conflicts[ci][e]:
                if b[f] == 0:
                    rank[f] -= m
                b[f] += 1
            path.append(e)
            if len(path) == m:
                break
            e = min(rank) % m
            ci = 0
            continue
        if not path:
            return OracleResult(INFEASIBLE, None, nodes)
        e = path.pop()
        ci = color[e]
        color[e] = -1
        used[ci] -= 1
        rank[e] -= colored
        b = blocked[ci]
        for f in conflicts[ci][e]:
            b[f] -= 1
            if b[f] == 0:
                rank[f] += m
        ci += 1

    labels = spec.labels()
    assignment = {f: labels[color[f]] for f in g.edge_ids}
    failures = verify(g, assignment, spec)
    assert not failures, f"oracle produced an invalid coloring: {failures}"
    return OracleResult(FEASIBLE, assignment, nodes)
