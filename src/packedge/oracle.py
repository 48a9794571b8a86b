"""Exhaustive feasibility solver for packing edge-colorings.

Ground truth on small graphs: backtracking over edge-to-class assignments
with a precomputed bounded distance table, a most-constrained-first static
edge order, and complete symmetry breaking among classes that share the same
packing value.  Infeasible is only reported after the search space is
exhausted; running out of the node budget is a distinct outcome so callers
can never mistake a timeout for a proof.  The search recurses once per edge,
so graphs above `EDGE_BOUND` edges are refused with `TooLarge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .graph import EdgeId, MultiGraph, TooLarge, edge_distances_from
from .verify import DEFAULT_SPEC, PackingSpec, verify

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget-exceeded"

DEFAULT_BUDGET = 10 ** 8
# well below Python's default recursion limit of 1000 frames
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
    cap = max(spec.s)
    near = [edge_distances_from(g, e, cap=cap) for e in g.edge_ids]
    out: List[List[Tuple[EdgeId, ...]]] = []
    for s in spec.s:
        per_edge = [tuple(f for f, d in near[e].items() if f != e and d <= s)
                    for e in g.edge_ids]
        out.append(per_edge)
    return out


def oracle_color(g: MultiGraph, spec: PackingSpec = DEFAULT_SPEC,
                 budget: int = DEFAULT_BUDGET,
                 symmetry_breaking: bool = True) -> OracleResult:
    """Search for a packing edge-coloring of g, exhaustively.

    `symmetry_breaking` exists so tests can confirm that pruning equal-value
    class permutations never changes the verdict.
    """
    m = g.m
    if m > EDGE_BOUND:
        raise TooLarge(f"oracle bound is {EDGE_BOUND} edges, got {m}")
    if m == 0:
        return OracleResult(FEASIBLE, {}, 0)
    k = spec.k
    conflicts = _conflict_sets(g, spec)

    weight = [sum(len(conflicts[ci][e]) for ci in range(k))
              for e in g.edge_ids]
    order = sorted(g.edge_ids, key=lambda e: (-weight[e], e))

    # within a run of equal spec values, class ci only opens after ci-1
    group_prev = [-1] * k
    if symmetry_breaking:
        for ci in range(1, k):
            if spec.s[ci] == spec.s[ci - 1]:
                group_prev[ci] = ci - 1

    color = [-1] * m
    used = [0] * k
    nodes = 0
    out_of_budget = False

    def descend(depth: int) -> bool:
        nonlocal nodes, out_of_budget
        e = order[depth]
        for ci in range(k):
            gp = group_prev[ci]
            if gp >= 0 and used[gp] == 0:
                break   # all later classes of this run are closed too
            nodes += 1
            if nodes > budget:
                out_of_budget = True
                return False
            ok = True
            for f in conflicts[ci][e]:
                if color[f] == ci:
                    ok = False
                    break
            if ok:
                color[e] = ci
                used[ci] += 1
                if depth + 1 == m or descend(depth + 1):
                    return True
                color[e] = -1
                used[ci] -= 1
                if out_of_budget:
                    return False
        return False

    found = descend(0)
    if found:
        labels = spec.labels()
        assignment = {e: labels[color[e]] for e in g.edge_ids}
        failures = verify(g, assignment, spec)
        assert not failures, f"oracle produced an invalid coloring: {failures}"
        return OracleResult(FEASIBLE, assignment, nodes)
    if out_of_budget:
        return OracleResult(BUDGET_EXCEEDED, None, nodes)
    return OracleResult(INFEASIBLE, None, nodes)
