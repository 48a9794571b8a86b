"""Structural predicates: cubic, claw-free, bridges, 2-edge-connectivity.

Each check either returns a plain verdict or a witness that can be validated
independently (a claw's center and leaves, the exact set of bridge edge ids).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, Iterable, Optional, Tuple

from .graph import EdgeId, GraphError, MultiGraph, NotSimple, VertexId


@dataclass(frozen=True)
class ClawWitness:
    """An induced K_{1,3}: `center` adjacent to three pairwise non-adjacent leaves."""
    center: VertexId
    leaves: Tuple[VertexId, VertexId, VertexId]


BridgeSet = FrozenSet[EdgeId]


class NotConnected(GraphError):
    pass


class NotCubic(GraphError):
    pass


class NotClawFree(GraphError):
    pass


def is_cubic(g: MultiGraph) -> bool:
    """True iff every vertex has degree exactly 3 (parallel edges count)."""
    return all(g.degree(v) == 3 for v in g.vertices)


def claw_at(g: MultiGraph, centers: Iterable[VertexId]
            ) -> Optional[ClawWitness]:
    """Some induced claw of g centered at one of `centers`, or None.

    On a cubic graph each center has at most three distinct neighbors, so
    this is linear in the number of centers.
    """
    for v in centers:
        for a, b, c in combinations(g.neighbors(v), 3):
            if not g.has_edge(a, b) and not g.has_edge(a, c) \
                    and not g.has_edge(b, c):
                return ClawWitness(center=v, leaves=(a, b, c))
    return None


def find_claw(g: MultiGraph) -> Optional[ClawWitness]:
    """Some induced claw of g, or None if g is claw-free."""
    return claw_at(g, g.vertices)


def find_bridges(g: MultiGraph) -> BridgeSet:
    """All cut edges of g, by iterative DFS lowpoint computation.

    Tracked per edge id, so one edge of a parallel pair never shadows the
    other: parallel edges are never bridges.
    """
    index = {}
    low = {}
    bridges = set()
    counter = 0
    for root in g.vertices:
        if root in index:
            continue
        # stack entries: (vertex, incoming edge id, iterator position)
        index[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, 0)]
        while stack:
            v, in_eid, i = stack.pop()
            incident = g.incident(v)
            if i < len(incident):
                stack.append((v, in_eid, i + 1))
                eid, u = incident[i]
                if eid == in_eid:
                    continue
                if u not in index:
                    index[u] = low[u] = counter
                    counter += 1
                    stack.append((u, eid, 0))
                else:
                    low[v] = min(low[v], index[u])
            else:
                if in_eid >= 0:
                    parent = g.other_end(in_eid, v)
                    if low[v] > index[parent]:
                        bridges.add(in_eid)
                    low[parent] = min(low[parent], low[v])
    return frozenset(bridges)


def is_two_edge_connected(g: MultiGraph) -> bool:
    """Connected, at least two vertices, and bridgeless."""
    return g.n >= 2 and g.is_connected() and not find_bridges(g)


def require_clawfree_cubic(g: MultiGraph) -> BridgeSet:
    """The bridges of g, once checked to be a connected simple claw-free
    cubic graph (else NotConnected, NotCubic, NotSimple or NotClawFree): the
    one check of the pipeline's input class, which no later stage repeats."""
    if not g.is_connected():
        raise NotConnected("input graph is not connected")
    if not is_cubic(g):
        raise NotCubic(f"degree sequence {g.degree_sequence()}")
    if not g.is_simple():
        raise NotSimple("input graph has parallel edges")
    claw = find_claw(g)
    if claw is not None:
        raise NotClawFree(f"claw at {claw.center!r} with leaves {claw.leaves}")
    return find_bridges(g)
