"""Structural predicates: cubic, claw-free, bridges, 2-edge-connectivity.

Each check either returns a plain verdict or a witness that can be validated
independently (a claw's center and leaves, the exact set of bridge edge ids).
The input gate, `require_clawfree_cubic`, learns in one pass each fact the
decomposition reads: one DFS gives connectivity, the bridges and the
components of g minus its bridges, and one sweep of neighbour sets builds
each vertex's links, the adjacent pairs among its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .graph import EdgeId, GraphError, MultiGraph, NotSimple, VertexId


@dataclass(frozen=True)
class ClawWitness:
    """An induced K_{1,3}: `center` adjacent to three pairwise non-adjacent leaves."""
    center: VertexId
    leaves: Tuple[VertexId, VertexId, VertexId]


BridgeSet = FrozenSet[EdgeId]
Links = Dict[VertexId, List[Tuple[VertexId, VertexId]]]


@dataclass(frozen=True)
class GateFacts:
    """What `require_clawfree_cubic` learns of g: its bridges, its links
    table, and the components of g minus its bridges (see `_bridge_dfs`)."""
    bridges: BridgeSet
    links: Links
    components: Tuple[Tuple[VertexId, ...], ...]


class NotConnected(GraphError):
    pass


class NotCubic(GraphError):
    pass


class NotClawFree(GraphError):
    pass


def is_cubic(g: MultiGraph) -> bool:
    """True iff every vertex has degree exactly 3 (parallel edges count)."""
    return all(g.degree(v) == 3 for v in g.vertices)


def find_claw(g: MultiGraph) -> Optional[ClawWitness]:
    """Some induced claw of g, or None if g is claw-free; linear on a
    cubic graph, where each center has at most three distinct neighbors."""
    for v in g.vertices:
        for a, b, c in combinations(g.neighbors(v), 3):
            if not g.has_edge(a, b) and not g.has_edge(a, c) \
                    and not g.has_edge(b, c):
                return ClawWitness(center=v, leaves=(a, b, c))
    return None


def _link_table(g: MultiGraph,
                nbrs: Optional[Dict[VertexId, Set[VertexId]]] = None) -> Links:
    """Each vertex v of g -> its links, the adjacent pairs among its sorted
    neighbours, or [] past three; `nbrs` is v -> neighbour set, if built."""
    if nbrs is None:
        nbrs = {v: {u for _, u in g.incident(v)} for v in g.vertices}
    links: Links = {}
    for v, near in nbrs.items():
        if len(near) == 3:
            a, b, c = sorted(near)
            links[v] = pairs = [(a, b)] if b in nbrs[a] else []
            if c in nbrs[a]:
                pairs.append((a, c))
            if c in nbrs[b]:
                pairs.append((b, c))
        else:
            links[v] = [] if len(near) > 3 else [
                (a, b) for a, b in combinations(sorted(near), 2)
                if b in nbrs[a]]
    return links


def _bridge_dfs(g: MultiGraph
                ) -> Tuple[BridgeSet, Tuple[Tuple[VertexId, ...], ...]]:
    """The bridges of g, and the sorted vertex sets of the components of g
    minus its bridges, ordered by smallest vertex.  g is connected exactly
    when there is one more component than bridges.

    One iterative DFS with lowpoints over edge ids, so a parallel edge is
    never a bridge (Tarjan 1974).  Each vertex reached is pushed on a
    stack; when v is a root or the edge into v is a bridge, the stack from
    v up is v's component.
    """
    index: Dict[VertexId, int] = {}
    low: Dict[VertexId, int] = {}
    bridges = set()
    components = []
    found: List[VertexId] = []
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        # frames: (vertex, edge id in, unread incident pairs, stack mark)
        stack = [(root, -1, iter(g.incident(root)), len(found))]
        found.append(root)
        while stack:
            v, in_eid, pairs, mark = stack[-1]
            for eid, u in pairs:
                if u not in index:
                    index[u] = low[u] = len(index)
                    stack.append((u, eid, iter(g.incident(u)), len(found)))
                    found.append(u)
                    break
                if eid != in_eid and index[u] < low[v]:
                    low[v] = index[u]
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[v] <= index[parent]:
                        if low[v] < low[parent]:
                            low[parent] = low[v]
                        continue
                    bridges.add(in_eid)
                components.append(tuple(sorted(found[mark:])))
                del found[mark:]
    components.sort(key=lambda vs: vs[0])
    return frozenset(bridges), tuple(components)


def find_bridges(g: MultiGraph) -> BridgeSet:
    """All cut edges of g; parallel edges are never bridges."""
    return _bridge_dfs(g)[0]


def is_two_edge_connected(g: MultiGraph) -> bool:
    """Connected, at least two vertices, and bridgeless."""
    return g.n >= 2 and len(_bridge_dfs(g)[1]) == 1


def require_clawfree_cubic(g: MultiGraph) -> GateFacts:
    """The `GateFacts` of g, once checked to be a connected simple claw-free
    cubic graph: the one check of the pipeline's input class, which no
    later stage repeats.  One DFS finds the bridges, the components and
    connectivity, and the links table finds the claws: in a simple cubic
    graph, v centres a claw exactly when it has no link.  Raises, first
    failure first, NotConnected (also for the empty graph), NotCubic,
    NotSimple or NotClawFree, with `find_claw`'s witness.
    """
    bridges, components = _bridge_dfs(g)
    if len(components) != len(bridges) + 1:
        raise NotConnected(
            f"input graph is {'not connected' if g.n else 'empty'}")
    if not is_cubic(g):
        raise NotCubic(f"degree sequence {g.degree_sequence()}")
    nbrs = {v: {a, b, c} for v in g.vertices
            for (_, a), (_, b), (_, c) in (g.incident(v),)}
    if any(len(near) != 3 for near in nbrs.values()):
        raise NotSimple("input graph has parallel edges")
    links = _link_table(g, nbrs)
    claw = next((v for v in g.vertices if not links[v]), None)
    if claw is not None:
        raise NotClawFree(f"claw at {claw!r} with leaves {g.neighbors(claw)}")
    return GateFacts(bridges, links, components)
