"""Perfect matchings and 2-factors of cubic multigraphs.

In a cubic graph the complement of a perfect matching is a spanning disjoint
union of cycles, so a 2-factor through up to two required edges is the
complement of a perfect matching that avoids them.  For 2-edge-connected
cubic multigraphs that matching always exists (with at most two avoided
edges; Plesník 1972); the caller treats its absence as a precondition
violation.  The matching is a maximum-cardinality matching found by an
iterative form of Edmonds' blossom algorithm (Edmonds 1965, "Paths, trees,
and flowers"), polynomial in |H| and free of recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .graph import EdgeId, GraphError, MultiGraph, VertexId


class PlesnikViolated(GraphError):
    """No 2-factor through the required edges; input was not as promised."""


@dataclass(frozen=True)
class TwoFactor:
    """Vertex-disjoint cycle cover plus its complementary perfect matching.

    ``cycles[i]`` lists edge ids in traversal order; ``cycle_vertices[i]``
    lists the vertices in the same order, so edge ``cycles[i][j]`` joins
    ``cycle_vertices[i][j]`` and ``cycle_vertices[i][(j+1) % len]``.  Cycles
    of length 2 (a parallel pair) are legal.
    """
    cycles: Tuple[Tuple[EdgeId, ...], ...]
    cycle_vertices: Tuple[Tuple[VertexId, ...], ...]
    complement: FrozenSet[EdgeId]


def perfect_matching_avoiding(h: MultiGraph,
                              forbidden: Iterable[EdgeId] = ()
                              ) -> Optional[Set[EdgeId]]:
    """A perfect matching of h disjoint from `forbidden`, or None.

    Each vertex pair keeps its smallest allowed edge id.  A greedy pass
    matches every free vertex, in sorted order, to its first free neighbor
    in edge-id order; then one blossom search per still-free vertex
    augments.  A free vertex without an augmenting path keeps none after
    later augmentations, so the first failed search answers None.  At most
    n searches of O(n^2) each; on cubic graphs the greedy pass leaves few.
    """
    forbidden = frozenset(forbidden)
    n = h.n
    if n % 2:
        return None
    index = {v: i for i, v in enumerate(h.vertices)}
    adj: List[List[int]] = [[] for _ in range(n)]
    pair_eid: Dict[Tuple[int, int], EdgeId] = {}
    for i, v in enumerate(h.vertices):
        for eid, u in h.incident(v):
            j = index[u]
            if eid not in forbidden and (i, j) not in pair_eid:
                pair_eid[i, j] = eid
                adj[i].append(j)
    mate = [-1] * n
    for v in range(n):
        if mate[v] < 0:
            u = next((u for u in adj[v] if mate[u] < 0), -1)
            if u >= 0:
                mate[v], mate[u] = u, v
    base = list(range(n))
    parent = [-1] * n       # links of the alternating path back to the root
    outer = [False] * n
    for root in range(n):
        if mate[root] < 0 and not _augment(adj, mate, base, parent, outer,
                                           root):
            return None
    return {pair_eid[v, mate[v]] for v in range(n) if v < mate[v]}


def _augment(adj: List[List[int]], mate: List[int], base: List[int],
             parent: List[int], outer: List[bool], root: int) -> bool:
    """Grow one alternating tree from free `root` and flip the first
    augmenting path; False when there is none.  `base`, `parent` and
    `outer` are clean on entry and are left clean."""
    tree = [root]
    queue = [root]
    outer[root] = True
    try:
        for v in queue:                 # the queue grows while it is read
            for w in adj[v]:
                if base[v] == base[w] or mate[v] == w:
                    continue
                if outer[w]:            # odd cycle: contract the blossom
                    b = _tree_meet(mate, base, parent, v, w)
                    blossom: Set[int] = set()
                    for x, y in ((v, w), (w, v)):
                        while base[x] != b:
                            blossom.add(base[x])
                            blossom.add(base[mate[x]])
                            parent[x] = y
                            y = mate[x]
                            x = parent[y]
                    for x in tree:
                        if base[x] in blossom:
                            base[x] = b
                            if not outer[x]:
                                outer[x] = True
                                queue.append(x)
                elif parent[w] < 0:
                    parent[w] = v
                    tree.append(w)
                    if mate[w] < 0:     # flip the path back to the root
                        while w >= 0:
                            v = parent[w]
                            nxt = mate[v]
                            mate[v], mate[w] = w, v
                            w = nxt
                        return True
                    tree.append(mate[w])
                    outer[mate[w]] = True
                    queue.append(mate[w])
        return False
    finally:
        for x in tree:
            base[x], parent[x], outer[x] = x, -1, False


def _tree_meet(mate: List[int], base: List[int], parent: List[int],
               v: int, w: int) -> int:
    """Base of the blossom closed by the outer-outer edge v-w: the first
    base the tree paths from v and from w to the root share."""
    on_path = set()
    while True:
        v = base[v]
        on_path.add(v)
        if mate[v] < 0:
            break
        v = parent[mate[v]]
    while base[w] not in on_path:
        w = parent[mate[base[w]]]
    return base[w]


def _extract_cycles(h: MultiGraph, cycle_edges: Set[EdgeId]
                    ) -> Tuple[Tuple[Tuple[EdgeId, ...], ...],
                               Tuple[Tuple[VertexId, ...], ...]]:
    """Walk the 2-regular subgraph given by `cycle_edges`, deterministically.

    Starts each cycle at its smallest unvisited vertex and leaves it through
    the smallest usable edge id; tracking edge ids (not endpoints) makes
    2-cycles through a parallel pair come out correctly.
    """
    unused = set(cycle_edges)
    eids_out: List[Tuple[EdgeId, ...]] = []
    verts_out: List[Tuple[VertexId, ...]] = []
    seen: Set[VertexId] = set()
    for start in h.vertices:
        if start in seen or not any(
                eid in unused for eid, _ in h.incident(start)):
            continue
        eids: List[EdgeId] = []
        verts: List[VertexId] = []
        v = start
        while True:
            verts.append(v)
            seen.add(v)
            # mid-walk there is exactly one way forward; at the start vertex
            # the orientation goes toward the smaller neighbor id first
            step = min(((eid, u) for eid, u in h.incident(v)
                        if eid in unused), key=lambda p: (p[1], p[0]))
            unused.discard(step[0])
            eids.append(step[0])
            v = step[1]
            if v == start:
                break
        eids_out.append(tuple(eids))
        verts_out.append(tuple(verts))
    assert not unused, "cycle edges left over; subgraph was not 2-regular"
    return tuple(eids_out), tuple(verts_out)


def two_factor_containing(h: MultiGraph,
                          required: Iterable[EdgeId] = ()) -> TwoFactor:
    """A 2-factor of cubic h whose cycles include every required edge.

    The complement is the perfect matching found by avoiding `required`;
    PlesnikViolated when no such matching exists.
    """
    required = frozenset(required)
    matching = perfect_matching_avoiding(h, required)
    if matching is None:
        raise PlesnikViolated(
            f"no perfect matching avoiding {sorted(required)}")
    cycle_edges = {eid for eid in h.edge_ids if eid not in matching}
    assert required <= cycle_edges
    eids, verts = _extract_cycles(h, cycle_edges)
    covered = {v for tour in verts for v in tour}
    assert len(covered) == h.n, "2-factor does not cover every vertex"
    return TwoFactor(eids, verts, frozenset(matching))
