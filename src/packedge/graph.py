"""Loopless undirected multigraphs with stable integer edge ids.

Edges are identified by their position in the construction list, so parallel
edges are first-class citizens: a coloring, matching or cycle can name each
copy individually.  Graphs are immutable after construction and every
operation in this module is a pure function.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

VertexId = Hashable
EdgeId = int

INFINITE = math.inf


class GraphError(Exception):
    """Base class for all errors raised by this package."""


class LoopRejected(GraphError):
    """An edge joining a vertex to itself was supplied."""


class NotSimple(GraphError):
    """A graph with parallel edges where a simple graph is required."""


class UnknownEdge(GraphError):
    """An edge id that does not belong to the graph."""


class TooLarge(GraphError):
    """A graph above a size bound: of an exhaustive search, or of what a
    file format can express."""


class MultiGraph:
    """Immutable loopless multigraph.

    Vertices are arbitrary hashable, mutually orderable values; edge ids are
    the integers ``0 .. m-1`` in construction order.
    """

    __slots__ = ("_vertices", "_edges", "_adj")

    def __init__(self, edges: Sequence[Tuple[VertexId, VertexId]],
                 vertices: Iterable[VertexId] = ()):
        vset = set(vertices)
        for u, v in edges:
            if u == v:
                raise LoopRejected(f"loop at vertex {u!r}")
            vset.add(u)
            vset.add(v)
        self._edges: Tuple[Tuple[VertexId, VertexId], ...] = tuple(
            (u, v) for u, v in edges)
        self._vertices: Tuple[VertexId, ...] = tuple(sorted(vset))
        adj: Dict[VertexId, List[Tuple[EdgeId, VertexId]]] = {
            v: [] for v in self._vertices}
        for eid, (u, v) in enumerate(self._edges):
            adj[u].append((eid, v))
            adj[v].append((eid, u))
        self._adj = {v: tuple(pairs) for v, pairs in adj.items()}

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def vertices(self) -> Tuple[VertexId, ...]:
        return self._vertices

    @property
    def edge_ids(self) -> range:
        return range(len(self._edges))

    def edge_list(self) -> Tuple[Tuple[VertexId, VertexId], ...]:
        return self._edges

    def endpoints(self, eid: EdgeId) -> Tuple[VertexId, VertexId]:
        try:
            if eid >= 0:            # a negative index would wrap around
                return self._edges[eid]
        except (IndexError, TypeError):
            pass
        raise UnknownEdge(f"edge id {eid!r}")

    def incident(self, v: VertexId) -> Tuple[Tuple[EdgeId, VertexId], ...]:
        """All (edge id, other endpoint) pairs at v, in edge-id order."""
        return self._adj[v]

    def incident_edges(self, v: VertexId) -> Tuple[EdgeId, ...]:
        return tuple(eid for eid, _ in self._adj[v])

    def degree(self, v: VertexId) -> int:
        return len(self._adj[v])

    def neighbors(self, v: VertexId) -> Tuple[VertexId, ...]:
        """Distinct neighbors of v, sorted."""
        return tuple(sorted({u for _, u in self._adj[v]}))

    def edge_between(self, u: VertexId, v: VertexId) -> Optional[EdgeId]:
        """Smallest edge id joining u and v, or None."""
        for eid, w in self._adj.get(u, ()):
            if w == v:
                return eid
        return None

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        for _, w in self._adj.get(u, ()):
            if w == v:
                return True
        return False

    def is_simple(self) -> bool:
        return len({(u, v) if u < v else (v, u)
                    for u, v in self._edges}) == self.m

    def degree_sequence(self) -> Tuple[int, ...]:
        return tuple(sorted(self.degree(v) for v in self._vertices))

    # -- traversal ----------------------------------------------------------

    def vertex_distances(self, source: VertexId) -> Dict[VertexId, int]:
        """BFS distances from source to every reachable vertex."""
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for _, u in self._adj[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        return dist

    def is_connected(self) -> bool:
        """One component; the empty graph has none, so it is not."""
        if self.n <= 1:
            return self.n == 1
        return len(self.vertex_distances(self._vertices[0])) == self.n

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m})"


def build_graph(edge_list: Sequence[Tuple[VertexId, VertexId]],
                vertices: Iterable[VertexId] = ()) -> MultiGraph:
    """Build a multigraph with one edge id per list entry, in list order."""
    return MultiGraph(edge_list, vertices)


def relabel_to_ints(g: MultiGraph) -> Tuple[MultiGraph, Dict[VertexId, int]]:
    """Copy of g with vertices renamed 0..n-1 (sorted order); edge ids kept."""
    mapping = {v: i for i, v in enumerate(g.vertices)}
    h = MultiGraph([(mapping[u], mapping[v]) for u, v in g.edge_list()],
                   vertices=range(g.n))
    return h, mapping


# -- edge distance ----------------------------------------------------------

def _adjacent_edges(g: MultiGraph, eid: EdgeId) -> List[EdgeId]:
    u, v = g.endpoints(eid)
    out = []
    for f, _ in g.incident(u):
        if f != eid:
            out.append(f)
    for f, _ in g.incident(v):
        if f != eid:
            out.append(f)
    return out


def edge_distances_from(g: MultiGraph, e: EdgeId,
                        cap: Optional[int] = None) -> Dict[EdgeId, int]:
    """BFS distances in edge space from e, optionally truncated at cap."""
    g.endpoints(e)
    dist = {e: 0}
    frontier = [e]
    d = 0
    while frontier and (cap is None or d < cap):
        d += 1
        nxt = []
        for cur in frontier:
            for adj in _adjacent_edges(g, cur):
                if adj not in dist:
                    dist[adj] = d
                    nxt.append(adj)
        frontier = nxt
    return dist


# -- small-graph isomorphism ------------------------------------------------

_ISO_SIZE_BOUND = 16


def _multiplicity_map(g: MultiGraph) -> Dict[frozenset, int]:
    mult: Dict[frozenset, int] = {}
    for u, v in g.edge_list():
        key = frozenset((u, v))
        mult[key] = mult.get(key, 0) + 1
    return mult


def _refine_classes(g: MultiGraph, rounds: int = 3) -> Dict[VertexId, int]:
    """Iterated neighborhood refinement; equal labels = possibly equivalent."""
    label = {v: g.degree(v) for v in g.vertices}
    for _ in range(rounds):
        sig = {}
        for v in g.vertices:
            neigh = sorted(label[u] for _, u in g.incident(v))
            sig[v] = (label[v], tuple(neigh))
        canon = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: canon[sig[v]] for v in g.vertices}
        if new == label:
            break
        label = new
    return label


def are_isomorphic_small(g1: MultiGraph, g2: MultiGraph) -> bool:
    """Exhaustive multiplicity-preserving isomorphism test for small graphs.

    Backtracks over vertex bijections with neighborhood-label pruning; only
    meant for graphs of at most 16 vertices.
    """
    if g1.n > _ISO_SIZE_BOUND or g2.n > _ISO_SIZE_BOUND:
        raise TooLarge(f"isomorphism bound is {_ISO_SIZE_BOUND} vertices")
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if g1.degree_sequence() != g2.degree_sequence():
        return False
    m1, m2 = _multiplicity_map(g1), _multiplicity_map(g2)
    if sorted(m1.values()) != sorted(m2.values()):
        return False

    lab1, lab2 = _refine_classes(g1), _refine_classes(g2)
    if sorted(lab1.values()) != sorted(lab2.values()):
        return False

    verts1 = sorted(g1.vertices, key=lambda v: (lab1[v], repr(v)))
    by_label: Dict[int, List[VertexId]] = {}
    for v in g2.vertices:
        by_label.setdefault(lab2[v], []).append(v)

    mapping: Dict[VertexId, VertexId] = {}
    used = set()

    def extend(i: int) -> bool:
        if i == len(verts1):
            return True
        v = verts1[i]
        for w in by_label.get(lab1[v], ()):
            if w in used:
                continue
            ok = True
            for u in mapping:
                a = m1.get(frozenset((v, u)), 0)
                b = m2.get(frozenset((w, mapping[u])), 0)
                if a != b:
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return extend(0)
