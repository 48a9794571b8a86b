"""Validity checking for packing edge-colorings.

A coloring against a non-decreasing spec (s_1, ..., s_k) partitions the edges
into classes; class i is valid when its edges are pairwise at edge-distance
at least s_i + 1.  `verify` returns every violating pair, so an empty result
means the coloring is valid.

Ball lemma.  The edge distance of two distinct edges is 1 plus the least
vertex distance between an endpoint of one and an endpoint of the other.  So
two edges of a class with value s are at edge distance at most s exactly when
their balls of radius floor(s/2) meet, taking as the ball of an edge:

- odd s: the vertices within (s - 1)/2 of its endpoints (for s = 1 the two
  endpoints, for s = 3 both closed neighbourhoods);
- even s: the edges within line-graph distance s/2 of it, itself included,
  which are the edges at the vertices within s/2 - 1 of its endpoints.

`verify` lets every edge of a class claim its ball and keeps the first
claimant of each claimed item, in time linear in the balls' total size.  A
valid coloring has no collision, so no distance is searched; only colliding
pairs get a bounded edge BFS, which measures their distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from .graph import (EdgeId, GraphError, MultiGraph, UnknownEdge, VertexId,
                    edge_distances_from)


class PartialColoring(GraphError):
    """The coloring leaves some edge of the graph unassigned."""


class BadSpec(GraphError):
    """Spec sequence is empty, non-positive, or decreasing."""


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class PackingSpec:
    """Non-decreasing positive sequence; defaults to (1, 1, 1, 3)."""
    s: Tuple[int, ...] = (1, 1, 1, 3)

    def __post_init__(self):
        if not self.s:
            raise BadSpec("empty spec")
        if any(x <= 0 for x in self.s):
            raise BadSpec(f"non-positive entry in {self.s}")
        if any(a > b for a, b in zip(self.s, self.s[1:])):
            raise BadSpec(f"spec not non-decreasing: {self.s}")

    @property
    def k(self) -> int:
        return len(self.s)

    def labels(self) -> Tuple[str, ...]:
        """Class labels: value plus a letter per repeat, e.g. 1a 1b 1c 3a."""
        out = []
        run: Dict[int, int] = {}
        for v in self.s:
            out.append(f"{v}{_LETTERS[run.get(v, 0)]}")
            run[v] = run.get(v, 0) + 1
        return tuple(out)


DEFAULT_SPEC = PackingSpec()


@dataclass(frozen=True)
class Violation:
    """Two same-class edges closer than the class requires."""
    class_index: int
    edges: Tuple[EdgeId, EdgeId]
    distance: int
    required: int


def verify(g: MultiGraph, coloring: Dict[EdgeId, str],
           spec: PackingSpec = DEFAULT_SPEC) -> List[Violation]:
    """All packing violations of `coloring` on g, sorted; empty means valid.

    Raises PartialColoring when some edge of g has no color, UnknownEdge
    when the coloring labels an edge id g does not have, and BadSpec for a
    label outside the spec.
    """
    class_of = {label: ci for ci, label in enumerate(spec.labels())}
    by_class: List[List[EdgeId]] = [[] for _ in class_of]
    for eid in g.edge_ids:
        label = coloring.get(eid)
        if label is None:
            raise PartialColoring(f"edge {eid} unassigned")
        if label not in class_of:
            raise BadSpec(f"label {label!r} not in spec {spec.s}")
        by_class[class_of[label]].append(eid)
    if len(coloring) != g.m:
        extra = next(k for k in coloring if k not in g.edge_ids)
        raise UnknownEdge(f"labelled edge id {extra!r} is not in the graph")

    out: List[Violation] = []
    for ci, members in enumerate(by_class):
        s = spec.s[ci]
        partners = _collisions(g, members, s)
        for e in sorted(partners):
            near = edge_distances_from(g, e, cap=s)
            out.extend(Violation(ci, (e, f), near[f], s + 1)
                       for f in sorted(partners[e]))
    return out


def _ball(g: MultiGraph, u: VertexId, v: VertexId, r: int) -> Set[VertexId]:
    """Vertices within distance r of u or v."""
    ball = {u, v}
    frontier: Iterable[VertexId] = ball
    for _ in range(r):
        frontier = {y for x in frontier for _, y in g.incident(x)} - ball
        ball |= frontier
    return ball


def _collisions(g: MultiGraph, members: List[EdgeId],
                s: int) -> Dict[EdgeId, Set[EdgeId]]:
    """Pairs of `members` whose value-s balls meet, as smaller id -> the
    larger ids; `members` must be in increasing id order."""
    r = (s - 1) // 2
    claim_edges = s % 2 == 0
    ends = g.edge_list()
    owner: Dict[object, EdgeId] = {}
    shared: Dict[object, List[EdgeId]] = {}    # item -> all its claimants
    for e in members:
        u, v = ends[e]
        ball: Iterable = (u, v) if r == 0 else _ball(g, u, v, r)
        if claim_edges:
            ball = {f for x in ball for f, _ in g.incident(x)}
        for item in ball:
            first = owner.setdefault(item, e)
            if first != e:
                shared.setdefault(item, [first]).append(e)
    partners: Dict[EdgeId, Set[EdgeId]] = {}
    for claimants in shared.values():
        for i, a in enumerate(claimants[:-1]):
            partners.setdefault(a, set()).update(claimants[i + 1:])
    return partners
