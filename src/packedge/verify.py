"""Validity checking for packing edge-colorings.

A coloring against a non-decreasing spec (s_1, ..., s_k) partitions the edges
into classes; class i is valid when its edges are pairwise at edge-distance
at least s_i + 1.  `verify` returns every violating pair, so an empty result
means the coloring is valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .graph import EdgeId, GraphError, MultiGraph, edge_distances_from


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
    """All packing violations of `coloring` on g; empty list means valid.

    Raises PartialColoring when some edge of g has no color.
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

    out: List[Violation] = []
    for ci, members in enumerate(by_class):
        s = spec.s[ci]
        mset = set(members)
        for e in members:
            near = edge_distances_from(g, e, cap=s)
            for f, d in near.items():
                if f > e and f in mset:
                    out.append(Violation(ci, (e, f), d, s + 1))
    out.sort(key=lambda v: (v.class_index, v.edges))
    return out
