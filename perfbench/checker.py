"""Independent output checker for the benchmark.

Checks packing edge-colorings without `packedge.verify` or the distance
functions of `packedge.graph`: it builds its own line-graph adjacency from the
input's edge list and runs its own bounded BFS.  Run this file directly to
execute the self-test.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

SPEC_1113 = (1, 1, 1, 3)
SPEC_1112 = (1, 1, 1, 2)


def spec_labels(spec: Sequence[int]) -> Tuple[str, ...]:
    """Label per class: its value plus a letter per repeat (1a 1b 1c 3a)."""
    seen: Dict[int, int] = {}
    out = []
    for s in spec:
        out.append(f"{s}{'abcdefghijklmnopqrstuvwxyz'[seen.get(s, 0)]}")
        seen[s] = seen.get(s, 0) + 1
    return tuple(out)


class LineGraph:
    """Edge adjacency of a multigraph given as a list of (u, v) pairs."""

    def __init__(self, edges: Sequence[Tuple]):
        self.m = len(edges)
        at: Dict[object, List[int]] = {}
        for eid, (u, v) in enumerate(edges):
            at.setdefault(u, []).append(eid)
            at.setdefault(v, []).append(eid)
        self.at = at
        self.adj: List[Tuple[int, ...]] = [
            tuple({f for f in at[u] + at[v] if f != eid})
            for eid, (u, v) in enumerate(edges)]

    def within(self, e: int, radius: int) -> Dict[int, int]:
        """Edges at line-graph distance 1..radius from e, with distances."""
        dist = {e: 0}
        queue = deque([e])
        while queue:
            cur = queue.popleft()
            d = dist[cur]
            if d == radius:
                continue
            for f in self.adj[cur]:
                if f not in dist:
                    dist[f] = d + 1
                    queue.append(f)
        del dist[e]
        return dist


def check_coloring(lg: LineGraph, assignment: Dict[int, str],
                   spec: Sequence[int]) -> Optional[str]:
    """None if `assignment` is a valid packing coloring, else the reason."""
    labels = spec_labels(spec)
    value = dict(zip(labels, spec))
    if set(assignment) != set(range(lg.m)):
        return (f"labelled edges differ from 0..{lg.m - 1}: "
                f"{len(assignment)} labels")
    for eid, label in assignment.items():
        if label not in value:
            return f"edge {eid} has unknown label {label!r}"
    for v, incident in lg.at.items():
        ones = [assignment[e] for e in incident if value[assignment[e]] == 1]
        if len(ones) != len(set(ones)):
            return f"matching class repeated at vertex {v!r}"
    for eid, label in assignment.items():
        s = value[label]
        if s == 1:
            continue
        for f, d in lg.within(eid, s).items():
            if assignment[f] == label:
                return f"{label} edges {eid} and {f} at distance {d}"
    return None


def parse_coloring_document(text: str, edges: Sequence[Tuple]
                            ) -> Tuple[Optional[Dict[int, str]], Optional[str]]:
    """(assignment, None) from a written coloring document whose edges are
    exactly the input's edge list, else (None, reason)."""
    doc = json.loads(text)
    expected = json.loads(json.dumps([[i, u, v]
                                      for i, (u, v) in enumerate(edges)]))
    if doc.get("edges") != expected:
        return None, "document edges differ from the input graph"
    try:
        return {int(k): v for k, v in doc["assignment"].items()}, None
    except (KeyError, ValueError, AttributeError):
        return None, "document has no well-formed assignment"


def _expect(verdict: Optional[str], valid: bool, case: str) -> None:
    if (verdict is None) != valid:
        raise RuntimeError(f"checker self-test: {case} "
                           f"{'rejected' if valid else 'accepted'}")


def self_test() -> None:
    """Raise RuntimeError unless the checker accepts and rejects as it must."""
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    lg = LineGraph(k4)
    # the three perfect matchings of K4: {01,23}, {02,13}, {03,12}
    valid = {0: "1a", 5: "1a", 1: "1b", 4: "1b", 2: "1c", 3: "1c"}
    _expect(check_coloring(lg, valid, SPEC_1113), True, "K4 matchings")
    mutated = dict(valid)
    mutated[0] = "1b"                      # single-label mutation
    _expect(check_coloring(lg, mutated, SPEC_1113), False, "K4 mutation")
    partial = dict(valid)
    del partial[3]
    _expect(check_coloring(lg, partial, SPEC_1113), False, "K4 unlabelled edge")
    unknown = dict(valid)
    unknown[3] = "2a"
    _expect(check_coloring(lg, unknown, SPEC_1113), False, "K4 unknown label")

    c8 = LineGraph([(i, (i + 1) % 8) for i in range(8)])
    far = ["3a", "1b", "1a", "1b", "3a", "1b", "1a", "1b"]      # 3a at distance 4
    _expect(check_coloring(c8, dict(enumerate(far)), SPEC_1113), True,
            "3a at distance 4")
    near = ["3a", "1b", "1a", "3a", "1a", "1b", "1a", "1b"]     # 3a at distance 3
    _expect(check_coloring(c8, dict(enumerate(near)), SPEC_1113), False,
            "3a at distance 3")
    if c8.within(0, 3) != {1: 1, 7: 1, 2: 2, 6: 2, 3: 3, 5: 3}:
        raise RuntimeError("checker self-test: wrong BFS distances on C8")

    dipole = LineGraph([(0, 1), (0, 1), (0, 1)])   # parallel edges are adjacent
    _expect(check_coloring(dipole, {0: "1a", 1: "1b", 2: "1c"}, SPEC_1112),
            True, "dipole matchings")
    _expect(check_coloring(dipole, {0: "1a", 1: "1b", 2: "1a"}, SPEC_1112),
            False, "dipole repeated matching")
    _expect(check_coloring(c8, dict(enumerate(
        ["2a", "1b", "1a", "2a", "1a", "1b", "1a", "1b"])), SPEC_1112),
        True, "2a at distance 3")
    _expect(check_coloring(c8, dict(enumerate(
        ["2a", "1b", "2a", "1b", "1a", "1b", "1a", "1b"])), SPEC_1112),
        False, "2a at distance 2")


if __name__ == "__main__":
    self_test()
    print("checker self-test passed")
