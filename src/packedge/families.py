"""Generators for the graph families used throughout the test corpus.

Everything here is deterministic: fixed constructions (Petersen, Tietze,
rings, the 7-vertex leaf), seeded random generators, and an exhaustive
enumeration of small cubic multigraphs up to isomorphism.  The enumeration
represents each class by the first labeling its generator yields, which is
the class's lexicographically greatest valid labeling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, List, Mapping, Tuple

from .graph import (EdgeId, GraphError, MultiGraph, VertexId,
                    are_isomorphic_small, build_graph, relabel_to_ints)
from .recognize import (find_bridges, is_cubic, is_two_edge_connected,
                        require_clawfree_cubic)
from .structure import component_boundary


class BadCount(GraphError):
    """A family was requested with an out-of-range size parameter."""


class InvalidPlan(GraphError):
    """A substitution plan violates its invariants."""


class GenerationFailed(GraphError):
    """Random generation did not produce a valid graph within its retries."""


# ---------------------------------------------------------------------------
# fixed constructions
# ---------------------------------------------------------------------------

def gen_k4() -> MultiGraph:
    return build_graph([(a, b) for a in range(4) for b in range(a + 1, 4)])


def gen_ring(k: int) -> MultiGraph:
    """Closed cycle of k diamonds: 4k vertices, 6k edges.

    k == 1 would collapse to K4; ask for gen_k4 instead.
    """
    if k < 2:
        raise BadCount(f"a ring needs k >= 2 diamonds, got {k}")
    edges = []
    for i in range(k):
        x, y, z, w = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges += [(x, z), (x, w), (y, z), (y, w), (z, w)]
    for i in range(k):
        edges.append((4 * i, 4 * ((i + 1) % k) + 1))  # x_i to y_{i+1}
    return build_graph(edges)


def gen_petersen() -> MultiGraph:
    """Kneser construction: 2-subsets of a 5-set, adjacent iff disjoint."""
    subsets = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    index = {s: i for i, s in enumerate(subsets)}
    edges = []
    for i, s in enumerate(subsets):
        for t in subsets[i + 1:]:
            if not set(s) & set(t):
                edges.append((index[s], index[t]))
    return build_graph(sorted(edges))


def gen_tietze() -> MultiGraph:
    """Petersen with one vertex substituted by a triangle: 12 vertices."""
    p = gen_petersen()
    nbrs = sorted(u for _, u in p.incident(0))
    edges = [e for e in p.edge_list() if 0 not in e]
    edges += [(10, 11), (10, 12), (11, 12)]
    edges += [(10 + i, u) for i, u in enumerate(nbrs)]
    return build_graph(edges)


def gen_leaf7() -> MultiGraph:
    """Smallest big leaf component: one degree-2 vertex, 7 vertices.

    Vertices: 0 the degree-2 vertex, 1 and 2 its triangle partners, 3 and 4
    their outward extensions, 5 and 6 the diamond internals.
    """
    v, u, w, s, b, z1, z2 = range(7)
    return build_graph([(u, v), (v, w), (u, w), (u, s), (w, b),
                        (s, z1), (s, z2), (b, z1), (b, z2), (z1, z2)])


def gen_leaf7_pair() -> MultiGraph:
    """Two 7-vertex leaves joined by a bridge at their degree-2 vertices."""
    base = gen_leaf7().edge_list()
    edges = list(base) + [(u + 7, v + 7) for u, v in base] + [(0, 7)]
    return build_graph(edges)


# ---------------------------------------------------------------------------
# triangle substitution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubstitutionPlan:
    """A cubic multigraph plus the edges to realize as diamond strings."""
    h: MultiGraph
    strings: Mapping[EdgeId, int] = field(default_factory=dict)

    def validate(self) -> None:
        if not is_cubic(self.h):
            raise InvalidPlan("plan graph is not cubic")
        if not is_two_edge_connected(self.h):
            raise InvalidPlan("plan graph is not 2-edge-connected")
        for eid, k in self.strings.items():
            if eid not in self.h.edge_ids:
                raise InvalidPlan(f"unknown edge id {eid}")
            if k < 1:
                raise InvalidPlan(f"string length {k} < 1 on edge {eid}")


def gen_substituted(plan: SubstitutionPlan) -> MultiGraph:
    """Blow every vertex of the plan graph up into a triangle and realize
    the chosen edges as strings of diamonds; vertices are 0..n-1."""
    plan.validate()
    h = plan.h
    edges: List[Tuple[VertexId, VertexId]] = []
    corner: Dict[Tuple[int, EdgeId], Tuple] = {}
    for t in range(h.n):
        c = [("t", t, j) for j in range(3)]
        edges += [(c[0], c[1]), (c[0], c[2]), (c[1], c[2])]
        for slot, (h_eid, _) in enumerate(sorted(h.incident(t))):
            corner[(t, h_eid)] = c[slot]
    fresh = 0
    for h_eid in h.edge_ids:
        t1, t2 = h.endpoints(h_eid)
        a, b = corner[(t1, h_eid)], corner[(t2, h_eid)]
        k = plan.strings.get(h_eid, 0)
        prev = a
        for _ in range(k):
            x, y, z, w = [("d", fresh, i) for i in range(4)]
            fresh += 1
            edges += [(x, z), (x, w), (y, z), (y, w), (z, w), (prev, y)]
            prev = x
        edges.append((prev, b))
    out, _ = relabel_to_ints(build_graph(edges))
    return out


# ---------------------------------------------------------------------------
# big components and bridged compositions
# ---------------------------------------------------------------------------

def gen_big_component(chain_lengths: Tuple[int, ...]) -> MultiGraph:
    """Cycle of r boundary triangles separated by diamond chains.

    ``chain_lengths[i]`` is the number of diamonds between triangle i and
    triangle i+1, 0 for a plain edge (not when r == 1, where it would double
    an edge of the triangle); the result has exactly r degree-2 vertices
    (one per triangle) and r == 1 with one diamond is the 7-vertex leaf.
    """
    r = len(chain_lengths)
    least = 1 if r == 1 else 0
    if r < 1 or any(k < least for k in chain_lengths):
        raise BadCount(f"invalid chain lengths {chain_lengths}")
    edges: List[Tuple[VertexId, VertexId]] = []
    tri = []
    for j in range(r):
        u, v, w = ("u", j), ("v", j), ("w", j)
        tri.append((u, v, w))
        edges += [(u, v), (v, w), (u, w)]
    fresh = 0
    for j, k in enumerate(chain_lengths):
        prev = tri[j][0]                      # u of triangle j
        for _ in range(k):
            x, y, z, w = [("d", fresh, i) for i in range(4)]
            fresh += 1
            edges += [(x, z), (x, w), (y, z), (y, w), (z, w), (prev, y)]
            prev = x
        edges.append((prev, tri[(j + 1) % r][2]))   # into w of next triangle
    out, mapping = relabel_to_ints(build_graph(edges))
    # raises if the boundary claims fail
    degree2 = [v for v in out.vertices if out.degree(v) == 2]
    boundary = component_boundary(out, frozenset(), degree2)
    assert boundary.r == r
    return out


@dataclass(frozen=True)
class BridgedPlan:
    """Tree of component recipes; each node's recipe must offer exactly as
    many boundary vertices as the node's degree in the tree."""
    parents: Tuple[int, ...]                  # parents[i] for node i >= 1
    recipes: Tuple[Tuple, ...]                # ("k3",) | ("diamond",) | ("big", ks)


def _component_with_boundary(recipe: Tuple
                             ) -> Tuple[MultiGraph, Tuple[VertexId, ...]]:
    kind = recipe[0]
    if kind == "k3":
        return build_graph([(0, 1), (1, 2), (0, 2)]), (0, 1, 2)
    if kind == "diamond":
        g = build_graph([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        return g, (0, 1)
    if kind == "big":
        g = gen_big_component(recipe[1])
        return g, tuple(v for v in g.vertices if g.degree(v) == 2)
    raise BadCount(f"unknown recipe {recipe!r}")


def gen_bridged(plan: BridgedPlan) -> MultiGraph:
    """Compose components along a tree, one bridge per tree edge."""
    c = len(plan.recipes)
    degree = [0] * c
    for i, p in enumerate(plan.parents, start=1):
        degree[i] += 1
        degree[p] += 1
    edges: List[Tuple[VertexId, VertexId]] = []
    slots: List[List[int]] = []
    offset = 0
    for i, recipe in enumerate(plan.recipes):
        g, boundary = _component_with_boundary(recipe)
        if len(boundary) != degree[i]:
            raise BadCount(
                f"recipe {recipe!r} offers {len(boundary)} boundary vertices "
                f"but tree degree is {degree[i]}")
        edges += [(u + offset, v + offset) for u, v in g.edge_list()]
        slots.append([b + offset for b in boundary])
        offset += g.n
    for i, p in enumerate(plan.parents, start=1):
        edges.append((slots[i].pop(0), slots[p].pop(0)))
    return build_graph(edges)


# ---------------------------------------------------------------------------
# seeded random generation
# ---------------------------------------------------------------------------

def _require_even_order(n: int) -> None:
    if n % 2 or n < 2:
        raise BadCount(f"cubic multigraphs need an even order, got {n}")


def random_cubic_multigraph_2ec(rng: random.Random, n: int,
                                tries: int = 1000) -> MultiGraph:
    """Random 2-edge-connected cubic multigraph on n vertices (n even).

    A random permutation supplies a disjoint cycle cover (2-regular part)
    and a random pairing supplies the perfect matching; attempts with fixed
    points, bridges, or a disconnected result are rejected.
    """
    _require_even_order(n)
    for _ in range(tries):
        perm = list(range(n))
        rng.shuffle(perm)
        if any(perm[i] == i for i in range(n)):
            continue
        edges = []
        seen = set()
        ok = True
        for i in range(n):
            if i in seen:
                continue
            cycle = [i]
            j = perm[i]
            while j != i:
                cycle.append(j)
                j = perm[j]
            seen.update(cycle)
            if len(cycle) == 1:
                ok = False
                break
            if len(cycle) == 2:
                edges.append((cycle[0], cycle[1]))
                edges.append((cycle[0], cycle[1]))
            else:
                edges += [(cycle[t], cycle[(t + 1) % len(cycle)])
                          for t in range(len(cycle))]
        if not ok:
            continue
        pair = list(range(n))
        rng.shuffle(pair)
        edges += [(pair[t], pair[t + 1]) for t in range(0, n, 2)]
        g = build_graph(edges)
        if is_two_edge_connected(g):
            return g
    raise GenerationFailed(f"no 2-edge-connected cubic multigraph after "
                           f"{tries} tries (n={n})")


def gen_random_clawfree_cubic(seed: int, h_vertices: int = 8,
                              bridged: bool = False,
                              string_chance: float = 0.3) -> MultiGraph:
    """Random connected claw-free cubic graph, a pure function of the seed.

    Bridgeless graphs come from a random substitution plan; bridged ones
    from a random tree of components.  The output is checked by
    `require_clawfree_cubic` before being returned.
    """
    rng = random.Random(seed)
    if bridged:
        g = _random_bridged(rng)
    else:
        h = random_cubic_multigraph_2ec(rng, h_vertices)
        strings = {eid: rng.randint(1, 3) for eid in h.edge_ids
                   if rng.random() < string_chance}
        g = gen_substituted(SubstitutionPlan(h, strings))
    bridges = require_clawfree_cubic(g)
    if bridged and not bridges:
        raise GenerationFailed(f"seed {seed} produced no bridge")
    return g


def _random_bridged(rng: random.Random) -> MultiGraph:
    c = rng.randint(2, 6)
    parents = tuple(rng.randrange(i) for i in range(1, c))
    degree = [0] * c
    for i, p in enumerate(parents, start=1):
        degree[i] += 1
        degree[p] += 1
    recipes = []
    for i in range(c):
        d = degree[i]
        if d == 2 and rng.random() < 0.5:
            recipes.append(("diamond",))
        elif d == 3 and rng.random() < 0.5:
            recipes.append(("k3",))
        else:
            recipes.append(("big", tuple(rng.randint(1, 3) for _ in range(d))))
    return gen_bridged(BridgedPlan(parents=parents, recipes=tuple(recipes)))


# ---------------------------------------------------------------------------
# exhaustive enumeration of small cubic multigraphs
# ---------------------------------------------------------------------------

def _labeled_cubic_multigraphs(n: int) -> Iterator[List[Tuple[int, int]]]:
    """Labeled connected loopless cubic multigraphs on 0..n-1 whose parents
    do not decrease, where parent(v) is the smallest neighbor of v below v.

    Every class keeps the labeling that `enumerate_cubic_multigraphs`
    picks as its representative, by this lemma:

    1. Without the parent rule, the generator yields every valid labeling
       (connected, and every v > 0 has a lower-numbered neighbor) in
       descending lexicographic order of the row-major upper-triangle
       multiplicity vector (M[0][1], ..., M[0][n-1], M[1][2], ...).
    2. So the first labeling seen of each class, the one kept as its
       representative, is the class's lexicographically greatest valid
       labeling.
    3. In that labeling parent(v) does not decrease in v.  Suppose
       parent(v) > parent(v+1) = p.  Swapping labels v and v+1 keeps the
       labeling valid and leaves the rows before row p unchanged, but raises
       entry (p, v) from 0 to a positive value: the original was not the
       greatest.

    Parents are non-decreasing exactly when, after each row, the vertices
    touched so far form a prefix of the labels.  So a row may reach an
    untouched vertex only if it is the smallest untouched one; the pruned
    stream is the unpruned one, filtered by that rule, in the same order.
    """
    rem = [3] * n
    edges: List[Tuple[int, int]] = []

    def fill(v: int) -> Iterator[List[Tuple[int, int]]]:
        if v == n:
            yield list(edges)
            return
        if rem[v] == 0:
            yield from fill(v + 1)
            return
        if v > 0 and rem[v] == 3:
            return   # would leave v without a lower-numbered neighbor
        candidates = [u for u in range(v + 1, n) if rem[u] > 0]

        def pick(idx: int, need: int) -> Iterator[List[Tuple[int, int]]]:
            if need == 0:
                yield from fill(v + 1)
                return
            if idx >= len(candidates):
                return
            u = candidates[idx]
            if u - 1 > v and rem[u - 1] == 3:
                return   # u - 1 was left untouched: no later one may be touched
            for take in range(min(rem[u], need), -1, -1):
                for _ in range(take):
                    edges.append((v, u))
                rem[u] -= take
                rem[v] -= take
                yield from pick(idx + 1, need - take)
                rem[v] += take
                rem[u] += take
                for _ in range(take):
                    edges.pop()

        yield from pick(0, rem[v])

    yield from fill(0)


def _triangle_count(g: MultiGraph) -> int:
    count = 0
    for v in g.vertices:
        nbrs = g.neighbors(v)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                if g.has_edge(a, b):
                    count += 1
    return count // 3


def _iso_fingerprint(g: MultiGraph) -> Tuple:
    mult: Dict[frozenset, int] = {}
    for u, v in g.edge_list():
        key = frozenset((u, v))
        mult[key] = mult.get(key, 0) + 1
    codes = []
    for v in g.vertices:
        incident_mult = sorted(mult[frozenset((v, u))]
                               for u in g.neighbors(v))
        dists = g.vertex_distances(v)
        profile = tuple(sorted(dists.values()))
        codes.append((tuple(incident_mult), profile))
    return (g.n, g.m, tuple(sorted(mult.values())),
            _triangle_count(g), tuple(sorted(codes)))


@lru_cache(maxsize=None)
def enumerate_cubic_multigraphs(n: int, two_edge_connected: bool = True
                                ) -> Tuple[MultiGraph, ...]:
    """All connected cubic multigraphs on n vertices, up to isomorphism.

    Each class is represented by the first of its labelings that
    `_labeled_cubic_multigraphs` yields, which is its lexicographically
    greatest valid labeling (see the lemma there).  n must be even and at
    least 2; anything else raises `BadCount`.
    """
    _require_even_order(n)
    buckets: Dict[Tuple, List[MultiGraph]] = {}
    out: List[MultiGraph] = []
    for edges in _labeled_cubic_multigraphs(n):
        g = build_graph(edges, vertices=range(n))
        if two_edge_connected and find_bridges(g):
            continue
        key = _iso_fingerprint(g)
        reps = buckets.setdefault(key, [])
        if any(are_isomorphic_small(g, rep) for rep in reps):
            continue
        reps.append(g)
        out.append(g)
    return tuple(out)
