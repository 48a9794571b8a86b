"""Definitional reference implementations the tests compare against.

None of these is used by the coloring pipeline; each is the slow, obvious
version of something the library computes another way.
"""

from itertools import combinations

from packedge.families import SubstitutionPlan, gen_k4, gen_ring, gen_substituted
from packedge.graph import INFINITE, MultiGraph, edge_distances_from
from packedge.matching import two_factor_containing
from packedge.recognize import find_claw, is_cubic, is_two_edge_connected
from packedge.structure import (IS_K4, RING_OF_DIAMONDS, component_boundary,
                                oum_decompose)
from packedge.oracle import BUDGET_EXCEEDED, FEASIBLE, INFEASIBLE
from packedge.verify import BadSpec, PartialColoring, Violation


def connected_components(g):
    """Vertex sets of the connected components of g."""
    seen = set()
    parts = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = set(g.vertex_distances(start))
        seen |= comp
        parts.append(frozenset(comp))
    return parts


def perfect_matching_avoiding_reference(h, forbidden=()):
    """Deterministic backtracking: always matches the smallest unmatched
    vertex, trying its usable edges in edge-id order.  Exponential in the
    worst case and recursive once per matched pair; small h only."""
    forbidden = frozenset(forbidden)
    if h.n % 2 != 0:
        return None
    matched = set()
    chosen = []

    def extend():
        v = next((x for x in h.vertices if x not in matched), None)
        if v is None:
            return True
        for eid, u in h.incident(v):
            if eid in forbidden or u in matched:
                continue
            matched.update((v, u))
            chosen.append(eid)
            if extend():
                return True
            chosen.pop()
            matched.difference_update((v, u))
        return False

    return set(chosen) if extend() else None


def find_bridges_bruteforce(g):
    """Definitional bridge finder: delete each edge, count components."""
    base = len(connected_components(g))
    out = set()
    for eid in g.edge_ids:
        reduced = MultiGraph(
            [g.endpoints(f) for f in g.edge_ids if f != eid],
            vertices=g.vertices)
        if len(connected_components(reduced)) > base:
            out.add(eid)
    return frozenset(out)


def bridge_components_reference(g, bridges):
    """The sorted vertex sets of g minus `bridges`, ordered by smallest
    vertex: one BFS avoiding bridge edges from each sorted vertex not yet
    reached."""
    part = {}
    groups = []
    for start in g.vertices:
        if start in part:
            continue
        part[start] = len(groups)
        comp = [start]
        queue = [start]
        while queue:
            v = queue.pop()
            for eid, u in g.incident(v):
                if eid in bridges or u in part:
                    continue
                part[u] = len(groups)
                comp.append(u)
                queue.append(u)
        groups.append(tuple(sorted(comp)))
    return groups


def links_reference(g, v):
    """The adjacent pairs among v's sorted distinct neighbours, each tested
    with `has_edge`, or [] if v has more than three neighbours."""
    nbrs = g.neighbors(v)
    if len(nbrs) > 3:
        return []
    return [p for p in combinations(nbrs, 2) if g.has_edge(*p)]


def edge_distance(g, e, f):
    """Distance between two edges: number of hops between them in edge space.

    0 iff e == f, 1 for edges sharing an endpoint, and generally one more
    than the smallest vertex distance between an endpoint of e and one of f.
    Returns INFINITE when e and f lie in different components.
    """
    g.endpoints(e)
    g.endpoints(f)
    if e == f:
        return 0
    dist = {e: 0}
    frontier = [e]
    while frontier:
        nxt = []
        for cur in frontier:
            for end in g.endpoints(cur):
                for adj, _ in g.incident(end):
                    if adj not in dist:
                        dist[adj] = dist[cur] + 1
                        if adj == f:
                            return dist[adj]
                        nxt.append(adj)
        frontier = nxt
    return INFINITE


def line_graph(g):
    """Simple graph with one vertex per edge of g; adjacency = shared endpoint."""
    pairs = set()
    for v in g.vertices:
        incident = [eid for eid, _ in g.incident(v)]
        for i, e in enumerate(incident):
            for f in incident[i + 1:]:
                if e != f:
                    pairs.add((min(e, f), max(e, f)))
    return MultiGraph(sorted(pairs), vertices=g.edge_ids)


def collect_diamond_strings(g):
    """The diamonds of a substituted g grouped into maximal strings: the
    realizations of its H-edges with at least one diamond."""
    return [s for s in oum_decompose(g).realizations if s.k]


def color_k4_reference(g):
    """Proper 3-edge-coloring of K4: its three perfect matchings, each a
    pair of opposite edges, sorted by (smaller id, larger id) and colored
    1a, 1b, 1c in that order."""
    classes = sorted({tuple(sorted((e, f))) for e in g.edge_ids
                      for f in g.edge_ids
                      if not set(g.endpoints(e)) & set(g.endpoints(f))})
    return {eid: color for color, pair in zip(("1a", "1b", "1c"), classes)
            for eid in pair}


def lifted_cycles(g):
    """The cycles of the 2-factor of H that `color_graph` walks on a
    bridgeless substituted g, lifted to g.  Each is (positions, region):
    the edge ids of its 3m positions in walk order (per H-edge its
    connector, then the next triangle's entry-to-mid and mid-to-exit edges;
    a string connector is read at its attachment on the corner the cycle
    leaves), and every edge of its triangles and connectors."""
    dec = oum_decompose(g)
    tf = two_factor_containing(dec.h)
    out = []
    for eids, verts in zip(tf.cycles, tf.cycle_vertices):
        positions, region = [], set()
        for t, conn in enumerate(eids):
            s = dec.realizations[conn]
            leaving = dec.triangles[verts[t]].corner_for[conn]
            positions.append(s.attach_left_edge if s.attach_left == leaving
                             else s.attach_right_edge)
            region |= s.region_edges()
            nxt = dec.triangles[verts[(t + 1) % len(eids)]]
            x = nxt.corner_for[conn]
            y = nxt.corner_for[eids[(t + 1) % len(eids)]]
            mid = nxt.third_corner(x, y)
            positions += [g.edge_between(x, mid), g.edge_between(mid, y)]
            region |= {g.edge_between(u, v) for u, v in
                       combinations(nxt.vertices, 2)}
        out.append((positions, region | set(positions)))
    return out


def check_h(dec):
    """Assert what `oum_decompose` argues instead of checking: the H of a
    substituted decomposition is cubic and bridgeless."""
    if dec.h is not None:
        assert is_cubic(dec.h) and not find_bridges_bruteforce(dec.h)


def reconstruct(dec):
    """A fresh graph from an `OumDecomposition`'s data (for round-trips)."""
    if dec.variant == IS_K4:
        return gen_k4()
    if dec.variant == RING_OF_DIAMONDS:
        return gen_ring(dec.ring_size)
    return gen_substituted(SubstitutionPlan(dec.h, {
        h_eid: s.k for h_eid, s in enumerate(dec.realizations) if s.k}))


def build_tilde_reference(g, vertices, edge_ids, up_vertex=None):
    """The tilde of one big component of g, by copying the component into a
    graph of its own, completing the copy, and asserting that the whole
    tilde is cubic, 2-edge-connected and claw-free.  Returns the tilde and,
    per tilde edge, its g edge id (None for an added edge)."""
    comp = MultiGraph([g.endpoints(eid) for eid in edge_ids],
                      vertices=vertices)
    b = component_boundary(comp, frozenset(), [
        v for v in comp.vertices if comp.degree(v) == 2], up_vertex)
    v = b.degree2
    if b.r % 2 == 0:
        kept = list(comp.edge_ids)
        added = []
    else:
        drop = {v[0], b.u[0], b.w[0]}
        kept = [eid for eid in comp.edge_ids
                if not set(comp.endpoints(eid)) & drop]
        added = [(b.s[0], b.b[0])]
    added += [(v[j], v[j + 1]) for j in range(b.r % 2, b.r - 1, 2)]
    tilde = MultiGraph([comp.endpoints(eid) for eid in kept] + added)
    assert is_cubic(tilde) and is_two_edge_connected(tilde)
    assert find_claw(tilde) is None
    return tilde, tuple(edge_ids[eid] for eid in kept) + (None,) * len(added)


def induced_subgraph(g, keep):
    """Subgraph on `keep`; second value maps new edge ids to old ones."""
    keep = set(keep)
    kept_edges = [eid for eid, (u, v) in enumerate(g.edge_list())
                  if u in keep and v in keep]
    sub = MultiGraph([g.endpoints(eid) for eid in kept_edges], vertices=keep)
    return sub, tuple(kept_edges)


def verify_reference(g, coloring, spec):
    """`verify` by a capped edge BFS from every edge of every class."""
    class_of = {label: ci for ci, label in enumerate(spec.labels())}
    by_class = [[] for _ in class_of]
    for eid in g.edge_ids:
        label = coloring.get(eid)
        if label is None:
            raise PartialColoring(f"edge {eid} unassigned")
        if label not in class_of:
            raise BadSpec(f"label {label!r} not in spec {spec.s}")
        by_class[class_of[label]].append(eid)

    out = []
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


def oracle_reference(g, spec, budget):
    """The oracle's verdict by a static-order search: edges sorted by total
    conflict count, heaviest first, each trying its classes in order, with
    the same equal-value symmetry break.  Recursive once per edge and
    without a verified coloring; returns FEASIBLE, INFEASIBLE or
    BUDGET_EXCEEDED."""
    k = spec.k
    cap = max(spec.s)
    near = [edge_distances_from(g, e, cap=cap) for e in g.edge_ids]
    conflicts = [[tuple(f for f, d in near[e].items() if 0 < d <= s)
                  for e in g.edge_ids] for s in spec.s]
    order = sorted(g.edge_ids,
                   key=lambda e: (-sum(len(c[e]) for c in conflicts), e))
    color = [-1] * g.m
    used = [0] * k
    nodes = 0

    def descend(depth):
        nonlocal nodes
        if depth == g.m:
            return True
        e = order[depth]
        for ci in range(k):
            if ci > 0 and spec.s[ci] == spec.s[ci - 1] and used[ci - 1] == 0:
                continue   # closed until ci-1 is used; later runs stay open
            nodes += 1
            if nodes > budget:
                return None
            if any(color[f] == ci for f in conflicts[ci][e]):
                continue
            color[e] = ci
            used[ci] += 1
            found = descend(depth + 1)
            color[e] = -1
            used[ci] -= 1
            if found is not False:
                return found
        return False

    found = descend(0)
    if found is None:
        return BUDGET_EXCEEDED
    return FEASIBLE if found else INFEASIBLE


def labeled_cubic_multigraphs_reference(n):
    """Every labeled connected loopless cubic multigraph on 0..n-1 in which
    each vertex beyond 0 has a lower-numbered neighbor, in descending
    lexicographic order of the row-major upper-triangle multiplicity
    vector.  Unpruned: 14 958 labelings at n = 8."""
    rem = [3] * n
    edges = []

    def fill(v):
        if v == n:
            yield list(edges)
            return
        if rem[v] == 0:
            yield from fill(v + 1)
            return
        if v > 0 and rem[v] == 3:
            return   # would leave v without a lower-numbered neighbor
        candidates = [u for u in range(v + 1, n) if rem[u] > 0]

        def pick(idx, need):
            if need == 0:
                yield from fill(v + 1)
                return
            if idx >= len(candidates):
                return
            u = candidates[idx]
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
