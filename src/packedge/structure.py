"""Decompositions of claw-free cubic graphs.

Two structures are computed here.  For 2-edge-connected inputs: the
triangle-and-diamond-string decomposition (the graph is K4, a ring of
diamonds, or a cubic multigraph H with every vertex blown up into a triangle
and every edge realized as a string of diamonds, a plain edge being a
string of none).  It reads each vertex's local shape from the input gate's
table of links: in a simple claw-free cubic graph, the number of edges
among a vertex's three neighbours is 1 on exactly one triangle, 2 inside a
diamond, and 3 only in K4.  H is then read by one walk per H-edge, from a
triangle corner through the diamonds of its string to the far corner.  For
inputs with bridges: the bridge tree, whose components the gate's DFS
finds, each typed once as a K3, a diamond or a big component; and boundary
data for the degree-2 vertices of a big component.  The first
decomposition, read from a big component's part of g, also gives the
component's cubic completion, as an edit of its H.

Every structural fact the later coloring stages rely on is asserted here and
surfaced as an error when violated, so a bad input fails loudly at the
decomposition stage rather than producing a wrong coloring.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from .graph import EdgeId, GraphError, MultiGraph, VertexId, build_graph
from .recognize import (BridgeSet, GateFacts, Links, _bridge_dfs,
                        _link_table)

IS_K4 = "k4"
RING_OF_DIAMONDS = "ring-of-diamonds"
SUBSTITUTED = "substituted"

K3_COMPONENT = "k3"
DIAMOND_COMPONENT = "diamond"
BIG_COMPONENT = "big"


class NotDecomposable(GraphError):
    """The structural decomposition's assertions failed for this input."""


class ClassificationFailed(GraphError):
    """A bridge-tree component matches none of the three allowed shapes."""


class ClaimViolation(GraphError):
    """A structural claim about component boundaries failed.

    Carries the claim id and a witness so tests can pin down what broke.
    """

    def __init__(self, claim: str, witness):
        super().__init__(f"claim {claim!r} violated by {witness!r}")
        self.claim = claim
        self.witness = witness


# ---------------------------------------------------------------------------
# diamonds and strings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diamond:
    """Induced K4-minus-an-edge: internal pair adjacent, externals not."""
    internal: Tuple[VertexId, VertexId]
    external: Tuple[VertexId, VertexId]
    internal_edge: EdgeId
    edges: FrozenSet[EdgeId]

    @property
    def vertices(self) -> FrozenSet[VertexId]:
        return frozenset(self.internal) | frozenset(self.external)

    def external_pairs(self, g: MultiGraph
                       ) -> Tuple[Tuple[EdgeId, EdgeId], Tuple[EdgeId, EdgeId]]:
        """The two pairs of non-adjacent external edges, smallest id first."""
        x, y = self.external
        z, w = self.internal
        pair_a = (g.edge_between(x, z), g.edge_between(y, w))
        pair_b = (g.edge_between(x, w), g.edge_between(y, z))
        pairs = sorted([tuple(sorted(pair_a)), tuple(sorted(pair_b))])
        return pairs[0], pairs[1]


def find_diamonds(g: MultiGraph, vertices: Optional[Iterable[VertexId]] = None,
                  links: Optional[Links] = None) -> List[Diamond]:
    """All induced diamonds of a simple graph of maximum degree 3 with their
    internal pair in `vertices` (default: all of g), by internal pair.

    A vertex z with two links is internal: its partner w is the neighbour in
    both links, and the other two neighbours are the externals.  w then has
    the same three links, so each diamond is reported once, from the smaller
    of z and w.  The `links` are the gate's table of g, built here by the
    gate's rule when not given, and the scan is linear in m.
    """
    links = _link_table(g) if links is None else links
    out = []
    for z in (g.vertices if vertices is None else vertices):
        z_links = links[z]
        if len(z_links) != 2:
            continue
        a, b = map(set, z_links)
        (w,) = a & b
        if w < z:
            continue
        out.append(Diamond(
            internal=(z, w), external=tuple(sorted(a ^ b)),
            internal_edge=g.edge_between(z, w),
            edges=frozenset(g.incident_edges(z) + g.incident_edges(w))))
    return out


@dataclass(frozen=True)
class DiamondString:
    """The realization of one H-edge: a chain of k >= 0 diamonds, oriented
    from attach_left to attach_right.

    ``connectors[i]`` joins diamonds i and i+1.  The attachment edges join
    the triangle corners at the ends (which are not part of the string) to
    the first and last diamond.  A plain edge is the string of no diamonds,
    both of whose attachment edges are that edge.
    """
    diamonds: Tuple[Diamond, ...]
    connectors: Tuple[EdgeId, ...]
    attach_left: VertexId
    attach_left_edge: EdgeId
    attach_right: VertexId
    attach_right_edge: EdgeId

    @property
    def k(self) -> int:
        return len(self.diamonds)

    def region_edges(self) -> FrozenSet[EdgeId]:
        """Every edge this string is responsible for coloring."""
        out = {self.attach_left_edge, self.attach_right_edge}
        out.update(self.connectors)
        for d in self.diamonds:
            out.update(d.edges)
        return frozenset(out)


# ---------------------------------------------------------------------------
# the 2-edge-connected decomposition
# ---------------------------------------------------------------------------

@dataclass
class Triangle:
    """A substituted triangle; corner_for maps an H-edge id to the corner
    vertex whose outgoing edge realizes that H-edge."""
    vertices: Tuple[VertexId, VertexId, VertexId]
    corner_for: Dict[int, VertexId] = field(default_factory=dict)

    def third_corner(self, a: VertexId, b: VertexId) -> VertexId:
        return next(v for v in self.vertices if v not in (a, b))


@dataclass
class OumDecomposition:
    variant: str
    ring_size: Optional[int] = None
    h: Optional[MultiGraph] = None
    triangles: Optional[Tuple[Triangle, ...]] = None
    # per H-edge, its string oriented from its corner in the smaller triangle
    realizations: Optional[Tuple[DiamondString, ...]] = None
    # K4 and loop leaves: their one diamond, or a ring's diamonds
    diamonds: Optional[Tuple[Diamond, ...]] = None

    def string_lengths(self) -> Tuple[int, ...]:
        if self.variant != SUBSTITUTED:
            return ()
        return tuple(sorted(s.k for s in self.realizations if s.k))


def _triangle_partition(vertices: Iterable[VertexId], links: Links,
                        skip: Set[VertexId]) -> List[Tuple[VertexId, ...]]:
    """`vertices` outside `skip`, partitioned into triangles sorted by
    smallest vertex: each such vertex has one link, and its triangle is the
    one that link closes."""
    tri_of: Dict[VertexId, Tuple[VertexId, ...]] = {}
    for v in vertices:
        if v in skip:
            continue
        v_links = links[v]
        if len(v_links) != 1:
            raise NotDecomposable(
                f"vertex {v!r} lies in {len(v_links)} triangles")
        tri_of[v] = tuple(sorted((v,) + v_links[0]))
    for tri in tri_of.values():
        if any(tri_of.get(u) != tri for u in tri):
            raise NotDecomposable(
                f"triangle {tri} overlaps a string or another triangle")
    return sorted(set(tri_of.values()))


def oum_decompose(g: MultiGraph,
                  vertices: Optional[Sequence[VertexId]] = None,
                  boundary: Optional[ComponentBoundary] = None,
                  links: Optional[Links] = None) -> OumDecomposition:
    """Decompose a 2-edge-connected simple claw-free cubic graph g, or the
    cubic completion of the big component of g with the sorted `vertices`
    and the `boundary` that `bridge_decompose` holds.

    K4 (one diamond plus the edge joining its externals) and rings of
    diamonds are reported as their own variants with their `diamonds`;
    anything else is expressed as a cubic multigraph H with every vertex
    substituted by a triangle and every H-edge realized as a string of
    diamonds, a plain edge being a string of none.  The diamonds and the
    triangles are read from the gate's table of `links` in g, built here
    when not given: every vertex outside the diamonds lies on exactly one
    triangle.  Each H-edge is then read by one walk: from each triangle
    corner in turn, along the edge leaving its triangle and, while that
    reaches a diamond's external, across the diamond and out at its other
    external, until a corner is reached.  A corner that ended an earlier
    walk is not walked again, so each H-edge is walked, and its string
    oriented, from its corner in the smaller triangle.  H's edges are
    ordered by (smaller triangle, larger triangle, plain before string,
    edge id or the smallest internal vertex of the string's two end
    diamonds).  With no triangle, g is a ring, or the completion a K4 (one
    diamond) or a ring.

    A component is completed in H, with no graph built: its added edges,
    ids g.m, g.m + 1, ..., replace the edge that leaves a vertex's triangle
    or diamond in the walk.  Even boundary: v1v2, v3v4, ....  Odd: v1's
    triangle is dropped, s1b1 (id g.m) joins the H-edges at u1 and w1 into
    one, and then v2v3, v4v5, ....

    The precondition is not checked here: `require_clawfree_cubic` checks g,
    connectivity included, which tells a ring of diamonds from strings, and
    `component_boundary` checks the boundary.  Nor is H re-checked.  It is
    cubic: the corner check gives each triangle one H-edge per corner.  It
    has no loops: a walk that returns to its own triangle raises
    NotDecomposable, or ClaimViolation("sb-triangle-free") through s1b1.
    It is bridgeless: a bridge of the component's H would make each edge of
    its walk a bridge of the component; adding pairs makes no bridge, nor
    does joining the H-edges at u1 and w1 (each a bridge if the joined edge
    were).  An s1 or b1 off the H-edge at u1 or w1 raises NotDecomposable,
    as may input outside the precondition.
    """
    if g.n == 4 and g.m == 6 and g.is_simple():
        # K4, the one simple graph with 4 vertices and 6 edges.  Its
        # internal edge is the smaller of the opposite pair with the largest
        # smaller id, so that pair's perfect matching is the last by ids
        edges = g.edge_list()
        internal_edge = max(p for p in combinations(g.edge_ids, 2)
                            if not set(edges[p[0]]) & set(edges[p[1]]))[0]
        z, w = sorted(edges[internal_edge])
        return OumDecomposition(variant=IS_K4, diamonds=(Diamond(
            (z, w), tuple(v for v in g.vertices if v not in (z, w)),
            internal_edge, frozenset(g.incident_edges(z)
                                     + g.incident_edges(w))),))
    if vertices is None:
        vertices = g.vertices
    links = _link_table(g) if links is None else links
    diamonds = find_diamonds(g, vertices, links)
    skip = set(chain.from_iterable(d.vertices for d in diamonds))
    if len(skip) != 4 * len(diamonds):
        raise NotDecomposable("two diamonds share a vertex")
    # each external's diamond and the diamond's other external
    across: Dict[VertexId, Tuple[int, VertexId]] = {}
    for i, d in enumerate(diamonds):
        x, y = d.external
        across[x], across[y] = (i, y), (i, x)
    # the completion's added edges, by end vertex: each edge and its other end
    deg2 = boundary.degree2 if boundary else ()
    odd = len(deg2) % 2
    added: Dict[VertexId, Tuple[EdgeId, VertexId]] = {}
    for eid, (a, b) in enumerate(zip(deg2[odd::2], deg2[odd + 1::2]),
                                 g.m + odd):
        added[a], added[b] = (eid, b), (eid, a)
    if odd:
        u1, w1 = boundary.u[0], boundary.w[0]
        s1, b1 = boundary.s[0], boundary.b[0]
        added[s1], added[b1] = (g.m, b1), (g.m, s1)
        skip |= {deg2[0], u1, w1}

    tri_sets = _triangle_partition(vertices, links, skip)
    tri_index = {v: ti for ti, tri in enumerate(tri_sets) for v in tri}
    if odd:
        for corner, ext in ((u1, s1), (w1, b1)):
            if not (g.has_edge(corner, ext)
                    and (ext in across or ext in tri_index)):
                raise NotDecomposable(
                    f"the H-edge at {corner!r} does not reach {ext!r}")
    if not tri_sets:
        # a ring, or a loop leaf whose string at u1 returns at w1
        if len(diamonds) == 1:
            return OumDecomposition(variant=IS_K4, diamonds=tuple(diamonds))
        return OumDecomposition(variant=RING_OF_DIAMONDS,
                                ring_size=len(diamonds),
                                diamonds=tuple(diamonds))

    def leave(v: VertexId, group: Tuple[VertexId, ...]
              ) -> Tuple[EdgeId, VertexId]:
        """The edge leaving v's triangle, or the diamond with internal
        pair `group`, and its other end."""
        if v in added:
            return added[v]
        out = [(eid, u) for eid, u in g.incident(v) if u not in group]
        if len(out) != 1:
            raise NotDecomposable(f"vertex {v!r} has {len(out)} edges "
                                  "leaving its triangle or diamond")
        return out[0]

    # H's edges: (smaller triangle, larger triangle, is string, edge id or
    # end-diamond vertex, string)
    walks = []
    walked = [False] * len(diamonds)
    ended: Set[VertexId] = set()
    for ta, tri in enumerate(tri_sets):
        for corner in tri:
            if corner in ended:
                continue
            eid, u = leave(corner, tri)
            path, ds = [eid], []
            while u in across:
                i, y = across[u]
                if walked[i]:
                    raise NotDecomposable("diamonds chain into a closed cycle")
                walked[i] = True
                ds.append(diamonds[i])
                eid, u = leave(y, diamonds[i].internal)
                path.append(eid)
            tb = tri_index.get(u)
            if tb is None:
                raise NotDecomposable(
                    f"the H-edge at {corner!r} reaches no triangle")
            if tb == ta:
                if g.m in path:
                    raise ClaimViolation("sb-triangle-free", (s1, b1))
                raise NotDecomposable(
                    "a diamond string attaches twice to one triangle")
            ended.add(u)
            walks.append((ta, tb, bool(ds), min(
                ds[0].internal[0], ds[-1].internal[0]) if ds else eid,
                DiamondString(tuple(ds), tuple(path[1:-1]), corner, path[0],
                              u, eid)))
    if not all(walked):
        raise NotDecomposable("diamonds chain into a closed cycle")
    walks.sort()

    triangles = [Triangle(vertices=tri) for tri in tri_sets]
    for h_eid, (ta, tb, _, _, s) in enumerate(walks):
        triangles[ta].corner_for[h_eid] = s.attach_left
        triangles[tb].corner_for[h_eid] = s.attach_right
    h = build_graph([w[:2] for w in walks], vertices=range(len(triangles)))
    for tri in triangles:
        if sorted(tri.corner_for.values()) != sorted(tri.vertices):
            raise NotDecomposable(
                f"triangle {tri.vertices} corners do not match its H-edges")
    assert len(vertices) == 3 * h.n + len(skip)

    return OumDecomposition(variant=SUBSTITUTED, h=h,
                            triangles=tuple(triangles),
                            realizations=tuple(w[4] for w in walks))


# ---------------------------------------------------------------------------
# bridge decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpEdge:
    """The unique bridge from a component to its parent: p below, q above."""
    p: VertexId
    q: VertexId
    bridge: EdgeId


@dataclass
class BridgeDecomposition:
    """Components of g minus its bridges, indexed in parallel: component i
    has the sorted `vertices[i]`, its edges `edge_maps[i]` in increasing G
    edge id, its shape `kinds[i]`, for a diamond `diamonds[i]` (in G's edge
    ids) and for a big component its `boundaries[i]`, v_1 at its up edge
    (each None for the other kinds)."""
    bridges: FrozenSet[EdgeId]
    vertices: Tuple[Tuple[VertexId, ...], ...]
    kinds: Tuple[str, ...]
    diamonds: Tuple[Optional[Diamond], ...]
    boundaries: Tuple[Optional[ComponentBoundary], ...]
    edge_maps: Tuple[Tuple[EdgeId, ...], ...]
    tree: Tuple[Tuple[int, ...], ...]
    root: int
    levels: Tuple[int, ...]
    up_edges: Tuple[Optional[UpEdge], ...]      # None exactly at the root


def _component_shape(g: MultiGraph, verts: Sequence[VertexId],
                     emap: List[EdgeId], cut: Counter
                     ) -> Tuple[str, Optional[Diamond], List[VertexId]]:
    """The kind of one component of g minus its bridges, its diamond, and
    its vertices of degree 2 in the component, in order; `cut` counts the
    bridges at each vertex.

    g is simple, as `require_clawfree_cubic` checks.  So a component on
    three vertices with three edges is K3, and one on four vertices with
    five edges is K4 minus an edge: a diamond whose internal pair is the two
    vertices of degree 3.
    """
    n, m = len(verts), len(emap)
    deg = [g.degree(v) - cut[v] for v in verts]
    degree2 = [v for v, d in zip(verts, deg) if d == 2]
    if n == 3 and m == 3:
        return K3_COMPONENT, None, degree2
    if n == 4 and m == 5:
        z, w = (v for v, d in zip(verts, deg) if d == 3)
        return DIAMOND_COMPONENT, Diamond(
            internal=(z, w), external=tuple(degree2),
            internal_edge=g.edge_between(z, w), edges=frozenset(emap)), degree2
    degs = tuple(sorted(deg))
    if n >= 5 and degs[-1] == 3:
        return BIG_COMPONENT, None, degree2
    raise ClassificationFailed(
        f"component (n={n}, m={m}, degrees={degs}) matches no case")


def bridge_decompose(g: MultiGraph,
                     facts: Optional[GateFacts] = None) -> BridgeDecomposition:
    """Components of g minus its bridges, typed, with the rooted bridge tree.

    g is a connected simple claw-free cubic graph, as
    `require_clawfree_cubic` checks; its bridges and the components' vertex
    sets are read from the `facts` that gate returns, or found by the
    gate's DFS when not given.  A bridgeless g is the one-component tree:
    one big component, all of g, with an empty boundary, root 0 and no up
    edge.  Otherwise every component is a K3, a
    diamond or a big component (n >= 5, maximum degree 3); any other shape
    raises ClassificationFailed.  A component of g minus its bridges is
    2-edge-connected by definition, so that is not checked again.  The tree
    is rooted at the smallest component index whose eccentricity equals the
    tree's diameter (a leaf on a longest path), and every non-root component
    records the bridge to its parent, where a big one's boundary starts.

    The work is linear in m, up to sorting.  One sweep over the edges
    splits them into components, each typed from its vertices' degrees less
    their bridges, and three BFS passes give every eccentricity: a is a node
    farthest from node 0, b a node farthest from a, and in a tree
    ecc(v) = max(d(a, v), d(b, v)).  No component graph is built: later
    stages read a component from g through `vertices` and `edge_maps`.
    """
    bridges, groups = ((facts.bridges, facts.components) if facts
                       else _bridge_dfs(g))
    if not bridges:
        return BridgeDecomposition(
            bridges=bridges, vertices=(g.vertices,), kinds=(BIG_COMPONENT,),
            diamonds=(None,),
            boundaries=(ComponentBoundary((), (), (), (), ()),),
            edge_maps=(tuple(g.edge_ids),), tree=((),), root=0, levels=(0,),
            up_edges=(None,))

    part = {v: i for i, verts in enumerate(groups) for v in verts}
    c = len(groups)
    assert c == len(bridges) + 1, "bridge tree is not a tree"
    edge_maps: List[List[EdgeId]] = [[] for _ in range(c)]
    for eid, (u, _) in enumerate(g.edge_list()):
        if eid not in bridges:
            edge_maps[part[u]].append(eid)
    cut = Counter(chain.from_iterable(map(g.endpoints, bridges)))
    kinds, diamonds, degree2s = zip(*(_component_shape(g, verts, emap, cut)
                                      for verts, emap in zip(groups, edge_maps)))

    adj: List[Set[int]] = [set() for _ in range(c)]
    tree_edges: Dict[Tuple[int, int], EdgeId] = {}
    for eid in sorted(bridges):
        u, v = g.endpoints(eid)
        a, b = part[u], part[v]
        tree_edges[(min(a, b), max(a, b))] = eid
        adj[a].add(b)
        adj[b].add(a)
    tree = tuple(tuple(sorted(s)) for s in adj)

    def bfs_depths(src: int) -> List[int]:
        depth = [-1] * c
        depth[src] = 0
        queue = [src]
        while queue:
            nn = []
            for x in queue:
                for y in tree[x]:
                    if depth[y] < 0:
                        depth[y] = depth[x] + 1
                        nn.append(y)
            queue = nn
        return depth

    from_0 = bfs_depths(0)
    from_a = bfs_depths(from_0.index(max(from_0)))
    from_b = bfs_depths(from_a.index(max(from_a)))
    ecc = [max(da, db) for da, db in zip(from_a, from_b)]
    diameter = max(ecc)
    root = min(i for i in range(c) if ecc[i] == diameter)
    levels = bfs_depths(root)

    up: List[Optional[UpEdge]] = [None] * c
    for (a, b), eid in tree_edges.items():
        if levels[a] == levels[b] + 1:
            child, parent = a, b
        else:
            assert levels[b] == levels[a] + 1
            child, parent = b, a
        u, v = g.endpoints(eid)
        p, q = (u, v) if part[u] == child else (v, u)
        up[child] = UpEdge(p=p, q=q, bridge=eid)
    assert all(up[i] is not None for i in range(c) if i != root)
    boundaries = tuple(
        component_boundary(g, bridges, degree2s[i],
                           up[i].p if up[i] else None)
        if kinds[i] == BIG_COMPONENT else None for i in range(c))

    return BridgeDecomposition(
        bridges=bridges, vertices=groups,
        kinds=kinds, diamonds=diamonds, boundaries=boundaries,
        edge_maps=tuple(tuple(emap) for emap in edge_maps), tree=tree,
        root=root, levels=tuple(levels), up_edges=tuple(up))


# ---------------------------------------------------------------------------
# component boundary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentBoundary:
    """Boundary data for a big component: per degree-2 vertex v_j, its
    triangle partners u_j, w_j and their outward extensions s_j, b_j."""
    degree2: Tuple[VertexId, ...]
    u: Tuple[VertexId, ...]
    w: Tuple[VertexId, ...]
    s: Tuple[VertexId, ...]
    b: Tuple[VertexId, ...]

    @property
    def r(self) -> int:
        return len(self.degree2)


def component_boundary(g: MultiGraph, bridges: BridgeSet,
                       degree2: Iterable[VertexId],
                       up_vertex: Optional[VertexId] = None
                       ) -> ComponentBoundary:
    """Ordered boundary of a big component of g, given its vertices of
    degree 2 in the component, whose edges are their edges in g outside
    `bridges` (a standalone component is all of g with no bridges); v_1 =
    up_vertex when given, the others in increasing order.

    Checks the structural claims the coloring relies on: every degree-2
    vertex lies on a triangle, the degree-2 vertices are independent, and
    the outward extensions s_j, b_j are distinct degree-3 vertices, each
    claim from the edges near one degree-2 vertex.
    """
    def inner(v: VertexId) -> List[VertexId]:
        return [u for eid, u in g.incident(v) if eid not in bridges]

    deg2 = sorted(degree2)
    boundary = set(deg2)
    if up_vertex is not None:
        if up_vertex not in boundary:
            raise ClaimViolation("up-vertex-degree", up_vertex)
        deg2 = [up_vertex] + [v for v in deg2 if v != up_vertex]

    us, ws, ss, bs = [], [], [], []
    for v in deg2:
        nbrs = sorted(set(inner(v)))
        adjacent = boundary.intersection(nbrs)
        if adjacent:
            raise ClaimViolation("independent-set", (v, min(adjacent)))
        if len(nbrs) != 2:
            raise ClaimViolation("boundary-degree", v)
        uj, wj = nbrs
        if not g.has_edge(uj, wj):
            raise ClaimViolation("triangle", v)
        sj = set(inner(uj)) - {v, wj}
        bj = set(inner(wj)) - {v, uj}
        if len(sj) != 1 or len(bj) != 1:
            raise ClaimViolation("extension-count", v)
        sj, bj = sj.pop(), bj.pop()
        if sj == bj:
            raise ClaimViolation("distinct-extensions", (v, sj))
        if len(inner(sj)) != 3 or len(inner(bj)) != 3:
            raise ClaimViolation("extension-degree", (v, sj, bj))
        us.append(uj)
        ws.append(wj)
        ss.append(sj)
        bs.append(bj)
    return ComponentBoundary(degree2=tuple(deg2), u=tuple(us), w=tuple(ws),
                             s=tuple(ss), b=tuple(bs))
