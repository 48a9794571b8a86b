"""Decompositions of claw-free cubic graphs.

Two structures are computed here.  For 2-edge-connected inputs: the
triangle-and-diamond-string decomposition (the graph is K4, a ring of
diamonds, or a cubic multigraph H with every vertex blown up into a triangle
and some edges realized as strings of diamonds).  It reads each vertex's
local shape from the input gate's table of links: in a simple claw-free
cubic graph, the number of edges among a vertex's three neighbours is 1 on
exactly one triangle, 2 inside a diamond, and 3 only in K4.  For inputs
with bridges: the bridge tree, whose components the gate's DFS finds, each
typed once as a K3, a diamond or a big component; and boundary data for
the degree-2 vertices of a big component.  The first decomposition, read
from a big component's part of g, also gives the component's cubic
completion, as an edit of its H.

Every structural fact the later coloring stages rely on is asserted here and
surfaced as an error when violated, so a bad input fails loudly at the
decomposition stage rather than producing a wrong coloring.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
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
    """Maximal chain of diamonds, oriented from attach_left to attach_right.

    ``connectors[i]`` joins diamonds i and i+1.  The attachment edges join
    the boundary vertices (which are not part of the string) to the first
    and last diamond.
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

    @property
    def vertices(self) -> FrozenSet[VertexId]:
        out: Set[VertexId] = set()
        for d in self.diamonds:
            out |= d.vertices
        return frozenset(out)

    def region_edges(self) -> FrozenSet[EdgeId]:
        """Every edge this string is responsible for coloring."""
        out = {self.attach_left_edge, self.attach_right_edge}
        out.update(self.connectors)
        for d in self.diamonds:
            out.update(d.edges)
        return frozenset(out)

    def reversed(self) -> "DiamondString":
        return DiamondString(
            diamonds=tuple(reversed(self.diamonds)),
            connectors=tuple(reversed(self.connectors)),
            attach_left=self.attach_right,
            attach_left_edge=self.attach_right_edge,
            attach_right=self.attach_left,
            attach_right_edge=self.attach_left_edge)


def _external_exit(g: MultiGraph, d: Diamond, x: VertexId
                   ) -> Tuple[EdgeId, VertexId]:
    """The single edge leaving the diamond at external vertex x."""
    outs = [(eid, u) for eid, u in g.incident(x) if eid not in d.edges]
    if len(outs) != 1:
        raise NotDecomposable(
            f"external vertex {x!r} has {len(outs)} edges leaving its diamond")
    return outs[0]


def _strings_of(g: MultiGraph, diamonds: List[Diamond]
                ) -> Optional[List[DiamondString]]:
    """Group the diamonds of a connected g into maximal strings, or None if
    they form a ring: k >= 2 disjoint diamonds on all 4k vertices of g,
    every external's outside edge reaching another diamond.

    Raises NotDecomposable if diamonds overlap or chain into a closed cycle
    that is not such a ring.
    """
    owner: Dict[VertexId, int] = {}
    for i, d in enumerate(diamonds):
        for v in d.vertices:
            if v in owner:
                raise NotDecomposable(f"vertex {v!r} lies in two diamonds")
            owner[v] = i

    # neighbor diamonds via the unique outside edge at each external vertex
    links: Dict[int, List[Tuple[EdgeId, VertexId, VertexId, Optional[int]]]] = {}
    for i, d in enumerate(diamonds):
        entries = []
        for x in d.external:
            eid, u = _external_exit(g, d, x)
            entries.append((eid, x, u, owner.get(u)))
        links[i] = entries
    if len(diamonds) >= 2 and 4 * len(diamonds) == g.n and all(
            o not in (None, i) for i, entries in links.items()
            for (_, _, _, o) in entries):
        return None

    strings: List[DiamondString] = []
    used: Set[int] = set()
    for i, d in enumerate(diamonds):
        if i in used:
            continue
        neighbor_count = sum(1 for (_, _, _, o) in links[i] if o is not None)
        if neighbor_count == 2:
            continue  # interior of some string; reached from an end
        # walk the chain starting at this end diamond
        chain = [i]
        used.add(i)
        prev = None
        cur = i
        while True:
            nxt = [o for (_, _, _, o) in links[cur]
                   if o is not None and o != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            if cur in used:
                raise NotDecomposable("diamonds chain into a closed cycle")
            used.add(cur)
            chain.append(cur)
        strings.append(_orient_string(g, diamonds, links, chain))
    if len(used) != len(diamonds):
        raise NotDecomposable("diamonds chain into a closed cycle")
    return strings


def _orient_string(g, diamonds, links, chain) -> DiamondString:
    first, last = chain[0], chain[-1]
    if len(chain) == 1:
        ends = [(eid, x, u) for (eid, x, u, o) in links[first] if o is None]
        if len(ends) != 2:
            raise NotDecomposable("lone diamond without two free externals")
        ends.sort(key=lambda t: t[2])
        left, right = ends
    else:
        lefts = [(eid, x, u) for (eid, x, u, o) in links[first] if o is None]
        rights = [(eid, x, u) for (eid, x, u, o) in links[last] if o is None]
        if len(lefts) != 1 or len(rights) != 1:
            raise NotDecomposable("string end diamond without a free external")
        left, right = lefts[0], rights[0]
        if right[2] < left[2]:  # deterministic orientation: smaller attach left
            chain = list(reversed(chain))
            first, last = last, first
            left, right = right, left

    ordered = [diamonds[i] for i in chain]
    connectors: List[EdgeId] = []
    facing = left[1]
    for pos, i in enumerate(chain):
        d = diamonds[i]
        other = next(x for x in d.external if x != facing)
        if pos + 1 < len(chain):
            eid, u = _external_exit(g, d, other)
            connectors.append(eid)
            nxt = diamonds[chain[pos + 1]]
            if u not in nxt.external:
                raise NotDecomposable("connector does not reach the next "
                                      "diamond's external vertex")
            facing = u
    return DiamondString(
        diamonds=tuple(ordered), connectors=tuple(connectors),
        attach_left=left[2], attach_left_edge=left[0],
        attach_right=right[2], attach_right_edge=right[0])


# ---------------------------------------------------------------------------
# the 2-edge-connected decomposition
# ---------------------------------------------------------------------------

@dataclass
class Triangle:
    """A substituted triangle; corner_for maps an H-edge id to the corner
    vertex whose outgoing edge realizes that H-edge."""
    vertices: Tuple[VertexId, VertexId, VertexId]
    edge_ids: Tuple[EdgeId, EdgeId, EdgeId]
    corner_for: Dict[int, VertexId] = field(default_factory=dict)

    def third_corner(self, a: VertexId, b: VertexId) -> VertexId:
        return next(v for v in self.vertices if v not in (a, b))


@dataclass
class EdgeRealization:
    """How one H-edge appears in G: a plain edge or a string of diamonds.

    corner_a lies in the triangle of the H-edge's first endpoint and
    corner_b in the second; a string realization is oriented so that
    attach_left == corner_a.
    """
    corner_a: VertexId
    corner_b: VertexId
    plain_eid: Optional[EdgeId] = None
    string: Optional[DiamondString] = None

    @property
    def is_string(self) -> bool:
        return self.string is not None


@dataclass
class OumDecomposition:
    variant: str
    ring_size: Optional[int] = None
    h: Optional[MultiGraph] = None
    triangles: Optional[Tuple[Triangle, ...]] = None
    realizations: Optional[Tuple[EdgeRealization, ...]] = None
    # K4 and loop leaves: their one diamond, or a ring's diamonds
    diamonds: Optional[Tuple[Diamond, ...]] = None

    def string_lengths(self) -> Tuple[int, ...]:
        if self.variant != SUBSTITUTED:
            return ()
        return tuple(sorted(r.string.k for r in self.realizations
                            if r.is_string))


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


def _leaving(strings: List[DiamondString], corner: VertexId
             ) -> Optional[DiamondString]:
    """The string attached at `corner`, oriented to leave it, or None."""
    s = next((s for s in strings
              if corner in (s.attach_left, s.attach_right)), None)
    return s if s is None or s.attach_left == corner else s.reversed()


def _joined(at_u: Optional[DiamondString], sb_eid: EdgeId,
            at_w: Optional[DiamondString], s1: VertexId, b1: VertexId
            ) -> DiamondString:
    """The string through s1b1 made of the H-edges at u1 and w1, each a
    string leaving its corner or None for a plain edge, not both None."""
    if at_u is None:
        return replace(at_w, attach_left=s1, attach_left_edge=sb_eid)
    at_u = at_u.reversed()
    if at_w is None:
        return replace(at_u, attach_right=b1, attach_right_edge=sb_eid)
    return replace(at_u, diamonds=at_u.diamonds + at_w.diamonds,
                   connectors=at_u.connectors + (sb_eid,) + at_w.connectors,
                   attach_right=at_w.attach_right,
                   attach_right_edge=at_w.attach_right_edge)


def oum_decompose(g: MultiGraph,
                  vertices: Optional[Sequence[VertexId]] = None,
                  edge_ids: Optional[Sequence[EdgeId]] = None,
                  boundary: Optional[ComponentBoundary] = None,
                  links: Optional[Links] = None) -> OumDecomposition:
    """Decompose a 2-edge-connected simple claw-free cubic graph g, or the
    cubic completion of the big component of g with the sorted `vertices`,
    the `edge_ids` and the `boundary` that `bridge_decompose` holds.

    K4 (one diamond plus the edge joining its externals) and rings of
    diamonds are reported as their own variants with their `diamonds`;
    anything else is expressed as a cubic multigraph H with every vertex
    substituted by a triangle and some H-edges realized as strings of
    diamonds.  The diamonds and the triangles are read from the gate's
    table of `links` in g, built here when not given: every vertex outside
    the strings lies on exactly one triangle.  H's edges are the plain
    edges between two triangles, then one edge per string, ordered by
    (smaller triangle, larger triangle, plain before string, edge id or the
    smallest internal vertex of the string's two end diamonds).

    A component is completed in H, with no graph built.  Even boundary:
    plain H-edges v1v2, v3v4, ....  Odd: v1's triangle is dropped and its
    H-edges at u1 and w1 become one through s1b1, a plain edge, a string's
    end attachment or the connector of two strings; one string at both
    corners leaves a K4 (one diamond) or a ring.  Then v2v3, v4v5, ....
    Added edges take ids g.m, g.m + 1, ...: s1b1 first, then the pairs.

    The precondition is not checked here: `require_clawfree_cubic` checks g,
    connectivity included, which tells a ring of diamonds from strings, and
    `component_boundary` checks the boundary.  Nor is H re-checked.  It is
    cubic: the corner check gives each triangle one H-edge per corner.  It
    has no loops: a string that attaches twice to one triangle raises
    NotDecomposable, and an s1b1 that would be a loop raises
    ClaimViolation("sb-triangle-free").  It is bridgeless: a bridge of the
    component's H would make its plain edge, or each attachment edge of its
    string, a bridge of the component; adding pairs makes no bridge, nor
    does joining the H-edges at u1 and w1 (each a bridge if the joined edge
    were).  An s1 or b1 off the H-edge at u1 or w1 raises NotDecomposable,
    as may input outside the precondition.
    """
    edges = g.edge_list()
    if g.n == 4 and g.m == 6 and g.is_simple():
        # K4, the one simple graph with 4 vertices and 6 edges.  Its
        # internal edge is the smaller of the opposite pair with the largest
        # smaller id, so that pair's perfect matching is the last by ids
        internal_edge = max(p for p in combinations(g.edge_ids, 2)
                            if not set(edges[p[0]]) & set(edges[p[1]]))[0]
        z, w = sorted(edges[internal_edge])
        return OumDecomposition(variant=IS_K4, diamonds=(Diamond(
            (z, w), tuple(v for v in g.vertices if v not in (z, w)),
            internal_edge, frozenset(g.incident_edges(z)
                                     + g.incident_edges(w))),))
    if vertices is None:
        vertices, edge_ids = g.vertices, g.edge_ids
    links = _link_table(g) if links is None else links
    diamonds = find_diamonds(g, vertices, links)
    strings = _strings_of(g, diamonds)
    if strings is None:
        return OumDecomposition(variant=RING_OF_DIAMONDS,
                                ring_size=len(diamonds),
                                diamonds=tuple(diamonds))
    skip: Set[VertexId] = set()
    for s in strings:
        skip |= s.vertices
    deg2 = boundary.degree2 if boundary else ()
    odd = len(deg2) % 2
    if odd:
        u1, w1 = boundary.u[0], boundary.w[0]
        s1, b1 = boundary.s[0], boundary.b[0]
        skip |= {deg2[0], u1, w1}

    tri_sets = _triangle_partition(vertices, links, skip)
    tri_index = {v: ti for ti, tri in enumerate(tri_sets) for v in tri}
    triangles = [Triangle(vertices=(a, b, c), edge_ids=(
        g.edge_between(a, b), g.edge_between(a, c), g.edge_between(b, c)))
        for a, b, c in tri_sets]

    plain_sb = []       # (g.m, (s1, b1)) when s1b1 is a plain H-edge
    if odd:
        at_u, at_w = _leaving(strings, u1), _leaving(strings, w1)
        for corner, ext, s in ((u1, s1, at_u), (w1, b1, at_w)):
            if not (g.has_edge(corner, ext) and (
                    ext in s.diamonds[0].external if s else ext in tri_index)):
                raise NotDecomposable(
                    f"the H-edge at {corner!r} does not reach {ext!r}")
        if at_u is not None and at_u.attach_right == w1:
            if at_u.k == 1:
                return OumDecomposition(variant=IS_K4,
                                        diamonds=tuple(diamonds))
            return OumDecomposition(variant=RING_OF_DIAMONDS,
                                    ring_size=at_u.k,
                                    diamonds=tuple(diamonds))
        if at_u is None and at_w is None:
            ends = (s1, b1)
            plain_sb.append((g.m, ends))
        else:
            strings = [s for s in strings
                       if not {s.attach_left, s.attach_right} & {u1, w1}]
            strings.append(_joined(at_u, g.m, at_w, s1, b1))
            ends = (strings[-1].attach_left, strings[-1].attach_right)
        if tri_index[ends[0]] == tri_index[ends[1]]:
            raise ClaimViolation("sb-triangle-free", (s1, b1))

    # H's edges: (smaller triangle, larger triangle, is string, edge id or
    # end-diamond vertex, one end, other end, string)
    inter = []
    for eid, (u, v) in chain(
            zip(edge_ids, map(edges.__getitem__, edge_ids)), plain_sb,
            enumerate(zip(deg2[odd::2], deg2[odd + 1::2]), g.m + odd)):
        if u in tri_index and v in tri_index and tri_index[u] != tri_index[v]:
            tu, tv = sorted((tri_index[u], tri_index[v]))
            inter.append((tu, tv, False, eid, u, v, None))
    for s in strings:
        tu, tv = sorted((tri_index[s.attach_left], tri_index[s.attach_right]))
        if tu == tv:
            raise NotDecomposable(
                "a diamond string attaches twice to one triangle")
        inter.append((tu, tv, True, min(s.diamonds[0].internal[0],
                                        s.diamonds[-1].internal[0]),
                      s.attach_left, s.attach_right, s))
    inter.sort()
    h_pairs: List[Tuple[int, int]] = []
    realizations: List[EdgeRealization] = []
    for tu, tv, is_string, payload, u, v, s in inter:
        corner_a, corner_b = (u, v) if tri_index[u] == tu else (v, u)
        if is_string:
            if s.attach_left != corner_a:
                s = s.reversed()
            real = EdgeRealization(corner_a, corner_b, string=s)
        else:
            real = EdgeRealization(corner_a, corner_b, plain_eid=payload)
        h_eid = len(h_pairs)
        h_pairs.append((tu, tv))
        realizations.append(real)
        triangles[tu].corner_for[h_eid] = corner_a
        triangles[tv].corner_for[h_eid] = corner_b

    h = build_graph(h_pairs, vertices=range(len(triangles)))
    for ti, tri in enumerate(triangles):
        if sorted(tri.corner_for.values()) != sorted(tri.vertices):
            raise NotDecomposable(
                f"triangle {tri.vertices} corners do not match its H-edges")
    assert len(vertices) == 3 * h.n + len(skip)

    return OumDecomposition(variant=SUBSTITUTED, h=h,
                            triangles=tuple(triangles),
                            realizations=tuple(realizations))


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
