"""Constructive packing edge-coloring of connected claw-free cubic graphs.

Every input takes one path: its bridge tree, a bridgeless graph being the
tree of one big component, is colored root-down in the input's edge ids.

* `_diamonds_coloring` is the one 3-edge-coloring of diamonds: each
  diamond's external pairs take two matching colors and its other edges
  the third.  It colors K4 (one diamond plus the edge joining its
  externals), rings of diamonds, loop leaves, diamond components and
  diamond strings, each with its own (pair, pair, rest) colors, so none of
  them uses 3a;
* any other big component is decomposed into triangles and diamond
  strings over a cubic multigraph H, with its cubic completion applied in
  H (see `oum_decompose`); each cycle of a 2-factor of H is walked once,
  triangle by triangle: even cycles alternate two matchings, each odd
  cycle spends a single 3a on one connector, a string takes the (pair,
  pair, rest) colors of the color its H-edge carries, and everything left
  (triangle chords and the 2-factor's complement) is the third matching
  color;
* an odd boundary is patched locally around the dropped triangle (the new
  3a goes on whichever of the two candidate edges is farther from the
  existing 3a edges); K3s take the three matching colors, and each bridge
  takes the color missing at its parent endpoint while each child permutes
  its three matching colors to agree.

Every free choice has one deterministic answer.  Each cycle is walked
from one start connector, its smallest by key (a plain edge's id, a
string's smallest edge id), which takes 1a on an even cycle and the single
3a on an odd one; the cycle alternates from there.  On an odd component's
completion the added edge s1b1 moves only its own cycle's start: to s1b1
on an even cycle, to the smallest key an odd number of steps before it on
an odd one.  A loop leaf, whose completion is K4 or a ring, takes fixed
colors that give s1b1 1a.  A string standing in for the 3a connector puts
the 3a on its attachment at the corner where the cycle leaves a triangle,
and the odd-boundary patch follows the farther rule with ties on the w-b
side.  Nothing is left to retry, so `color_graph` checks the finished
coloring once with `verify`; a rejection is an internal bug and raises
`ColoringFailed` with the violations.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import INFINITE, EdgeId, GraphError, MultiGraph, VertexId
from .matching import two_factor_containing
from .recognize import (BridgeSet, Links, NotClawFree, NotConnected, NotCubic,
                        require_clawfree_cubic)  # the errors are re-exported
from .structure import (BIG_COMPONENT, DIAMOND_COMPONENT, K3_COMPONENT,
                        RING_OF_DIAMONDS, SUBSTITUTED, ComponentBoundary,
                        Diamond, DiamondString, OumDecomposition,
                        bridge_decompose, oum_decompose)
from .verify import DEFAULT_SPEC, Violation, verify

COLOR_1A = "1a"
COLOR_1B = "1b"
COLOR_1C = "1c"
COLOR_3A = "3a"
ONE_COLORS = (COLOR_1A, COLOR_1B, COLOR_1C)
ALL_COLORS = ONE_COLORS + (COLOR_3A,)

EdgeColoring = Dict[EdgeId, str]


class ColoringFailed(GraphError):
    """`verify` rejected the constructed coloring at the `color_graph`
    boundary: a bug in the construction, never a property of the input.
    ``violations`` holds everything `verify` reported."""

    def __init__(self, violations: List[Violation]):
        super().__init__(f"constructed coloring rejected: {violations[:3]}")
        self.violations = violations


def apply_permutation(coloring: EdgeColoring,
                      perm: Dict[str, str]) -> EdgeColoring:
    """Relabel the three matching colors; 3a edges are untouched."""
    if sorted(perm) != sorted(ONE_COLORS) or \
            sorted(perm.values()) != sorted(ONE_COLORS):
        raise ValueError(f"not a permutation of {ONE_COLORS}: {perm}")
    return {eid: perm.get(c, c) for eid, c in coloring.items()}


def _swap_perm(a: str, b: str) -> Dict[str, str]:
    perm = {c: c for c in ONE_COLORS}
    perm[a], perm[b] = b, a
    return perm


# ---------------------------------------------------------------------------
# diamonds: K4, rings, loop leaves, strings and diamond components
# ---------------------------------------------------------------------------

def _diamonds_coloring(g: MultiGraph, diamonds: Sequence[Diamond],
                       edges: Sequence[EdgeId],
                       colors: Tuple[str, str, str] = ONE_COLORS
                       ) -> EdgeColoring:
    """External pairs of every diamond colors[0]/colors[1], every other one
    of `edges` colors[2].  On K4, a ring or a diamond string this is a
    proper 3-edge-coloring: each diamond's internal edge and both edges at
    its externals take colors[2]."""
    pair_color_a, pair_color_b, rest = colors
    out: EdgeColoring = {eid: rest for eid in edges}
    for d in diamonds:
        pair_a, pair_b = d.external_pairs(g)
        for eid in pair_a:
            out[eid] = pair_color_a
        for eid in pair_b:
            out[eid] = pair_color_b
    return out


# ---------------------------------------------------------------------------
# substituted decompositions
# ---------------------------------------------------------------------------

# (external pair, external pair, rest) of a diamond string, by the color its
# H-edge carries: on a cycle the rest inherits 1a or 1b and the pairs take
# the other two; the matching's pairs take 1a/1b; a 3a string's rest is 1b
# and its pairs 1c/1a, so both boundary triangles stay proper.  A plain
# edge, a string of no diamonds, is all rest: it takes the color itself
_STRING_COLORS = {
    COLOR_1A: (COLOR_1B, COLOR_1C, COLOR_1A),
    COLOR_1B: (COLOR_1A, COLOR_1C, COLOR_1B),
    COLOR_1C: (COLOR_1A, COLOR_1B, COLOR_1C),
    COLOR_3A: (COLOR_1C, COLOR_1A, COLOR_1B),
}


def _color_h_edge(g: MultiGraph, s: DiamondString, color: str,
                  leaving: Optional[VertexId], out: EdgeColoring) -> None:
    """Give the string realizing one H-edge the `_STRING_COLORS` triple of
    the `color` the H-edge carries, so a plain edge takes that color; a 3a
    string puts its 3a on the attachment at `leaving`, the corner where the
    cycle leaves the previous triangle.
    """
    out.update(_diamonds_coloring(g, s.diamonds, s.region_edges(),
                                  _STRING_COLORS[color]))
    if color == COLOR_3A:
        out[s.attach_left_edge if s.attach_left == leaving
            else s.attach_right_edge] = COLOR_3A


def _color_substituted(g: MultiGraph, dec: OumDecomposition,
                       anchor: Optional[EdgeId] = None) -> EdgeColoring:
    """Color a substituted decomposition from a 2-factor of H, forced
    through the H-edge that realizes `anchor` when given.

    Each H-cycle is walked once from its start connector: the connector,
    then the next triangle's entry-to-mid and mid-to-exit edges, alternate
    1a and 1b, after a single leading 3a on an odd cycle, and that
    triangle's chord takes 1c.  A connector's key is its plain edge id or
    its string's smallest edge id.  A cycle starts at its smallest key,
    except through the anchor: an even one starts at the anchor, an odd one
    at the smallest key an odd number of steps before it, so the anchor gets
    1a and no edge touching it gets 3a.  The 2-factor's complement takes 1c.
    """
    real_of = dec.realizations
    required = ()
    if anchor is not None:
        required = (next(h_eid for h_eid, s in enumerate(real_of)
                         if anchor in s.region_edges()),)
    tf = two_factor_containing(dec.h, required)
    coloring: EdgeColoring = {}
    for eids, verts in zip(tf.cycles, tf.cycle_vertices):
        m = len(eids)
        at = next((t for t, e in enumerate(eids) if e in required), None)
        if at is not None and not m % 2:
            start = at
        else:
            keys = [min(real_of[e].region_edges()) for e in eids]
            start = min((t for t in range(m)
                         if at is None or (at - t) % m % 2),
                        key=keys.__getitem__)
        colors = itertools.cycle((COLOR_1A, COLOR_1B))
        if m % 2:
            colors = itertools.chain((COLOR_3A,), colors)
        for step in range(start, start + m):
            t, nxt = step % m, (step + 1) % m
            conn = eids[t]
            leaving = dec.triangles[verts[t]].corner_for[conn]
            _color_h_edge(g, real_of[conn], next(colors), leaving, coloring)
            tri = dec.triangles[verts[nxt]]
            x, y = tri.corner_for[conn], tri.corner_for[eids[nxt]]
            assert x != y, "cycle enters and leaves a triangle at one corner"
            mid = tri.third_corner(x, y)
            coloring[g.edge_between(x, mid)] = next(colors)
            coloring[g.edge_between(mid, y)] = next(colors)
            coloring[g.edge_between(x, y)] = COLOR_1C
    for h_eid in tf.complement:
        _color_h_edge(g, real_of[h_eid], COLOR_1C, None, coloring)
    return coloring


# ---------------------------------------------------------------------------
# bridge-tree components
# ---------------------------------------------------------------------------

def _wb_at_least_as_far(g: MultiGraph, bridges: BridgeSet, e_wb: EdgeId,
                        e_su: EdgeId, threes: Sequence[EdgeId]) -> bool:
    """Whether e_wb is at least as far as e_su from the nearest 3a edge.

    One edge BFS in g minus `bridges` (no shortest path between two edges of
    one component uses a bridge) from all of `threes` at once, stopped as
    soon as both targets have a distance; a target never reached is
    infinitely far.
    """
    dist = dict.fromkeys(threes, 0)
    frontier = list(dist)
    d = 0
    while frontier and (e_wb not in dist or e_su not in dist):
        d += 1
        nxt = []
        for cur in frontier:
            for end in g.endpoints(cur):
                for adj, _ in g.incident(end):
                    if adj not in dist and adj not in bridges:
                        dist[adj] = d
                        nxt.append(adj)
        frontier = nxt
    return dist.get(e_wb, INFINITE) >= dist.get(e_su, INFINITE)


# a loop leaf's 3-edge-coloring, with s1b1 1a: in a ring it is a connector,
# so the rest takes 1a; in K4 it shares a matching with the internal edge
_RING_LEAF = (COLOR_1C, COLOR_1B, COLOR_1A)
_K4_LEAF = (COLOR_1B, COLOR_1C, COLOR_1A)


def _color_completion(g: MultiGraph, dec: OumDecomposition,
                      edge_ids: Sequence[EdgeId],
                      anchor: Optional[EdgeId]) -> EdgeColoring:
    """Color a big component's completion, decomposed by `oum_decompose`,
    with `anchor` (s1b1, id g.m, on an odd boundary) 1a and no 3a touching
    it.  A bridgeless K4 or ring takes its diamonds' 3-edge-coloring; a
    loop leaf's diamonds, a K4 or a ring, take the fixed colors above, and
    its other edges, those at the dropped triangle, are left to the
    patch."""
    if dec.variant == SUBSTITUTED:
        return _color_substituted(g, dec, anchor)
    if anchor is None:
        return _diamonds_coloring(g, dec.diamonds, edge_ids)
    return _diamonds_coloring(
        g, dec.diamonds, [anchor, *edge_ids],
        _RING_LEAF if dec.variant == RING_OF_DIAMONDS else _K4_LEAF)


def color_component(g: MultiGraph, bridges: BridgeSet,
                    vertices: Sequence[VertexId], edge_ids: Sequence[EdgeId],
                    boundary: ComponentBoundary,
                    links: Optional[Links] = None) -> EdgeColoring:
    """Color one big component of g, its sorted `vertices` and its edges
    `edge_ids`, in g's edge ids so all its boundary edges stay 1-colored;
    `links` is the gate's table of g (see `oum_decompose`).

    `oum_decompose` completes the component in H, where it argues that the
    completion is a 2-edge-connected claw-free cubic graph; that coloring,
    less the added edges (ids from g.m up), is the component's.  Odd
    boundary: s1b1 is the anchor, and the dropped triangle is patched
    locally; 3a goes to whichever of w1b1 / s1u1 is farther from the 3a
    edges already present.
    """
    dec = oum_decompose(g, vertices, boundary, links)
    odd = boundary.r % 2
    out = {eid: c for eid, c in _color_completion(
        g, dec, edge_ids, g.m if odd else None).items() if eid < g.m}
    if odd:
        v1, u1, w1 = boundary.degree2[0], boundary.u[0], boundary.w[0]
        s1, b1 = boundary.s[0], boundary.b[0]
        e_su = g.edge_between(s1, u1)
        e_uv = g.edge_between(u1, v1)
        e_vw = g.edge_between(v1, w1)
        e_uw = g.edge_between(u1, w1)
        e_wb = g.edge_between(w1, b1)
        threes = [eid for eid, c in out.items() if c == COLOR_3A]
        # ties keep the 3a on the w-b side; only a strictly farther s-u
        # side swaps the roles
        if _wb_at_least_as_far(g, bridges, e_wb, e_su, threes):
            out.update({e_su: COLOR_1A, e_uv: COLOR_1B, e_vw: COLOR_1A,
                        e_uw: COLOR_1C, e_wb: COLOR_3A})
        else:
            out.update({e_wb: COLOR_1A, e_vw: COLOR_1B, e_uv: COLOR_1A,
                        e_uw: COLOR_1C, e_su: COLOR_3A})
    assert len(out) == len(edge_ids)
    return out


# ---------------------------------------------------------------------------
# whole graphs
# ---------------------------------------------------------------------------

def _missing_color_at(g: MultiGraph, bridges: BridgeSet,
                      coloring: EdgeColoring, v: VertexId) -> str:
    """The matching color missing at bridge end v, whose two non-bridge
    edges must carry the other two."""
    colors = {coloring[eid] for eid, _ in g.incident(v) if eid not in bridges}
    left = [c for c in ONE_COLORS if c not in colors]
    assert len(left) == 1, f"bridge end {v!r} sees colors {sorted(colors)}"
    return left[0]


def color_graph(g: MultiGraph) -> EdgeColoring:
    """Packing edge-coloring of any connected claw-free cubic graph.

    The bridge tree is colored root-down in g's edge ids, every bridge
    taking the matching color missing at its parent endpoint and every
    child permuting its matching colors so that same color is missing at
    its own endpoint: K3 edges take the three matching colors, a diamond
    its ring scheme, and a big component is read from g with
    `color_component`.  A bridgeless graph is a tree of one big component.
    The input is checked once, by `require_clawfree_cubic`, which raises
    NotConnected, NotCubic, NotSimple or NotClawFree and hands its bridges,
    components and links on.  The result is checked once with `verify`; a
    rejection raises ColoringFailed.
    """
    facts = require_clawfree_cubic(g)
    bd = bridge_decompose(g, facts)
    assert bd.kinds[bd.root] == BIG_COMPONENT, "root component must be big"
    final: EdgeColoring = {}
    for idx in sorted(range(len(bd.kinds)), key=lambda i: (bd.levels[i], i)):
        emap, kind, up = bd.edge_maps[idx], bd.kinds[idx], bd.up_edges[idx]
        if kind == K3_COMPONENT:
            col = dict(zip(emap, ONE_COLORS))
        elif kind == DIAMOND_COMPONENT:
            col = _diamonds_coloring(g, [bd.diamonds[idx]], emap)
        else:
            col = color_component(g, bd.bridges, bd.vertices[idx], emap,
                                  bd.boundaries[idx], facts.links)
        if up is not None:
            bridge_color = _missing_color_at(g, bd.bridges, final, up.q)
            final[up.bridge] = bridge_color
            child_missing = _missing_color_at(g, bd.bridges, col, up.p)
            if child_missing != bridge_color:
                col = apply_permutation(
                    col, _swap_perm(child_missing, bridge_color))
        final.update(col)

    assert len(final) == g.m, "assembled coloring is not total"
    failures = verify(g, final, DEFAULT_SPEC)
    if failures:
        raise ColoringFailed(failures)
    return final
