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
  H (see `oum_decompose`); a 2-factor of H is lifted to cycles of g, even
  cycles alternate two matchings, each odd cycle spends a single 3a on one
  connector, strings take their colors from the color their H-edge would
  have carried, and everything left (triangle chords and matching edges)
  is the third matching color;
* an odd boundary is patched locally around the dropped triangle (the new
  3a goes on whichever of the two candidate edges is farther from the
  existing 3a edges); K3s take the three matching colors, and each bridge
  takes the color missing at its parent endpoint while each child permutes
  its three matching colors to agree.

Every free choice has one deterministic answer.  Each lifted cycle is
colored from one start connector, its smallest by canonical key, which
takes 1a on an even cycle and the single 3a on an odd one; the cycle
alternates from there.  On an odd component's completion the added edge
s1b1 moves only its own cycle's start: to s1b1 on an even cycle, to the
smallest connector an odd number of steps before it on an odd one.  A loop
leaf, whose completion is K4 or a ring, takes fixed colors that give s1b1
1a.  A string standing in for the 3a connector takes the 3a at its entry
end, and the odd-boundary patch follows the farther rule with ties on the
w-b side.  Nothing is left to retry, so
`color_graph` checks the finished coloring once with `verify`; a rejection
is an internal bug and raises `ColoringFailed` with the violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import INFINITE, EdgeId, GraphError, MultiGraph, VertexId
from .matching import two_factor_containing
from .recognize import (BridgeSet, NotClawFree, NotConnected, NotCubic,
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


class BadContext(GraphError):
    """Unknown string-coloring context."""


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
# expanded cycles of the substituted decomposition
# ---------------------------------------------------------------------------

@dataclass
class ConnectorSlot:
    """Realization of one 2-factor H-edge along an expanded cycle, oriented
    from the exit corner of one triangle to the entry corner of the next."""
    h_eid: int
    entry_corner: VertexId          # where the cycle leaves its triangle
    exit_corner: VertexId           # where it enters the next one
    plain_eid: Optional[EdgeId] = None
    string: Optional[DiamondString] = None   # oriented: attach_left == entry_corner

    def canonical_key(self) -> EdgeId:
        if self.plain_eid is not None:
            return self.plain_eid
        return min(self.string.region_edges())


@dataclass
class ExpandedCycle:
    """Lift of one H-cycle: triangle edge pairs, chords, connector slots.

    Virtual positions run 0..3m-1: position 3t is the entry-to-mid triangle
    edge of the t-th triangle, 3t+1 the mid-to-exit edge, 3t+2 connector t.
    """
    h_vertices: Tuple[int, ...]
    tri_edges: Tuple[Tuple[EdgeId, EdgeId], ...]
    chords: Tuple[EdgeId, ...]
    slots: Tuple[ConnectorSlot, ...]

    @property
    def m(self) -> int:
        return len(self.h_vertices)

    @property
    def odd(self) -> bool:
        return self.m % 2 == 1


def _expand_cycle(g: MultiGraph, dec: OumDecomposition,
                  cycle_eids: Sequence[int],
                  cycle_vertices: Sequence[int]) -> ExpandedCycle:
    m = len(cycle_vertices)
    tri_edges: List[Tuple[EdgeId, EdgeId]] = []
    chords: List[EdgeId] = []
    slots: List[ConnectorSlot] = []
    for t in range(m):
        hv = cycle_vertices[t]
        c_in = cycle_eids[(t - 1) % m]
        c_out = cycle_eids[t]
        tri = dec.triangles[hv]
        x_t = tri.corner_for[c_in]
        y_t = tri.corner_for[c_out]
        assert x_t != y_t, "cycle enters and leaves a triangle at one corner"
        mid = tri.third_corner(x_t, y_t)
        tri_edges.append((g.edge_between(x_t, mid), g.edge_between(mid, y_t)))
        chords.append(g.edge_between(x_t, y_t))
    for t in range(m):
        c_out = cycle_eids[t]
        real = dec.realizations[c_out]
        entry = dec.triangles[cycle_vertices[t]].corner_for[c_out]
        exit_ = dec.triangles[cycle_vertices[(t + 1) % m]].corner_for[c_out]
        if real.is_string:
            s = real.string
            if s.attach_left != entry:
                s = s.reversed()
            assert s.attach_left == entry and s.attach_right == exit_
            slots.append(ConnectorSlot(c_out, entry, exit_, string=s))
        else:
            assert {real.corner_a, real.corner_b} == {entry, exit_}
            slots.append(ConnectorSlot(c_out, entry, exit_,
                                       plain_eid=real.plain_eid))
    return ExpandedCycle(tuple(cycle_vertices), tuple(tri_edges),
                         tuple(chords), tuple(slots))


def _virtual_colors(cycle: ExpandedCycle, start: int) -> List[str]:
    """Colors of the 3m virtual positions of a lifted cycle.

    Connector `start` takes 1a on an even cycle and the 3a on an odd one;
    from there the cycle alternates, 1b then 1a on an even cycle, 1a then
    1b on an odd one, so both neighbors of the 3a are matching colors.
    """
    total = 3 * cycle.m
    run = [COLOR_1A, COLOR_1B] * (total // 2)
    if cycle.odd:
        run.insert(0, COLOR_3A)
    p = 3 * start + 2
    return [run[(i - p) % total] for i in range(total)]


def color_cycle(cycle: ExpandedCycle, start: int
                ) -> Tuple[EdgeColoring, Dict[int, str]]:
    """Color the real edges of one expanded cycle from connector `start`.

    Returns the partial coloring (triangle edges plus plain connectors; the
    chords are left to the matching color) and the virtual color of every
    string-realized connector, keyed by H-edge id.
    """
    virtual = _virtual_colors(cycle, start)
    out: EdgeColoring = {}
    string_colors: Dict[int, str] = {}
    for t in range(cycle.m):
        e_in, e_out = cycle.tri_edges[t]
        out[e_in] = virtual[3 * t]
        out[e_out] = virtual[3 * t + 1]
        slot = cycle.slots[t]
        if slot.plain_eid is not None:
            out[slot.plain_eid] = virtual[3 * t + 2]
        else:
            string_colors[slot.h_eid] = virtual[3 * t + 2]
    return out, string_colors


# ---------------------------------------------------------------------------
# diamond strings
# ---------------------------------------------------------------------------

TYPE_MATCHING = "type1"
TYPE_CYCLE_1A = "type2.1"
TYPE_CYCLE_1B = "type2.2"
TYPE_CYCLE_3A = "type2.3"


# (external pair, external pair, rest) per string context
_STRING_COLORS = {
    TYPE_MATCHING: (COLOR_1A, COLOR_1B, COLOR_1C),
    TYPE_CYCLE_1A: (COLOR_1B, COLOR_1C, COLOR_1A),
    TYPE_CYCLE_1B: (COLOR_1A, COLOR_1C, COLOR_1B),
    TYPE_CYCLE_3A: (COLOR_1C, COLOR_1A, COLOR_1B),
}


def color_string(g: MultiGraph, string: DiamondString,
                 context: str) -> EdgeColoring:
    """Color every edge of a diamond string region by its context.

    type1 replaces a matching edge: external pairs 1a/1b, the rest 1c.
    type2.1 / type2.2 replace a cycle edge colored 1a / 1b: external pairs
    get the other two matching colors and the rest inherits the cycle color.
    type2.3 replaces the cycle's 3a edge: the entry attachment takes the 3a,
    external pairs get 1c/1a and the rest 1b, so the alternation at both
    boundary triangles stays proper.
    """
    if context not in _STRING_COLORS:
        raise BadContext(f"unknown string context {context!r}")
    out = _diamonds_coloring(g, string.diamonds, string.region_edges(),
                             _STRING_COLORS[context])
    if context == TYPE_CYCLE_3A:
        out[string.attach_left_edge] = COLOR_3A
    return out


# ---------------------------------------------------------------------------
# substituted decompositions
# ---------------------------------------------------------------------------

def _expand_all(g: MultiGraph, dec: OumDecomposition, tf
                ) -> List[ExpandedCycle]:
    return [_expand_cycle(g, dec, eids, verts)
            for eids, verts in zip(tf.cycles, tf.cycle_vertices)]


def _start_slot(cycle: ExpandedCycle, required: Sequence[int]) -> int:
    """The connector a lifted cycle is colored from.

    A cycle through the anchor's H-edge (in `required`) starts at the
    anchor's connector when even; when odd, at the connector of smallest
    canonical key an odd number of steps before it.  Every other cycle
    starts at its connector of smallest canonical key.
    """
    slots = range(cycle.m)
    anchor_slot = next((t for t, slot in enumerate(cycle.slots)
                        if slot.h_eid in required), None)
    if anchor_slot is not None:
        if not cycle.odd:
            return anchor_slot
        slots = [t for t in slots if (anchor_slot - t) % cycle.m % 2]
    return min(slots, key=lambda t: cycle.slots[t].canonical_key())


def _color_substituted(g: MultiGraph, dec: OumDecomposition,
                       anchor: Optional[EdgeId] = None) -> EdgeColoring:
    """Color a substituted decomposition from a 2-factor of H, forced
    through the H-edge that realizes `anchor` when given.  Each lifted cycle
    is colored from its `_start_slot`, so the anchor gets 1a and no edge
    touching it gets 3a; its strings take their cycle color's context, and
    the chords and the 2-factor's complement the third matching color."""
    required = ()
    if anchor is not None:
        required = (next(
            h_eid for h_eid, real in enumerate(dec.realizations)
            if (anchor in real.string.region_edges() if real.is_string
                else real.plain_eid == anchor)),)
    tf = two_factor_containing(dec.h, required)
    coloring: EdgeColoring = {}
    for cycle in _expand_all(g, dec, tf):
        partial, string_colors = color_cycle(cycle,
                                             _start_slot(cycle, required))
        coloring.update(partial)
        for chord in cycle.chords:
            coloring[chord] = COLOR_1C
        for slot in cycle.slots:
            if slot.string is None:
                continue
            c = string_colors[slot.h_eid]
            if c == COLOR_1A:
                ctx = TYPE_CYCLE_1A
            elif c == COLOR_1B:
                ctx = TYPE_CYCLE_1B
            else:
                ctx = TYPE_CYCLE_3A
            coloring.update(color_string(g, slot.string, ctx))
    for h_eid in tf.complement:
        real = dec.realizations[h_eid]
        if real.is_string:
            coloring.update(color_string(g, real.string, TYPE_MATCHING))
        else:
            coloring[real.plain_eid] = COLOR_1C
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
                    boundary: ComponentBoundary) -> EdgeColoring:
    """Color one big component of g, its sorted `vertices` and its edges
    `edge_ids`, in g's edge ids so all its boundary edges stay 1-colored.

    `oum_decompose` completes the component in H, where it argues that the
    completion is a 2-edge-connected claw-free cubic graph; that coloring,
    less the added edges (ids from g.m up), is the component's.  Odd
    boundary: s1b1 is the anchor, and the dropped triangle is patched
    locally; 3a goes to whichever of w1b1 / s1u1 is farther from the 3a
    edges already present.
    """
    dec = oum_decompose(g, vertices, edge_ids, boundary)
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


def _color_bridge_tree(g: MultiGraph, bridges: BridgeSet) -> EdgeColoring:
    """Color the bridge tree of g root-down (see `color_graph`), in g's
    edge ids: K3 edges take the three matching colors, a diamond its ring
    scheme, and a big component is read from g with `color_component`."""
    bd = bridge_decompose(g, bridges)
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
                                  bd.boundaries[idx])
        if up is not None:
            bridge_color = _missing_color_at(g, bd.bridges, final, up.q)
            final[up.bridge] = bridge_color
            child_missing = _missing_color_at(g, bd.bridges, col, up.p)
            if child_missing != bridge_color:
                col = apply_permutation(
                    col, _swap_perm(child_missing, bridge_color))
        final.update(col)

    assert len(final) == g.m, "assembled coloring is not total"
    return final


def color_graph(g: MultiGraph) -> EdgeColoring:
    """Packing edge-coloring of any connected claw-free cubic graph.

    The bridge tree is colored top-down, every bridge taking the matching
    color missing at its parent endpoint and every child permuting its
    matching colors so that same color is missing at its own endpoint; a
    bridgeless graph is a tree of one big component.  The input is checked
    once, by `require_clawfree_cubic`, which raises NotConnected, NotCubic,
    NotClawFree or NotSimple.  The result is checked once with `verify`; a
    rejection raises ColoringFailed.
    """
    coloring = _color_bridge_tree(g, require_clawfree_cubic(g))
    failures = verify(g, coloring, DEFAULT_SPEC)
    if failures:
        raise ColoringFailed(failures)
    return coloring
