"""Constructive packing edge-coloring of connected claw-free cubic graphs.

The construction works case by case over the structure decomposition:

* K4 and rings of diamonds get proper 3-edge-colorings (no 3a at all);
* a 2-edge-connected graph is decomposed into triangles and diamond strings
  over a cubic multigraph H, a 2-factor of H is lifted to cycles of the big
  graph, even cycles alternate two matchings, each odd cycle spends a single
  3a on one connector, strings inherit a scheme from the color their H-edge
  would have carried, and everything left (triangle chords and matching
  edges) is the third matching color;
* graphs with bridges are cut into components along the bridge tree;  big
  components are completed into 2-edge-connected claw-free cubic graphs,
  colored, and for odd boundaries patched locally around the dropped
  triangle (the new 3a goes on whichever of the two candidate edges is
  farther from the existing 3a edges);  the tree is then assembled root-down
  in the input's edge ids, each bridge taking the color missing at its
  parent endpoint and each child permuting its three matching colors to
  agree.

Every free choice has one deterministic answer: an even cycle puts 1a on
its connector of smallest canonical key, an odd cycle spends its 3a on that
connector (the anchored variant: on the smallest one an odd number of steps
before the anchor), a string standing in for the 3a connector takes the 3a
at its entry end, and the odd-boundary patch follows the farther rule with
ties on the w-b side.  The construction leaves nothing to retry, so
`color_graph` checks the finished coloring once with `verify`; a rejection
is an internal bug and raises `ColoringFailed` with the violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import EdgeId, GraphError, MultiGraph, VertexId, edge_distances_from
from .matching import two_factor_containing
from .recognize import BridgeSet, find_bridges, find_claw, is_cubic
from .structure import (BIG_COMPONENT, DIAMOND_COMPONENT, IS_K4, K3_COMPONENT,
                        RING_OF_DIAMONDS, ComponentBoundary, Diamond,
                        DiamondString, OumDecomposition, _ring_size,
                        bridge_decompose, build_tilde, component_boundary,
                        find_diamonds, is_k4, oum_decompose)
from .verify import DEFAULT_SPEC, Violation, verify

COLOR_1A = "1a"
COLOR_1B = "1b"
COLOR_1C = "1c"
COLOR_3A = "3a"
ONE_COLORS = (COLOR_1A, COLOR_1B, COLOR_1C)
ALL_COLORS = ONE_COLORS + (COLOR_3A,)

EdgeColoring = Dict[EdgeId, str]


class NotK4(GraphError):
    pass


class NotRing(GraphError):
    pass


class BadAnchor(GraphError):
    """The 3a anchor is not a connector slot of the given cycle."""


class BadContext(GraphError):
    """Unknown string-coloring context."""


class AnchorOnTriangle(GraphError):
    """Anchored coloring asked for an anchor edge lying on a triangle."""


class NotCubic(GraphError):
    pass


class NotClawFree(GraphError):
    pass


class NotConnected(GraphError):
    pass


class ColoringFailed(GraphError):
    """`verify` rejected the constructed coloring at the `color_graph`
    boundary: a bug in the construction, never a property of the input.
    ``violations`` holds everything `verify` reported."""

    def __init__(self, violations: List[Violation]):
        super().__init__(f"constructed coloring rejected: {violations[:3]}")
        self.violations = violations


@dataclass
class ColorStats:
    """Diagnostics of `color_graph`: `backtracks` counts the colorings its
    boundary check rejected, each of which raised ColoringFailed."""
    backtracks: int = 0


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
# base cases: K4 and rings of diamonds
# ---------------------------------------------------------------------------

def color_k4(g: MultiGraph, anchor: Optional[EdgeId] = None) -> EdgeColoring:
    """Proper 3-edge-coloring of K4: the three perfect matchings.

    With `anchor` given, the anchor's matching gets color 1a.
    """
    if not is_k4(g):
        raise NotK4(f"not K4: n={g.n}, m={g.m}")
    opposite = {}
    for eid in g.edge_ids:
        u, v = g.endpoints(eid)
        opp = next(f for f in g.edge_ids
                   if not set(g.endpoints(f)) & {u, v})
        opposite[eid] = opp
    classes = sorted({tuple(sorted((e, o))) for e, o in opposite.items()})
    if anchor is not None:
        g.endpoints(anchor)
        classes.sort(key=lambda pair: (anchor not in pair, pair))
    out: EdgeColoring = {}
    for color, pair in zip(ONE_COLORS, classes):
        for eid in pair:
            out[eid] = color
    return out


def color_ring(g: MultiGraph, k: Optional[int] = None) -> EdgeColoring:
    """Ring-of-diamonds scheme: external pairs 1a/1b, everything else 1c."""
    diamonds = find_diamonds(g)
    found = _ring_size(g, diamonds)
    if found is None or (k is not None and found != k):
        raise NotRing(f"not a ring of {k or 'any'} diamonds")
    return _diamonds_coloring(g, diamonds, g.edge_ids)


def _diamonds_coloring(g: MultiGraph, diamonds: Sequence[Diamond],
                       edges: Sequence[EdgeId]) -> EdgeColoring:
    """External pairs of every diamond 1a/1b, every other one of `edges` 1c."""
    out: EdgeColoring = {eid: COLOR_1C for eid in edges}
    for d in diamonds:
        pair_a, pair_b = d.external_pairs(g)
        for eid in pair_a:
            out[eid] = COLOR_1A
        for eid in pair_b:
            out[eid] = COLOR_1B
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


def _virtual_colors(cycle: ExpandedCycle, anchor_slot: Optional[int],
                    phase: int) -> List[str]:
    """Colors of the 3m virtual positions of a lifted cycle.

    Even cycles alternate 1a/1b with the given phase; odd cycles put 3a on
    the anchor connector and alternate 1a/1b along the remaining path,
    starting with 1a right after the anchor.
    """
    total = 3 * cycle.m
    if anchor_slot is None:
        if cycle.odd:
            raise BadAnchor("odd cycle needs a 3a anchor")
        return [COLOR_1A if (i - phase) % 2 == 0 else COLOR_1B
                for i in range(total)]
    if not 0 <= anchor_slot < cycle.m:
        raise BadAnchor(f"slot {anchor_slot} outside cycle of length {cycle.m}")
    if not cycle.odd:
        raise BadAnchor("even cycles take no 3a anchor")
    p_anchor = 3 * anchor_slot + 2
    colors = [""] * total
    colors[p_anchor] = COLOR_3A
    for j in range(1, total):
        colors[(p_anchor + j) % total] = COLOR_1A if j % 2 else COLOR_1B
    return colors


def color_cycle(cycle: ExpandedCycle, anchor_slot: Optional[int] = None,
                phase: int = 0) -> Tuple[EdgeColoring, Dict[int, str]]:
    """Color the real edges of one expanded cycle.

    Returns the partial coloring (triangle edges plus plain connectors; the
    chords are left to the matching color) and the virtual color of every
    string-realized connector, keyed by H-edge id.
    """
    virtual = _virtual_colors(cycle, anchor_slot, phase)
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
    if context == TYPE_MATCHING:
        pair_colors, rest = (COLOR_1A, COLOR_1B), COLOR_1C
    elif context == TYPE_CYCLE_1A:
        pair_colors, rest = (COLOR_1B, COLOR_1C), COLOR_1A
    elif context == TYPE_CYCLE_1B:
        pair_colors, rest = (COLOR_1A, COLOR_1C), COLOR_1B
    elif context == TYPE_CYCLE_3A:
        pair_colors, rest = (COLOR_1C, COLOR_1A), COLOR_1B
    else:
        raise BadContext(f"unknown string context {context!r}")

    out: EdgeColoring = {}
    for eid in string.connectors:
        out[eid] = rest
    out[string.attach_left_edge] = rest
    out[string.attach_right_edge] = rest
    for d in string.diamonds:
        out[d.internal_edge] = rest
        pair_a, pair_b = d.external_pairs(g)
        for eid in pair_a:
            out[eid] = pair_colors[0]
        for eid in pair_b:
            out[eid] = pair_colors[1]
    if context == TYPE_CYCLE_3A:
        out[string.attach_left_edge] = COLOR_3A
    return out


# ---------------------------------------------------------------------------
# 2-edge-connected graphs
# ---------------------------------------------------------------------------

def _assemble_substituted(g: MultiGraph, dec: OumDecomposition, tf,
                          cycles: Sequence[ExpandedCycle],
                          choices: Sequence[Tuple[Optional[int], int]]
                          ) -> EdgeColoring:
    """The complete coloring for one (anchor slot, phase) choice per cycle."""
    coloring: EdgeColoring = {}
    for cycle, (anchor_slot, phase) in zip(cycles, choices):
        partial, string_colors = color_cycle(cycle, anchor_slot, phase)
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
    assert len(coloring) == g.m, "assembled coloring is not total"
    return coloring


def _default_choice(cycle: ExpandedCycle) -> Tuple[Optional[int], int]:
    """(anchor slot, phase) for one cycle.

    An even cycle puts 1a on its connector of smallest canonical key; an
    odd cycle spends its 3a on that connector.
    """
    first = min(range(cycle.m), key=lambda t: cycle.slots[t].canonical_key())
    if cycle.odd:
        return first, 0
    return None, (3 * first + 2) % 2


def _expand_all(g: MultiGraph, dec: OumDecomposition, tf
                ) -> List[ExpandedCycle]:
    return [_expand_cycle(g, dec, eids, verts)
            for eids, verts in zip(tf.cycles, tf.cycle_vertices)]


def color_2ec(g: MultiGraph) -> EdgeColoring:
    """Packing edge-coloring of a 2-edge-connected claw-free cubic graph."""
    dec = oum_decompose(g)
    if dec.variant == IS_K4:
        return color_k4(g)
    if dec.variant == RING_OF_DIAMONDS:
        return _diamonds_coloring(g, dec.diamonds, g.edge_ids)
    tf = two_factor_containing(dec.h)
    cycles = _expand_all(g, dec, tf)
    return _assemble_substituted(g, dec, tf, cycles,
                                 [_default_choice(c) for c in cycles])


def _anchor_h_edge(dec: OumDecomposition, anchor: EdgeId) -> int:
    for h_eid, real in enumerate(dec.realizations):
        if real.is_string:
            if anchor in real.string.region_edges():
                return h_eid
        elif real.plain_eid == anchor:
            return h_eid
    raise AnchorOnTriangle(
        f"anchor {anchor} lies inside a triangle or diamond")


def color_2ec_anchored(g: MultiGraph, anchor: EdgeId) -> EdgeColoring:
    """Anchored variant: the anchor edge gets 1a and no edge within distance
    one of it gets 3a.  Requires the anchor to lie on no triangle (K4 and
    rings are the two exceptions, handled by relabeling their 3-colorings).

    The 2-factor is forced through the anchor's H-edge, so the anchor lies
    on a cycle; an even cycle takes the phase that puts 1a on the anchor,
    an odd cycle its 3a on the first slot (by canonical key) an odd number
    of connector steps before the anchor.
    """
    u, v = g.endpoints(anchor)
    dec = oum_decompose(g)
    if dec.variant == IS_K4:
        return color_k4(g, anchor=anchor)
    if dec.variant == RING_OF_DIAMONDS:
        col = _diamonds_coloring(g, dec.diamonds, g.edge_ids)
        if col[anchor] != COLOR_1A:
            col = apply_permutation(col, _swap_perm(col[anchor], COLOR_1A))
        return col
    if set(g.neighbors(u)) & set(g.neighbors(v)):
        raise AnchorOnTriangle(f"anchor edge {anchor} lies on a triangle")
    h_eid0 = _anchor_h_edge(dec, anchor)
    tf = two_factor_containing(dec.h, {h_eid0})
    cycles = _expand_all(g, dec, tf)
    ci0, s0 = next((ci, t) for ci, cycle in enumerate(cycles)
                   for t, slot in enumerate(cycle.slots)
                   if slot.h_eid == h_eid0)

    choices = [_default_choice(c) for c in cycles]
    target = cycles[ci0]
    if target.odd:
        slots = [t for t in range(target.m) if (s0 - t) % target.m % 2 == 1]
        assert slots, "no odd-offset anchor slot exists"
        choices[ci0] = (min(slots,
                            key=lambda t: target.slots[t].canonical_key()), 0)
    else:
        choices[ci0] = (None, (3 * s0 + 2) % 2)
    col = _assemble_substituted(g, dec, tf, cycles, choices)
    assert col[anchor] == COLOR_1A, "anchor edge is not 1a"
    assert all(col[e] != COLOR_3A
               for e in g.incident_edges(u) + g.incident_edges(v)), \
        "a 3a edge touches the anchor"
    return col


# ---------------------------------------------------------------------------
# bridge-tree components
# ---------------------------------------------------------------------------

def _min_distance_to(g_i: MultiGraph, e: EdgeId,
                     targets: Sequence[EdgeId]) -> float:
    if not targets:
        return float("inf")
    dist = edge_distances_from(g_i, e)
    return min(dist.get(t, float("inf")) for t in targets)


def color_component(g_i: MultiGraph,
                    boundary: ComponentBoundary) -> EdgeColoring:
    """Color one big component so all its boundary edges stay 1-colored.

    Even boundary: color the cubic completion and forget the added edges.
    Odd: color the completion anchored at the added s1-b1 edge, then patch
    the dropped triangle locally; 3a goes to whichever of w1b1 / s1u1 is
    farther from the 3a edges already present.
    """
    tc = build_tilde(g_i, boundary)
    if tc.parity == "even":
        comp = tc.to_component(color_2ec(tc.tilde))
        assert len(comp) == g_i.m
        return comp

    v1, u1, w1 = boundary.degree2[0], boundary.u[0], boundary.w[0]
    s1, b1 = boundary.s[0], boundary.b[0]
    e_su = g_i.edge_between(s1, u1)
    e_uv = g_i.edge_between(u1, v1)
    e_vw = g_i.edge_between(v1, w1)
    e_uw = g_i.edge_between(u1, w1)
    e_wb = g_i.edge_between(w1, b1)

    out = tc.to_component(color_2ec_anchored(tc.tilde, tc.sb_eid))
    threes = [eid for eid, c in out.items() if c == COLOR_3A]
    # ties keep the 3a on the w-b side; only a strictly farther s-u side
    # swaps the roles
    if _min_distance_to(g_i, e_wb, threes) >= \
            _min_distance_to(g_i, e_su, threes):
        out.update({e_su: COLOR_1A, e_uv: COLOR_1B, e_vw: COLOR_1A,
                    e_uw: COLOR_1C, e_wb: COLOR_3A})
    else:
        out.update({e_wb: COLOR_1A, e_vw: COLOR_1B, e_uv: COLOR_1A,
                    e_uw: COLOR_1C, e_su: COLOR_3A})
    assert len(out) == g_i.m
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
    scheme, and a big component is colored on its own graph and mapped
    back once."""
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
            comp = bd.component_graph(g, idx)
            boundary = component_boundary(
                comp, up.p if up is not None else None)
            col = {emap[comp_eid]: c for comp_eid, c in
                   color_component(comp, boundary).items()}
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


def color_graph(g: MultiGraph,
                stats: Optional[ColorStats] = None) -> EdgeColoring:
    """Packing edge-coloring of any connected claw-free cubic graph.

    Bridgeless graphs go straight to the 2-edge-connected construction;
    otherwise the bridge tree is colored top-down, every bridge taking the
    matching color missing at its parent endpoint and every child permuting
    its matching colors so that same color is missing at its own endpoint.
    The result is checked once with `verify`; a rejection counts in
    `stats.backtracks` and raises ColoringFailed.
    """
    if not g.is_connected():
        raise NotConnected("input graph is not connected")
    if not is_cubic(g):
        raise NotCubic(f"degree sequence {g.degree_sequence()}")
    claw = find_claw(g)
    if claw is not None:
        raise NotClawFree(f"claw at {claw.center!r} with leaves {claw.leaves}")

    bridges = find_bridges(g)
    coloring = _color_bridge_tree(g, bridges) if bridges else color_2ec(g)
    failures = verify(g, coloring, DEFAULT_SPEC)
    if failures:
        if stats is not None:
            stats.backtracks += 1
        raise ColoringFailed(failures)
    return coloring


def color_graph_with_stats(g: MultiGraph) -> Tuple[EdgeColoring, ColorStats]:
    stats = ColorStats()
    return color_graph(g, stats), stats
