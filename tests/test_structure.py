import hashlib
import itertools
import random
import sys

import pytest

import packedge.recognize as recognize
from conftest import (PARALLEL_EDGE_INPUTS, bushy_tree, decompose_whole,
                      diamond_path, perfbench_workloads, whole_boundary)
from reference import (build_tilde_reference, check_h, connected_components,
                       induced_subgraph, reconstruct)
from packedge.families import (SubstitutionPlan, enumerate_cubic_multigraphs,
                               gen_big_component, gen_bridged, BridgedPlan,
                               gen_leaf7, gen_random_clawfree_cubic, gen_ring,
                               gen_substituted)
from packedge.graph import MultiGraph, are_isomorphic_small, build_graph
from packedge.recognize import (NotConnected, find_bridges, find_claw,
                                is_cubic, is_two_edge_connected,
                                require_clawfree_cubic)
from packedge.structure import (BIG_COMPONENT, DIAMOND_COMPONENT, IS_K4,
                                K3_COMPONENT, RING_OF_DIAMONDS, SUBSTITUTED,
                                ClaimViolation, ClassificationFailed,
                                ComponentBoundary, Diamond,
                                NotDecomposable, UpEdge, bridge_decompose,
                                find_diamonds, oum_decompose)


def fingerprint(g):
    from packedge.families import _triangle_count
    return (g.n, g.m, g.degree_sequence(), _triangle_count(g),
            len(find_diamonds(g)))


# -- quadratic references ----------------------------------------------------

def find_diamonds_reference(g):
    """Global scan: each candidate quad counts its edges over all of E(g)."""
    out = []
    seen = set()
    for eid in g.edge_ids:
        z, w = g.endpoints(eid)
        common = sorted(set(g.neighbors(z)) & set(g.neighbors(w)) - {z, w})
        if len(common) != 2:
            continue
        x, y = common
        quad = frozenset((x, y, z, w))
        if quad in seen or g.has_edge(x, y):
            continue
        wanted = {frozenset(p): 1 for p in
                  ((x, z), (x, w), (y, z), (y, w), (z, w))}
        counts = {}
        for f in g.edge_ids:
            a, b = g.endpoints(f)
            if a in quad and b in quad:
                key = frozenset((a, b))
                counts[key] = counts.get(key, 0) + 1
        if counts != wanted:
            continue
        seen.add(quad)
        out.append(Diamond(
            internal=(min(z, w), max(z, w)), external=(x, y),
            internal_edge=g.edge_between(z, w),
            edges=frozenset(f for f in g.edge_ids
                            if set(g.endpoints(f)) <= quad)))
    out.sort(key=lambda d: d.internal)
    return out


def classify_reference(sub):
    """The shape of one component, from its own graph: K3, diamond, or a
    2-edge-connected component on five or more vertices of maximum degree
    three."""
    degs = sub.degree_sequence()
    if sub.n == 3 and sub.m == 3 and degs == (2, 2, 2) and sub.is_simple():
        return K3_COMPONENT
    if sub.n == 4 and sub.m == 5 and degs == (2, 2, 3, 3) and sub.is_simple():
        internal = [v for v in sub.vertices if sub.degree(v) == 3]
        external = [v for v in sub.vertices if sub.degree(v) == 2]
        if sub.has_edge(*internal) and not sub.has_edge(*external) and all(
                sub.has_edge(x, z) for x in external for z in internal):
            return DIAMOND_COMPONENT
    if sub.n >= 5 and max(degs) == 3 and is_two_edge_connected(sub):
        return BIG_COMPONENT
    raise ClassificationFailed(f"no case for {sub}")


def diamond_reference(sub, emap):
    """The single diamond of a diamond component, in the parent's edge ids."""
    (d,) = find_diamonds_reference(sub)
    return Diamond(internal=d.internal, external=d.external,
                   internal_edge=emap[d.internal_edge],
                   edges=frozenset(emap[e] for e in d.edges))


def bridge_decompose_reference(g):
    """The fields of `bridge_decompose(g)`, from one induced subgraph per
    component and a BFS from every bridge-tree node."""
    bridges = find_bridges(g)
    rest = build_graph([g.endpoints(e) for e in g.edge_ids
                        if e not in bridges], vertices=g.vertices)
    groups = sorted((sorted(c) for c in connected_components(rest)),
                    key=lambda vs: vs[0])
    part = {v: i for i, vs in enumerate(groups) for v in vs}
    subs = [induced_subgraph(g, vs) for vs in groups]
    kinds = tuple(classify_reference(sub) for sub, _ in subs)
    c = len(groups)
    tg = build_graph([[part[v] for v in g.endpoints(e)] for e in bridges],
                     vertices=range(c))
    tree = tuple(tg.neighbors(i) for i in range(c))
    ecc = [max(tg.vertex_distances(i).values()) for i in range(c)]
    root = min(i for i in range(c) if ecc[i] == max(ecc))
    dist = tg.vertex_distances(root)
    levels = [dist[i] for i in range(c)]
    up = []
    for i in range(c):
        if i == root:
            up.append(None)
            continue
        parent = next(j for j in tree[i] if levels[j] == levels[i] - 1)
        bridge = next(e for e in bridges
                      if {part[v] for v in g.endpoints(e)} == {i, parent})
        p, q = g.endpoints(bridge)
        if part[p] != i:
            p, q = q, p
        up.append(UpEdge(p=p, q=q, bridge=bridge))
    return dict(bridges=bridges,
                components=[(sub.vertices, sub.edge_list()) for sub, _ in subs],
                vertices=tuple(sub.vertices for sub, _ in subs), kinds=kinds,
                diamonds=tuple(
                    diamond_reference(sub, emap)
                    if kind == DIAMOND_COMPONENT else None
                    for (sub, emap), kind in zip(subs, kinds)),
                edge_maps=tuple(emap for _, emap in subs), tree=tree,
                root=root, levels=tuple(levels), up_edges=tuple(up))


def bridge_fields(g, bd):
    return dict(bridges=bd.bridges,
                components=[(verts, tuple(g.endpoints(e) for e in emap))
                            for verts, emap in zip(bd.vertices, bd.edge_maps)],
                vertices=bd.vertices, kinds=bd.kinds, diamonds=bd.diamonds,
                edge_maps=bd.edge_maps, tree=bd.tree, root=bd.root,
                levels=bd.levels, up_edges=bd.up_edges)


def own_degree(g, emap, v):
    """Degree of v within the component whose G edge ids are `emap`."""
    return sum(1 for eid in emap if v in g.endpoints(eid))


def recorded_calls(monkeypatch, name):
    """The graph of every later call to `recognize.<name>`, wherever a
    packedge module holds that function."""
    real = getattr(recognize, name)
    calls = []

    def recorded(g, *rest):
        calls.append(g)
        return real(g, *rest)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("packedge") and \
                getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, recorded)
    return calls


def recorded_graphs(monkeypatch):
    """Every `MultiGraph` built from here on."""
    built = []
    real = MultiGraph.__init__

    def recorded(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self)
    monkeypatch.setattr(MultiGraph, "__init__", recorded)
    return built


def seeded_tree(kind, size):
    make = diamond_path if kind == "path" else bushy_tree
    return make(random.Random(size), size)


TREES = [("path", 1), ("path", 2), ("path", 37), ("path", 400),
         ("bushy", 2), ("bushy", 15), ("bushy", 60)]


def test_find_diamonds_matches_global_scan_on_corpus(corpus):
    for entry in corpus:
        assert find_diamonds(entry.graph) == \
            find_diamonds_reference(entry.graph), entry.name


def test_bridge_decompose_matches_reference_on_corpus(corpus):
    bridged = [e for e in corpus if find_bridges(e.graph)]
    assert len(bridged) >= 100
    for entry in bridged:
        assert bridge_fields(entry.graph, bridge_decompose(entry.graph)) == \
            bridge_decompose_reference(entry.graph), entry.name


@pytest.mark.parametrize("kind,size", TREES)
def test_structure_matches_references_on_seeded_trees(kind, size):
    g = seeded_tree(kind, size)
    assert find_diamonds(g) == find_diamonds_reference(g)
    assert bridge_fields(g, bridge_decompose(g)) == \
        bridge_decompose_reference(g)


# -- diamonds ----------------------------------------------------------------

# find_diamonds expects a simple graph of maximum degree 3; of the diamond
# quads with a sixth edge, only K4 is such a graph
@pytest.mark.parametrize("extra", [(0, 1)], ids=["k4"])
def test_find_diamonds_needs_one_edge_per_pair(extra):
    g = build_graph([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), extra])
    assert find_diamonds(g) == find_diamonds_reference(g) == []


def test_no_induced_diamond_in_k4(k4):
    assert find_diamonds(k4) == []


def test_leaf7_has_one_diamond(leaf7):
    ds = find_diamonds(leaf7)
    assert len(ds) == 1
    assert ds[0].vertices == frozenset({3, 4, 5, 6})
    assert sorted(ds[0].internal) == [5, 6]


def test_ring_of_three_has_three_diamonds():
    assert len(find_diamonds(gen_ring(3))) == 3


def test_detect_ring_counts():
    for k in (2, 3, 5):
        g = gen_ring(k)
        assert g.n == 4 * k and g.m == 6 * k
        assert oum_decompose(g).ring_size == k


def test_detect_ring_k4_none(k4):
    assert oum_decompose(k4).ring_size is None


def test_detect_ring_substituted_k4_none(k4):
    g = gen_substituted(SubstitutionPlan(k4))
    assert find_diamonds(g) == []          # some vertex lies in no diamond
    assert oum_decompose(g).ring_size is None


# -- oum decomposition -------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: gen_ring(5),
    lambda: gen_substituted(SubstitutionPlan(build_graph(
        [(a, b) for a in range(4) for b in range(a + 1, 4)]), {0: 2, 3: 1})),
], ids=["ring", "substitution"])
def test_one_diamond_scan_per_decomposition(monkeypatch, make):
    from packedge.coloring import color_graph
    g = make()
    calls = recorded_calls(monkeypatch, "_link_table")
    dec = oum_decompose(g)
    # one table of links per decomposition, read by the diamond scan and
    # the triangle partition alike
    assert calls == [g]
    if dec.variant == RING_OF_DIAMONDS:
        assert len(dec.diamonds) == dec.ring_size == 5
    color_graph(g)                  # decomposes the gate's table, no other
    assert calls == [g, g]


def test_oum_k4(k4):
    # K4 is one diamond plus the edge joining its externals; the internal
    # edge's matching {03, 12} has the largest smaller id
    dec = oum_decompose(k4)
    assert dec.variant == IS_K4
    assert dec.diamonds == (Diamond(internal=(0, 3), external=(1, 2),
                                    internal_edge=2,
                                    edges=frozenset({0, 1, 2, 4, 5})),)


def test_oum_ring():
    dec = oum_decompose(gen_ring(3))
    assert dec.variant == RING_OF_DIAMONDS and dec.ring_size == 3


def test_oum_substituted_k4(k4):
    g = gen_substituted(SubstitutionPlan(k4))
    dec = oum_decompose(g)
    assert dec.variant == SUBSTITUTED
    assert dec.h.n == 4 and dec.h.m == 6
    assert all(not r.is_string for r in dec.realizations)
    assert are_isomorphic_small(reconstruct(dec), g)


@pytest.mark.parametrize("strings", [{}, {0: 1}, {0: 2, 3: 1}, {1: 3}])
def test_oum_round_trip_k4_plans(k4, strings):
    plan = SubstitutionPlan(k4, strings)
    g = gen_substituted(plan)
    dec = oum_decompose(g)
    assert dec.variant == SUBSTITUTED
    assert are_isomorphic_small(dec.h, plan.h)
    assert dec.string_lengths() == tuple(sorted(strings.values()))
    rebuilt = reconstruct(dec)
    if g.n <= 16:
        assert are_isomorphic_small(rebuilt, g)
    else:
        assert fingerprint(rebuilt) == fingerprint(g)


def test_oum_round_trip_multigraph_h(dipole):
    # parallel edges in H and a string on one of them
    plan = SubstitutionPlan(dipole, {2: 2})
    g = gen_substituted(plan)
    dec = oum_decompose(g)
    assert dec.variant == SUBSTITUTED
    assert are_isomorphic_small(dec.h, dipole)
    assert dec.string_lengths() == (2,)
    assert fingerprint(reconstruct(dec)) == fingerprint(g)


def test_oum_h_counts_over_enumeration():
    for n in (2, 4, 6):
        for h in enumerate_cubic_multigraphs(n):
            g = gen_substituted(SubstitutionPlan(h))
            dec = oum_decompose(g)
            assert dec.variant == SUBSTITUTED
            assert is_cubic(dec.h) and is_two_edge_connected(dec.h)
            assert g.n == 3 * dec.h.n
            assert are_isomorphic_small(dec.h, h)


def test_k4_with_string_is_a_ring(k4):
    # replacing a K4 edge by a string (no substitution) closes into a ring
    edges = [e for i, e in enumerate(k4.edge_list()) if i != 0]
    u, v = k4.edge_list()[0]
    y, z, w, x = 4, 5, 6, 7
    edges += [(u, y), (y, z), (y, w), (z, w), (x, z), (x, w), (x, v)]
    g = build_graph(edges)
    assert find_claw(g) is None and is_cubic(g)
    assert oum_decompose(g).ring_size == 2


# -- bridge decomposition ----------------------------------------------------

def test_bridge_decompose_leaf_pair(leaf7_pair):
    bd = bridge_decompose(leaf7_pair)
    assert len(bd.vertices) == 2
    assert bd.tree in ((((1,), (0,))), ((1,), (0,)))
    assert sorted(bd.levels) == [0, 1]
    child = 1 - bd.root
    up = bd.up_edges[child]
    assert up is not None and up.bridge in bd.bridges
    assert up.p in bd.vertices[child]
    assert up.q in bd.vertices[bd.root]
    assert bd.up_edges[bd.root] is None


def test_bridge_decompose_k3_hub():
    plan = BridgedPlan(parents=(0, 0, 0),
                       recipes=(("k3",), ("big", (1,)), ("big", (1,)),
                                ("big", (1,))))
    g = gen_bridged(plan)
    bd = bridge_decompose(g)
    assert len(bd.bridges) == 3 and len(bd.vertices) == 4
    assert sorted(bd.kinds) == [BIG_COMPONENT] * 3 + [K3_COMPONENT]
    hub = bd.kinds.index(K3_COMPONENT)
    assert len(bd.tree[hub]) == 3
    assert bd.kinds[bd.root] == BIG_COMPONENT


def test_bridge_decompose_component_count_matches_bridges():
    for seed in range(6):
        g = gen_random_clawfree_cubic(500 + seed, bridged=True)
        bd = bridge_decompose(g)
        assert len(bd.vertices) == len(bd.bridges) + 1
        # tree leaves are big components with exactly one degree-2 vertex
        for i, (verts, emap) in enumerate(zip(bd.vertices, bd.edge_maps)):
            if len(bd.tree[i]) == 1:
                assert bd.kinds[i] == BIG_COMPONENT
                deg2 = [v for v in verts if own_degree(g, emap, v) == 2]
                assert len(deg2) == 1


def test_one_bridge_search_per_color_graph(monkeypatch):
    import packedge.coloring as coloring
    walked = recorded_calls(monkeypatch, "_bridge_dfs")
    tables = recorded_calls(monkeypatch, "_link_table")
    cubic = recorded_calls(monkeypatch, "is_cubic")
    others = [recorded_calls(monkeypatch, name) for name in (
        "find_bridges", "find_claw")]
    components = []
    hs = []
    real_oum = coloring.oum_decompose

    def recorded_oum(g, *component):
        dec = real_oum(g, *component)
        if dec.h is not None:
            hs.append(dec.h)
        components.append(component)
        return dec
    monkeypatch.setattr(coloring, "oum_decompose", recorded_oum)
    for bridged in (True, False):
        g = gen_random_clawfree_cubic(701, bridged=bridged)
        for calls in (walked, tables, cubic, components, hs, *others):
            del calls[:]
        coloring.color_graph(g)
        # every input reaches oum_decompose as a component of its bridge
        # tree; the input gate walks g once and builds its links once, and
        # no H and no completion is searched or checked again
        assert hs and all(components)
        assert [id(x) for x in walked] == [id(g)]
        assert [id(x) for x in tables] == [id(g)]
        assert [id(x) for x in cubic] == [id(g)]
        assert others == [[], []]


def test_component_shapes_come_from_bridge_decompose(monkeypatch):
    import packedge.coloring as coloring
    g = diamond_path(random.Random(3), 400)
    bd = bridge_decompose(g)
    links = recorded_calls(monkeypatch, "_link_table")
    two_ec = recorded_calls(monkeypatch, "is_two_edge_connected")
    claws = recorded_calls(monkeypatch, "find_claw")
    built = recorded_graphs(monkeypatch)
    coloring.color_graph(g)
    # the gate's one links table of g is what both big components (the
    # leaves) read; each leaf's completion is a K4 or a ring, and no graph
    # is built for it
    assert links == [g]
    assert bd.kinds.count(BIG_COMPONENT) == 2
    assert built == []
    # no whole-graph re-check of a completion, and no claw search
    assert two_ec == []
    assert claws == []


def ladder_graphs(seed):
    """The graphs of perfbench's `ladder` workload for one seed."""
    return [inp.graph
            for inp in perfbench_workloads().build_ladder_workload(seed)]


def test_every_h_is_cubic_and_bridgeless(corpus, monkeypatch):
    import packedge.coloring as coloring
    real_oum = coloring.oum_decompose
    variants = []

    def checked_oum(g, *component):
        dec = real_oum(g, *component)
        check_h(dec)
        variants.append(dec.variant)
        return dec
    monkeypatch.setattr(coloring, "oum_decompose", checked_oum)
    graphs = [e.graph for e in corpus]
    for seed in (1, 2, 3):
        graphs += ladder_graphs(seed)
    graphs += [bushy_tree(random.Random(1), 60),
               diamond_path(random.Random(3), 400)]
    for g in graphs:
        coloring.color_graph(g)
    assert variants.count(SUBSTITUTED) > 800


def test_gate_rejects_two_disjoint_rings():
    # connectivity is the gate's to check: oum_decompose takes a connected
    # g, and only that tells one ring of diamonds from two
    from packedge.coloring import color_graph
    ring = gen_ring(3).edge_list()
    g = build_graph(list(ring) + [(u + 12, v + 12) for u, v in ring])
    for check in (require_clawfree_cubic, color_graph):
        with pytest.raises(NotConnected, match="not connected"):
            check(g)


def test_oum_decompose_rejects_string_back_to_its_triangle(leaf7_pair):
    # each leaf's diamond leaves its triangle {v, u, w} at u and returns at w
    with pytest.raises(NotDecomposable, match="attaches twice"):
        oum_decompose(leaf7_pair)


def test_oum_decompose_rejects_theta():
    with pytest.raises(NotDecomposable, match="lies in 0 triangles"):
        oum_decompose(PARALLEL_EDGE_INPUTS["theta"]())


def test_substituted_decomposition_builds_only_h(monkeypatch, k4):
    g = gen_substituted(SubstitutionPlan(k4, {0: 2, 3: 1}))
    built = recorded_graphs(monkeypatch)
    dec = oum_decompose(g)
    assert dec.variant == SUBSTITUTED
    assert built == [dec.h]
    # a big component's completion is decomposed in g: H is built, the
    # completion is not
    g = gen_bridged(BridgedPlan(parents=(0, 0, 0), recipes=(
        ("big", (1, 0, 2)),) + (("big", (1,)),) * 3))
    bd = bridge_decompose(g)
    hub = next(i for i, b in enumerate(bd.boundaries) if b and b.r == 3)
    del built[:]
    dec = oum_decompose(g, bd.vertices[hub], bd.edge_maps[hub],
                        bd.boundaries[hub])
    assert dec.variant == SUBSTITUTED
    assert built == [dec.h]


def test_two_thousand_diamond_path():
    from packedge.coloring import color_graph
    g = diamond_path(random.Random(5), 2000)
    assert g.m == 12039
    bd = bridge_decompose(g)
    assert len(bd.vertices) == 2002
    assert bd.kinds.count(DIAMOND_COMPONENT) == 2000
    owned = sorted(list(bd.bridges) + [e for emap in bd.edge_maps for e in emap])
    assert owned == list(g.edge_ids)
    col = color_graph(g)            # raises ColoringFailed if verify rejects
    assert sorted(col) == list(g.edge_ids)


def test_bridge_decompose_bridgeless_is_one_component(k4):
    for g in (k4, gen_ring(3)):
        bd = bridge_decompose(g)
        assert bd.bridges == frozenset() and bd.kinds == (BIG_COMPONENT,)
        assert bd.vertices == (g.vertices,)
        assert bd.edge_maps == (tuple(g.edge_ids),)
        assert bd.root == 0 and bd.levels == (0,) and bd.tree == ((),)
        assert bd.up_edges == (None,) and bd.diamonds == (None,)
        assert bd.boundaries[0].r == 0


# -- classification ----------------------------------------------------------

def test_classify_k3():
    bd = bridge_decompose(gen_bridged(BridgedPlan(
        parents=(0, 0, 0),
        recipes=(("k3",), ("big", (1,)), ("big", (1,)), ("big", (1,))))))
    hub = bd.kinds.index(K3_COMPONENT)
    assert len(bd.vertices[hub]) == len(bd.edge_maps[hub]) == 3
    assert bd.diamonds[hub] is None


def test_classify_diamond():
    g = gen_bridged(BridgedPlan(parents=(0, 1), recipes=(
        ("big", (1,)), ("diamond",), ("big", (1,)))))
    bd = bridge_decompose(g)
    assert bd.kinds.count(DIAMOND_COMPONENT) == 1
    i = bd.kinds.index(DIAMOND_COMPONENT)
    d = bd.diamonds[i]
    emap = bd.edge_maps[i]
    assert d.edges == frozenset(emap) and len(emap) == 5
    assert d.vertices == frozenset(bd.vertices[i])
    assert sorted(g.endpoints(d.internal_edge)) == list(d.internal)
    assert all(own_degree(g, emap, z) == 3 for z in d.internal)
    assert all(own_degree(g, emap, x) == 2 for x in d.external)
    assert not any(set(g.endpoints(e)) == set(d.external) for e in emap)
    assert [bd.diamonds[j] for j in range(3) if j != i] == [None, None]


def test_classify_leaf7(leaf7, leaf7_pair):
    bd = bridge_decompose(leaf7_pair)
    assert bd.kinds == (BIG_COMPONENT, BIG_COMPONENT)
    assert bd.diamonds == (None, None)
    for verts, emap in zip(bd.vertices, bd.edge_maps):
        assert len(verts) == leaf7.n and len(emap) == leaf7.m
        assert sum(1 for v in verts
                   if own_degree(leaf7_pair, emap, v) == 2) == 1


def test_classify_rejects_cycle(leaf7):
    # a C5 joined by one bridge to a leaf7: the C5 is neither K3, diamond
    # nor big (its vertices keep degree 2 inside it)
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    leaf = [(u + 5, v + 5) for u, v in leaf7.edge_list()]
    g = build_graph(c5 + leaf + [(0, 5)])
    assert find_bridges(g) == frozenset({len(c5) + len(leaf)})
    with pytest.raises(ClassificationFailed):
        bridge_decompose(g)


# -- boundary and tilde ------------------------------------------------------

def test_boundary_leaf7(leaf7):
    b = whole_boundary(leaf7)
    assert b.r == 1 and b.degree2 == (0,)
    assert b.u == (1,) and b.w == (2,)
    assert leaf7.has_edge(b.u[0], b.w[0])
    assert b.s[0] != b.b[0]
    assert leaf7.degree(b.s[0]) == 3 and leaf7.degree(b.b[0]) == 3


def test_boundary_orders_up_vertex_first():
    g = gen_big_component((1, 1, 1))
    deg2 = sorted(v for v in g.vertices if g.degree(v) == 2)
    b = whole_boundary(g, up_vertex=deg2[-1])
    assert b.degree2[0] == deg2[-1]
    assert list(b.degree2[1:]) == deg2[:-1]


def test_boundary_rejects_adjacent_degree2():
    c4 = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ClaimViolation) as err:
        whole_boundary(c4)
    assert err.value.claim == "independent-set"


def test_hub_boundary_is_linear(monkeypatch):
    # a big hub with r boundary vertices, each bridged to a 7-vertex leaf:
    # the boundary claims read only the edges near each boundary vertex
    import packedge.coloring as coloring
    import packedge.structure as structure
    r = 2000
    g = gen_bridged(BridgedPlan(parents=(0,) * r, recipes=(
        ("big", (1,) * r),) + (("big", (1,)),) * r))
    boundaries = []
    real_boundary = structure.component_boundary

    def recorded_boundary(*args):
        boundaries.append(real_boundary(*args))
        return boundaries[-1]
    monkeypatch.setattr(structure, "component_boundary", recorded_boundary)
    probes = 0
    real_has_edge = MultiGraph.has_edge

    def counted_has_edge(self, u, v):
        nonlocal probes
        probes += 1
        return real_has_edge(self, u, v)
    monkeypatch.setattr(MultiGraph, "has_edge", counted_has_edge)
    coloring.color_graph(g)
    assert probes <= 100 * r
    # one boundary per big component, all made by bridge_decompose
    assert sorted(b.r for b in boundaries) == [1] * r + [r]
    assert not hasattr(coloring, "component_boundary")


# a mutated component, or a hand-built boundary on one, for every claim
# `component_boundary` / `oum_decompose` can raise; leaf7 is v=0, u=1, w=2,
# s=3, b=4 and the diamond internals 5, 6
K33_MINUS_03 = [(a, b) for a in range(3) for b in range(3, 6)
                if (a, b) != (0, 3)]
TWO_TRIANGLES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5),
                 (4, 5)]
CLAIMS = {
    # u has degree 3
    "up-vertex-degree": lambda: whole_boundary(gen_leaf7(), up_vertex=1),
    # v = 0 has a double edge to its one neighbour
    "boundary-degree": lambda: whole_boundary(build_graph(
        [(0, 1), (0, 1)] + [(a, b) for a in range(1, 5)
                            for b in range(a + 1, 5)])),
    # no degree-2 vertex of K3,3 minus an edge lies on a triangle
    "triangle": lambda: whole_boundary(build_graph(K33_MINUS_03)),
    # u extends to both 3 and 4
    "extension-count": lambda: whole_boundary(build_graph(
        gen_leaf7().edge_list() + ((1, 4),))),
    # u and w both extend to 3
    "distinct-extensions": lambda: whole_boundary(build_graph(
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)])),
    # s has degree 4
    "extension-degree": lambda: whole_boundary(build_graph(
        gen_leaf7().edge_list() + ((3, 4),))),
    # s1 = 3 and b1 = 4 lie on one triangle, so s1b1 would be an H-loop
    "sb-triangle-free": lambda: decompose_whole(build_graph(
        TWO_TRIANGLES), ComponentBoundary((0,), (1,), (2,), (3,), (4,))),
}


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_every_claim_raises_its_id(claim):
    with pytest.raises(ClaimViolation) as err:
        CLAIMS[claim]()
    assert err.value.claim == claim


def test_oum_decompose_rejects_boundary_that_misses_g(leaf7):
    # s1, b1 given as the diamond internals: the H-edges at u1 and w1 reach
    # the externals 3 and 4 instead
    with pytest.raises(NotDecomposable, match="does not reach"):
        decompose_whole(leaf7, ComponentBoundary((0,), (1,), (2,), (5,),
                                                 (6,)))


def test_tilde_leaf7_is_k4(leaf7):
    # the string at u1 returns at w1: the completion is the K4 on its diamond
    dec = decompose_whole(leaf7)
    assert dec.variant == IS_K4 and dec.h is None
    (d,) = dec.diamonds
    assert d.external == (3, 4)


def test_tilde_even_adds_one_pair_edge():
    g = gen_big_component((1, 1))
    b = whole_boundary(g)
    dec = decompose_whole(g)
    # the one added edge, id m, is a plain H-edge joining the two boundary
    # triangles at their degree-2 vertices
    assert dec.h.n == 2 and is_cubic(dec.h)
    (pair,) = [r for r in dec.realizations if not r.is_string]
    assert pair.plain_eid == g.m
    assert sorted((pair.corner_a, pair.corner_b)) == sorted(b.degree2)


def test_tilde_odd_r3_drops_triangle():
    g = gen_big_component((1, 1, 1))
    b = whole_boundary(g)
    dec = decompose_whole(g)
    # v1's triangle is gone, s1b1 (id m) joins the strings at u1 and w1
    # into one, and v2v3 (id m + 1) is a plain H-edge
    assert dec.h.n == 2 and is_cubic(dec.h) and not find_bridges(dec.h)
    assert all(b.degree2[0] not in t.vertices for t in dec.triangles)
    (joined,) = [r.string for r in dec.realizations
                 if r.is_string and g.m in r.string.connectors]
    assert joined.k == 2
    assert [r.plain_eid for r in dec.realizations if not r.is_string] == \
        [g.m + 1]


def hub(chains):
    """A big hub with the given chains, each boundary vertex bridged to a
    7-vertex leaf."""
    return gen_bridged(BridgedPlan(parents=(0,) * len(chains), recipes=(
        ("big", chains),) + (("big", (1,)),) * len(chains)))


# hubs with chains in {0, 1, 2}^r for r = 3 and 5: their odd boundaries join
# the H-edges at v1's triangle in every way (plain and plain, string and
# plain, string and string)
HUB_CHAINS = [c for r in (3, 5) for c in itertools.product((0, 1, 2),
                                                           repeat=r)]


def bridged_inputs():
    from packedge.corpus import build_corpus
    yield from (e.graph for e in build_corpus() if find_bridges(e.graph))
    for seed in range(600, 605):
        yield gen_random_clawfree_cubic(seed, bridged=True)
    yield bushy_tree(random.Random(1), 60)
    yield diamond_path(random.Random(3), 400)
    yield from map(hub, HUB_CHAINS)


def decomposition_summary(dec, eid):
    """What two decompositions must share, edge ids mapped by `eid`."""
    def diamond(d):
        return (d.internal, d.external, eid(d.internal_edge),
                frozenset(map(eid, d.edges)))
    if dec.variant == IS_K4:
        return (IS_K4,)
    if dec.variant == RING_OF_DIAMONDS:
        return dec.variant, dec.ring_size, tuple(map(diamond, dec.diamonds))
    realizations = []
    for r in dec.realizations:
        s = r.string
        realizations.append((r.corner_a, r.corner_b, s is None and eid(
            r.plain_eid), s and (
            tuple(map(diamond, s.diamonds)),
            tuple(map(eid, s.connectors)), s.attach_left,
            eid(s.attach_left_edge), s.attach_right,
            eid(s.attach_right_edge))))
    return (dec.variant, dec.h.vertices, dec.h.edge_list(),
            [(t.vertices, t.corner_for) for t in dec.triangles],
            realizations)


def test_tilde_always_clawfree_cubic_2ec():
    # a big component decomposed in g with its completion applied in H is
    # the decomposition of the copy-built reference tilde (which asserts
    # that the tilde is cubic, 2-edge-connected and claw-free), tilde ids
    # mapped through `shared` and the added ids g.m, g.m + 1, ...
    joins = []
    for g in bridged_inputs():
        bd = bridge_decompose(g)
        for i, kind in enumerate(bd.kinds):
            if kind != BIG_COMPONENT:
                continue
            up = bd.up_edges[i]
            dec = oum_decompose(g, bd.vertices[i], bd.edge_maps[i],
                                bd.boundaries[i])
            ref, shared = build_tilde_reference(
                g, bd.vertices[i], bd.edge_maps[i], up.p if up else None)
            first_added = shared.index(None) if None in shared else 0
            assert decomposition_summary(dec, lambda e: e) == \
                decomposition_summary(oum_decompose(ref), lambda t: (
                    shared[t] if shared[t] is not None
                    else g.m + t - first_added))
            if bd.boundaries[i].r % 2 and dec.variant == SUBSTITUTED:
                joins.append(next(
                    "plain" if not r.is_string else
                    "strings" if g.m in r.string.connectors else "mixed"
                    for r in dec.realizations if r.plain_eid == g.m or
                    r.is_string and g.m in r.string.region_edges()))
    # 30, 120 and 148 of them here, the hubs making every plain join
    assert all(joins.count(join) >= 30 for join in ("plain", "mixed",
                                                     "strings"))


# sha256 of `write_coloring(g, color_graph(g))` over the hubs, in
# HUB_CHAINS order, as first computed when each odd completion was built
# as a graph of its own
HUB_COLORINGS_SHA256 = \
    "5a51019844670b36af80c32e32eb57bd6c5a00e8d7d9066afda6ada1ec527024"


def test_hub_colorings_pinned():
    from packedge.coloring import color_graph
    from packedge.formats import write_coloring
    digest = hashlib.sha256()
    for chains in HUB_CHAINS:
        g = hub(chains)
        digest.update(write_coloring(g, color_graph(g)).encode())
    assert digest.hexdigest() == HUB_COLORINGS_SHA256
