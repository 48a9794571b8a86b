import hashlib
import importlib
import itertools
import random
import sys

import pytest

import packedge.coloring as coloring_mod
from packedge.coloring import (COLOR_1A, COLOR_1B, COLOR_1C, COLOR_3A,
                               ColoringFailed, NotClawFree, NotConnected,
                               NotCubic, ONE_COLORS, apply_permutation,
                               color_component, color_graph,
                               _color_completion, _color_h_edge,
                               _color_substituted, _diamonds_coloring,
                               _wb_at_least_as_far)
from packedge.corpus import CorpusEntry, build_corpus, run_corpus
from packedge.families import (SubstitutionPlan, gen_big_component,
                               gen_bridged, BridgedPlan, gen_leaf7,
                               gen_petersen, gen_random_clawfree_cubic,
                               gen_ring, gen_substituted,
                               random_cubic_multigraph_2ec)
from packedge.formats import write_coloring
from packedge.graph import NotSimple, build_graph
from packedge.matching import two_factor_containing
from packedge.structure import (BIG_COMPONENT, IS_K4, K3_COMPONENT,
                                RING_OF_DIAMONDS, bridge_decompose,
                                find_diamonds, oum_decompose)
from packedge.verify import verify

from conftest import (PARALLEL_EDGE_INPUTS, bushy_tree, decompose_whole,
                      diamond_path, perfbench_workloads,
                      random_connected_graph, whole_boundary)
from reference import (build_tilde_reference, collect_diamond_strings,
                       color_k4_reference, edge_distance, lifted_cycles)

# the package's `verify` attribute is the function, not the module
verify_mod = importlib.import_module("packedge.verify")


def class_sizes(coloring):
    out = {}
    for c in coloring.values():
        out[c] = out.get(c, 0) + 1
    return out


def three_a_edges(coloring):
    return sorted(e for e, c in coloring.items() if c == COLOR_3A)


# -- K4 ----------------------------------------------------------------------

def test_color_k4_three_perfect_matchings(k4):
    col = color_graph(k4)
    assert class_sizes(col) == {"1a": 2, "1b": 2, "1c": 2}
    assert verify(k4, col) == []


def test_color_k4_matches_reference_on_every_edge_order(k4):
    # K4 is colored as one diamond plus the edge joining its externals;
    # no pinned digest holds a bare K4, so every order of its edges, each
    # with seeded orientation flips, is compared with the matchings sorted
    rng = random.Random(4)
    orders = list(itertools.permutations(k4.edge_list()))
    assert len(orders) == 720
    for order in orders:
        g = build_graph([(v, u) if rng.random() < 0.5 else (u, v)
                         for u, v in order])
        assert color_graph(g) == color_k4_reference(g), order


def test_color_k4_anchored(leaf7):
    # leaf7's completion is K4 anchored at s1b1 (id m): s1b1's matching
    # takes 1a, the smaller external pair 1b and the other 1c
    dec = decompose_whole(leaf7)
    assert dec.variant == IS_K4
    (d,) = dec.diamonds
    col = _color_completion(leaf7, dec, leaf7.edge_ids, leaf7.m)
    pair_b, pair_c = d.external_pairs(leaf7)
    assert col[leaf7.m] == col[d.internal_edge] == COLOR_1A
    assert [col[e] for e in pair_b + pair_c] == [COLOR_1B] * 2 + [COLOR_1C] * 2


# -- rings ---------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3])
def test_color_ring_class_sizes(k):
    g = gen_ring(k)
    col = color_graph(g)
    sizes = class_sizes(col)
    assert sizes == {"1a": 2 * k, "1b": 2 * k, "1c": 2 * k}
    assert COLOR_3A not in sizes
    assert verify(g, col) == []


# -- cycles --------------------------------------------------------------

def cycle_colors(g):
    """`color_graph`'s colors of each lifted 2-factor cycle of a bridgeless
    substituted g, its 3m positions in walk order."""
    col = color_graph(g)
    assert verify(g, col) == []
    return [[col[e] for e in positions] for positions, _ in lifted_cycles(g)]


def alternates(colors):
    """Whether `colors` alternate 1a and 1b, read as a path."""
    return all(c in (COLOR_1A, COLOR_1B) for c in colors) and \
        all(a != b for a, b in zip(colors, colors[1:]))


def even_cycle_ok(colors):
    return len(colors) % 2 == 0 and alternates(colors + colors[:1])


def odd_cycle_ok(colors):
    """One 3a, both neighbors distinct matching colors, and the path from
    one neighbor round to the other alternates."""
    if colors.count(COLOR_3A) != 1:
        return False
    p = colors.index(COLOR_3A)
    rest = colors[p + 1:] + colors[:p]
    return rest[0] != rest[-1] and alternates(rest)


def test_even_cycle_alternates(k4):
    g = gen_substituted(SubstitutionPlan(k4))
    (colors,) = cycle_colors(g)
    assert len(colors) == 3 * 4 and even_cycle_ok(colors)
    assert colors.count(COLOR_1A) == colors.count(COLOR_1B) == 6


def test_odd_cycle_single_anchor():
    g = gen_substituted(SubstitutionPlan(gen_petersen()))
    cycles = cycle_colors(g)
    assert sorted(len(colors) for colors in cycles) == [15, 15]
    assert all(odd_cycle_ok(colors) for colors in cycles)


# -- strings ---------------------------------------------------------------

def single_string_graph():
    """Substituted K4 with one length-1 string; returns (g, its H-edges'
    realizations)."""
    g = gen_substituted(SubstitutionPlan(build_graph(
        [(a, b) for a in range(4) for b in range(a + 1, 4)]), {0: 1}))
    realizations = oum_decompose(g).realizations
    assert sorted(s.k for s in realizations) == [0] * 5 + [1]
    return g, realizations


# the H-edge's color, the string's (pair, pair, rest) colors, for 3a the end
# of the H-edge whose corner the cycle leaves (corner_a in the smaller
# triangle, where the string starts), and the string's length: a plain edge
# is the string of no diamonds, and takes exactly its color
@pytest.mark.parametrize("color,pairs,rest,leaving,k", [
    (COLOR_1A, (COLOR_1B, COLOR_1C), COLOR_1A, None, 1),
    (COLOR_1B, (COLOR_1A, COLOR_1C), COLOR_1B, None, 1),
    (COLOR_1C, (COLOR_1A, COLOR_1B), COLOR_1C, None, 1),
    (COLOR_3A, (COLOR_1C, COLOR_1A), COLOR_1B, "corner_a", 1),
    (COLOR_3A, (COLOR_1C, COLOR_1A), COLOR_1B, "corner_b", 1),
    (COLOR_1A, (), COLOR_1A, None, 0),
    (COLOR_1B, (), COLOR_1B, None, 0),
    (COLOR_1C, (), COLOR_1C, None, 0),
    (COLOR_3A, (), COLOR_3A, "corner_a", 0),
], ids=["1a", "1b", "1c", "3a-corner_a", "3a-corner_b", "plain-1a",
        "plain-1b", "plain-1c", "plain-3a"])
def test_color_h_edge_string(color, pairs, rest, leaving, k):
    g, realizations = single_string_graph()
    s = next(s for s in realizations if s.k == k)
    corner = {None: None, "corner_a": s.attach_left,
              "corner_b": s.attach_right}[leaving]
    col = {}
    _color_h_edge(g, s, color, corner, col)
    assert set(col) == s.region_edges()
    if k == 0:
        assert s.connectors == ()
        assert col == {s.attach_left_edge: color}
        assert s.attach_left_edge == s.attach_right_edge
        return
    assert col[s.diamonds[0].internal_edge] == rest
    for pair, c in zip(s.diamonds[0].external_pairs(g), pairs):
        assert [col[eid] for eid in pair] == [c, c]
    attach = {s.attach_left: s.attach_left_edge,
              s.attach_right: s.attach_right_edge}
    if color == COLOR_3A:
        (far,) = set(attach) - {corner}
        assert col[attach[corner]] == COLOR_3A and col[attach[far]] == rest
        assert class_sizes(col) == {"3a": 1, rest: 2, **dict.fromkeys(
            pairs, 2)}
    else:
        assert [col[eid] for eid in attach.values()] == [rest, rest]
        assert class_sizes(col) == {rest: 3, **dict.fromkeys(pairs, 2)}


# -- 2-edge-connected coloring ---------------------------------------------

def test_color_2ec_substituted_k4(k4):
    g = gen_substituted(SubstitutionPlan(k4))
    col = color_graph(g)
    assert g.m == 18 and len(col) == 18
    assert COLOR_3A not in class_sizes(col)   # the 2-factor is a 4-cycle
    assert verify(g, col) == []


def test_color_2ec_substituted_petersen():
    g = gen_substituted(SubstitutionPlan(gen_petersen()))
    col = color_graph(g)
    assert class_sizes(col)[COLOR_3A] == 2    # one per 5-cycle
    assert verify(g, col) == []


def test_color_2ec_substituted_prism(prism):
    g = gen_substituted(SubstitutionPlan(prism))
    col = color_graph(g)
    assert verify(g, col) == []
    # this pipeline's deterministic 2-factor of the prism is the hexagon
    assert COLOR_3A not in class_sizes(col)


def test_color_2ec_ring_of_four_no_3a():
    g = gen_ring(4)
    col = color_graph(g)
    assert COLOR_3A not in class_sizes(col)
    assert verify(g, col) == []


def test_color_2ec_with_strings(k4):
    g = gen_substituted(SubstitutionPlan(k4, {0: 1, 4: 2}))
    col = color_graph(g)
    assert verify(g, col) == []


# -- anchored coloring -------------------------------------------------------

def anchored_contract_holds(g, col, anchor):
    if col[anchor] != COLOR_1A:
        return False
    u, v = g.endpoints(anchor)
    touching = set(g.incident_edges(u)) | set(g.incident_edges(v))
    return all(col[e] != COLOR_3A for e in touching)


def completion_coloring_on_tilde(g, vertices, edge_ids, boundary, up_vertex):
    """The anchored coloring of an odd component's completion, moved onto
    the copy-built reference tilde, with the tilde and its s1b1 id."""
    dec = oum_decompose(g, vertices, boundary)
    col = _color_completion(g, dec, edge_ids, g.m)
    tilde, shared = build_tilde_reference(g, vertices, edge_ids, up_vertex)
    kept = shared.index(None)
    return tilde, {t: col[eid if eid is not None else g.m + t - kept]
                   for t, eid in enumerate(shared)}, kept


def test_anchored_ring():
    # a triangle whose string of three diamonds leaves at u and returns at
    # w: the completion is a ring, and s1b1 is the connector that gets 1a
    g = gen_big_component((3,))
    tilde, col, sb = completion_coloring_on_tilde(
        g, g.vertices, g.edge_ids, whole_boundary(g), None)
    assert decompose_whole(g).variant == RING_OF_DIAMONDS
    assert anchored_contract_holds(tilde, col, sb)
    assert COLOR_3A not in class_sizes(col)
    assert verify(tilde, col) == []


def test_anchored_leaf7_tilde(leaf7):
    tilde, col, sb = completion_coloring_on_tilde(
        leaf7, leaf7.vertices, leaf7.edge_ids, whole_boundary(leaf7), None)
    assert anchored_contract_holds(tilde, col, sb)
    assert COLOR_3A not in class_sizes(col)


def test_anchored_even_cycle(k4):
    # substituted K4: the 2-factor cycle is even, anchor on a connector
    g = gen_substituted(SubstitutionPlan(k4))
    dec = oum_decompose(g)
    anchor = dec.realizations[0].attach_left_edge
    col = _color_substituted(g, dec, anchor)
    assert anchored_contract_holds(g, col, anchor)
    assert verify(g, col) == []


def test_anchored_odd_cycles():
    g = gen_substituted(SubstitutionPlan(gen_petersen()))
    dec = oum_decompose(g)
    anchor = dec.realizations[0].attach_left_edge
    col = _color_substituted(g, dec, anchor)
    assert anchored_contract_holds(g, col, anchor)
    assert verify(g, col) == []


@pytest.mark.parametrize("seed", range(900, 940))
def test_anchored_odd_boundary_components(seed):
    g = gen_random_clawfree_cubic(seed, bridged=True)
    bd = bridge_decompose(g)
    for idx, kind in enumerate(bd.kinds):
        if kind != BIG_COMPONENT:
            continue
        boundary = bd.boundaries[idx]
        if boundary.r % 2 == 0:
            continue
        up = bd.up_edges[idx]
        tilde, col, sb = completion_coloring_on_tilde(
            g, bd.vertices[idx], bd.edge_maps[idx], boundary,
            up.p if up else None)
        assert anchored_contract_holds(tilde, col, sb)
        assert verify(tilde, col) == []


# -- components ----------------------------------------------------------

def color_whole(g):
    """`color_component` on all of g as a standalone big component."""
    return color_component(g, frozenset(), g.vertices, g.edge_ids,
                           whole_boundary(g))


def test_color_component_leaf7_worked_instance(leaf7):
    col = color_whole(leaf7)
    assert verify(leaf7, col) == []
    e = {name: leaf7.edge_between(u, v) for name, (u, v) in {
        "su": (3, 1), "uv": (1, 0), "vw": (0, 2),
        "uw": (1, 2), "wb": (2, 4)}.items()}
    assert col[e["su"]] == COLOR_1A
    assert col[e["uv"]] == COLOR_1B
    assert col[e["vw"]] == COLOR_1A
    assert col[e["uw"]] == COLOR_1C
    assert col[e["wb"]] == COLOR_3A
    # diamond edges inherit the K4 coloring: all 1-colored
    assert class_sizes(col)[COLOR_3A] == 1


def test_color_component_even():
    g = gen_big_component((1, 1))
    col = color_whole(g)
    assert verify(g, col) == []
    for v in (x for x in g.vertices if g.degree(x) == 2):
        colors = [col[e] for e in g.incident_edges(v)]
        assert all(c in ONE_COLORS for c in colors)
        assert len(set(colors)) == 2


def test_color_component_odd_r3():
    g = gen_big_component((1, 2, 1))
    col = color_whole(g)
    assert verify(g, col) == []


@pytest.mark.parametrize("seed", range(20))
def test_3a_side_matches_two_distance_searches(seed):
    # the one multi-source search decides as the two nearest-3a distances
    # from e_wb and from e_su do, ties going to the w-b side
    rng = random.Random(seed)
    g = random_connected_graph(rng)
    for _ in range(10):
        e_wb, e_su = rng.randrange(g.m), rng.randrange(g.m)
        threes = rng.sample(range(g.m), rng.randint(0, min(3, g.m)))
        near = [min((edge_distance(g, e, t) for t in threes),
                    default=float("inf")) for e in (e_wb, e_su)]
        assert _wb_at_least_as_far(g, frozenset(), e_wb, e_su, threes) == \
            (near[0] >= near[1])


# -- permutations ------------------------------------------------------------

def test_apply_permutation_identity(k4):
    col = color_graph(k4)
    ident = {c: c for c in ONE_COLORS}
    assert apply_permutation(col, ident) == col


def test_apply_permutation_swap_stays_valid(k4):
    col = color_graph(k4)
    swapped = apply_permutation(col, {"1a": "1b", "1b": "1a", "1c": "1c"})
    assert verify(k4, swapped) == []
    assert class_sizes(swapped) == class_sizes(col)


def test_apply_permutation_fixes_3a(leaf7):
    col = color_whole(leaf7)
    perm = {"1a": "1c", "1c": "1b", "1b": "1a"}
    out = apply_permutation(col, perm)
    assert three_a_edges(out) == three_a_edges(col)


def test_apply_permutation_validates():
    with pytest.raises(ValueError):
        apply_permutation({}, {"1a": "1a", "1b": "1b"})


# -- whole graphs ------------------------------------------------------------

def test_color_graph_leaf7_pair_worked_instance(leaf7_pair):
    col = color_graph(leaf7_pair)
    assert verify(leaf7_pair, col) == []
    threes = three_a_edges(col)
    assert len(threes) == 2
    assert edge_distance(leaf7_pair, threes[0], threes[1]) >= 4
    bridge = leaf7_pair.edge_between(0, 7)
    assert col[bridge] == COLOR_1C


# sha256 of `write_coloring(g, color_graph(g))` over the corpus, in corpus
# order.  Any change to a coloring the pipeline builds moves it; a new value
# needs a stated reason.
CORPUS_COLORINGS_SHA256 = \
    "13e477040cdce2efdc1fb6b9b4fc782aefa073c714b6d2b9c382f8c571990083"


def test_corpus_colorings_pinned(corpus):
    digest = hashlib.sha256()
    for entry in corpus:
        digest.update(
            write_coloring(entry.graph, color_graph(entry.graph)).encode())
    assert digest.hexdigest() == CORPUS_COLORINGS_SHA256


# sha256 of `write_coloring(g, color_graph(g))` over bridged graphs at the
# size of the `ladder` benchmark's tree rungs: conftest's `bushy_tree(
# random.Random(s), 60)` for s = 1..5 (2.3k-2.8k edges, big components with
# r = 1, 2 and 3), then `diamond_path(random.Random(3), 400)`.
BRIDGED_COLORINGS_SHA256 = [
    "9130b219f4a7eb79b5db80929e99380803cf984522197a6914bc5fe3f08bab06",
    "22e445dd3f192112126bcc1797ad7560f03c8affa163f10a7b0c78b11083c6b5",
    "665a738b9d81dd41feee69f6dfcb5563e7cdb3986e6e7135975391428cdf4d1f",
    "ca17b925d5c4bcd1c1ac8bc845e00970f27979841974963567be98c407bea9ed",
    "152afd4b870667a12b47e28e7594377ae8c17083d5dab4069c3e3e7d3ab764e2",
    "96b218fd2fce72074cbf4ad7c9869f52d4ba540bc1132241e68ec8ef82764244",
]


def test_bridged_colorings_pinned_at_ladder_scale():
    graphs = [bushy_tree(random.Random(s), 60) for s in range(1, 6)]
    graphs.append(diamond_path(random.Random(3), 400))
    assert [hashlib.sha256(write_coloring(g, color_graph(g)).encode())
            .hexdigest() for g in graphs] == BRIDGED_COLORINGS_SHA256


# sha256 of 1 216 coloring documents: `write_coloring(g, color_graph(g))`
# over build_corpus() and build_corpus(range(1, 111)), then perfbench's
# `color_op` over the `ladder` inputs of seeds 1, 2 and 3.  It has not moved
# since big components were colored as views of g.
CORPORA_AND_LADDER_COLORINGS_SHA256 = \
    "664d8ffe027f993ec224c47335723a64b83335bcc66e5a23770c4d89c7a52d32"


def test_corpora_and_ladder_colorings_pinned(corpus):
    digest = hashlib.sha256()
    for entry in corpus + build_corpus(range(1, 111)):
        digest.update(
            write_coloring(entry.graph, color_graph(entry.graph)).encode())
    workloads = perfbench_workloads()
    for seed in (1, 2, 3):
        for inp in workloads.build_ladder_workload(seed):
            digest.update(workloads.color_op(inp).encode())
    assert digest.hexdigest() == CORPORA_AND_LADDER_COLORINGS_SHA256


def test_color_graph_ring_dispatch():
    # a bridgeless ring is one big component colored by its diamonds alone
    g = gen_ring(5)
    assert color_graph(g) == _diamonds_coloring(g, find_diamonds(g),
                                                g.edge_ids)


def test_color_graph_k3_hub():
    plan = BridgedPlan(parents=(0, 0, 0),
                       recipes=(("k3",), ("big", (1,)), ("big", (1,)),
                                ("big", (1,))))
    g = gen_bridged(plan)
    col = color_graph(g)
    assert verify(g, col) == []
    # the K3 edges carry three distinct matching colors
    bd = bridge_decompose(g)
    hub = bd.kinds.index(K3_COMPONENT)
    hub_colors = {col[g_eid] for g_eid in bd.edge_maps[hub]}
    assert hub_colors == set(ONE_COLORS)
    for eid in bd.bridges:
        assert col[eid] in ONE_COLORS


def test_color_graph_diamond_component():
    plan = BridgedPlan(parents=(0, 1),
                       recipes=(("big", (1,)), ("diamond",), ("big", (1,))))
    g = gen_bridged(plan)
    col = color_graph(g)
    assert verify(g, col) == []


def test_color_graph_rejects_bad_inputs(petersen):
    with pytest.raises(NotClawFree):
        color_graph(petersen)
    with pytest.raises(NotCubic):
        color_graph(build_graph([(0, 1), (1, 2), (0, 2)]))
    two_k4 = build_graph([(a, b) for a in range(4) for b in range(a + 1, 4)]
                         + [(a + 4, b + 4) for a in range(4)
                            for b in range(a + 1, 4)])
    with pytest.raises(NotConnected):
        color_graph(two_k4)
    for make in PARALLEL_EDGE_INPUTS.values():
        with pytest.raises(NotSimple):
            color_graph(make())


@pytest.mark.parametrize("seed", range(8))
def test_color_graph_random(seed):
    g = gen_random_clawfree_cubic(700 + seed, bridged=bool(seed % 2))
    col = color_graph(g)
    assert verify(g, col) == []


def test_color_graph_large_substitution():
    # |H| = 2048 at the default recursion limit: the 2-factor of H is found
    # without exponential search or one stack frame per matched pair
    assert sys.getrecursionlimit() <= 1000
    rng = random.Random(2048)
    h = random_cubic_multigraph_2ec(rng, 2048)
    strings = {eid: rng.randint(1, 3) for eid in h.edge_ids
               if rng.random() < 0.3}
    g = gen_substituted(SubstitutionPlan(h, strings))
    assert verify(g, color_graph(g)) == []
    e, f = 0, h.m - 1
    tf = two_factor_containing(h, (e, f))
    cycle_edges = {eid for tour in tf.cycles for eid in tour}
    assert {e, f} <= cycle_edges
    assert len(cycle_edges) + len(tf.complement) == h.m
    assert sum(map(len, tf.cycle_vertices)) == h.n


def test_degree2_edges_one_colored_everywhere():
    for seed in range(4):
        g = gen_random_clawfree_cubic(800 + seed, bridged=True)
        col = color_graph(g)
        bd = bridge_decompose(g)
        for verts, emap in zip(bd.vertices, bd.edge_maps):
            for v in verts:
                own = [eid for eid in emap if v in g.endpoints(eid)]
                if len(own) == 2:
                    assert all(col[eid] in ONE_COLORS for eid in own)


def test_sub_dipole_cycle_alternates_six(dipole):
    g = gen_substituted(SubstitutionPlan(dipole))
    (colors,) = cycle_colors(g)
    assert len(colors) == 6 and even_cycle_ok(colors)


def test_one_3a_per_odd_cycle_none_per_even(k4):
    # the Petersen graph's 2-factor is two 5-cycles, K4's one 4-cycle
    for h, strings in ((gen_petersen(), {0: 1}), (k4, {0: 1, 4: 2})):
        g = gen_substituted(SubstitutionPlan(h, strings))
        col = color_graph(g)
        assert verify(g, col) == []
        for positions, region in lifted_cycles(g):
            colors = [col[e] for e in positions]
            odd = len(positions) // 3 % 2
            assert (odd_cycle_ok if odd else even_cycle_ok)(colors)
            assert sum(1 for e in region if col[e] == COLOR_3A) == odd


def test_diamond_strings_vertex_disjoint(k4):
    g = gen_substituted(SubstitutionPlan(k4, {0: 2, 1: 1, 5: 3}))
    strings = collect_diamond_strings(g)
    assert sorted(s.k for s in strings) == [1, 2, 3]
    seen = set()
    for s in strings:
        vertices = set().union(*(d.vertices for d in s.diamonds))
        assert not (seen & vertices)
        seen |= vertices
    col = color_graph(g)
    assert verify(g, col) == []


# -- the boundary check ------------------------------------------------------

def boundary_inputs():
    plan = SubstitutionPlan(gen_petersen(), {0: 1})
    return {
        "k4": lambda: build_graph([(a, b) for a in range(4)
                                   for b in range(a + 1, 4)]),
        "ring": lambda: gen_ring(4),
        "substitution": lambda: gen_substituted(plan),
        "bridged": lambda: gen_random_clawfree_cubic(701, bridged=True),
    }


@pytest.mark.parametrize("name", sorted(boundary_inputs()))
def test_color_graph_verifies_once(monkeypatch, name):
    g = boundary_inputs()[name]()
    calls = []
    real = verify_mod.verify

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)
    monkeypatch.setattr(verify_mod, "verify", counted)
    monkeypatch.setattr(coloring_mod, "verify", counted)
    color_graph(g)
    assert calls == [g]


def test_boundary_rejection(monkeypatch, k4):
    def broken_diamonds_coloring(g, diamonds, edges, colors=ONE_COLORS):
        return {eid: COLOR_1A for eid in edges}
    monkeypatch.setattr(coloring_mod, "_diamonds_coloring",
                        broken_diamonds_coloring)

    with pytest.raises(ColoringFailed) as info:
        color_graph(k4)
    assert info.value.violations == verify(
        k4, broken_diamonds_coloring(k4, (), k4.edge_ids))
    assert info.value.violations

    report = run_corpus([CorpusEntry("k4", k4, "k4")])
    assert report.failures == 1 and report.rejected == 1
    assert any(line.startswith("colorings rejected: 1")
               for line in report.summary_lines())
