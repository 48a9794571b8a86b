import inspect
import random
from itertools import combinations

import networkx as nx
import pytest

from packedge import matching
from packedge.families import (enumerate_cubic_multigraphs,
                               random_cubic_multigraph_2ec)
from packedge.graph import build_graph
from packedge.matching import (PlesnikViolated, perfect_matching_avoiding,
                               two_factor_containing)

from reference import connected_components, perfect_matching_avoiding_reference


def all_perfect_matchings(g):
    """Oracle: exhaustive enumeration over edge subsets via backtracking-free
    combinations (fine for the small graphs this is used on)."""
    target = g.n // 2
    out = []
    for subset in combinations(g.edge_ids, target):
        covered = []
        for eid in subset:
            covered.extend(g.endpoints(eid))
        if len(set(covered)) == g.n:
            out.append(frozenset(subset))
    return out


def check_two_factor(h, tf):
    incid = {v: [0, 0] for v in h.vertices}   # cycle edges, matching edges
    for tour in tf.cycles:
        assert len(tour) >= 2
        for eid in tour:
            for v in h.endpoints(eid):
                incid[v][0] += 1
    for eid in tf.complement:
        for v in h.endpoints(eid):
            incid[v][1] += 1
    assert all(counts == [2, 1] for counts in incid.values())
    assert set().union(*map(set, tf.cycles)) | tf.complement \
        == set(h.edge_ids)
    # the walk order must trace real edges
    for tour, verts in zip(tf.cycles, tf.cycle_vertices):
        for i, eid in enumerate(tour):
            a, b = verts[i], verts[(i + 1) % len(verts)]
            assert set(h.endpoints(eid)) == ({a, b} if a != b else {a})


def test_k4_matching_avoiding_edge(k4):
    for e in k4.edge_ids:
        m = perfect_matching_avoiding(k4, {e})
        assert m is not None and len(m) == 2 and e not in m
        assert m in all_perfect_matchings(k4)


def test_dipole_matching_avoiding(dipole):
    m = perfect_matching_avoiding(dipole, {0})
    assert m in ({1}, {2})


def test_petersen_has_six_perfect_matchings(petersen):
    assert len(all_perfect_matchings(petersen)) == 6


def test_petersen_matching_avoiding_two_edges(petersen):
    # two non-adjacent edges
    e = 0
    f = next(fid for fid in petersen.edge_ids
             if not set(petersen.endpoints(fid)) & set(petersen.endpoints(e)))
    m = perfect_matching_avoiding(petersen, {e, f})
    assert m is not None and len(m) == 5
    assert not {e, f} & m
    assert frozenset(m) in all_perfect_matchings(petersen)


def test_two_factor_k4_through_edge(k4):
    for e in k4.edge_ids:
        tf = two_factor_containing(k4, {e})
        check_two_factor(k4, tf)
        assert len(tf.cycles) == 1 and len(tf.cycles[0]) == 4
        assert e in tf.cycles[0]
        assert len(tf.complement) == 2


def test_two_factor_dipole_two_cycle(dipole):
    tf = two_factor_containing(dipole, {0})
    check_two_factor(dipole, tf)
    assert len(tf.cycles) == 1
    assert sorted(tf.cycles[0]) == [0, 1] or sorted(tf.cycles[0]) == [0, 2]
    assert len(tf.complement) == 1


def test_petersen_two_factor_is_two_five_cycles(petersen):
    tf = two_factor_containing(petersen)
    check_two_factor(petersen, tf)
    assert sorted(len(c) for c in tf.cycles) == [5, 5]


def test_petersen_every_matching_complement_two_five_cycles(petersen):
    from packedge.graph import build_graph
    for pm in all_perfect_matchings(petersen):
        rest = [petersen.endpoints(e) for e in petersen.edge_ids
                if e not in pm]
        sub = build_graph(rest)
        comps = connected_components(sub)
        assert sorted(len(c) for c in comps) == [5, 5]


def test_plesnik_exhaustive_small():
    # every ordered pair of edges on every 2EC cubic multigraph up to 6
    for n in (2, 4, 6):
        for h in enumerate_cubic_multigraphs(n):
            for e in h.edge_ids:
                for f in h.edge_ids:
                    tf = two_factor_containing(h, {e, f})
                    check_two_factor(h, tf)
                    cycle_edges = set().union(*map(set, tf.cycles))
                    assert e in cycle_edges and f in cycle_edges


def test_plesnik_on_petersen_all_pairs(petersen):
    # the 10-vertex corpus case, every ordered pair
    for e in petersen.edge_ids:
        for f in petersen.edge_ids:
            tf = two_factor_containing(petersen, {e, f})
            cycle_edges = set().union(*map(set, tf.cycles))
            assert e in cycle_edges and f in cycle_edges


def test_no_matching_raises():
    # K4 minus nothing has matchings, but forbidding a full vertex's edges
    # on the dipole kills them all
    from packedge.graph import build_graph
    dip = build_graph([(0, 1), (0, 1), (0, 1)])
    with pytest.raises(PlesnikViolated):
        two_factor_containing(dip, {0, 1, 2})


def check_avoiding(h, forbidden, m):
    """m is a perfect matching of h that uses no forbidden edge."""
    ends = [v for eid in m for v in h.endpoints(eid)]
    assert sorted(ends) == sorted(h.vertices)
    assert not set(m) & set(forbidden)


def agree_with_reference(h, forbidden):
    m = perfect_matching_avoiding(h, forbidden)
    ref = perfect_matching_avoiding_reference(h, forbidden)
    assert (m is None) == (ref is None), (h.edge_list(), forbidden)
    if m is not None:
        check_avoiding(h, forbidden, m)
    return m


def test_blossom_agrees_with_backtracking_on_enumerated():
    # every ordered pair of forbidden edges, plus the three edges at one
    # vertex with one more, on every 2-edge-connected cubic multigraph up
    # to 8 vertices
    nones = 0
    for n in (2, 4, 6, 8):
        for h in enumerate_cubic_multigraphs(n):
            for e in h.edge_ids:
                star = h.incident_edges(h.endpoints(e)[0])
                for f in h.edge_ids:
                    agree_with_reference(h, (e, f))
                    nones += agree_with_reference(h, star + (f,)) is None
    assert nones > 0


@pytest.mark.parametrize("n", [16, 32, 48])
def test_blossom_agrees_with_backtracking_on_random(n):
    # the backtracker takes more than 20 s on some |H| = 64 draws, so the
    # larger draws are compared with networkx below
    for seed in range(10):
        rng = random.Random(n * 100 + seed)
        h = random_cubic_multigraph_2ec(rng, n)
        for _ in range(4):
            forbidden = {rng.randrange(h.m), rng.randrange(h.m)}
            assert agree_with_reference(h, forbidden) is not None


@pytest.mark.parametrize("n", [64, 128])
def test_blossom_agrees_with_networkx_on_random(n):
    for seed in range(5):
        rng = random.Random(n * 100 + seed)
        h = random_cubic_multigraph_2ec(rng, n)
        for k in (2, n // 8, n // 2):
            forbidden = set(rng.sample(range(h.m), k))
            m = perfect_matching_avoiding(h, forbidden)
            allowed = nx.Graph()
            allowed.add_nodes_from(h.vertices)
            allowed.add_edges_from(h.endpoints(eid) for eid in h.edge_ids
                                   if eid not in forbidden)
            size = len(nx.max_weight_matching(allowed, maxcardinality=True))
            assert (m is not None) == (2 * size == n)
            if m is not None:
                check_avoiding(h, forbidden, m)


def test_blossom_needs_contraction(monkeypatch):
    # a triangle 0-1-2 with the tail 0-3-4-5: the greedy seed takes 0-1 and
    # 3-4, and the one augmenting path, from 2 to 5, runs round the triangle
    h = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)])
    meets = []
    tree_meet = matching._tree_meet
    monkeypatch.setattr(matching, "_tree_meet",
                        lambda *args: meets.append(args) or tree_meet(*args))
    assert perfect_matching_avoiding(h) == {2, 3, 5}
    assert meets
    assert perfect_matching_avoiding(h, {3}) is None


def test_odd_order_has_no_perfect_matching():
    triangle = build_graph([(0, 1), (1, 2), (0, 2)])
    assert perfect_matching_avoiding(triangle) is None
    assert perfect_matching_avoiding_reference(triangle) is None


def test_forbidding_a_whole_vertex_leaves_none(k4):
    for v in k4.vertices:
        star = k4.incident_edges(v)
        assert perfect_matching_avoiding(k4, star) is None
        assert perfect_matching_avoiding_reference(k4, star) is None
        with pytest.raises(PlesnikViolated):
            two_factor_containing(k4, star)


def test_matcher_is_not_recursive():
    # no function of the module calls itself or defines a named inner one
    for name, fn in vars(matching).items():
        if not (inspect.isfunction(fn) and fn.__module__ == matching.__name__):
            continue
        codes = [fn.__code__]
        for code in codes:
            assert name not in code.co_names, name
            inner = [c for c in code.co_consts if inspect.iscode(c)]
            assert all(c.co_name.startswith("<") for c in inner), name
            codes += inner
