import random

import networkx as nx
import pytest

from packedge.graph import (INFINITE, LoopRejected, TooLarge, UnknownEdge,
                            are_isomorphic_small, build_graph,
                            edge_distances_from)

from conftest import random_connected_graph
from reference import edge_distance, line_graph


def line_graph_bfs_distance(g, e, f):
    """Independent oracle: vertex distance between e and f in the explicit
    line graph."""
    lg = line_graph(g)
    dist = lg.vertex_distances(e)
    if e == f:
        return 0
    return dist.get(f, INFINITE)


# -- build_graph -------------------------------------------------------------

def test_build_empty():
    g = build_graph([])
    assert g.n == 0 and g.m == 0


def test_is_connected_counts_components():
    # the empty graph has no component, one vertex or K2 has one
    assert not build_graph([]).is_connected()
    assert build_graph([], vertices=["a"]).is_connected()
    assert build_graph([("a", "b")]).is_connected()
    assert not build_graph([("a", "b")], vertices=["c"]).is_connected()


def test_build_triangle():
    g = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
    assert g.n == 3 and g.m == 3
    assert all(g.degree(v) == 2 for v in g.vertices)


def test_build_parallel_edges():
    g = build_graph([("a", "b"), ("a", "b"), ("a", "b")])
    assert g.n == 2 and g.m == 3
    assert g.degree("a") == 3 and g.degree("b") == 3
    h = build_graph([("a", "c"), ("b", "a"), ("a", "b")])
    assert h.edge_between("a", "b") == h.edge_between("b", "a") == 1
    assert h.has_edge("c", "a") and not h.has_edge("b", "c")
    assert h.edge_between("a", "z") is None and not h.has_edge("z", "a")


def test_build_rejects_loop():
    with pytest.raises(LoopRejected):
        build_graph([("a", "a")])


def test_multiplicity_preserved():
    rng = random.Random(7)
    for _ in range(20):
        g = random_connected_graph(rng)
        assert g.m == len(g.edge_list())


# -- edge_distance -----------------------------------------------------------

def test_distance_identity():
    g = build_graph([(0, 1)])
    assert edge_distance(g, 0, 0) == 0


def test_distance_adjacent():
    g = build_graph([(0, 1), (1, 2)])
    assert edge_distance(g, 0, 1) == 1


def test_distance_path_two_apart():
    # expected value computed by the line-graph BFS oracle
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    assert line_graph_bfs_distance(g, 0, 2) == 2
    assert edge_distance(g, 0, 2) == 2


def test_distance_unknown_edge():
    g = build_graph([(0, 1), (1, 2)])
    with pytest.raises(UnknownEdge):
        edge_distance(g, 0, 5)
    # a negative id must not wrap around to the last edges
    for bad in (-1, -2, 2):
        with pytest.raises(UnknownEdge):
            g.endpoints(bad)
        with pytest.raises(UnknownEdge):
            edge_distances_from(g, bad)


def test_distance_infinite_across_components():
    g = build_graph([(0, 1), (2, 3)])
    assert edge_distance(g, 0, 1) == INFINITE


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_distance_matches_line_graph_bfs(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, max_n=30)
    for e in g.edge_ids:
        dist = edge_distances_from(g, e)
        for f in g.edge_ids:
            assert edge_distance(g, e, f) == line_graph_bfs_distance(g, e, f)
            assert dist.get(f, INFINITE) == line_graph_bfs_distance(g, e, f)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_distance_symmetric_and_triangle_inequality(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, max_n=15)
    eids = list(g.edge_ids)
    for e in eids:
        for f in eids:
            assert edge_distance(g, e, f) == edge_distance(g, f, e)
    for _ in range(60):
        e, f, h = (rng.choice(eids) for _ in range(3))
        assert edge_distance(g, e, h) <= \
            edge_distance(g, e, f) + edge_distance(g, f, h)


# -- line_graph --------------------------------------------------------------

def test_line_graph_k3_self_dual():
    k3 = build_graph([(0, 1), (1, 2), (0, 2)])
    assert are_isomorphic_small(line_graph(k3), k3)


def test_line_graph_p4_is_p3():
    p4 = build_graph([(0, 1), (1, 2), (2, 3)])
    p3 = build_graph([(0, 1), (1, 2)])
    assert are_isomorphic_small(line_graph(p4), p3)


def test_line_graph_k4_is_octahedron(k4):
    # brute-force oracle: adjacency iff the edges share an endpoint
    expected = []
    for e in k4.edge_ids:
        for f in k4.edge_ids:
            if e < f and set(k4.endpoints(e)) & set(k4.endpoints(f)):
                expected.append((e, f))
    lg = line_graph(k4)
    assert lg.n == 6 and sorted(lg.edge_list()) == sorted(expected)
    assert all(lg.degree(v) == 4 for v in lg.vertices)


# -- small-graph isomorphism -------------------------------------------------

def test_iso_k4_relabelled(k4):
    shuffled = build_graph([(u + 10, v + 10) for u, v in k4.edge_list()])
    assert are_isomorphic_small(k4, shuffled)


def test_iso_k4_vs_c4(k4):
    c4 = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not are_isomorphic_small(k4, c4)


def test_iso_degree_sequences_differ(dipole):
    path = build_graph([(0, 1), (1, 2), (2, 3)])
    assert not are_isomorphic_small(dipole, path)


def test_iso_too_large():
    big = build_graph([(i, i + 1) for i in range(17)])
    with pytest.raises(TooLarge):
        are_isomorphic_small(big, big)


def to_networkx(g):
    gx = nx.MultiGraph()
    gx.add_nodes_from(g.vertices)
    gx.add_edges_from(g.edge_list())
    return gx


@pytest.mark.parametrize("seed", range(12))
def test_iso_agrees_with_networkx(seed):
    rng = random.Random(100 + seed)
    g1 = random_connected_graph(rng, max_n=9)
    if seed % 2:
        # relabelled copy: must be isomorphic
        perm = list(g1.vertices)
        rng.shuffle(perm)
        relabel = dict(zip(g1.vertices, perm))
        g2 = build_graph([(relabel[u], relabel[v]) for u, v in g1.edge_list()])
    else:
        g2 = random_connected_graph(rng, max_n=9)
    expected = nx.is_isomorphic(to_networkx(g1), to_networkx(g2))
    assert are_isomorphic_small(g1, g2) == expected
