import random
from itertools import combinations

import pytest

from packedge.families import gen_random_clawfree_cubic
from packedge.graph import NotSimple, build_graph
from packedge.recognize import (find_bridges, find_claw, is_cubic,
                                is_two_edge_connected, require_clawfree_cubic)

from conftest import PARALLEL_EDGE_INPUTS, random_connected_graph
from reference import find_bridges_bruteforce


def brute_force_claws(g):
    """Oracle: every (center, 3 independent neighbors) combination."""
    out = []
    for v in g.vertices:
        for trio in combinations(g.neighbors(v), 3):
            if not any(g.has_edge(a, b) for a, b in combinations(trio, 2)):
                out.append((v, trio))
    return out


def test_cubic_k4(k4):
    assert is_cubic(k4)


def test_cubic_k3_fails():
    assert not is_cubic(build_graph([(0, 1), (1, 2), (0, 2)]))


def test_cubic_dipole(dipole):
    assert is_cubic(dipole)


def test_claw_k4_none(k4):
    assert find_claw(k4) is None


def test_claw_star():
    star = build_graph([(0, 1), (0, 2), (0, 3)])
    witness = find_claw(star)
    assert witness is not None
    assert witness.center == 0 and sorted(witness.leaves) == [1, 2, 3]


def test_claw_petersen(petersen):
    # triangle-free cubic graph: the oracle finds claws everywhere
    assert brute_force_claws(petersen)
    witness = find_claw(petersen)
    assert witness is not None
    # validate the witness independently
    for leaf in witness.leaves:
        assert petersen.has_edge(witness.center, leaf)
    for a, b in combinations(witness.leaves, 2):
        assert not petersen.has_edge(a, b)


@pytest.mark.parametrize("seed", range(8))
def test_claw_free_restatement_on_cubic(seed):
    # on cubic graphs: claw-free iff every neighborhood contains an edge
    g = gen_random_clawfree_cubic(300 + seed, bridged=bool(seed % 2))
    assert find_claw(g) is None
    for v in g.vertices:
        nbrs = g.neighbors(v)
        assert any(g.has_edge(a, b) for a, b in combinations(nbrs, 2))


def test_bridges_k4_empty(k4):
    assert find_bridges(k4) == frozenset()


def test_bridges_two_triangles_joined():
    g = build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    assert find_bridges(g) == {6}


def test_bridges_path_all():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    assert find_bridges(g) == {0, 1, 2}


def test_bridges_parallel_pair_not_bridges():
    g = build_graph([(0, 1), (0, 1), (1, 2)])
    assert find_bridges(g) == {2}


@pytest.mark.parametrize("seed", range(10))
def test_bridges_match_bruteforce(seed):
    rng = random.Random(200 + seed)
    g = random_connected_graph(rng, max_n=30)
    assert find_bridges(g) == find_bridges_bruteforce(g)


def test_two_edge_connected_k4(k4):
    assert is_two_edge_connected(k4)


def test_two_edge_connected_single_edge():
    assert not is_two_edge_connected(build_graph([(0, 1)]))


def test_two_edge_connected_dipole(dipole):
    assert is_two_edge_connected(dipole)


def test_two_edge_connected_needs_connectivity():
    g = build_graph([(0, 1), (0, 1), (2, 3), (2, 3)])
    assert not is_two_edge_connected(g)


@pytest.mark.parametrize("seed", range(6))
def test_bridge_endpoints_lie_on_triangles(seed):
    # claw-free cubic: a bridge endpoint always has two adjacent neighbors
    g = gen_random_clawfree_cubic(400 + seed, bridged=True)
    for eid in find_bridges(g):
        for v in g.endpoints(eid):
            nbrs = g.neighbors(v)
            assert any(g.has_edge(a, b) for a, b in combinations(nbrs, 2))


@pytest.mark.parametrize("name", PARALLEL_EDGE_INPUTS)
def test_gate_rejects_parallel_edges(name):
    g = PARALLEL_EDGE_INPUTS[name]()
    assert g.is_connected() and is_cubic(g) and find_claw(g) is None
    with pytest.raises(NotSimple, match="parallel edges"):
        require_clawfree_cubic(g)
