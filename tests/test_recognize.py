import random
from itertools import combinations

import pytest

from packedge.families import (enumerate_cubic_multigraphs,
                               gen_random_clawfree_cubic,
                               random_cubic_multigraph_2ec)
from packedge.graph import NotSimple, build_graph
from packedge.recognize import (NotClawFree, NotConnected, NotCubic,
                                _bridge_dfs, find_bridges, find_claw,
                                is_cubic, is_two_edge_connected,
                                require_clawfree_cubic)

from conftest import PARALLEL_EDGE_INPUTS, random_connected_graph
from reference import (bridge_components_reference, find_bridges_bruteforce,
                       links_reference)


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


# -- the one-pass gate -------------------------------------------------------

def test_gate_facts_match_references_on_corpus(corpus):
    # bridges, components and links of every corpus graph, each against its
    # definitional reference
    for entry in corpus:
        g = entry.graph
        facts = require_clawfree_cubic(g)
        assert facts.bridges == find_bridges_bruteforce(g), entry.name
        assert list(facts.components) == \
            bridge_components_reference(g, facts.bridges), entry.name
        assert facts.links == {v: links_reference(g, v)
                               for v in g.vertices}, entry.name


@pytest.mark.parametrize("seed", range(12))
def test_gate_bridges_match_bruteforce_on_bridged_graphs(seed):
    g = gen_random_clawfree_cubic(900 + seed, bridged=True)
    facts = require_clawfree_cubic(g)
    assert facts.bridges and facts.bridges == find_bridges_bruteforce(g)
    assert list(facts.components) == \
        bridge_components_reference(g, facts.bridges)


@pytest.mark.parametrize("seed", range(20))
def test_bridge_dfs_on_multigraphs(seed):
    # random multigraphs, every third one disconnected, with some edges
    # doubled: a parallel edge is never a bridge
    rng = random.Random(500 + seed)
    g = random_connected_graph(rng, max_n=25)
    edges = list(g.edge_list())
    edges += [edges[rng.randrange(len(edges))] for _ in range(3)]
    if seed % 3 == 0:
        edges += [(u + g.n, v + g.n) for u, v in edges[:g.n]]
    g = build_graph(edges)
    bridges, components = _bridge_dfs(g)
    assert bridges == find_bridges(g) == find_bridges_bruteforce(g)
    assert not any(edges.count(g.endpoints(eid)) > 1 for eid in bridges)
    assert list(components) == bridge_components_reference(g, bridges)
    # one more component than bridges exactly when g is connected
    assert (len(components) == len(bridges) + 1) == g.is_connected()
    assert g.is_connected() == (seed % 3 != 0)


def k33_minus_edge_with_digon():
    """K3,3 less the edge u0v0, whose ends reach a digon x=y: cubic and
    connected, with a parallel edge and a claw at every other K3,3 vertex."""
    k33 = [(u, v) for u in range(3) for v in range(3, 6) if (u, v) != (0, 3)]
    return build_graph(k33 + [(0, 6), (3, 7), (6, 7), (6, 7)])


@pytest.mark.parametrize("edges, error", [
    ([], NotConnected),
    ([(0, 1), (1, 2), (0, 2), (3, 4)], NotConnected),      # and not cubic
    ([(0, 1), (0, 1), (1, 2), (2, 0)], NotCubic),          # and parallel
    (k33_minus_edge_with_digon().edge_list(), NotSimple),  # and a claw
], ids=["empty", "disconnected-noncubic", "noncubic-parallel",
        "parallel-claw"])
def test_gate_error_order(edges, error):
    g = build_graph(edges)
    if error is NotSimple:
        assert g.is_connected() and is_cubic(g) and find_claw(g) is not None
    with pytest.raises(error) as caught:
        require_clawfree_cubic(g)
    assert type(caught.value) is error
    if not edges:
        assert str(caught.value) == "input graph is empty"


def test_gate_claw_message_is_find_claw_witness(petersen):
    # every simple connected cubic graph on up to 8 vertices with a claw,
    # Petersen, and seeded random cubic graphs on 10-28 vertices
    rng = random.Random(31)
    graphs = [g for n in (4, 6, 8)
              for g in enumerate_cubic_multigraphs(n, two_edge_connected=False)]
    graphs += [petersen] + [random_cubic_multigraph_2ec(rng, n)
                            for n in range(10, 30, 2) for _ in range(6)]
    clawed = [g for g in graphs if g.is_simple() and find_claw(g) is not None]
    assert len(clawed) >= 20
    for g in clawed:
        witness = find_claw(g)
        with pytest.raises(NotClawFree) as caught:
            require_clawfree_cubic(g)
        assert str(caught.value) == \
            f"claw at {witness.center!r} with leaves {witness.leaves}"
