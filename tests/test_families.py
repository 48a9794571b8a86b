import hashlib
import json
from collections import Counter
from itertools import combinations, permutations, product

import networkx as nx
import pytest

from packedge.families import (BadCount, BridgedPlan, InvalidPlan,
                               SubstitutionPlan,
                               enumerate_cubic_multigraphs, gen_big_component,
                               gen_bridged, gen_k4, gen_leaf7, gen_leaf7_pair,
                               gen_petersen, gen_random_clawfree_cubic,
                               gen_ring, gen_substituted, gen_tietze,
                               random_cubic_multigraph_2ec,
                               _labeled_cubic_multigraphs, _triangle_count)
from packedge.graph import are_isomorphic_small, build_graph
from packedge.recognize import (find_bridges, find_claw, is_cubic,
                                is_two_edge_connected)
from packedge.structure import IS_K4, oum_decompose
from conftest import decompose_whole, whole_boundary
from reference import labeled_cubic_multigraphs_reference


def bfs_girth(g):
    """Oracle: shortest cycle via BFS from every vertex, edge-id aware."""
    best = float("inf")
    for root in g.vertices:
        dist = {root: 0}
        parent_edge = {root: None}
        queue = [root]
        while queue:
            nxt = []
            for v in queue:
                for eid, u in g.incident(v):
                    if eid == parent_edge[v]:
                        continue
                    if u in dist:
                        best = min(best, dist[v] + dist[u] + 1)
                    else:
                        dist[u] = dist[v] + 1
                        parent_edge[u] = eid
                        nxt.append(u)
            queue = nxt
    return best


def triangles(g):
    out = set()
    for v in g.vertices:
        for a, b in combinations(g.neighbors(v), 2):
            if g.has_edge(a, b):
                out.add(frozenset((v, a, b)))
    return out


# -- fixed families ----------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 7, 10])
def test_ring_counts(k):
    g = gen_ring(k)
    assert g.n == 4 * k and g.m == 6 * k
    assert oum_decompose(g).ring_size == k
    assert is_cubic(g) and find_claw(g) is None


def test_ring_rejects_k1():
    with pytest.raises(BadCount):
        gen_ring(1)


def test_substituted_k4_counts(k4):
    g = gen_substituted(SubstitutionPlan(k4))
    assert g.n == 12 and g.m == 18
    assert is_cubic(g) and find_claw(g) is None


def test_substituted_one_string_adds_four(k4):
    g = gen_substituted(SubstitutionPlan(k4, {0: 1}))
    assert g.n == 16


def test_substituted_dipole_is_prism(dipole, prism):
    g = gen_substituted(SubstitutionPlan(dipole))
    assert g.n == 6 and g.m == 9
    assert is_cubic(g) and find_claw(g) is None
    assert are_isomorphic_small(g, prism)
    assert not are_isomorphic_small(
        g, build_graph([(a, b + 3) for a in range(3) for b in range(3)]))


def test_substituted_rejects_bad_plans(k4):
    with pytest.raises(InvalidPlan):
        gen_substituted(SubstitutionPlan(k4, {0: 0}))
    with pytest.raises(InvalidPlan):
        gen_substituted(SubstitutionPlan(build_graph([(0, 1)])))


def test_petersen_stats(petersen):
    assert petersen.n == 10 and petersen.m == 15
    assert is_cubic(petersen)
    assert bfs_girth(petersen) == 5


def test_tietze_stats(tietze):
    assert tietze.n == 12 and tietze.m == 18
    assert is_cubic(tietze)
    assert len(triangles(tietze)) == 1


def test_leaf7(leaf7):
    assert leaf7.degree_sequence() == (2, 3, 3, 3, 3, 3, 3)
    # its completion is K4
    assert decompose_whole(leaf7).variant == IS_K4


def test_leaf7_pair(leaf7_pair):
    assert leaf7_pair.n == 14
    assert is_cubic(leaf7_pair) and find_claw(leaf7_pair) is None
    assert len(find_bridges(leaf7_pair)) == 1


def test_big_component_boundary_sizes():
    for chains in ((1,), (1, 1), (2, 1, 3), (1, 1, 1, 1), (0, 0), (0, 2, 0)):
        g = gen_big_component(chains)
        b = whole_boundary(g)
        assert b.r == len(chains)
        assert g.n == 3 * len(chains) + 4 * sum(chains)
    assert are_isomorphic_small(gen_big_component((1,)), gen_leaf7())


@pytest.mark.parametrize("chains", [(), (0,), (-1, 1)])
def test_big_component_rejects_bad_chains(chains):
    # (0,) would join a lone triangle to itself by a second u-w edge
    with pytest.raises(BadCount):
        gen_big_component(chains)


def test_bridged_plan_degree_mismatch():
    with pytest.raises(BadCount):
        gen_bridged(BridgedPlan(parents=(0,), recipes=(("k3",), ("k3",))))


# -- random generation -------------------------------------------------------

def test_random_deterministic():
    a = gen_random_clawfree_cubic(1)
    b = gen_random_clawfree_cubic(1)
    assert a.edge_list() == b.edge_list()


@pytest.mark.parametrize("seed", range(6))
def test_random_passes_recognition(seed):
    g = gen_random_clawfree_cubic(seed)
    assert is_cubic(g) and find_claw(g) is None and g.is_connected()


@pytest.mark.parametrize("seed", range(6))
def test_random_bridged_has_bridges(seed):
    g = gen_random_clawfree_cubic(seed, bridged=True)
    assert find_bridges(g)
    assert is_cubic(g) and find_claw(g) is None


def test_random_h_is_2ec_cubic_multigraph():
    import random as _random
    rng = _random.Random(5)
    for n in (4, 6, 8, 12):
        h = random_cubic_multigraph_2ec(rng, n)
        assert h.n == n and is_cubic(h) and is_two_edge_connected(h)


# -- enumeration -------------------------------------------------------------

def bruteforce_multigraphs_n4():
    """Fully independent n=4 oracle: all upper-triangle multiplicity
    vectors, filtered to cubic + connected, deduped with networkx."""
    pairs = list(combinations(range(4), 2))
    found = []
    for mults in product(range(4), repeat=6):
        deg = [0] * 4
        for (u, v), m in zip(pairs, mults):
            deg[u] += m
            deg[v] += m
        if deg != [3, 3, 3, 3]:
            continue
        gx = nx.MultiGraph()
        gx.add_nodes_from(range(4))
        for (u, v), m in zip(pairs, mults):
            gx.add_edges_from([(u, v)] * m)
        if not nx.is_connected(gx):
            continue
        if any(nx.is_isomorphic(gx, other) for other in found):
            continue
        found.append(gx)
    return found


def test_enumeration_n4_matches_bruteforce():
    expected = bruteforce_multigraphs_n4()
    got = enumerate_cubic_multigraphs(4, two_edge_connected=False)
    assert len(got) == len(expected) == 2


def test_enumeration_counts():
    assert len(enumerate_cubic_multigraphs(2)) == 1
    assert len(enumerate_cubic_multigraphs(4)) == 2
    assert len(enumerate_cubic_multigraphs(6)) == 5
    assert len(enumerate_cubic_multigraphs(8)) == 16
    connected = [len(enumerate_cubic_multigraphs(n, two_edge_connected=False))
                 for n in (2, 4, 6, 8)]
    assert connected == [1, 2, 6, 20]


@pytest.mark.parametrize("n", [-2, 0, 1, 3, 9])
def test_enumeration_rejects_bad_order(n):
    with pytest.raises(BadCount):
        enumerate_cubic_multigraphs(n)
    with pytest.raises(BadCount):
        enumerate_cubic_multigraphs(n, two_edge_connected=False)


def parents_non_decreasing(edges, n):
    """parent(v), the smallest neighbor of v below v, never decreases."""
    parent = [n] * n
    for u, v in edges:
        lo, hi = min(u, v), max(u, v)
        parent[hi] = min(parent[hi], lo)
    return all(a <= b for a, b in zip(parent[1:], parent[2:]))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_pruned_stream_is_filtered_reference(n):
    """The generator yields exactly the unpruned labelings whose parents do
    not decrease, as the same edge lists in the same order."""
    expected = [edges for edges in labeled_cubic_multigraphs_reference(n)
                if parents_non_decreasing(edges, n)]
    assert list(_labeled_cubic_multigraphs(n)) == expected


def upper_triangle(edges, n):
    mult = Counter((min(u, v), max(u, v)) for u, v in edges)
    return tuple(mult[a, b] for a in range(n) for b in range(a + 1, n))


def valid_relabelings(h, n):
    """Every relabeling of h in which each vertex beyond 0 has a
    lower-numbered neighbor."""
    for perm in permutations(range(n)):
        edges = [(perm[u], perm[v]) for u, v in h.edge_list()]
        if all(any(min(e) < w == max(e) for e in edges)
               for w in range(1, n)):
            yield edges


@pytest.mark.parametrize("n", [2, 4, 6])
def test_representative_is_lex_greatest_valid_labeling(n):
    """Brute force over all n! relabelings: each representative is its
    class's lexicographically greatest valid labeling."""
    for h in enumerate_cubic_multigraphs(n, two_edge_connected=False):
        best = max(upper_triangle(edges, n)
                   for edges in valid_relabelings(h, n))
        assert upper_triangle(h.edge_list(), n) == best


# sha256 of the enumerated edge lists for n = 2, 4, 6, 8, as first computed
# with the unpruned generator
ENUMERATION_DIGESTS = {
    True: "45662f8a87e26f4c12edbbd6b9237fadcabce22d4274f9b242ca0db9ebc5ed27",
    False: "482a3d0ca835c89e52a0feb50207974a864681dc6b7116de7cd7dcbf105abf6f",
}


@pytest.mark.parametrize("two_edge_connected", [True, False])
def test_enumeration_digest_pinned(two_edge_connected):
    """Representatives keep their exact edge lists and order."""
    payload = [[list(e) for e in h.edge_list()] for n in (2, 4, 6, 8)
               for h in enumerate_cubic_multigraphs(n, two_edge_connected)]
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    assert digest == ENUMERATION_DIGESTS[two_edge_connected]


def test_enumeration_all_2ec_cubic():
    for n in (2, 4, 6, 8):
        for h in enumerate_cubic_multigraphs(n):
            assert h.n == n and is_cubic(h) and is_two_edge_connected(h)


def test_enumeration_pairwise_non_isomorphic():
    for n in (2, 4, 6, 8):
        for two_edge_connected in (True, False):
            graphs = enumerate_cubic_multigraphs(n, two_edge_connected)
            for a, b in combinations(graphs, 2):
                assert not are_isomorphic_small(a, b)


def multigraph_has_bridge(gx):
    simple = nx.Graph(gx)
    return any(gx.number_of_edges(u, v) == 1
               for u, v in nx.bridges(simple))


def test_enumeration_n6_agrees_with_networkx_dedupe():
    """Independent dedupe of the whole unpruned labeled space with
    networkx VF2."""
    reps = []
    for edges in labeled_cubic_multigraphs_reference(6):
        gx = nx.MultiGraph()
        gx.add_nodes_from(range(6))
        gx.add_edges_from(edges)
        if any(nx.is_isomorphic(gx, r) for r in reps):
            continue
        reps.append(gx)
    assert len(reps) == \
        len(enumerate_cubic_multigraphs(6, two_edge_connected=False))
    bridgeless = [r for r in reps if not multigraph_has_bridge(r)]
    assert len(bridgeless) == len(enumerate_cubic_multigraphs(6)) == 5
