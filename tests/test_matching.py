from itertools import combinations

import pytest

from packedge.families import enumerate_cubic_multigraphs
from packedge.matching import (PlesnikViolated, perfect_matching_avoiding,
                               two_factor_containing)

from reference import connected_components


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
