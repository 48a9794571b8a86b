import random

import pytest

from packedge.coloring import color_k4
from packedge.graph import build_graph
from packedge.verify import (BadSpec, DEFAULT_SPEC, PackingSpec,
                             PartialColoring, verify)

from conftest import random_connected_graph
from reference import edge_distance


def brute_force_violations(g, coloring, spec):
    """Oracle: check all pairs with plain edge distances."""
    labels = spec.labels()
    out = []
    for e in g.edge_ids:
        for f in g.edge_ids:
            if e >= f or coloring[e] != coloring[f]:
                continue
            ci = labels.index(coloring[e])
            d = edge_distance(g, e, f)
            if d < spec.s[ci] + 1:
                out.append((ci, e, f))
    return out


def test_spec_labels_default():
    assert DEFAULT_SPEC.labels() == ("1a", "1b", "1c", "3a")


def test_spec_labels_general():
    assert PackingSpec((1, 2, 2, 3)).labels() == ("1a", "2a", "2b", "3a")


def test_spec_validation():
    with pytest.raises(BadSpec):
        PackingSpec(())
    with pytest.raises(BadSpec):
        PackingSpec((2, 1))
    with pytest.raises(BadSpec):
        PackingSpec((0, 1))


def test_k4_three_coloring_ok(k4):
    assert verify(k4, color_k4(k4), DEFAULT_SPEC) == []


def test_adjacent_same_matching_color():
    g = build_graph([(0, 1), (1, 2)])
    bad = verify(g, {0: "1a", 1: "1a"}, DEFAULT_SPEC)
    assert len(bad) == 1
    v = bad[0]
    assert v.edges == (0, 1) and v.distance == 1 and v.required == 2


def test_two_3a_at_distance_three():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4)])
    coloring = {0: "3a", 1: "1a", 2: "1b", 3: "3a"}
    assert edge_distance(g, 0, 3) == 3
    bad = verify(g, coloring, DEFAULT_SPEC)
    assert [v for v in bad if v.edges == (0, 3)]
    v = next(v for v in bad if v.edges == (0, 3))
    assert v.distance == 3 and v.required == 4


def test_partial_coloring_raises(k4):
    with pytest.raises(PartialColoring):
        verify(k4, {0: "1a"}, DEFAULT_SPEC)


@pytest.mark.parametrize("seed", range(8))
def test_verify_matches_bruteforce(seed):
    rng = random.Random(900 + seed)
    g = random_connected_graph(rng, max_n=12)
    spec = DEFAULT_SPEC
    labels = spec.labels()
    coloring = {e: rng.choice(labels) for e in g.edge_ids}
    got = {(v.class_index, *v.edges) for v in verify(g, coloring, spec)}
    expected = set(brute_force_violations(g, coloring, spec))
    assert got == expected


def test_unknown_label_rejected(k4):
    with pytest.raises(BadSpec):
        verify(k4, {e: "9z" for e in k4.edge_ids}, DEFAULT_SPEC)
