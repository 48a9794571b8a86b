import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from packedge.coloring import color_graph
from packedge.families import (SubstitutionPlan, gen_random_clawfree_cubic,
                               gen_substituted, random_cubic_multigraph_2ec)
from packedge.graph import UnknownEdge, build_graph
from packedge.verify import (BadSpec, DEFAULT_SPEC, PackingSpec,
                             PartialColoring, Violation, verify)

from conftest import random_connected_graph
from reference import edge_distance, verify_reference


def _load_checker():
    """perfbench's independent output checker, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checker.py"
    spec = importlib.util.spec_from_file_location("perfbench_checker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()
verify_mod = importlib.import_module("packedge.verify")   # not the function

BRUTE_FORCE_SPECS = (DEFAULT_SPEC, PackingSpec((1, 2, 2, 3)),
                     PackingSpec((2, 4)), PackingSpec((1, 5)))
# color_graph colors for (1,1,1,3); its 3a edges are also a valid 2a class
DIFFERENTIAL_SPECS = ((DEFAULT_SPEC, {}), (PackingSpec((1, 1, 1, 2)),
                                           {"3a": "2a"}))


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
                out.append(Violation(ci, (e, f), d, spec.s[ci] + 1))
    return sorted(out, key=lambda v: (v.class_index, v.edges))


def assert_verifiers_agree(g, coloring, spec):
    """verify, the BFS reference and perfbench's checker give one verdict,
    and the first two the same violations; returns those."""
    got = verify(g, coloring, spec)
    assert got == verify_reference(g, coloring, spec)
    verdict = checker.check_coloring(checker.LineGraph(g.edge_list()),
                                     coloring, spec.s)
    assert (verdict is None) == (got == []), verdict
    return got


def differential_check(g, coloring, rng, mutations):
    """Compare the verifiers on color_graph's coloring, on single-label
    mutations of it and on a random coloring, under both specs."""
    for spec, relabel in DIFFERENTIAL_SPECS:
        labels = spec.labels()
        valid = {e: relabel.get(c, c) for e, c in coloring.items()}
        assert assert_verifiers_agree(g, valid, spec) == []
        for _ in range(mutations):
            e = rng.randrange(g.m)
            mutated = dict(valid)
            mutated[e] = rng.choice([c for c in labels if c != valid[e]])
            assert_verifiers_agree(g, mutated, spec)
        assert_verifiers_agree(
            g, {e: rng.choice(labels) for e in g.edge_ids}, spec)


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
    assert verify(k4, color_graph(k4), DEFAULT_SPEC) == []


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
    # non-cubic graphs with parallel edges; odd and even s up to 5
    rng = random.Random(900 + seed)
    g = random_connected_graph(rng, max_n=12)
    for spec in BRUTE_FORCE_SPECS:
        coloring = {e: rng.choice(spec.labels()) for e in g.edge_ids}
        expected = brute_force_violations(g, coloring, spec)
        assert verify(g, coloring, spec) == expected
        assert verify_reference(g, coloring, spec) == expected


def test_unknown_label_rejected(k4):
    with pytest.raises(BadSpec):
        verify(k4, {e: "9z" for e in k4.edge_ids}, DEFAULT_SPEC)


def test_label_on_unknown_edge_rejected(k4):
    for extra in (k4.m, 99, -1):
        coloring = color_graph(k4)
        coloring[extra] = "1a"
        with pytest.raises(UnknownEdge):
            verify(k4, coloring, DEFAULT_SPEC)


@pytest.mark.parametrize("part", range(4))
def test_verifiers_agree_on_corpus(corpus, part):
    rng = random.Random(1400 + part)
    for entry in corpus[part::4]:
        differential_check(entry.graph, color_graph(entry.graph), rng,
                           mutations=2)


@pytest.mark.parametrize("seed", range(8))
def test_verifiers_agree_on_random_clawfree(seed):
    rng = random.Random(1500 + seed)
    g = gen_random_clawfree_cubic(1500 + seed, h_vertices=16,
                                  bridged=bool(seed % 2))
    differential_check(g, color_graph(g), rng, mutations=8)


def test_valid_coloring_searches_no_distance(monkeypatch):
    rng = random.Random(256)
    h = random_cubic_multigraph_2ec(rng, 256)
    g = gen_substituted(SubstitutionPlan(h, {eid: rng.randint(1, 3)
                                             for eid in h.edge_ids
                                             if rng.random() < 0.3}))
    coloring = color_graph(g)
    sources = []
    real = verify_mod.edge_distances_from

    def counted(g, e, cap=None):
        sources.append(e)
        return real(g, e, cap)
    monkeypatch.setattr(verify_mod, "edge_distances_from", counted)
    assert verify(g, coloring) == []
    assert sources == []

    e = next(e for e in g.edge_ids if coloring[e] == "3a")
    f = next(f for f in g.edge_ids if coloring[f] == "1a"
             and set(g.endpoints(f)) & set(g.endpoints(e)))
    coloring[f] = "3a"
    bad = verify(g, coloring)
    assert bad and sources == sorted({v.edges[0] for v in bad})
