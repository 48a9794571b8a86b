import pytest

from packedge.coloring import color_graph
from packedge.families import (enumerate_cubic_multigraphs, gen_k4,
                               gen_petersen, gen_random_clawfree_cubic,
                               gen_ring, gen_substituted, gen_tietze,
                               SubstitutionPlan)
from packedge.graph import TooLarge, build_graph
from packedge.oracle import (BUDGET_EXCEEDED, EDGE_BOUND, FEASIBLE,
                             INFEASIBLE, oracle_color)
from packedge.verify import PackingSpec, verify

from reference import oracle_reference

SPEC_1113 = PackingSpec((1, 1, 1, 3))
SPEC_1112 = PackingSpec((1, 1, 1, 2))
SPEC_111 = PackingSpec((1, 1, 1))


def test_k4_proper_three_coloring_feasible(k4):
    result = oracle_color(k4, SPEC_111)
    assert result.status == FEASIBLE
    assert verify(k4, result.coloring, SPEC_111) == []


def test_k4_two_matchings_infeasible(k4):
    assert oracle_color(k4, PackingSpec((1, 1))).status == INFEASIBLE


def test_petersen_1113_infeasible(petersen):
    result = oracle_color(petersen, SPEC_1113)
    assert result.status == INFEASIBLE


def test_tietze_1113_infeasible(tietze):
    result = oracle_color(tietze, SPEC_1113)
    assert result.status == INFEASIBLE


def test_petersen_1112_feasible(petersen):
    result = oracle_color(petersen, SPEC_1112)
    assert result.status == FEASIBLE
    assert verify(petersen, result.coloring, SPEC_1112) == []


def test_tietze_1112_feasible(tietze):
    result = oracle_color(tietze, SPEC_1112)
    assert result.status == FEASIBLE


def test_budget_exceeded_is_distinct(petersen):
    result = oracle_color(petersen, SPEC_1113, budget=50)
    assert result.status == BUDGET_EXCEEDED
    assert result.coloring is None


@pytest.mark.parametrize("make,spec", [
    (lambda: gen_ring(2), SPEC_1113),
    (lambda: gen_substituted(SubstitutionPlan(gen_ring(2))), SPEC_1113),
])
def test_oracle_agrees_with_constructive(make, spec):
    g = make()
    result = oracle_color(g, spec)
    assert result.status == FEASIBLE
    assert verify(g, color_graph(g), spec) == []


@pytest.mark.parametrize("spec", [SPEC_111, PackingSpec((1, 1)),
                                  PackingSpec((1, 2)), SPEC_1113])
def test_symmetry_breaking_never_changes_verdict(k4, spec):
    with_sb = oracle_color(k4, spec, symmetry_breaking=True)
    without = oracle_color(k4, spec, symmetry_breaking=False)
    assert with_sb.status == without.status
    assert with_sb.nodes <= without.nodes


def test_symmetry_breaking_infeasible_unchanged(petersen):
    with_sb = oracle_color(petersen, SPEC_1113, symmetry_breaking=True)
    without = oracle_color(petersen, SPEC_1113, symmetry_breaking=False)
    assert with_sb.status == without.status == INFEASIBLE


def test_symmetry_break_keeps_later_runs_open():
    # corpus sub-4v-1-plain: feasible with (1,1,2,2), but not with 1b closed
    # and every class after it, 2a and 2b included, while 1a is unused
    g = build_graph([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                     (6, 7), (6, 8), (7, 8), (9, 10), (9, 11), (10, 11),
                     (0, 3), (1, 4), (2, 6), (5, 9), (7, 10), (8, 11)])
    spec = PackingSpec((1, 1, 2, 2))
    for symmetry_breaking in (True, False):
        result = oracle_color(g, spec, symmetry_breaking=symmetry_breaking)
        assert result.status == FEASIBLE
        assert verify(g, result.coloring, spec) == []


def _differential_graphs(corpus):
    yield gen_petersen()
    yield gen_tietze()
    yield gen_k4()
    for n in (2, 4, 6):
        for h in enumerate_cubic_multigraphs(n):
            yield h
            yield gen_substituted(SubstitutionPlan(h))
    yield from (e.graph for e in corpus if e.graph.n <= 12)


def test_oracle_matches_static_reference(corpus):
    checked = 0
    for g in _differential_graphs(corpus):
        for spec in (SPEC_1112, PackingSpec((1, 1, 2, 2)), SPEC_1113):
            expected = oracle_reference(g, spec, budget=2 * 10 ** 4)
            if expected == BUDGET_EXCEEDED:
                continue
            assert oracle_color(g, spec).status == expected, (g, spec)
            checked += 1
    assert checked >= 70


def test_sub_8v_11_within_node_bound():
    # the static edge order needed 3.30 M nodes on this perfbench input
    g = gen_substituted(SubstitutionPlan(enumerate_cubic_multigraphs(8)[11]))
    result = oracle_color(g, SPEC_1112, budget=10 ** 4)
    assert result.status == FEASIBLE


@pytest.mark.parametrize("h_vertices", [16, 24, 32])
@pytest.mark.parametrize("seed", range(1, 7))
def test_reaches_random_clawfree_graphs(seed, h_vertices):
    g = gen_random_clawfree_cubic(seed, h_vertices=h_vertices)
    result = oracle_color(g, SPEC_1113, budget=10 ** 4)
    assert result.status == FEASIBLE
    assert verify(g, result.coloring, SPEC_1113) == []


def test_empty_graph_feasible():
    from packedge.graph import build_graph
    assert oracle_color(build_graph([]), SPEC_1113).status == FEASIBLE


def test_edge_bound():
    # a ring of k diamonds has 6k edges; the bound holds however easy the
    # graph, so the oracle's promise of an exhaustive answer stays small
    assert oracle_color(gen_ring(EDGE_BOUND // 6), SPEC_1113).feasible
    with pytest.raises(TooLarge):
        oracle_color(gen_ring(EDGE_BOUND // 6 + 1), SPEC_1113)
