import pytest

from packedge.coloring import color_graph
from packedge.families import gen_ring, gen_substituted, SubstitutionPlan
from packedge.graph import TooLarge
from packedge.oracle import (BUDGET_EXCEEDED, EDGE_BOUND, FEASIBLE,
                             INFEASIBLE, oracle_color)
from packedge.verify import PackingSpec, verify

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


def test_empty_graph_feasible():
    from packedge.graph import build_graph
    assert oracle_color(build_graph([]), SPEC_1113).status == FEASIBLE


def test_edge_bound():
    # a ring of k diamonds has 6k edges; the search recurses once per edge
    assert oracle_color(gen_ring(EDGE_BOUND // 6), SPEC_1113).feasible
    with pytest.raises(TooLarge):
        oracle_color(gen_ring(EDGE_BOUND // 6 + 1), SPEC_1113)
