import importlib
import random
import sys
from pathlib import Path

import pytest

from packedge.corpus import build_corpus, run_corpus
from packedge.families import (BridgedPlan, gen_bridged, gen_k4, gen_leaf7,
                               gen_leaf7_pair, gen_petersen, gen_ring,
                               gen_tietze)
from packedge.graph import build_graph
from packedge.structure import component_boundary, oum_decompose


@pytest.fixture(scope="session")
def petersen():
    return gen_petersen()


@pytest.fixture(scope="session")
def tietze():
    return gen_tietze()


@pytest.fixture
def k4():
    return gen_k4()


@pytest.fixture
def leaf7():
    return gen_leaf7()


@pytest.fixture
def leaf7_pair():
    return gen_leaf7_pair()


@pytest.fixture
def dipole():
    return build_graph([(0, 1), (0, 1), (0, 1)])


@pytest.fixture
def prism():
    return build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                        (0, 3), (1, 4), (2, 5)])


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_report(corpus):
    return run_corpus(corpus)


def random_connected_graph(rng: random.Random, max_n: int = 30):
    """Random connected graph used by distance/bridge property tests."""
    n = rng.randint(2, max_n)
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))   # parallel edges welcome
    return build_graph(edges, vertices=range(n))


def necklace(k):
    """k digons in a cycle, each joined to the next by one edge."""
    edges = []
    for i in range(k):
        a, b = 2 * i, 2 * i + 1
        edges += [(a, b), (a, b), (b, (b + 1) % (2 * k))]
    return build_graph(edges)


# connected cubic multigraphs without a claw: only their parallel edges put
# them outside the input class
PARALLEL_EDGE_INPUTS = {
    "theta": lambda: build_graph([(0, 1)] * 3),
    "necklace-3": lambda: necklace(3),
    "necklace-4": lambda: necklace(4),
    "k4-minus-edge-with-digon": lambda: build_graph(
        [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 5), (4, 5),
         (4, 5)]),
}


def perfbench_workloads():
    """The `workloads` module of the repository's perfbench folder."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(perfbench))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(perfbench))


def whole_boundary(g, up_vertex=None):
    """The boundary of g read as a standalone big component: all of g, no
    bridges."""
    degree2 = [v for v in g.vertices if g.degree(v) == 2]
    return component_boundary(g, frozenset(), degree2, up_vertex)


def decompose_whole(g, boundary=None):
    """`oum_decompose` on all of g as a standalone big component, its
    boundary read from g unless given."""
    return oum_decompose(g, g.vertices, g.edge_ids,
                         boundary or whole_boundary(g))


def diamond_path(rng: random.Random, d: int):
    """d diamonds in a row between two big leaves with one boundary vertex."""
    recipes = ([("big", (rng.randint(1, 3),))] + [("diamond",)] * d
               + [("big", (rng.randint(1, 3),))])
    return gen_bridged(BridgedPlan(parents=tuple(range(d + 1)),
                                   recipes=tuple(recipes)))


def bushy_tree(rng: random.Random, internal: int):
    """Random tree of `internal` degree-3 components (K3s, or big components
    with three boundary vertices), every leaf a big component with one
    boundary vertex, some reached through one with two."""
    parents = []
    recipes = [("k3",)]
    slots = [0, 0, 0]
    for _ in range(internal - 1):
        p = slots.pop(rng.randrange(len(slots)))
        parents.append(p)
        slots += [len(recipes), len(recipes)]
        recipes.append(("big", tuple(rng.randint(1, 3) for _ in range(3)))
                       if rng.random() < 0.3 else ("k3",))
    for p in slots:
        if rng.random() < 0.3:
            parents.append(p)
            p = len(recipes)
            recipes.append(("big", (rng.randint(1, 3), rng.randint(1, 3))))
        parents.append(p)
        recipes.append(("big", (rng.randint(1, 3),)))
    return gen_bridged(BridgedPlan(parents=tuple(parents),
                                   recipes=tuple(recipes)))
