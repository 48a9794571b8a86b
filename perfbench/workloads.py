"""Workload inputs and the operation each workload times.

Every input is built through `packedge.families` and `packedge.corpus` from
the workload seed alone; the program under test only ever sees the generated
graphs (as edge-list text on `corpus` and `ladder`).

Rungs group inputs of one family and size.  Each workload marks, per family
(`ring`, `sub`, `tree`), its top inputs: the top rung on `ladder`, the
larger half by edge count on `corpus` and `oracle`.  The end-to-end
`*_top_us_per_edge` metrics are medians over ops on those inputs.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from packedge import coloring, corpus, families, formats, graph, oracle

# the package's `verify` attribute is the function, not the module
verify = importlib.import_module("packedge.verify")

from checker import (SPEC_1112, SPEC_1113, LineGraph, check_coloring,
                     parse_coloring_document)

# ladder rungs: rings of k diamonds, substitutions of random 2-edge-connected
# cubic H, paths of D diamonds between two big leaves, bushy trees of I
# degree-3 components.  A top rung holds several graphs (rings: seeded
# relabellings of one ring) so that its median is taken over enough ops per
# run; the top substitution rung needs the most, because the 2-factor's cost
# swings by 10x between draws of H.  At |H| = 48 even 32 draws leave that
# median varying by 1.9x between seeds, so the substitution rungs stop at 40.
RING_KS = (25, 50, 100)
SUB_HS = (16, 24, 32, 40)
PATH_DS = (100, 200, 400, 800)
BUSHY_IS = (15, 30, 60)
RINGS_AT_TOP = 8
SUBS_PER_RUNG = 6
SUBS_AT_TOP = 32
PATHS_AT_TOP = 4
STRING_CHANCE = 0.3          # as in families.gen_random_clawfree_cubic
ODD_CHANCE = 0.3             # share of bushy inner nodes that are big, r=3
EVEN_CHANCE = 0.3            # share of bushy leaf edges through a big, r=2

BRIDGED_PER_CORPUS = 110     # corpus.BRIDGED_SEEDS has 110 seeds
ORACLE_MAX_N = 22


@dataclass
class Input:
    name: str
    family: str              # ring | sub | tree | base | hard
    rung: str
    graph: object
    spec: Tuple[int, ...] = SPEC_1113
    text: Optional[str] = None       # edge-list document, colored workloads
    expect: str = oracle.FEASIBLE    # oracle verdict, oracle workload
    top: bool = False
    _lg: Optional[LineGraph] = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.graph.m

    def line_graph(self) -> LineGraph:
        """The checker's own line graph, built on first use."""
        if self._lg is None:
            self._lg = LineGraph(self.graph.edge_list())
        return self._lg


@dataclass(frozen=True)
class Checked:
    """An op's output judged by the checker; `failure` is '' when right."""
    failure: str = ""
    detail: str = ""
    three_a: int = 0
    nodes: int = 0


@dataclass(frozen=True)
class Workload:
    """How to build the inputs, what one op is and how its output is
    checked, and the percentile `op_tail_ms` reports."""
    build: Callable[[int], List[Input]]
    op: Callable[[Input], object]
    check: Callable[[Input, object], Checked]
    tail_percentile: int     # leaves >= 10 samples beyond it in one pass
    describe: str


def color_op(inp: Input) -> str:
    """In-process `packedge color`: parse, color, verify, write."""
    g = formats.parse_edge_list(inp.text)
    col = coloring.color_graph(g)
    failures = verify.verify(g, col)
    meta = {"three_a_edges": sum(1 for c in col.values() if c == "3a"),
            "valid": not failures}
    return formats.write_coloring(g, col, meta)


def check_color_op(inp: Input, out: str) -> Checked:
    assignment, reason = parse_coloring_document(out, inp.graph.edge_list())
    if reason is None:
        reason = check_coloring(inp.line_graph(), assignment, inp.spec)
    if reason:
        return Checked("rejected", f"{inp.name}: {reason}")
    return Checked(three_a=sum(1 for c in assignment.values() if c == "3a"))


def oracle_op(inp: Input):
    return oracle.oracle_color(inp.graph, verify.PackingSpec(inp.spec))


def check_oracle_op(inp: Input, out) -> Checked:
    """A feasible verdict counts only with a coloring the checker accepts,
    an infeasible one only where expected; budget-exceeded never counts."""
    if out.status == oracle.BUDGET_EXCEEDED:
        return Checked("budget-exceeded", inp.name, nodes=out.nodes)
    if out.status != inp.expect:
        return Checked("wrong-verdict", f"{inp.name}: {out.status}",
                       nodes=out.nodes)
    if out.status == oracle.FEASIBLE:
        reason = check_coloring(inp.line_graph(), out.coloring, inp.spec)
        if reason:
            return Checked("rejected", f"{inp.name}: {reason}",
                           nodes=out.nodes)
    return Checked(nodes=out.nodes)


def _serialized(inputs: List[Input]) -> List[Input]:
    for inp in inputs:
        inp.text = formats.write_edge_list(inp.graph)
    return inputs


def pass_order(inputs: List[Input]) -> List[Input]:
    """The inputs in one fixed shuffled order, so that the ops behind every
    metric are spread over the whole run instead of one stretch of it."""
    out = list(inputs)
    random.Random(len(out)).shuffle(out)
    return out


def _mark_top_halves(inputs: List[Input]) -> None:
    """Mark the larger half by edge count of each family's inputs as top:
    the corpus graphs are small, and a narrower top would be timed too few
    times per run to give a steady median."""
    for family in ("ring", "sub", "tree"):
        ms = sorted(inp.m for inp in inputs if inp.family == family)
        for inp in inputs:
            if inp.family == family and inp.m >= ms[len(ms) // 2]:
                inp.top = True


def _corpus_inputs(entries, spec) -> List[Input]:
    out = []
    for e in entries:
        g = e.graph
        if e.family == "ring":
            out.append(Input(e.name, "ring", f"ring-{g.n // 4}", g, spec))
        elif e.family == "substituted":
            out.append(Input(e.name, "sub", f"sub-{e.plan.h.n}", g, spec))
        else:
            out.append(Input(e.name, "tree", "tree", g, spec))
    return out


def build_corpus_workload(seed: int) -> List[Input]:
    entries = corpus.build_corpus(range(seed, seed + BRIDGED_PER_CORPUS))
    inputs = _corpus_inputs(entries, SPEC_1113)
    _mark_top_halves(inputs)
    return _serialized(inputs)


def random_substitution(rng: random.Random, n: int):
    """Random H on n vertices with diamond strings drawn as
    `families.gen_random_clawfree_cubic` draws them."""
    h = families.random_cubic_multigraph_2ec(rng, n)
    strings = {eid: rng.randint(1, 3) for eid in h.edge_ids
               if rng.random() < STRING_CHANCE}
    return families.gen_substituted(families.SubstitutionPlan(h, strings))


def diamond_path(rng: random.Random, d: int):
    """d diamonds in a row between two big one-boundary leaves."""
    recipes = ([("big", (rng.randint(1, 3),))] + [("diamond",)] * d
               + [("big", (rng.randint(1, 3),))])
    return families.gen_bridged(families.BridgedPlan(
        parents=tuple(range(d + 1)), recipes=tuple(recipes)))


def bushy_tree(rng: random.Random, internal: int):
    """Random tree of `internal` degree-3 components, each a K3 or, with
    chance ODD_CHANCE, a big component with three boundary vertices (odd,
    colored through an anchored 2-factor).  Every leaf is a big component
    with one boundary vertex (odd), on some leaf edges reached through a
    big component with two boundary vertices (even)."""
    def chain() -> int:
        return rng.randint(1, 3)

    parents: List[int] = []
    recipes: List[Tuple] = [("k3",)]
    slots = [0, 0, 0]
    for _ in range(internal - 1):
        p = slots.pop(rng.randrange(len(slots)))
        parents.append(p)
        slots += [len(recipes), len(recipes)]
        recipes.append(("big", (chain(), chain(), chain()))
                       if rng.random() < ODD_CHANCE else ("k3",))
    for p in slots:
        if rng.random() < EVEN_CHANCE:
            parents.append(p)
            p = len(recipes)
            recipes.append(("big", (chain(), chain())))
        parents.append(p)
        recipes.append(("big", (chain(),)))
    return families.gen_bridged(families.BridgedPlan(
        parents=tuple(parents), recipes=tuple(recipes)))


def relabelled(rng: random.Random, g):
    """g with its vertex names permuted and its edges listed in random order."""
    names = list(range(g.n))
    rng.shuffle(names)
    rename = dict(zip(g.vertices, names))
    edges = [(rename[u], rename[v]) for u, v in g.edge_list()]
    rng.shuffle(edges)
    return graph.build_graph(edges)


def build_ladder_workload(seed: int) -> List[Input]:
    rng = random.Random(seed)
    inputs = []
    for k in RING_KS:
        ring = families.gen_ring(k)
        top = k == RING_KS[-1]
        for i in range(RINGS_AT_TOP if top else 1):
            inputs.append(Input(f"ring-{k}-{i}", "ring", f"ring-{k}",
                                relabelled(rng, ring) if i else ring, top=top))
    for n in SUB_HS:
        top = n == SUB_HS[-1]
        for i in range(SUBS_AT_TOP if top else SUBS_PER_RUNG):
            inputs.append(Input(f"sub-{n}-{i}", "sub", f"sub-{n}",
                                random_substitution(rng, n), top=top))
    for d in PATH_DS:
        top = d == PATH_DS[-1]
        for i in range(PATHS_AT_TOP if top else 1):
            inputs.append(Input(f"path-{d}-{i}", "tree", f"path-{d}",
                                diamond_path(rng, d), top=top))
    for size in BUSHY_IS:
        inputs.append(Input(f"bushy-{size}", "tree", f"bushy-{size}",
                            bushy_tree(rng, size)))
    return _serialized(inputs)


def build_oracle_workload(seed: int) -> List[Input]:
    """Fixed inputs; the seed is unused."""
    del seed
    inputs = [Input("petersen", "hard", "hard", families.gen_petersen(),
                    expect=oracle.INFEASIBLE),
              Input("tietze", "hard", "hard", families.gen_tietze(),
                    expect=oracle.INFEASIBLE)]
    for n in corpus.H_ORDERS:
        for i, h in enumerate(families.enumerate_cubic_multigraphs(n)):
            inputs.append(Input(f"base-{n}v-{i}", "base", f"base-{n}", h,
                                SPEC_1112))
            g = families.gen_substituted(families.SubstitutionPlan(h))
            inputs.append(Input(f"sub-{n}v-{i}-1112", "sub", f"sub-{n}-1112",
                                g, SPEC_1112))
    small = [e for e in corpus.build_corpus() if e.graph.n <= ORACLE_MAX_N]
    inputs += _corpus_inputs(small, SPEC_1113)
    _mark_top_halves(inputs)
    return inputs


WORKLOADS: Dict[str, Workload] = {
    "corpus": Workload(
        build_corpus_workload, color_op, check_color_op, tail_percentile=98,
        describe="op = parse_edge_list -> color_graph -> verify -> "
                 "write_coloring; inputs = corpus.build_corpus(range(seed, "
                 "seed + 110)); tops: larger half by m of each family"),
    "ladder": Workload(
        build_ladder_workload, color_op, check_color_op, tail_percentile=85,
        describe=f"op = parse_edge_list -> color_graph -> verify -> "
                 f"write_coloring; rungs ring k={RING_KS} (x{RINGS_AT_TOP} at "
                 f"the top), sub |H|={SUB_HS} x{SUBS_PER_RUNG} (x{SUBS_AT_TOP} "
                 f"at the top), path D={PATH_DS} (x{PATHS_AT_TOP} at the top), "
                 f"bushy I={BUSHY_IS}; tops: ring-{RING_KS[-1]}, "
                 f"sub-{SUB_HS[-1]}, path-{PATH_DS[-1]}"),
    "oracle": Workload(
        build_oracle_workload, oracle_op, check_oracle_op, tail_percentile=80,
        describe="op = oracle_color(g, spec); Petersen and Tietze (1,1,1,3), "
                 "2EC cubic H <= 8 vertices and their substitutions "
                 "(1,1,1,2), corpus graphs <= 22 vertices (1,1,1,3); seed "
                 "unused; tops: larger half by m of each family"),
}
