"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the corpus fixtures are session-scoped so the expensive work happens
once.
"""

import random
import time

import pytest

from packedge.coloring import COLOR_3A, color_graph
from packedge.families import (enumerate_cubic_multigraphs, gen_leaf7_pair,
                               gen_petersen, gen_ring, gen_tietze)
from packedge.graph import INFINITE, are_isomorphic_small, edge_distances_from
from packedge.matching import two_factor_containing
from packedge.oracle import FEASIBLE, INFEASIBLE, oracle_color
from packedge.recognize import is_cubic
from packedge.structure import SUBSTITUTED, find_diamonds, oum_decompose
from packedge.verify import PackingSpec, verify

from conftest import random_connected_graph
from reference import edge_distance, line_graph, reconstruct

SPEC_1113 = PackingSpec((1, 1, 1, 3))
SPEC_1112 = PackingSpec((1, 1, 1, 2))


def report(number: int, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d}: {verdict} - {detail}")
    assert ok, detail


def test_criterion_01_corpus_colors_and_verifies(corpus, corpus_report):
    ok = (corpus_report.failures == 0 and corpus_report.total >= 500
          and corpus_report.seconds < 60)
    bridged = sum(1 for e in corpus if e.family == "bridged")
    report(1, ok,
           f"color+verify on {corpus_report.total} corpus graphs "
           f"({bridged} bridged), {corpus_report.failures} failures, "
           f"{corpus_report.seconds:.1f}s")
    assert bridged >= 100


def test_criterion_02_petersen_tietze_infeasible(petersen, tietze):
    t0 = time.perf_counter()
    rp = oracle_color(petersen, SPEC_1113)
    rt = oracle_color(tietze, SPEC_1113)
    elapsed = time.perf_counter() - t0
    ok = rp.status == INFEASIBLE and rt.status == INFEASIBLE and elapsed < 60
    report(2, ok,
           f"oracle: petersen={rp.status} ({rp.nodes} nodes), "
           f"tietze={rt.status} ({rt.nodes} nodes), {elapsed:.2f}s")


def test_criterion_03_rings_use_three_matchings():
    ok = True
    detail = []
    for k in range(2, 11):
        g = gen_ring(k)
        col = color_graph(g)
        sizes = {}
        for c in col.values():
            sizes[c] = sizes.get(c, 0) + 1
        good = sizes == {"1a": 2 * k, "1b": 2 * k, "1c": 2 * k} \
            and not verify(g, col, SPEC_1113)
        ok = ok and good
        detail.append(f"k={k}:{'ok' if good else 'BAD'}")
    report(3, ok, "ring class sizes (2k,2k,2k), zero 3a: " + " ".join(detail))


def test_criterion_04_1112_feasible_small_cubic(corpus, petersen, tietze):
    graphs = [e.graph for e in corpus if e.graph.n <= 14]
    for n in (2, 4, 6, 8):   # the substitution bases are corpus members too
        graphs.extend(enumerate_cubic_multigraphs(n))
    graphs += [petersen, tietze]
    checked = failures = 0
    for g in graphs:
        if not is_cubic(g):
            continue
        checked += 1
        if oracle_color(g, SPEC_1112).status != FEASIBLE:
            failures += 1
    report(4, failures == 0,
           f"(1,1,1,2) feasible on {checked} cubic graphs <= 14 "
           f"vertices incl. Petersen and Tietze, {failures} failures")


def test_criterion_05_plesnik_exhaustive():
    checked = 0
    failures = 0
    for n in (2, 4, 6, 8):
        for h in enumerate_cubic_multigraphs(n):
            for e in h.edge_ids:
                for f in h.edge_ids:
                    if f < e:
                        continue
                    tf = two_factor_containing(h, {e, f})
                    cycle_edges = set().union(*map(set, tf.cycles))
                    if not {e, f} <= cycle_edges:
                        failures += 1
                    checked += 1
    report(5, failures == 0,
           f"2-factor through every unordered edge pair on all "
           f"2EC cubic multigraphs <= 8 vertices: {checked} pairs, "
           f"{failures} failures")


def test_criterion_06_oracle_agreement_small(corpus):
    small = [e.graph for e in corpus if e.graph.n <= 22]
    disagreements = 0
    for g in small:
        feasible = oracle_color(g, SPEC_1113).status == FEASIBLE
        constructed = not verify(g, color_graph(g), SPEC_1113)
        if not (feasible and constructed):
            disagreements += 1
    report(6, disagreements == 0,
           f"oracle and constructive colorer agree on {len(small)} "
           f"claw-free corpus graphs <= 22 vertices")


def test_criterion_07_decomposition_round_trip(corpus):
    checked = 0
    failures = 0
    for entry in corpus:
        if entry.plan is None:
            continue
        g = entry.graph
        dec = oum_decompose(g)
        good = dec.variant == SUBSTITUTED \
            and are_isomorphic_small(dec.h, entry.plan.h) \
            and dec.string_lengths() == tuple(sorted(entry.plan.strings.values()))
        rebuilt = reconstruct(dec)
        if g.n <= 16:
            good = good and are_isomorphic_small(rebuilt, g)
        else:
            good = good and _fingerprint(rebuilt) == _fingerprint(g)
        checked += 1
        if not good:
            failures += 1
    report(7, failures == 0,
           f"oum_decompose round-trips all {checked} substitution "
           f"instances, {failures} failures")


def _fingerprint(g):
    from packedge.families import _triangle_count
    return (g.n, g.m, g.degree_sequence(), _triangle_count(g),
            len(find_diamonds(g)))


def test_criterion_08_distance_oracle():
    mismatches = 0
    pairs = 0
    for seed in range(50):
        rng = random.Random(3000 + seed)
        g = random_connected_graph(rng, max_n=30)
        lg = line_graph(g)
        for e in g.edge_ids:
            bfs = lg.vertex_distances(e)
            lib = edge_distances_from(g, e)
            for f in g.edge_ids:
                expected = 0 if e == f else bfs.get(f, INFINITE)
                if edge_distance(g, e, f) != expected or \
                        lib.get(f, INFINITE) != expected:
                    mismatches += 1
                pairs += 1
    report(8, mismatches == 0,
           f"edge_distance and edge_distances_from vs line-graph BFS on "
           f"50 random graphs: "
           f"{pairs} pairs, {mismatches} mismatches")


def test_criterion_09_leaf7_pair_worked_instance():
    g = gen_leaf7_pair()
    col = color_graph(g)
    threes = sorted(e for e, c in col.items() if c == COLOR_3A)
    bridge = g.edge_between(0, 7)
    ok = (not verify(g, col, SPEC_1113)
          and len(threes) == 2
          and edge_distance(g, threes[0], threes[1]) >= 4
          and col[bridge] == "1c")
    report(9, ok,
           f"leaf7-pair: 3a edges {threes} at distance "
           f"{edge_distance(g, threes[0], threes[1])}, bridge color "
           f"{col[bridge]}")


def test_criterion_10_backtrack_diagnostics(corpus_report):
    lines = corpus_report.summary_lines()
    surfaced = any("colorings rejected" in line for line in lines)
    report(10, surfaced and corpus_report.rejected >= 0,
           f"corpus run reports colorings rejected = "
           f"{corpus_report.rejected} (informational)")
