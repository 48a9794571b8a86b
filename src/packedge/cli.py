"""Command-line surface for the coloring pipeline.

Subcommands: recognize, decompose, color, verify, oracle, gen, corpus.
Graphs are read from files or stdin, either as a graph6 line or as a JSON
edge-list document (autodetected).  Exit codes: 0 success / positive
verdict, 1 negative verdict (not cubic, parallel edges or a claw found,
invalid coloring, infeasible), 2 resource exhaustion or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import corpus as corpus_mod
from .coloring import COLOR_3A, color_graph
from .families import (gen_k4, gen_leaf7, gen_leaf7_pair, gen_petersen,
                       gen_random_clawfree_cubic, gen_ring, gen_tietze)
from .formats import (parse_coloring, parse_edge_list, parse_graph6,
                      write_coloring, write_dot, write_edge_list,
                      write_graph6)
from .graph import GraphError, MultiGraph
from .oracle import DEFAULT_BUDGET, FEASIBLE, INFEASIBLE, oracle_color
from .recognize import (find_bridges, find_claw, is_cubic,
                        require_clawfree_cubic)
from .structure import (RING_OF_DIAMONDS, SUBSTITUTED, bridge_decompose,
                        oum_decompose)
from .verify import BadSpec, PackingSpec, verify

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_RESOURCE = 2


class BadSeedRange(GraphError):
    """--seeds is not of the form LO..HI with LO <= HI."""


GENERATORS = {
    "k4": lambda args: gen_k4(),
    "ring": lambda args: gen_ring(args.k),
    "petersen": lambda args: gen_petersen(),
    "tietze": lambda args: gen_tietze(),
    "leaf7": lambda args: gen_leaf7(),
    "leaf7-pair": lambda args: gen_leaf7_pair(),
    "random": lambda args: gen_random_clawfree_cubic(
        args.seed, bridged=args.bridged),
}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> MultiGraph:
    text = _read_text(path).strip()
    if text.startswith("{"):
        return parse_edge_list(text)
    return parse_graph6((text.splitlines() or [""])[0])


def _parse_spec(text: str) -> PackingSpec:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise BadSpec(f"spec {text!r} is not a comma-separated list of "
                      "integers") from None
    return PackingSpec(values)


def _write_out(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_recognize(args) -> int:
    g = _load_graph(args.graph)
    cubic = is_cubic(g)
    simple = g.is_simple()
    claw = find_claw(g)
    bridges = sorted(find_bridges(g))
    connected = g.is_connected()
    print(f"vertices: {g.n}")
    print(f"edges: {g.m}")
    print(f"connected: {connected}")
    print(f"cubic: {cubic}")
    print(f"simple: {simple}")
    print(f"claw-free: {claw is None}")
    if claw is not None:
        print(f"claw: center {claw.center} leaves {list(claw.leaves)}")
    print(f"two-edge-connected: {g.n >= 2 and connected and not bridges}")
    print(f"bridges: {bridges}")
    return EXIT_OK if cubic and simple and claw is None else EXIT_NEGATIVE


def cmd_decompose(args) -> int:
    g = _load_graph(args.graph)
    bridges = require_clawfree_cubic(g)
    if bridges:
        bd = bridge_decompose(g, bridges)
        doc = {
            "kind": "bridge-tree",
            "bridges": sorted(bd.bridges),
            "components": [
                {"index": i, "kind": kind, "vertices": list(verts),
                 "edges": len(emap), "level": bd.levels[i]}
                for i, (kind, verts, emap) in enumerate(
                    zip(bd.kinds, bd.vertices, bd.edge_maps))],
            "root": bd.root,
            "tree": [list(row) for row in bd.tree],
        }
    else:
        dec = oum_decompose(g)
        doc = {"kind": "oum", "variant": dec.variant}
        if dec.variant == RING_OF_DIAMONDS:
            doc["ring_size"] = dec.ring_size
        elif dec.variant == SUBSTITUTED:
            doc["h"] = {"n": dec.h.n,
                        "edges": [[eid, u, v] for eid, (u, v)
                                  in enumerate(dec.h.edge_list())]}
            doc["strings"] = list(dec.string_lengths())
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_color(args) -> int:
    g = _load_graph(args.graph)
    coloring = color_graph(g)   # verified; raises ColoringFailed if not
    meta = {
        "three_a_edges": sum(1 for c in coloring.values() if c == COLOR_3A),
        "valid": True,
    }
    doc = write_coloring(g, coloring, meta)
    _write_out(args.out, doc)
    if args.dot:
        _write_out(args.dot, write_dot(g, coloring))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.coloring is None:
        g, assignment = parse_coloring(_read_text(args.graph))
    else:
        g = _load_graph(args.graph)
        _, assignment = parse_coloring(_read_text(args.coloring))
    spec = _parse_spec(args.spec)
    failures = verify(g, assignment, spec)
    if not failures:
        print("ok")
        return EXIT_OK
    for v in failures:
        print(f"violation: class {spec.labels()[v.class_index]} edges "
              f"{v.edges[0]},{v.edges[1]} distance {v.distance} "
              f"required {v.required}")
    return EXIT_NEGATIVE


def cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    spec = _parse_spec(args.spec)
    result = oracle_color(g, spec, budget=args.budget)
    print(f"{result.status} (nodes={result.nodes})")
    if result.status == FEASIBLE:
        if args.out:
            _write_out(args.out, write_coloring(g, result.coloring,
                                                {"nodes": result.nodes}))
        return EXIT_OK
    if result.status == INFEASIBLE:
        return EXIT_NEGATIVE
    return EXIT_RESOURCE


def cmd_gen(args) -> int:
    g = GENERATORS[args.family](args)
    if args.format == "graph6":
        _write_out(args.out, write_graph6(g))
    else:
        _write_out(args.out, write_edge_list(
            g, {"family": args.family, "seed": args.seed}))
    return EXIT_OK


def _parse_seed_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    try:
        seeds = range(int(lo), int(hi) + 1)
    except ValueError:
        seeds = None
    if not seeds:
        raise BadSeedRange(f"seed range {text!r} is not LO..HI with LO <= HI")
    return seeds


def cmd_corpus(args) -> int:
    entries = corpus_mod.build_corpus(_parse_seed_range(args.seeds))
    if args.limit:
        entries = entries[:args.limit]
    report = corpus_mod.run_corpus(entries)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK if report.failures == 0 else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packedge",
        description="Packing edge-colorings of claw-free cubic graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="report cubic/claw-free/bridges")
    p.add_argument("graph", nargs="?", default="-")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("decompose", help="print the structural decomposition")
    p.add_argument("graph", nargs="?", default="-")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("color", help="construct a (1,1,1,3) coloring")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--out", default=None, help="coloring document path")
    p.add_argument("--dot", default=None, help="write DOT rendering here")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a coloring document")
    p.add_argument("graph",
                   help="graph input, or the coloring document itself when "
                        "no second argument is given")
    p.add_argument("coloring", nargs="?", default=None,
                   help="coloring document (assignment over the graph)")
    p.add_argument("--spec", default="1,1,1,3")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive feasibility search")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--spec", default="1,1,1,3")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="emit a graph from a named family")
    p.add_argument("family", choices=sorted(GENERATORS))
    p.add_argument("--k", type=int, default=3, help="ring size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bridged", action="store_true")
    p.add_argument("--format", choices=("edge-list", "graph6"),
                   default="edge-list")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("corpus", help="batch color+verify the fixed corpus")
    p.add_argument("--seeds",
                   default=f"{corpus_mod.BRIDGED_SEEDS.start}.."
                           f"{corpus_mod.BRIDGED_SEEDS.stop - 1}",
                   help="bridged-composition seed range, e.g. 20000..20109")
    p.add_argument("--limit", type=int, default=0,
                   help="only the first N corpus entries")
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
