import hashlib
import io
import json
import sys

import pytest

from packedge.cli import main
from packedge.formats import parse_coloring, write_edge_list, write_graph6
from packedge.families import gen_petersen, gen_ring
from packedge.graph import build_graph

from conftest import PARALLEL_EDGE_INPUTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_ring_then_color(tmp_path, capsys):
    graph_file = tmp_path / "ring.json"
    out_file = tmp_path / "coloring.json"
    code, _, _ = run(capsys, "gen", "ring", "--k", "3",
                     "--out", str(graph_file))
    assert code == 0
    code, _, _ = run(capsys, "color", str(graph_file),
                     "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["meta"]["valid"] is True
    assert doc["meta"]["three_a_edges"] == 0
    assert set(doc["meta"]) == {"three_a_edges", "valid"}
    assert sorted(doc["assignment"], key=int) == [str(i) for i in range(18)]


def test_oracle_petersen_infeasible(tmp_path, capsys):
    graph_file = tmp_path / "petersen.g6"
    graph_file.write_text(write_graph6(gen_petersen()) + "\n")
    code, out, _ = run(capsys, "oracle", str(graph_file),
                       "--spec", "1,1,1,3")
    assert code == 1
    assert "infeasible" in out


def test_oracle_budget_exit_code(tmp_path, capsys):
    graph_file = tmp_path / "petersen.g6"
    graph_file.write_text(write_graph6(gen_petersen()))
    code, out, _ = run(capsys, "oracle", str(graph_file),
                       "--spec", "1,1,1,3", "--budget", "10")
    assert code == 2
    assert "budget-exceeded" in out


def test_color_dot_output(tmp_path, capsys):
    graph_file = tmp_path / "pair.json"
    dot_file = tmp_path / "pair.dot"
    code, _, _ = run(capsys, "gen", "leaf7-pair", "--out", str(graph_file))
    assert code == 0
    code, _, _ = run(capsys, "color", str(graph_file), "--out",
                     str(tmp_path / "c.json"), "--dot", str(dot_file))
    assert code == 0
    assert dot_file.read_text().count('label="3a"') == 2


def test_verify_round_trip(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    col_file = tmp_path / "c.json"
    run(capsys, "gen", "ring", "--k", "2", "--out", str(graph_file))
    run(capsys, "color", str(graph_file), "--out", str(col_file))
    code, out, _ = run(capsys, "verify", str(col_file))
    assert code == 0 and "ok" in out

    g, assignment = parse_coloring(col_file.read_text())
    eid = next(e for e in g.edge_ids if assignment[e] == "1a")
    other = next(e for e in g.edge_ids
                 if assignment[e] == "1b"
                 and set(g.endpoints(e)) & set(g.endpoints(eid)))
    assignment[other] = "1a"
    from packedge.formats import write_coloring
    col_file.write_text(write_coloring(g, assignment))
    code, out, _ = run(capsys, "verify", str(col_file))
    assert code == 1 and "violation" in out


def test_verify_label_on_unknown_edge_is_usage_error(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    col_file = tmp_path / "c.json"
    run(capsys, "gen", "ring", "--k", "2", "--out", str(graph_file))
    run(capsys, "color", str(graph_file), "--out", str(col_file))
    doc = json.loads(col_file.read_text())
    doc["assignment"]["99"] = "1a"
    col_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(col_file))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_recognize_petersen_negative(tmp_path, capsys):
    graph_file = tmp_path / "p.g6"
    graph_file.write_text(write_graph6(gen_petersen()))
    code, out, _ = run(capsys, "recognize", str(graph_file))
    assert code == 1
    assert "claw-free: False" in out


def test_recognize_ring_positive(tmp_path, capsys):
    graph_file = tmp_path / "r.json"
    graph_file.write_text(write_edge_list(gen_ring(2)))
    code, out, _ = run(capsys, "recognize", str(graph_file))
    assert code == 0
    assert "cubic: True\nsimple: True\nclaw-free: True\n" in out


def test_recognize_empty_graph_not_connected(tmp_path, capsys):
    # the gate rejects it as empty; the exit code reads cubic, simple and
    # claw-free only, which the empty graph is
    graph_file = tmp_path / "empty.json"
    graph_file.write_text(write_edge_list(build_graph([])))
    code, out, _ = run(capsys, "recognize", str(graph_file))
    assert code == 0
    assert "vertices: 0\nedges: 0\nconnected: False\n" in out
    assert "two-edge-connected: False\n" in out


@pytest.mark.parametrize("name", PARALLEL_EDGE_INPUTS)
def test_recognize_parallel_edges_negative(tmp_path, capsys, name):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(write_edge_list(PARALLEL_EDGE_INPUTS[name]()))
    code, out, _ = run(capsys, "recognize", str(graph_file))
    assert code == 1
    assert "cubic: True\nsimple: False\nclaw-free: True\n" in out


def test_decompose_ring(tmp_path, capsys):
    graph_file = tmp_path / "r.json"
    graph_file.write_text(write_edge_list(gen_ring(4)))
    code, out, _ = run(capsys, "decompose", str(graph_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["variant"] == "ring-of-diamonds" and doc["ring_size"] == 4


def test_decompose_bridged(tmp_path, capsys):
    from packedge.families import gen_leaf7_pair
    graph_file = tmp_path / "pair.json"
    graph_file.write_text(write_edge_list(gen_leaf7_pair()))
    code, out, _ = run(capsys, "decompose", str(graph_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "bridge-tree"
    assert len(doc["components"]) == 2
    for i, comp in enumerate(doc["components"]):
        assert comp["index"] == i
        assert comp["kind"] == "big"
        assert comp["vertices"] == list(range(7 * i, 7 * i + 7))
        assert comp["edges"] == 10
    assert doc["bridges"] == [20]


def test_decompose_bridged_kinds(tmp_path, capsys):
    from packedge.families import BridgedPlan, gen_bridged
    g = gen_bridged(BridgedPlan(parents=(0, 0, 0, 1), recipes=(
        ("k3",), ("diamond",), ("big", (1,)), ("big", (1,)), ("big", (1,)))))
    graph_file = tmp_path / "tree.json"
    graph_file.write_text(write_edge_list(g))
    code, out, _ = run(capsys, "decompose", str(graph_file))
    assert code == 0
    comps = json.loads(out)["components"]
    assert sorted(c["kind"] for c in comps) == ["big"] * 3 + ["diamond", "k3"]
    for c in comps:
        assert (len(c["vertices"]), c["edges"]) == \
            {"k3": (3, 3), "diamond": (4, 5)}.get(c["kind"], (7, 10))


def test_decompose_unclassifiable_component_is_usage_error(tmp_path, capsys):
    # the input gate rejects the path before any component is typed;
    # ClassificationFailed itself is pinned in test_structure
    graph_file = tmp_path / "path.json"
    graph_file.write_text(write_edge_list(build_graph([(0, 1), (1, 2)])))
    code, out, err = run(capsys, "decompose", str(graph_file))
    assert code == 2 and out == ""
    assert err.startswith("error: degree sequence (1, 1, 2)")


def subdivided_k33_pair():
    """Two K3,3s, one edge of each subdivided, the two subdivision vertices
    joined by a bridge: connected, cubic, bridged, every K3,3 vertex a claw
    center."""
    def half(o):
        edges = [(a + o, b + o) for a in range(3) for b in range(3, 6)
                 if (a, b) != (0, 3)]
        return edges + [(o, o + 6), (o + 6, o + 3)]
    return build_graph(half(0) + half(7) + [(6, 13)])


def two_prisms():
    prism = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
             (0, 3), (1, 4), (2, 5)]
    return build_graph(prism + [(a + 6, b + 6) for a, b in prism])


@pytest.mark.parametrize("make,error", [
    (subdivided_k33_pair, "error: claw at"),
    (two_prisms, "error: input graph is not connected"),
    (lambda: build_graph([]), "error: input graph is empty"),
] + [(make, "error: input graph has parallel edges")
     for make in PARALLEL_EDGE_INPUTS.values()],
    ids=["clawed-bridged", "two-prisms", "empty", *PARALLEL_EDGE_INPUTS])
def test_decompose_rejects_input_outside_the_class(tmp_path, capsys, make,
                                                   error):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(write_edge_list(make()))
    for command in ("decompose", "color"):
        code, out, err = run(capsys, command, str(graph_file))
        assert code == 2 and out == ""
        assert err.startswith(error) and err.count("\n") == 1


# sha256 of `packedge decompose`'s output over build_corpus(), one graph
# after the other, computed before the input gate was added to decompose
CORPUS_DECOMPOSE_SHA256 = \
    "f1463179e6f45e3f8bae0447c464a326be3cd9a25e36f55f8ee349713a47559e"


def test_decompose_json_unchanged_on_corpus(corpus, capsys, monkeypatch):
    digest = hashlib.sha256()
    for entry in corpus:
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO(write_edge_list(entry.graph)))
        code, out, _ = run(capsys, "decompose", "-")
        assert code == 0, entry.name
        digest.update(out.encode())
    assert digest.hexdigest() == CORPUS_DECOMPOSE_SHA256


def test_gen_graph6_format(capsys):
    code, out, _ = run(capsys, "gen", "k4", "--format", "graph6")
    assert code == 0 and out.strip() == "C~"


def test_corpus_limited_run(capsys):
    code, out, _ = run(capsys, "corpus", "--limit", "12", "--seeds", "20000..20002")
    assert code == 0
    assert "graphs colored: 12" in out
    assert "colorings rejected:" in out
    assert "failures: 0" in out


def test_usage_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("C")
    code, _, err = run(capsys, "recognize", str(bad))
    assert code == 2
    assert "error:" in err


def test_truncated_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(write_edge_list(gen_ring(2))[:40])
    for command in ("recognize", "color", "verify"):
        code, _, err = run(capsys, command, str(bad))
        assert code == 2
        assert err.startswith("error: invalid JSON")


@pytest.mark.parametrize("argv", [
    ("verify", "{doc}", "--spec", "1,x"),
    ("oracle", "{graph}", "--spec", ""),
    ("corpus", "--seeds", "5"),
    ("corpus", "--seeds", "5..3"),
], ids=["verify-spec", "oracle-empty-spec", "corpus-seeds",
        "corpus-reversed-seeds"])
def test_malformed_argument_is_usage_error(tmp_path, capsys, argv):
    graph_file = tmp_path / "g.json"
    doc_file = tmp_path / "c.json"
    run(capsys, "gen", "ring", "--k", "2", "--out", str(graph_file))
    run(capsys, "color", str(graph_file), "--out", str(doc_file))
    code, _, err = run(capsys, *(arg.format(graph=graph_file, doc=doc_file)
                                 for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oracle_too_large_is_usage_error(tmp_path, capsys):
    graph_file = tmp_path / "ring200.json"
    run(capsys, "gen", "ring", "--k", "200", "--out", str(graph_file))
    code, out, err = run(capsys, "oracle", str(graph_file))
    assert code == 2 and out == ""
    assert err.startswith("error: oracle bound is") and err.count("\n") == 1


def test_empty_input_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    code, _, err = run(capsys, "recognize", str(empty))
    assert code == 2 and "empty input" in err


def test_verify_separate_graph_and_coloring(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    col_file = tmp_path / "c.json"
    run(capsys, "gen", "ring", "--k", "2", "--out", str(graph_file))
    run(capsys, "color", str(graph_file), "--out", str(col_file))
    code, out, _ = run(capsys, "verify", str(graph_file), str(col_file))
    assert code == 0 and "ok" in out


def test_outputs_byte_identical(tmp_path, capsys):
    files = [tmp_path / "a.json", tmp_path / "b.json"]
    for f in files:
        run(capsys, "gen", "random", "--seed", "3", "--out", str(f))
    assert files[0].read_bytes() == files[1].read_bytes()
    cols = [tmp_path / "ca.json", tmp_path / "cb.json"]
    for f, c in zip(files, cols):
        run(capsys, "color", str(f), "--out", str(c))
    assert cols[0].read_bytes() == cols[1].read_bytes()


def test_decompose_substituted(tmp_path, capsys):
    from packedge.families import SubstitutionPlan, gen_k4, gen_substituted
    g = gen_substituted(SubstitutionPlan(gen_k4(), {0: 2}))
    graph_file = tmp_path / "sub.json"
    graph_file.write_text(write_edge_list(g))
    code, out, _ = run(capsys, "decompose", str(graph_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["variant"] == "substituted"
    assert doc["h"]["n"] == 4 and doc["strings"] == [2]
