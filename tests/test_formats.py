import json

import networkx as nx
import pytest

from packedge.coloring import color_graph
from packedge.families import gen_k4, gen_leaf7_pair, gen_petersen, gen_ring
from packedge.formats import (DOT_STYLES, MalformedDocument,
                              MalformedGraph6, NotSimple,
                              parse_coloring, parse_edge_list, parse_graph6,
                              write_coloring, write_dot, write_edge_list,
                              write_graph6)
from packedge.graph import (MultiGraph, TooLarge, are_isomorphic_small,
                            build_graph)


# -- graph6 -------------------------------------------------------------------

def test_parse_k4():
    g = parse_graph6("C~")
    assert g.n == 4 and g.m == 6
    assert are_isomorphic_small(g, gen_k4())


def test_write_k4(k4):
    assert write_graph6(k4) == "C~"


def test_single_edge_and_empty_pair():
    # '_' carries the adjacency bit set, '?' carries it clear
    assert parse_graph6("A_").m == 1
    assert parse_graph6("A?").m == 0
    assert parse_graph6("Bw").m == 3      # K3


def test_parse_header_prefix():
    assert parse_graph6(">>graph6<<C~").m == 6


@pytest.mark.parametrize("bad", ["", "C", "C~~", "C\x1f"])
def test_malformed_graph6(bad):
    with pytest.raises(MalformedGraph6):
        parse_graph6(bad)


def test_malformed_padding_bits():
    # n=2 => one payload byte, only the top bit may be set
    with pytest.raises(MalformedGraph6):
        parse_graph6("A" + chr(63 + 1))


def test_graph6_round_trip_petersen(petersen):
    assert are_isomorphic_small(parse_graph6(write_graph6(petersen)),
                                petersen)


def test_graph6_matches_networkx(petersen):
    mine = write_graph6(petersen)
    gx = nx.Graph()
    gx.add_nodes_from(petersen.vertices)
    gx.add_edges_from(petersen.edge_list())
    theirs = nx.to_graph6_bytes(gx, header=False).strip().decode()
    assert mine == theirs
    back = nx.from_graph6_bytes(mine.encode())
    assert sorted(map(tuple, back.edges())) == \
        sorted(tuple(sorted(e)) for e in petersen.edge_list())


def test_graph6_long_order_encoding():
    cycle = build_graph([(i, (i + 1) % 70) for i in range(70)])
    text = write_graph6(cycle)
    assert text.startswith("~")
    rt = parse_graph6(text)
    assert rt.n == 70 and rt.m == 70
    gx = nx.from_graph6_bytes(text.encode())
    assert gx.number_of_nodes() == 70 and gx.number_of_edges() == 70


def test_graph6_rejects_multigraph(dipole):
    with pytest.raises(NotSimple):
        write_graph6(dipole)


def test_graph6_rejects_order_above_its_bound():
    # a simple graph too large for graph6 is not a parallel-edge error
    with pytest.raises(TooLarge, match="258047"):
        write_graph6(MultiGraph([], vertices=range(258048)))


# -- edge-list and coloring documents -----------------------------------------

def test_edge_list_round_trip_multigraph(dipole):
    rt = parse_edge_list(write_edge_list(dipole))
    assert rt.edge_list() == dipole.edge_list()


def test_edge_list_round_trip_corpus_sample():
    for g in (gen_ring(3), gen_petersen(), gen_leaf7_pair()):
        rt = parse_edge_list(write_edge_list(g))
        assert rt.edge_list() == g.edge_list()


def test_edge_list_deterministic(k4):
    assert write_edge_list(k4) == write_edge_list(k4)


def test_coloring_document_round_trip(k4):
    from packedge.coloring import color_graph
    col = color_graph(k4)
    text = write_coloring(k4, col, {"note": 1})
    g, back = parse_coloring(text)
    assert g.edge_list() == k4.edge_list()
    assert back == col


@pytest.mark.parametrize("text", [
    '{"edges": [[0, 1, 2]',                   # truncated JSON
    '[[0, 1, 2]]',                            # not an object
    '{"n": 2}',                               # no edges
    '{"edges": {"0": [1, 2]}}',               # edges not a list
    '{"edges": [[0, 1]]}',                    # record too short
    '{"edges": [[0, 1, 2, 3]]}',              # record too long
    '{"edges": [{"id": 0, "u": 1, "v": 2}]}',  # record not a list
    '{"edges": [["0", 1, 2]]}',               # id not an integer
    '{"edges": [[1, 0, 1]]}',                 # ids not 0..m-1
    '{"edges": [[0, 0, {"a": 1}]]}',          # endpoint cannot name a vertex
    '{"edges": [[0, 0, "a"]]}',               # endpoints not orderable
])
def test_malformed_edge_list(text):
    with pytest.raises(MalformedDocument):
        parse_edge_list(text)


@pytest.mark.parametrize("assignment", [None, '[]', '{"x": "1a"}',
                                        '{"0": [1]}', '{"0": 1}'])
def test_malformed_coloring(k4, assignment):
    doc = json.loads(write_edge_list(k4))
    if assignment is not None:
        doc["assignment"] = json.loads(assignment)
    with pytest.raises(MalformedDocument):
        parse_coloring(json.dumps(doc))


# -- DOT -----------------------------------------------------------------

def test_dot_styles_cover_all_colors():
    assert set(DOT_STYLES) == {"1a", "1b", "1c", "3a"}


def test_dot_output_marks_3a_edges():
    g = gen_leaf7_pair()
    col = color_graph(g)
    dot = write_dot(g, col)
    assert dot.count('label="3a"') == 2
    assert dot.startswith("graph") and dot.rstrip().endswith("}")


def test_dot_without_coloring(k4):
    dot = write_dot(k4)
    assert dot.count(" -- ") == 6
