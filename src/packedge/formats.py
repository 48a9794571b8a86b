"""File formats: graph6 for simple graphs, JSON documents for everything.

graph6 follows the published byte-level format (column-major upper triangle,
6-bit groups offset by 63, big-endian within each group).  Multigraphs
cannot be expressed in graph6, so the JSON edge-list document (one record
per edge: id, endpoint, endpoint) is the canonical interchange format and
graph6 is a convenience for simple inputs from external enumerations.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .graph import (EdgeId, GraphError, MultiGraph, NotSimple, TooLarge,
                    build_graph)

GRAPH6_MAX_SHORT = 62
GRAPH6_MAX_LONG = 258047


class MalformedGraph6(GraphError):
    """Invalid graph6 text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class MalformedDocument(GraphError):
    """JSON text that is not a graph or coloring document: bad JSON, not an
    object, a missing key, an edge record other than [id, u, v], edge ids
    other than 0..m-1, or endpoints that cannot name vertices."""


def _g6_byte(value: int, offset: int) -> int:
    if not 63 <= value <= 126:
        raise MalformedGraph6(f"byte {value} outside graph6 range", offset)
    return value - 63


def parse_graph6(text: str) -> MultiGraph:
    """Decode one graph6 line into a simple graph on vertices 0..n-1."""
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise MalformedGraph6("empty input", 0)
    data = [ord(ch) for ch in line]
    pos = 0
    if data[pos] == 126:
        if len(data) < 4:
            raise MalformedGraph6("truncated order field", len(data))
        if data[1] == 126:
            raise MalformedGraph6("orders above 258047 unsupported", 1)
        n = 0
        for i in range(1, 4):
            n = (n << 6) | _g6_byte(data[i], i)
        pos = 4
    else:
        n = _g6_byte(data[pos], pos)
        pos = 1
    bits_needed = n * (n - 1) // 2
    bytes_needed = (bits_needed + 5) // 6
    if len(data) - pos != bytes_needed:
        raise MalformedGraph6(
            f"need {bytes_needed} payload bytes for n={n}, "
            f"got {len(data) - pos}", len(data))
    bits: List[int] = []
    for i in range(pos, len(data)):
        group = _g6_byte(data[i], i)
        bits.extend((group >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    for i in range(bits_needed, len(bits)):
        if bits[i]:
            raise MalformedGraph6("nonzero padding bits", len(data) - 1)
    edges = []
    idx = 0
    for col in range(1, n):
        for row in range(col):
            if bits[idx]:
                edges.append((row, col))
            idx += 1
    return build_graph(edges, vertices=range(n))


def write_graph6(g: MultiGraph) -> str:
    """Encode a simple graph as one graph6 line; vertices taken in sorted
    order and renamed 0..n-1."""
    if not g.is_simple():
        raise NotSimple("graph6 cannot express parallel edges")
    n = g.n
    if n > GRAPH6_MAX_LONG:
        raise TooLarge(f"graph6 writer supports up to {GRAPH6_MAX_LONG} "
                       f"vertices, got {n}")
    index = {v: i for i, v in enumerate(g.vertices)}
    present = {(min(index[u], index[v]), max(index[u], index[v]))
               for u, v in g.edge_list()}
    if n <= GRAPH6_MAX_SHORT:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> shift) & 63) + 63)
                             for shift in (12, 6, 0))
    bits = []
    for col in range(1, n):
        for row in range(col):
            bits.append(1 if (row, col) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    payload = "".join(
        chr(sum(bit << (5 - i) for i, bit in enumerate(bits[p:p + 6])) + 63)
        for p in range(0, len(bits), 6))
    return head + payload


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def graph_document(g: MultiGraph, meta: Optional[dict] = None) -> dict:
    return {
        "n": g.n,
        "edges": [[eid, u, v] for eid, (u, v) in enumerate(g.edge_list())],
        "meta": meta or {},
    }


def write_edge_list(g: MultiGraph, meta: Optional[dict] = None) -> str:
    return json.dumps(graph_document(g, meta), sort_keys=True)


def _load_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from None


def _field(doc, key: str):
    if not isinstance(doc, dict):
        raise MalformedDocument(
            f"document must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise MalformedDocument(f"document has no {key!r} key")
    return doc[key]


def parse_edge_list(text: str) -> MultiGraph:
    return graph_from_document(_load_json(text))


def graph_from_document(doc: dict) -> MultiGraph:
    records = _field(doc, "edges")
    if not isinstance(records, list) or not all(
            isinstance(rec, list) and len(rec) == 3
            and type(rec[0]) is int for rec in records):
        raise MalformedDocument("edges must be a list of [id, u, v] records "
                                "with integer ids")
    records = sorted(records, key=lambda rec: rec[0])
    for expected, rec in enumerate(records):
        if rec[0] != expected:
            raise MalformedDocument(
                f"edge ids must be 0..m-1, found {rec[0]}")
    edges = [(_vertex_key(rec[1]), _vertex_key(rec[2])) for rec in records]
    try:
        return build_graph(edges)
    except TypeError:   # unhashable or mutually unorderable vertex names
        raise MalformedDocument(
            "endpoints must be hashable, mutually orderable vertex names") \
            from None


def _vertex_key(v):
    # JSON round-trips tuples as lists; restore hashability
    return tuple(v) if isinstance(v, list) else v


def coloring_document(g: MultiGraph, assignment: Dict[EdgeId, str],
                      meta: Optional[dict] = None) -> dict:
    doc = graph_document(g, meta)
    doc["assignment"] = {str(eid): assignment[eid] for eid in g.edge_ids}
    return doc


def write_coloring(g: MultiGraph, assignment: Dict[EdgeId, str],
                   meta: Optional[dict] = None) -> str:
    return json.dumps(coloring_document(g, assignment, meta), sort_keys=True)


def parse_coloring(text: str) -> Tuple[MultiGraph, Dict[EdgeId, str]]:
    doc = _load_json(text)
    g = graph_from_document(doc)
    assignment = _field(doc, "assignment")
    if not isinstance(assignment, dict):
        raise MalformedDocument("assignment must be a JSON object")
    try:
        return g, {int(k): v for k, v in assignment.items()}
    except ValueError:
        raise MalformedDocument(
            "assignment keys must be integer edge ids") from None


# ---------------------------------------------------------------------------
# DOT output
# ---------------------------------------------------------------------------

# fixed styles so rendered figures are reproducible: one distinguishable
# style per color class
DOT_STYLES = {
    "1a": 'color=red',
    "1b": 'color=green',
    "1c": 'color=blue',
    "3a": 'color=brown, style=bold, penwidth=2',
}


def write_dot(g: MultiGraph,
              coloring: Optional[Dict[EdgeId, str]] = None) -> str:
    lines = ["graph packing {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for eid, (u, v) in enumerate(g.edge_list()):
        if coloring is not None:
            style = DOT_STYLES[coloring[eid]]
            lines.append(f'  "{u}" -- "{v}" [label="{coloring[eid]}", {style}];')
        else:
            lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
