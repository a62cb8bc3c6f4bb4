"""graph6 and JSON serialization for SimpleGraph.

Serialized output always uses the canonical relabeling 0..|V|-1 in input
order, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json

from .errors import BadParamsError
from .graphs import SimpleGraph, make_graph

GRAPH6_HEADER = ">>graph6<<"


def to_graph6(g: SimpleGraph) -> str:
    rg = g.relabeled()
    n = len(rg.vertices)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in rg.edge_set else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return _encode_n(n) + "".join(chars)


def _encode_n(n: int) -> str:
    if n < 0:
        raise BadParamsError("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise BadParamsError("graph too large for graph6")


def from_graph6(s: str) -> SimpleGraph:
    s = s.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :]
    if not s:
        raise BadParamsError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise BadParamsError(f"invalid graph6 character in {s!r}")
    if data[0] == 63:  # '~': the size is the next 3 characters, or 6 after '~~'
        start, end = (2, 8) if len(data) > 1 and data[1] == 63 else (1, 4)
        if len(data) < end:
            raise BadParamsError(f"graph6 size header cut off in {s!r}")
        n = 0
        for d in data[start:end]:
            n = (n << 6) | d
        data = data[end:]
    else:
        n = data[0]
        data = data[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) != need:
        raise BadParamsError(f"graph6 body length {len(data)}, expected {need}")
    bits = []
    for d in data:
        for s6 in (5, 4, 3, 2, 1, 0):
            bits.append((d >> s6) & 1)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return make_graph(range(n), edges)


def to_json_obj(g: SimpleGraph) -> dict:
    rg = g.relabeled()
    obj = {
        "vertices": list(rg.vertices),
        "edges": [[a, b] for a, b in rg.edges],
    }
    if rg.labels:
        obj["labels"] = {str(v): l for v, l in rg.labels}
    return obj


def to_json(g: SimpleGraph) -> str:
    return json.dumps(to_json_obj(g), sort_keys=True)


def from_json_obj(obj) -> SimpleGraph:
    """Graph from a parsed JSON object; a malformed one is BadParamsError."""
    if not isinstance(obj, dict):
        raise BadParamsError("graph JSON must be an object")
    for key in ("vertices", "edges"):
        if not isinstance(obj.get(key), list):
            raise BadParamsError(f"graph JSON needs a list {key!r}")
    if not all(type(v) is int for v in obj["vertices"]):
        raise BadParamsError("vertex ids must be integers")
    if not all(isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)
               for e in obj["edges"]):
        raise BadParamsError("every edge must be a list [u, v] of vertex ids")
    labels = obj.get("labels", {})
    if not isinstance(labels, dict):
        raise BadParamsError("graph JSON 'labels' must be an object")
    by_id = {}
    for k, label in labels.items():
        try:
            v = int(k)
        except ValueError:
            raise BadParamsError("graph JSON label keys must be vertex ids") from None
        if v in by_id:
            raise BadParamsError(f"graph JSON labels name vertex {v} twice")
        if not isinstance(label, str):
            raise BadParamsError(f"graph JSON label of vertex {v} must be a string")
        by_id[v] = label
    return make_graph(obj["vertices"], [tuple(e) for e in obj["edges"]], by_id)


def from_json(s: str) -> SimpleGraph:
    return from_json_obj(json.loads(s))


def load_graph(path: str) -> SimpleGraph:
    """Load a graph from a .g6/.graph6 or .json file, sniffing the content."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.strip()
    if stripped.startswith("{"):
        return from_json(stripped)
    return from_graph6(stripped)
