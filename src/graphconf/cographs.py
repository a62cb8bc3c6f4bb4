"""Cograph recognition and cotree decomposition.

A cograph is built from singletons by disjoint unions and complements;
the recognizer runs that recursion directly (the induced-P_4-free
characterization lives in the tests as an independent oracle).  Cotrees
are {0, 1, L}-labeled rooted trees; children are stored sorted by a
canonical subtree form so that equality up to child reordering is plain
equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import BadParamsError, InvalidCotreeError, NotACographError
from .graphs import SimpleGraph, complement, make_graph


@dataclass(frozen=True)
class Cotree:
    labels: tuple  # (node_id, "0" | "1" | "L"), sorted by node id
    children: tuple  # (node_id, (child ids...)) for internal nodes
    root: int
    leaf_map: tuple  # (leaf node_id, graph vertex)

    @cached_property
    def label_of(self) -> dict:
        return dict(self.labels)

    @cached_property
    def children_of(self) -> dict:
        out = {nid: () for nid, _ in self.labels}
        out.update(dict(self.children))
        return out

    @cached_property
    def vertex_of_leaf(self) -> dict:
        return dict(self.leaf_map)

    @cached_property
    def parent_of(self) -> dict:
        out = {}
        for nid, kids in self.children:
            for k in kids:
                out[k] = nid
        return out

    def leaves(self) -> list[int]:
        return [nid for nid, lab in self.labels if lab == "L"]

    def canonical_form(self, node: int | None = None):
        """Nested-tuple shape of a subtree, independent of node ids."""
        node = self.root if node is None else node
        kids = self.children_of[node]
        return (self.label_of[node], tuple(sorted(self.canonical_form(k) for k in kids)))


def validate_cotree(t: Cotree) -> tuple[bool, list[str]]:
    violations: list[str] = []
    labels = t.label_of
    if t.root not in labels:
        return False, ["root is not a node"]
    if len(labels) != len(t.labels):
        violations.append("a node id is listed twice")
    if len(t.vertex_of_leaf) != len(t.leaf_map):
        violations.append("leaf_map names a node twice")
    if set(labels.values()) - {"0", "1", "L"}:
        violations.append("labels must be 0, 1, or L")
    # reachability / tree-ness
    seen = set()
    stack = [t.root]
    while stack:
        nid = stack.pop()
        if nid in seen:
            violations.append(f"node {nid} reached twice")
            break
        seen.add(nid)
        stack.extend(t.children_of.get(nid, ()))
    if seen != set(labels):
        violations.append("nodes not reachable from the root")
    leaves = set(t.leaves())
    if {nid for nid, _ in t.leaf_map} != leaves or len(set(t.vertex_of_leaf.values())) != len(leaves):
        violations.append("leaf_map must biject leaves to distinct vertices")
    for nid, lab in t.labels:
        kids = t.children_of[nid]
        if lab == "L":
            if kids:
                violations.append(f"leaf {nid} has children")
        else:
            if len(labels) == 1:
                violations.append("a singleton cotree must be a leaf")
            elif len(kids) < 2:
                violations.append(f"internal node {nid} has fewer than 2 children")
            other = "1" if lab == "0" else "0"
            for k in kids:
                if labels.get(k) not in ("L", other):
                    violations.append(f"child {k} of {lab}-node {nid} breaks alternation")
    return not violations, violations


def _split(g: SimpleGraph):
    """The top of g's cotree, for g with two or more vertices: its label and
    the induced subgraphs below it.  "0" splits g into its components, "1"
    into the components of its complement; None means both are connected,
    so g is not a cograph."""
    comps = g.components
    if len(comps) > 1:
        return "0", [g.induced(c) for c in comps]
    co_comps = complement(g).components
    if len(co_comps) == 1:
        return None
    return "1", [g.induced(c) for c in co_comps]


def is_cograph(g: SimpleGraph) -> bool:
    if len(g.vertices) <= 1:
        return True
    split = _split(g)
    return split is not None and all(is_cograph(p) for p in split[1])


def cotree_of(g: SimpleGraph) -> Cotree:
    """The unique cotree of a cograph; leaves carry the graph's vertices."""
    if not g.vertices:
        raise BadParamsError("the empty graph has no cotree")
    labels: list = []
    children: list = []
    leaf_map: list = []
    counter = itertools.count()

    def build(sub: SimpleGraph) -> tuple[int, tuple]:
        nid = next(counter)
        if len(sub.vertices) == 1:
            labels.append((nid, "L"))
            leaf_map.append((nid, sub.vertices[0]))
            return nid, ("L", ())
        split = _split(sub)
        if split is None:
            raise NotACographError(
                f"graph on {sub.vertices} and its complement are both connected"
            )
        lab, parts = split
        labels.append((nid, lab))
        kids = sorted(
            (build(p) + (min(p.vertices),) for p in parts),
            key=lambda kid: kid[1:],
        )
        children.append((nid, tuple(k for k, _, _ in kids)))
        return nid, (lab, tuple(f for _, f, _ in kids))

    root, _ = build(g)
    return Cotree(tuple(sorted(labels)), tuple(sorted(children)), root, tuple(sorted(leaf_map)))


def cograph_of(t: Cotree) -> SimpleGraph:
    """Rebuild the graph: 0-nodes are disjoint unions, 1-nodes are joins
    (complement of the disjoint union of the complements)."""
    ok, violations = validate_cotree(t)
    if not ok:
        raise InvalidCotreeError("; ".join(violations))

    def build(nid: int) -> tuple[list[int], list[tuple[int, int]]]:
        lab = t.label_of[nid]
        if lab == "L":
            return [t.vertex_of_leaf[nid]], []
        verts: list[int] = []
        edges: list[tuple[int, int]] = []
        parts = []
        for k in t.children_of[nid]:
            pv, pe = build(k)
            parts.append(pv)
            verts.extend(pv)
            edges.extend(pe)
        if lab == "1":
            for pa, pb in itertools.combinations(parts, 2):
                edges.extend((a, b) for a in pa for b in pb)
        return verts, edges

    verts, edges = build(t.root)
    return make_graph(sorted(verts), edges)


def lca_adjacency_graph(t: Cotree) -> SimpleGraph:
    """Cross-check: two leaves are adjacent iff their lowest common
    ancestor carries label 1."""
    ok, violations = validate_cotree(t)
    if not ok:
        raise InvalidCotreeError("; ".join(violations))
    depth = {t.root: 0}
    order = [t.root]
    for nid in order:
        for k in t.children_of[nid]:
            depth[k] = depth[nid] + 1
            order.append(k)
    parent = t.parent_of

    def lca(a: int, b: int) -> int:
        while a != b:
            if depth[a] >= depth[b]:
                a = parent[a]
            else:
                b = parent[b]
        return a

    leaves = t.leaves()
    vm = t.vertex_of_leaf
    edges = [
        (vm[a], vm[b])
        for a, b in itertools.combinations(leaves, 2)
        if t.label_of[lca(a, b)] == "1"
    ]
    return make_graph(sorted(vm.values()), edges)


# -- JSON ----------------------------------------------------------------------


def cotree_to_json_obj(t: Cotree) -> dict:
    return {
        "nodes": [
            {"id": nid, "label": lab, "children": list(t.children_of[nid])}
            for nid, lab in t.labels
        ],
        "root": t.root,
        "leaf_map": {str(nid): v for nid, v in t.leaf_map},
    }


def cotree_from_json_obj(obj) -> Cotree:
    """Cotree from a parsed JSON object; a malformed one is InvalidCotreeError."""
    try:
        nodes = [(n["id"], n["label"], n["children"]) for n in obj["nodes"]]
        root, leaf_map = obj["root"], obj["leaf_map"]
        if not (all(type(nid) is int and type(lab) is str and type(kids) is list
                    and all(type(k) is int for k in kids) for nid, lab, kids in nodes)
                and type(root) is int and type(leaf_map) is dict
                and all(type(v) is int for v in leaf_map.values())):
            raise InvalidCotreeError("cotree JSON needs int ids, str labels, lists of int "
                                     "children, an int root and int leaf_map values")
        leaves = tuple(sorted((int(k), v) for k, v in leaf_map.items()))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidCotreeError(f"malformed cotree JSON: {exc}") from exc
    labels = tuple(sorted((nid, lab) for nid, lab, _ in nodes))
    children = tuple(sorted((nid, tuple(kids)) for nid, _, kids in nodes if kids))
    t = Cotree(labels, children, root, leaves)
    ok, violations = validate_cotree(t)
    if not ok:
        raise InvalidCotreeError("; ".join(violations))
    return t
