"""Topological minor morphisms: enumeration.

A morphism is a vertex injection plus an edge-to-path assignment subject
to four conditions; embeddings and subdivisions are the special cases
where the paths are single edges, resp. where the image exhausts the
target.  Enumeration is exhaustive backtracking, deterministic, and
deliberately exponential: desk scale only.

Every kind of ``iter_tm`` and the isomorphism test run one vertex-map
search, ``_vertex_maps``; they differ only in the test each step makes.
``iter_tm`` alone checks the kind, and it trusts the morphisms it builds:
no kind revalidates what ``_assign_paths`` yields.  The check of the four
conditions is the tests' oracle for the enumeration, not package code.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import BadParamsError, InvalidMorphismError
from .graphs import Edge, Path, SimpleGraph, family, norm_edge

KINDS = ("simplicial", "full", "tm", "subdivision")


@dataclass(frozen=True)
class TopMinorMorphism:
    source: SimpleGraph
    target: SimpleGraph
    rho_v_items: tuple[tuple[int, int], ...]
    rho_e_items: tuple[tuple[Edge, Path], ...]

    @cached_property
    def rho_v(self) -> dict[int, int]:
        return dict(self.rho_v_items)

    @cached_property
    def rho_e(self) -> dict[Edge, Path]:
        return dict(self.rho_e_items)

    @cached_property
    def image_edges(self) -> frozenset[Edge]:
        out: set[Edge] = set()
        for p in self.rho_e.values():
            out.update(p.edges)
        return frozenset(out)

    @cached_property
    def image_vertices(self) -> frozenset[int]:
        out = set(self.rho_v.values())
        for p in self.rho_e.values():
            out.update(p.vertices)
        return frozenset(out)

    def image_subgraph(self) -> SimpleGraph:
        return self.target.subgraph(self.image_edges, self.image_vertices)

    def to_json_obj(self) -> dict:
        return {
            "rho_V": {str(a): b for a, b in sorted(self.rho_v.items())},
            "rho_E": {
                f"{e[0]}-{e[1]}": list(p.oriented_from(self.rho_v[e[0]]))
                for e, p in sorted(self.rho_e.items())
            },
        }


class MorphismList(list):
    """Result list for enumerate_tm; ``truncated`` flags a reached limit."""

    truncated: bool = False


def enumerate_tm(source: SimpleGraph, target: SimpleGraph, kind: str = "tm",
                 limit: int | None = None) -> MorphismList:
    """All morphisms of the requested kind, in deterministic order."""
    if limit is not None and limit < 1:
        raise BadParamsError(f"limit must be >= 1, got {limit}")
    out = MorphismList()
    for rho in iter_tm(source, target, kind):
        out.append(rho)
        if limit is not None and len(out) >= limit:
            out.truncated = True
            break
    return out


def iter_tm(source: SimpleGraph, target: SimpleGraph, kind: str = "tm"):
    """Generator behind enumerate_tm; an unknown kind raises at the first next."""
    if kind not in KINDS:
        raise InvalidMorphismError(f"unknown kind {kind!r}")
    if kind in ("simplicial", "full"):
        reflect = kind == "full"

        def adjacent(v: int, w: int, assign: dict[int, int]) -> bool:
            for u, x in assign.items():
                adj_s = source.has_edge(u, v)
                adj_t = target.has_edge(x, w)
                if adj_s and not adj_t:
                    return False
                if reflect and adj_t and not adj_s:
                    return False
            return True

        for assign in _vertex_maps(source, target, adjacent):
            rho_e = tuple((e, Path((assign[e[0]], assign[e[1]]))) for e in source.edges)
            yield TopMinorMorphism(source, target, tuple(sorted(assign.items())), rho_e)
        return

    def feasible(v: int, w: int, assign: dict[int, int]) -> bool:
        # necessary condition: every already-assigned neighbor must still be
        # reachable through vertices that are not images of other vertices
        images = set(assign.values()) | {w}
        for u in source.adjacency[v]:
            x = assign.get(u)
            if x is None:
                continue
            blocked = images - {w, x}
            if not _connected_avoiding(target, w, x, blocked):
                return False
        return True

    # paths are edge-disjoint by construction, so a subdivision is a whole image
    whole = (target.vertex_set, target.edge_set)
    for assign in _vertex_maps(source, target, feasible):
        for rho in _assign_paths(source, target, dict(assign)):
            if kind != "subdivision" or (rho.image_vertices, rho.image_edges) == whole:
                yield rho


def _vertex_maps(source: SimpleGraph, target: SimpleGraph, fits):
    """The one vertex-map search: injective maps source -> target by
    backtracking, in a fixed order.

    Source vertices are placed by (-degree, id); each tries the target
    vertices in order, skipping a used one and one of smaller degree, and
    ``fits(v, w, assign)`` decides the rest.  Yields the live ``assign``
    dict, so a caller copies what it keeps.
    """
    svs = sorted(source.vertices, key=lambda v: (-source.degree(v), v))
    assign: dict[int, int] = {}
    used: set[int] = set()

    def rec(k: int):
        if k == len(svs):
            yield assign
            return
        v = svs[k]
        for w in target.vertices:
            if w in used or target.degree(w) < source.degree(v):
                continue
            if fits(v, w, assign):
                assign[v] = w
                used.add(w)
                yield from rec(k + 1)
                used.discard(w)
                del assign[v]

    # rec refers to itself; del breaks the cycle, which would otherwise
    # keep rec, fits and what they hold until the next full collection,
    # also when the caller abandons the search part way
    try:
        yield from rec(0)
    finally:
        del rec


def _connected_avoiding(g: SimpleGraph, a: int, b: int, blocked: set[int]) -> bool:
    if a == b:
        return True
    seen = {a}
    dq = deque([a])
    while dq:
        x = dq.popleft()
        for y in g.adjacency[x]:
            if y == b:
                return True
            if y not in seen and y not in blocked:
                seen.add(y)
                dq.append(y)
    return False


def _assign_paths(source: SimpleGraph, target: SimpleGraph, rho_v: dict[int, int]):
    """Edge-by-edge path assignment once rho_V is fixed.

    Interiors of chosen paths must avoid every vertex image and every
    vertex already covered by another path; endpoints shared between
    source edges coincide automatically at the shared image.  ``used``
    holds the images and the interiors of the chosen paths.
    """
    used = set(rho_v.values())
    edges = sorted(source.edges)
    chosen: list[tuple[Edge, Path]] = []

    def rec(k: int):
        if k == len(edges):
            yield TopMinorMorphism(
                source, target, tuple(sorted(rho_v.items())), tuple(chosen)
            )
            return
        e = edges[k]
        a, b = rho_v[e[0]], rho_v[e[1]]
        paths: list[tuple[int, ...]] = []

        # a and b are in ``used``: b is tested first, and a is in ``seen``
        def dfs(seq: list[int], seen: set[int]):
            last = seq[-1]
            for w in target.adjacency[last]:  # a sorted tuple
                if w == b:
                    paths.append(tuple(seq) + (b,))
                    continue
                if w in seen or w in used:
                    continue
                seq.append(w)
                seen.add(w)
                dfs(seq, seen)
                seen.discard(w)
                seq.pop()

        dfs([a], {a})
        del dfs  # it refers to itself, as rec does
        paths.sort(key=lambda p: (len(p), p))
        for seq in paths:
            interior = seq[1:-1]
            used.update(interior)
            chosen.append((e, Path(seq)))
            yield from rec(k + 1)
            chosen.pop()
            used.difference_update(interior)

    try:
        yield from rec(0)
    finally:
        del rec  # as in _vertex_maps


def has_topological_minor(pattern: SimpleGraph, host: SimpleGraph) -> bool:
    return next(iter_tm(pattern, host), None) is not None


def gtm_k_member(g: SimpleGraph, k: int) -> bool:
    """True iff g admits no k-th Robertson chain as a topological minor."""
    if k < 1:
        raise InvalidMorphismError("k must be >= 1")
    return not has_topological_minor(family("robertson_chain", k), g)


# -- homeomorphism-type utilities ---------------------------------------------


def smooth(g: SimpleGraph) -> SimpleGraph:
    """Minimal simplicial representative: suppress degree-2 vertices while
    no loop or parallel edge would be created; g itself if there are none.
    The kept vertices keep their labels.

    One pass in vertex order matches rescanning after each suppression:
    suppressing v keeps every other degree and only adds the edge between
    v's neighbours, so a vertex the pass skipped (degree not 2, or adjacent
    neighbours) never becomes suppressible.
    """
    adj = {v: set(g.adjacency[v]) for v in g.vertices}
    for v in g.vertices:
        if len(adj[v]) == 2:
            u, w = adj[v]
            if w not in adj[u]:
                del adj[v]
                adj[u] ^= {v, w}  # v out, w in
                adj[w] ^= {v, u}
    if len(adj) == len(g.vertices):
        return g
    edges = sorted(norm_edge(a, b) for a, nbrs in adj.items() for b in nbrs if a < b)
    labels = tuple((v, l) for v, l in g.labels if v in adj)
    return SimpleGraph(tuple(v for v in g.vertices if v in adj), tuple(edges), labels)


def is_isomorphic(g: SimpleGraph, h: SimpleGraph) -> bool:
    """Exhaustive isomorphism test with degree pruning (desk scale)."""
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return False
    if sorted(g.degree(v) for v in g.vertices) != sorted(h.degree(v) for v in h.vertices):
        return False

    def fits(v: int, w: int, assign: dict[int, int]) -> bool:
        return h.degree(w) == g.degree(v) and all(
            g.has_edge(u, v) == h.has_edge(x, w) for u, x in assign.items()
        )

    return next(_vertex_maps(g, h, fits), None) is not None


def is_homeomorphic(g: SimpleGraph, h: SimpleGraph) -> bool:
    return is_isomorphic(smooth(g), smooth(h))
