"""Finite simple graphs, paths, subdivision, and standard families.

Vertex ids are arbitrary integers.  All values are immutable after
construction, so everything here is safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BadParamsError,
    DanglingEndpointError,
    DuplicateEdgeError,
    DuplicateVertexError,
    LoopEdgeError,
    UnknownEdgeError,
)

Edge = tuple[int, int]


def norm_edge(a: int, b: int) -> Edge:
    """Normalize an unordered edge to (min, max)."""
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class SimpleGraph:
    """A finite simple graph: no loops, no multi-edges.

    ``vertices`` keeps input order (deduplication is an error, not a
    convenience), ``edges`` are stored as (min, max) pairs in sorted order.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    labels: tuple[tuple[int, str], ...] = ()

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        nbrs: dict[int, list[int]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return {v: tuple(sorted(ws)) for v, ws in nbrs.items()}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, a: int, b: int) -> bool:
        return norm_edge(a, b) in self.edge_set

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        seen: set[int] = set()
        comps = []
        for start in self.vertices:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for w in self.adjacency[v]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return tuple(comps)

    def induced(self, vs) -> "SimpleGraph":
        """Induced subgraph on the given vertices (input order preserved)."""
        keep = set(vs)
        verts = tuple(v for v in self.vertices if v in keep)
        edges = tuple(e for e in self.edges if e[0] in keep and e[1] in keep)
        labels = tuple((v, l) for v, l in self.labels if v in keep)
        return SimpleGraph(verts, edges, labels)

    def subgraph(self, edge_subset, extra_vertices=()) -> "SimpleGraph":
        """Subgraph spanned by an edge subset plus optional isolated vertices."""
        edges = tuple(sorted(norm_edge(*e) for e in edge_subset))
        vs = set(extra_vertices)
        for a, b in edges:
            vs.add(a)
            vs.add(b)
        bad = vs - self.vertex_set
        if bad:
            raise UnknownEdgeError(f"vertices not in graph: {sorted(bad)}")
        for e in edges:
            if e not in self.edge_set:
                raise UnknownEdgeError(f"edge not in graph: {e}")
        verts = tuple(v for v in self.vertices if v in vs)
        return SimpleGraph(verts, edges)

    def is_subgraph_of(self, other: "SimpleGraph") -> bool:
        return self.vertex_set <= other.vertex_set and self.edge_set <= other.edge_set

    def canonical_relabeling(self) -> dict[int, int]:
        """Relabeling id -> 0..|V|-1 in input order, used by all serializers."""
        return {v: i for i, v in enumerate(self.vertices)}

    def relabeled(self) -> "SimpleGraph":
        rl = self.canonical_relabeling()
        return SimpleGraph(
            tuple(range(len(self.vertices))),
            tuple(sorted(norm_edge(rl[a], rl[b]) for a, b in self.edges)),
            tuple(sorted((rl[v], l) for v, l in self.labels)),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"SimpleGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class Path:
    """A path: distinct vertices, consecutive pairs adjacent, modulo reversal.

    Canonical orientation: the lexicographically smaller endpoint comes
    first, so a path compares equal to its reversal.
    """

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = self.vertices
        if len(vs) < 1:
            raise BadParamsError("a path needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise BadParamsError(f"path vertices not distinct: {vs}")
        canon = canonical_path_tuple(vs)
        object.__setattr__(self, "vertices", canon)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        vs = self.vertices
        return tuple(norm_edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1))

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def oriented_from(self, start: int) -> tuple[int, ...]:
        if self.vertices[0] == start:
            return self.vertices
        if self.vertices[-1] == start:
            return tuple(reversed(self.vertices))
        raise BadParamsError(f"{start} is not an endpoint of {self.vertices}")


def canonical_path_tuple(vs: tuple[int, ...]) -> tuple[int, ...]:
    rev = tuple(reversed(vs))
    return min(vs, rev)


def make_graph(vertex_ids, edge_pairs, labels=None) -> SimpleGraph:
    """Validated construction; the only entry point that checks invariants."""
    ids = list(vertex_ids)
    seen: set[int] = set()
    for v in ids:
        if v in seen:
            raise DuplicateVertexError(f"duplicate vertex id {v}")
        seen.add(v)
    edges: list[Edge] = []
    eseen: set[Edge] = set()
    for a, b in edge_pairs:
        if a == b:
            raise LoopEdgeError(f"loop at vertex {a}")
        if a not in seen or b not in seen:
            raise DanglingEndpointError(f"edge ({a},{b}) has endpoint outside vertex list")
        e = norm_edge(a, b)
        if e in eseen:
            raise DuplicateEdgeError(f"duplicate edge {e}")
        eseen.add(e)
        edges.append(e)
    lab = tuple(sorted((labels or {}).items()))
    for v, _ in lab:
        if v not in seen:
            raise DanglingEndpointError(f"label on unknown vertex {v}")
    return SimpleGraph(tuple(ids), tuple(sorted(edges)), lab)


def complement(g: SimpleGraph) -> SimpleGraph:
    vs = g.vertices
    edges = []
    for i, a in enumerate(vs):
        for b in vs[i + 1 :]:
            e = norm_edge(a, b)
            if e not in g.edge_set:
                edges.append(e)
    return SimpleGraph(vs, tuple(sorted(edges)), g.labels)


def disjoint_union(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """Disjoint union; the vertices of h are shifted past those of g."""
    if not g.vertices:
        offset = 0
    else:
        lo = min(h.vertices) if h.vertices else 0
        offset = max(g.vertices) + 1 - lo
    verts = g.vertices + tuple(v + offset for v in h.vertices)
    edges = g.edges + tuple(norm_edge(a + offset, b + offset) for a, b in h.edges)
    labels = g.labels + tuple((v + offset, l) for v, l in h.labels)
    return SimpleGraph(verts, tuple(sorted(edges)), tuple(sorted(labels)))


def subdivide(g: SimpleGraph, per_edge_counts) -> SimpleGraph:
    """Replace each edge e by a path with per_edge_counts.get(e, 0) + 1 edges."""
    counts: dict[Edge, int] = {}
    for e, c in dict(per_edge_counts).items():
        ne = norm_edge(*e)
        if ne not in g.edge_set:
            raise UnknownEdgeError(f"unknown edge {e}")
        if c < 0:
            raise BadParamsError(f"negative subdivision count for {e}")
        counts[ne] = c
    fresh = max(g.vertices) + 1 if g.vertices else 0
    verts = list(g.vertices)
    edges: list[Edge] = []
    for e in g.edges:
        a, b = e
        c = counts.get(e, 0)
        mids = list(range(fresh, fresh + c))
        fresh += c
        verts.extend(mids)
        chain = [a, *mids, b]
        for i in range(len(chain) - 1):
            edges.append(norm_edge(chain[i], chain[i + 1]))
    return SimpleGraph(tuple(verts), tuple(sorted(edges)), g.labels)


def subdivision_pieces(n: int, extra: int) -> int:
    """Pieces per edge for n strands: Abrams' sufficient n+1, plus extra."""
    if n < 1:
        raise BadParamsError("n must be >= 1")
    if extra < 0:
        raise BadParamsError("extra subdivision must be >= 0")
    return n + 1 + extra


def subdivide_uniform(g: SimpleGraph, pieces: int) -> SimpleGraph:
    """Subdivide every edge into ``pieces`` edges."""
    if pieces < 1:
        raise BadParamsError("pieces must be >= 1")
    return subdivide(g, {e: pieces - 1 for e in g.edges})


def betti1(g: SimpleGraph) -> int:
    """First Betti number |E| - |V| + #components."""
    return len(g.edges) - len(g.vertices) + len(g.components)


def ambient_arcs(g: SimpleGraph) -> list[list[Edge]]:
    """Edges of each ambient arc of g, in path order.  An ambient arc is a
    maximal path whose interior vertices have degree 2 in g; a cycle
    component with every vertex of degree 2 is one arc.  The arcs
    partition the edges."""
    seen: set[Edge] = set()
    arcs = []

    def walk(prev: int, cur: int) -> list[Edge]:
        arc = []
        while (e := norm_edge(prev, cur)) not in seen:
            seen.add(e)
            arc.append(e)
            if g.degree(cur) != 2:
                break
            prev, cur = cur, next(x for x in g.adjacency[cur] if x != prev)
        return arc

    # ends first, so that only cycle components start at a degree-2 vertex
    starts = sorted(g.vertices, key=lambda v: g.degree(v) == 2)
    for v in starts:
        for w in g.adjacency[v]:
            if arc := walk(v, w):
                arcs.append(arc)
    return arcs


def family(name: str, *params: int) -> SimpleGraph:
    """Standard graph families by name.

    robertson_chain(k): path with k+1 vertices, each edge doubled, one copy
    of each doubled pair subdivided once to restore simplicity.  Note that
    direct counting gives betti1(robertson_chain(k)) == k; see README for
    the discrepancy with the stated k+1 convention elsewhere.
    """
    if name == "complete":
        (n,) = _check_params(name, params, 1)
        if n < 1:
            raise BadParamsError("complete: n >= 1")
        vs = range(n)
        return make_graph(vs, [(i, j) for i in vs for j in vs if i < j])
    if name == "complete_bipartite":
        a, b = _check_params(name, params, 2)
        if a < 1 or b < 1:
            raise BadParamsError("complete_bipartite: both sides >= 1")
        return make_graph(range(a + b), [(i, a + j) for i in range(a) for j in range(b)])
    if name == "cycle":
        (n,) = _check_params(name, params, 1)
        if n < 3:
            raise BadParamsError("cycle: n >= 3")
        return make_graph(range(n), [(i, (i + 1) % n) for i in range(n)])
    if name == "path":
        (n,) = _check_params(name, params, 1)
        if n < 1:
            raise BadParamsError("path: n >= 1")
        return make_graph(range(n), [(i, i + 1) for i in range(n - 1)])
    if name == "star":
        (k,) = _check_params(name, params, 1)
        if k < 1:
            raise BadParamsError("star: k >= 1")
        return make_graph(range(k + 1), [(0, i) for i in range(1, k + 1)])
    if name == "robertson_chain":
        (k,) = _check_params(name, params, 1)
        if k < 1:
            raise BadParamsError("robertson_chain: k >= 1")
        # spine 0..k; doubled edge (i, i+1) realized as the direct edge plus
        # a once-subdivided copy through k+1+i
        edges = []
        for i in range(k):
            w = k + 1 + i
            edges += [(i, i + 1), (i, w), (w, i + 1)]
        return make_graph(range(2 * k + 1), edges)
    if name == "robertson_chain_leaves":
        (k,) = _check_params(name, params, 1)
        rk = family("robertson_chain", k)
        fresh = 2 * k + 1
        verts = list(rk.vertices)
        edges = list(rk.edges)
        for end in (0, k):
            for _ in range(3):
                verts.append(fresh)
                edges.append((end, fresh))
                fresh += 1
        return make_graph(verts, edges)
    raise BadParamsError(f"unknown family {name!r}")


def _check_params(name, params, want):
    if len(params) != want:
        raise BadParamsError(f"{name} takes {want} parameter(s), got {len(params)}")
    return params


def theta_graph(lengths: tuple[int, int, int] = (1, 2, 2)) -> SimpleGraph:
    """Two vertices joined by three internally disjoint arcs, realized simply.

    At most one arc may have length 1, and no two arcs of length 1 or
    parallel short arcs are allowed (simplicity).
    """
    if sorted(lengths)[0] < 1 or sorted(lengths)[:2] == [1, 1]:
        raise BadParamsError("theta arcs must be >= 1 with at most one length-1 arc")
    a, b = 0, 1
    fresh = 2
    verts = [a, b]
    edges = []
    for ln in lengths:
        mids = list(range(fresh, fresh + ln - 1))
        fresh += ln - 1
        verts.extend(mids)
        chain = [a, *mids, b]
        for i in range(len(chain) - 1):
            edges.append((chain[i], chain[i + 1]))
    return make_graph(verts, edges)
