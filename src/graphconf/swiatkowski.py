"""Świątkowski-style cell sets A_{i,n}(G) and their support subgraphs.

A cell assigns a nonnegative weight to every edge and a state to every
vertex (empty, the vertex itself, or one of its half-edges), with total
mass n and exactly i half-edges.  Only the set of cells is modelled; no
differential is defined on them, and homology always goes through the
discretized model.

The support G_λ of a cell is the subgraph induced on `support_vertices`, so
its vertex set fixes it.  `verify_support_bound` therefore groups the cells
by support vertex set and builds G_λ, its inclusion into G (validated once,
by `push_keys`) and the cograph verdict once per group, not once per cell.
For G = K5, K6, K3,3, K2,4 and K2,2,2 and i = 0..3, the 40,606 cells of
A_{i,3}(G) have only 864 distinct supports between them.  A cell and its
restriction to G_λ share their key (weights, states), so the restriction
and its push are checked on keys: each enumerated cell is validated once,
by its constructor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BadParamsError, NotAnEmbeddingError
from .graphs import SimpleGraph, norm_edge
from .morphisms import TopMinorMorphism, inclusion_morphism, validate_tm

# vertex states: SELF, or ("half", a, b) for a mark at the vertex on edge (a, b);
# both are tuples so that sorted cell keys compare cleanly
SELF = ("self",)


@dataclass(frozen=True)
class SwiatkowskiCell:
    graph: SimpleGraph
    n: int
    i: int
    weights: tuple  # ((a, b), w) with w > 0, sorted
    states: tuple  # (v, SELF) or (v, ("half", a, b)) with (a, b) an edge, sorted; empty states omitted

    def __post_init__(self):
        es = self.graph.edge_set
        mass = 0
        halves = 0
        for e, w in self.weights:
            if e not in es or w <= 0:
                raise BadParamsError(f"bad edge weight {e}: {w}")
            mass += w
        seen = set()
        for v, state in self.states:
            if v in seen or v not in self.graph.adjacency:
                raise BadParamsError(f"bad state vertex {v}")
            seen.add(v)
            if state == SELF:
                mass += 1
            elif isinstance(state, tuple) and len(state) == 3 and state[0] == "half":
                if state[1:] not in es or v not in state[1:]:
                    raise BadParamsError(f"half-edge {state} not incident on {v}")
                mass += 1
                halves += 1
            else:
                raise BadParamsError(f"unknown state {state!r}")
        if mass != self.n:
            raise BadParamsError(f"total mass {mass} != n = {self.n}")
        if halves != self.i:
            raise BadParamsError(f"{halves} half-edges but i = {self.i}")

    @property
    def key(self) -> tuple:
        return (self.weights, self.states)

    def edge_mass(self) -> int:
        return sum(w for _, w in self.weights)


def enumerate_cells(g: SimpleGraph, i: int, n: int) -> list[SwiatkowskiCell]:
    """All cells of A_{i,n}(G), in a deterministic (key-sorted) order."""
    if not 0 <= i <= n:
        raise BadParamsError("need 0 <= i <= n")
    verts = list(g.vertices)
    edges = list(g.edges)
    # the positive-weight part of every weighting, per remaining mass
    weightings = {
        r: [
            tuple((e, w) for e, w in zip(edges, dist) if w > 0)
            for dist in _weight_distributions(r, len(edges))
        ]
        for r in range(n - i + 1)
    }
    cells = []
    for half_verts in itertools.combinations(verts, i):
        half_choices = [
            [(v, ("half",) + norm_edge(v, w)) for w in g.adjacency[v]]
            for v in half_verts
        ]
        if any(not c for c in half_choices):
            continue
        rest = [v for v in verts if v not in half_verts]
        for halves in itertools.product(*half_choices):
            for s in range(0, min(n - i, len(rest)) + 1):
                weights_left = weightings[n - i - s]
                if not weights_left:
                    continue
                for selves in itertools.combinations(rest, s):
                    states = tuple(sorted(halves + tuple((v, SELF) for v in selves)))
                    for weights in weights_left:
                        cells.append(SwiatkowskiCell(g, n, i, weights, states))
    cells.sort(key=lambda c: c.key)
    return cells


def _weight_distributions(total: int, slots: int):
    """All ways to write total as an ordered sum of `slots` nonnegative ints."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for bars in itertools.combinations(range(total + slots - 1), slots - 1):
        prev = -1
        out = []
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(total + slots - 1 - prev - 1)
        yield tuple(out)


def push_keys(keys, emb: TopMinorMorphism) -> list[tuple]:
    """Transport cell keys (weights, states) of emb.source along a simplicial
    embedding, extending by 0 and empty.  The embedding is validated once for
    all of them.  Mass and i do not change along an embedding, so a key is
    only checked to live on emb.source: each weighted edge, and each state
    vertex with its half-edge, must be one of the source's."""
    rho_v = emb.rho_v
    if len(set(rho_v.values())) != len(rho_v) or not emb.is_simplicial():
        raise NotAnEmbeddingError("push_keys needs an injective simplicial map")
    ok, _ = validate_tm(emb)
    if not ok:
        raise NotAnEmbeddingError("invalid morphism")
    # the image of every edge, and of every vertex state, of the source
    edge_img = {e: norm_edge(rho_v[e[0]], rho_v[e[1]]) for e in emb.source.edges}
    state_img = {(v, SELF): (w, SELF) for v, w in rho_v.items()}
    for e, img in edge_img.items():
        for v in e:
            state_img[v, ("half",) + e] = (rho_v[v], ("half",) + img)
    try:
        return [
            (
                tuple(sorted((edge_img[e], w) for e, w in weights)),
                tuple(sorted(state_img[vs] for vs in states)),
            )
            for weights, states in keys
        ]
    except KeyError as missing:
        raise NotAnEmbeddingError(
            f"{missing.args[0]} is not on the embedding's source"
        ) from None


def support_vertices(cell: SwiatkowskiCell) -> frozenset[int]:
    """Vertices of the support G_λ: self-marked vertices and the endpoints of
    edges that carry a half-edge mark or positive weight.  G_λ is the
    subgraph of cell.graph induced on them."""
    verts: set[int] = set()
    for v, state in cell.states:
        if state == SELF:
            verts.add(v)
        else:
            verts.update(state[1:])
    for (a, b), _ in cell.weights:
        verts.update((a, b))
    return frozenset(verts)


@dataclass(frozen=True)
class SupportBoundReport:
    graph: SimpleGraph
    i: int
    n: int
    cell_count: int
    max_support: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_support_bound(g: SimpleGraph, i: int, n: int) -> SupportBoundReport:
    """Check, for every cell: |V(G_λ)| ≤ n + i + Σλ(e) ≤ 2n, that the cell is
    the push of its restriction to G_λ, and that supports of cells on a
    cograph are again cographs.  Violations come in cell-key order."""
    from .cographs import is_cograph

    if n < 0:
        raise BadParamsError("need n >= 0")
    g_is_cograph = is_cograph(g)
    cells = enumerate_cells(g, i, n)
    by_support: dict[frozenset[int], list[SwiatkowskiCell]] = {}
    for cell in cells:
        by_support.setdefault(support_vertices(cell), []).append(cell)
    violations = []
    max_support = 0
    for verts, group in by_support.items():
        size = len(verts)
        max_support = max(max_support, size)
        fits = []
        for cell in group:
            mass = n + i + cell.edge_mass()
            if size > mass or mass > 2 * n:
                violations.append(("size", cell.key, size))
            else:
                fits.append(cell)
        if not fits:
            continue
        supp = g.induced(sorted(verts))
        keys = [c.key for c in fits]
        for key, pushed in zip(keys, push_keys(keys, inclusion_morphism(supp, g))):
            if pushed != key:
                violations.append(("image", key, size))
        if g_is_cograph and not is_cograph(supp):
            violations.extend(("cograph", c.key, size) for c in fits)
    # stable: a cell's "image" violation stays ahead of its "cograph" one
    violations.sort(key=lambda v: v[1])
    return SupportBoundReport(g, i, n, len(cells), max_support, tuple(violations))
