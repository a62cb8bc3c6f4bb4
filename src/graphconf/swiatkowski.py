"""Świątkowski-style cell sets A_{i,n}(G) and their support subgraphs.

A cell assigns a nonnegative weight to every edge and a state to every
vertex (empty, the vertex itself, or one of its half-edges), with total
mass n and exactly i half-edges.  Only the set of cells is modelled; no
differential is defined on them, and homology always goes through the
discretized model.

The support G_λ of a cell is the subgraph induced on `support_vertices`, so
its vertex set fixes it.  `verify_support_bound` therefore groups the cells
by support vertex set and builds G_λ, its inclusion into G (validated once,
by `push_cells`) and the cograph verdict once per group, not once per cell.
For G = K5, K6, K3,3, K2,4 and K2,2,2 and i = 0..3, the 40,606 cells of
A_{i,3}(G) have only 864 distinct supports between them.
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
    states: tuple  # (v, SELF) or (v, ("half", a, b)), sorted; empty states omitted

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
            elif isinstance(state, tuple) and state[0] == "half":
                e = norm_edge(state[1], state[2])
                if e not in es or v not in e:
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
                remaining = n - i - s
                if remaining > 0 and not edges:
                    continue
                for selves in itertools.combinations(rest, s):
                    states = tuple(sorted(halves + tuple((v, SELF) for v in selves)))
                    for dist in _weight_distributions(remaining, len(edges)):
                        weights = tuple(
                            (e, w) for e, w in zip(edges, dist) if w > 0
                        )
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


def push_cells(cells, emb: TopMinorMorphism) -> list[SwiatkowskiCell]:
    """Transport cells of emb.source along a simplicial embedding, extending
    by 0 and empty.  The embedding is validated once for all of them."""
    rho_v = emb.rho_v
    if len(set(rho_v.values())) != len(rho_v) or not emb.is_simplicial():
        raise NotAnEmbeddingError("push_cells needs an injective simplicial map")
    ok, _ = validate_tm(emb)
    if not ok:
        raise NotAnEmbeddingError("invalid morphism")
    pushed = []
    for cell in cells:
        if cell.graph != emb.source:
            raise NotAnEmbeddingError("embedding does not start at the cell's graph")
        weights = tuple(
            sorted((norm_edge(rho_v[a], rho_v[b]), w) for (a, b), w in cell.weights)
        )
        states = []
        for v, state in cell.states:
            if state == SELF:
                states.append((rho_v[v], SELF))
            else:
                _, a, b = state
                states.append((rho_v[v], ("half",) + norm_edge(rho_v[a], rho_v[b])))
        pushed.append(
            SwiatkowskiCell(emb.target, cell.n, cell.i, weights, tuple(sorted(states)))
        )
    return pushed


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
        restricted = [SwiatkowskiCell(supp, n, i, c.weights, c.states) for c in fits]
        for cell, pushed in zip(fits, push_cells(restricted, inclusion_morphism(supp, g))):
            if pushed != cell:
                violations.append(("image", cell.key, size))
        if g_is_cograph and not is_cograph(supp):
            violations.extend(("cograph", c.key, size) for c in fits)
    # stable: a cell's "image" violation stays ahead of its "cograph" one
    violations.sort(key=lambda v: v[1])
    return SupportBoundReport(g, i, n, len(cells), max_support, tuple(violations))
