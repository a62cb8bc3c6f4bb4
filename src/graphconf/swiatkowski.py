"""Świątkowski-style cell sets A_{i,n}(G) and their support subgraphs.

A cell assigns a nonnegative weight to every edge and a state to every
vertex (empty, the vertex itself, or one of its half-edges), with total
mass n and exactly i half-edges.  Only the set of cells is modelled; no
differential is defined on them, and homology always goes through the
discretized model.
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


def push_cell(cell: SwiatkowskiCell, emb: TopMinorMorphism) -> SwiatkowskiCell:
    """Transport a cell along a simplicial embedding, extending by 0 and empty."""
    if emb.source != cell.graph:
        raise NotAnEmbeddingError("embedding does not start at the cell's graph")
    rho_v = emb.rho_v
    if len(set(rho_v.values())) != len(rho_v) or not emb.is_simplicial():
        raise NotAnEmbeddingError("push_cell needs an injective simplicial map")
    ok, _ = validate_tm(emb)
    if not ok:
        raise NotAnEmbeddingError("invalid morphism")
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
    return SwiatkowskiCell(emb.target, cell.n, cell.i, weights, tuple(sorted(states)))


def support_subgraph(g: SimpleGraph, cell: SwiatkowskiCell) -> SimpleGraph:
    """Induced subgraph on self-marked vertices and the endpoints of edges
    that carry a half-edge mark or positive weight."""
    verts: set[int] = set()
    for v, state in cell.states:
        if state == SELF:
            verts.add(v)
        else:
            verts.update(state[1:])
    for (a, b), _ in cell.weights:
        verts.update((a, b))
    return g.induced(sorted(verts))


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
    cograph are again cographs."""
    from .cographs import is_cograph

    g_is_cograph = is_cograph(g)
    violations = []
    max_support = 0
    cells = enumerate_cells(g, i, n)
    for cell in cells:
        supp = support_subgraph(g, cell)
        size = len(supp.vertices)
        max_support = max(max_support, size)
        if size > n + i + cell.edge_mass() or n + i + cell.edge_mass() > 2 * n:
            violations.append(("size", cell.key, size))
            continue
        restricted = SwiatkowskiCell(supp, n, i, cell.weights, cell.states)
        if push_cell(restricted, inclusion_morphism(supp, g)) != cell:
            violations.append(("image", cell.key, size))
        if g_is_cograph and not is_cograph(supp):
            violations.append(("cograph", cell.key, size))
    return SupportBoundReport(g, i, n, len(cells), max_support, tuple(violations))

