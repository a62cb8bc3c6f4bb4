"""Świątkowski-style cell sets A_{i,n}(G) and their support subgraphs.

A cell assigns a nonnegative weight to every edge and a state to every
vertex (empty, the vertex itself, or one of its half-edges), with total
mass n and exactly i half-edges.  A cell is its key (weights, states):
the positive weights as sorted ((a, b), w) pairs and the nonempty states
as sorted (v, state) pairs.  Only the set of cells is modelled; no
differential is defined on them, and homology always goes through the
discretized model.

The support G_λ of a cell is the subgraph induced on `support_vertices`, so
its vertex set fixes it.  `verify_support_bound` therefore groups the keys
by support vertex set and builds G_λ, for the cograph verdict, at most
once per group, not once per cell.  For G = K5, K6, K3,3, K2,4 and K2,2,2 and
i = 0..3, the 40,606 cells of A_{i,3}(G) have only 864 distinct supports
between them.  Every cell is the push of its restriction to G_λ along the
inclusion G_λ → G, by construction: the restriction has the cell's key, and
pushing along an inclusion keeps every key (proof in
`verify_support_bound`), so that is not checked.  `enumerate_cells` builds
every key itself, so no key is validated again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BadParamsError
from .graphs import SimpleGraph, norm_edge

# vertex states: SELF, or ("half", a, b) for a mark at the vertex on edge (a, b);
# both are tuples so that sorted cell keys compare cleanly
SELF = ("self",)


def enumerate_cells(g: SimpleGraph, i: int, n: int) -> list[tuple]:
    """The keys (weights, states) of all cells of A_{i,n}(G), in key order.

    A cell is a weighting of some mass m ≤ n − i together with a state
    tuple of i half-edges and s = n − i − m self-marks, and every such pair
    is a cell of mass n.  So the keys are the weightings, each paired with
    the state tuples whose self-mark count is n − i minus its mass.

    Both lists are sorted once, and the pairs come weighting-major.  That
    is key order: keys compare by weights first, and no weighting occurs
    twice (it is the positive part of one weight vector), so two keys with
    different weightings compare as their weightings do; two keys with the
    same weighting compare as their state tuples do, which are sorted too.
    """
    if not 0 <= i <= n:
        raise BadParamsError("need 0 <= i <= n")
    edges = g.edges
    weightings = sorted(
        tuple((e, w) for e, w in zip(edges, dist) if w > 0)
        for mass in range(n - i + 1)
        for dist in _weight_distributions(mass, len(edges))
    )
    # the state tuples, by self-mark count
    states: list[list[tuple]] = [[] for _ in range(n - i + 1)]
    for half_verts in itertools.combinations(g.vertices, i):
        half_choices = [
            [(v, ("half",) + norm_edge(v, w)) for w in g.adjacency[v]]
            for v in half_verts
        ]
        rest = [v for v in g.vertices if v not in half_verts]
        for halves in itertools.product(*half_choices):
            for s in range(min(n - i, len(rest)) + 1):
                for selves in itertools.combinations(rest, s):
                    states[s].append(tuple(sorted(halves + tuple((v, SELF) for v in selves))))
    for group in states:
        group.sort()
    return [
        (weights, st)
        for weights in weightings
        for st in states[n - i - sum(w for _, w in weights)]
    ]


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


def support_vertices(key: tuple) -> frozenset[int]:
    """Vertices of the support G_λ of the cell with this key: self-marked
    vertices and the endpoints of edges that carry a half-edge mark or
    positive weight.  G_λ is the subgraph of the cell's graph induced on
    them."""
    weights, states = key
    verts: set[int] = set()
    for v, state in states:
        if state == SELF:
            verts.add(v)
        else:
            verts.update(state[1:])
    for (a, b), _ in weights:
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
    """Check, for every cell: |V(G_λ)| ≤ n + i + Σλ(e) ≤ 2n, and that supports
    of cells on a cograph are again cographs.  Violations come in cell-key
    order.

    That a cell is the push of its restriction to G_λ needs no check.  The
    restriction has the cell's key, and the push along the inclusion
    G_λ → G sends that key to itself:

    - the inclusion's vertex map is the identity, which is strictly
      increasing, so it sends every weighted edge, self-mark and half-edge
      to itself and keeps the pairs of a key in order; no pair moves;
    - the key lives on G_λ: `support_vertices(key)` holds both ends of
      every weighted edge and of every half-edge's edge, and every
      self-marked vertex, and G_λ is induced on them, so it has every edge,
      vertex and half-edge that the key names.
    """
    from .cographs import is_cograph

    if n < 0:
        raise BadParamsError("need n >= 0")
    g_is_cograph = is_cograph(g)
    keys = enumerate_cells(g, i, n)
    by_support: dict[frozenset[int], list[tuple]] = {}
    for key in keys:
        by_support.setdefault(support_vertices(key), []).append(key)
    violations = []
    max_support = 0
    for verts, group in by_support.items():
        size = len(verts)
        max_support = max(max_support, size)
        fits = []
        for key in group:
            mass = n + i + sum(w for _, w in key[0])
            if size > mass or mass > 2 * n:
                violations.append(("size", key, size))
            else:
                fits.append(key)
        if fits and g_is_cograph and not is_cograph(g.induced(sorted(verts))):
            violations.extend(("cograph", key, size) for key in fits)
    # a cell has one violation at most, so sorting by key orders them all
    violations.sort(key=lambda v: v[1])
    return SupportBoundReport(g, i, n, len(keys), max_support, tuple(violations))
