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
by support vertex set and builds G_λ, its inclusion into G (validated once,
by `push_keys`) and the cograph verdict once per group, not once per cell.
For G = K5, K6, K3,3, K2,4 and K2,2,2 and i = 0..3, the 40,606 cells of
A_{i,3}(G) have only 864 distinct supports between them.  A cell and its
restriction to G_λ share their key, so the restriction and its push are
checked on keys.  `enumerate_cells` builds every key itself, so no key is
validated again.
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


def push_keys(keys, emb: TopMinorMorphism) -> list[tuple]:
    """Transport cell keys (weights, states) of emb.source along a simplicial
    embedding, extending by 0 and empty.  The embedding is validated once for
    all of them.  Mass and i do not change along an embedding, so a key is
    only checked to live on emb.source: each weighted edge, and each state
    vertex with its half-edge, must be one of the source's.

    The pairs of a key are sorted, and each is led by a distinct edge or
    vertex.  A strictly increasing vertex map keeps edges normalized and
    in order, and vertices in order, so it keeps every key sorted, and
    only another map needs the sort.  An inclusion is increasing."""
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
    images = [rho_v[v] for v in sorted(rho_v)]
    if all(a < b for a, b in zip(images, images[1:])):
        arrange = tuple
    else:
        def arrange(pairs):
            return tuple(sorted(pairs))
    try:
        return [
            (
                arrange((edge_img[e], w) for e, w in weights),
                arrange(state_img[vs] for vs in states),
            )
            for weights, states in keys
        ]
    except KeyError as missing:
        raise NotAnEmbeddingError(
            f"{missing.args[0]} is not on the embedding's source"
        ) from None


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
    """Check, for every cell: |V(G_λ)| ≤ n + i + Σλ(e) ≤ 2n, that the cell is
    the push of its restriction to G_λ, and that supports of cells on a
    cograph are again cographs.  Violations come in cell-key order."""
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
        if not fits:
            continue
        supp = g.induced(sorted(verts))
        for key, pushed in zip(fits, push_keys(fits, inclusion_morphism(supp, g))):
            if pushed != key:
                violations.append(("image", key, size))
        if g_is_cograph and not is_cograph(supp):
            violations.extend(("cograph", key, size) for key in fits)
    # stable: a cell's "image" violation stays ahead of its "cograph" one
    violations.sort(key=lambda v: v[1])
    return SupportBoundReport(g, i, n, len(keys), max_support, tuple(violations))
