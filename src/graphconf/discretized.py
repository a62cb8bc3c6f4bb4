"""Abrams' discretized configuration space D_n(G) as an integer cubical complex.

Cells are n-slot tuples of vertices and edges with pairwise disjoint
closures; the dimension is the number of edge slots.  Both the ordered
variant (all tuples) and the unordered one (sorted orbit representatives
of the free symmetric-group action) are supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BadParamsError, InvariantError, NotASubgraphError
from .graphs import SimpleGraph, ambient_arcs
from .homology import ChainMap, IntegerChainComplex, Sparse

# slot encodings sort edges before vertices, matching the orbit representative
Slot = tuple  # ('e', a, b) or ('v', v)


def edge_slot(a: int, b: int) -> Slot:
    return ("e", a, b) if a < b else ("e", b, a)


def vertex_slot(v: int) -> Slot:
    return ("v", v)


def slot_closure(slot: Slot) -> tuple[int, ...]:
    return slot[1:] if slot[0] == "e" else (slot[1],)


@dataclass(frozen=True)
class CubicalComplex:
    graph: SimpleGraph
    n: int
    ordered: bool
    cells: tuple[tuple[tuple[Slot, ...], ...], ...]  # per dimension, sorted
    chain: IntegerChainComplex

    @cached_property
    def cell_index(self) -> dict[tuple[Slot, ...], tuple[int, int]]:
        out = {}
        for d, layer in enumerate(self.cells):
            for idx, key in enumerate(layer):
                out[key] = (d, idx)
        return out

    def cell_counts(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.cells)

    def euler_characteristic(self) -> int:
        return self.chain.euler_characteristic()


def build_discretized(g: SimpleGraph, n: int, ordered: bool = True) -> CubicalComplex:
    """Enumerate cells and assemble boundary matrices for D_n(G)."""
    if n < 1:
        raise BadParamsError("n must be >= 1")
    slots = [edge_slot(a, b) for a, b in g.edges] + [vertex_slot(v) for v in g.vertices]
    slots.sort()

    per_dim: list[list[tuple[Slot, ...]]] = [[] for _ in range(n + 1)]

    chosen: list[Slot] = []
    used: set[int] = set()

    def rec(start: int):
        # ordered cells restart every slot at 0; unordered ones continue
        # after the previous slot, which allows pruning short tails
        if len(chosen) == n:
            key = tuple(chosen)
            per_dim[sum(1 for s in key if s[0] == "e")].append(key)
            return
        if not ordered and n - len(chosen) > len(slots) - start:
            return
        for idx in range(start, len(slots)):
            s = slots[idx]
            cl = slot_closure(s)
            if any(v in used for v in cl):
                continue
            chosen.append(s)
            used.update(cl)
            rec(0 if ordered else idx + 1)
            used.difference_update(cl)
            chosen.pop()

    rec(0)

    for layer in per_dim:
        layer.sort()
    index = [
        {key: i for i, key in enumerate(layer)} for layer in per_dim
    ]

    boundaries: list[Sparse] = [dict() for _ in range(n + 1)]
    for d in range(1, n + 1):
        bd: Sparse = {}
        for col, key in enumerate(per_dim[d]):
            edge_rank = 0
            for pos, s in enumerate(key):
                if s[0] != "e":
                    continue
                _, a, b = s
                sign = -1 if edge_rank % 2 else 1
                for endpoint, coeff in ((b, sign), (a, -sign)):
                    face = _face_key(key, pos, endpoint, ordered)
                    row = index[d - 1][face]
                    cur = bd.get((row, col), 0) + coeff
                    if cur:
                        bd[(row, col)] = cur
                    else:
                        bd.pop((row, col), None)
                edge_rank += 1
        boundaries[d] = bd

    chain = IntegerChainComplex(
        tuple(len(layer) for layer in per_dim), tuple(boundaries)
    )
    return CubicalComplex(g, n, ordered, tuple(tuple(l) for l in per_dim), chain)


def _face_key(key: tuple[Slot, ...], pos: int, endpoint: int, ordered: bool):
    repl = list(key)
    repl[pos] = vertex_slot(endpoint)
    if not ordered:
        repl.sort()
    return tuple(repl)


# -- sufficiency of subdivision ----------------------------------------------


def is_sufficiently_subdivided(g: SimpleGraph, n: int) -> bool:
    """Abrams' condition: every essential arc and every cycle has >= n+1 edges.

    The ambient arcs alone decide it: every arc, open or closed, and every
    cycle component needs >= n+1 edges.  The interior vertices of an arc
    have degree 2, so a cycle that uses one edge of an arc uses the whole
    arc, and every cycle has at least as many edges as some arc on it.
    Closed arcs and cycle components are themselves cycles.  So "every arc
    has >= n+1 edges" is the same as "every open arc has >= n+1 edges and
    the girth is >= n+1", with no girth search.
    """
    if n < 1:
        raise BadParamsError("n must be >= 1")
    return all(len(arc) >= n + 1 for arc in ambient_arcs(g))


# -- the oracle for subgraph images: chain maps of inclusions ----------------
#
# ``generation.AmbientContext.image_of_subgraph`` reads D_n(H) off the
# ambient complex as a subset of its cells; ``generation.image_by_chain_map``
# rebuilds D_n(H) and maps it along ``inclusion_chain_map`` to check it.


def inclusion_chain_map(
    h: SimpleGraph,
    g: SimpleGraph,
    n: int,
    ordered: bool = True,
    target_complex: CubicalComplex | None = None,
) -> ChainMap:
    """The degreewise 0/1 map sending each cell of D_n(H) to itself in D_n(G)."""
    if not h.is_subgraph_of(g):
        raise NotASubgraphError("H is not a subgraph of G")
    src = build_discretized(h, n, ordered)
    tgt = target_complex or build_discretized(g, n, ordered)
    mats: list[Sparse] = []
    for d in range(n + 1):
        mat: Sparse = {}
        for col, key in enumerate(src.cells[d]):
            dd, row = tgt.cell_index[key]
            if dd != d:
                raise InvariantError(f"cell {key} has dimension {d} in H, {dd} in G")
            mat[(row, col)] = 1
        mats.append(mat)
    return ChainMap(src.chain, tgt.chain, tuple(mats))


# -- export --------------------------------------------------------------------


def complex_to_json_obj(cx: CubicalComplex) -> dict:
    return {
        "n": cx.n,
        "ordered": cx.ordered,
        "cells": [
            ["|".join("-".join(map(str, s)) for s in key) for key in layer]
            for layer in cx.cells
        ],
        "boundaries": [
            sorted([r, c, v] for (r, c), v in cx.chain.boundaries[d].items())
            for d in range(len(cx.cells))
        ],
    }


def cell_count_table(cx: CubicalComplex) -> str:
    counts = cx.cell_counts()
    lines = ["dim\tcells"]
    lines += [f"{d}\t{c}" for d, c in enumerate(counts)]
    lines.append(f"chi\t{cx.euler_characteristic()}")
    return "\n".join(lines)
