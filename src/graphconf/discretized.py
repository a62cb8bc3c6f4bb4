"""Abrams' discretized configuration space D_n(G) as an integer cubical complex.

Cells are n-slot tuples of vertices and edges with pairwise disjoint
closures; the dimension is the number of edge slots.  Both the ordered
variant (all tuples) and the unordered one (sorted orbit representatives
of the free symmetric-group action) are supported.

Slot codes.  ``build_discretized`` numbers the slots once, in sorted slot
order: the edges ascending, then the vertices ascending.  It works on
these integer codes only.  A closure is a bitmask of vertex codes, a cell
is a tuple of codes, and ``CubicalComplex.cells`` decodes the codes into
slot tuples on first use.  Codes and slots sort alike, so both forms of a
layer are in the same sorted order.

Cell keys.  Inside the build every cell also has an integer key, and the
boundary is assembled on keys.  With s slots and w = s.bit_length(),
every code is < s < 2^w.  An unordered cell's key is its slot bitmask,
the sum of 2^c over its codes c.  An ordered cell's key holds its codes
as base-2^w digits: the sum of c_p 2^(pw) over its positions p.

Keys are injective.  The codes of an unordered cell are distinct and
sorted, so its mask gives the set of its codes and that set gives the
tuple.  An ordered cell has n codes, each < 2^w, so they are the n
base-2^w digits of its key, the code at position p being digit p.

The face key is one addition.  The face for the edge code c at position
p and an endpoint x of that edge puts x in place of c (and, for unordered
cells, sorts it into place).  x is not a code of the cell, since it lies
in the closure of c and the closures of a cell are disjoint.  So the
unordered face's mask is the cell's with bit c cleared and bit x set:
key + 2^x - 2^c, which is key ^ (2^c | 2^x).  The ordered face changes
digit p from c to x and no other digit; x < 2^w is a digit, so nothing
carries, and the key changes by (x - c) 2^(pw).  Edge codes sort before
vertex codes, so the edge slots of an unordered d-cell are its first d
codes.  A face is then one addition and one lookup in a dict from the
keys of the layer below to their rows: no face tuple is built.

No boundary entries cancel.  The face of a k-cell for its edge slot e and
an endpoint x of e replaces e by the vertex slot x (and, for unordered
cells, sorts x into place).  The 2k faces of one cell are pairwise
distinct.  Two faces for different edge slots e and e' differ, since the
face for e' still holds e and the face for e does not (the slots of a
cell are distinct, and x is a vertex).  The two faces for one edge differ
in its endpoint, and neither endpoint is already a slot of the cell, as
the closures are disjoint.  So each column of d_k has 2k entries, each
±1, on pairwise distinct rows: ``build_discretized`` appends each face to
its column once, and the column lists are the complex's one stored form.
The coefficients depend only on k, so the columns of d_k share one
coefficient list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BadParamsError, InvariantError, NotASubgraphError
from .graphs import SimpleGraph, ambient_arcs
from .homology import Columns, IntegerChainComplex

# slot encodings sort edges before vertices, matching the orbit representative
Slot = tuple  # ('e', a, b) or ('v', v)


def edge_slot(a: int, b: int) -> Slot:
    return ("e", a, b) if a < b else ("e", b, a)


def vertex_slot(v: int) -> Slot:
    return ("v", v)


@dataclass(frozen=True)
class CubicalComplex:
    graph: SimpleGraph
    n: int
    ordered: bool
    slots: tuple[Slot, ...]  # slot code k stands for slots[k]; sorted
    cell_codes: tuple[tuple[tuple[int, ...], ...], ...]  # per dimension, sorted
    chain: IntegerChainComplex

    @cached_property
    def cells(self) -> tuple[tuple[tuple[Slot, ...], ...], ...]:
        """The cells as slot tuples, per dimension, sorted."""
        slots = self.slots
        return tuple(tuple(tuple(slots[c] for c in cell) for cell in layer)
                     for layer in self.cell_codes)

    @cached_property
    def code_index(self) -> dict[tuple[int, ...], tuple[int, int]]:
        """Cell codes -> (dimension, index in that dimension)."""
        return {cell: (d, idx) for d, layer in enumerate(self.cell_codes)
                for idx, cell in enumerate(layer)}

    def cell_counts(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.cell_codes)

    def euler_characteristic(self) -> int:
        return self.chain.euler_characteristic()


def build_discretized(g: SimpleGraph, n: int, ordered: bool = True) -> CubicalComplex:
    """Enumerate cells and assemble the boundary matrices of D_n(G) by column.

    Per column, the faces are appended edge slot by edge slot in cell
    order, the larger endpoint (sign (-1)^r for the r-th edge slot) before
    the smaller one (the opposite sign).  ``homology._reduce`` visits faces
    in this order, and the size of its residual depends on it.  So every
    column of d_k has the coefficients (1, -1, -1, 1, ...) of length 2k,
    and all of them share one list, which readers must not mutate."""
    if n < 1:
        raise BadParamsError("n must be >= 1")
    slots = sorted([edge_slot(a, b) for a, b in g.edges] + [vertex_slot(v) for v in g.vertices])
    n_edges = len(g.edges)
    code = {s[1]: k for k, s in enumerate(slots) if s[0] == "v"}
    ends = [(code[s[1]], code[s[2]]) for s in slots[:n_edges]]
    closure = [(1 << a) | (1 << b) for a, b in ends] + [1 << k for k in range(n_edges, len(slots))]
    # place[p][c]: what code c at position p adds to a cell's key
    w = len(slots).bit_length()
    if ordered:
        place = [[c << p * w for c in range(len(slots))] for p in range(n)]
    else:
        place = [[1 << c for c in range(len(slots))]] * n

    per_dim: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    keys: list[list[int]] = [[] for _ in range(n + 1)]

    def extend(cell: tuple[int, ...], key: int, used: int, dim: int, start: int) -> None:
        # ordered cells restart every slot at 0; unordered ones continue
        # after the previous slot and leave room for the slots still to
        # come.  The last slot appends the cell directly, saving one call
        # per cell.
        last = len(cell) == n - 1
        digit = place[len(cell)]
        stop = len(slots) if ordered else len(slots) - (n - 1 - len(cell))
        for c in range(start, stop):
            if closure[c] & used:
                continue
            if last:
                d = dim + (c < n_edges)
                per_dim[d].append(cell + (c,))
                keys[d].append(key + digit[c])
            else:
                extend(cell + (c,), key + digit[c], used | closure[c],
                       dim + (c < n_edges), 0 if ordered else c + 1)

    # depth first in ascending codes, so every layer comes out sorted.
    # extend refers to itself, so until the next full garbage collection
    # the cycle would keep per_dim and every cell alive; del breaks it
    extend((), 0, 0, 0, 0)
    del extend

    # step[p][c]: what the faces for the edge code c at position p add to
    # the cell's key, larger endpoint first; nothing for a vertex code
    step = [[(pl[b] - pl[c], pl[a] - pl[c]) for c, (a, b) in enumerate(ends)]
            + [()] * (len(slots) - n_edges) for pl in place]
    columns: list[Columns] = [([[] for _ in per_dim[0]], [[] for _ in per_dim[0]])]
    for d in range(1, n + 1):
        index = {key: i for i, key in enumerate(keys[d - 1])}
        if ordered:
            rows = [[index[key + s] for p, c in enumerate(cell) for s in step[p][c]]
                    for cell, key in zip(per_dim[d], keys[d])]
        else:
            # every position has the same steps, and the edges come first
            rows = [[index[key + s] for c in cell[:d] for s in step[0][c]]
                    for cell, key in zip(per_dim[d], keys[d])]
        # every column has d edge slots, so one list serves them all
        pattern = [(-1) ** r * s for r in range(d) for s in (1, -1)]
        columns.append((rows, [pattern] * len(rows)))
    del keys, index  # the keys live only in the build

    chain = IntegerChainComplex(tuple(map(len, per_dim)), tuple(columns))
    return CubicalComplex(g, n, ordered, tuple(slots), tuple(map(tuple, per_dim)), chain)


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


# -- the oracle for subgraph images: inclusions by cell index ----------------
#
# ``generation.AmbientContext.image_of_subgraph`` reads D_n(H) off the
# ambient complex as a subset of its cells; ``generation.image_by_chain_map``
# rebuilds D_n(H) and pushes its cycles along ``inclusion_chain_map`` to
# check it.


def inclusion_chain_map(
    h: SimpleGraph,
    g: SimpleGraph,
    n: int,
    ordered: bool = True,
    target_complex: CubicalComplex | None = None,
) -> tuple[CubicalComplex, list[list[int]]]:
    """D_n(H), and per degree d the index in D_n(G) of each d-cell of D_n(H).

    D_n(H) is a subcomplex of D_n(G), so the inclusion is the chain map
    sending d-cell j of D_n(H) to cell ``index[d][j]`` of D_n(G), with
    coefficient 1."""
    if not h.is_subgraph_of(g):
        raise NotASubgraphError("H is not a subgraph of G")
    src = build_discretized(h, n, ordered)
    tgt = target_complex or build_discretized(g, n, ordered)
    # both numberings follow the sorted slot order, so sorted cells map to sorted cells
    tgt_code = {s: k for k, s in enumerate(tgt.slots)}
    to_tgt = [tgt_code[s] for s in src.slots]
    index: list[list[int]] = []
    for d, layer in enumerate(src.cell_codes):
        cols = []
        for j, cell in enumerate(layer):
            dd, k = tgt.code_index[tuple(to_tgt[c] for c in cell)]
            if dd != d:
                raise InvariantError(f"cell {src.cells[d][j]} has dimension {d} in H, {dd} in G")
            cols.append(k)
        index.append(cols)
    return src, index


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
            sorted([r, c, v] for (r, c), v in bd.items()) for bd in cx.chain.boundaries
        ],
    }


def cell_count_table(cx: CubicalComplex) -> str:
    counts = cx.cell_counts()
    lines = ["dim\tcells"]
    lines += [f"{d}\t{c}" for d, c in enumerate(counts)]
    lines.append(f"chi\t{cx.euler_characteristic()}")
    return "\n".join(lines)
