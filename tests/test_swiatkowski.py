import itertools
import math

import pytest

from graphconf.errors import BadParamsError, NotAnEmbeddingError
from graphconf.graphs import family, make_graph
from graphconf.morphisms import TopMinorMorphism, enumerate_tm, inclusion_morphism
from graphconf.swiatkowski import (
    SELF,
    SwiatkowskiCell,
    enumerate_cells,
    push_cell,
    support_subgraph,
    verify_support_bound,
)


def test_cell_counts_from_construction():
    assert len(enumerate_cells(family("complete", 1), 0, 1)) == 1
    assert len(enumerate_cells(family("complete", 2), 1, 1)) == 2
    cells = enumerate_cells(family("complete", 2), 0, 2)
    assert len(cells) == 4
    keys = {c.key for c in cells}
    assert ((((0, 1), 2),), ()) in keys  # all mass on the edge
    assert ((), ((0, SELF), (1, SELF))) in keys


def test_cell_invariants():
    g = family("complete_bipartite", 2, 2)
    for i in range(3):
        for c in enumerate_cells(g, i, 2):
            halves = sum(1 for _, s in c.states if s != SELF)
            selves = sum(1 for _, s in c.states if s == SELF)
            assert halves == i
            assert c.edge_mass() + selves + halves == 2
            assert c.edge_mass() <= 2 - i


def test_cell_validation():
    k2 = family("complete", 2)
    with pytest.raises(BadParamsError):
        SwiatkowskiCell(k2, 1, 0, (((0, 1), 2),), ())  # mass 2 != 1
    with pytest.raises(BadParamsError):
        SwiatkowskiCell(k2, 1, 0, (), ((0, ("half", 0, 1)),))  # i mismatch
    with pytest.raises(BadParamsError):
        SwiatkowskiCell(k2, 1, 1, (), ((0, ("half", 1, 2)),))  # not incident


def test_tree_top_cells_count_half_edge_choices():
    # with every particle on a half-edge, cells = ways to pick n vertices
    # and one incident edge each
    for tree in [family("path", 4), family("star", 3)]:
        for n in (1, 2):
            expected = sum(
                math.prod(tree.degree(v) for v in vs)
                for vs in itertools.combinations(tree.vertices, n)
            )
            assert len(enumerate_cells(tree, n, n)) == expected


def test_push_identity_and_injectivity():
    g = family("path", 3)
    ident = inclusion_morphism(g, g)
    cells = enumerate_cells(g, 1, 2)
    assert [push_cell(c, ident) for c in cells] == cells
    k2 = family("complete", 2)
    embs = enumerate_tm(k2, g, kind="simplicial", limit=100)
    for emb in embs:
        imgs = [push_cell(c, emb) for c in enumerate_cells(k2, 0, 2)]
        assert len(set(imgs)) == len(imgs)


def test_push_extends_by_zero():
    k2 = family("complete", 2)
    p3 = family("path", 3)
    from graphconf.graphs import Path

    emb = TopMinorMorphism(k2, p3, ((0, 0), (1, 1)), (((0, 1), Path((0, 1))),))
    heavy = SwiatkowskiCell(k2, 2, 0, (((0, 1), 2),), ())
    out = push_cell(heavy, emb)
    assert out.graph == p3
    assert out.weights == (((0, 1), 2),)
    assert out.states == ()


def test_push_rejects_non_embeddings():
    c3 = family("cycle", 3)
    c6 = family("cycle", 6)
    from graphconf.graphs import Path

    subdiv = TopMinorMorphism(
        c3,
        c6,
        ((0, 0), (1, 2), (2, 4)),
        (
            ((0, 1), Path((0, 1, 2))),
            ((0, 2), Path((0, 5, 4))),
            ((1, 2), Path((2, 3, 4))),
        ),
    )
    cell = enumerate_cells(c3, 0, 1)[0]
    with pytest.raises(NotAnEmbeddingError):
        push_cell(cell, subdiv)


def test_support_examples():
    k2 = family("complete", 2)
    heavy = SwiatkowskiCell(k2, 2, 0, (((0, 1), 2),), ())
    assert support_subgraph(k2, heavy) == k2
    k3 = family("complete", 3)
    single = SwiatkowskiCell(k3, 1, 0, (), ((0, SELF),))
    supp = support_subgraph(k3, single)
    assert supp.vertices == (0,) and supp.edges == ()
    c4 = family("cycle", 4)
    mixed = SwiatkowskiCell(c4, 2, 1, (), ((0, ("half", 0, 1)), (2, SELF)))
    assert len(support_subgraph(c4, mixed).vertices) == 3


def test_support_bound_reports():
    rep = verify_support_bound(family("complete", 2), 0, 2)
    assert rep.ok and rep.cell_count == 4 and rep.max_support == 2
    rep = verify_support_bound(family("complete", 1), 0, 1)
    assert rep.ok and rep.max_support == 1
    rep = verify_support_bound(family("complete_bipartite", 2, 3), 1, 2)
    assert rep.ok and rep.max_support <= 4

