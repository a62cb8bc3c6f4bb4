import itertools
import math

import pytest

from graphconf import cographs, swiatkowski
from graphconf.errors import BadParamsError, NotAnEmbeddingError
from graphconf.graphs import family, make_graph
from graphconf.morphisms import TopMinorMorphism, enumerate_tm, inclusion_morphism
from graphconf.swiatkowski import (
    SELF,
    SwiatkowskiCell,
    enumerate_cells,
    push_cells,
    support_vertices,
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
    assert push_cells(cells, ident) == cells
    k2 = family("complete", 2)
    embs = enumerate_tm(k2, g, kind="simplicial", limit=100)
    for emb in embs:
        imgs = push_cells(enumerate_cells(k2, 0, 2), emb)
        assert len(set(imgs)) == len(imgs)


def test_push_extends_by_zero():
    k2 = family("complete", 2)
    p3 = family("path", 3)
    from graphconf.graphs import Path

    emb = TopMinorMorphism(k2, p3, ((0, 0), (1, 1)), (((0, 1), Path((0, 1))),))
    heavy = SwiatkowskiCell(k2, 2, 0, (((0, 1), 2),), ())
    (out,) = push_cells([heavy], emb)
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
        push_cells([cell], subdiv)


def test_push_rejects_a_cell_of_another_graph():
    c3 = family("cycle", 3)
    k2 = family("complete", 2)
    emb = inclusion_morphism(c3, family("complete", 4))
    ok, stray = enumerate_cells(c3, 0, 1)[0], enumerate_cells(k2, 0, 1)[0]
    with pytest.raises(NotAnEmbeddingError):
        push_cells([ok, stray], emb)


def test_support_examples():
    k2 = family("complete", 2)
    heavy = SwiatkowskiCell(k2, 2, 0, (((0, 1), 2),), ())
    assert support_vertices(heavy) == {0, 1}
    k3 = family("complete", 3)
    single = SwiatkowskiCell(k3, 1, 0, (), ((0, SELF),))
    assert support_vertices(single) == {0}
    c4 = family("cycle", 4)
    mixed = SwiatkowskiCell(c4, 2, 1, (), ((0, ("half", 0, 1)), (2, SELF)))
    assert support_vertices(mixed) == {0, 1, 2}


def test_support_bound_reports():
    rep = verify_support_bound(family("complete", 2), 0, 2)
    assert rep.ok and rep.cell_count == 4 and rep.max_support == 2
    rep = verify_support_bound(family("complete", 1), 0, 1)
    assert rep.ok and rep.max_support == 1
    rep = verify_support_bound(family("complete_bipartite", 2, 3), 1, 2)
    assert rep.ok and rep.max_support <= 4



def per_cell_support_bound(g, i, n):
    """Oracle: the per-cell loop, building G_λ, its inclusion and the
    cograph verdict anew for every cell; returns (cell_count, max_support,
    violations)."""
    g_is_cograph = cographs.is_cograph(g)
    violations = []
    max_support = 0
    cells = enumerate_cells(g, i, n)
    for cell in cells:
        verts = {v for v, s in cell.states if s == SELF}
        verts.update(x for _, s in cell.states if s != SELF for x in s[1:])
        verts.update(x for e, _ in cell.weights for x in e)
        supp = g.induced(sorted(verts))
        size = len(supp.vertices)
        max_support = max(max_support, size)
        if size > n + i + cell.edge_mass() or n + i + cell.edge_mass() > 2 * n:
            violations.append(("size", cell.key, size))
            continue
        restricted = SwiatkowskiCell(supp, n, i, cell.weights, cell.states)
        if push_cells([restricted], swiatkowski.inclusion_morphism(supp, g)) != [cell]:
            violations.append(("image", cell.key, size))
        if g_is_cograph and not cographs.is_cograph(supp):
            violations.append(("cograph", cell.key, size))
    return len(cells), max_support, tuple(violations)


ORACLE_GRAPHS = {
    "K4": family("complete", 4),
    "K23": family("complete_bipartite", 2, 3),
    "C4": family("cycle", 4),
    "S3": family("star", 3),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_grouped_support_bound_matches_per_cell_oracle(name):
    g = ORACLE_GRAPHS[name]
    for n in (1, 2, 3):
        for i in range(n + 1):
            rep = verify_support_bound(g, i, n)
            assert (rep.cell_count, rep.max_support, rep.violations) == \
                per_cell_support_bound(g, i, n)


def test_a_lying_cograph_verdict_reaches_every_cell_of_its_support(monkeypatch):
    real = cographs.is_cograph
    monkeypatch.setattr(cographs, "is_cograph", lambda h: len(h.vertices) != 3 and real(h))
    g = family("complete", 4)
    for i in range(3):
        rep = verify_support_bound(g, i, 2)
        expected = per_cell_support_bound(g, i, 2)[2]
        assert rep.violations == expected
        flagged = {key for kind, key, _ in rep.violations if kind == "cograph"}
        assert flagged == {c.key for c in enumerate_cells(g, i, 2)
                           if len(support_vertices(c)) == 3}
        assert flagged


def test_image_and_cograph_violations_keep_the_oracles_order(monkeypatch):
    # swapping vertices 0 and 1 keeps each inclusion a valid embedding but
    # moves every cell that tells 0 from 1, so those cells fail the image test
    from graphconf.graphs import Path

    def swapped(h, g):
        s = {0: 1, 1: 0}.get
        return TopMinorMorphism(h, g, tuple((v, s(v, v)) for v in h.vertices),
                                tuple((e, Path((s(e[0], e[0]), s(e[1], e[1])))) for e in h.edges))

    real = cographs.is_cograph
    monkeypatch.setattr(cographs, "is_cograph", lambda h: len(h.vertices) != 3 and real(h))
    monkeypatch.setattr(swiatkowski, "inclusion_morphism", swapped)
    g = family("complete", 4)
    for i in range(3):
        rep = verify_support_bound(g, i, 2)
        assert rep.violations == per_cell_support_bound(g, i, 2)[2]
        assert {kind for kind, _, _ in rep.violations} == {"image", "cograph"}


def test_validate_tm_runs_once_per_distinct_support(monkeypatch):
    calls = []
    real = swiatkowski.validate_tm
    monkeypatch.setattr(swiatkowski, "validate_tm", lambda emb: calls.append(emb) or real(emb))
    g = family("complete", 4)
    for i in range(3):
        calls.clear()
        assert verify_support_bound(g, i, 2).ok
        supports = {support_vertices(c) for c in enumerate_cells(g, i, 2)}
        assert len(calls) == len(supports)
        assert {frozenset(emb.source.vertices) for emb in calls} == supports


def test_support_bound_rejects_negative_n():
    with pytest.raises(BadParamsError):
        verify_support_bound(family("complete", 3), 0, -1)
