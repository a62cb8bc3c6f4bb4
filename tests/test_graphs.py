import pytest
from hypothesis import given, strategies as st

from graphconf.errors import (
    BadParamsError,
    DanglingEndpointError,
    DuplicateEdgeError,
    DuplicateVertexError,
    LoopEdgeError,
)
from graphconf.graphs import (
    Path,
    ambient_arcs,
    betti1,
    complement,
    disjoint_union,
    family,
    make_graph,
    subdivide,
    subdivide_uniform,
    theta_graph,
)


def test_make_graph_normalizes_edges():
    g = make_graph([2, 0, 1], [(2, 0), (1, 2)])
    assert g.vertices == (2, 0, 1)
    assert g.edges == ((0, 2), (1, 2))
    assert g.has_edge(0, 2) and g.has_edge(2, 0)


def test_make_graph_validation():
    with pytest.raises(DuplicateVertexError):
        make_graph([0, 0], [])
    with pytest.raises(LoopEdgeError):
        make_graph([0, 1], [(0, 0)])
    with pytest.raises(DanglingEndpointError):
        make_graph([0, 1], [(0, 2)])
    with pytest.raises(DuplicateEdgeError):
        make_graph([0, 1], [(0, 1), (1, 0)])


def test_complement_involution():
    g = family("cycle", 5)
    assert complement(complement(g)) == g
    # C_5 is self-complementary
    assert sorted(len(complement(g).adjacency[v]) for v in g.vertices) == [2] * 5


def test_disjoint_union_offsets():
    g = disjoint_union(family("complete", 2), family("complete", 2))
    assert len(g.vertices) == 4
    assert len(g.edges) == 2
    assert len(g.components) == 2


def test_subdivide_per_edge():
    g = family("star", 3)  # centre 0, leaves 1, 2, 3
    sub = subdivide(g, {(0, 1): 2})  # two new vertices on the first edge
    assert len(sub.vertices) == 6 and len(sub.edges) == 5
    # the subdivided edge is one arc of 3 edges; the others are untouched
    assert ambient_arcs(sub) == [[(0, 2)], [(0, 3)], [(0, 4), (4, 5), (1, 5)]]


def test_subdivide_uniform_counts():
    sub = subdivide_uniform(family("cycle", 3), 4)
    assert len(sub.edges) == 12
    assert len(sub.vertices) == 12
    assert betti1(sub) == 1


def test_betti1():
    assert betti1(family("path", 5)) == 0
    assert betti1(family("cycle", 7)) == 1
    assert betti1(family("complete", 4)) == 3
    assert betti1(disjoint_union(family("cycle", 3), family("cycle", 3))) == 2


def test_robertson_chain_shape():
    for k in range(1, 5):
        r = family("robertson_chain", k)
        assert len(r.vertices) == 2 * k + 1
        assert len(r.edges) == 3 * k
        assert betti1(r) == k
    r1 = family("robertson_chain", 1)
    assert len(r1.edges) == 3 and len(r1.vertices) == 3  # a triangle


def test_robertson_chain_leaves_shape():
    rp1 = family("robertson_chain_leaves", 1)
    assert len(rp1.vertices) == 9
    assert len(rp1.edges) == 9
    # each end of the spine carries three extra leaves
    leaf_count = sum(1 for v in rp1.vertices if rp1.degree(v) == 1)
    assert leaf_count == 6


def test_family_validation():
    with pytest.raises(BadParamsError):
        family("complete", 0)
    with pytest.raises(BadParamsError):
        family("no_such_family", 3)
    with pytest.raises(BadParamsError):
        family("cycle", 2)


def test_theta_graph():
    t = theta_graph()
    assert betti1(t) == 2
    degs = sorted(t.degree(v) for v in t.vertices)
    assert degs == [2, 2, 3, 3]
    longer = theta_graph((2, 2, 2))
    assert betti1(longer) == 2 and len(longer.vertices) == 5


def test_path_canonical_orientation():
    assert Path((2, 1, 0)) == Path((0, 1, 2))
    p = Path((0, 1, 2))
    assert p.vertices == (0, 1, 2)
    assert p.oriented_from(2) == (2, 1, 0)


@given(st.integers(min_value=3, max_value=8))
def test_cycle_complement_roundtrip(n):
    g = family("cycle", n)
    assert complement(complement(g)) == g
    assert betti1(g) == 1


@given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12))
def test_make_graph_accepts_arbitrary_simple_edges(pairs):
    edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    g = make_graph(range(7), edges)
    assert g.edge_set == frozenset(edges)
    assert complement(complement(g)) == g


def test_ambient_arcs_partition_the_edges():
    # theta on branch vertices 1 and 2 (vertex 0 of degree 2 comes first),
    # a pendant path 2-4-5, and a triangle component 6-7-8 with every
    # vertex of degree 2
    g = make_graph(range(9), [(1, 2), (0, 1), (0, 2), (1, 3), (2, 3),
                              (2, 4), (4, 5), (6, 7), (7, 8), (6, 8)])
    arcs = ambient_arcs(g)
    flat = [e for arc in arcs for e in arc]
    assert sorted(flat) == list(g.edges)
    assert {frozenset(arc) for arc in arcs} == {
        frozenset({(1, 2)}),
        frozenset({(0, 1), (0, 2)}),
        frozenset({(1, 3), (2, 3)}),
        frozenset({(2, 4), (4, 5)}),
        frozenset({(6, 7), (7, 8), (6, 8)}),
    }
    for arc in arcs:
        # path order: consecutive edges meet in a vertex of degree 2
        for e, f in zip(arc, arc[1:]):
            (shared,) = set(e) & set(f)
            assert g.degree(shared) == 2
