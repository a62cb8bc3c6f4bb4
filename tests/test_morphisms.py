import itertools
import random

import pytest

from graphconf.acceptance import _atlas_graphs
from graphconf.errors import BadParamsError, InvalidMorphismError
from graphconf.graphs import (
    Path,
    SimpleGraph,
    disjoint_union,
    family,
    make_graph,
    norm_edge,
    subdivide_uniform,
    theta_graph,
)
from graphconf.morphisms import (
    TopMinorMorphism,
    enumerate_tm,
    gtm_k_member,
    has_topological_minor,
    is_homeomorphic,
    is_isomorphic,
    iter_tm,
    smooth,
)
from tm_oracle import inclusion_morphism, validate_tm


def is_subdivision_oracle(rho: TopMinorMorphism) -> bool:
    """Oracle for the ``subdivision`` kind: rho validates, its image covers
    every target vertex, and its paths use every target edge exactly once."""
    ok, violations = validate_tm(rho)
    if not ok:
        raise InvalidMorphismError(f"not a morphism: {violations}")
    if rho.image_vertices != rho.target.vertex_set:
        return False
    counts: dict = {}
    for p in rho.rho_e.values():
        for e in p.edges:
            counts[e] = counts.get(e, 0) + 1
    return set(counts) == set(rho.target.edges) and all(c == 1 for c in counts.values())


def smooth_by_rescan(g: SimpleGraph) -> SimpleGraph:
    """Oracle for ``smooth``: suppress the first suppressible vertex, then
    rescan the rebuilt graph from its first vertex, until none is left."""
    cur = g
    while True:
        pick = None
        for v in cur.vertices:
            nb = cur.adjacency[v]
            if len(nb) == 2:
                u, w = nb
                if u != w and not cur.has_edge(u, w):
                    pick = (v, u, w)
                    break
        if pick is None:
            return cur
        v, u, w = pick
        verts = tuple(x for x in cur.vertices if x != v)
        edges = tuple(sorted(
            [e for e in cur.edges if v not in e] + [norm_edge(u, w)]
        ))
        labels = tuple((x, l) for x, l in cur.labels if x != v)
        cur = SimpleGraph(verts, edges, labels)


def test_identity_validates():
    for g in [family("cycle", 3), family("complete", 4), family("star", 3)]:
        ok, violations = validate_tm(inclusion_morphism(g, g))
        assert ok, violations
        assert is_subdivision_oracle(inclusion_morphism(g, g))


def test_vertex_injectivity_enforced():
    k2 = family("complete", 2)
    p3 = family("path", 3)
    rho = TopMinorMorphism(
        k2, p3, ((0, 0), (1, 0)), (((0, 1), Path((0, 1, 2))),)
    )
    ok, violations = validate_tm(rho)
    assert not ok
    assert any(cond == 1 for cond, _ in violations)


def test_path_endpoints_must_match():
    k2 = family("complete", 2)
    p3 = family("path", 3)
    rho = TopMinorMorphism(k2, p3, ((0, 0), (1, 1)), (((0, 1), Path((1, 2))),))
    ok, violations = validate_tm(rho)
    assert not ok


def test_interior_avoids_images():
    # map a path of two edges so one edge-path runs through another vertex image
    p3 = family("path", 3)
    p5 = family("path", 5)
    rho = TopMinorMorphism(
        p3,
        p5,
        ((0, 0), (1, 3), (2, 4)),
        (((0, 1), Path((0, 1, 2, 3))), ((1, 2), Path((3, 4)))),
    )
    ok, _ = validate_tm(rho)
    assert ok
    bad = TopMinorMorphism(
        p3,
        p5,
        ((0, 0), (1, 2), (2, 4)),
        (((0, 1), Path((0, 1, 2))), ((1, 2), Path((2, 1, 0)))),
    )
    ok, violations = validate_tm(bad)
    assert not ok


def test_intersection_condition():
    # two source edges sharing no vertex must have disjoint path images
    src = make_graph([0, 1, 2, 3], [(0, 1), (2, 3)])
    host = family("path", 4)  # 0-1-2-3
    bad = TopMinorMorphism(
        src,
        host,
        ((0, 0), (1, 2), (2, 1), (3, 3)),
        (((0, 1), Path((0, 1, 2))), ((2, 3), Path((1, 2, 3)))),
    )
    ok, violations = validate_tm(bad)
    assert not ok
    assert any(cond == 4 for cond, _ in violations)


def test_totality_errors():
    k2 = family("complete", 2)
    with pytest.raises(InvalidMorphismError):
        validate_tm(TopMinorMorphism(k2, k2, ((0, 0),), (((0, 1), Path((0, 1))),)))


def test_subdivision_morphism_recognized():
    c3 = family("cycle", 3)
    c9 = subdivide_uniform(c3, 3)
    (rho,) = enumerate_tm(c3, c9, kind="subdivision", limit=1)
    ok, violations = validate_tm(rho)
    assert ok, violations
    assert is_subdivision_oracle(rho)
    assert rho.image_subgraph() == c9
    assert sorted(len(p.edges) for p in rho.rho_e.values()) == [3, 3, 3]


def test_enumeration_counts():
    c3 = family("cycle", 3)
    k1, k2 = family("complete", 1), family("complete", 2)
    assert len(enumerate_tm(c3, c3, kind="simplicial")) == 6
    assert len(enumerate_tm(k1, k2, limit=100)) == 2
    c6 = family("cycle", 6)
    subs = [m for m in iter_tm(c3, c6) if is_subdivision_oracle(m)]
    assert len(subs) == 120
    # no morphism from a cycle into a tree
    assert not enumerate_tm(c3, family("star", 5), limit=1)


def test_unknown_kind_raises_at_the_first_next():
    rhos = iter_tm(family("cycle", 3), family("complete", 4), "subdivison")
    with pytest.raises(InvalidMorphismError, match="unknown kind 'subdivison'"):
        next(rhos)


K2_K1 = disjoint_union(family("complete", 2), family("complete", 1))
P3_K1 = disjoint_union(family("path", 3), family("complete", 1))
# source, target, and how many of the tm morphisms are subdivisions; an
# isolated target vertex is covered only by an isolated source vertex
SUBDIVISION_PAIRS = {
    "C3,C6": (family("cycle", 3), family("cycle", 6), 120),
    "theta,theta2": (theta_graph(), subdivide_uniform(theta_graph(), 2), 60),
    "star3,star3x3": (family("star", 3), subdivide_uniform(family("star", 3), 3), 6),
    "K4,K4x2": (family("complete", 4), subdivide_uniform(family("complete", 4), 2), 24),
    "K2+K1,P3+K1": (K2_K1, P3_K1, 2),
    "K2,P3+K1": (family("complete", 2), P3_K1, 0),
}


@pytest.mark.parametrize("pair", SUBDIVISION_PAIRS)
def test_subdivision_kind_matches_the_oracle_filter_of_tm(pair):
    source, target, count = SUBDIVISION_PAIRS[pair]
    want = [m for m in iter_tm(source, target, "tm") if is_subdivision_oracle(m)]
    assert len(want) == count
    assert list(iter_tm(source, target, "subdivision")) == want


def _shuffled_edge_subsets(g: SimpleGraph, rng: random.Random, count: int):
    for _ in range(count):
        edges = [e for e in g.edges if rng.random() < 0.8]
        vertices = list(g.vertices)
        rng.shuffle(vertices)
        yield make_graph(vertices, edges)


def test_smooth_matches_the_rescan_oracle():
    rng = random.Random(15)
    graphs = list(_atlas_graphs(6))
    for base in (subdivide_uniform(family("complete", 4), 3),
                 subdivide_uniform(theta_graph(), 2)):
        graphs += _shuffled_edge_subsets(base, rng, 200)
    graphs.append(make_graph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)],
                             {0: "a", 1: "b", 2: "c", 3: "d"}))
    graphs.append(make_graph([0, 1, 2], [(0, 1), (1, 2), (0, 2)], {0: "a", 2: "c"}))
    for g in graphs:
        got, want = smooth(g), smooth_by_rescan(g)
        assert (got.vertices, got.edges, got.labels) == (want.vertices, want.edges,
                                                         want.labels), g
    # a graph with nothing to suppress comes back as itself, labels and all
    triangle = graphs[-1]
    assert smooth(triangle) is triangle
    # the kept vertices keep their labels
    path = smooth(make_graph([0, 1, 2], [(0, 1), (1, 2)], {0: "a", 1: "b", 2: "c"}))
    assert (path.vertices, path.edges, path.labels) == ((0, 2), ((0, 2),),
                                                        ((0, "a"), (2, "c")))


def test_full_vs_simplicial():
    # K_2 into P_3: two edges, each giving two simplicial maps;
    # all of them reflect adjacency as well
    k2 = family("complete", 2)
    p3 = family("path", 3)
    assert len(enumerate_tm(k2, p3, kind="simplicial")) == 4
    assert len(enumerate_tm(k2, p3, kind="full")) == 4
    # 2 isolated vertices embed simplicially but never fully into K_3
    two = make_graph([0, 1], [])
    k3 = family("complete", 3)
    assert len(enumerate_tm(two, k3, kind="simplicial")) == 6
    assert len(enumerate_tm(two, k3, kind="full")) == 0


def test_limit_must_be_positive():
    c3 = family("cycle", 3)
    for limit in (0, -1):
        with pytest.raises(BadParamsError):
            enumerate_tm(c3, c3, limit=limit)
    assert len(enumerate_tm(c3, c3, kind="simplicial", limit=1)) == 1


def test_minor_relation():
    assert has_topological_minor(family("cycle", 3), family("complete", 4))
    assert has_topological_minor(family("cycle", 3), family("cycle", 9))
    assert not has_topological_minor(family("cycle", 9), family("cycle", 3))
    assert not has_topological_minor(family("complete", 4), theta_graph())


def test_gtm_membership():
    # order 1: exactly the forests
    assert gtm_k_member(family("path", 6), 1)
    assert gtm_k_member(family("star", 4), 1)
    assert not gtm_k_member(family("cycle", 5), 1)
    # K_4 contains no pair of cycles meeting in exactly one vertex
    assert gtm_k_member(family("complete", 4), 2)
    two_triangles = make_graph(
        [0, 1, 2, 3, 4], [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
    )
    assert not gtm_k_member(two_triangles, 2)
    assert gtm_k_member(two_triangles, 3)


def test_smooth_and_homeomorphism():
    c9 = family("cycle", 9)
    assert is_isomorphic(smooth(c9), family("cycle", 3))
    assert is_homeomorphic(c9, family("cycle", 4))
    assert not is_homeomorphic(c9, family("path", 4))
    sub = subdivide_uniform(family("star", 3), 5)
    assert is_homeomorphic(sub, family("star", 3))
    assert is_isomorphic(smooth(sub), family("star", 3))


def test_antichain_small():
    reps = {k: family("robertson_chain_leaves", k) for k in (1, 2)}
    for j, k in itertools.permutations((1, 2), 2):
        assert not has_topological_minor(reps[j], reps[k])
    # each one maps to itself
    for k in (1, 2):
        assert has_topological_minor(reps[k], reps[k])


def test_isomorphism_matches_permutation_oracle():
    """Every pair of atlas graphs with at most 5 vertices and equal |V|; the
    second is relabeled v -> |V| - 1 - v, so an isomorphism is rarely the
    identity map."""
    atlas = _atlas_graphs(5)
    found = 0
    for g, h in itertools.product(atlas, repeat=2):
        k = len(g.vertices)
        if len(h.vertices) != k:
            continue
        h = make_graph(h.vertices, [(k - 1 - a, k - 1 - b) for a, b in h.edges])
        want = any(
            all(g.has_edge(u, v) == h.has_edge(image[u], image[v])
                for u, v in itertools.combinations(g.vertices, 2))
            for image in itertools.permutations(h.vertices)
        )
        assert is_isomorphic(g, h) == want, (g, h)
        found += want
    # the atlas lists each isomorphism class once
    assert found == len(atlas)


# The first 20 morphisms of each kind, in the order iter_tm yields them;
# generation witnesses and `minor` output depend on that order.  Each one
# reads "rho_V images | rho_E paths", source vertices and edges ascending.
TM_PAIRS = {
    "C3,K4": (family("cycle", 3), family("complete", 4)),
    "C3,K4sub3": (family("cycle", 3), subdivide_uniform(family("complete", 4), 3)),
    "star3,theta": (family("star", 3), theta_graph()),
    "C3,C6": (family("cycle", 3), family("cycle", 6)),
}

FIRST_20 = {
    ("simplicial", "C3,K4"): (
        '0 1 2 | 0-1 0-2 1-2', '0 1 3 | 0-1 0-3 1-3', '0 2 1 | 0-2 0-1 1-2',
        '0 2 3 | 0-2 0-3 2-3', '0 3 1 | 0-3 0-1 1-3', '0 3 2 | 0-3 0-2 2-3',
        '1 0 2 | 0-1 1-2 0-2', '1 0 3 | 0-1 1-3 0-3', '1 2 0 | 1-2 0-1 0-2',
        '1 2 3 | 1-2 1-3 2-3', '1 3 0 | 1-3 0-1 0-3', '1 3 2 | 1-3 1-2 2-3',
        '2 0 1 | 0-2 1-2 0-1', '2 0 3 | 0-2 2-3 0-3', '2 1 0 | 1-2 0-2 0-1',
        '2 1 3 | 1-2 2-3 1-3', '2 3 0 | 2-3 0-2 0-3', '2 3 1 | 2-3 1-2 1-3',
        '3 0 1 | 0-3 1-3 0-1', '3 0 2 | 0-3 2-3 0-2',
    ),
    ("simplicial", "C3,K4sub3"): (),
    ("simplicial", "star3,theta"): (
        '0 1 2 3 | 0-1 0-2 0-3', '0 1 3 2 | 0-1 0-3 0-2', '0 2 1 3 | 0-2 0-1 0-3',
        '0 2 3 1 | 0-2 0-3 0-1', '0 3 1 2 | 0-3 0-1 0-2', '0 3 2 1 | 0-3 0-2 0-1',
        '1 0 2 3 | 0-1 1-2 1-3', '1 0 3 2 | 0-1 1-3 1-2', '1 2 0 3 | 1-2 0-1 1-3',
        '1 2 3 0 | 1-2 1-3 0-1', '1 3 0 2 | 1-3 0-1 1-2', '1 3 2 0 | 1-3 1-2 0-1',
    ),
    ("simplicial", "C3,C6"): (),
    ("full", "C3,K4"): (
        '0 1 2 | 0-1 0-2 1-2', '0 1 3 | 0-1 0-3 1-3', '0 2 1 | 0-2 0-1 1-2',
        '0 2 3 | 0-2 0-3 2-3', '0 3 1 | 0-3 0-1 1-3', '0 3 2 | 0-3 0-2 2-3',
        '1 0 2 | 0-1 1-2 0-2', '1 0 3 | 0-1 1-3 0-3', '1 2 0 | 1-2 0-1 0-2',
        '1 2 3 | 1-2 1-3 2-3', '1 3 0 | 1-3 0-1 0-3', '1 3 2 | 1-3 1-2 2-3',
        '2 0 1 | 0-2 1-2 0-1', '2 0 3 | 0-2 2-3 0-3', '2 1 0 | 1-2 0-2 0-1',
        '2 1 3 | 1-2 2-3 1-3', '2 3 0 | 2-3 0-2 0-3', '2 3 1 | 2-3 1-2 1-3',
        '3 0 1 | 0-3 1-3 0-1', '3 0 2 | 0-3 2-3 0-2',
    ),
    ("full", "C3,K4sub3"): (),
    ("full", "star3,theta"): (),
    ("full", "C3,C6"): (),
    ("tm", "C3,K4"): (
        '0 1 2 | 0-1 0-2 1-2', '0 1 2 | 0-1 0-2 1-3-2', '0 1 2 | 0-1 0-3-2 1-2',
        '0 1 2 | 0-3-1 0-2 1-2', '0 1 3 | 0-1 0-3 1-3', '0 1 3 | 0-1 0-3 1-2-3',
        '0 1 3 | 0-1 0-2-3 1-3', '0 1 3 | 0-2-1 0-3 1-3', '0 2 1 | 0-2 0-1 1-2',
        '0 2 1 | 0-2 0-1 1-3-2', '0 2 1 | 0-2 0-3-1 1-2', '0 2 1 | 0-3-2 0-1 1-2',
        '0 2 3 | 0-2 0-3 2-3', '0 2 3 | 0-2 0-3 2-1-3', '0 2 3 | 0-2 0-1-3 2-3',
        '0 2 3 | 0-1-2 0-3 2-3', '0 3 1 | 0-3 0-1 1-3', '0 3 1 | 0-3 0-1 1-2-3',
        '0 3 1 | 0-3 0-2-1 1-3', '0 3 1 | 0-2-3 0-1 1-3',
    ),
    ("tm", "C3,K4sub3"): (
        '0 1 2 | 0-4-5-1 0-6-7-2 1-10-11-2', '0 1 2 | 0-4-5-1 0-6-7-2 1-12-13-3-15-14-2',
        '0 1 2 | 0-4-5-1 0-8-9-3-15-14-2 1-10-11-2',
        '0 1 2 | 0-8-9-3-13-12-1 0-6-7-2 1-10-11-2', '0 1 3 | 0-4-5-1 0-8-9-3 1-12-13-3',
        '0 1 3 | 0-4-5-1 0-8-9-3 1-10-11-2-14-15-3',
        '0 1 3 | 0-4-5-1 0-6-7-2-14-15-3 1-12-13-3',
        '0 1 3 | 0-6-7-2-11-10-1 0-8-9-3 1-12-13-3', '0 1 4 | 0-6-7-2-11-10-1 0-4 1-5-4',
        '0 1 4 | 0-8-9-3-13-12-1 0-4 1-5-4', '0 1 4 | 0-6-7-2-14-15-3-13-12-1 0-4 1-5-4',
        '0 1 4 | 0-8-9-3-15-14-2-11-10-1 0-4 1-5-4', '0 1 5 | 0-6-7-2-11-10-1 0-4-5 1-5',
        '0 1 5 | 0-8-9-3-13-12-1 0-4-5 1-5', '0 1 5 | 0-6-7-2-14-15-3-13-12-1 0-4-5 1-5',
        '0 1 5 | 0-8-9-3-15-14-2-11-10-1 0-4-5 1-5', '0 1 6 | 0-4-5-1 0-6 1-10-11-2-7-6',
        '0 1 6 | 0-4-5-1 0-6 1-12-13-3-15-14-2-7-6',
        '0 1 6 | 0-8-9-3-13-12-1 0-6 1-10-11-2-7-6', '0 1 7 | 0-4-5-1 0-6-7 1-10-11-2-7',
    ),
    ("tm", "star3,theta"): (
        '0 1 2 3 | 0-1 0-2 0-3', '0 1 3 2 | 0-1 0-3 0-2', '0 2 1 3 | 0-2 0-1 0-3',
        '0 2 3 1 | 0-2 0-3 0-1', '0 3 1 2 | 0-3 0-1 0-2', '0 3 2 1 | 0-3 0-2 0-1',
        '1 0 2 3 | 0-1 1-2 1-3', '1 0 3 2 | 0-1 1-3 1-2', '1 2 0 3 | 1-2 0-1 1-3',
        '1 2 3 0 | 1-2 1-3 0-1', '1 3 0 2 | 1-3 0-1 1-2', '1 3 2 0 | 1-3 1-2 0-1',
    ),
    ("tm", "C3,C6"): (
        '0 1 2 | 0-1 0-5-4-3-2 1-2', '0 1 3 | 0-1 0-5-4-3 1-2-3', '0 1 4 | 0-1 0-5-4 1-2-3-4',
        '0 1 5 | 0-1 0-5 1-2-3-4-5', '0 2 1 | 0-5-4-3-2 0-1 1-2', '0 2 3 | 0-1-2 0-5-4-3 2-3',
        '0 2 4 | 0-1-2 0-5-4 2-3-4', '0 2 5 | 0-1-2 0-5 2-3-4-5', '0 3 1 | 0-5-4-3 0-1 1-2-3',
        '0 3 2 | 0-5-4-3 0-1-2 2-3', '0 3 4 | 0-1-2-3 0-5-4 3-4', '0 3 5 | 0-1-2-3 0-5 3-4-5',
        '0 4 1 | 0-5-4 0-1 1-2-3-4', '0 4 2 | 0-5-4 0-1-2 2-3-4', '0 4 3 | 0-5-4 0-1-2-3 3-4',
        '0 4 5 | 0-1-2-3-4 0-5 4-5', '0 5 1 | 0-5 0-1 1-2-3-4-5', '0 5 2 | 0-5 0-1-2 2-3-4-5',
        '0 5 3 | 0-5 0-1-2-3 3-4-5', '0 5 4 | 0-5 0-1-2-3-4 4-5',
    ),
    ("subdivision", "C3,K4"): (),
    ("subdivision", "C3,K4sub3"): (),
    ("subdivision", "star3,theta"): (),
    ("subdivision", "C3,C6"): (
        '0 1 2 | 0-1 0-5-4-3-2 1-2', '0 1 3 | 0-1 0-5-4-3 1-2-3', '0 1 4 | 0-1 0-5-4 1-2-3-4',
        '0 1 5 | 0-1 0-5 1-2-3-4-5', '0 2 1 | 0-5-4-3-2 0-1 1-2', '0 2 3 | 0-1-2 0-5-4-3 2-3',
        '0 2 4 | 0-1-2 0-5-4 2-3-4', '0 2 5 | 0-1-2 0-5 2-3-4-5', '0 3 1 | 0-5-4-3 0-1 1-2-3',
        '0 3 2 | 0-5-4-3 0-1-2 2-3', '0 3 4 | 0-1-2-3 0-5-4 3-4', '0 3 5 | 0-1-2-3 0-5 3-4-5',
        '0 4 1 | 0-5-4 0-1 1-2-3-4', '0 4 2 | 0-5-4 0-1-2 2-3-4', '0 4 3 | 0-5-4 0-1-2-3 3-4',
        '0 4 5 | 0-1-2-3-4 0-5 4-5', '0 5 1 | 0-5 0-1 1-2-3-4-5', '0 5 2 | 0-5 0-1-2 2-3-4-5',
        '0 5 3 | 0-5 0-1-2-3 3-4-5', '0 5 4 | 0-5 0-1-2-3-4 4-5',
    ),
}


@pytest.mark.parametrize("kind, pair", list(FIRST_20))
def test_iter_tm_order_is_frozen(kind, pair):
    source, target = TM_PAIRS[pair]
    got = []
    for rho in itertools.islice(iter_tm(source, target, kind), 20):
        assert [v for v, _ in rho.rho_v_items] == list(source.vertices)
        assert [e for e, _ in rho.rho_e_items] == sorted(source.edges)
        images = " ".join(str(w) for _, w in rho.rho_v_items)
        paths = " ".join("-".join(map(str, p.vertices)) for _, p in rho.rho_e_items)
        got.append(f"{images} | {paths}")
    assert got == list(FIRST_20[kind, pair])
