import itertools

import pytest

from graphconf.errors import BadParamsError, InvalidMorphismError
from graphconf.graphs import Path, family, make_graph, subdivide_uniform
from graphconf.morphisms import (
    TopMinorMorphism,
    enumerate_tm,
    gtm_k_member,
    has_topological_minor,
    inclusion_morphism,
    is_homeomorphic,
    is_isomorphic,
    is_subdivision,
    iter_tm,
    smooth,
    validate_tm,
)


def test_identity_validates():
    for g in [family("cycle", 3), family("complete", 4), family("star", 3)]:
        ok, violations = validate_tm(inclusion_morphism(g, g))
        assert ok, violations
        assert is_subdivision(inclusion_morphism(g, g))


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
    assert is_subdivision(rho)
    assert rho.image_subgraph() == c9
    assert sorted(p.edge_count for p in rho.rho_e.values()) == [3, 3, 3]


def test_enumeration_counts():
    c3 = family("cycle", 3)
    k1, k2 = family("complete", 1), family("complete", 2)
    assert len(enumerate_tm(c3, c3, kind="simplicial")) == 6
    assert len(enumerate_tm(k1, k2, limit=100)) == 2
    c6 = family("cycle", 6)
    subs = [m for m in iter_tm(c3, c6) if is_subdivision(m)]
    assert len(subs) == 120
    # no morphism from a cycle into a tree
    assert not enumerate_tm(c3, family("star", 5), limit=1)


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
    assert not has_topological_minor(family("complete", 4), theta())


def theta():
    from graphconf.graphs import theta_graph

    return theta_graph()


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
