import pytest

from graphconf.discretized import build_discretized
from graphconf.errors import AmbientMismatchError, NotAComplexError, NotChainMapError
from graphconf.homology import (
    ChainMap,
    IntegerChainComplex,
    Subgroup,
    cycle_image_subgroup,
    homology,
    image_subgroup,
    induced_on_homology,
    presentation,
    span_and_test,
)
from graphconf.graphs import family


def circle_complex():
    # two vertices, two parallel arcs forming a circle
    return IntegerChainComplex(
        (2, 2),
        ({}, {(0, 0): -1, (1, 0): 1, (0, 1): -1, (1, 1): 1}),
    )


def projective_plane_complex():
    # one cell in each degree; degree-2 attaching map has degree 2
    return IntegerChainComplex((1, 1, 1), ({}, {}, {(0, 0): 2}))


def test_homology_circle():
    h = homology(circle_complex())
    assert h.betti == (1, 1)
    assert h.torsion == ((), ())


def test_homology_projective_plane():
    h = homology(projective_plane_complex())
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())


def test_euler_characteristic():
    c = circle_complex()
    assert c.euler_characteristic() == 0
    assert projective_plane_complex().euler_characteristic() == 1


def test_boundary_squares_validation():
    bad = IntegerChainComplex((1, 1, 1), ({}, {(0, 0): 1}, {(0, 0): 1}))
    assert not bad.check_boundary_squares_to_zero()
    assert circle_complex().check_boundary_squares_to_zero()
    with pytest.raises(NotAComplexError):
        IntegerChainComplex((1, 1), ({},))


def test_presentation_torsion_coordinates():
    pres = presentation(projective_plane_complex(), 1)
    assert pres.betti == 0
    assert pres.torsion == [2]
    # the 1-cell is a cycle of order 2
    normal = pres.cycle_to_normal({0: 1})
    assert pres.order_of_coordinate(next(iter(normal))) == 2
    # twice the cycle is a boundary
    sub = Subgroup.from_generators(pres, [{k: 2 * v for k, v in normal.items()}])
    assert sub == Subgroup.zero(pres)
    assert Subgroup.from_generators(pres, [normal]).is_full()


def test_cycle_to_normal_rejects_non_cycle():
    pres = presentation(circle_complex(), 0)
    # degree-0 chains are all cycles; try degree 1 with a non-cycle
    pres1 = presentation(
        IntegerChainComplex((2, 1), ({}, {(0, 0): -1, (1, 0): 1})), 1
    )
    with pytest.raises(ValueError):
        pres1.cycle_to_normal({0: 1})


def test_cycle_to_normal_matches_row_scan():
    # reference: U times the kernel coordinates, one row of U at a time
    cx = build_discretized(family("complete", 5), 2, ordered=False)
    pres = presentation(cx.chain, 1)
    u_cols = pres.relation_snf.u_cols
    basis = pres.kernel.kernel_basis()
    supports = set()
    for b, c in zip(basis, basis[1:]):
        chain = {i: b.get(i, 0) - 2 * c.get(i, 0) for i in set(b) | set(c)}
        kc = pres.kernel.kernel_coords(chain)
        expect = [(i, s) for i in range(pres.cycle_rank)
                  if (s := sum(u_cols[j].get(i, 0) * x for j, x in kc.items()))]
        assert list(pres.cycle_to_normal(chain).items()) == expect
        supports.add(len(expect))
    assert max(supports) > 1


def test_chain_map_identity_and_induced():
    c = circle_complex()
    ident = ChainMap(c, c, ({(0, 0): 1, (1, 1): 1}, {(0, 0): 1, (1, 1): 1}))
    assert ident.check_commutes()
    pres = presentation(c, 1)
    mat = induced_on_homology(ident, 1, pres, pres)
    assert mat == {(0, 0): 1}
    assert image_subgroup(ident, 1, pres, pres).is_full()


def test_chain_map_commutation_enforced():
    c = circle_complex()
    bad = ChainMap(c, c, ({(0, 0): 1}, {(0, 0): 1, (1, 1): 1}))
    with pytest.raises(NotChainMapError):
        induced_on_homology(bad, 1)


def test_subgroup_lattice_ops():
    pres = presentation(circle_complex(), 0)
    full = Subgroup.full(pres)
    zero = Subgroup.zero(pres)
    assert full.contains(zero)
    assert not zero.contains(full)
    assert zero.join(full) == full
    assert full.free_rank() == pres.betti == 1
    span, is_full = span_and_test([zero, full], pres)
    assert is_full and span == full


def test_subgroup_ambient_mismatch():
    a = presentation(circle_complex(), 0)
    b = presentation(projective_plane_complex(), 1)
    with pytest.raises(AmbientMismatchError):
        Subgroup.full(a).contains(Subgroup.zero(b))


def test_subgroup_equality_needs_same_ambient():
    # Z^2 and Z^3 in degree 1: both zero subgroups have an empty HNF
    z2 = presentation(IntegerChainComplex((1, 2, 0), ({}, {}, {})), 1)
    z3 = presentation(IntegerChainComplex((1, 3, 0), ({}, {}, {})), 1)
    assert Subgroup.zero(z2) != Subgroup.zero(z3)
    z2_again = presentation(IntegerChainComplex((1, 2, 0), ({}, {}, {})), 1)
    assert Subgroup.zero(z2) == Subgroup.zero(z2_again)
    assert hash(Subgroup.zero(z2)) == hash(Subgroup.zero(z2_again))
    assert len({Subgroup.zero(z2), Subgroup.zero(z3)}) == 2


def test_cycle_image_subgroup():
    c = circle_complex()
    pres = presentation(c, 1)
    # the fundamental cycle: arc0 - arc1
    sub = cycle_image_subgroup(pres, [{0: 1, 1: -1}])
    assert sub.is_full()
    doubled = cycle_image_subgroup(pres, [{0: 2, 1: -2}])
    assert sub.contains(doubled) and not doubled.contains(sub)
