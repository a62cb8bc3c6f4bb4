import importlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from chains import components, cycles_of_forest, forest_cycles, from_entries, sparse_matmul
from graphconf.acceptance import _atlas_graphs
from graphconf.discretized import build_discretized
from graphconf.errors import AmbientMismatchError, InvariantError, NotAComplexError
from graphconf.generation import build_ambient
from graphconf.homology import (
    HomologyPresentation,
    HomologySummary,
    IntegerChainComplex,
    Subgroup,
    _forest_kernel,
    _is_incidence,
    _reduce,
    _spanning_forest,
    cycle_image_subgroup,
    homology,
    presentation,
)
from graphconf.graphs import family, subdivide_uniform, subdivision_pieces, theta_graph
from graphconf.snf import hermite_columns, hnf_contains, snf


def circle_complex():
    # two vertices, two parallel arcs forming a circle
    return from_entries(
        (2, 2),
        ({}, {(0, 0): -1, (1, 0): 1, (0, 1): -1, (1, 1): 1}),
    )


def projective_plane_complex():
    # one cell in each degree; degree-2 attaching map has degree 2
    return from_entries((1, 1, 1), ({}, {}, {(0, 0): 2}))


def test_homology_circle():
    h = homology(circle_complex())
    assert h.betti == (1, 1)
    assert h.torsion == ((), ())


def test_homology_projective_plane():
    h = homology(projective_plane_complex())
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())


def homology_by_full_snf(c):
    """Oracle for ``homology``: one full SNF per degree, no reduction."""
    top = c.top_degree
    snfs = {d: snf(c.boundaries[d], (c.ranks[d - 1], c.ranks[d]))
            for d in range(1, top + 1)}
    rank = {d: snfs[d].rank for d in snfs}
    betti = tuple(c.ranks[d] - rank.get(d, 0) - rank.get(d + 1, 0)
                  for d in range(top + 1))
    torsion = tuple(tuple(snfs[d + 1].torsion) if d + 1 <= top else ()
                    for d in range(top + 1))
    return HomologySummary(betti, torsion)


@pytest.fixture(scope="module")
def full_snf_corpus():
    corpus = []
    for g in _atlas_graphs(4):
        if not g.edges:
            continue
        for n in (1, 2):
            sub = subdivide_uniform(g, subdivision_pieces(n, 0))
            for ordered in (True, False):
                corpus.append(build_discretized(sub, n, ordered).chain)
    for g in (family("complete", 5), family("complete_bipartite", 3, 3)):
        for n in (2, 3):
            sub = subdivide_uniform(g, subdivision_pieces(n, 0))
            corpus.append(build_discretized(sub, n, ordered=False).chain)
    corpus.append(projective_plane_complex())
    corpus.extend(disconnected_ordered_complexes())
    return corpus


def disconnected_ordered_complexes():
    """Ordered D_2(K_2): two points that cannot swap; ordered D_3 of C_3
    cut into 6 edges: two cyclic orders, each a circle."""
    return [build_discretized(family("complete", 2), 2, ordered=True).chain,
            build_discretized(subdivide_uniform(family("cycle", 3), 2), 3,
                              ordered=True).chain]


def test_disconnected_ordered_complexes():
    k2, c3 = (homology(c) for c in disconnected_ordered_complexes())
    assert k2.betti == (2, 0, 0)
    assert c3.betti == (2, 2, 0, 0)


def test_homology_matches_oracle_without_clearing(full_snf_corpus):
    torsion_seen = 0
    for c in full_snf_corpus:
        h = homology(c)
        assert h == homology_by_full_snf(c)
        torsion_seen += any(h.torsion)
    assert torsion_seen >= 3


def test_non_incidence_d1_skips_the_base_vertex_step():
    # d1 = [[3, -2]] is no incidence matrix, so _reduce counts no base
    # vertex: H_0 = Z/(3, -2) = 0, not Z
    c = from_entries((1, 2, 1), ({}, {(0, 0): 3, (0, 1): -2},
                                 {(0, 0): 2, (1, 0): 3}))
    h = homology(c)
    assert h == homology_by_full_snf(c)
    assert h.betti == (0, 0, 0) and h.torsion == ((), (), ())


def test_forest_cycles_need_an_incidence_matrix():
    # 1-cells 0, 1, 2 on the 0-cells 0, 1, 2: a triangle
    rows = [[0, 1], [1, 2], [0, 2]]
    assert len(forest_cycles((rows, [[1, -1], [-1, 1], [-1, 1]]), [0, 1, 2])) == 1
    for doctored in ([2, -1], [1, 1], [-1, -1]):
        with pytest.raises(InvariantError):
            forest_cycles((rows, [[1, -1], doctored, [-1, 1]]), [0, 1, 2])
    with pytest.raises(InvariantError):
        forest_cycles(([[0, 1], [1]], [[1, -1], [1]]), [0, 1])
    # a column with no entry is a cycle by itself
    assert forest_cycles(([[0, 1], []], [[1, -1], []]), [0, 1]) == [{1: 1}]


def test_residual_is_a_complex_with_the_same_homology(full_snf_corpus):
    cells = residual_cells = 0
    for c in full_snf_corpus:
        r, base_vertices = _reduce(c)
        assert r.check_boundary_squares_to_zero()
        if c != projective_plane_complex():
            # a discretized complex keeps no 0-cell: one per component is
            # a base vertex, and coreductions pair off the others
            assert r.ranks[0] == 0
        assert r.euler_characteristic() + base_vertices == c.euler_characteristic()
        h, hr = homology_by_full_snf(c), homology_by_full_snf(r)
        assert (hr.betti[0] + base_vertices, *hr.betti[1:]) == h.betti
        assert hr.torsion == h.torsion
        cells += sum(c.ranks)
        residual_cells += sum(r.ranks)
    assert residual_cells < cells // 10


def no_columns(n):
    return [[] for _ in range(n)], [[] for _ in range(n)]


# d_k by column, each complex with one broken degree, the only one with
# entries or with too many columns: a row, or a column, outside the ranks
OUTSIDE_THE_RANKS = [
    ((1, 1), (no_columns(1), ([[1]], [[1]]))),
    ((1, 1), (no_columns(1), ([[0], []], [[1], []]))),
    ((2, 1), (no_columns(2), ([[-1, 1]], [[1, -1]]))),
    ((1, 1, 1), (no_columns(1), no_columns(1), ([[], [], [], [0]], [[], [], [], [2]]))),
    ((2, 1), (no_columns(2), ([[1, 5]], [[2, 1]]))),
    ((1, 1), (([[0]], [[5]]), no_columns(1))),  # d_0 is the zero map into C_{-1} = 0
]


@pytest.mark.parametrize("ranks,boundaries", OUTSIDE_THE_RANKS)
def test_entry_outside_the_ranks_raises_invariant_error(ranks, boundaries):
    with pytest.raises(InvariantError, match="outside shape|one column per"):
        IntegerChainComplex(ranks, boundaries)


# the checks that the dict form made by its structure: a column per cell,
# a coefficient per row, each row once and no zero
MALFORMED_COLUMNS = [
    ((1, 2), (no_columns(1), ([[0]], [[1]])), "one column per"),
    ((1, 1), (no_columns(1), ([[0]], [[1], [1]])), "one column per"),
    ((2, 1), (no_columns(2), ([[0, 1]], [[1]])), "one coefficient per row"),
    ((2, 1), (no_columns(2), ([[0, 0]], [[1, -1]])), "repeats a row"),
    ((2, 1), (no_columns(2), ([[0, 1]], [[1, 0]])), "zero coefficient"),
]


@pytest.mark.parametrize("ranks,columns,match", MALFORMED_COLUMNS)
def test_malformed_columns_raise_invariant_error_at_construction(ranks, columns, match):
    with pytest.raises(InvariantError, match=match):
        IntegerChainComplex(ranks, columns)


def invariant_factors(orders):
    """Invariant factors of the sum of Z/m over the orders, in divisibility
    order: the i-th largest takes the i-th largest power of each prime."""
    powers: dict[int, list[int]] = {}
    for m in orders:
        p = 2
        while m > 1:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                powers.setdefault(p, []).append(p ** e)
            p += 1
    length = max(map(len, powers.values()), default=0)
    factors = [1] * length
    for qs in powers.values():
        for i, q in enumerate(sorted(qs)):
            factors[length - len(qs) + i] *= q
    return tuple(factors)


def test_invariant_factors():
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([2, 4, 6, 1]) == (2, 2, 12)
    assert invariant_factors([]) == ()


@st.composite
def known_complexes(draw):
    """A complex with known homology and the Betti numbers and torsion it
    has: lone cells and blocks Z -> Z (times m) summed, then hidden by a
    random unimodular change of basis in every degree."""
    top = draw(st.integers(1, 3))
    lone = draw(st.lists(st.integers(0, 2), min_size=top + 1, max_size=top + 1))
    blocks = draw(st.lists(st.tuples(st.integers(1, top), st.integers(1, 6)), max_size=6))
    rng = draw(st.randoms(use_true_random=False))
    ranks = list(lone)
    d = [[[0] * ranks[k] for _ in range(ranks[k - 1])] if k else [] for k in range(top + 1)]
    for k, m in blocks:
        # a new (k-1)-cell a and k-cell b with d b = m a
        for row in d[k]:
            row.append(0)
        d[k].append([0] * ranks[k] + [m])
        if k + 1 <= top:
            d[k + 1].append([0] * ranks[k + 1])
        if k - 1 >= 1:
            for row in d[k - 1]:
                row.append(0)
        ranks[k - 1] += 1
        ranks[k] += 1
    for k in range(top + 1):
        for _ in range(rng.randint(0, 3 * ranks[k])):
            a, b = rng.randrange(ranks[k]), rng.randrange(ranks[k])
            if a != b:
                t = rng.choice([-2, -1, 1, 2])
                # basis change E = I + t e_ab of C_k: row a of d_{k+1} gains
                # t * row b, column b of d_k loses t * column a
                if k + 1 <= top:
                    d[k + 1][a] = [x + t * y for x, y in zip(d[k + 1][a], d[k + 1][b])]
                if k >= 1:
                    for row in d[k]:
                        row[b] -= t * row[a]
            elif rng.random() < 0.5:
                # the sign of cell a
                if k + 1 <= top:
                    d[k + 1][a] = [-x for x in d[k + 1][a]]
                if k >= 1:
                    for row in d[k]:
                        row[a] = -row[a]
    boundaries = [{}] + [{(i, j): v for i, row in enumerate(d[k]) for j, v in enumerate(row)
                          if v} for k in range(1, top + 1)]
    c = from_entries(ranks, boundaries)
    torsion = [invariant_factors(m for kk, m in blocks if kk - 1 == k) for k in range(top + 1)]
    return c, HomologySummary(tuple(lone), tuple(torsion))


@settings(max_examples=150, deadline=None)
@given(known_complexes())
def test_homology_of_known_complexes(known):
    c, expect = known
    assert c.check_boundary_squares_to_zero()
    assert homology(c) == expect == homology_by_full_snf(c)


def test_euler_characteristic():
    c = circle_complex()
    assert c.euler_characteristic() == 0
    assert projective_plane_complex().euler_characteristic() == 1


@st.composite
def small_complexes(draw):
    """Ranks up to 3 in degrees 0..3 and entries in -1..1, sparse enough
    that d_{k-1} d_k is zero, or cancels in some rows only, often."""
    ranks = tuple(draw(st.integers(0, 3)) for _ in range(4))
    entry = st.sampled_from([0, 0, 0, 1, -1])
    boundaries = [{}] + [
        {(i, j): draw(entry) for i in range(ranks[k - 1]) for j in range(ranks[k])}
        for k in range(1, 4)]
    return from_entries(ranks, boundaries)


@settings(max_examples=300, deadline=None)
@given(small_complexes())
def test_boundary_check_matches_sparse_matmul(c):
    expect = not any(sparse_matmul(c.boundaries[k - 1], c.boundaries[k]) for k in range(2, 4))
    assert c.check_boundary_squares_to_zero() == expect


def test_boundary_squares_validation():
    bad = from_entries((1, 1, 1), ({}, {(0, 0): 1}, {(0, 0): 1}))
    assert not bad.check_boundary_squares_to_zero()
    assert circle_complex().check_boundary_squares_to_zero()
    with pytest.raises(NotAComplexError):
        from_entries((1, 1), ({},))


def test_presentation_torsion_coordinates():
    pres = presentation(projective_plane_complex(), 1)
    assert pres.betti == 0
    assert pres.torsion == [2]
    # the 1-cell is a cycle of order 2, in the one (torsion) coordinate
    assert pres.units == 0 and pres.dim == 1
    normal = pres.cycle_to_normal({0: 1})
    assert set(normal) == {0} and pres.torsion[0] == 2
    # twice the cycle is a boundary
    sub = Subgroup.from_generators(pres, [{k: 2 * v for k, v in normal.items()}])
    assert sub == Subgroup.zero(pres)
    assert Subgroup.from_generators(pres, [normal]).is_full()


def test_cycle_to_normal_rejects_non_cycle():
    pres = presentation(circle_complex(), 0)
    # degree-0 chains are all cycles; try degree 1 with a non-cycle
    pres1 = presentation(
        from_entries((2, 1), ({}, {(0, 0): -1, (1, 0): 1})), 1
    )
    with pytest.raises(InvariantError):
        pres1.cycle_to_normal({0: 1})


def fundamental_cycles(c):
    """The fundamental cycles of the spanning forest of d_1 that
    ``_forest_kernel`` reads, one per cell outside the forest, ascending:
    the columns of V past the rank."""
    forest = _spanning_forest(c.columns(1), range(c.rank(1)))
    tree = set(forest.up.values())
    return cycles_of_forest(c.columns(1), forest,
                            [j for j in range(c.rank(1)) if j not in tree])


def kernel_basis(pres):
    """The basis of the cycles Z_d that ``kernel_coords`` refer to: the
    fundamental cycles for the forest kernel of an incidence-matrix d_1,
    else from an SNF of d_d that also tracks V.  Pivot choice does not
    read the tracking flags, so that SNF's V^-1 is the one the
    presentation keeps."""
    c, d = pres.complex, pres.degree
    if d == 1 and _is_incidence(c.columns(1)[1]):
        return fundamental_cycles(c)
    res = snf(c.boundary(d), (c.rank(d - 1), c.rank(d)), track_v=True, track_vinv=True)
    assert res.vinv_cols == pres.kernel.vinv_cols
    return res.kernel_basis()


def test_cycle_to_normal_matches_row_scan():
    # reference: the normal columns times the kernel coordinates, one
    # normal coordinate at a time
    cx = build_discretized(family("complete", 5), 2, ordered=False)
    pres = presentation(cx.chain, 1)
    assert pres.units > 0
    normals = pres.normals
    basis = kernel_basis(pres)
    supports = set()
    for b, c in zip(basis, basis[1:]):
        chain = {i: b.get(i, 0) - 2 * c.get(i, 0) for i in set(b) | set(c)}
        kc = pres.kernel.kernel_coords(chain)
        expect = [(i, s) for i in range(pres.dim)
                  if (s := sum(normals[j].get(i, 0) * x for j, x in kc.items()))]
        assert list(pres.cycle_to_normal(chain).items()) == expect
        supports.add(len(expect))
    assert max(supports) > 1


def test_subgroup_lattice_ops():
    pres = presentation(circle_complex(), 0)
    full = Subgroup.full(pres)
    zero = Subgroup.zero(pres)
    assert full.contains(zero)
    assert not zero.contains(full)
    assert zero.join(full) == full
    assert full.free_rank() == pres.betti == 1
    assert full.is_full() and not zero.is_full()


def test_subgroup_ambient_mismatch():
    a = presentation(circle_complex(), 0)
    b = presentation(projective_plane_complex(), 1)
    with pytest.raises(AmbientMismatchError):
        Subgroup.full(a).contains(Subgroup.zero(b))


def test_subgroup_equality_needs_same_ambient():
    # Z^2 and Z^3 in degree 1: both zero subgroups have an empty HNF
    z2 = presentation(from_entries((1, 2, 0), ({}, {}, {})), 1)
    z3 = presentation(from_entries((1, 3, 0), ({}, {}, {})), 1)
    assert Subgroup.zero(z2) != Subgroup.zero(z3)
    z2_again = presentation(from_entries((1, 2, 0), ({}, {}, {})), 1)
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


# -- subgroups against the full-coordinate lattice ------------------------------


def full_coordinate_hnf(pres, full, cycles):
    """Reference canonical form over all cycle_rank coordinates: U of
    ``full``, the SNF of all the relations of pres, applied to the kernel
    coordinates, with every relation diag[j] * e_j."""
    cols = []
    for cycle in cycles:
        acc = {}
        for j, x in pres.kernel.kernel_coords(cycle).items():
            for i, u in full.u_cols[j].items():
                acc[i] = acc.get(i, 0) + u * x
        cols.append({i: v for i, v in acc.items() if v})
    cols += [{j: d} for j, d in enumerate(full.diag)]
    return hermite_columns(cols, pres.cycle_rank)


def random_cycle_sets(pres, rng):
    """Cycle sets in chain coordinates: sparse random combinations of the
    kernel basis, boundaries, and full-generating sets."""
    basis = kernel_basis(pres)

    def combo(coeffs):
        out = {}
        for k, x in coeffs:
            for i, v in basis[k].items():
                out[i] = out.get(i, 0) + x * v
        return {i: v for i, v in out.items() if v}

    boundaries = {}
    for (i, j), v in pres.complex.boundary(pres.degree + 1).items():
        boundaries.setdefault(j, {})[i] = v
    sets = [[], basis, [combo([(k, 2)]) for k in range(len(basis))],
            basis + [combo([(0, 3)])], list(boundaries.values())[:6]]
    for size in (1, 1, 2, 2, 3, 4, 6, 8):
        sets.append([combo([(rng.randrange(len(basis)), rng.choice([-3, -2, -1, 1, 2, 3]))
                            for _ in range(rng.randint(1, 3))])
                     for _ in range(size)])
    return sets


def _ambient(name):
    if name == "projective_plane":
        return presentation(projective_plane_complex(), 1)
    g = {"theta": theta_graph(), "K4": family("complete", 4),
         "K33": family("complete_bipartite", 3, 3)}[name]
    return build_ambient(g, 1, 2, ordered=False).pres


@pytest.mark.parametrize("name", ["theta", "K4", "K33", "projective_plane"])
def test_subgroup_matches_full_coordinate_lattice(name):
    pres = _ambient(name)
    sets = random_cycle_sets(pres, random.Random(name))
    full = relation_snf(pres.complex, pres.degree, pres.kernel)
    assert pres.relation_rank == full.rank
    subs = [cycle_image_subgroup(pres, s) for s in sets]
    refs = [full_coordinate_hnf(pres, full, s) for s in sets]
    ref_full = full_coordinate_hnf(pres, full, kernel_basis(pres))
    for sub, ref in zip(subs, refs):
        assert sub.free_rank() == len(ref) - pres.relation_rank
        assert sub.is_full() == (ref == ref_full)
    assert subs[1].is_full() and subs[0] == subs[4] == Subgroup.zero(pres)
    for (a, ra), (b, rb) in itertools.product(zip(subs, refs), repeat=2):
        assert a.contains(b) == all(hnf_contains(ra, dict(col)) for col in rb)
        assert (a == b) == (ra == rb)
        joined = hermite_columns([dict(col) for col in ra + rb], pres.cycle_rank)
        assert a.join(b).free_rank() == len(joined) - pres.relation_rank
        assert a.join(b).is_full() == (joined == ref_full)
    if name in ("K33", "projective_plane"):
        assert pres.torsion == [2]


# -- the degree-1 kernel read off a spanning forest -------------------------------


@st.composite
def incidence_complexes(draw):
    """d_1 of a random multigraph: parallel 1-cells, empty columns,
    isolated 0-cells and several components, each column {+1, -1} in
    random order, as the only degree above 0."""
    m = draw(st.integers(0, 8))
    n = draw(st.integers(0, 12))
    rows, coeffs = [], []
    for _ in range(n):
        if m < 2 or draw(st.integers(0, 5)) == 0:
            rows.append([])
            coeffs.append([])
            continue
        a, b = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        rows.append([a, b])
        coeffs.append(draw(st.sampled_from([[1, -1], [-1, 1]])))
    return IntegerChainComplex((m, n), (([[]] * m, [[]] * m), (rows, coeffs)))


def _mul(a, b, size):
    """Product of two n x n matrices stored as {column: {row: value}}."""
    out = {}
    for j in range(size):
        acc = {}
        for k, x in b.get(j, {}).items():
            for i, y in a.get(k, {}).items():
                acc[i] = acc.get(i, 0) + x * y
        out[j] = {i: v for i, v in acc.items() if v}
    return out


def _boundary_of(c, chain):
    rows, coeffs = c.columns(1)
    acc = {}
    for j, x in chain.items():
        for i, v in zip(rows[j], coeffs[j]):
            acc[i] = acc.get(i, 0) + x * v
    return {i: v for i, v in acc.items() if v}


@settings(max_examples=300, deadline=None)
@given(incidence_complexes(), st.randoms(use_true_random=False))
def test_forest_kernel_is_an_snf_of_the_incidence_matrix(c, rng):
    m, n = c.ranks
    kernel = presentation(c, 1).kernel
    # V is not stored: its columns are the signed forest paths from the root
    # to each non-root 0-cell, ascending, then the fundamental cycles
    assert kernel.v_cols is None
    with pytest.raises(InvariantError):
        kernel.kernel_basis()
    forest = _spanning_forest(c.columns(1), range(n))
    paths = {}
    for w, t in forest.up.items():  # breadth first, so a parent's path is known
        paths[w] = {**paths.get(forest.parent[w], {}), t: 1 if forest.plus[t] == w else -1}
    basis = fundamental_cycles(c)
    v = {k: paths[w] for k, w in enumerate(sorted(paths))} | dict(enumerate(basis, len(paths)))
    identity = {j: {j: 1} for j in range(n)}
    assert _mul(v, kernel.vinv_cols, n) == identity
    assert _mul(kernel.vinv_cols, v, n) == identity
    ends = [r for r in c.columns(1)[0] if r]
    vertices = list(range(m))
    assert kernel.rank == m - components(ends, vertices)
    assert kernel.diag == (1,) * kernel.rank
    assert all(len(col) <= 3 for col in kernel.vinv_cols.values())
    assert len(basis) == n - kernel.rank
    assert not any(_boundary_of(c, z) for z in basis)
    for _ in range(5):
        coords = {k: rng.choice([-2, -1, 1, 3]) for k in range(len(basis))
                  if rng.random() < 0.5}
        chain = {}
        for k, x in coords.items():
            for j, v in basis[k].items():
                chain[j] = chain.get(j, 0) + x * v
        assert kernel.kernel_coords({j: v for j, v in chain.items() if v}) == coords
    # the forest cells are those whose V^-1 column has no unit past the rank
    forest = [j for j, col in kernel.vinv_cols.items() if max(col, default=0) < kernel.rank]
    assert len(forest) == kernel.rank
    non_cycles = [{t: 1} for t in forest]
    for _ in range(5):
        chain = {j: rng.choice([-1, 1, 2]) for j in range(n) if rng.random() < 0.4}
        if _boundary_of(c, chain):
            non_cycles.append(chain)
    for chain in non_cycles:
        with pytest.raises(InvariantError):
            kernel.kernel_coords(chain)


def test_degree_1_presentation_runs_one_snf(monkeypatch):
    # only the relations go through snf; d_1 of D_n(G'') is an incidence matrix
    # (the package's ``homology`` is the function, so fetch the module)
    homology_module = importlib.import_module("graphconf.homology")
    calls, shapes = [], []

    def counting(entries, shape, **track):
        calls.append(track)
        shapes.append(shape)
        return snf(entries, shape, **track)

    monkeypatch.setattr(homology_module, "snf", counting)
    cx = build_discretized(subdivide_uniform(family("complete", 4), 3), 2, ordered=False)
    presentation(cx.chain, 1)
    assert calls == [{"track_u": True}]
    # of the 133 cycle coordinates and 129 relations, unit pairs leave the
    # 4 free coordinates and no relation for that SNF
    assert shapes == [(4, 0)]
    # a d_1 that is no incidence matrix, and degree 2, keep the tracked SNF
    calls.clear()
    presentation(from_entries((1, 2, 1), ({}, {(0, 0): 3, (0, 1): -2},
                                          {(0, 0): 2, (1, 0): 3})), 1)
    presentation(cx.chain, 2)
    assert calls == [{"track_vinv": True}, {"track_u": True}] * 2


def test_cocycle_table_needs_a_forest_kernel():
    # d_1 = [2] is no incidence matrix, so the kernel comes from an SNF
    c = from_entries((1, 1), ({}, {(0, 0): 2}))
    pres = presentation(c, 1)
    assert pres.kernel.diag == (2,)  # a forest kernel has every factor 1
    with pytest.raises(InvariantError):
        pres.cocycle_table
    # nor is there a table outside degree 1
    with pytest.raises(InvariantError):
        presentation(circle_complex(), 0).cocycle_table


@settings(max_examples=300, deadline=None)
@given(incidence_complexes(), st.randoms(use_true_random=False))
def test_image_of_cells_matches_the_forest_cycles(c, rng):
    # parallel cells, empty columns and several components; H_1 is free
    pres = presentation(c, 1)
    for _ in range(3):
        inside = [j for j in range(c.rank(1)) if rng.random() < 0.6]
        cycles = forest_cycles(c.columns(1), inside)
        assert pres.image_of_cells(inside) == cycle_image_subgroup(pres, cycles)


def relation_snf(c, d, kernel):
    """The SNF with U of every relation of H_d(c): the boundary of each
    (d+1)-cell in the coordinates of ``kernel``, one column per cell."""
    rel = {}
    for j, (rows, coeffs) in enumerate(zip(*c.columns(d + 1))):
        if rows:
            for i, v in kernel.kernel_coords(dict(zip(rows, coeffs))).items():
                rel[(i, j)] = v
    return snf(rel, (kernel.n - kernel.rank, c.rank(d + 1)), track_u=True)


def snf_presentation(c, d):
    """The presentation with the kernel from an SNF of d_d tracking V^-1,
    for every degree, and the normal columns read off U of one SNF of all
    the relations, from the row past the unit relations on: the oracle
    for the forest kernel and for the deletion of unit pairs."""
    kernel = snf(c.boundary(d), (c.rank(d - 1), c.rank(d)), track_vinv=True)
    full = relation_snf(c, d, kernel)
    units = full.rank - len(full.torsion)
    normals = [{i - units: u for i, u in full.u_cols[j].items() if i >= units}
               for j in range(kernel.n - kernel.rank)]
    return HomologyPresentation(c, d, kernel, full.rank, full.torsion, normals)


def assert_same_subgroups(fast, slow, sets):
    """The cycle sets, in chain coordinates, span subgroups of the same
    free rank and fullness in both presentations, with the same
    containments and equalities.  The HNF tuples of two presentations are
    in different bases and are not compared."""
    fast_subs = [cycle_image_subgroup(fast, s) for s in sets]
    slow_subs = [cycle_image_subgroup(slow, s) for s in sets]
    for a, b in zip(fast_subs, slow_subs):
        assert (a.free_rank(), a.is_full()) == (b.free_rank(), b.is_full())
    for (a, b), (x, y) in itertools.product(zip(fast_subs, slow_subs), repeat=2):
        assert a.contains(x) == b.contains(y)
        assert (a == x) == (b == y)


FOREST_ORACLE_CASES = [
    ("theta", theta_graph(), False),
    ("K4", family("complete", 4), False),
    ("K33", family("complete_bipartite", 3, 3), False),
    ("K4-ordered", family("complete", 4), True),
]


@pytest.mark.parametrize("name,g,ordered", FOREST_ORACLE_CASES,
                         ids=[case[0] for case in FOREST_ORACLE_CASES])
def test_forest_presentation_matches_the_snf_presentation(name, g, ordered):
    ctx = build_ambient(g, 1, 2, ordered=ordered)
    fast, slow = ctx.pres, snf_presentation(ctx.complex.chain, 1)
    assert fast.kernel == _forest_kernel(ctx.complex.chain.columns(1), ctx.complex.chain.rank(0))
    for attr in ("cycle_rank", "betti", "torsion", "units", "dim"):
        assert getattr(fast, attr) == getattr(slow, attr), attr
    assert_same_subgroups(fast, slow, random_cycle_sets(fast, random.Random(name)))


# -- relations presented by deleting unit pairs -----------------------------------


@st.composite
def with_relations(draw, c):
    """c, an incidence_complexes() draw, with a degree 2 whose columns are
    random integer combinations of its fundamental cycles: single cycles,
    which are unit relations, and sums with coefficients up to 3, which
    are often not."""
    basis = fundamental_cycles(c)
    rows, coeffs = [], []
    for _ in range(draw(st.integers(0, 6)) if basis else 0):
        picks = draw(st.lists(st.tuples(st.integers(0, len(basis) - 1),
                                         st.sampled_from([-3, -2, -1, 1, 2, 3])),
                              min_size=1, max_size=3))
        col = {}
        for k, x in picks:
            for j, v in basis[k].items():
                col[j] = col.get(j, 0) + x * v
        col = {j: v for j, v in sorted(col.items()) if v}
        rows.append(list(col))
        coeffs.append(list(col.values()))
    return IntegerChainComplex((*c.ranks, len(rows)), (*map(c.columns, range(2)), (rows, coeffs)))


@st.composite
def presentation_cases(draw):
    """A complex and a degree d: known_complexes(), with torsion and
    non-unit entries, at d in 0..2 up to its top; incidence_complexes() at
    d = 0 or 1; or one of those with a degree 2 from ``with_relations`` at
    d = 1, where the relations meet the forest kernel."""
    source = draw(st.sampled_from(["known", "incidence", "relations"]))
    if source == "relations":
        return draw(incidence_complexes().flatmap(with_relations)), 1
    c = draw(known_complexes())[0] if source == "known" else draw(incidence_complexes())
    return c, draw(st.integers(0, min(2, c.top_degree)))


@settings(max_examples=300, deadline=None)
@given(presentation_cases(), st.randoms(use_true_random=False))
def test_unit_pair_presentation_matches_the_full_snf(case, rng):
    c, d = case
    fast, slow = presentation(c, d), snf_presentation(c, d)
    for attr in ("cycle_rank", "betti", "torsion", "units", "dim"):
        assert getattr(fast, attr) == getattr(slow, attr), attr
    # each relation is 0 in H_d: its normal coordinates are 0 modulo the torsion
    torsion = fast.torsion
    for rows, coeffs in zip(*c.columns(d + 1)):
        normal = fast.cycle_to_normal(dict(zip(rows, coeffs)))
        assert all(k < len(torsion) and x % torsion[k] == 0 for k, x in normal.items())
    if fast.cycle_rank:
        assert cycle_image_subgroup(fast, kernel_basis(fast)).is_full()
        assert_same_subgroups(fast, slow, random_cycle_sets(fast, rng))


def test_incidence_relations_keep_every_component():
    # at d = 0 the relations are the columns of d_1, all {+1, -1}; a base
    # vertex per component taken out of them would leave H_0 = 0
    c = from_entries((5, 4), ({}, {(0, 0): -1, (1, 0): 1, (1, 1): -1, (2, 1): 1,
                                   (0, 2): 1, (2, 2): -1, (3, 3): -1, (4, 3): 1}))
    fast, slow = presentation(c, 0), snf_presentation(c, 0)
    assert (fast.betti, fast.torsion, fast.units, fast.dim) == (2, [], 3, 2)
    assert (slow.betti, slow.torsion, slow.units, slow.dim) == (2, [], 3, 2)
    points = [[{v: 1}] for v in range(5)]
    assert_same_subgroups(fast, slow, points + [[{0: 1}, {3: 1}], [{2: 1, 4: -1}]])
    first, second = (cycle_image_subgroup(fast, p) for p in ([{0: 1}], [{4: 1}]))
    assert first.free_rank() == second.free_rank() == 1
    assert first != second and first.join(second).is_full()
