import heapq
import importlib
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from graphconf.errors import InvariantError
from graphconf.snf import hermite_columns, hnf_contains, snf

# the package re-exports the function ``snf`` under the module's name
snf_module = importlib.import_module("graphconf.snf")


def dense_to_entries(rows):
    return {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v}


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def rational_rank(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][j]:
                f = m[i][j] / m[rank][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def rational_det(rows):
    """Exact determinant of a square integer matrix by Fraction elimination."""
    m = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for j in range(len(m)):
        piv = next((i for i in range(j, len(m)) if m[i][j]), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            m[j], m[piv] = m[piv], m[j]
            det = -det
        det *= m[j][j]
        for i in range(j + 1, len(m)):
            if m[i][j]:
                f = m[i][j] / m[j][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[j])]
    return det


def test_known_diagonal():
    res = snf(dense_to_entries([[2, 4], [4, 8]]), (2, 2))
    assert res.rank == 1
    assert res.diag == (2,)


def test_known_torsion():
    # boundary of the real projective plane in degree 2
    res = snf({(0, 0): 2}, (1, 1))
    assert res.diag == (2,)
    res = snf(dense_to_entries([[1, 0], [0, 6], [0, 0]]), (3, 2))
    assert res.diag == (1, 6)


def test_divisibility_chain():
    res = snf(dense_to_entries([[2, 0, 0], [0, 3, 0], [0, 0, 5]]), (3, 3))
    assert res.diag == (1, 1, 30)


def test_kernel_basis_annihilates():
    rows = [[1, 2, 3], [2, 4, 6]]
    res = snf(dense_to_entries(rows), (2, 3), track_v=True, track_vinv=True)
    assert res.rank == 1
    for k in res.kernel_basis():
        for r in rows:
            assert sum(r[j] * v for j, v in k.items()) == 0
    # coordinates invert the basis
    basis = res.kernel_basis()
    coords = res.kernel_coords(basis[0])
    assert coords == {0: 1}


matrix_strategy = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    min_size=1,
    max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(matrix_strategy)
def test_snf_properties(rows):
    m, n = len(rows), len(rows[0])
    res = snf(dense_to_entries(rows), (m, n), track_u=True, track_v=True)
    u = [[res.u_cols[j].get(i, 0) for j in range(m)] for i in range(m)]
    v = [[res.v_cols[j].get(i, 0) for j in range(n)] for i in range(n)]
    d = [[0] * n for _ in range(m)]
    for t, val in enumerate(res.diag):
        d[t][t] = val
    # U*M*V == D
    assert matmul(matmul(u, rows), v) == d
    # diagonal, nonnegative, divisibility chain
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # unimodularity via rational rank, and rank agreement with a Q oracle
    assert rational_rank(u) == m
    assert rational_rank(v) == n
    assert len(nonzero) == rational_rank(rows)


def check_all_transforms(rows):
    """U*M*V = D, V*Vinv = I and det(U) = ±1 with all three transforms tracked."""
    m, n = len(rows), len(rows[0])
    res = snf(dense_to_entries(rows), (m, n), track_u=True, track_v=True,
              track_vinv=True)
    u = [[res.u_cols[j].get(i, 0) for j in range(m)] for i in range(m)]
    v = [[res.v_cols[j].get(i, 0) for j in range(n)] for i in range(n)]
    prod = matmul(matmul(u, rows), v)
    diag = res.diag + (0,) * (min(m, n) - res.rank)
    for i in range(m):
        for j in range(n):
            expect = diag[i] if i == j and i < len(diag) else 0
            assert prod[i][j] == expect
    # V * Vinv == I, and U is unimodular over Z
    vinv = [[res.vinv_cols[j].get(i, 0) for j in range(n)] for i in range(n)]
    ident_n = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert matmul(v, vinv) == ident_n
    assert rational_det(u) in (1, -1)
    return res


@settings(max_examples=40, deadline=None)
@given(matrix_strategy)
def test_sparse_snf_transform_consistency(rows):
    check_all_transforms(rows)


# small entries on larger matrices: unit and non-unit pivots mix
mixed_pivot_strategy = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=8
    )
)


@settings(max_examples=80, deadline=None)
@given(mixed_pivot_strategy)
def test_transforms_with_mixed_pivots(rows):
    res = check_all_transforms(rows)
    for a, b in zip(res.diag, res.diag[1:]):
        assert b % a == 0
    assert res.rank == rational_rank(rows)


def test_units_interleaved_with_non_units():
    res = check_all_transforms([[2, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 3, 0, 0],
                                [0, 0, 0, 1, 0], [0, 0, 0, 0, 6]])
    assert res.diag == (1, 1, 1, 6, 6)


def test_repeated_row_with_pivots_out_of_column_order():
    # column 1 is the sparser one and pivots first, on row 2; column 0
    # then pivots on one of its two equal rows and clears the other
    res = check_all_transforms([[1, 0], [1, 0], [0, 1]])
    assert res.rank == 2 and res.diag == (1, 1)


def test_live_column_missing_from_heap_raises(monkeypatch):
    # a heap that loses every push misses column 0: the pivot (0, 1)
    # clears row 0 by a column operation that shrinks column 0 to one entry
    monkeypatch.setattr(snf_module, "heapq", SimpleNamespace(
        heapify=heapq.heapify, heappop=heapq.heappop, heappush=lambda heap, item: None))
    with pytest.raises(InvariantError, match="left out of the pivot heap"):
        snf(dense_to_entries([[1, 1], [1, 0]]), (2, 2))


@settings(max_examples=40, deadline=None)
@given(mixed_pivot_strategy, st.data())
def test_kernel_coords_round_trip(rows, data):
    m, n = len(rows), len(rows[0])
    res = snf(dense_to_entries(rows), (m, n), track_v=True, track_vinv=True)
    basis = res.kernel_basis()
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(basis),
                                max_size=len(basis)))
    vec: dict[int, int] = {}
    for c, k in zip(coeffs, basis):
        for i, v in k.items():
            vec[i] = vec.get(i, 0) + c * v
    vec = {i: v for i, v in vec.items() if v}
    assert res.kernel_coords(vec) == {j: c for j, c in enumerate(coeffs) if c}


def test_kernel_coords_rejects_non_kernel_vector():
    rows = [[1, 2, 3], [2, 4, 6]]
    res = snf(dense_to_entries(rows), (2, 3), track_v=True, track_vinv=True)
    with pytest.raises(InvariantError, match="not in the kernel"):
        res.kernel_coords({0: 1})
    # a kernel vector plus a non-kernel one is still rejected
    with pytest.raises(InvariantError, match="not in the kernel"):
        res.kernel_coords({0: 2, 1: -1, 2: 1})


def test_internal_misuse_raises_invariant_error():
    with pytest.raises(InvariantError, match="outside shape"):
        snf({(2, 0): 1}, (2, 2))
    res = snf({(0, 0): 1}, (1, 2))
    with pytest.raises(InvariantError, match="without V tracking"):
        res.kernel_basis()
    with pytest.raises(InvariantError, match="without Vinv tracking"):
        res.kernel_coords({1: 1})


def test_rational_det_oracle():
    assert rational_det([[2, 1], [1, 1]]) == 1
    assert rational_det([[0, 1], [1, 0]]) == -1
    assert rational_det([[2, 0], [0, 1]]) == 2
    assert rational_det([[1, 2], [2, 4]]) == 0


def test_hermite_columns_membership():
    cols = [{0: 2, 1: 0}, {0: 0, 1: 3}]
    h = hermite_columns(cols, 2)
    assert hnf_contains(h, {0: 2, 1: 3})
    assert hnf_contains(h, {0: -4})
    assert not hnf_contains(h, {0: 1})
    assert not hnf_contains(h, {1: 1})


def test_hermite_columns_canonical():
    a = hermite_columns([{0: 1, 1: 2}, {1: 5}], 2)
    b = hermite_columns([{1: 5}, {0: 1, 1: 2}, {0: 2, 1: 9}], 2)
    assert a == b
