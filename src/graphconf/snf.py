"""Exact integer Smith and Hermite normal forms.

Everything here is exact big-integer arithmetic; no modular shortcuts.
The elimination engine is sparse (dict-of-dicts) and prefers unit pivots
with low fill, which keeps the cubical boundary matrices produced
elsewhere in the package tractable at desk scale.

Elimination works in place: rows and columns keep their indices, and
the k-th pivot is the pair (row, column) where its entry ended up.  It
leaves one nonzero entry per pivot row and column.  Normalization then
keeps one invariant: every pivot equal to 1 comes before every other
pivot.  A unit divides everything, so the divisibility chain only has to
be repaired on the non-unit tail, which is short for the boundary
matrices met here.  Every change to M is a tracked row or column
operation, so U, V and V^-1 stay consistent with it; ``snf`` numbers the
pivot rows and columns first at the end, which puts the diagonal on
(k, k).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import InvariantError


def _divnear(a: int, b: int) -> int:
    """Quotient q minimizing |a - q*b|."""
    q = a // b
    r = a - q * b
    if 2 * abs(r) > abs(b):
        q += 1 if (r > 0) == (b > 0) else -1
    return q


@dataclass
class SNFResult:
    m: int
    n: int
    rank: int
    diag: tuple[int, ...]  # positive invariant factors, divisibility order
    u_cols: dict | None = None  # U such that U*M*V = D, columns as dicts
    v_cols: dict | None = None  # V, columns as dicts
    vinv_cols: dict | None = None  # V^-1, columns as dicts

    @property
    def torsion(self) -> list[int]:
        return [d for d in self.diag if d > 1]

    def kernel_basis(self) -> list[dict[int, int]]:
        """Columns of V past the rank: a basis of ker(M) over Z (saturated)."""
        if self.v_cols is None:
            raise InvariantError("SNF was computed without V tracking")
        return [dict(self.v_cols[j]) for j in range(self.rank, self.n)]

    def kernel_coords(self, vec: dict[int, int]) -> dict[int, int]:
        """Coordinates of a kernel vector in the kernel_basis (0-indexed).

        V^-1 is stored by column, so only the columns in the support of
        ``vec`` are visited.
        """
        if self.vinv_cols is None:
            raise InvariantError("SNF was computed without Vinv tracking")
        acc: dict[int, int] = {}
        for j, c in vec.items():
            for i, w in self.vinv_cols.get(j, {}).items():
                acc[i] = acc.get(i, 0) + w * c
        out: dict[int, int] = {}
        for i, s in sorted(acc.items()):
            if s:
                if i < self.rank:
                    raise InvariantError("vector is not in the kernel")
                out[i - self.rank] = s
        return out


def snf(entries, shape, *, track_u=False, track_v=False, track_vinv=False) -> SNFResult:
    """Smith normal form of a sparse integer matrix.

    ``entries`` is a mapping (i, j) -> value (zeros ignored); ``shape`` is
    (m, n).  Transform tracking is opt-in since it dominates the cost on
    large inputs.  U and V^-1 are tracked by row during elimination and
    returned by column, the form ``cycle_to_normal`` and ``kernel_coords``
    read.  The transforms are renumbered once at the end, pivot rows
    (columns) first in pivot order and then the rest ascending, so the
    k-th invariant factor sits at (k, k).
    """
    m, n = shape
    eng = _Engine(m, n, entries, track_u, track_v, track_vinv)
    eng.run()
    row_pos = _positions([r for r, _ in eng.pivots], m)
    col_pos = _positions([c for _, c in eng.pivots], n)
    return SNFResult(
        m, n, eng.rank, tuple(eng.diag),
        _transpose_draining(eng.u, row_pos) if track_u else None,
        {col_pos[j]: col for j, col in eng.vcols.items()} if track_v else None,
        _transpose_draining(eng.vinv, col_pos) if track_vinv else None,
    )


def _positions(pivots: list[int], size: int) -> dict[int, int]:
    """Index -> position: the pivots first in order, then the rest ascending."""
    first = set(pivots)
    order = pivots + [i for i in range(size) if i not in first]
    return {i: k for k, i in enumerate(order)}


def _transpose_draining(rows: dict[int, dict[int, int]],
                        pos: dict[int, int]) -> dict[int, dict[int, int]]:
    """Transpose a dict-of-dicts matrix, row i becoming entries at index
    ``pos[i]``, emptying the input as it goes so that the two forms never
    both exist in full."""
    cols: dict[int, dict[int, int]] = {}
    while rows:
        i, row = rows.popitem()
        p = pos[i]
        for j, v in row.items():
            cols.setdefault(j, {})[p] = v
    return cols


class _Engine:
    """Sparse elimination in place.  Rows and columns keep their indices;
    the k-th pivot is the pair ``pivots[k] = (row, col)``, and ``snf``
    renumbers the transforms once at the end."""

    def __init__(self, m, n, entries, tu, tv, tvi):
        self.m, self.n = m, n
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}
        for key, v in entries.items():
            if not v:
                continue
            i, j = key
            if not (0 <= i < m and 0 <= j < n):
                raise InvariantError(f"entry {key} outside shape {(m, n)}")
            self.rows.setdefault(i, {})[j] = v
            self.cols.setdefault(j, set()).add(i)
        self.tu, self.tv, self.tvi = tu, tv, tvi
        self.u = {i: {i: 1} for i in range(m)} if tu else None
        self.vcols = {j: {j: 1} for j in range(n)} if tv else None
        self.vinv = {j: {j: 1} for j in range(n)} if tvi else None
        self.pivots: list[tuple[int, int]] = []
        self.rank = 0
        self.diag: list[int] = []
        self.touched: set[int] = set()  # columns whose support changed

    # -- elementary operations (applied to M and companions) ---------------

    def _row_axpy(self, i, t, q):
        # row_i -= q * row_t
        ri = self.rows.setdefault(i, {})
        for j, v in list(self.rows.get(t, {}).items()):
            self.touched.add(j)
            nv = ri.get(j, 0) - q * v
            if nv:
                ri[j] = nv
                self.cols.setdefault(j, set()).add(i)
            elif j in ri:
                del ri[j]
                self.cols[j].discard(i)
        if self.tu:
            ui = self.u[i]
            for j, v in self.u[t].items():
                nv = ui.get(j, 0) - q * v
                if nv:
                    ui[j] = nv
                elif j in ui:
                    del ui[j]

    def _col_axpy(self, j, t, q):
        # col_j -= q * col_t
        self.touched.add(j)
        for i in list(self.cols.get(t, set())):
            v = self.rows[i].get(t)
            if not v:
                continue
            ri = self.rows[i]
            nv = ri.get(j, 0) - q * v
            if nv:
                ri[j] = nv
                self.cols.setdefault(j, set()).add(i)
            elif j in ri:
                del ri[j]
                self.cols[j].discard(i)
        if self.tv:
            cj = self.vcols[j]
            for r, v in self.vcols[t].items():
                nv = cj.get(r, 0) - q * v
                if nv:
                    cj[r] = nv
                elif r in cj:
                    del cj[r]
        if self.tvi:
            # Vinv <- E^-1 * Vinv where E adds -q*col_t to col_j: row_t += q*row_j
            rt = self.vinv[t]
            for c, v in self.vinv[j].items():
                nv = rt.get(c, 0) + q * v
                if nv:
                    rt[c] = nv
                elif c in rt:
                    del rt[c]

    def _row_negate(self, i):
        for j in list(self.rows.get(i, {})):
            self.rows[i][j] = -self.rows[i][j]
        if self.tu:
            for j in list(self.u[i]):
                self.u[i][j] = -self.u[i][j]

    # -- main loop ----------------------------------------------------------

    def run(self):
        heap = [(len(s), j) for j, s in self.cols.items() if s]
        heapq.heapify(heap)
        done: set[int] = set()  # pivot columns
        while True:
            piv = self._select_pivot(heap, done)
            if piv is None:
                break
            self.touched.clear()
            r, c = self._clear_at(*piv)
            self.pivots.append((r, c))
            done.add(c)
            # only columns whose support changed re-enter the heap
            for j in self.touched:
                if j not in done and self.cols.get(j):
                    heapq.heappush(heap, (len(self.cols[j]), j))
        if any(live and j not in done for j, live in self.cols.items()):
            raise InvariantError("a live column was left out of the pivot heap")
        self.rank = len(self.pivots)
        self._normalize()

    def _select_pivot(self, heap, done):
        while heap:
            nnz, j = heapq.heappop(heap)
            if j in done:
                continue
            # finished pivot rows are cleared off their own column, so
            # every support entry of a live column is in a non-pivot row
            live = self.cols.get(j, set())
            if not live:
                continue
            if len(live) != nnz:
                heapq.heappush(heap, (len(live), j))
                continue
            best = min(
                live,
                key=lambda i: (abs(self.rows[i][j]) != 1, abs(self.rows[i][j]),
                               len(self.rows[i]), i),
            )
            return best, j
        return None

    def _clear_at(self, r, c):
        """Clear row r and column c around the pivot (r, c); return the
        final pivot pair, which a Euclid step may move to another row or
        column of the block."""
        # if the pivot leaves column c, c must re-enter the heap
        self.touched.add(c)
        while True:
            pivot = self.rows[r][c]
            # clear column c with row operations
            for i in [i for i in self.cols.get(c, set()) if i != r]:
                v = self.rows[i].get(c)
                if not v:
                    continue
                q = _divnear(v, pivot)
                if q:
                    self._row_axpy(i, r, q)
            rem = [i for i in self.cols.get(c, set()) if i != r and self.rows[i].get(c)]
            if rem:
                r = min(rem, key=lambda i: (abs(self.rows[i][c]), i))
                continue
            # clear row r with column operations
            pivot = self.rows[r][c]
            for j in [j for j in self.rows[r] if j != c]:
                v = self.rows[r].get(j)
                if not v:
                    continue
                q = _divnear(v, pivot)
                if q:
                    self._col_axpy(j, c, q)
            rem = [j for j in self.rows[r] if j != c and self.rows[r].get(j)]
            if rem:
                c = min(rem, key=lambda j: (abs(self.rows[r][j]), j))
                continue
            return r, c

    def _normalize(self):
        rows, pivots = self.rows, self.pivots
        # positive diagonal
        for r, c in pivots:
            if rows[r][c] < 0:
                self._row_negate(r)
        # units first: a unit pivot divides every other one, so after this
        # sort only the non-unit tail [units, rank) can break the chain
        pivots.sort(key=lambda p: rows[p[0]][p[1]] != 1)
        units = sum(rows[r][c] == 1 for r, c in pivots)
        # divisibility chain on the tail via pairwise 2x2 gcd/lcm fixes
        for s in range(units, self.rank):
            for t in range(s + 1, self.rank):
                (rs, cs), (rt, ct) = pivots[s], pivots[t]
                if rows[rt][ct] % rows[rs][cs]:
                    self._col_axpy(cs, ct, -1)  # copies pivot t's entry to (rt, cs)
                    r, c = pivots[s] = self._clear_at(rs, cs)
                    # the lcm sits at the block's other row and column
                    pivots[t] = ({rs, rt} - {r}).pop(), ({cs, ct} - {c}).pop()
                    for r, c in pivots[s], pivots[t]:
                        if rows[r][c] < 0:
                            self._row_negate(r)
        self.diag = [rows[r][c] for r, c in pivots]


# -- Hermite normal form (column style) --------------------------------------


def hermite_columns(columns: list[dict[int, int]], dim: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Unique column-style HNF of the lattice spanned by the given columns.

    Each column is a sparse {row: value} dict over rows 0..dim-1.  Returns
    the pivot columns in pivot-row order, each as a tuple of (row, value)
    pairs; pivots are positive and earlier columns are reduced modulo
    later pivots, so equal lattices give equal outputs.
    """
    work = [col for col in ({r: v for r, v in c.items() if v} for c in columns) if col]
    pivots: list[tuple[int, dict[int, int]]] = []
    for r in range(dim):
        live = [c for c in work if c.get(r)]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[r]))
            base = live[0]
            for c in live[1:]:
                q = c[r] // base[r]
                if q:
                    _col_sub(c, base, q)
            live = [c for c in live if c.get(r)]
        piv = live[0]
        work.remove(piv)
        for c in work:
            if c.get(r):
                q = c[r] // piv[r]
                _col_sub(c, piv, q)
                if c.get(r):  # remainder nonzero means piv[r] didn't divide
                    raise InvariantError("HNF reduction invariant broken")
        if piv[r] < 0:
            for k in list(piv):
                piv[k] = -piv[k]
        pivots.append((r, piv))
    # reduce earlier pivot columns modulo later ones for uniqueness
    for k in range(len(pivots)):
        rk, ck = pivots[k]
        for j in range(k):
            _, cj = pivots[j]
            v = cj.get(rk, 0)
            q = v // ck[rk]
            if q:
                _col_sub(cj, ck, q)
    return tuple(tuple(sorted(c.items())) for _, c in pivots)


def _col_sub(c: dict[int, int], base: dict[int, int], q: int):
    for k, v in base.items():
        nv = c.get(k, 0) - q * v
        if nv:
            c[k] = nv
        elif k in c:
            del c[k]


def hnf_contains(hnf: tuple, vec: dict[int, int]) -> bool:
    """Membership of a vector in the lattice described by hermite_columns."""
    v = dict(vec)
    cols = [dict(c) for c in hnf]
    for col in cols:
        r = min(col)  # pivot row is the smallest row index by construction
        if not v:
            return True
        x = v.get(r, 0)
        if x:
            piv = col[r]
            if x % piv:
                return False
            _col_sub(v, col, x // piv)
    return not v
