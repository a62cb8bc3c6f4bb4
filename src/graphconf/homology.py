"""Integer homology of finite chain complexes, and subgroups of it.

A chain complex is ranks per degree plus each boundary matrix by column,
its one stored form, checked once when the complex is built.  The
(row, col) dicts that ``snf`` reads are built from the columns on demand.
All homology data is exact over Z: ``homology`` deletes cell pairs with
incidence ±1 and takes Smith normal forms of what is left, and
``presentation`` takes them of the whole complex, since it needs chain
coordinates.  When d_1 is a graph's incidence matrix, a breadth-first
spanning forest replaces the SNF of d_1: ``presentation`` in degree 1
reads V and V^-1 of d_1 off it.  That presentation keeps a cocycle
table, the normal coordinates of each 1-cell, and the image of the
cycles on a set of 1-cells is read off the table and one spanning forest
of those cells, with no cycle written out.
Subgroups of a homology group are canonicalized by Hermite normal form
so that equality and containment are plain lattice comparisons.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import add, sub

from .errors import AmbientMismatchError, InvariantError, NotAComplexError
from .snf import SNFResult, hermite_columns, hnf_contains, snf

Sparse = dict[tuple[int, int], int]
# d_k by column: rows[j] and coeffs[j] list column j's nonzero entries
Columns = tuple[list[list[int]], list[list[int]]]


@dataclass(frozen=True)
class IntegerChainComplex:
    """ranks[k] = rank of C_k, and d_k: C_k -> C_{k-1} by column.

    ``_columns[k]`` is d_k as (rows, coeffs): rows[j] and coeffs[j] list
    the nonzero entries of column j.  This is the only stored form, and it
    is checked once, here: one column per k-cell, rows and coefficients of
    equal length, every row in range(rank(k-1)) (so d_0 has no entry), no
    row twice in a column and no zero coefficient."""

    ranks: tuple[int, ...]
    _columns: tuple[Columns, ...]

    def __post_init__(self):
        if len(self._columns) != len(self.ranks):
            raise NotAComplexError("need one boundary per degree (degree 0 is zero)")
        for k, (rows, coeffs) in enumerate(self._columns):
            m, n = self.rank(k - 1), self.ranks[k]
            if len(rows) != n or len(coeffs) != n:
                raise InvariantError(f"d_{k} needs one column per {k}-cell, {n} in all")
            # per degree, with builtins mapped over the columns, as this
            # reads every entry of every complex built
            lengths = list(map(len, rows))
            if lengths != list(map(len, coeffs)):
                raise InvariantError(f"d_{k} needs one coefficient per row")
            entries = list(chain.from_iterable(rows))
            if entries and (min(entries) < 0 or max(entries) >= m):
                raise InvariantError(f"d_{k} has a row outside shape {(m, n)}")
            if lengths != list(map(len, map(set, rows))):
                raise InvariantError(f"a column of d_{k} repeats a row")
            if not all(map(all, coeffs)):
                raise InvariantError(f"d_{k} has a zero coefficient")

    def columns(self, k: int) -> Columns:
        """d_k by column: the stored lists themselves, which callers only
        read.  Empty outside the degrees."""
        if 0 <= k < len(self.ranks):
            return self._columns[k]
        return [], []

    def boundary(self, d: int) -> Sparse:
        """d_d as a {(row, col): value} dict, built column by column on
        each call; nothing caches it."""
        rows, coeffs = self.columns(d)
        return {(i, j): v for j, (col_rows, col_coeffs) in enumerate(zip(rows, coeffs))
                for i, v in zip(col_rows, col_coeffs)}

    @property
    def boundaries(self) -> tuple[Sparse, ...]:
        """``boundary(d)`` for every degree."""
        return tuple(map(self.boundary, range(len(self.ranks))))

    def rank(self, d: int) -> int:
        if 0 <= d < len(self.ranks):
            return self.ranks[d]
        return 0

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def check_boundary_squares_to_zero(self) -> bool:
        """Whether d_{k-1} d_k = 0 for every k, multiplied column by column.
        The shapes were checked when the complex was built."""
        for k in range(2, len(self.ranks)):
            lower_rows, lower_coeffs = self._columns[k - 1]
            for col_rows, col_coeffs in zip(*self._columns[k]):
                acc: dict[int, int] = {}
                for i, v in zip(col_rows, col_coeffs):
                    for r, w in zip(lower_rows[i], lower_coeffs[i]):
                        acc[r] = acc.get(r, 0) + v * w
                if any(acc.values()):
                    return False
        return True

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * r for d, r in enumerate(self.ranks))


@dataclass(frozen=True)
class HomologySummary:
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]  # per degree, divisibility order

    def to_json_obj(self) -> dict:
        return {
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
        }


def homology(c: IntegerChainComplex) -> HomologySummary:
    """Betti numbers and torsion coefficients in every degree.

    Two steps, each exact over Z, and each resting on d^2 = 0, which is
    checked first:

    1. ``_reduce`` quotients out one base vertex per component when d_1
       is a graph's incidence matrix, and adds them back to H_0; then it
       deletes collapses and coreductions with incidence ±1.  Its
       docstring has the proofs that the residual has the homology of c.
    2. One Smith normal form per degree of the residual.  As im d_{k+1}
       lies in the saturated lattice ker d_k, H_k has free rank
       ranks[k] - rank d_k - rank d_{k+1}, and its torsion is the
       invariant factors of d_{k+1} above 1.
    """
    if not c.check_boundary_squares_to_zero():
        raise NotAComplexError("boundary does not square to zero")
    r, base_vertices = _reduce(c)
    top = r.top_degree
    snfs = {d: snf(r.boundary(d), (r.ranks[d - 1], r.ranks[d]))
            for d in range(1, top + 1)}
    betti = []
    torsion = []
    for d in range(top + 1):
        rank_d = snfs[d].rank if d >= 1 else 0
        rank_d1 = snfs[d + 1].rank if d + 1 <= top else 0
        betti.append(r.ranks[d] - rank_d - rank_d1)
        torsion.append(tuple(snfs[d + 1].torsion) if d + 1 <= top else ())
    betti[0] += base_vertices
    return HomologySummary(tuple(betti), tuple(torsion))


def _reduce(c: IntegerChainComplex) -> tuple[IntegerChainComplex, int]:
    """A smaller complex with the homology of c, and the number of base
    vertices to add back to H_0.  The residual is c restricted to the
    cells left live, renumbered in order; each of its columns keeps the
    order of the column of c it comes from.

    Base vertices.  When every nonzero column of d_1 is {+1, -1}, H_0(C)
    is free on the components of that graph, and any 0-cell generates its
    component's summand.  Let B hold one 0-cell per component.  Z^B is a
    subcomplex, and H_0(Z^B) -> H_0(C) is an isomorphism, so the long
    exact sequence of C/Z^B gives H_k(C/Z^B) = H_k(C) for k >= 1 and
    H_0(C/Z^B) = 0; C/Z^B is c with the rows B of d_1 deleted.  Without
    the guard the step is skipped, since H_0 need not be free:
    d_1 = [[3, -2]] has H_0 = 0.

    Unit pairs.  Let tau be a k-cell and sigma a (k-1)-cell of the live
    complex with e = <d tau, sigma> = ±1.  As d d tau = 0, tau and d tau
    span a subcomplex A, and A has zero homology since d maps Z tau onto
    Z d tau.  The coefficient e makes C_{k-1} = Z d tau ⊕ Z^{cells other
    than sigma}, so H(C/A) = H(C), C/A has the other cells as basis, and
    in it sigma = -e * sum over s != sigma of <d tau, s> s.  Hence C/A
    keeps d_{k+1} without row tau, d_{k-1} without column sigma, and maps
    a k-cell rho != tau to
        sum over s != sigma of (<d rho, s> - e <d rho, sigma> <d tau, s>) s.
    The correction term is zero when tau is sigma's only live coface
    (a collapse) or sigma is tau's only live face (a coreduction), and
    then d_k just loses row sigma and column tau.  So each removal is a
    deletion, and the live cells carry a quotient complex of c (so d^2 = 0
    still holds there) with the homology of c.

    Each cell's faces and their coefficients are its column in
    ``c.columns``, visited in the column's order; its cofaces are gathered
    from those.  Live counts of both are kept, and when a count is 1 the
    list is scanned for the live one.  The queue is first in, first out,
    so coreductions spread out from the base vertices breadth first.  That
    leaves far smaller residuals than last in, first out: 3 cells against
    1,621 for unordered D_3 of the theta graph subdivided for n = 3.
    """
    top = c.top_degree
    ranks = c.ranks
    faces, coeffs = zip(*(c.columns(k) for k in range(top + 1)))
    cofaces: list[list] = []
    for k in range(1, top + 1):
        up: list[list[int]] = [[] for _ in range(ranks[k - 1])]
        for j, col in enumerate(faces[k]):
            for i in col:
                up[i].append(j)
        cofaces.append(up)
    cofaces.append([()] * ranks[top])
    nface = [list(map(len, f)) for f in faces]
    ncoface = [list(map(len, u)) for u in cofaces]
    alive = [bytearray(b"\x01") * r for r in ranks]
    queue: deque[tuple[int, int]] = deque()

    def kill(k: int, x: int) -> None:
        alive[k][x] = 0
        if k:
            live, count = alive[k - 1], ncoface[k - 1]
            for s in faces[k][x]:
                if live[s]:
                    count[s] -= 1
                    if count[s] == 1:
                        queue.append((k - 1, s))
        if k < top:
            live, count = alive[k + 1], nface[k + 1]
            for t in cofaces[k][x]:
                if live[t]:
                    count[t] -= 1
                    if count[t] == 1:
                        queue.append((k + 1, t))

    base_vertices = 0
    if top and _is_incidence(coeffs[1]):
        parent = list(range(ranks[0]))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for f in faces[1]:
            if f:
                parent[find(f[0])] = find(f[1])
        for v in range(ranks[0]):
            if parent[v] == v:
                kill(0, v)
                base_vertices += 1
    for k in range(top + 1):
        live, nf, nc = alive[k], nface[k], ncoface[k]
        queue.extend((k, x) for x in range(ranks[k])
                     if live[x] and (nf[x] == 1 or nc[x] == 1))
    while queue:
        k, x = queue.popleft()
        if not alive[k][x]:
            continue
        if ncoface[k][x] == 1:
            live = alive[k + 1]
            for t in cofaces[k][x]:
                if live[t]:
                    break
            if coeffs[k + 1][t][faces[k + 1][t].index(x)] in (1, -1):
                kill(k, x)
                kill(k + 1, t)
                continue
        if nface[k][x] == 1:
            live = alive[k - 1]
            for p, s in enumerate(faces[k][x]):
                if live[s]:
                    break
            if coeffs[k][x][p] in (1, -1):
                kill(k - 1, s)
                kill(k, x)

    index = [{x: new for new, x in enumerate(compress(range(r), live))}
             for r, live in zip(ranks, alive)]
    columns: list[Columns] = []
    for k in range(top + 1):
        rows = index[k - 1] if k else {}
        out_rows, out_coeffs = [], []
        for j in index[k]:
            col_rows, col_coeffs = [], []
            for i, v in zip(faces[k][j], coeffs[k][j]):
                ii = rows.get(i)
                if ii is not None:
                    col_rows.append(ii)
                    col_coeffs.append(v)
            out_rows.append(col_rows)
            out_coeffs.append(col_coeffs)
        columns.append((out_rows, out_coeffs))
    return IntegerChainComplex(tuple(map(len, index)), tuple(columns)), base_vertices


def _is_incidence(coeffs1: list[list[int]]) -> bool:
    """Whether every nonzero column of d_1 is exactly {+1, -1}."""
    return all(not col or sorted(col) == [-1, 1] for col in coeffs1)


@dataclass
class _Forest:
    """A breadth-first spanning forest of the graph whose vertices are the
    0-cells and whose edges are some 1-cells with {+1, -1} columns of d_1."""

    plus: dict[int, int]  # 1-cell -> its +1 end
    up: dict[int, int]  # non-root 0-cell -> the forest cell to its parent, breadth first
    parent: dict[int, int]


def _spanning_forest(d1: Columns, inside) -> _Forest:
    """The breadth-first spanning forest of the 1-cells ``inside``, whose
    columns of d1 must be {+1, -1} or empty.  Each component's root is the
    first of its 0-cells met in ``inside``'s order; a 0-cell on no inside
    1-cell is a root by itself and is in no map."""
    rows, coeffs = d1
    plus: dict[int, int] = {}
    links: dict[int, list[int]] = {}  # 0-cell -> the 1-cells at it
    for j in inside:
        r = rows[j]
        if r:
            plus[j] = r[0] if coeffs[j][0] == 1 else r[1]
            links.setdefault(r[0], []).append(j)
            links.setdefault(r[1], []).append(j)
    up: dict[int, int] = {}
    parent: dict[int, int] = {}
    seen: set[int] = set()
    for root in links:
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for j in links[v]:
                a, w = rows[j]
                if w == v:
                    w = a
                if w not in seen:
                    seen.add(w)
                    up[w], parent[w] = j, v
                    queue.append(w)
    return _Forest(plus, up, parent)


def _forest_kernel(d1: Columns, m: int) -> SNFResult:
    """The kernel SNF of an incidence-matrix d_1 with m rows, read off its
    breadth-first spanning forest with no elimination: rank r is the
    number of forest cells, every invariant factor is 1, and V and V^-1
    are as follows.

    Number the non-root 0-cells 0..r-1 ascending, and the cells outside
    the forest r, r+1, ... ascending.  V^-1 = [A; B]: A is d_1 without
    the root rows, and B has a 1 at (r + k, j) for the k-th cell j outside
    the forest, so a column of V^-1 has at most 3 entries.  Columns
    0..r-1 of V are the signed forest paths p_w from the root to each
    non-root 0-cell w, with d_1 p_w = w - root; columns r, r+1, ... are the
    fundamental cycles of the cells outside the forest (e_j plus the
    signed forest path from j's +1 end to its -1 end), which
    ``HomologyPresentation.image_of_cells`` proves a Z-basis of Z_1.  V
    serves the proof alone and is not stored, so ``kernel_basis`` raises,
    as for any SNF computed without V.

    V^-1 V = I.  A p_w = e_w, as the root's row is deleted, and B p_w = 0,
    as p_w lies on the forest.  A fundamental cycle is a cycle, so A sends
    it to 0, and B to the unit of its own cell, the only cell outside the
    forest in it, with coefficient 1.  So both are integer inverses of each
    other, and V is unimodular.  Ordering the cells forest first, V^-1 is
    block triangular with the identity and A restricted to the forest
    cells on its diagonal, a reduced tree incidence matrix.  d_1 V has
    columns w - root and then zeros, so U d_1 V = diag(1, ..., 1, 0, ...)
    for a unimodular U, as the roots complete the w - root to a basis.

    ker A = Z_1, so ``SNFResult.kernel_coords`` still raises on a chain
    that is not a cycle.  Each column of d_1 is 0 or holds +1 and -1 in
    one component, so d_1 z sums to 0 over each component.  If A z = 0,
    d_1 z is 0 off the roots, and each component has one root, so
    d_1 z = 0."""
    rows, coeffs = d1
    n = len(rows)
    forest = _spanning_forest(d1, range(n))
    tree = set(forest.up.values())
    r = len(forest.up)
    below = {w: k for k, w in enumerate(sorted(forest.up))}
    outside = [j for j in range(n) if j not in tree]
    vinv = {j: {below[i]: v for i, v in zip(rows[j], coeffs[j]) if i in below}
            for j in range(n)}
    for k, j in enumerate(outside, r):
        vinv[j][k] = 1
    return SNFResult(m, n, r, (1,) * r, vinv_cols=vinv)


@dataclass
class HomologyPresentation:
    """H_d(C) presented in normal coordinates.

    ``kernel`` is an SNF of the boundary out of degree d that carries
    V^-1: ``kernel_coords`` writes a cycle in the basis of Z_d given by the
    columns of V past the rank.  At d = 1 on an incidence-matrix d_1 it is
    read off a spanning forest (``_forest_kernel``); otherwise it is an
    elimination.  Either way it carries V^-1 only.
    ``relation_snf`` is the SNF (with U) of the boundaries from degree d+1
    written in kernel coordinates, so U * (kernel coords) is a cycle's class in
    ⊕ Z/diag[j] ⊕ Z^(cycle_rank - rank).

    The ``units`` relations equal to 1 come first (divisibility order),
    and Z/1 = 0, so projecting their coordinates away is an isomorphism.
    Normal coordinates are the remaining ``dim`` ones: coordinate k has
    order ``torsion[k]`` for k < len(torsion) and is free after that.
    In degree 1 on an incidence-matrix d_1, ``cocycle_table`` holds the
    normal coordinates of every 1-cell, and ``image_of_cells`` reads the
    image of a set of 1-cells off it.
    """

    complex: IntegerChainComplex
    degree: int
    kernel: SNFResult
    relation_snf: SNFResult

    @property
    def cycle_rank(self) -> int:
        return self.kernel.n - self.kernel.rank

    @property
    def betti(self) -> int:
        return self.cycle_rank - self.relation_snf.rank

    @property
    def torsion(self) -> list[int]:
        return self.relation_snf.torsion

    @cached_property
    def units(self) -> int:
        """Number of relations equal to 1; their coordinates are 0 in H_d."""
        return self.relation_snf.rank - len(self.torsion)

    @property
    def dim(self) -> int:
        """Number of normal coordinates: torsion ones, then free ones."""
        return self.cycle_rank - self.units

    def cycle_to_normal(self, chain_vec: dict[int, int]) -> dict[int, int]:
        """Normal coordinates of a cycle given in chain coordinates.

        U is stored by column, so only the columns in the support of the
        kernel coordinates are visited; rows of U below ``units`` are
        skipped and the rest are shifted down by ``units``.
        """
        units = self.units
        acc: dict[int, int] = {}
        for j, c in self.kernel.kernel_coords(chain_vec).items():
            for i, u in self.relation_snf.u_cols[j].items():
                if i >= units:
                    acc[i - units] = acc.get(i - units, 0) + u * c
        return {i: s for i, s in sorted(acc.items()) if s}

    @cached_property
    def cocycle_table(self) -> list[tuple[int, ...] | None]:
        """phi(e_j) for each 1-cell j: its ``dim`` normal coordinates, or
        None when they are all 0, so that phi(z) = ``cycle_to_normal(z)``
        on every 1-cycle z.  Built on first use.  Only a degree-1
        presentation on an incidence-matrix d_1, whose kernel
        ``presentation`` reads off ``_forest_kernel``, has one, since
        ``image_of_cells`` needs d_1 to be an incidence matrix.  That is
        checked once, here, for every column, and InvariantError raised
        otherwise; ``image_of_cells`` does not check again.

        Set phi(e_j) = U' (V^-1 e_j)', where x' keeps the rows of x from
        ``kernel.rank`` on and U' keeps those of U from ``units`` on, each
        shifted down to start at 0.  On a cycle z, ``kernel_coords(z)`` is
        (V^-1 z)' and ``cycle_to_normal(z)`` is U' of that; both are linear
        in z, and so is phi, which agrees with them on every e_j.  With
        the forest kernel, (V^-1 e_j)' is 0 on a forest cell and the unit
        at k on the k-th cell outside the forest, so phi(e_j) is 0 or U's
        column k from row ``units`` on."""
        rows, coeffs = self.complex.columns(1)
        if self.degree != 1 or not _is_incidence(coeffs):
            raise InvariantError("a cocycle table needs the H_1 of an incidence-matrix d_1")
        units, dim, rank = self.units, self.dim, self.kernel.rank
        vinv, u_cols = self.kernel.vinv_cols, self.relation_snf.u_cols
        table: list[tuple[int, ...] | None] = []
        for j in range(len(rows)):
            acc = [0] * dim
            for k, w in vinv.get(j, {}).items():
                if k >= rank:
                    for i, u in u_cols[k - rank].items():
                        if i >= units:
                            acc[i - units] += w * u
            table.append(tuple(acc) if any(acc) else None)
        return table

    def image_of_cells(self, inside) -> "Subgroup":
        """The subgroup of H_1 spanned by the 1-cycles on the 1-cells
        ``inside``, read off ``cocycle_table`` with no cycle built.

        Read d_1 as the incidence matrix of a graph on the 0-cells (the
        ``discretized`` module docstring shows each column of D_n(G'')'s
        d_1 has one +1 and one -1), and let F be the breadth-first
        spanning forest of the cells inside.  Each inside cell j outside F
        has the fundamental cycle z_j: e_j plus the signed path in F from
        its +1 end to its -1 end, or e_j alone if its column is empty.
        The z_j are a Z-basis of the cycles on the inside cells: each holds
        its own cell outside F with coefficient 1 and no other, so they are
        independent; and a cycle z minus the sum of z_j times z_j is a
        cycle on F, which is 0, since a nonzero chain on a forest has a
        vertex on exactly one edge of its support, where its boundary is
        not 0.

        Potentials P on the 0-cells, 0 at each root and set down F breadth
        first, give phi(t) = P(+1 end of t) - P(-1 end of t) on each cell t
        of F.  Let psi(e) = phi(e) - P(d_1 e).  Then psi(z) = phi(z) -
        P(d_1 z) = phi(z) on every cycle z, and psi is 0 on F, so
        phi(z_j) = psi(z_j) = psi(e_j).  The image is therefore spanned by
        psi(e_j) over the inside cells j outside F.  Breadth first, a
        parent's potential is set before its children's."""
        table = self.cocycle_table
        d1 = self.complex.columns(1)
        rows = d1[0]
        forest = _spanning_forest(d1, inside)
        plus, parent = forest.plus, forest.parent
        zero = [0] * self.dim
        potential: dict[int, list[int]] = {}
        for w, t in forest.up.items():
            p = potential.get(parent[w], zero)
            phi = table[t]
            if phi is not None:
                p = list(map(add, p, phi) if plus[t] == w else map(sub, p, phi))
            potential[w] = p
        tree = set(forest.up.values())
        gens = set()
        for j in inside:
            if j in tree:
                continue
            psi = table[j]
            if rows[j]:
                a = plus[j]
                pa, pb = potential.get(a, zero), potential.get(sum(rows[j]) - a, zero)
                if pa is not pb:
                    # from a list, so that the tuple is made at its size:
                    # tuple() of an iterator allocates a longer one and
                    # shrinks it, and the interpreter's free list for the
                    # short size then grows by one tuple per call
                    psi = tuple([x - y + z for x, y, z in zip(psi or zero, pa, pb)])
            if psi:
                gens.add(psi)
        return Subgroup.from_generators(
            self, [{k: x for k, x in enumerate(g) if x} for g in gens])


def presentation(c: IntegerChainComplex, d: int) -> HomologyPresentation:
    """Compute the homology presentation of C at degree d.

    The kernel is ``_forest_kernel`` when d = 1 and d_1 is a graph's
    incidence matrix (the gate of ``_reduce``), as it is for D_n(G''), and
    otherwise the SNF of d_d tracking V^-1."""
    if d == 1 and _is_incidence(c.columns(1)[1]):
        kernel = _forest_kernel(c.columns(1), c.rank(0))
    else:
        kernel = snf(c.boundary(d), (c.rank(d - 1), c.rank(d)), track_vinv=True)
    rel_cols: dict[tuple[int, int], int] = {}
    for j, (rows, coeffs) in enumerate(zip(*c.columns(d + 1))):
        if rows:
            for i, v in kernel.kernel_coords(dict(zip(rows, coeffs))).items():
                rel_cols[(i, j)] = v
    z = kernel.n - kernel.rank
    relation_snf = snf(rel_cols, (z, c.rank(d + 1)), track_u=True)
    return HomologyPresentation(c, d, kernel, relation_snf)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of one homology group, canonicalized by HNF.

    The HNF lives in the ambient's ``dim`` normal coordinates and always
    includes the torsion relations torsion[k] * e_k.  This is exact: in
    the coordinates of U, H_d = ⊕ Z/diag[j] ⊕ Z^(cycle_rank - rank), and
    dropping the unit coordinates (Z/1 = 0) is an isomorphism onto
    Z^dim / ⊕ torsion[k] Z.  So subgroups of H_d correspond one to one
    with the lattices in Z^dim that contain the torsion relations, and
    since the HNF of a lattice is unique, two generating sets span the
    same subgroup iff their canonical forms are equal.
    """

    ambient: HomologyPresentation
    hnf: tuple

    @staticmethod
    def from_generators(ambient: HomologyPresentation, gens) -> "Subgroup":
        cols = [dict(g) for g in gens if g]
        cols.extend({k: t} for k, t in enumerate(ambient.torsion))
        return Subgroup(ambient, hermite_columns(cols, ambient.dim))

    @staticmethod
    def zero(ambient: HomologyPresentation) -> "Subgroup":
        """The torsion diagonal, already in canonical form."""
        return Subgroup(ambient, tuple(((k, t),) for k, t in enumerate(ambient.torsion)))

    @staticmethod
    def full(ambient: HomologyPresentation) -> "Subgroup":
        """The identity, already in canonical form."""
        return Subgroup(ambient, tuple(((k, 1),) for k in range(ambient.dim)))

    def join(self, other: "Subgroup") -> "Subgroup":
        self._check_ambient(other)
        cols = [dict(c) for c in self.hnf] + [dict(c) for c in other.hnf]
        return Subgroup(self.ambient, hermite_columns(cols, self.ambient.dim))

    def contains(self, other: "Subgroup") -> bool:
        self._check_ambient(other)
        return all(hnf_contains(self.hnf, dict(c)) for c in other.hnf)

    def is_full(self) -> bool:
        return self == Subgroup.full(self.ambient)

    def free_rank(self) -> int:
        """Rank of the subgroup modulo torsion."""
        return len(self.hnf) - len(self.ambient.torsion)

    def _same_ambient(self, other: "Subgroup") -> bool:
        return self.ambient is other.ambient or (
            self.ambient.cycle_rank == other.ambient.cycle_rank
            and self.ambient.relation_snf.diag == other.ambient.relation_snf.diag
        )

    def _check_ambient(self, other: "Subgroup"):
        if not self._same_ambient(other):
            raise AmbientMismatchError("subgroups live in different ambient groups")

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self._same_ambient(other)
                and self.hnf == other.hnf)

    def __hash__(self):
        return hash((self.ambient.cycle_rank, self.hnf))


def cycle_image_subgroup(
    target_pres: HomologyPresentation, cycle_vectors
) -> Subgroup:
    """Subgroup generated by given cycles (in target chain coordinates)."""
    gens = [target_pres.cycle_to_normal(c) for c in cycle_vectors]
    return Subgroup.from_generators(target_pres, gens)
