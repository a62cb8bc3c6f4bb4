"""Helpers shared by the tests: hand-built chain complexes, a sparse matrix
product, a component count and the fundamental cycles of a spanning
forest."""

from graphconf.errors import InvariantError
from graphconf.homology import IntegerChainComplex, _is_incidence, _spanning_forest


def from_entries(ranks, boundaries):
    """An IntegerChainComplex from one {(row, col): value} dict per degree.

    Zero values are dropped, and within each column the entries keep the
    dict's order."""
    columns = []
    for k, bd in enumerate(boundaries):
        rows = [[] for _ in range(ranks[k])]
        coeffs = [[] for _ in range(ranks[k])]
        for (i, j), v in bd.items():
            if v:
                rows[j].append(i)
                coeffs[j].append(v)
        columns.append((rows, coeffs))
    return IntegerChainComplex(tuple(ranks), tuple(columns))


def sparse_matmul(a, b):
    """Product of sparse matrices given as {(i, j): v} dicts, without zeros."""
    brows = {}
    for (i, j), v in b.items():
        brows.setdefault(i, {})[j] = v
    out = {}
    for (i, k), v in a.items():
        for j, w in brows.get(k, {}).items():
            out[(i, j)] = out.get((i, j), 0) + v * w
    return {key: v for key, v in out.items() if v}


def components(ends, vertices):
    """Number of connected components of the graph with these edges."""
    root = {v: v for v in vertices}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    merged = 0
    for a, b in ends:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[ra] = rb
            merged += 1
    return len(vertices) - merged


def cycles_of_forest(d1, forest, cells):
    """The fundamental cycle of each 1-cell j in ``cells``, all outside the
    forest, with j first: e_j plus the signed forest path from its +1 end
    to its -1 end, or e_j alone if its column of d1 is empty."""
    rows = d1[0]
    up, parent, plus = forest.up, forest.parent, forest.plus
    depth = {}
    for w in up:  # breadth first, so a parent's depth is known
        depth[w] = depth.get(parent[w], 0) + 1
    out = []
    for j in cells:
        cycle = {j: 1}
        out.append(cycle)
        if not rows[j]:
            continue
        # e_j has boundary a - b.  Walk a and b up to where they meet.  A
        # step x -> p along forest cell t adds p - x on a's side, which is
        # +e_t when p is t's +1 end, and x - p on b's, +e_t when x is
        a = plus[j]
        b = sum(rows[j]) - a
        while a != b:
            if depth.get(a, 0) >= depth.get(b, 0):
                t, a = up[a], parent[a]
                cycle[t] = 1 if plus[t] == a else -1
            else:
                t = up[b]
                cycle[t] = 1 if plus[t] == b else -1
                b = parent[b]
    return out


def forest_cycles(d1, inside):
    """A Z-basis of the 1-cycles on the 1-cells ``inside``, where d1 is d_1
    by column: the fundamental cycles of the package's breadth-first
    spanning forest, cells with an empty column first.  Raises
    InvariantError unless each column is {+1, -1} or empty.  It writes out
    every cycle that ``HomologyPresentation.image_of_cells`` does not, and
    is its oracle."""
    rows, coeffs = d1
    if not _is_incidence([coeffs[j] for j in inside]):
        raise InvariantError("d_1 is not the incidence matrix of a graph")
    forest = _spanning_forest(d1, inside)
    tree = set(forest.up.values())
    return cycles_of_forest(d1, forest, [j for j in inside if not rows[j]]
                            + [j for j in forest.plus if j not in tree])
