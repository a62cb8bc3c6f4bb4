"""Helpers shared by the tests: hand-built chain complexes, a sparse matrix
product and a component count."""

from graphconf.homology import IntegerChainComplex


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
