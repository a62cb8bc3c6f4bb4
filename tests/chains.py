"""Hand-built chain complexes for the tests."""

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
