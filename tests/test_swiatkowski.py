import itertools
import math
from collections import Counter

import pytest

from graphconf import cographs
from graphconf.errors import BadParamsError
from graphconf.graphs import SimpleGraph, complement, disjoint_union, family, norm_edge
from graphconf.swiatkowski import (
    SELF,
    enumerate_cells,
    support_vertices,
    verify_support_bound,
)
from tm_oracle import inclusion_morphism


def validated_key(graph, n, i, weights, states):
    """Oracle: the key (weights, states) of a cell of A_{i,n}(graph), after
    checking that it is one; a malformed cell raises BadParamsError.
    weights are ((a, b), w) with w > 0, states are (v, SELF) or
    (v, ("half", a, b)) with (a, b) an edge at v; empty states are omitted."""
    es = graph.edge_set
    mass = 0
    halves = 0
    for e, w in weights:
        if e not in es or w <= 0:
            raise BadParamsError(f"bad edge weight {e}: {w}")
        mass += w
    seen = set()
    for v, state in states:
        if v in seen or v not in graph.adjacency:
            raise BadParamsError(f"bad state vertex {v}")
        seen.add(v)
        if state == SELF:
            mass += 1
        elif isinstance(state, tuple) and len(state) == 3 and state[0] == "half":
            if state[1:] not in es or v not in state[1:]:
                raise BadParamsError(f"half-edge {state} not incident on {v}")
            mass += 1
            halves += 1
        else:
            raise BadParamsError(f"unknown state {state!r}")
    if mass != n:
        raise BadParamsError(f"total mass {mass} != n = {n}")
    if halves != i:
        raise BadParamsError(f"{halves} half-edges but i = {i}")
    return (weights, states)


def edge_mass(key):
    return sum(w for _, w in key[0])


def test_cell_counts_from_construction():
    assert len(enumerate_cells(family("complete", 1), 0, 1)) == 1
    assert len(enumerate_cells(family("complete", 2), 1, 1)) == 2
    cells = enumerate_cells(family("complete", 2), 0, 2)
    assert len(cells) == 4
    keys = set(cells)
    assert ((((0, 1), 2),), ()) in keys  # all mass on the edge
    assert ((), ((0, SELF), (1, SELF))) in keys


def test_cell_invariants():
    g = family("complete_bipartite", 2, 2)
    for i in range(3):
        for key in enumerate_cells(g, i, 2):
            states = key[1]
            halves = sum(1 for _, s in states if s != SELF)
            selves = sum(1 for _, s in states if s == SELF)
            assert halves == i
            assert edge_mass(key) + selves + halves == 2
            assert edge_mass(key) <= 2 - i


def test_cell_validation():
    k2 = family("complete", 2)
    with pytest.raises(BadParamsError):
        validated_key(k2, 1, 0, (((0, 1), 2),), ())  # mass 2 != 1
    with pytest.raises(BadParamsError):
        validated_key(k2, 1, 0, (), ((0, ("half", 0, 1)),))  # i mismatch
    with pytest.raises(BadParamsError):
        validated_key(k2, 1, 1, (), ((0, ("half", 1, 2)),))  # not incident
    # a half-edge state is exactly ("half", a, b) with (a, b) a normalized edge
    for state in [("half", 0), ("half", 0, 1, 5), ("half", 1, 0)]:
        with pytest.raises(BadParamsError):
            validated_key(k2, 1, 1, (), ((0, state),))


def brute_force_keys(g, i, n):
    """Every weight vector and every vertex-state map, kept when the mass is
    n and exactly i states are half-edges; keys in sorted order."""
    edges = list(g.edges)
    weight_vectors = [ws for ws in itertools.product(range(n + 1), repeat=len(edges))
                      if sum(ws) <= n]
    options = [[None, SELF] + [("half",) + norm_edge(v, w) for w in g.adjacency[v]]
               for v in g.vertices]
    keys = []
    for chosen in itertools.product(*options):
        states = tuple((v, st) for v, st in zip(g.vertices, chosen) if st is not None)
        if sum(st != SELF for _, st in states) != i:
            continue
        for ws in weight_vectors:
            if sum(ws) + len(states) == n:
                weights = tuple(sorted((e, w) for e, w in zip(edges, ws) if w > 0))
                keys.append((weights, tuple(sorted(states))))
    return sorted(keys)


@pytest.mark.parametrize("name", ["K4", "C4", "S3", "K23"])
def test_enumeration_matches_brute_force(name):
    g = ORACLE_GRAPHS[name]
    for n in (1, 2, 3):
        for i in range(n + 1):
            assert enumerate_cells(g, i, n) == brute_force_keys(g, i, n)


def test_tree_top_cells_count_half_edge_choices():
    # with every particle on a half-edge, cells = ways to pick n vertices
    # and one incident edge each
    for tree in [family("path", 4), family("star", 3)]:
        for n in (1, 2):
            expected = sum(
                math.prod(tree.degree(v) for v in vs)
                for vs in itertools.combinations(tree.vertices, n)
            )
            assert len(enumerate_cells(tree, n, n)) == expected


def test_support_examples():
    k2 = family("complete", 2)
    heavy = validated_key(k2, 2, 0, (((0, 1), 2),), ())
    assert support_vertices(heavy) == {0, 1}
    k3 = family("complete", 3)
    single = validated_key(k3, 1, 0, (), ((0, SELF),))
    assert support_vertices(single) == {0}
    c4 = family("cycle", 4)
    mixed = validated_key(c4, 2, 1, (), ((0, ("half", 0, 1)), (2, SELF)))
    assert support_vertices(mixed) == {0, 1, 2}


def test_support_bound_reports():
    rep = verify_support_bound(family("complete", 2), 0, 2)
    assert rep.ok and rep.cell_count == 4 and rep.max_support == 2
    rep = verify_support_bound(family("complete", 1), 0, 1)
    assert rep.ok and rep.max_support == 1
    rep = verify_support_bound(family("complete_bipartite", 2, 3), 1, 2)
    assert rep.ok and rep.max_support <= 4


def push_cell(key, n, i, emb):
    """Test-local push of one cell key of A_{i,n}(emb.source) along emb,
    validated as a cell of emb.target."""
    r = emb.rho_v
    weights, states = key
    weights = tuple(sorted((norm_edge(r[a], r[b]), w) for (a, b), w in weights))
    states = tuple(sorted(
        (r[v], st if st == SELF else ("half",) + norm_edge(r[st[1]], r[st[2]]))
        for v, st in states
    ))
    return validated_key(emb.target, n, i, weights, states)


def per_cell_support_bound(g, i, n):
    """Oracle: the per-cell loop, building G_λ, its inclusion, the restricted
    cell, its push and the cograph verdict anew for every cell; returns
    (cell_count, max_support, violations)."""
    g_is_cograph = cographs.is_cograph(g)
    violations = []
    max_support = 0
    keys = enumerate_cells(g, i, n)
    for key in keys:
        weights, states = key
        verts = {v for v, s in states if s == SELF}
        verts.update(x for _, s in states if s != SELF for x in s[1:])
        verts.update(x for e, _ in weights for x in e)
        supp = g.induced(sorted(verts))
        size = len(supp.vertices)
        max_support = max(max_support, size)
        if size > n + i + edge_mass(key) or n + i + edge_mass(key) > 2 * n:
            violations.append(("size", key, size))
            continue
        restricted = validated_key(supp, n, i, weights, states)
        if push_cell(restricted, n, i, inclusion_morphism(supp, g)) != key:
            violations.append(("image", key, size))
        if g_is_cograph and not cographs.is_cograph(supp):
            violations.append(("cograph", key, size))
    return len(keys), max_support, tuple(violations)


ORACLE_GRAPHS = {
    "K4": family("complete", 4),
    "K23": family("complete_bipartite", 2, 3),
    "C4": family("cycle", 4),
    "S3": family("star", 3),
}


_EDGE = family("path", 2)
# the graphs of the benchmark's `cells` workload
CELLS_GRAPHS = {
    "K5": family("complete", 5),
    "K33": family("complete_bipartite", 3, 3),
    "K222": complement(disjoint_union(disjoint_union(_EDGE, _EDGE), _EDGE)),
    "K6": family("complete", 6),
    "K24": family("complete_bipartite", 2, 4),
}
ALL_GRAPHS = {**ORACLE_GRAPHS, **CELLS_GRAPHS}


@pytest.mark.parametrize("name", sorted(ALL_GRAPHS))
def test_grouped_support_bound_matches_per_cell_oracle(name):
    g = ALL_GRAPHS[name]
    # the per-cell oracle is slow on the two largest graphs at n = 3
    for n in range(1, 3 if name in ("K222", "K6") else 4):
        for i in range(n + 1):
            rep = verify_support_bound(g, i, n)
            assert (rep.cell_count, rep.max_support, rep.violations) == \
                per_cell_support_bound(g, i, n)


def test_a_lying_cograph_verdict_reaches_every_cell_of_its_support(monkeypatch):
    real = cographs.is_cograph
    monkeypatch.setattr(cographs, "is_cograph", lambda h: len(h.vertices) != 3 and real(h))
    g = family("complete", 4)
    for i in range(3):
        rep = verify_support_bound(g, i, 2)
        expected = per_cell_support_bound(g, i, 2)[2]
        assert rep.violations == expected
        flagged = {key for kind, key, _ in rep.violations if kind == "cograph"}
        assert flagged == {key for key in enumerate_cells(g, i, 2)
                           if len(support_vertices(key)) == 3}
        assert flagged


def test_support_subgraphs_are_built_once_per_distinct_support(monkeypatch):
    g = family("complete", 4)
    calls = []
    real = SimpleGraph.induced

    def induced(self, vs):
        if self is g:
            calls.append(frozenset(vs))
        return real(self, vs)

    monkeypatch.setattr(SimpleGraph, "induced", induced)
    assert cographs.is_cograph(g)
    own = Counter(calls)  # the splits of g's own cograph test
    for i in range(3):
        calls.clear()
        assert verify_support_bound(g, i, 2).ok
        supports = {support_vertices(key) for key in enumerate_cells(g, i, 2)}
        assert Counter(calls) == own + Counter(supports)


@pytest.mark.parametrize("name", sorted(ALL_GRAPHS))
def test_every_enumerated_key_is_a_valid_cell(name):
    g = ALL_GRAPHS[name]
    for n in range(4):
        for i in range(n + 1):
            keys = enumerate_cells(g, i, n)
            assert keys == sorted(set(keys))
            supports = {}
            for key in keys:
                assert validated_key(g, n, i, *key) == key
                # and a cell of its support G_λ
                verts = support_vertices(key)
                if verts not in supports:
                    supports[verts] = g.induced(sorted(verts))
                assert validated_key(supports[verts], n, i, *key) == key


def test_support_bound_rejects_negative_n():
    with pytest.raises(BadParamsError):
        verify_support_bound(family("complete", 3), 0, -1)
