import itertools
import math

import pytest

from graphconf import cographs, swiatkowski
from graphconf.errors import BadParamsError, NotAnEmbeddingError
from graphconf.graphs import complement, disjoint_union, family, norm_edge
from graphconf.morphisms import TopMinorMorphism, enumerate_tm, inclusion_morphism
from graphconf.swiatkowski import (
    SELF,
    enumerate_cells,
    push_keys,
    support_vertices,
    verify_support_bound,
)


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


def test_push_identity_and_injectivity():
    g = family("path", 3)
    ident = inclusion_morphism(g, g)
    keys = enumerate_cells(g, 1, 2)
    assert push_keys(keys, ident) == keys
    k2 = family("complete", 2)
    embs = enumerate_tm(k2, g, kind="simplicial", limit=100)
    for emb in embs:
        imgs = push_keys(enumerate_cells(k2, 0, 2), emb)
        assert len(set(imgs)) == len(imgs)


def sorted_push(keys, emb):
    """Oracle for push_keys: map every pair of a key, then sort."""
    rho = emb.rho_v

    def pair(v, state):
        return (rho[v], state if state == SELF else ("half",) + norm_edge(rho[state[1]], rho[state[2]]))

    return [
        (tuple(sorted((norm_edge(rho[a], rho[b]), w) for (a, b), w in weights)),
         tuple(sorted(pair(v, state) for v, state in states)))
        for weights, states in keys
    ]


def test_push_along_a_non_monotone_embedding_sorts_its_keys():
    p3 = family("path", 3)
    star = family("star", 3)
    embs = [emb for emb in enumerate_tm(p3, star, kind="simplicial")
            if sorted(emb.rho_v.values()) != [emb.rho_v[v] for v in sorted(emb.rho_v)]]
    assert embs
    for i in (0, 1, 2):
        keys = enumerate_cells(p3, i, 2)
        for emb in embs:
            assert push_keys(keys, emb) == sorted_push(keys, emb), (i, emb.rho_v)
    # the sort is needed: some key's pairs come out of order unsorted
    rho = embs[0].rho_v
    assert any([rho[v] for v, _ in states] != sorted(rho[v] for v, _ in states)
               for _, states in enumerate_cells(p3, 2, 2))


def test_push_along_an_inclusion_keeps_the_keys():
    k5 = family("complete", 5)
    h = k5.induced([0, 2, 3])
    for i in (0, 1, 2):
        keys = enumerate_cells(h, i, 2)
        pushed = push_keys(keys, inclusion_morphism(h, k5))
        assert pushed == keys == sorted_push(keys, inclusion_morphism(h, k5)), i


def test_push_extends_by_zero():
    k2 = family("complete", 2)
    p3 = family("path", 3)
    from graphconf.graphs import Path

    emb = TopMinorMorphism(k2, p3, ((0, 0), (1, 1)), (((0, 1), Path((0, 1))),))
    heavy = validated_key(k2, 2, 0, (((0, 1), 2),), ())
    (out,) = push_keys([heavy], emb)
    assert out == ((((0, 1), 2),), ())
    assert validated_key(p3, 2, 0, *out) == out


def test_push_rejects_non_embeddings():
    c3 = family("cycle", 3)
    c6 = family("cycle", 6)
    from graphconf.graphs import Path

    subdiv = TopMinorMorphism(
        c3,
        c6,
        ((0, 0), (1, 2), (2, 4)),
        (
            ((0, 1), Path((0, 1, 2))),
            ((0, 2), Path((0, 5, 4))),
            ((1, 2), Path((2, 3, 4))),
        ),
    )
    key = enumerate_cells(c3, 0, 1)[0]
    with pytest.raises(NotAnEmbeddingError):
        push_keys([key], subdiv)


@pytest.mark.parametrize("i, stray", [
    pytest.param(0, ((((2, 3), 1),), ()), id="edge"),
    pytest.param(0, ((), ((3, SELF),)), id="vertex"),
    pytest.param(1, ((), ((0, ("half", 0, 3)),)), id="half-edge"),
])
def test_push_rejects_a_key_off_the_source(i, stray):
    c3 = family("cycle", 3)
    k4 = family("complete", 4)
    assert validated_key(k4, 1, i, *stray) == stray  # a cell of the target
    emb = inclusion_morphism(c3, k4)
    ok = enumerate_cells(c3, 0, 1)[0]
    with pytest.raises(NotAnEmbeddingError):
        push_keys([ok, stray], emb)


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
        if push_cell(restricted, n, i, swiatkowski.inclusion_morphism(supp, g)) != key:
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


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_grouped_support_bound_matches_per_cell_oracle(name):
    g = ORACLE_GRAPHS[name]
    for n in (1, 2, 3):
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


def test_image_and_cograph_violations_keep_the_oracles_order(monkeypatch):
    # swapping vertices 0 and 1 keeps each inclusion a valid embedding but
    # moves every cell that tells 0 from 1, so those cells fail the image test
    from graphconf.graphs import Path

    def swapped(h, g):
        s = {0: 1, 1: 0}.get
        return TopMinorMorphism(h, g, tuple((v, s(v, v)) for v in h.vertices),
                                tuple((e, Path((s(e[0], e[0]), s(e[1], e[1])))) for e in h.edges))

    real = cographs.is_cograph
    monkeypatch.setattr(cographs, "is_cograph", lambda h: len(h.vertices) != 3 and real(h))
    monkeypatch.setattr(swiatkowski, "inclusion_morphism", swapped)
    g = family("complete", 4)
    for i in range(3):
        rep = verify_support_bound(g, i, 2)
        assert rep.violations == per_cell_support_bound(g, i, 2)[2]
        assert {kind for kind, _, _ in rep.violations} == {"image", "cograph"}


def test_validate_tm_runs_once_per_distinct_support(monkeypatch):
    calls = []
    real = swiatkowski.validate_tm
    monkeypatch.setattr(swiatkowski, "validate_tm", lambda emb: calls.append(emb) or real(emb))
    g = family("complete", 4)
    for i in range(3):
        calls.clear()
        assert verify_support_bound(g, i, 2).ok
        supports = {support_vertices(key) for key in enumerate_cells(g, i, 2)}
        assert len(calls) == len(supports)
        assert {frozenset(emb.source.vertices) for emb in calls} == supports


_EDGE = family("path", 2)
# the graphs of the benchmark's `cells` workload
CELLS_GRAPHS = {
    "K5": family("complete", 5),
    "K33": family("complete_bipartite", 3, 3),
    "K222": complement(disjoint_union(disjoint_union(_EDGE, _EDGE), _EDGE)),
    "K6": family("complete", 6),
    "K24": family("complete_bipartite", 2, 4),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS) + sorted(CELLS_GRAPHS))
def test_every_enumerated_key_is_a_valid_cell(name):
    g = {**ORACLE_GRAPHS, **CELLS_GRAPHS}[name]
    for n in range(4):
        for i in range(n + 1):
            keys = enumerate_cells(g, i, n)
            assert keys == sorted(set(keys))
            for key in keys:
                assert validated_key(g, n, i, *key) == key


def test_support_bound_rejects_negative_n():
    with pytest.raises(BadParamsError):
        verify_support_bound(family("complete", 3), 0, -1)
