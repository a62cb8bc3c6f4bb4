import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphconf.acceptance import _atlas_graphs
from graphconf.cographs import (
    Cotree,
    cograph_of,
    cotree_from_json_obj,
    cotree_of,
    cotree_to_json_obj,
    is_cograph,
    lca_adjacency_graph,
    validate_cotree,
)
from graphconf.errors import BadParamsError, InvalidCotreeError, NotACographError
from graphconf.graphs import SimpleGraph, family, make_graph
from graphconf.morphisms import enumerate_tm, is_isomorphic


def has_induced_p4(g: SimpleGraph) -> bool:
    p4 = family("path", 4)
    for vs in itertools.combinations(g.vertices, 4):
        if is_isomorphic(g.induced(vs), p4):
            return True
    return False


def random_graph(n: int, mask: int) -> SimpleGraph:
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
    return make_graph(range(n), edges)


def test_recognizer_basics():
    for n in range(1, 6):
        assert is_cograph(family("complete", n))
    assert is_cograph(family("complete_bipartite", 2, 3))
    assert is_cograph(family("path", 3))
    assert not is_cograph(family("path", 4))
    assert not is_cograph(family("cycle", 5))
    assert is_cograph(family("cycle", 4))  # C_4 = K_2,2


def test_cotree_of_rejects_non_cographs():
    with pytest.raises(NotACographError):
        cotree_of(family("path", 4))


def test_cotree_shapes():
    t = cotree_of(family("complete", 3))
    assert t.label_of[t.root] == "1"
    assert len(t.leaves()) == 3
    t = cotree_of(make_graph(range(3), []))
    assert t.label_of[t.root] == "0"
    single = cotree_of(family("complete", 1))
    assert single.label_of[single.root] == "L"


def test_round_trip_on_families():
    for g in [
        family("complete", 4),
        family("complete_bipartite", 2, 3),
        family("cycle", 4),
        family("star", 4),
        make_graph(range(5), [(0, 1), (2, 3)]),
    ]:
        assert cograph_of(cotree_of(g)) == g


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), mask=st.integers(min_value=0))
def test_recognizer_matches_p4_oracle_and_round_trips(n, mask):
    g = random_graph(n, mask)
    cg = is_cograph(g)
    assert cg == (not has_induced_p4(g))
    if cg:
        t = cotree_of(g)
        ok, violations = validate_cotree(t)
        assert ok, violations
        assert cograph_of(t) == g
        assert lca_adjacency_graph(t) == g


def test_cotree_unique_up_to_isomorphism():
    # isomorphic cographs get the same canonical form
    a = make_graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    b = make_graph([5, 7, 9, 11], [(5, 7), (5, 9), (5, 11), (7, 9), (7, 11), (9, 11)])
    assert cotree_of(a).canonical_form() == cotree_of(b).canonical_form()
    # non-isomorphic cographs do not
    c = family("complete_bipartite", 2, 2)
    assert cotree_of(a).canonical_form() != cotree_of(c).canonical_form()


def test_induced_subgraphs_of_cographs_are_cographs():
    g = cograph_of(cotree_of(family("complete_bipartite", 3, 3)))
    for k in range(1, len(g.vertices) + 1):
        for vs in itertools.combinations(g.vertices, k):
            assert is_cograph(g.induced(vs))


def full_embeddings(g: SimpleGraph, h: SimpleGraph) -> list[dict]:
    return [rho.rho_v for rho in enumerate_tm(g, h, kind="full")]


def test_full_embedding_counts():
    k3 = family("complete", 3)
    # K_3 into K_3: all 6 permutations
    assert len(full_embeddings(k3, k3)) == 6
    # K_2 into the empty graph on 3 vertices: none (adjacency reflected)
    assert full_embeddings(family("complete", 2), make_graph(range(3), [])) == []
    # single vertex into any graph: |V| embeddings
    g = family("complete_bipartite", 2, 3)
    assert len(full_embeddings(family("complete", 1), g)) == len(g.vertices)
    # embeddings both preserve and reflect edges
    p3, c4 = family("path", 3), family("cycle", 4)
    for emb in full_embeddings(p3, c4):
        for u, v in itertools.combinations(p3.vertices, 2):
            assert (v in p3.adjacency[u]) == (emb[v] in c4.adjacency[emb[u]])


def test_full_embeddings_match_permutation_filter():
    """Every injective vertex map that preserves and reflects adjacency, on
    all pairs of atlas graphs with at most 4 vertices."""
    atlas = _atlas_graphs(4)
    for g, h in itertools.product(atlas, repeat=2):
        want = set()
        for image in itertools.permutations(h.vertices, len(g.vertices)):
            f = dict(zip(g.vertices, image))
            if all(g.has_edge(u, v) == h.has_edge(f[u], f[v])
                   for u, v in itertools.combinations(g.vertices, 2)):
                want.add(tuple(sorted(f.items())))
        got = [rho.rho_v_items for rho in enumerate_tm(g, h, kind="full")]
        assert len(got) == len(set(got))
        assert set(got) == want, (g, h)


def test_validate_cotree_violations():
    # internal node with one child
    t = Cotree(((0, "0"), (1, "L")), ((0, (1,)),), 0, ((1, 0),))
    ok, violations = validate_cotree(t)
    assert not ok and any("fewer than 2" in v for v in violations)
    # alternation break: 0-node child of a 0-node
    t = Cotree(
        ((0, "0"), (1, "0"), (2, "L"), (3, "L"), (4, "L")),
        ((0, (1, 2)), (1, (3, 4))),
        0,
        ((2, 0), (3, 1), (4, 2)),
    )
    ok, violations = validate_cotree(t)
    assert not ok and any("alternation" in v for v in violations)
    # leaf map not a bijection
    t = Cotree(((0, "1"), (1, "L"), (2, "L")), ((0, (1, 2)),), 0, ((1, 0), (2, 0)))
    ok, violations = validate_cotree(t)
    assert not ok
    with pytest.raises(InvalidCotreeError):
        cograph_of(t)


def test_json_round_trip():
    t = cotree_of(family("complete_bipartite", 2, 3))
    obj = cotree_to_json_obj(t)
    json.dumps(obj)  # serializable
    back = cotree_from_json_obj(obj)
    assert back == t
    with pytest.raises(InvalidCotreeError):
        cotree_from_json_obj({"nodes": [], "root": 0})


def test_the_empty_graph_is_a_cograph_without_a_cotree():
    empty = make_graph([], [])
    assert is_cograph(empty)
    with pytest.raises(BadParamsError, match="the empty graph has no cotree"):
        cotree_of(empty)
