import json

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from graphconf.errors import BadParamsError
from graphconf.gio import from_graph6, from_json, to_graph6, to_json
from graphconf.graphs import complement, family, make_graph


def test_graph6_round_trip_small():
    g = family("cycle", 5)
    assert from_graph6(to_graph6(g)) == g.relabeled()


def test_graph6_header_accepted():
    g = family("complete", 4)
    assert from_graph6(">>graph6<<" + to_graph6(g)) == g.relabeled()


def test_graph6_matches_networkx():
    for g in [family("complete", 5), family("cycle", 7), family("path", 6),
              family("complete_bipartite", 2, 3), family("star", 4)]:
        ours = to_graph6(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(len(g.vertices)))
        rl = g.canonical_relabeling()
        nxg.add_edges_from((rl[a], rl[b]) for a, b in g.edges)
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert ours == theirs


def test_graph6_parses_networkx_output():
    nxg = nx.petersen_graph()
    ours = from_graph6(nx.to_graph6_bytes(nxg, header=False).decode().strip())
    assert len(ours.vertices) == 10
    assert len(ours.edges) == 15
    assert all(ours.degree(v) == 3 for v in ours.vertices)


def test_graph6_long_form():
    # 70 vertices forces the multi-byte size encoding
    g = family("cycle", 70)
    assert from_graph6(to_graph6(g)) == g.relabeled()


@pytest.mark.parametrize("s", ["~", "~~", "~?", "~??", "~~?", "~~?????"])
def test_graph6_cut_off_size_header_is_rejected(s):
    # '~' takes 3 size characters and '~~' takes 6
    with pytest.raises(BadParamsError, match="size header cut off"):
        from_graph6(s)


def test_json_round_trip_and_canonical_labels():
    g = make_graph([5, 9, 12], [(5, 9), (9, 12)], labels={5: "a"})
    obj = json.loads(to_json(g))
    assert obj["vertices"] == [0, 1, 2]
    assert obj["edges"] == [[0, 1], [1, 2]]
    assert obj["labels"] == {"0": "a"}
    back = from_json(to_json(g))
    assert back.edges == ((0, 1), (1, 2))


def test_from_json_rejects_garbage():
    with pytest.raises(Exception):
        from_json('{"vertices": [0, 0], "edges": []}')


@given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=15))
def test_graph6_round_trip_random(pairs):
    edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    g = make_graph(range(8), edges)
    assert from_graph6(to_graph6(g)) == g
    assert from_graph6(to_graph6(complement(g))) == complement(g)
