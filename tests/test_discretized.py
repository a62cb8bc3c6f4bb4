import itertools
import math
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from chains import from_entries
from graphconf.acceptance import _atlas_graphs
from graphconf.discretized import (
    build_discretized,
    cell_count_table,
    complex_to_json_obj,
    edge_slot,
    inclusion_chain_map,
    is_sufficiently_subdivided,
    vertex_slot,
)
from graphconf.errors import NotASubgraphError
from graphconf.generation import build_ambient
from graphconf.graphs import (ambient_arcs, disjoint_union, family, make_graph,
                              subdivide, subdivide_uniform, subdivision_pieces,
                              theta_graph)
from graphconf.homology import _reduce, homology, presentation


def test_k2_two_points():
    cx = build_discretized(family("complete", 2), 2, ordered=True)
    assert cx.cell_counts() == (2, 0, 0)
    assert homology(cx.chain).betti == (2, 0, 0)


def test_c4_two_points_ordered():
    cx = build_discretized(family("cycle", 4), 2, ordered=True)
    assert cx.cell_counts() == (12, 16, 4)
    assert cx.chain.check_boundary_squares_to_zero()
    assert homology(cx.chain).betti == (1, 1, 0)


def test_k5_two_points_unordered():
    cx = build_discretized(family("complete", 5), 2, ordered=False)
    assert cx.cell_counts() == (10, 30, 15)
    assert cx.euler_characteristic() == -5
    h = homology(cx.chain)
    assert h.betti == (1, 6, 0)
    assert h.torsion == ((), (2,), ())


def test_ordered_counts_are_factorial_multiples():
    for g in [family("cycle", 5), family("path", 5), theta_graph()]:
        for n in (2, 3):
            sub = subdivide_uniform(g, n + 1)
            o = build_discretized(sub, n, ordered=True)
            u = build_discretized(sub, n, ordered=False)
            fact = math.factorial(n)
            assert o.cell_counts() == tuple(c * fact for c in u.cell_counts())


def test_boundary_squares_to_zero_everywhere():
    for g in [family("star", 3), family("cycle", 6), family("complete", 4)]:
        for ordered in (True, False):
            cx = build_discretized(g, 2, ordered)
            assert cx.chain.check_boundary_squares_to_zero()


def test_circle_one_point_is_circle():
    cx = build_discretized(family("cycle", 4), 1)
    assert homology(cx.chain).betti == (1, 1)


def test_sufficiency_predicate():
    # a bare edge is never sufficiently subdivided for 2 strands
    assert not is_sufficiently_subdivided(family("complete", 2), 2)
    assert is_sufficiently_subdivided(family("path", 4), 2)  # 3 edges
    assert not is_sufficiently_subdivided(family("path", 4), 3)
    # cycles need girth above the strand count
    assert is_sufficiently_subdivided(family("cycle", 3), 2)
    assert not is_sufficiently_subdivided(family("cycle", 3), 3)
    # arcs are measured between essential vertices
    star = family("star", 3)
    assert not is_sufficiently_subdivided(star, 2)
    assert is_sufficiently_subdivided(subdivide_uniform(star, 3), 2)


def test_n_plus_one_pieces_suffice():
    # n+1 pieces per edge always suffice for n strands
    for n in (1, 2, 3):
        sub = subdivide_uniform(family("complete", 4), subdivision_pieces(n, 0))
        assert is_sufficiently_subdivided(sub, n)
        assert len(sub.edges) == (n + 1) * 6


INCLUSION_CASES = [
    # (name, G, n, ordered)
    ("C3", subdivide_uniform(family("cycle", 3), 3), 2, False),
    ("C3-ordered", subdivide_uniform(family("cycle", 3), 3), 2, True),
    ("theta", subdivide_uniform(theta_graph(), 3), 2, False),
    ("theta-ordered", subdivide_uniform(theta_graph(), 3), 2, True),
    ("K4", subdivide_uniform(family("complete", 4), 4), 3, False),
    ("star3-ordered", subdivide_uniform(family("star", 3), 4), 3, True),
]


@pytest.mark.parametrize("name,g,n,ordered", INCLUSION_CASES,
                         ids=[case[0] for case in INCLUSION_CASES])
def test_inclusion_chain_map_sends_columns_to_columns(name, g, n, ordered):
    tgt = build_discretized(g, n, ordered)
    # H drops every third edge of G and keeps the first half of its vertices
    # besides the ends of its edges, so it has leaves and isolated vertices
    h = g.subgraph([e for k, e in enumerate(g.edges) if k % 3],
                   g.vertices[:len(g.vertices) // 2])
    src, index = inclusion_chain_map(h, g, n, ordered, target_complex=tgt)
    assert len(index) == n + 1
    for d in range(n + 1):
        assert len(index[d]) == src.chain.rank(d)
        assert len(set(index[d])) == len(index[d])  # injective
        assert all(src.cells[d][j] == tgt.cells[d][k] for j, k in enumerate(index[d]))
        if not d:
            continue
        # d_d of G on the image of cell j is d_d of H on j, its rows pushed along
        src_rows, src_coeffs = src.chain.columns(d)
        tgt_rows, tgt_coeffs = tgt.chain.columns(d)
        for j, k in enumerate(index[d]):
            assert tgt_rows[k] == [index[d - 1][i] for i in src_rows[j]]
            assert tgt_coeffs[k] == src_coeffs[j]
    assert src.chain.rank(n)


def test_inclusion_requires_subgraph():
    with pytest.raises(NotASubgraphError):
        inclusion_chain_map(family("cycle", 3), family("path", 4), 2)


def test_exports():
    cx = build_discretized(family("complete", 2), 2, ordered=True)
    obj = complex_to_json_obj(cx)
    assert obj["cells"][0] == ["v-0|v-1", "v-1|v-0"]
    table = cell_count_table(cx)
    assert "chi\t2" in table


def test_presentation_matches_summary():
    cx = build_discretized(family("complete", 5), 2, ordered=False)
    pres = presentation(cx.chain, 1)
    h = homology(cx.chain)
    assert pres.betti == h.betti[1]
    assert tuple(pres.torsion) == h.torsion[1]


# -- cell enumeration against a brute-force oracle -------------------------------


def slot_closure(slot):
    return slot[1:] if slot[0] == "e" else (slot[1],)


def brute_force_cells(g, n, ordered):
    """Reference for build_discretized's cells: every n-tuple of slots (in
    sorted slot order when unordered) whose closures are pairwise disjoint."""
    slots = sorted([edge_slot(a, b) for a, b in g.edges] + [vertex_slot(v) for v in g.vertices])
    keys = itertools.product(slots, repeat=n) if ordered else itertools.combinations(slots, n)
    per_dim = [[] for _ in range(n + 1)]
    for key in keys:
        closure = [v for s in key for v in slot_closure(s)]
        if len(set(closure)) == len(closure):
            per_dim[sum(s[0] == "e" for s in key)].append(key)
    return tuple(tuple(sorted(layer)) for layer in per_dim)


CELL_GRAPHS = [
    ("K2", family("complete", 2)),
    ("C4", family("cycle", 4)),
    ("star3", family("star", 3)),
    ("theta-3", subdivide_uniform(theta_graph(), 3)),
]


@pytest.mark.parametrize("name,g", CELL_GRAPHS, ids=[c[0] for c in CELL_GRAPHS])
def test_cells_match_brute_force(name, g):
    for n in (1, 2, 3):
        for ordered in (True, False):
            assert build_discretized(g, n, ordered).cells == brute_force_cells(
                g, n, ordered), (n, ordered)


# -- assembly on slot codes against assembly on slot tuples ---------------------


def build_discretized_by_slots(g, n, ordered):
    """Reference for build_discretized: cells as tuples of slot tuples, a
    set for the used vertices, and boundary entries summed into a dict
    (an entry that sums to 0 is dropped).  Returns (cells, chain)."""
    slots = sorted([edge_slot(a, b) for a, b in g.edges] + [vertex_slot(v) for v in g.vertices])
    per_dim = [[] for _ in range(n + 1)]
    chosen, used = [], set()

    def rec(start):
        if len(chosen) == n:
            key = tuple(chosen)
            per_dim[sum(1 for s in key if s[0] == "e")].append(key)
            return
        if not ordered and n - len(chosen) > len(slots) - start:
            return
        for idx in range(start, len(slots)):
            s = slots[idx]
            cl = slot_closure(s)
            if any(v in used for v in cl):
                continue
            chosen.append(s)
            used.update(cl)
            rec(0 if ordered else idx + 1)
            used.difference_update(cl)
            chosen.pop()

    rec(0)
    for layer in per_dim:
        layer.sort()
    index = [{key: i for i, key in enumerate(layer)} for layer in per_dim]
    boundaries = [{} for _ in range(n + 1)]
    for d in range(1, n + 1):
        bd = boundaries[d]
        for col, key in enumerate(per_dim[d]):
            edge_rank = 0
            for pos, s in enumerate(key):
                if s[0] != "e":
                    continue
                _, a, b = s
                sign = -1 if edge_rank % 2 else 1
                for endpoint, coeff in ((b, sign), (a, -sign)):
                    face = list(key)
                    face[pos] = vertex_slot(endpoint)
                    if not ordered:
                        face.sort()
                    row = index[d - 1][tuple(face)]
                    cur = bd.get((row, col), 0) + coeff
                    if cur:
                        bd[(row, col)] = cur
                    else:
                        bd.pop((row, col), None)
                edge_rank += 1
    chain = from_entries(tuple(map(len, per_dim)), boundaries)
    return tuple(map(tuple, per_dim)), chain


def assembly_cases():
    """Every atlas graph with <= 5 vertices at n = 1, 2, 3, and theta and
    K4 subdivided for n = 3, in both models."""
    graphs = [(g, n) for g in _atlas_graphs(5) for n in (1, 2, 3)]
    graphs += [(subdivide_uniform(theta_graph(), 4), 3),
               (subdivide_uniform(family("complete", 4), 4), 3)]
    return [(g, n, ordered) for g, n in graphs for ordered in (True, False)]


def test_assembly_matches_the_slot_tuple_oracle():
    for g, n, ordered in assembly_cases():
        cx = build_discretized(g, n, ordered)
        cells, chain = build_discretized_by_slots(g, n, ordered)
        assert cx.cells == cells, (g.edges, n, ordered)
        # the columns compare in order, which _reduce visits faces in
        assert cx.chain == chain, (g.edges, n, ordered)


@st.composite
def assembly_graphs(draw):
    """Graphs of one to three components of at most four vertices each,
    with isolated vertices and scattered vertex ids.  At will they are
    padded with isolated vertices to a slot count at a power of two or one
    above it, where the key width w = (slot count).bit_length() steps."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    ids = draw(st.permutations(range(0, 3 * sum(sizes), 3)))
    edges, start = [], 0
    for size in sizes:
        pairs = list(itertools.combinations(ids[start:start + size], 2))
        mask = draw(st.integers(0, 2 ** len(pairs) - 1))
        edges += [pair for k, pair in enumerate(pairs) if mask >> k & 1]
        start += size
    pad = draw(st.sampled_from([0, 4, 5, 8, 9, 16, 17])) - len(ids) - len(edges)
    return make_graph([*ids, *range(3 * sum(sizes), 3 * sum(sizes) + max(pad, 0))], edges)


@settings(max_examples=150, deadline=None)
@given(assembly_graphs(), st.integers(1, 3), st.booleans())
def test_assembly_matches_the_slot_tuple_oracle_on_random_graphs(g, n, ordered):
    cx = build_discretized(g, n, ordered)
    cells, chain = build_discretized_by_slots(g, n, ordered)
    assert cx.cells == cells
    assert cx.chain == chain


def test_boundary_dicts_rebuild_the_columns():
    # the tracer and --dump-complex read the dict form
    for g, n, ordered in assembly_cases():
        c = build_discretized(g, n, ordered).chain
        assert from_entries(c.ranks, c.boundaries) == c, (g.edges, n, ordered)


def test_every_column_has_2k_unit_entries_on_distinct_rows():
    for g, n, ordered in assembly_cases():
        chain = build_discretized(g, n, ordered).chain
        for k in range(n + 1):
            for rows, coeffs in zip(*chain.columns(k)):
                assert len(set(rows)) == len(rows) == 2 * k, (g.edges, n, ordered, k)
                assert all(v in (1, -1) for v in coeffs), (g.edges, n, ordered, k)


# the coefficients of every column of d_k, one list per degree: the r-th
# edge slot gives (-1)^r at its larger endpoint and the opposite sign at
# the smaller one
COEFFICIENT_PATTERNS = [[], [1, -1], [1, -1, -1, 1], [1, -1, -1, 1, 1, -1]]


@pytest.mark.parametrize("i", [1, 2])
def test_readers_leave_the_shared_coefficient_lists_alone(i):
    # all columns of a degree share one list, so a reader that mutated it
    # would corrupt every column
    ctx = build_ambient(theta_graph(), i, 3, ordered=False)
    chain = ctx.complex.chain
    homology(chain)
    presentation(chain, 1)
    arcs = ambient_arcs(ctx.subdivided)
    for k in range(1, len(arcs) + 1):
        ctx.image_of_subgraph(ctx.subdivided.subgraph([e for arc in arcs[:k] for e in arc]))
    for k in range(chain.top_degree + 1):
        coeffs = chain.columns(k)[1]
        assert coeffs and all(col == COEFFICIENT_PATTERNS[k] for col in coeffs), k
        if k:
            assert len(set(map(id, coeffs))) == 1, k

# (graph, n, extra subdivision, ordered, residual ranks) of the benchmark's
# homology jobs at identity labels; a face order that grows the residual
# shows here
RESIDUAL_PINS = [
    (theta_graph(), 3, 0, False, (0, 3, 0, 0)),
    (theta_graph(), 3, 1, False, (0, 3, 0, 0)),
    (family("complete", 4), 3, 0, False, (0, 159, 158, 0)),
    (family("complete", 5), 2, 1, False, (0, 63, 57)),
    (family("complete", 5), 2, 2, False, (0, 78, 72)),
    (family("complete_bipartite", 3, 3), 2, 1, False, (0, 68, 64)),
    (family("complete_bipartite", 3, 3), 2, 2, False, (0, 85, 81)),
    (family("complete", 4), 2, 1, True, (0, 7, 0)),
    (family("complete", 4), 2, 2, True, (0, 7, 0)),
]


def test_residual_ranks_of_the_bench_shapes_are_pinned():
    total = 0
    for g, n, extra, ordered, ranks in RESIDUAL_PINS:
        sub = subdivide_uniform(g, subdivision_pieces(n, extra))
        r, base_vertices = _reduce(build_discretized(sub, n, ordered).chain)
        assert (r.ranks, base_vertices) == (ranks, 1), (g.edges, n, extra, ordered)
        total += sum(r.ranks)
    assert total == 905


# -- Abrams' test against the arc-and-girth oracle --------------------------------


def arcs_and_girth(g):
    """Lengths of maximal degree-2-interior paths between non-degree-2
    endpoints, and the girth (None when acyclic)."""
    arcs = []
    essential = [v for v in g.vertices if g.degree(v) != 2]
    seen_edges = set()
    for v in essential:
        for w in g.adjacency[v]:
            if (v, w) in seen_edges:
                continue
            # walk from v through w across degree-2 vertices
            path = [v, w]
            seen_edges.update(((v, w), (w, v)))
            while g.degree(path[-1]) == 2 and path[-1] not in essential:
                prev, cur = path[-2], path[-1]
                nxt = next(x for x in g.adjacency[cur] if x != prev)
                seen_edges.update(((cur, nxt), (nxt, cur)))
                path.append(nxt)
            if path[-1] == v:
                continue  # closed walk back to v: a cycle, handled by girth
            arcs.append(len(path) - 1)
    return arcs, girth(g)


def girth(g):
    best = None
    for a, b in g.edges:
        # shortest a-b path avoiding the edge (a, b)
        dist = {a: 0}
        dq = deque([a])
        found = None
        while dq:
            x = dq.popleft()
            if best is not None and dist[x] + 1 >= best:
                continue
            for y in g.adjacency[x]:
                if x == a and y == b:
                    continue
                if y == b:
                    found = dist[x] + 1
                    dq.clear()
                    break
                if y not in dist:
                    dist[y] = dist[x] + 1
                    dq.append(y)
        if found is not None and (best is None or found + 1 < best):
            best = found + 1
    return best


def arc_and_girth_test(g, n):
    """Reference for is_sufficiently_subdivided: every open arc and the
    girth have >= n+1 edges."""
    arcs, gi = arcs_and_girth(g)
    return all(a >= n + 1 for a in arcs) and (gi is None or gi >= n + 1)


def test_sufficiency_matches_oracle_on_atlas():
    cases = 0
    for g in _atlas_graphs(6):
        for pieces in (1, 2, 3):
            sub = subdivide_uniform(g, pieces)
            for n in (1, 2, 3, 4):
                assert is_sufficiently_subdivided(sub, n) == arc_and_girth_test(sub, n), (
                    g.edges, pieces, n)
                cases += 1
    assert cases == 2496


def test_sufficiency_matches_oracle_on_theta_edge_subsets():
    sub = subdivide_uniform(theta_graph(), 3)
    verdicts = set()
    for size in range(len(sub.edges) + 1):
        for combo in itertools.combinations(sub.edges, size):
            h = sub.subgraph(combo)
            got = is_sufficiently_subdivided(h, 2)
            assert got == arc_and_girth_test(h, 2), combo
            verdicts.add(got)
    assert verdicts == {True, False}


def _dumbbell():
    # branch vertices 0 and 3, each with two pendant paths of 3 edges,
    # joined by the single edge (0, 3)
    g = make_graph(range(6), [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
    return subdivide(g, {e: 2 for e in g.edges if e != (0, 3)})


def _lollipop():
    # the triangle 0-1-2 is a closed arc at branch vertex 2; the stick
    # 2-3 is subdivided into 6 edges
    g = make_graph(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])
    return subdivide(g, {(2, 3): 5})


SUFFICIENCY_CASES = [
    ("edgeless", make_graph([], []), 3, True),
    ("isolated-vertices", make_graph(range(3), []), 1, True),
    ("path-and-isolated-vertex", make_graph(range(4), [(0, 1), (1, 2)]), 2, False),
    ("single-edge-between-branches", _dumbbell(), 2, False),
    ("single-edge-between-branches-subdivided",
     subdivide_uniform(_dumbbell(), 3), 2, True),
    ("lollipop-short-loop", _lollipop(), 3, False),
    ("lollipop-long-enough", _lollipop(), 2, True),
    ("short-cycle-component",
     disjoint_union(family("cycle", 3), subdivide_uniform(family("star", 3), 5)),
     3, False),
    ("cycle-component-long-enough",
     disjoint_union(family("cycle", 3), subdivide_uniform(family("star", 3), 5)),
     2, True),
]


@pytest.mark.parametrize("name,g,n,expected", SUFFICIENCY_CASES,
                         ids=[c[0] for c in SUFFICIENCY_CASES])
def test_sufficiency_named_cases(name, g, n, expected):
    assert is_sufficiently_subdivided(g, n) is expected
    assert arc_and_girth_test(g, n) is expected
