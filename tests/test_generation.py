import functools
import gc
import itertools
import math
import random
import types
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from chains import components, forest_cycles
from graphconf import generation, morphisms
from graphconf.acceptance import _atlas_graphs
from graphconf.discretized import is_sufficiently_subdivided
from graphconf.errors import BadParamsError, InvariantError
from graphconf.generation import (
    GeneratorList,
    _arc_patterns,
    _arc_profile,
    _arc_walk,
    _arc_ways,
    _bijections,
    _cycle_ways,
    _gap_sets,
    _image_candidates,
    _mask_subgraph,
    _onto_count,
    _stage_candidates,
    _stage_subgraphs,
    _turn_ways,
    betti_stage,
    brute_force_span,
    build_ambient,
    generation_check,
    generator_images,
    image_by_chain_map,
    robertson_stage,
    subgraph_homeomorphism_types,
)
from graphconf.graphs import (SimpleGraph, ambient_arcs, betti1, disjoint_union, family,
                              make_graph, norm_edge, subdivide, subdivide_uniform,
                              subdivision_pieces, theta_graph)
from graphconf.homology import HomologyPresentation, cycle_image_subgroup
from graphconf.morphisms import enumerate_tm, gtm_k_member, iter_tm, smooth
from graphconf.snf import SNFResult, snf


def test_generator_list_validation():
    c3 = family("cycle", 3)
    with pytest.raises(BadParamsError):
        GeneratorList((c3, family("cycle", 4)))  # homeomorphic pair
    with pytest.raises(BadParamsError):
        GeneratorList((family("cycle", 4),))  # degree-2 vertices
    gens = GeneratorList.of(family("cycle", 5), family("star", 3))
    assert len(gens.graphs) == 2
    from graphconf.morphisms import smooth

    assert all(g == smooth(g) for g in gens.graphs)


def test_circle_generates_circle():
    c3 = family("cycle", 3)
    rep = generation_check(build_ambient(c3, 1, 2, ordered=False), GeneratorList.of(c3))
    assert rep.is_generated
    assert rep.achieved.free_rank() == rep.achieved.ambient.betti == 1


def test_circle_does_not_generate_star_h1():
    # ordered 2-strand configuration space of the 3-star has H_1 = Z,
    # but the star contains no cycle, so no circle maps in
    star = family("star", 3)
    rep = generation_check(build_ambient(star, 1, 2), GeneratorList.of(family("cycle", 3)))
    assert rep.achieved.ambient.betti == 1
    assert not rep.is_generated
    assert rep.achieved.free_rank() == 0
    assert all(cnt == 0 for _, cnt, _, _ in rep.per_generator)


def test_stage_spans_on_theta():
    theta = theta_graph()
    ctx = build_ambient(theta, 1, 2, ordered=False)
    b0 = betti_stage(ctx, 0)
    b1 = betti_stage(ctx, 1)
    b2 = betti_stage(ctx, 2)
    # star subgraphs already contribute classes at stage 0, but not everything
    assert 0 < b0.free_rank() < b0.ambient.betti
    assert b1.contains(b0) and b2.contains(b1)
    assert b2.is_full()
    # theta has Betti number 2, so the order-2 Robertson stage is everything
    r2 = robertson_stage(ctx, 2)
    assert r2.is_full()
    r1 = robertson_stage(ctx, 1)
    assert r1.contains(b0) and r2.contains(r1)


def _counting_images(monkeypatch):
    """Patch image_of_subgraph to record each subgraph it is asked for."""
    asked = []
    original = generation.AmbientContext.image_of_subgraph

    def counting(ctx, h):
        asked.append(h)
        return original(ctx, h)

    monkeypatch.setattr(generation.AmbientContext, "image_of_subgraph", counting)
    return asked


@pytest.mark.parametrize("name,g,joined,subgraphs", [
    ("theta", theta_graph(), 2, 5), ("K4", family("complete", 4), 12, 41)],
    ids=["theta", "K4"])
def test_stage_span_stops_once_full(monkeypatch, name, g, joined, subgraphs):
    # a full span stays full, so the later stage subgraphs need no image
    ctx = build_ambient(g, 1, 2, ordered=False)
    assert len(_stage_subgraphs(ctx, stage_predicate("betti:1"))) == subgraphs
    asked = _counting_images(monkeypatch)
    assert betti_stage(ctx, 1).is_full()
    assert len(asked) == joined


def test_generator_images_stop_once_full(monkeypatch):
    # C3 in K4'' at n = 2: 7 image subgraphs, and the first 4 span H_1
    ctx = build_ambient(family("complete", 4), 1, 2, 1, ordered=False)
    asked = _counting_images(monkeypatch)
    report = generation_check(ctx, GeneratorList.of(family("cycle", 3)))
    assert [entry[1:] for entry in report.per_generator] == [(15360, 7, 4)]
    assert report.is_generated and len(asked) == 4


def test_stage_params_validated():
    c3 = family("cycle", 3)
    ctx = build_ambient(c3, 1, 1)
    with pytest.raises(BadParamsError):
        betti_stage(ctx, -1)
    with pytest.raises(BadParamsError):
        robertson_stage(ctx, 0)
    with pytest.raises(BadParamsError):
        build_ambient(c3, 1, 0)


def test_brute_force_matches_deduplicated_span():
    g = make_graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    gens = subgraph_homeomorphism_types(g)
    ctx = build_ambient(g, 1, 2, ordered=False)
    rep = generation_check(ctx, gens)
    assert rep.is_generated  # full graph is its own subgraph
    assert brute_force_span(ctx, gens).is_full()


def test_subgraph_homeomorphism_types():
    theta = theta_graph()
    gens = subgraph_homeomorphism_types(theta)
    # full graph first, so self-generation short-circuits
    from graphconf.morphisms import is_homeomorphic

    assert is_homeomorphic(gens.graphs[0], theta)
    # theta's proper types: circle and the trees P_2, P_3(smoothed to P_2)...
    assert all(len(t.edges) >= 1 for t in gens.graphs)


def test_report_serialization():
    c3 = family("cycle", 3)
    rep = generation_check(build_ambient(c3, 1, 2, ordered=False), GeneratorList.of(c3))
    obj = rep.to_json_obj()
    import json

    json.dumps(obj)
    assert obj["is_generated"] is True
    assert obj["achieved_rank"] == 1
    assert obj["generators"][0]["morphisms"] >= 1
    txt = rep.table()
    assert "generated=True" in txt


# -- stage subgraphs against every edge subset ----------------------------------


def all_subsets_stage_subgraphs(ctx, predicate):
    """Reference for _stage_subgraphs: test every edge subset of G'', the
    empty one included, each with every vertex of G'', largest first,
    skipping subsets of one that already passed."""
    amb = ctx.subdivided
    edges = list(amb.edges)
    passing: list[frozenset] = []
    for size in range(len(edges), -1, -1):
        for combo in itertools.combinations(range(len(edges)), size):
            mask = frozenset(combo)
            if any(mask <= bigger for bigger in passing):
                continue
            h = amb.subgraph([edges[j] for j in combo], amb.vertices)
            if is_sufficiently_subdivided(h, ctx.n) and predicate(h):
                passing.append(mask)
    return [amb.subgraph([edges[j] for j in mask], amb.vertices) for mask in passing]


def stage_predicate(stage: str):
    kind, _, value = stage.partition(":")
    k = int(value)
    if kind == "betti":
        return lambda h: betti1(h) <= k
    return lambda h: betti1(h) < k or gtm_k_member(h, k)


def lollipop():
    # a cycle hanging off a branch vertex, whose arc starts and ends there
    return make_graph(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])


STAGE_CASES = [
    ("C3", family("cycle", 3), 2, 0),
    ("star3", family("star", 3), 2, 0),
    ("theta", theta_graph(), 2, 0),
    ("theta", theta_graph(), 2, 1),
    ("C3", family("cycle", 3), 3, 0),
    ("lollipop", lollipop(), 2, 0),
    # an isolated vertex, which every stage subgraph keeps
    ("C3+K1", disjoint_union(family("cycle", 3), make_graph([0], [])), 2, 0),
]
STAGES = ["betti:0", "betti:1", "betti:2", "robertson:1", "robertson:2", "robertson:3"]


def _keys(subgraphs):
    return [(h.vertices, h.edges) for h in subgraphs]


@pytest.mark.parametrize("name,g,n,extra", STAGE_CASES,
                         ids=[f"{c[0]}-n{c[2]}-extra{c[3]}" for c in STAGE_CASES])
def test_stage_subgraphs_match_all_subsets(name, g, n, extra):
    ctx = build_ambient(g, 1, n, extra, ordered=False)
    for stage in STAGES:
        pred = stage_predicate(stage)
        assert _keys(_stage_subgraphs(ctx, pred)) == _keys(
            all_subsets_stage_subgraphs(ctx, pred)), stage


def test_stage_subgraphs_match_all_subsets_on_k4():
    ctx = build_ambient(family("complete", 4), 1, 2, ordered=False)
    pred = stage_predicate("betti:1")
    got = _keys(_stage_subgraphs(ctx, pred))
    assert got == _keys(all_subsets_stage_subgraphs(ctx, pred))
    assert len(got) > 1


def test_stage_subgraphs_keep_gaps_exactly_n_plus_2_apart():
    # branch vertices 0 and 3, each with two pendant edges, joined by the arc
    # 0-6-7-8-3; at n=1 the middle segment 6-7-8 between gaps (0,6) and (8,3)
    # is maximal, since either gap edge makes a pendant edge a short arc
    g = make_graph(range(9), [(0, 1), (0, 2), (3, 4), (3, 5),
                              (0, 6), (6, 7), (7, 8), (8, 3)])
    ctx = SimpleNamespace(subdivided=g, n=1)
    pred = stage_predicate("betti:0")
    got = _keys(_stage_subgraphs(ctx, pred))
    assert got == _keys(all_subsets_stage_subgraphs(ctx, pred))
    assert ((0, 1, 2, 3, 4, 5, 6, 7, 8),
            ((0, 1), (0, 2), (3, 4), (3, 5), (6, 7), (7, 8))) in got


def pendant_graph():
    # the graph above: pendant arcs of length 1, shorter than n+1 for every n
    return make_graph(range(9), [(0, 1), (0, 2), (3, 4), (3, 5),
                                 (0, 6), (6, 7), (7, 8), (8, 3)])


def _subdivided(g, n):
    return subdivide_uniform(g, subdivision_pieces(n, 0))


MASK_CASES = [("K4''", _subdivided(family("complete", 4), 1), 1)] + [
    (name, sub, n)
    for n in (1, 2, 3)
    for name, sub in [
        ("theta''", _subdivided(theta_graph(), n)),
        ("C4''", _subdivided(family("cycle", 4), n)),
        ("lollipop''", _subdivided(lollipop(), n)),
        # as given: arcs and cycles shorter than n+1
        ("theta", theta_graph()),
        ("lollipop", lollipop()),
        ("C4+P3", disjoint_union(family("cycle", 4), family("path", 3))),
        ("pendant", pendant_graph()),
    ]
]


def candidate_tables(sub, n):
    """Per ambient arc, the masks a stage candidate takes there: no edges,
    or all edges but gaps at least n+2 apart."""
    top = len(sub.edges) - 1
    bit = {e: 1 << (top - j) for j, e in enumerate(sub.edges)}
    tables = []
    for arc in ambient_arcs(sub):
        full = sum(bit[e] for e in arc)
        tables.append({0} | {full - sum(bit[arc[k]] for k in gaps)
                             for gaps in _gap_sets(len(arc), n + 2)})
    return tables


def abrams_candidates(sub, n):
    """Oracle for _stage_candidates: the product of the candidate tables,
    by size, then by mask, descending, filtered by Abrams' test."""
    masks = sorted((sum(combo) for combo in itertools.product(*candidate_tables(sub, n))),
                   key=lambda m: (m.bit_count(), m), reverse=True)
    return [m for m in masks if is_sufficiently_subdivided(_mask_subgraph(sub, m), n)]


@pytest.mark.parametrize("name,sub,n", MASK_CASES,
                         ids=[f"{c[0]}-n{c[2]}" for c in MASK_CASES])
def test_mask_test_is_abrams_test_on_every_candidate(name, sub, n):
    got = _stage_candidates(SimpleNamespace(subdivided=sub, n=n))
    assert got == abrams_candidates(sub, n)
    assert got[-1] == 0


@st.composite
def stage_graphs(draw):
    """Small graphs with leaves and isolated vertices, and at will a cycle
    component and a closed arc at a branch vertex: a triangle hung at
    vertex 0 beside a leaf there."""
    size = draw(st.integers(1, 4))
    pairs = list(itertools.combinations(range(size), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)) if pairs else []
    g = make_graph(range(size), edges)
    if draw(st.booleans()):
        g = disjoint_union(g, family("cycle", draw(st.integers(3, 4))))
    if draw(st.booleans()):
        a, b, c = (max(g.vertices) + k for k in (1, 2, 3))
        g = make_graph([*g.vertices, a, b, c],
                       [*g.edges, (0, a), (a, b), (0, b), (0, c)])
    return g


@settings(max_examples=120, deadline=None)
@given(stage_graphs(), st.integers(1, 3), st.booleans())
def test_stage_candidates_match_the_filtered_product(g, n, subdivided):
    sub = _subdivided(g, n) if subdivided else g
    assume(math.prod(map(len, candidate_tables(sub, n))) <= 4000)
    assert _stage_candidates(SimpleNamespace(subdivided=sub, n=n)) == abrams_candidates(sub, n)


def test_stage_subgraphs_make_no_abrams_call(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return is_sufficiently_subdivided(*args, **kwargs)

    monkeypatch.setattr(generation, "is_sufficiently_subdivided", counted)
    ctx = build_ambient(theta_graph(), 1, 2, ordered=False)
    pred = stage_predicate("betti:1")
    got = _keys(_stage_subgraphs(ctx, pred))
    assert got == _keys(all_subsets_stage_subgraphs(ctx, pred)) and got
    assert calls == []


@pytest.mark.parametrize("g,stage", [(family("complete", 4), "robertson:2"),
                                     (theta_graph(), "betti:2"),
                                     (theta_graph(), "robertson:2"),
                                     (theta_graph(), "robertson:3")],
                         ids=["K4-robertson:2", "theta-betti:2", "theta-robertson:2",
                              "theta-robertson:3"])
def test_stage_subgraphs_return_g_when_it_passes(monkeypatch, g, stage):
    # G'' passes Abrams' test and the predicate, so no candidate is needed
    def search(ctx):
        raise AssertionError("_stage_candidates ran")

    monkeypatch.setattr(generation, "_stage_candidates", search)
    ctx = build_ambient(g, 1, 2, ordered=False)
    amb = ctx.subdivided
    assert _keys(_stage_subgraphs(ctx, stage_predicate(stage))) == [(amb.vertices, amb.edges)]


def test_stage_subgraphs_search_when_g_fails_abrams_test(monkeypatch):
    # the pendant graph as given has arcs of one edge, too short for n = 1
    calls = []
    search = generation._stage_candidates
    monkeypatch.setattr(generation, "_stage_candidates",
                        lambda ctx: calls.append(ctx) or search(ctx))
    ctx = SimpleNamespace(subdivided=pendant_graph(), n=1)
    assert not is_sufficiently_subdivided(ctx.subdivided, 1)
    for stage in STAGES:
        pred = stage_predicate(stage)
        assert _keys(_stage_subgraphs(ctx, pred)) == _keys(
            all_subsets_stage_subgraphs(ctx, pred)), stage
    assert len(calls) == len(STAGES)


def leaked_functions(module, *calls):
    """The functions of module that the calls leave in unreachable cycles.
    A recursive closure refers to itself; left in place, each call would
    leave a cycle, with all it holds, for the cyclic collector."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for call in calls:
            call()
        gc.collect()
        return [f.__qualname__ for f in gc.garbage
                if isinstance(f, types.FunctionType) and f.__module__ == module.__name__]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_generation_leaves_no_cycle_of_its_functions():
    ctx = build_ambient(theta_graph(), 1, 2, ordered=False)
    assert leaked_functions(
        generation,
        lambda: generator_images(ctx, family("star", 3)),
        lambda: _stage_subgraphs(ctx, stage_predicate("betti:1"))) == []


def test_morphisms_leave_no_cycle_of_their_functions():
    # the witness walk of iter_tm runs to its first morphism, and the
    # Robertson stage abandons each topological-minor search part way
    ctx = build_ambient(theta_graph(), 1, 2, ordered=False)
    assert leaked_functions(
        morphisms,
        lambda: generator_images(ctx, family("star", 3)),
        lambda: _stage_subgraphs(ctx, stage_predicate("robertson:2"))) == []


# -- subgraph images against the chain-map oracle --------------------------------


def _arc_unions(sub, rng, count):
    """Random unions of ambient arcs, half of them with one edge dropped so
    that some subgraphs have leaves."""
    arcs = ambient_arcs(sub)
    out = []
    for k in range(count):
        edges = [e for arc in rng.sample(arcs, rng.randint(1, len(arcs))) for e in arc]
        if k % 2:
            edges.remove(rng.choice(edges))
        if edges:
            out.append(sub.subgraph(edges))
    return out


IMAGE_ORACLE_CASES = [
    # (name, graph, i, n, extra, ordered)
    ("K4-ordered", family("complete", 4), 1, 2, 0, True),
    ("K4-ordered", family("complete", 4), 2, 2, 0, True),
    ("theta", theta_graph(), 0, 2, 0, False),
    ("theta", theta_graph(), 2, 3, 0, False),
    ("C4-ordered", family("cycle", 4), 1, 2, 1, True),
    ("K33", family("complete_bipartite", 3, 3), 1, 2, 0, False),
    # H_2 is 0 in the K4 and theta cases above; here it is Z and Z^3
    ("K33-ordered", family("complete_bipartite", 3, 3), 2, 2, 0, True),
    ("K4", family("complete", 4), 2, 3, 0, False),
    # unordered complexes in degree 1, where the image comes from a forest
    ("theta", theta_graph(), 1, 3, 0, False),
    ("K4", family("complete", 4), 1, 2, 1, False),
    # Z/2 in H_1, so the cocycle table has a torsion coordinate
    ("K5", family("complete", 5), 1, 2, 0, False),
    # above the top degree: D_n(H) has no i-cells and the index no list for i
    ("theta", theta_graph(), 3, 2, 0, False),
]


@pytest.mark.parametrize("name,g,i,n,extra,ordered", IMAGE_ORACLE_CASES,
                         ids=[f"{c[0]}-i{c[2]}-n{c[3]}-extra{c[4]}"
                              for c in IMAGE_ORACLE_CASES])
def test_image_of_subgraph_matches_the_chain_map(name, g, i, n, extra, ordered):
    ctx = build_ambient(g, i, n, extra, ordered=ordered)
    for h in _arc_unions(ctx.subdivided, random.Random(f"{name}-{i}"), 8):
        assert ctx.image_of_subgraph(h) == image_by_chain_map(ctx, h), h.edges
    whole = ctx.image_of_subgraph(ctx.subdivided)
    assert whole.is_full() and whole == image_by_chain_map(ctx, ctx.subdivided)


FOREST_CASES = [
    # (name, graph, n, extra, ordered)
    ("theta", theta_graph(), 2, 0, False),
    ("theta-ordered", theta_graph(), 2, 0, True),
    ("K4", family("complete", 4), 3, 0, False),
    ("K33-ordered", family("complete_bipartite", 3, 3), 2, 0, True),
    ("C3+star3", disjoint_union(family("cycle", 3), family("star", 3)), 3, 0, False),
    ("lollipop-ordered", lollipop(), 2, 1, True),
    ("star3-ordered", family("star", 3), 3, 0, True),
]


def _inside(ctx, h):
    """The 1-cells of D_n(G'') inside the subgraph h."""
    slots = {("e", *e) for e in h.edges} | {("v", v) for v in h.vertices}
    return [j for j, cell in enumerate(ctx.complex.cells[1]) if set(cell) <= slots]


def _cut(sub):
    """G'' without the middle edge of each arc: leaves and several components."""
    return sub.subgraph([e for arc in ambient_arcs(sub) for e in arc
                         if e != arc[len(arc) // 2]])


@pytest.mark.parametrize("name,g,n,extra,ordered", FOREST_CASES,
                         ids=[f"{c[0]}-n{c[2]}-extra{c[3]}" for c in FOREST_CASES])
def test_forest_cycles_are_a_basis_of_the_subgraph_cycles(name, g, n, extra, ordered):
    ctx = build_ambient(g, 1, n, extra, ordered=ordered)
    rows, coeffs = ctx.complex.chain.columns(1)
    cut = _cut(ctx.subdivided)
    assert min(map(cut.degree, cut.vertices)) == 1 and components(cut.edges, cut.vertices) > 1
    subgraphs = _arc_unions(ctx.subdivided, random.Random(name), 8) + [cut, ctx.subdivided]
    for h in subgraphs:
        inside = _inside(ctx, h)
        cycles = forest_cycles((rows, coeffs), inside)
        # each vector is a cycle of d_1 on the cells inside h
        for z in cycles:
            assert set(z) <= set(inside)
            boundary: dict = {}
            for j, c in z.items():
                for r, v in zip(rows[j], coeffs[j]):
                    boundary[r] = boundary.get(r, 0) + c * v
            assert not any(boundary.values()), z
        # as many as the nullity of d_1 on those columns
        entries = {(r, c): v for c, j in enumerate(inside) for r, v in zip(rows[j], coeffs[j])}
        res = snf(entries, (ctx.complex.chain.rank(0), len(inside)), track_v=True)
        assert len(cycles) == len(res.kernel_basis())
        # each holds exactly one cell outside the forest, first, with coefficient 1;
        # the forest spans the cells inside h and has no cycle
        own = [next(iter(z)) for z in cycles]
        forest = set(inside) - set(own)
        assert len(set(own)) == len(own) and all(z[j] == 1 for z, j in zip(cycles, own))
        assert all(set(z) - {j} <= forest for z, j in zip(cycles, own))
        touched = {r for j in inside for r in rows[j]}
        assert (components([rows[j] for j in forest], touched)
                == len(touched) - len(forest)
                == components([rows[j] for j in inside], touched))


def test_degree_1_image_runs_no_snf(monkeypatch):
    ctx = build_ambient(family("complete", 4), 1, 2, 1, ordered=False)
    expected = [image_by_chain_map(ctx, h)
                for h in _arc_unions(ctx.subdivided, random.Random("no-snf"), 6)]

    def refuse(*args, **kwargs):
        raise AssertionError("snf called for a degree-1 image")

    monkeypatch.setattr(generation, "snf", refuse)
    got = [ctx.image_of_subgraph(h)
           for h in _arc_unions(ctx.subdivided, random.Random("no-snf"), 6)]
    assert got == expected


def test_degree_1_image_writes_no_cycle_in_normal_coordinates(monkeypatch):
    # the cocycle table replaces cycle_to_normal and kernel_coords per cycle
    ctx = build_ambient(family("complete", 5), 1, 2, ordered=False)
    subgraphs = _arc_unions(ctx.subdivided, random.Random("no-cycles"), 6)
    expected = [image_by_chain_map(ctx, h) for h in subgraphs]

    def refuse(*args, **kwargs):
        raise AssertionError("a cycle written in coordinates for a degree-1 image")

    monkeypatch.setattr(HomologyPresentation, "cycle_to_normal", refuse)
    monkeypatch.setattr(SNFResult, "kernel_coords", refuse)
    assert [ctx.image_of_subgraph(h) for h in subgraphs] == expected


# the ambients of the cocycle table test: K4'', theta'' and C4'' as in the
# perfbench jobs, and K5'' and K3,3'', whose H_1 has Z/2 torsion; each built
# once, on first use
COCYCLE_AMBIENTS = {
    "K4": (family("complete", 4), 2),
    "theta": (theta_graph(), 2),
    "C4": (family("cycle", 4), 3),
    "K5": (family("complete", 5), 2),
    "K33": (family("complete_bipartite", 3, 3), 2),
}


@functools.cache
def _cocycle_ambient(name):
    g, n = COCYCLE_AMBIENTS[name]
    return build_ambient(g, 1, n, ordered=False)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(COCYCLE_AMBIENTS)), st.integers(0, 3), st.randoms())
def test_cocycle_table_matches_the_forest_cycles(name, kind, rng):
    ctx = _cocycle_ambient(name)
    pres, sub = ctx.pres, ctx.subdivided
    if kind == 0:
        h = sub.subgraph([e for e in sub.edges if rng.random() < 0.7])
    elif kind == 1:
        h = _arc_unions(sub, rng, 1)[0]
    else:
        h = _cut(sub) if kind == 2 else sub
    inside = _inside(ctx, h)
    cycles = forest_cycles(ctx.complex.chain.columns(1), inside)
    assert pres.image_of_cells(inside) == cycle_image_subgroup(pres, cycles)
    # phi(z) is cycle_to_normal(z), on the basis and on a random combination
    table = pres.cocycle_table
    zero = (0,) * pres.dim
    combination: dict = {}
    for z in cycles:
        x = rng.randint(-2, 2)
        for j, v in z.items():
            combination[j] = combination.get(j, 0) + x * v
    for z in cycles + [{j: v for j, v in combination.items() if v}]:
        phi = [sum(v * (table[j] or zero)[k] for j, v in z.items()) for k in range(pres.dim)]
        assert {k: x for k, x in enumerate(phi) if x} == pres.cycle_to_normal(z)



# -- generator images against the per-morphism loop ------------------------------


def per_morphism_generator_images(ctx, gen):
    """Reference for generator_images: Abrams' test on every morphism's
    image, then deduplication by (vertices, edges)."""
    images: dict = {}
    count = 0
    witness = None
    for rho in iter_tm(gen, ctx.subdivided, kind="tm"):
        count += 1
        img = rho.image_subgraph()
        if not is_sufficiently_subdivided(img, ctx.n):
            continue
        if witness is None:
            witness = rho
        images.setdefault((img.vertices, img.edges), img)
    return list(images.values()), count, witness


def _sorted_keys(subgraphs):
    # image order is not part of the result: only the span of the images is
    return sorted(_keys(subgraphs))


C3 = family("cycle", 3)
STAR3 = family("star", 3)
K1 = make_graph([0], [])
K2 = family("path", 2)
GENERATORS = {"C3": C3, "star3": STAR3, "theta": smooth(theta_graph()),
              "C3+C3": disjoint_union(C3, C3), "C4": family("cycle", 4),
              "K2": K2, "K2+K1": disjoint_union(K2, K1), "K2+K2": disjoint_union(K2, K2),
              "star3+K1": disjoint_union(STAR3, K1), "P3": family("path", 3),
              "lollipop": lollipop(), "K1+K1": disjoint_union(K1, K1)}
# the generate workload: (target, n, extra subdivision, generator, morphisms, images)
GENERATE_CASES = [
    ("K4", family("complete", 4), 2, 1, "C3", 15360, 7),
    ("theta", theta_graph(), 2, 0, "star3", 2940, 54),
    ("theta", theta_graph(), 2, 0, "C3", 2328, 3),
    ("C4", family("cycle", 4), 3, 0, "C3", 3360, 1),
    ("star3", family("star", 3), 3, 0, "star3", 384, 1),
]


def _generate_case(name, g, n, extra, gen, morphisms, distinct):
    """A GENERATE_CASES row as (G'', n, generator, morphisms, images)."""
    return pytest.param(subdivide_uniform(g, subdivision_pieces(n, extra)), n, gen,
                        morphisms, distinct, id=f"{name}-n{n}-extra{extra}-{gen}")


IMAGE_CASES = [_generate_case(*c) for c in GENERATE_CASES] + [
    # leafless generators beyond C3, on G'' as given
    pytest.param(subdivide_uniform(family("complete", 4), 3), 2, "theta", 1080, 6,
                 id="K4-sub3-n2-theta"),
    # a cycle component of G'' is one closed ambient arc
    pytest.param(subdivide_uniform(disjoint_union(theta_graph(), C3), 3), 2, "C3", 2832, 4,
                 id="theta+C3-sub3-n2-C3"),
    # two components; the two unions with a triangle fail Abrams' test at
    # n=3 and still count
    pytest.param(disjoint_union(theta_graph(), family("cycle", 4)), 3, "C3+C3", 1728, 1,
                 id="theta+C4-n3-C3+C3"),
    # an unsmoothed generator: C4 does not map onto theta's triangles
    pytest.param(theta_graph(), 2, "C4", 8, 1, id="theta-n2-C4"),
    # generators with a leaf or an isolated vertex; C3'' is one closed arc,
    # so these segments have both ends inside it
    pytest.param(subdivide_uniform(C3, 3), 2, "K2", 144, 54, id="C3''-n2-K2"),
    pytest.param(subdivide_uniform(C3, 3), 2, "K2+K1", 504, 135, id="C3''-n2-K2+K1"),
    pytest.param(subdivide_uniform(STAR3, 3), 2, "K2+K1", 534, 132, id="star3''-n2-K2+K1"),
    pytest.param(subdivide_uniform(theta_graph(), 2), 1, "star3+K1", 924, 12,
                 id="theta''-n1-star3+K1"),
    # no edge: 2! bijections onto each pair of vertices
    pytest.param(subdivide_uniform(C3, 3), 2, "K1+K1", 72, 36, id="C3''-n2-K1+K1"),
    # an unsmoothed generator with leaves: its arc has an interior vertex
    pytest.param(subdivide_uniform(STAR3, 3), 2, "P3", 186, 27, id="star3''-n2-P3"),
    pytest.param(subdivide_uniform(lollipop(), 3), 2, "lollipop", 168, 1,
                 id="lollipop''-n2-lollipop"),
    # G'' fails Abrams' test, so each image is tested, and none passes
    pytest.param(theta_graph(), 3, "star3", 12, 0, id="theta-n3-star3"),
    # a cycle component beside a loop arc and a leaf
    pytest.param(disjoint_union(lollipop(), family("cycle", 4)), 2, "K2+K2", 1080, 8,
                 id="lollipop+C4-n2-K2+K2"),
]


def _leafless(gen):
    return all(gen.degree(v) >= 2 for v in gen.vertices)


@pytest.mark.parametrize("sub,n,gen,morphisms,distinct", IMAGE_CASES)
def test_generator_images_match_per_morphism_loop(sub, n, gen, morphisms, distinct):
    ctx = SimpleNamespace(subdivided=sub, n=n)
    images, count, witness = generator_images(ctx, GENERATORS[gen])
    ref_images, ref_count, ref_witness = per_morphism_generator_images(ctx, GENERATORS[gen])
    assert _sorted_keys(images) == _sorted_keys(ref_images)
    assert count == ref_count == morphisms
    assert len(images) == distinct
    assert witness == ref_witness and (witness is not None) == (distinct > 0)


def test_generator_images_witness_skips_a_failing_first_image():
    # on unsubdivided theta at n=3 the first morphism's image is a 3-edge
    # cycle, too short for Abrams' test, so the witness comes later
    ctx = SimpleNamespace(subdivided=theta_graph(), n=3)
    c3 = GENERATORS["C3"]
    first = next(iter_tm(c3, ctx.subdivided, kind="tm"))
    assert not is_sufficiently_subdivided(first.image_subgraph(), ctx.n)
    images, count, witness = generator_images(ctx, c3)
    ref_images, ref_count, ref_witness = per_morphism_generator_images(ctx, c3)
    assert (_sorted_keys(images), count, witness) == (
        _sorted_keys(ref_images), ref_count, ref_witness)
    assert witness is not None and witness != first


def test_generators_without_edges_keep_their_counts():
    # generators with no edge take every morphism, as before; K4 at n=2
    # has 16 vertices after subdivision
    ctx = SimpleNamespace(subdivided=subdivide_uniform(family("complete", 4), 3), n=2)
    images, count, witness = generator_images(ctx, SimpleGraph((0,), ()))
    assert (count, len(images)) == (16, 16)
    assert witness.rho_v == {0: 0}
    images, count, witness = generator_images(ctx, SimpleGraph((), ()))
    assert (count, len(images)) == (1, 1)
    assert witness.to_json_obj() == {"rho_V": {}, "rho_E": {}}


def onto_count_by_morphisms(gen, h):
    """Reference for _onto_count: walk every morphism gen -> h and keep the
    ones whose paths cover all edges of h (with |V| - |E| equal, they then
    cover every vertex too)."""
    if len(gen.vertices) - len(gen.edges) != len(h.vertices) - len(h.edges):
        return 0
    return sum(1 for rho in iter_tm(gen, h, kind="tm")
               if sum(len(p.edges) for _, p in rho.rho_e_items) == len(h.edges))


def onto_count(gen, h):
    return _onto_count(_arc_profile(gen), _arc_profile(h))


@pytest.mark.parametrize("sub,n,gen,morphisms,distinct", IMAGE_CASES)
def test_onto_count_is_the_subdivision_count(sub, n, gen, morphisms, distinct):
    ctx = SimpleNamespace(subdivided=sub, n=n)
    images, _, _ = generator_images(ctx, GENERATORS[gen])
    assert len(images) == distinct
    for h in images:
        assert onto_count(GENERATORS[gen], h) == len(
            enumerate_tm(GENERATORS[gen], h, kind="subdivision"))


@pytest.mark.parametrize("sub,n,gen,morphisms,distinct", IMAGE_CASES)
def test_onto_count_matches_morphisms_on_every_union_of_arcs(sub, n, gen, morphisms,
                                                              distinct):
    # every union, homeomorphic to the generator or not
    arcs = ambient_arcs(sub)
    for size in range(1, len(arcs) + 1):
        for combo in itertools.combinations(arcs, size):
            h = sub.subgraph([e for arc in combo for e in arc])
            assert onto_count(GENERATORS[gen], h) == onto_count_by_morphisms(
                GENERATORS[gen], h), h


def test_degree_1_image_rejects_a_d1_that_is_no_incidence_matrix():
    ctx = build_ambient(family("cycle", 3), 1, 2, ordered=False)
    rows, coeffs = ctx.complex.chain.columns(1)
    coeffs[0] = [1, 1]
    with pytest.raises(InvariantError):
        ctx.image_of_subgraph(ctx.subdivided)


# a generator with a leaf or an isolated vertex has images that are not
# unions of whole arcs
@pytest.mark.parametrize("sub,n,gen,morphisms,distinct",
                         [c for c in IMAGE_CASES if _leafless(GENERATORS[c.values[2]])])
def test_unions_of_arcs_pass_abrams_test_when_the_ambient_does(sub, n, gen, morphisms,
                                                               distinct):
    # each arc or cycle component of a union runs through whole ambient arcs,
    # so a union passes when G'' does; a G'' that fails has a short arc, which
    # fails by itself
    arcs = ambient_arcs(sub)
    unions = [sub.subgraph([e for arc in combo for e in arc])
              for size in range(1, len(arcs) + 1)
              for combo in itertools.combinations(arcs, size)]
    assert any(onto_count(GENERATORS[gen], h) for h in unions)
    assert all(is_sufficiently_subdivided(h, n) for h in unions) == (
        is_sufficiently_subdivided(sub, n))


@pytest.mark.parametrize("name,g,n,extra", [c[:4] for c in GENERATE_CASES],
                         ids=[f"{c[0]}-n{c[2]}-extra{c[3]}-{c[4]}" for c in GENERATE_CASES])
def test_every_ambient_of_build_ambient_passes_abrams_test(name, g, n, extra):
    assert is_sufficiently_subdivided(build_ambient(g, 1, n, extra).subdivided, n)


def _profile_key(profile):
    # the order of parallel arcs, of legs and of components is not part of a profile
    return (profile.inner, {k: sorted(v) for k, v in profile.arcs.items()},
            {k: sorted(v) for k, v in profile.legs.items()},
            sorted(profile.paths), sorted(profile.cycles))


@pytest.mark.parametrize("sub,n,gen,morphisms,distinct", IMAGE_CASES)
def test_candidate_profiles_match_the_built_subgraph(sub, n, gen, morphisms, distinct):
    # the profile joined from a candidate's pieces is the one walked on the
    # subgraph it spans, and its Abrams verdict is is_sufficiently_subdivided's
    core = GENERATORS[gen].subgraph(GENERATORS[gen].edges)
    candidates = list(_image_candidates(sub, core, n))
    assert candidates or not core.edges
    for edges, profile, sufficient in candidates:
        h = sub.subgraph(edges)
        assert _profile_key(profile) == _profile_key(_arc_profile(h)), edges
        assert sufficient == is_sufficiently_subdivided(h, n), edges


IMAGE_CORES = {"P2": K2, "P3": family("path", 3), "star3": STAR3, "C3": C3,
               "P3+P3": disjoint_union(family("path", 3), family("path", 3)),
               "C3+P2": disjoint_union(C3, K2)}


def _branch_degrees(edges):
    """The degrees other than 0 and 2 of the vertices of an edge set."""
    return sorted(d for d in Counter(v for e in edges for v in e).values() if d != 2)


@settings(max_examples=60, deadline=None)
@given(stage_graphs(), st.sampled_from([1, 2, 3]))
def test_image_candidates_are_the_edge_sets_with_the_core_branch_degrees(g, pieces):
    # every edge set of G'' whose vertices of degree other than 0 and 2, with
    # their degrees, are those of core, each once
    sub = subdivide_uniform(g, pieces)
    assume(len(sub.edges) <= 12)
    by_degrees: dict = {}
    for size in range(len(sub.edges) + 1):
        for edges in itertools.combinations(sub.edges, size):
            by_degrees.setdefault(tuple(_branch_degrees(edges)), set()).add(frozenset(edges))
    for name, core in IMAGE_CORES.items():
        got = [frozenset(edges) for edges, _, _ in _image_candidates(sub, core, 1)]
        assert len(got) == len(set(got)), name
        assert set(got) == by_degrees.get(tuple(_branch_degrees(core.edges)), set()), name


@pytest.mark.parametrize("sub,gen,images", [
    pytest.param(subdivide_uniform(family("complete", 4), 4), C3, 7, id="C3-on-K4"),
    pytest.param(subdivide_uniform(theta_graph(), 3), STAR3, 54, id="star3-on-theta"),
])
def test_generator_images_build_graphs_only_for_passing_images(monkeypatch, sub, gen,
                                                               images):
    calls, built = [], []
    subgraph = SimpleGraph.subgraph

    def counted_subgraph(g, *args):
        if g is sub:
            built.append(args)
        return subgraph(g, *args)

    monkeypatch.setattr(generation, "is_sufficiently_subdivided",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(SimpleGraph, "subgraph", counted_subgraph)
    ctx = SimpleNamespace(subdivided=sub, n=2)
    got, count, witness = generator_images(ctx, gen)
    assert len(got) == images and witness is not None
    assert calls == [] and len(built) == images
    # some candidates with an onto morphism fail Abrams' test for star3
    onto = sum(1 for _, profile, _ in _image_candidates(sub, gen, 2)
               if _onto_count(_arc_profile(gen), profile))
    assert onto == images if gen is C3 else onto > images


BOWTIE = make_graph(range(5), [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
ONTO_CASES = [
    # two loop arcs at one vertex: 2 matchings, each loop 2 * C(5, 2) ways
    pytest.param(BOWTIE, subdivide_uniform(BOWTIE, 2), 800, id="bowtie-loops"),
    # a loop arc and a leaf: 2 * C(8, 2) ways round the loop, one on the stem
    pytest.param(lollipop(), subdivide_uniform(lollipop(), 3), 56, id="lollipop-leaf"),
    # |V| - |E| differs, so nothing is onto
    pytest.param(disjoint_union(C3, C3), disjoint_union(theta_graph(), family("cycle", 4)),
                 0, id="C3+C3-into-theta+C4"),
    pytest.param(family("cycle", 4), theta_graph(), 0, id="C4-onto-theta"),
    # one placement per automorphism
    pytest.param(family("complete", 4), subdivide_uniform(family("complete", 4), 3), 24,
                 id="K4-onto-K4''"),
]


@pytest.mark.parametrize("g", [family("path", 5), family("cycle", 5),
                               subdivide_uniform(lollipop(), 2)], ids=["P5", "C5", "lollipop''"])
def test_arc_patterns_list_each_subset_once(g):
    # every edge subset of an arc with at most `budget` leaves inside it (at
    # vertices of degree 2 in g), once, with its maximal runs of edges as
    # pieces
    for arc in ambient_arcs(g):
        walk = _arc_walk(arc)
        assert [norm_edge(a, b) for a, b in zip(walk, walk[1:])] == arc
        ends = (walk[0], walk[-1]) if g.degree(walk[0]) != 2 else ()
        for budget in range(5):
            want = []
            for mask in range(2 ** len(arc)):
                edges = tuple(e for k, e in enumerate(arc) if mask >> k & 1)
                runs = [list(run) for kept, run in itertools.groupby(
                    range(len(arc)), key=lambda k: mask >> k & 1) if kept]
                pieces = [(len(run), walk[run[0]], walk[run[-1] + 1]) for run in runs]
                inside = sum(1 for v in g.vertices if g.degree(v) == 2
                             and sum(v in e for e in edges) == 1)
                if inside <= budget:
                    want.append((edges, pieces, inside))
            assert sorted(_arc_patterns(arc, walk, ends, budget)) == sorted(want)


THETA3 = subdivide_uniform(theta_graph(), 3)
# its arcs of 3, 6 and 6 edges, each walked from vertex 0 to vertex 1
SHORT, LEFT, RIGHT = sorted(ambient_arcs(THETA3), key=len)
C3_ARC, = ambient_arcs(subdivide_uniform(C3, 3))
LOLLIPOP3 = subdivide_uniform(lollipop(), 3)
LOOP, STEM = ambient_arcs(LOLLIPOP3)  # 9 edges from vertex 2 round to it, and 3
ONTO_CASES += [
    # stubs, off the unions of whole arcs: legs of 2 and 2 edges end inside
    # arcs, and the third runs through vertex 1, a branch vertex of G'' with
    # H-degree 2, into the last 2 edges of an arc
    pytest.param(STAR3, THETA3.subgraph(SHORT + LEFT[:2] + RIGHT[:2] + RIGHT[-2:]), 6,
                 id="star3-stub-through-a-branch-vertex"),
    # the loop arc as in lollipop-leaf, and a stem cut short to a stub
    pytest.param(lollipop(), LOLLIPOP3.subgraph(LOOP + STEM[:2]), 56, id="lollipop-stub"),
    # two segments on one arc: 2 matchings of the components, 2 directions each
    pytest.param(disjoint_union(K2, K2), THETA3.subgraph(LEFT[1:3] + LEFT[4:5]), 8,
                 id="K2+K2-two-segments-on-an-arc"),
    # a segment inside a closed arc, 2 directions, and a vertex off it
    pytest.param(disjoint_union(K2, K1),
                 subdivide_uniform(C3, 3).subgraph(C3_ARC[1:4], [C3_ARC[6][0]]), 2,
                 id="K2+K1-segment-and-vertex"),
    # two isolated vertices: 2! bijections
    pytest.param(disjoint_union(disjoint_union(K2, K1), K1),
                 THETA3.subgraph(SHORT, [LEFT[2][0], RIGHT[2][0]]), 4,
                 id="K2+K1+K1-arc-and-two-vertices"),
]

# a star with legs of 1, 2 and 3 edges, an unsmoothed generator
SPIDER = make_graph(range(7), [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
# two inner vertices joined by an edge, with two leaves each
H_GRAPH = make_graph(range(6), [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
ONTO_CASES += [
    # legs of 1, 2 and 3 edges onto legs of 3, 4 and 5: no closed form, so
    # the permanent of C(L - 1, m - 1) is summed over the 3! leg matchings
    pytest.param(SPIDER, subdivide(SPIDER, {(0, 1): 2, (0, 2): 1, (2, 3): 1, (4, 5): 2}),
                 55, id="spider-unequal-legs"),
    # 2 choices of phi on the inner vertices, 2! leg matchings at each
    pytest.param(H_GRAPH, subdivide_uniform(H_GRAPH, 2), 8, id="H-graph"),
    # path components of 2 and 1 edges onto segments of 3 and 4, each either
    # way round: 2 C(2, 1) 2 C(3, 0) + 2 C(3, 1) 2 C(2, 0)
    pytest.param(disjoint_union(family("path", 3), K2), THETA3.subgraph(LEFT[1:4] + RIGHT[1:5]),
                 20, id="P3+K2-onto-two-segments"),
    # the stub of lollipop-stub is a leg, beside vertex 3, the leaf it cut off
    pytest.param(disjoint_union(lollipop(), K1), LOLLIPOP3.subgraph(LOOP + STEM[:2], [3]),
                 56, id="lollipop+K1-leg-beside-a-vertex"),
    # either way round, ends fixed
    pytest.param(K2, family("path", 5), 2, id="K2-onto-P5"),
]


@pytest.mark.parametrize("gen,h,expected", ONTO_CASES)
def test_onto_count_named_cases(gen, h, expected):
    assert onto_count(gen, h) == onto_count_by_morphisms(gen, h) == expected


# theta'' and K4'' at n = 2: arcs of 3, 6 and 6 edges, and six arcs of 3
ONTO_AMBIENTS = {"theta": _subdivided(theta_graph(), 2),
                 "K4": _subdivided(family("complete", 4), 2)}


@st.composite
def onto_pairs(draw):
    """(gen, h): h a union of up to 3 arcs of theta'' or K4'', each whole,
    cut to a stub at its first end, or cut to a segment, with up to 2
    vertices off it; gen a random graph on <= 6 vertices, or, so that it
    often maps onto h, h smoothed, relabeled and subdivided again up to 6
    vertices."""
    sub = ONTO_AMBIENTS[draw(st.sampled_from(sorted(ONTO_AMBIENTS)))]
    arcs = ambient_arcs(sub)
    edges = []
    for a in draw(st.sets(st.integers(0, len(arcs) - 1), min_size=1, max_size=3)):
        cut = draw(st.integers(0, 2))  # whole, a stub from its first end, or a segment
        start = draw(st.integers(0, len(arcs[a]) - 1)) if cut == 2 else 0
        edges += arcs[a][start:draw(st.integers(start + 1, len(arcs[a]))) if cut else None]
    h = sub.subgraph(edges)
    off = [v for v in sub.vertices if v not in h.vertex_set]
    if off:
        h = sub.subgraph(edges, draw(st.lists(st.sampled_from(off), max_size=2, unique=True)))
    gen = smooth(h).relabeled()
    if len(gen.vertices) > 6 or draw(st.booleans()):
        k = draw(st.integers(1, 6))
        pairs = list(itertools.combinations(range(k), 2))
        return make_graph(range(k), draw(st.sets(st.sampled_from(pairs))) if pairs else ()), h
    spare = 6 - len(gen.vertices)
    if gen.edges and spare:
        gen = subdivide(gen, draw(st.dictionaries(st.sampled_from(gen.edges),
                                                  st.integers(1, spare), max_size=1)))
    return gen, h


@settings(max_examples=80, deadline=None)
@given(onto_pairs())
def test_onto_count_matches_morphisms_on_random_pairs(pair):
    gen, h = pair
    assert onto_count(gen, h) == onto_count_by_morphisms(gen, h)


@st.composite
def bijection_rows(draw):
    """(src, dst) with repeated values: of one length or not, either side
    empty, or all one value."""
    k = draw(st.integers(0, 5))

    def side(top):
        if draw(st.booleans()):
            return [draw(st.integers(1, top))] * k
        return draw(st.lists(st.integers(1, top), min_size=k, max_size=k))

    src, dst = side(3), side(5)
    if draw(st.integers(0, 3)) == 0:
        dst = draw(st.lists(st.integers(1, 5), max_size=5))
    return src, dst


@settings(max_examples=300, deadline=None)
@given(bijection_rows(), st.sampled_from([_arc_ways, _turn_ways, _cycle_ways]))
def test_bijections_match_the_permutation_sum(rows, ways):
    src, dst = rows
    want = sum(math.prod(map(ways, src, perm)) for perm in itertools.permutations(dst))
    assert _bijections(src, dst, ways) == (want if len(src) == len(dst) else 0)


def test_star_onto_count_makes_as_many_bijection_sums_for_any_number_of_legs(monkeypatch):
    # the legs of the centre are matched by one closed-form sum, and no
    # search runs over the leaves
    calls = []

    def counted(*args):
        calls.append(args)
        return _bijections(*args)

    monkeypatch.setattr(generation, "_bijections", counted)
    made = {}
    for k in range(3, 7):
        calls.clear()
        star = family("star", k)
        assert onto_count(star, subdivide_uniform(star, 3)) == math.factorial(k)
        made[k] = len(calls)
    assert len(set(made.values())) == 1, made


def _count_iter_tm_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return iter_tm(*args, **kwargs)

    monkeypatch.setattr(generation, "iter_tm", counted)
    return calls


def test_leafless_generator_walks_iter_tm_only_for_the_witness(monkeypatch):
    calls = _count_iter_tm_calls(monkeypatch)
    ctx = SimpleNamespace(subdivided=subdivide_uniform(family("complete", 4), 4), n=2)
    images, count, witness = generator_images(ctx, C3)
    assert (count, len(images)) == (15360, 7) and witness is not None
    assert len(calls) == 1


def test_leafless_generator_with_no_passing_image_never_walks_iter_tm(monkeypatch):
    calls = _count_iter_tm_calls(monkeypatch)
    # theta's cycles have 3, 3 and 4 edges, too short for Abrams' test at n = 4
    ctx = SimpleNamespace(subdivided=theta_graph(), n=4)
    images, count, witness = generator_images(ctx, C3)
    assert images == [] and witness is None and count > 0
    assert calls == []


def test_leaf_generator_walks_iter_tm_only_for_the_witness(monkeypatch):
    calls = _count_iter_tm_calls(monkeypatch)
    ctx = SimpleNamespace(subdivided=THETA3, n=2)
    images, count, witness = generator_images(ctx, STAR3)
    assert (count, len(images)) == (2940, 54) and witness is not None
    assert len(calls) == 1


def test_leaf_generator_with_no_passing_image_never_walks_iter_tm(monkeypatch):
    calls = _count_iter_tm_calls(monkeypatch)
    # theta has 5 edges, so a star's shortest leg has 1, fewer than n+1 = 4
    ctx = SimpleNamespace(subdivided=theta_graph(), n=3)
    images, count, witness = generator_images(ctx, STAR3)
    assert images == [] and witness is None and count == 12
    assert calls == []


def _leaf_types():
    """(graph, generator) for every homeomorphism type with a leaf among the
    subgraphs of a connected graph with <= 4 vertices: 21 pairs on 9
    graphs.  The four whose per-morphism walk takes over 1 s each are
    left out: star3 and the paw on K4, and K2+K2 on K4 and on K4 - e."""
    slow = {(6, 4, 3), (6, 4, 4), (6, 4, 2), (5, 4, 2)}  # (|E(G)|, |V(gen)|, |E(gen)|)
    return [pytest.param(g, gen, id=f"{g.edges}-{gen.edges}")
            for g in _atlas_graphs(4, connected=True) if g.edges
            for gen in subgraph_homeomorphism_types(g).graphs if not _leafless(gen)
            if (len(g.edges), len(gen.vertices), len(gen.edges)) not in slow]


@pytest.mark.parametrize("g,gen", _leaf_types())
def test_leaf_types_match_per_morphism_loop(g, gen):
    ctx = SimpleNamespace(subdivided=subdivide_uniform(g, subdivision_pieces(2, 0)), n=2)
    images, count, witness = generator_images(ctx, gen)
    ref_images, ref_count, ref_witness = per_morphism_generator_images(ctx, gen)
    assert (_sorted_keys(images), count, witness) == (
        _sorted_keys(ref_images), ref_count, ref_witness)
    assert witness is not None
