"""Self-contained verification suite.

Each criterion is a function returning a CriterionResult; the CLI
`verify` command and tests/test_acceptance.py both run these.  Frozen
values live in golden/ next to this module.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from importlib import resources

from .cographs import (
    Cotree,
    cograph_of,
    cotree_of,
    is_cograph,
    lca_adjacency_graph,
)
from .discretized import build_discretized, is_sufficiently_subdivided
from .generation import (
    GeneratorList,
    betti_stage,
    brute_force_span,
    build_ambient,
    generation_check,
    image_by_chain_map,
    robertson_stage,
    subgraph_homeomorphism_types,
)
from .errors import InvariantError, NotAComplexError
from .graphs import (SimpleGraph, betti1, family, make_graph, subdivide_uniform,
                     subdivision_pieces, theta_graph)
from .homology import homology
from .morphisms import gtm_k_member, has_topological_minor, is_isomorphic
from .swiatkowski import verify_support_bound


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} [{status}] {self.name} ({self.seconds:.1f}s): {self.detail}"


def _timed(number: int, name: str, fn) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"exception: {exc!r}"
    return CriterionResult(number, name, passed, detail, time.perf_counter() - t0)


# -- corpora -------------------------------------------------------------------


def _atlas_graphs(max_vertices: int, connected: bool | None = None) -> list[SimpleGraph]:
    """All simple graphs up to max_vertices (from the networkx atlas)."""
    import networkx as nx

    out = []
    for g in nx.graph_atlas_g()[1:]:
        if g.number_of_nodes() > max_vertices:
            break
        if connected is True and (g.number_of_nodes() == 0 or not nx.is_connected(g)):
            continue
        out.append(make_graph(sorted(g.nodes()), [tuple(e) for e in g.edges()]))
    return out


def _invariance_targets() -> list[SimpleGraph]:
    return [family("star", 3), family("cycle", 3), theta_graph()]


# -- criteria ------------------------------------------------------------------


def criterion_1() -> CriterionResult:
    """Betti numbers of the discretized model are stable across extra
    subdivision levels beyond sufficiency."""

    def run():
        details = []
        for g in _invariance_targets():
            for n in (2, 3):
                seen = []
                for extra in range(3):
                    sub = subdivide_uniform(g, subdivision_pieces(n, extra))
                    if not is_sufficiently_subdivided(sub, n):
                        raise InvariantError(f"uniform subdivision not sufficient for n={n}")
                    cx = build_discretized(sub, n, ordered=False)
                    seen.append(homology(cx.chain).betti)
                if not seen[0] == seen[1] == seen[2]:
                    return False, f"betti drifted for n={n}: {seen}"
                details.append(f"n={n}:{seen[0]}")
        return True, "; ".join(details)

    return _timed(1, "subdivision invariance of Betti numbers", run)


def criterion_2() -> CriterionResult:
    """Boundary squares to zero and cell counts match Betti numbers in
    alternating sum, across the whole built corpus."""

    def run():
        complexes = []
        for g in _atlas_graphs(4):
            if not g.edges:
                continue
            for n in (1, 2):
                sub = subdivide_uniform(g, subdivision_pieces(n, 0))
                for ordered in (True, False):
                    complexes.append(build_discretized(sub, n, ordered))
        complexes.append(build_discretized(family("complete", 5), 2, ordered=False))
        complexes.append(build_discretized(family("cycle", 6), 2, ordered=True))
        if len(complexes) < 50:
            return False, f"corpus too small: {len(complexes)}"
        for cx in complexes:
            # homology() checks d^2 = 0 first: the unit-pair reduction
            # relies on it
            try:
                h = homology(cx.chain)
            except NotAComplexError:
                return False, "boundary does not square to zero"
            chi_cells = cx.euler_characteristic()
            chi_betti = sum((-1) ** d * b for d, b in enumerate(h.betti))
            if chi_cells != chi_betti:
                return False, f"Euler mismatch {chi_cells} vs {chi_betti}"
        return True, f"{len(complexes)} complexes checked"

    return _timed(2, "boundary and Euler sanity on the corpus", run)


def criterion_3() -> CriterionResult:
    """Classical small values, with the K_5 homology frozen as a golden file."""

    def trim(betti):
        out = list(betti)
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def run():
        k2 = build_discretized(family("complete", 2), 2, ordered=True)
        if trim(homology(k2.chain).betti) != (2,):
            return False, f"ordered D_2(K_2): {homology(k2.chain).betti}"
        c4 = build_discretized(family("cycle", 4), 2, ordered=True)
        if trim(homology(c4.chain).betti) != (1, 1):
            return False, f"ordered D_2(C_4): {homology(c4.chain).betti}"
        k5 = build_discretized(family("complete", 5), 2, ordered=False)
        if k5.cell_counts() != (10, 30, 15):
            return False, f"K_5 cells: {k5.cell_counts()}"
        if k5.euler_characteristic() != -5:
            return False, f"K_5 chi: {k5.euler_characteristic()}"
        golden = json.loads(
            resources.files("graphconf").joinpath("golden/k5_d2_unordered.json").read_text()
        )
        h = homology(k5.chain).to_json_obj()
        if h != golden:
            return False, f"K_5 homology {h} != golden {golden}"
        return True, f"K_5 betti {h['betti']} torsion {h['torsion']}"

    return _timed(3, "classical small configuration spaces", run)


def criterion_4() -> CriterionResult:
    """The leafed chain family is an antichain, and order-1 chain-freeness
    is exactly forestness on small connected graphs."""

    def run():
        reps = {k: family("robertson_chain_leaves", k) for k in (1, 2, 3)}
        for j, k in itertools.permutations((1, 2, 3), 2):
            if has_topological_minor(reps[j], reps[k]):
                return False, f"unexpected morphism {j} -> {k}"
        count = 0
        for g in _atlas_graphs(7, connected=True):
            if gtm_k_member(g, 1) != (betti1(g) == 0):
                return False, f"gtm_1 failed on {g.vertices}/{g.edges}"
            count += 1
        return True, f"antichain ok; gtm_1 = forest on {count} connected graphs"

    return _timed(4, "antichain and order-1 membership", run)


def criterion_5() -> CriterionResult:
    """Support bound on all small cographs."""

    def run():
        cographs = [g for g in _atlas_graphs(6) if is_cograph(g)]
        checked = 0
        worst = 0
        for g in cographs:
            for n in (1, 2, 3):
                for i in range(n + 1):
                    rep = verify_support_bound(g, i, n)
                    if not rep.ok:
                        return False, f"violations on {g.vertices}/{g.edges} i={i} n={n}"
                    checked += rep.cell_count
                    worst = max(worst, rep.max_support)
        return True, f"{len(cographs)} cographs, {checked} cells, max support {worst}"

    return _timed(5, "support subgraph bound on cographs", run)


def _enumerate_cotrees(max_leaves: int) -> list[Cotree]:
    """All valid cotrees with up to max_leaves leaves, one per shape, with
    leaf vertices assigned 0..k-1 in construction order."""
    shapes: dict[tuple[int, str], list] = {}

    def shapes_for(leaves: int, label: str) -> list:
        # a shape is ("L",) or (label, sorted tuple of child shapes)
        if (leaves, label) in shapes:
            return shapes[(leaves, label)]
        out = []
        if leaves == 1:
            out.append(("L",))
        else:
            child_label = "1" if label == "0" else "0"
            for parts in _multisets_summing(leaves):
                if len(parts) < 2:
                    continue
                child_lists = [
                    [s for s in shapes_for(p, child_label) if s == ("L",) or s[0] != label]
                    for p in parts
                ]
                for combo in itertools.product(*child_lists):
                    out.append((label, tuple(sorted(combo))))
        out = sorted(set(out))
        shapes[(leaves, label)] = out
        return out

    all_shapes = set()
    for leaves in range(1, max_leaves + 1):
        for label in ("0", "1"):
            for s in shapes_for(leaves, label):
                all_shapes.add(s)
    return [_cotree_from_shape(s) for s in sorted(all_shapes)]


def _multisets_summing(total: int):
    """Nonincreasing integer partitions of total."""
    def rec(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    return rec(total, total)


def _cotree_from_shape(shape) -> Cotree:
    labels = []
    children = []
    leaf_map = []
    counter = itertools.count()
    leaf_counter = itertools.count()

    def build(s) -> int:
        nid = next(counter)
        labels.append((nid, s[0]))
        if s[0] == "L":
            leaf_map.append((nid, next(leaf_counter)))
        else:
            kids = tuple(build(c) for c in s[1])
            children.append((nid, kids))
        return nid

    root = build(shape)
    return Cotree(tuple(sorted(labels)), tuple(sorted(children)), root, tuple(sorted(leaf_map)))


def criterion_6() -> CriterionResult:
    """Cotree round trips, uniqueness, and the induced-P_4-free oracle."""

    def run():
        # round trip over all cographs with <= 8 vertices (one per cotree shape)
        trees8 = _enumerate_cotrees(8)
        for t in trees8:
            g = cograph_of(t)
            if g != lca_adjacency_graph(t):
                return False, "LCA rule disagrees with the recursion"
            back = cograph_of(cotree_of(g))
            if not is_isomorphic(g, back):
                return False, f"round trip failed on {g.vertices}/{g.edges}"
        # uniqueness up to child order on exhaustive cotrees with <= 6 leaves
        for t in trees8:
            if len(t.leaf_map) > 6:
                continue
            t2 = cotree_of(cograph_of(t))
            if t2.canonical_form() != t.canonical_form():
                return False, "cotree not recovered up to child order"
        # recognizer vs induced-P_4 search on every graph with <= 7 vertices
        p4 = family("path", 4)
        count = 0
        for g in _atlas_graphs(7):
            has_p4 = any(
                is_isomorphic(g.induced(list(q)), p4)
                for q in itertools.combinations(g.vertices, 4)
            )
            if is_cograph(g) != (not has_p4):
                return False, f"recognizer disagrees on {g.vertices}/{g.edges}"
            count += 1
        return True, f"{len(trees8)} cotrees; {count} graphs cross-checked"

    return _timed(6, "cotree round trips and recognition oracle", run)


def criterion_7() -> CriterionResult:
    """Filtration stage containments and the circle's Betti stages; every
    stage subgraph's image agrees with the chain-map oracle."""

    def oracle_mismatch(ctx, g):
        # the stage spans cache one image per stage subgraph they used
        for vertices, edges in list(ctx._image_cache):
            h = SimpleGraph(vertices, edges)
            if ctx.image_of_subgraph(h) != image_by_chain_map(ctx, h):
                return f"image of {edges} differs from the chain-map image on {g.edges}"
        return None

    def run():
        targets = [family("cycle", 3), theta_graph(), family("complete", 4)]
        for g in targets:
            ctx = build_ambient(g, 1, 2, 0, ordered=False)
            b = {s: betti_stage(ctx, s) for s in (0, 1, 2)}
            r = {k: robertson_stage(ctx, k) for k in (1, 2, 3)}
            if mismatch := oracle_mismatch(ctx, g):
                return False, mismatch
            for s in (0, 1):
                if not b[s + 1].contains(b[s]):
                    return False, f"B_{s} not inside B_{s + 1} on {g.edges}"
            for k in (1, 2):
                if not r[k + 1].contains(r[k]):
                    return False, f"R_{k} not inside R_{k + 1} on {g.edges}"
            for k in (1, 2, 3):
                if not r[k].contains(b[k - 1]):
                    return False, f"B_{k - 1} not inside R_{k} on {g.edges}"
        c3 = family("cycle", 3)
        ctx = build_ambient(c3, 1, 2, 0, ordered=False)
        b0 = betti_stage(ctx, 0)
        b1_sub = betti_stage(ctx, 1)
        if mismatch := oracle_mismatch(ctx, c3):
            return False, mismatch
        if b0.free_rank() != 0:
            return False, f"circle B_0 has rank {b0.free_rank()}"
        if not b1_sub.is_full():
            return False, "circle B_1 is not the full group"
        return True, "containments hold on C_3, theta, K_4; circle stages as expected"

    return _timed(7, "filtration stage containments", run)


def criterion_8() -> CriterionResult:
    """Deduplicated generation span equals the brute-force span, and
    self-generation holds, on small connected graphs."""

    def run():
        circle = GeneratorList.of(family("cycle", 3))
        checked = 0
        for g in _atlas_graphs(5, connected=True):
            if not g.edges:
                continue
            ctx = build_ambient(g, 1, 2, 0, ordered=False)
            report = generation_check(ctx, circle)
            brute = brute_force_span(ctx, circle)
            if report.achieved != brute:
                return False, f"dedup span differs on {g.vertices}/{g.edges}"
            self_rep = generation_check(ctx, subgraph_homeomorphism_types(g))
            if not self_rep.is_generated:
                return False, f"self-generation failed on {g.vertices}/{g.edges}"
            checked += 1
        return True, f"{checked} connected graphs checked"

    return _timed(8, "generation oracle equivalence and self-generation", run)


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
}

SUITES = {
    "abrams": (1, 2, 3),
    "morphisms": (4,),
    "swiatkowski": (5,),
    "cograph": (6,),
    "filtrations": (7, 8),
    "all": (1, 2, 3, 4, 5, 6, 7, 8),
}


def run_suite(suite: str) -> list[CriterionResult]:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return [CRITERIA[k]() for k in SUITES[suite]]
