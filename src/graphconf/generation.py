"""Finite-generation checks for homology of graph configuration spaces.

Decides whether H_i of the n-strand configuration space of G is spanned
by classes supported on topological subgraphs homeomorphic to members of
a finite generator list, and computes the Betti-number and
Robertson-chain filtration stages for a fixed target graph.  Everything
is computed in the discretized model on a sufficiently subdivided copy
of G; a negative verdict is only valid for the subdivision level used,
which every report records.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .discretized import (
    CubicalComplex,
    build_discretized,
    edge_slot,
    inclusion_chain_map,
    is_sufficiently_subdivided,
    vertex_slot,
)
from .errors import BadParamsError, NotASubgraphError
from .graphs import SimpleGraph, ambient_arcs, betti1, subdivide_uniform, subdivision_pieces
from .homology import (
    HomologyPresentation,
    Subgroup,
    cycle_image_subgroup,
    presentation,
)
from .morphisms import (
    TopMinorMorphism,
    gtm_k_member,
    is_homeomorphic,
    is_isomorphic,
    iter_tm,
    smooth,
)
from .snf import snf


@dataclass(frozen=True)
class GeneratorList:
    graphs: tuple[SimpleGraph, ...]

    def __post_init__(self):
        for a, b in itertools.combinations(self.graphs, 2):
            if is_homeomorphic(a, b):
                raise BadParamsError("generator list contains homeomorphic entries")
        for g in self.graphs:
            if g != smooth(g):
                raise BadParamsError(
                    "generators must be minimal representatives (no degree-2 vertices)"
                )

    @staticmethod
    def of(*graphs: SimpleGraph) -> "GeneratorList":
        """Smooth the inputs to minimal representatives, then validate."""
        return GeneratorList(tuple(smooth(g) for g in graphs))


@dataclass
class AmbientContext:
    """The subdivided target graph with its complex and H_i presentation."""

    graph: SimpleGraph
    i: int
    n: int
    extra_subdivision: int
    ordered: bool
    subdivided: SimpleGraph
    complex: CubicalComplex
    pres: HomologyPresentation
    _image_cache: dict = field(default_factory=dict)

    def image_of_subgraph(self, h: SimpleGraph) -> Subgroup:
        """Image of H_i(D_n(H)) -> H_i(D_n(G'')) for a subgraph H.

        D_n(H) is the subcomplex of D_n(G'') spanned by the cells whose
        slots (edges and vertices) all lie in H: the faces of such a cell
        lie in H too, with the same boundary entries and signs.  So Z_i(H)
        is the kernel of the ambient d_i restricted to those columns, with
        the ambient rows, and the inclusion sends each of its vectors to
        itself.  The image is spanned by any Z-basis of Z_i(H): every
        i-cell of H in degree 0, and the kernel columns of a V-tracked SNF
        in degrees 2 and up.  ``Subgroup`` is canonical, so the basis
        chosen does not change the result.  In degree 1 no cycle is
        written out: ``HomologyPresentation.image_of_cells`` reads the
        image off the ambient's cocycle table and a spanning forest of
        H's 1-cells, and no SNF runs, as the ambient kernel is read off a
        spanning forest of D_n(G'')'s d_1 as well.
        ``image_by_chain_map`` builds D_n(H) instead and reindexes its
        cycles along ``inclusion_chain_map``; it is the oracle for this
        method."""
        key = (h.vertices, h.edges)
        cached = self._image_cache.get(key)
        if cached is not None:
            return cached
        if not h.is_subgraph_of(self.subdivided):
            raise NotASubgraphError("H is not a subgraph of G''")
        bits = self._slot_bits
        outside = ~(sum(bits[edge_slot(a, b)] for a, b in h.edges)
                    | sum(bits[vertex_slot(v)] for v in h.vertices))
        inside = [j for j, cell in enumerate(self._cell_bits) if not cell & outside]
        if self.i == 0:
            sub = cycle_image_subgroup(self.pres, [{j: 1} for j in inside])
        elif self.i == 1:
            sub = self.pres.image_of_cells(inside)
        else:
            rows, coeffs = self.complex.chain.columns(self.i)
            entries = {(r, c): v for c, j in enumerate(inside)
                       for r, v in zip(rows[j], coeffs[j])}
            res = snf(entries, (self.complex.chain.rank(self.i - 1), len(inside)),
                      track_v=True)
            cycles = [{inside[c]: v for c, v in vec.items()} for vec in res.kernel_basis()]
            sub = cycle_image_subgroup(self.pres, cycles)
        self._image_cache[key] = sub
        return sub

    @cached_property
    def _slot_bits(self) -> dict:
        """One bit per slot of D_n(G''), bit k for slot code k."""
        return {s: 1 << k for k, s in enumerate(self.complex.slots)}

    @cached_property
    def _cell_bits(self) -> list[int]:
        """The slots of each i-cell of D_n(G''), as bits of ``_slot_bits``."""
        cells = self.complex.cell_codes[self.i] if self.i <= self.n else ()
        return [sum(1 << c for c in cell) for cell in cells]


def image_by_chain_map(ctx: AmbientContext, h: SimpleGraph) -> Subgroup:
    """``AmbientContext.image_of_subgraph`` the long way, as its oracle:
    build D_n(H), take the kernel of its d_i from a V-tracked SNF (V = I
    when i = 0, as d_0 has no rows) and push it forward along the
    inclusion D_n(H) -> D_n(G''), which sends cell j to ``index[i][j]``."""
    src, index = inclusion_chain_map(h, ctx.subdivided, ctx.n, ctx.ordered,
                                     target_complex=ctx.complex)
    c, i = src.chain, ctx.i
    res = snf(c.boundary(i), (c.rank(i - 1), c.rank(i)), track_v=True)
    return cycle_image_subgroup(ctx.pres, [{index[i][j]: v for j, v in vec.items()}
                                           for vec in res.kernel_basis()])


def build_ambient(
    g: SimpleGraph, i: int, n: int, extra_subdivision: int = 0, ordered: bool = True
) -> AmbientContext:
    if n < 1 or i < 0:
        raise BadParamsError("need n >= 1, i >= 0")
    sub = subdivide_uniform(g, subdivision_pieces(n, extra_subdivision))
    cx = build_discretized(sub, n, ordered)
    return AmbientContext(g, i, n, extra_subdivision, ordered, sub, cx,
                          presentation(cx.chain, i))


# -- generator images ----------------------------------------------------------


def generator_images(
    ctx: AmbientContext, gen: SimpleGraph
) -> tuple[list[SimpleGraph], int, TopMinorMorphism | None]:
    """Distinct image subgraphs of morphisms gen -> G'' that are
    sufficiently subdivided, plus the count of all morphisms gen -> G''
    (passing or not) and one witness: the first morphism in ``iter_tm``
    order whose image passes.

    Images are enumerated first and counted in closed form; no morphism
    is walked but the witness's predecessors.  Let rho be a morphism with
    image H, and call gen's vertices of degree 0 isolated and of degree 1
    leaves.

    - A vertex image has the degree of its preimage in H (one path leaves
      it per edge), and a path interior vertex has degree 2.  So H's
      vertices of degree != 2, with their degrees, are those of gen: the
      degree-multiset prune of ``_image_candidates``, a necessary
      condition.
    - An interior vertex of an ambient arc has degree 2 in G'', so degree
      0, 1 or 2 in H.  On each arc, H therefore holds nothing, the whole
      arc, or segments whose ends inside the arc have H-degree 1: leaves
      of H, hence images of gen's leaves.  All of these ends together are
      at most the leaves of gen, and ``_image_candidates`` lists every such
      choice, arc by arc.  So the edges of H are among its candidates.
    - Isolated vertices of gen go to vertices of G'' off the paths and off
      the other vertex images, i.e. off the rest of H, and nothing else
      does.  So H is its edge part H_E (the image of gen without its k
      isolated vertices, ``core``) plus a set S of k vertices off H_E, and
      each S makes a distinct image.
    - The morphisms gen -> G'' with image H are the morphisms gen -> H
      whose image is all of H (paths in H are the paths of G'' inside H,
      and the four conditions read the same in both).  Their number is
      ``_onto_count(gen, H)``, exact for every simple graph, with leaves,
      isolated vertices and path components: it places each leaf by the
      arc that ends there, and searches only the inner vertices.  The
      isolated vertices are inner vertices of degree 0 with no arc there,
      so it is k!, for the bijections onto S, times ``_onto_count(core,
      H_E)``.

    So each candidate H_E adds ``_onto_count`` of core times k! times
    C(f, k), for the f vertices of G'' off H_E, and it is an image iff
    that count is not 0.  Candidates that fail Abrams' test count too.
    Isolated vertices do not change Abrams' test, so every S of a passing
    H_E is listed.  ``iter_tm`` runs only for the witness, and stops at
    it.

    Each candidate comes with its ``_ArcProfile``, which ``_onto_count``
    reads, and its verdict in Abrams' test, both read off its classes in
    the ``_ArcSearch``.  f needs no graph either: each edge's path, with L
    edges, adds L - 1 of each, so |V(H_E)| - |E(H_E)| = |V(core)| -
    |E(core)| when the count is not 0.  A ``SimpleGraph`` is built only
    for an H_E that passes."""
    amb = ctx.subdivided
    core = gen.subgraph(gen.edges)
    k = len(gen.vertices) - len(core.vertices)
    profile = _arc_profile(core)
    off = len(amb.vertices) - len(core.vertices) + len(core.edges)  # f + |E(H_E)|
    passing: dict = {}  # (vertex set, edge set) -> image that passes
    count = 0
    for edges, candidate, sufficient in _image_candidates(amb, core, ctx.n):
        onto = _onto_count(profile, candidate)
        if not onto:
            continue
        count += onto * math.factorial(k) * math.comb(off - len(edges), k)
        if sufficient:
            h = amb.subgraph(edges)
            free = [v for v in amb.vertices if v not in h.vertex_set]
            for extra in itertools.combinations(free, k):
                img = amb.subgraph(edges, extra) if extra else h
                passing[(img.vertex_set, img.edge_set)] = img
    witness = None
    if passing:
        witness = next(rho for rho in iter_tm(gen, amb, kind="tm")
                       if (rho.image_vertices, rho.image_edges) in passing)
    return list(passing.values()), count, witness


def _image_candidates(amb: SimpleGraph, core: SimpleGraph, n: int) -> list:
    """The edge sets of G'' whose vertices of degree other than 0 and 2,
    with their degrees, are those of ``core``, a graph with no isolated
    vertex; each with its ``_ArcProfile`` and whether it passes Abrams'
    test for n.

    On each ambient arc a candidate takes a pattern of ``_arc_patterns``.
    The search takes core's degrees off as it goes: the leaves inside an
    arc when its pattern is taken, and the H-degree of each branch vertex
    of G'' once it is decided.  The start of a cycle component of G'' has
    degree 2 in G'', and a leaf there is a flip of the component's pattern,
    so it is taken off with the leaves inside the component."""
    count = Counter(d for v in core.vertices if (d := core.degree(v)) != 2)
    search = _ArcSearch(amb)
    at, chosen = search.at, search.chosen
    starts = {walk[0] for walk in search.walks if amb.degree(walk[0]) == 2}
    choices = [[(inside, pieces, edges) for edges, pieces, inside in _arc_patterns(
                    arc, walk, () if walk[0] in starts else (walk[0], walk[-1]), count[1])]
               for arc, walk in zip(search.arcs, search.walks)]
    out = []
    # the state: core's unmatched vertices of degree d != 2 as digit d, of
    # w bits, of an int
    w = len(core.vertices).bit_length()
    digit = (1 << w) - 1

    def take(left: int, inside: int) -> int | None:
        if inside > left >> w & digit:
            return None  # and so is every later pattern, with more
        return left - (inside << w)

    def close(left: int, v: int, roots: list[int]) -> int | None:
        d = len(at[v])
        if d in (0, 2) or v in starts:
            return left
        if not left >> w * d & digit:
            return None
        return left - (1 << w * d)

    def leaf(left: int) -> None:
        if not left:
            out.append(([e for _, _, edges in chosen for e in edges],
                        search.profile(), search.sufficient(n)))

    search.run(choices, take, close, leaf, sum(c << w * d for d, c in count.items()))
    return out


def _arc_walk(arc: list[tuple[int, int]]) -> list[int]:
    """The vertices of an ambient arc in path order, edge p joining vertex
    p to p + 1; a loop arc or a cycle component ends where it starts."""
    if len(arc) == 1:
        return list(arc[0])
    walk = [next(v for v in arc[0] if v not in arc[1])]
    for a, b in arc:
        walk.append(b if a == walk[-1] else a)
    return walk


def _arc_patterns(arc: list[tuple[int, int]], walk: list[int], ends: tuple[int, ...],
                  budget: int) -> list:
    """The edge subsets of one ambient arc with at most ``budget`` segment
    ends inside it, as (edges, pieces, ends inside), by ends inside.

    ``walk`` is ``_arc_walk(arc)``, and ``ends`` holds the arc's first and
    last vertex, or nothing for a cycle component.  A subset is its first
    edge's membership plus the interior positions where membership flips:
    position p lies between edges p-1 and p, and on a cycle component
    position 0 closes the cycle, so the flips there are even in number.
    Each flip is a segment end inside the arc, and each subset has one
    such description."""
    size = len(arc)
    inner = range(size) if not ends else range(1, size)
    out = []
    for j in range(min(budget, len(inner)) + 1):
        if not ends and j % 2:
            continue
        for flips in itertools.combinations(inner, j):
            at = set(flips) - {0}
            for first in (False, True):
                take, kept = first, []
                for p in range(size):
                    take ^= p in at
                    if take:
                        kept.append(p)
                out.append((tuple(arc[p] for p in kept), _pieces(walk, kept), j))
    return out


def _pieces(walk: list[int], kept) -> list[tuple[int, int, int]]:
    """The pieces of the edges at positions ``kept`` (ascending) of an
    ambient arc with vertices ``walk``: its maximal runs of kept edges, as
    (edge count, end, end)."""
    pieces: list[tuple[int, int, int]] = []
    for p in kept:
        if pieces and pieces[-1][2] == walk[p]:  # edge p continues the last run
            pieces[-1] = (pieces[-1][0] + 1, pieces[-1][1], walk[p + 1])
        else:
            pieces.append((1, walk[p], walk[p + 1]))
    return pieces


class _ArcProfile(NamedTuple):
    """A graph cut into arcs at its branch vertices (degree != 2).  A
    branch vertex is a leaf (degree 1) or inner (degree 0 or >= 3), and
    each arc goes in one field by how many of its ends are leaves."""

    inner: dict[int, int]  # inner vertex -> degree
    arcs: dict[tuple[int, int], list[int]]  # (a, b), a <= b inner -> edges of each arc a..b
    legs: dict[int, list[int]]  # inner vertex -> edges of each arc from it to a leaf
    paths: list[int]  # edges of each arc from a leaf to a leaf (a path component)
    cycles: list[int]  # edges of each cycle component (no branch vertex)


def _arc_profile(g: SimpleGraph) -> _ArcProfile:
    """g's whole ambient arcs joined, with its isolated vertices of degree
    0: the ``_ArcSearch`` of g with one choice per arc, the whole arc."""
    search = _ArcSearch(g)
    found = []

    def keep(state, *_):
        return state

    search.run([[(None, [(len(walk) - 1, walk[0], walk[-1])])] for walk in search.walks],
               keep, keep, lambda _: found.append(search.profile()), ())
    profile, = found
    profile.inner.update((v, 0) for v in g.vertices if not g.degree(v))
    return profile


class _ArcSearch:
    """The subgraphs H of a graph G made of one choice of pieces on each
    ambient arc of G, searched arc by arc, with the arcs and cycle
    components of H kept as classes of its pieces.

    A piece of H is a maximal run of its edges on one ambient arc of G, as
    (edge count, end, end) (``_pieces``).  The joints are the ends of G's
    ambient arcs (``_arc_walk``; a cycle component of G starts and ends at
    one of its vertices).

    - An interior vertex of an ambient arc has degree 2 in G, so it has
      degree 2 in H exactly when it lies inside a piece, and is a leaf of
      H at a piece end, where no other piece ends.
    - A joint v has one H edge per piece end at v, so it has degree 2 in
      H exactly when two piece ends meet there.  Then v lies inside an arc
      or a cycle component of H, which runs on through both pieces; at any
      other degree the pieces end there.
    - So the arcs and cycle components of H are the classes of pieces
      under "meet at a joint of H-degree 2", each with the summed length
      of its pieces.  A class is a chain: a cycle component if each of its
      ends is joined (a closed ambient arc taken whole, with nothing else
      at its end, joins itself), else an arc between its two unjoined
      ends, which are branch vertices of H.

    ``run`` places one choice per arc and decides each joint once the last
    arc at it is placed: the two pieces that meet there are joined, or, at
    any other count, every class there ends there.  A union-find over the
    pieces holds the classes, each root with its class's edge count and
    ends at undecided joints; a class with none left is final, and so is
    its edge count.  A log of the joins undoes them as the search backs
    up.  Leaf ends are never joined, so they stay out of ``at``.  At a leaf
    of the search the classes are the arcs and cycle components of H:
    ``sufficient`` reads Abrams' test off their sizes, and ``profile``
    files each by how many of its unjoined ends are leaves."""

    def __init__(self, g: SimpleGraph):
        self.arcs = ambient_arcs(g)
        self.walks = [_arc_walk(arc) for arc in self.arcs]
        last = {v: i for i, walk in enumerate(self.walks) for v in (walk[0], walk[-1])}
        # per arc: the joints it decides, as the last arc there
        self.closing = [[v for v, j in last.items() if j == i] for i in range(len(self.arcs))]
        self.at: dict[int, list[int]] = {v: [] for v in last}  # joint -> its pieces, once per end
        self.chosen: list[tuple] = []  # per arc placed: its choice, as (payload, pieces, ...)
        self.root: list[int] = []  # piece -> its parent in the union-find
        self.size: list[int] = []  # class root -> edge count of the class
        self.undecided: list[int] = []  # class root -> its ends at undecided joints

    def run(self, choices: list, take, close, leaf, state) -> None:
        """Depth first over ``choices[i]``, the choices (payload, pieces,
        ...) on arc i in ``ambient_arcs`` order, calling ``leaf(state)`` at
        each leaf while ``chosen`` and the classes are the leaf's.
        ``take(state, payload)`` gives the state below a choice before it
        is placed, or None to pass over it and the later choices on its
        arc; ``close(state, v, roots)`` gives it once joint v is decided,
        with the roots of the classes there (one when two pieces meet), or
        None to prune the choice with every extension."""
        root, size, undecided, at, chosen = self.root, self.size, self.undecided, self.at, self.chosen
        closing = self.closing
        log: list[tuple[int, int, int]] = []  # per class decided: (merged, root, ends decided)
        # per choice: (edge count, joint ends) of each piece, and each joint end
        table = [[(choice, [(s, (a in at) + (b in at)) for s, a, b in choice[1]],
                   [(at[v], k) for k, (_, a, b) in enumerate(choice[1]) for v in (a, b) if v in at])
                  for choice in arc] for arc in choices]

        def decide(v: int) -> list[int]:
            # join the two pieces that meet at v, or end every class there
            meet = at[v]
            if len(meet) == 2:
                x, y = meet
                while root[x] != x:
                    x = root[x]
                while root[y] != y:
                    y = root[y]
                if x != y:
                    root[x] = y
                    size[y] += size[x]
                    undecided[y] += undecided[x]
                undecided[y] -= 2
                log.append((x, y, 2))
                return [y]
            roots = []
            for x in meet:
                while root[x] != x:
                    x = root[x]
                undecided[x] -= 1
                log.append((x, x, 1))
                roots.append(x)
            return roots

        def rec(i: int, state) -> None:
            if i == len(table):
                leaf(state)
                return
            decided = closing[i]
            for choice, pieces, joints in table[i]:
                below = take(state, choice[0])
                if below is None:
                    break
                first, mark = len(root), len(log)
                for s, count in pieces:
                    root.append(len(root))
                    size.append(s)
                    undecided.append(count)
                for meet, k in joints:
                    meet.append(first + k)
                chosen.append(choice)
                for v in decided:
                    below = close(below, v, decide(v))
                    if below is None:
                        break
                else:
                    rec(i + 1, below)
                while len(log) > mark:
                    x, y, count = log.pop()
                    undecided[y] += count
                    if x != y:
                        undecided[y] -= undecided[x]
                        size[y] -= size[x]
                        root[x] = x
                for meet, _ in joints:
                    meet.pop()
                chosen.pop()
                del root[first:], size[first:], undecided[first:]

        # rec refers to itself; del breaks the cycle, which would keep the
        # table alive until the next full garbage collection
        try:
            rec(0, state)
        finally:
            del rec

    def sufficient(self, n: int) -> bool:
        """Abrams' test, as ``is_sufficiently_subdivided``: every arc of H,
        open or closed, and every cycle component has >= n+1 edges."""
        return all(self.size[x] > n for x, r in enumerate(self.root) if r == x)

    def profile(self) -> _ArcProfile:
        at, root, size = self.at, self.root, self.size
        profile = _ArcProfile({v: len(p) for v, p in at.items() if len(p) > 2}, {}, {}, [], [])
        outer: dict[int, list[int]] = {}  # class root -> the unjoined ends of the class
        p = 0
        for choice in self.chosen:
            for _, a, b in choice[1]:
                for v in (a, b):
                    if len(at.get(v, ())) != 2:
                        x = p
                        while root[x] != x:
                            x = root[x]
                        outer.setdefault(x, []).append(v)
                p += 1
        for x, r in enumerate(root):
            if r != x:
                continue
            if x not in outer:
                profile.cycles.append(size[x])
                continue
            ends = sorted(v for v in outer[x] if v in profile.inner)
            if len(ends) == 2:
                profile.arcs.setdefault(tuple(ends), []).append(size[x])
            elif ends:
                profile.legs.setdefault(ends[0], []).append(size[x])
            else:
                profile.paths.append(size[x])
        return profile


def _bijections(src: list[int], dst: list[int], ways) -> int:
    """Sum over the bijections src -> dst of the product of ways(s, d):
    the permanent of the matrix ways(s, d), 0 if it is not square.  When
    all of src, or all of dst, are equal, the rows, or the columns, of the
    matrix are equal, so each of the k! bijections has the product of the
    pairing in order, and no permutation is walked."""
    if len(src) != len(dst):
        return 0
    if len(set(src)) <= 1 or len(set(dst)) <= 1:
        return math.factorial(len(src)) * math.prod(map(ways, src, dst))
    return sum(math.prod(map(ways, src, perm)) for perm in itertools.permutations(dst))


def _arc_ways(m: int, L: int) -> int:
    """Placements of a path with m edges onto an arc with L edges, ends
    fixed: its m - 1 interior vertices, in order, among the arc's L - 1."""
    return math.comb(L - 1, m - 1)


def _turn_ways(m: int, L: int) -> int:
    """``_arc_ways`` in either direction: a loop arc, or a path component
    whose two leaves may swap."""
    return 2 * math.comb(L - 1, m - 1)


def _cycle_ways(k: int, L: int) -> int:
    """Placements of a cycle with k vertices onto one with L: L images of
    a fixed vertex, 2 directions, and the rest among the other L - 1."""
    return 2 * L * math.comb(L - 1, k - 1)


def _onto_count(gen: _ArcProfile, tgt: _ArcProfile) -> int:
    """Number of morphisms gen -> h whose image is all of h, where gen and
    h are given by their ``_arc_profile``s.  Exact for all simple graphs.

    Branch vertices are the vertices of degree != 2: leaves, of degree 1,
    and inner vertices, of degree 0 or >= 3.  Let rho be onto h.

    - Each vertex of h is a vertex image or a path interior vertex.  A
      vertex image has the degree of its preimage (one path leaves it per
      edge, and no other path reaches it), and an interior vertex has
      degree 2.  So rho restricts to a degree-preserving bijection phi
      from the branch vertices of gen to those of h, which sends inner
      vertices to inner vertices and leaves to leaves, and it sends the
      degree-2 vertices of gen to degree-2 vertices of h.
    - Follow a gen arc from branch vertex a to branch vertex b.  Its image
      is a path (closed when a = b) from phi(a) to phi(b) whose interior
      vertices all have degree 2 in h: an h arc between phi(a) and phi(b).
      Two gen arcs share no image edge, and rho is onto, so rho matches
      the gen arcs between a and b one to one with the h arcs between
      phi(a) and phi(b).  Likewise it matches the cycle components
      (components with no branch vertex) of gen with those of h.
    - Conversely, fix phi and these matchings.  A gen arc with m edges
      onto an h arc with L edges is placed by ``_arc_ways``, and twice
      that for a loop arc (a = b), which can run either way round: the two
      directions give different maps since m >= 3 in a simple graph.  A
      gen cycle onto an h cycle is placed by ``_cycle_ways``.  The paths
      so chosen are disjoint apart from shared ends, so each choice is one
      onto morphism, and different choices differ in rho_V or in an edge's
      path.

    So the count is the sum over phi of the product, over pairs of branch
    vertices, of the sum over arc matchings of the product of placements,
    times the same sum over cycle matchings.

    Leaves need no search of their own: a leaf l ends exactly one arc, in
    gen as in h, and it is matched with the one arc at phi(l).

    - If the other end of l's arc is an inner vertex v, the arc is a leg
      of v, matched with a leg of phi(v).  Fix phi on the inner vertices.
      Each leg ends at its own leaf, in gen as in h, so the maps of the
      leaves of v's legs whose product is not 0 are the bijections of v's
      legs onto phi(v)'s.  So the sum over phi on those leaves is
      ``_bijections`` of the legs with ``_arc_ways``.
    - If both ends are leaves, the arc is a path component, matched with
      a path component of h.  phi on its two leaves is that match and one
      of 2 directions, which differ since the leaves do.  So the sum over
      phi on the leaves of path components is ``_bijections`` of them
      with ``_turn_ways``, as for cycle components.

    So phi is searched on the inner vertices only, built one vertex at a
    time, and a pair whose arcs or legs cannot be matched prunes it.  The
    inner vertices must be as many in gen as in h, for phi to be onto
    them.

    Only the pairs with a gen arc between them are checked; a pair with
    none has the factor 1 when h has no arc between its images either,
    and h has none once the checked pairs match.  Every edge at a branch
    vertex starts exactly one arc end there, so a branch vertex's degree
    is its number of arc ends (a loop arc counts twice).  Take an inner v
    with w = phi(v).  The arcs and legs matched at v have deg(v) ends at v
    in gen, and as many at w in h; phi keeps degrees, so they are all
    deg(w) arc ends at w.  So no h arc at w goes to a vertex phi(u) with
    no gen arc between u and v, and every h arc with an inner end is
    matched, as phi is onto the inner vertices of h.  The others are path
    and cycle components, all matched, and every leaf of h ends one of
    these arcs, so phi is onto the leaves too."""
    if len(gen.inner) != len(tgt.inner):
        return 0
    count = (_bijections(gen.cycles, tgt.cycles, _cycle_ways)
             * _bijections(gen.paths, tgt.paths, _turn_ways))
    if not count:
        return 0
    order = list(gen.inner)
    # the inner vertices up to and including v with a gen arc to v
    partners = {v: [u for u in order[:i + 1] if (min(u, v), max(u, v)) in gen.arcs]
                for i, v in enumerate(order)}
    phi: dict[int, int] = {}

    def arcs_between(u: int, v: int, x: int, w: int) -> int:
        # gen arcs u..v matched onto h arcs x..w, x = phi(u) and w = phi(v)
        return _bijections(gen.arcs.get((min(u, v), max(u, v)), []),
                           tgt.arcs.get((min(x, w), max(x, w)), []),
                           _turn_ways if u == v else _arc_ways)

    def extend(i: int) -> int:
        if i == len(order):
            return 1
        v = order[i]
        legs = gen.legs.get(v, [])
        total = 0
        for w, degree in tgt.inner.items():
            if degree != gen.inner[v] or w in phi.values():
                continue
            weight = _bijections(legs, tgt.legs.get(w, []), _arc_ways)
            if not weight:
                continue
            phi[v] = w
            for u in partners[v]:
                weight *= arcs_between(u, v, phi[u], w)
                if not weight:
                    break
            if weight:
                total += weight * extend(i + 1)
            del phi[v]
        return total

    # extend refers to itself; del breaks the cycle, which would keep both
    # profiles alive until the next full garbage collection
    count *= extend(0)
    del extend
    return count


@dataclass(frozen=True)
class GenerationReport:
    graph: SimpleGraph
    i: int
    n: int
    extra_subdivision: int
    ordered: bool
    per_generator: tuple  # (generator, morphism count, image-subgraph count, image rank)
    achieved: Subgroup
    is_generated: bool
    witnesses: tuple  # one contributing morphism per generator, or None

    def to_json_obj(self) -> dict:
        return {
            "i": self.i,
            "n": self.n,
            "extra_subdivision": self.extra_subdivision,
            "ordered": self.ordered,
            "ambient_betti": self.achieved.ambient.betti,
            "ambient_torsion": self.achieved.ambient.torsion,
            "is_generated": self.is_generated,
            "achieved_rank": self.achieved.free_rank(),
            "generators": [
                {
                    "vertices": len(gen.vertices),
                    "edges": len(gen.edges),
                    "morphisms": cnt,
                    "image_subgraphs": imgs,
                    "image_rank": rank,
                }
                for gen, cnt, imgs, rank in self.per_generator
            ],
            "witnesses": [
                w.to_json_obj() if w is not None else None for w in self.witnesses
            ],
        }

    def table(self) -> str:
        lines = ["generator\tmorphisms\timages\timage_rank"]
        for idx, (gen, cnt, imgs, rank) in enumerate(self.per_generator):
            lines.append(f"g{idx}({len(gen.vertices)}v,{len(gen.edges)}e)"
                         f"\t{cnt}\t{imgs}\t{rank}")
        lines.append(f"achieved rank {self.achieved.free_rank()} of "
                     f"{self.achieved.ambient.betti}; "
                     f"generated={self.is_generated}")
        return "\n".join(lines)


def generation_check(ctx: AmbientContext, gens: GeneratorList) -> GenerationReport:
    """Span the images of H_i over all sufficiently subdivided topological
    copies of the generators inside the subdivided target, and test fullness.

    Stops joining once the span, or one generator's image, is the whole
    group: a full subgroup stays full and its HNF is canonical, so no rank
    in the report changes.  The report echoes the graph, i, n,
    extra_subdivision and ordered of ``ctx``.
    """
    acc = Subgroup.zero(ctx.pres)
    per_gen = []
    witnesses = []
    done = acc.is_full()
    for gen in gens.graphs:
        if done:
            per_gen.append((gen, 0, 0, 0))
            witnesses.append(None)
            continue
        images, count, witness = generator_images(ctx, gen)
        contributed = Subgroup.zero(ctx.pres)
        for img in images:
            if contributed.is_full():
                break
            contributed = contributed.join(ctx.image_of_subgraph(img))
        acc = acc.join(contributed)
        per_gen.append((gen, count, len(images), contributed.free_rank()))
        witnesses.append(witness)
        if acc.is_full():
            done = True
    return GenerationReport(
        ctx.graph, ctx.i, ctx.n, ctx.extra_subdivision, ctx.ordered,
        tuple(per_gen), acc, acc.is_full(), tuple(witnesses)
    )


# -- filtration stages ---------------------------------------------------------


def _gap_sets(length: int, spacing: int) -> list[tuple[int, ...]]:
    """Subsets of range(length) whose members are >= spacing apart."""
    out: list[tuple[int, ...]] = [()]
    for pos in range(length):
        out += [s + (pos,) for s in out if not s or pos - s[-1] >= spacing]
    return out


def _stage_subgraphs(ctx: AmbientContext, predicate) -> list[SimpleGraph]:
    """The subgraphs of G'' with a maximal edge subset that pass the
    predicate and are sufficiently subdivided, each with every vertex of
    G''.  The vertices matter: H_0 counts them, and for n >= 2 a particle
    can rest on an isolated vertex while the others move.  Adding vertices
    to a subgraph only grows its image, and changes neither its first
    Betti number, nor its topological minors, nor Abrams' test.

    ``predicate`` must be invariant under subdividing an edge (both stage
    predicates are: ``betti1 <= s``, and topological-minor containment of
    the Robertson chain).  Only the candidates of ``_stage_candidates``
    are tested, largest first; its ``_ArcSearch`` keeps only those that
    pass Abrams' test, so a subgraph is built only for one of them.

    G'' passes Abrams' test exactly when each of its ambient arcs has more
    than n edges.  Then it is the first candidate and every other one is a
    subset of it, so when it also passes the predicate it is the only
    stage subgraph, and no candidate is enumerated.
    """
    amb = ctx.subdivided
    whole = all(len(arc) > ctx.n for arc in ambient_arcs(amb))
    if whole and predicate(amb):
        return [amb]
    passing: list[tuple[int, SimpleGraph]] = []
    # when whole, the first candidate is G'', which just failed the predicate
    for mask in _stage_candidates(ctx)[whole:]:
        if any(mask & bigger == mask for bigger, _ in passing):
            continue
        h = _mask_subgraph(amb, mask)
        if predicate(h):
            passing.append((mask, h))
    return [h for _, h in passing]


def _mask_subgraph(g: SimpleGraph, mask: int) -> SimpleGraph:
    """Every vertex of g and the edges whose bits are set: edge j is bit
    1 << (|E|-1-j)."""
    top = len(g.edges) - 1
    return g.subgraph([e for j, e in enumerate(g.edges) if mask >> (top - j) & 1],
                      g.vertices)


def _stage_candidates(ctx: AmbientContext) -> list[int]:
    """The candidate edge masks of ``_stage_subgraphs`` that pass Abrams'
    test for ``ctx.n`` (the subgraph with those edges, and any vertices,
    ``is_sufficiently_subdivided``), in the order it tests them.

    On each ambient arc of G'' a candidate takes no edges, or all edges but
    a set of gaps, any two at least n+2 positions apart.  Testing only
    these is exact:

    - Suppose a maximal passing H had two adjacent missing edges on an arc
      that still has some edge in H.  Then some leaf x of H sits on that
      arc, and its edge to its other ambient neighbour y is missing, as is
      y's other edge on the arc: y is an isolated vertex of H.
    - Adding the edge xy extends a leaf.  Every arc of H only gets longer,
      the girth does not change, and up to homeomorphism H only loses the
      isolated vertex y.  So Abrams' test and the predicate give the same
      answer, and H was not maximal.
    - A floating segment shorter than n+1 between two gaps is itself an
      arc of H shorter than n+1, so Abrams' test rejects it.
    - So every maximal passing subset is a candidate, and the maximal
      passing candidates are exactly the maximal passing subsets.  (On a
      cycle component the gaps are spaced as on a path, which only adds
      candidates.)

    Edge j of G'' is bit ``1 << (|E''|-1-j)`` of a mask; the masks come by
    decreasing size, then decreasing mask, which within one size is the
    ``itertools.combinations`` order, so the empty mask comes last.

    The masks come from the ``_ArcSearch`` of G'' over each arc's gap
    patterns and the empty choice.  Abrams' test asks each class of pieces
    for more than n edges, so the search drops a class that becomes final
    with n or fewer, with every extension.  A piece with no joint end lies
    between two gaps and has at least n+1 edges by their spacing, so it is
    never checked.  A leaf of the search has all its joints decided, all
    its classes checked, and so passes Abrams' test; every mask that
    passes is reached.
    """
    amb, n = ctx.subdivided, ctx.n
    bit = {e: 1 << (len(amb.edges) - 1 - j) for j, e in enumerate(amb.edges)}
    search = _ArcSearch(amb)
    choices = []  # per arc: its patterns, as (bits, pieces)
    for arc, walk in zip(search.arcs, search.walks):
        full = sum(bit[e] for e in arc)
        table: dict = {0: []}
        for gaps in _gap_sets(len(arc), n + 2):
            table[full - sum(bit[arc[k]] for k in gaps)] = _pieces(
                walk, [k for k in range(len(arc)) if k not in gaps])
        choices.append(list(table.items()))
    size, undecided = search.size, search.undecided

    def close(mask: int, v: int, roots: list[int]) -> int | None:
        for x in roots:
            if not undecided[x] and size[x] <= n:
                return None
        return mask

    out: list[int] = []
    search.run(choices, operator.or_, close, out.append, 0)
    out.sort(reverse=True)
    out.sort(key=int.bit_count, reverse=True)  # stable: by size, then by mask
    return out


def _stage_span(ctx: AmbientContext, predicate) -> Subgroup:
    """The join of the images of the stage subgraphs, up to the first
    that makes it the whole group: a full subgroup stays full, and its
    HNF is canonical."""
    span = Subgroup.zero(ctx.pres)
    for h in _stage_subgraphs(ctx, predicate):
        if span.is_full():
            break
        span = span.join(ctx.image_of_subgraph(h))
    return span


def check_stage_level(kind: str, level: int) -> None:
    """Reject a level below the first stage of its filtration: Betti
    stages start at 0, Robertson stages at 1."""
    if kind == "betti" and level < 0:
        raise BadParamsError("stage must be >= 0")
    if kind == "robertson" and level < 1:
        raise BadParamsError("k must be >= 1")


def betti_stage(ctx: AmbientContext, stage: int) -> Subgroup:
    """Span of classes from subgraphs with first Betti number <= stage."""
    check_stage_level("betti", stage)
    return _stage_span(ctx, lambda h: betti1(h) <= stage)


def robertson_stage(ctx: AmbientContext, k: int) -> Subgroup:
    """Span of classes from subgraphs carrying no order-k Robertson chain
    as a topological minor.  Subgraphs with first Betti number below k are
    admitted without a minor search (the chain has Betti number k, and
    Betti numbers only drop under topological minors)."""
    check_stage_level("robertson", k)
    return _stage_span(ctx, lambda h: betti1(h) < k or gtm_k_member(h, k))


# -- brute-force oracle (no deduplication), used for cross-checks --------------


def brute_force_span(
    ctx: AmbientContext, gens: GeneratorList
) -> Subgroup:
    """Span over every morphism image individually, with no isotopy-class
    deduplication; must agree with generation_check's span."""
    acc = Subgroup.zero(ctx.pres)
    for gen in gens.graphs:
        for rho in iter_tm(gen, ctx.subdivided, kind="tm"):
            img = rho.image_subgraph()
            if not is_sufficiently_subdivided(img, ctx.n):
                continue
            acc = acc.join(ctx.image_of_subgraph(img))
            if acc.is_full():
                return acc
    return acc


def subgraph_homeomorphism_types(g: SimpleGraph) -> GeneratorList:
    """Minimal representatives of all homeomorphism types of subgraphs of g
    with at least one edge (used for self-generation checks).  The full
    graph's type comes first so that self-generation short-circuits."""
    reps: list[SimpleGraph] = []
    edges = list(g.edges)
    for size in range(len(edges), 0, -1):
        for combo in itertools.combinations(edges, size):
            h = smooth(g.subgraph(list(combo))).relabeled()
            if not any(is_isomorphic(h, r) for r in reps):
                reps.append(h)
    reps.sort(key=lambda r: (-len(r.edges), -len(r.vertices)))
    return GeneratorList(tuple(reps))
