"""The tests' oracle for topological-minor morphisms: the inclusion of a
subgraph, and the check of the four defining conditions of a morphism."""

from graphconf.errors import InvalidMorphismError
from graphconf.graphs import Path, SimpleGraph
from graphconf.morphisms import TopMinorMorphism


def inclusion_morphism(h: SimpleGraph, g: SimpleGraph) -> TopMinorMorphism:
    """The inclusion of a subgraph h into g; the identity when h is g."""
    return TopMinorMorphism(
        h,
        g,
        tuple((v, v) for v in h.vertices),
        tuple((e, Path(e)) for e in h.edges),
    )


def validate_tm(rho: TopMinorMorphism) -> tuple[bool, list[tuple[int, str]]]:
    """Check the four defining conditions; violations carry witnesses."""
    src, tgt = rho.source, rho.target
    violations: list[tuple[int, str]] = []
    rv, re = rho.rho_v, rho.rho_e
    if set(rv) != set(src.vertices) or set(re) != set(src.edges):
        raise InvalidMorphismError("rho_V / rho_E not total on the source")
    for v, w in rv.items():
        if w not in tgt.vertex_set:
            raise InvalidMorphismError(f"rho_V({v}) = {w} not in target")
    for e, p in re.items():
        if not (tgt.edge_set.issuperset(p.edges) and tgt.vertex_set.issuperset(p.vertices)):
            raise InvalidMorphismError(f"rho_E({e}) is not a path of the target")
    # (1) injectivity
    if len(set(rv.values())) != len(rv):
        violations.append((1, "rho_V is not injective"))
    # (2) endpoints
    for e, p in re.items():
        want = {rv[e[0]], rv[e[1]]}
        ends = (p.vertices[0], p.vertices[-1])
        if set(ends) != want:
            violations.append((2, f"rho_E({e}) has endpoints {ends}, expected {tuple(want)}"))
    # (3) incidence
    for e, p in re.items():
        on_path = p.vertex_set
        for v, w in rv.items():
            incident = v in e
            if (w in on_path) != incident:
                violations.append((3, f"rho_V({v}) on rho_E({e}) mismatch"))
    # (4) path intersections
    edges = sorted(re)
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1 :]:
            inter = re[e1].vertex_set & re[e2].vertex_set
            shared = set(e1) & set(e2)
            if shared:
                want = {rv[next(iter(shared))]}
            else:
                want = set()
            if inter != want:
                violations.append((4, f"rho_E({e1}) and rho_E({e2}) meet in {sorted(inter)}"))
    return (not violations, violations)
