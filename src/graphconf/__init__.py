"""Exact homology of graph configuration spaces at desk scale.

Simple graphs and topological-minor morphisms, Abrams' discretized
configuration spaces with integer homology, Świątkowski-style cell sets,
cograph/cotree tooling, and a finite-generation checker for homology
classes supported on small topological subgraphs.
"""

from .cographs import (
    Cotree,
    cograph_of,
    cotree_of,
    is_cograph,
    validate_cotree,
)
from .discretized import (
    CubicalComplex,
    build_discretized,
    inclusion_chain_map,
    is_sufficiently_subdivided,
)
from .errors import GraphConfError
from .generation import (
    GeneratorList,
    GenerationReport,
    betti_stage,
    build_ambient,
    generation_check,
    robertson_stage,
)
from .gio import from_graph6, from_json, load_graph, to_graph6, to_json
from .graphs import (
    Path,
    SimpleGraph,
    betti1,
    complement,
    disjoint_union,
    family,
    make_graph,
    subdivide,
    subdivide_uniform,
    theta_graph,
)
from .homology import (
    HomologySummary,
    IntegerChainComplex,
    Subgroup,
    homology,
    presentation,
)
from .morphisms import (
    TopMinorMorphism,
    enumerate_tm,
    gtm_k_member,
    has_topological_minor,
    is_homeomorphic,
    is_isomorphic,
    smooth,
)
from .snf import snf
from .swiatkowski import (
    enumerate_cells,
    support_vertices,
    verify_support_bound,
)

__version__ = "0.1.0"
