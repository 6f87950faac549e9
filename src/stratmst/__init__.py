"""Stratified minimum spanning tree toolkit.

The package root exports the solver API: the solvers (baseline, heap, and
stratified Kruskal with early termination), seeded graph-family generators,
the edge-list reader and writer, and independent correctness oracles. The
report harness (``stratmst.bench``, ``stratmst.validation``) and the
record-based strata adapters (``stratmst.strata``) are imported from their
modules, so ``import stratmst`` does not load them.

No module of the package declares a dataclass: ``dataclasses`` imports
``inspect``, and with it ``ast``, ``dis`` and ``tokenize``, about 1 MB
resident in any process that loads them. Plain records, the report rows
included, are ``NamedTuple``s; validated types are ``__slots__`` classes,
or ``NamedTuple``s with a validating ``__new__``.
"""

from .edgelist import EdgeListError, load_edge_list, read_edge_list, write_edge_list
from .generators import WeightDist, gen_grid, gen_path, gen_random
from .graph import (
    EdgeRecord,
    GraphSpec,
    component_count,
    graph_from_edges,
)
from .mst import (
    MstResult,
    kruskal_eds,
    kruskal_heap,
    kruskal_std,
    mst_weight_equal,
)
from .oracle import exhaustive_mst, prim_dense
from .strata import Boundaries, StrataParams, optimal_k, sample_size

__version__ = "0.1.0"

__all__ = [
    "Boundaries",
    "EdgeListError",
    "EdgeRecord",
    "GraphSpec",
    "MstResult",
    "StrataParams",
    "WeightDist",
    "component_count",
    "exhaustive_mst",
    "gen_grid",
    "gen_path",
    "gen_random",
    "graph_from_edges",
    "kruskal_eds",
    "kruskal_heap",
    "kruskal_std",
    "load_edge_list",
    "mst_weight_equal",
    "optimal_k",
    "prim_dense",
    "read_edge_list",
    "sample_size",
    "write_edge_list",
]
