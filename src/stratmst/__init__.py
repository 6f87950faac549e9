"""Stratified minimum spanning tree toolkit.

Solvers (baseline, heap, and stratified Kruskal with early termination),
seeded graph-family generators, independent correctness oracles, and a
benchmark harness that reports machine-independent sort-operation counts.
"""

from .bench import (
    SuiteConfig,
    derive_seed,
    run_suite,
    speedup_grid,
    strata_profile,
    summarize,
    sweep_k,
)
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
from .strata import (
    Boundaries,
    StrataParams,
    estimate_boundaries,
    optimal_k,
    partition,
    sample_size,
    sample_weights,
)
from .validation import run_validation

__version__ = "0.1.0"

__all__ = [
    "Boundaries",
    "EdgeListError",
    "EdgeRecord",
    "GraphSpec",
    "MstResult",
    "StrataParams",
    "SuiteConfig",
    "WeightDist",
    "component_count",
    "derive_seed",
    "estimate_boundaries",
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
    "partition",
    "prim_dense",
    "read_edge_list",
    "run_suite",
    "run_validation",
    "sample_size",
    "sample_weights",
    "speedup_grid",
    "strata_profile",
    "summarize",
    "sweep_k",
    "write_edge_list",
]
