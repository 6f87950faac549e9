import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DISTS, tiny_graph
from stratmst import (
    Boundaries,
    GraphSpec,
    StrataParams,
    exhaustive_mst,
    gen_path,
    gen_random,
    graph_from_edges,
    kruskal_eds,
    kruskal_heap,
    kruskal_std,
    mst_weight_equal,
    prim_dense,
)
from stratmst.validation import CLRS_EDGES

TRIANGLE = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])


def test_prim_fixed_cases():
    assert prim_dense(TRIANGLE).total_weight == 3.0
    assert prim_dense(graph_from_edges(9, CLRS_EDGES)).total_weight == 37.0
    assert prim_dense(GraphSpec(1, ())).total_weight == 0.0


def test_prim_handles_forests_and_parallels():
    forest = graph_from_edges(4, [(0, 1, 3.0), (2, 3, 5.0)])
    res = prim_dense(forest)
    assert res.total_weight == 8.0
    assert res.accepted_count == 2
    parallel = graph_from_edges(2, [(0, 1, 7.0), (0, 1, 2.0), (0, 1, 5.0)])
    assert prim_dense(parallel).total_weight == 2.0


def test_prim_ignores_self_loops():
    g = graph_from_edges(2, [(0, 0, -10.0), (0, 1, 4.0)])
    assert prim_dense(g).total_weight == 4.0


def test_exhaustive_fixed_cases():
    assert exhaustive_mst(TRIANGLE) == 3.0
    negative = graph_from_edges(3, [(0, 1, -5.0), (1, 2, -3.0), (0, 2, -1.0)])
    assert exhaustive_mst(negative) == -8.0
    parallel = graph_from_edges(2, [(0, 1, 2.0), (0, 1, 5.0), (0, 1, 7.0)])
    assert exhaustive_mst(parallel) == 2.0
    assert exhaustive_mst(GraphSpec(1, ())) == 0.0


def test_exhaustive_enforces_size_bounds():
    with pytest.raises(ValueError):
        exhaustive_mst(gen_path(11, DISTS[0], 0))
    with pytest.raises(ValueError):
        exhaustive_mst(gen_random(7, 21, DISTS[0], 0))


def test_five_way_agreement_on_tiny_graphs():
    rng = random.Random(2024)
    for trial in range(500):
        g = tiny_graph(rng)
        truth = exhaustive_mst(g)
        std = kruskal_std(g)
        results = [
            std,
            kruskal_heap(g),
            kruskal_eds(g, StrataParams(k=rng.randint(1, g.m), seed=trial)),
            prim_dense(g),
        ]
        for res in results:
            assert res.total_weight == truth, (trial, res.total_weight, truth)
            assert mst_weight_equal(res, std)


def test_prim_matches_kruskal_up_to_n300():
    rng = random.Random(55)
    for trial in range(100):
        dist = DISTS[trial % 4]
        n = rng.randint(10, 300)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n))
        g = gen_random(n, m, dist, rng.randrange(2**32))
        assert mst_weight_equal(prim_dense(g), kruskal_std(g))


# Weights whose float sum depends on the order they are added in: ties,
# signed zeros, subnormals, and magnitudes that cancel (1e16 + 1.0 rounds
# back to 1e16).
hazard_weights = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1.0, -1.0, 0.1, 0.2, 3.0]
) | st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def hazard_graphs(draw, max_n, min_m, max_m):
    """Graphs with hazard weights, parallel edges, self-loops and often
    disconnected parts, plus an explicit cut vector."""
    n = draw(st.integers(0, max_n))
    edges = []
    if n:
        vertex = st.integers(0, n - 1)
        edge = st.tuples(vertex, vertex, hazard_weights)
        edges = draw(st.lists(edge, min_size=min_m, max_size=max_m))
    cuts = draw(st.lists(hazard_weights, max_size=5))
    return graph_from_edges(n, edges), Boundaries(tuple(sorted(set(cuts))))


# Small graphs reach the exhaustive oracle; m >= 200 lets k=None stratify.
@settings(max_examples=200, deadline=None)
@given(case=hazard_graphs(8, 0, 14) | hazard_graphs(40, 200, 260))
def test_every_solver_and_oracle_gives_the_identical_total(case):
    g, cuts = case
    results = [
        kruskal_std(g),
        kruskal_heap(g),
        *(kruskal_eds(g, StrataParams(k=k, seed=3)) for k in (None, 1, 2, 7)),
        kruskal_eds(g, boundaries=cuts),
        prim_dense(g),
    ]
    for res in results:
        assert type(res.edge_ids) is array and res.edge_ids.typecode == "I"
        assert list(res.edge_ids) == sorted(res.edge_ids, key=lambda i: (g.w[i], i))
    totals = [res.total_weight for res in results]
    if g.n <= 8 and g.m <= 14:
        totals.append(exhaustive_mst(g))
    assert totals == [totals[0]] * len(totals)
    assert all(mst_weight_equal(results[0], res) for res in results)
