"""Lazy phase 2 of ``kruskal_eds``: the light prefix, the fallback, and the
connectivity model that chooses between them.

Every case is checked against the eager reference, ``partition_ids`` over
all edge ids: the lazy buckets must give the same accepted ids, sorted
edges and per-stratum acceptances, whichever way phase 2 went.
"""

import math
import random
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratmst import (
    Boundaries,
    EdgeRecord,
    GraphSpec,
    StrataParams,
    WeightDist,
    gen_path,
    gen_random,
    graph_from_edges,
    kruskal_eds,
    kruskal_heap,
    kruskal_std,
)
from stratmst.mst import SOLVERS, _phase2_buckets
from stratmst.strata import estimate_cuts, expected_strata, partition_ids, phase2_windows

UNIFORM = WeightDist.uniform()


def split_point(g, b):
    """``(hi, total)``: phase 2 buckets ``0..hi-1`` first when ``hi <= total // 2``."""
    total = len(b) + 1
    return phase2_windows(g.n, g.m, total)[0][1], total


def eds_boundaries(g, params):
    return estimate_cuts(g.m, g.w.__getitem__, params.resolve_k(g.m), params.seed)


def assert_matches_eager_reference(g, res, b):
    """``res`` accepts ``kruskal_std``'s ids and sorts exactly the first
    ``strata_processed`` buckets of ``partition_ids`` over every id."""
    ref = partition_ids(g.w, range(g.m), b.values)
    m = res.metrics
    p = m.strata_processed
    assert res.edge_ids == kruskal_std(g).edge_ids
    assert m.strata_total == len(ref)
    assert m.sort_ops == sum(map(len, ref[:p]))
    accepted = set(res.edge_ids)
    assert m.accepted_per_stratum == tuple(
        len(accepted.intersection(bucket)) if i < p else 0 for i, bucket in enumerate(ref)
    )
    if p < len(ref):  # stopped early: the last stratum sorted was needed
        assert m.accepted_per_stratum[p - 1] > 0
    assert m.partition_ops <= g.m


def clique(n, weight, offset=0):
    return [(a + offset, b + offset, weight(a, b)) for a in range(n) for b in range(a + 1, n)]


def random_weights(seed):
    rng = random.Random(seed)
    return lambda a, b: rng.uniform(0.0, 1000.0)


def test_prefix_completes_dense_forest():
    g = graph_from_edges(80, clique(80, random_weights(1)))
    params = StrataParams(seed=4)
    b = eds_boundaries(g, params)
    hi, total = split_point(g, b)
    assert hi <= total // 2
    res = kruskal_eds(g, params)
    assert res.metrics.strata_processed <= hi
    assert res.metrics.partition_ops < g.m
    assert_matches_eager_reference(g, res, b)


def test_pendant_vertex_on_the_heaviest_edge_forces_the_fallback():
    edges = clique(60, random_weights(2))
    edges.append((0, 60, 2000.0))  # the only edge to vertex 60, heavier than all
    g = graph_from_edges(61, edges)
    params = StrataParams(seed=4)
    b = eds_boundaries(g, params)
    hi, total = split_point(g, b)
    assert hi <= total // 2
    res = kruskal_eds(g, params)
    assert res.metrics.strata_processed == total
    assert res.metrics.partition_ops == g.m
    assert res.edge_ids[-1] == g.m - 1
    assert_matches_eager_reference(g, res, b)


def test_disconnected_dense_halves_process_every_stratum():
    weight = random_weights(3)
    g = graph_from_edges(80, clique(40, weight) + clique(40, weight, offset=40))
    for params in (StrataParams(seed=4), StrataParams(k=7, seed=4)):
        b = eds_boundaries(g, params)
        hi, total = split_point(g, b)
        assert hi <= total // 2
        res = kruskal_eds(g, params)
        assert res.accepted_count == g.n - 2
        assert res.metrics.strata_processed == total
        assert res.metrics.partition_ops == g.m
        assert_matches_eager_reference(g, res, b)


@pytest.mark.parametrize("k", [None, 7])
def test_all_equal_weights(k):
    # The sample's one distinct weight becomes the only cut, so the light
    # prefix is empty and the fallback buckets everything.
    g = graph_from_edges(50, clique(50, lambda a, b: 3.0))
    params = StrataParams(k=k, seed=4)
    b = eds_boundaries(g, params)
    assert b.values == (3.0,)
    res = kruskal_eds(g, params)
    assert res.metrics.sort_ops == g.m
    assert_matches_eager_reference(g, res, b)


def test_signed_zeros():
    rng = random.Random(5)
    g = graph_from_edges(
        60, clique(60, lambda a, b: rng.choice([-0.0, 0.0, 0.0, 1.0, 2.5, -1.0]))
    )
    for params in (StrataParams(seed=4), StrataParams(k=7, seed=4)):
        assert_matches_eager_reference(g, kruskal_eds(g, params), eds_boundaries(g, params))
    for b in (Boundaries((0.0,)), Boundaries((-0.0, 1.0)), Boundaries((-1.0, 0.0, 1.0))):
        assert_matches_eager_reference(g, kruskal_eds(g, boundaries=b), b)


def test_mixed_int_and_float_weights_against_int_cuts():
    # Int weights are packed as doubles, but explicit cuts stay as given. An
    # int cut compared with float weights must not go through
    # ``int.__gt__``, whose NotImplemented is truthy; bisect compares exactly.
    rng = random.Random(6)
    triples = clique(40, lambda a, b: rng.choice([rng.randint(0, 4), rng.uniform(0.0, 4.0)]))
    u, v, w = zip(*triples)
    g = GraphSpec.from_columns(40, u, v, w)
    assert g.w.typecode == "d" and list(g.w) == list(map(float, w))
    assert {type(x) for x in w} == {int, float}
    b = Boundaries((1, 2, 3))
    hi, total = split_point(g, b)
    assert hi <= total // 2
    assert_matches_eager_reference(g, kruskal_eds(g, boundaries=b), b)
    for params in (StrataParams(seed=4), StrataParams(k=7, seed=4)):
        assert_matches_eager_reference(g, kruskal_eds(g, params), eds_boundaries(g, params))


def test_every_number_type_packs_the_doubles_of_the_float_graph():
    # Ints and Fractions convert as array('d') converts them, exactly here
    # since every weight is a multiple of 1/4 below 2**53; the solvers then
    # see the float graph's doubles and give its ids and counters.
    rng = random.Random(11)
    u, v, _ = zip(*clique(25, lambda a, b: None))  # 300 edges: eds stratifies
    quarters = [rng.randint(-40, 40) for _ in u]
    columns = {
        "int": (quarters, [float(x) for x in quarters]),
        "numpy.int64": (np.array(quarters, dtype=np.int64), [float(x) for x in quarters]),
        "numpy.float64": (np.array(quarters) / 4, [x / 4 for x in quarters]),
        "Fraction": ([Fraction(x, 4) for x in quarters], [x / 4 for x in quarters]),
    }
    for name, (column, floats) in columns.items():
        reference = GraphSpec.from_columns(25, u, v, floats)
        for g in (
            GraphSpec.from_columns(25, u, v, column),
            graph_from_edges(25, zip(u, v, column)),
            GraphSpec(25, map(EdgeRecord, u, v, column, range(len(u)))),
        ):
            assert type(g.w) is array and g.w.typecode == "d", name
            assert g == reference, name
            for algo, solve in SOLVERS.items():
                for params in (StrataParams(seed=3), StrataParams(k=7, seed=3)):
                    got, want = solve(g, params), solve(reference, params)
                    assert _counters(got) == _counters(want), (name, algo)
                    assert got.total_weight == want.total_weight, (name, algo)


# Signed zeros, the smallest subnormals on both sides of zero, a larger
# subnormal, and two normal weights.
WEIGHT_POOL = (-0.0, 0.0, -5e-324, 5e-324, 1e-310, 1.0, 2.5)
CUT_POOLS = {"float": WEIGHT_POOL, "int": (-1, 0, 1, 2, 3)}


@pytest.mark.parametrize("kind", sorted(CUT_POOLS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_two_pass_schedule_matches_the_eager_reference(kind, data):
    # Weights equal to the light prefix's cut sit exactly on the split: a
    # light filter with ``<=``, or a complement filter with ``>``, misfiles
    # or drops them. A one-vertex graph expects no stratum, and its light
    # prefix must still hold one bucket.
    cuts = tuple(sorted(data.draw(
        st.lists(st.sampled_from(CUT_POOLS[kind]), min_size=1, max_size=8, unique_by=float),
        label="cuts",
    )))
    total = len(cuts) + 1
    n = data.draw(st.integers(1, 6), label="n")
    m = 1
    while len(phase2_windows(n, m, total)) == 1:
        m += 1
    m += data.draw(st.integers(0, 30), label="extra edges")
    (_, hi), _ = phase2_windows(n, m, total)
    assert 1 <= hi <= total // 2
    cut = cuts[hi - 1]
    weights = data.draw(
        st.lists(st.sampled_from(WEIGHT_POOL + (cut, cut)), min_size=m, max_size=m),
        label="weights",
    )
    g = GraphSpec.from_columns(n, [0] * m, [n - 1] * m, weights)
    work = [0, 0]
    got = []
    for bucket in _phase2_buckets(g, cuts, work):
        got.append(list(bucket))
        assert got[-1] == sorted(set(got[-1]))  # ascending ids
        if len(got) == hi:  # the light prefix alone is bucketed so far
            assert work[0] == sum(map(len, got))
    assert len(got) == total
    assert got == list(map(list, partition_ids(g.w, range(g.m), cuts)))
    assert work[0] == sum(map(len, got)) == g.m


def test_partition_ops_on_the_dense_acceptance_graph():
    g = gen_random(300, 40000, UNIFORM, 2)
    params = StrataParams(seed=2)
    res = kruskal_eds(g, params)
    assert 0 < res.metrics.partition_ops <= g.m / 4
    assert_matches_eager_reference(g, res, eds_boundaries(g, params))


def test_partition_ops_is_m_on_a_path():
    g = gen_path(2000, UNIFORM, 9)
    res = kruskal_eds(g, StrataParams(seed=9))
    assert res.metrics.partition_ops == g.m
    assert res.metrics.sort_ops == g.m


def test_partition_ops_is_zero_without_partitioning():
    g = gen_random(60, 400, UNIFORM, 8)
    assert kruskal_eds(g, StrataParams(k=1)).metrics.partition_ops == 0
    assert kruskal_std(g).metrics.partition_ops == 0
    assert kruskal_heap(g).metrics.partition_ops == 0


def _counters(res):
    ns = {name: 0 for name in res.metrics._fields if name.endswith("_ns")}
    return res.edge_ids, res.metrics._replace(**ns)


def test_repeat_runs_give_equal_counters():
    for g in (gen_random(300, 40000, UNIFORM, 3), gen_path(3000, UNIFORM, 3)):
        for params in (StrataParams(seed=3), StrataParams(k=7, seed=3)):
            assert _counters(kruskal_eds(g, params)) == _counters(kruskal_eds(g, params))


MONOTONE_MAPS = {
    "cube": lambda x: x**3,
    "exp2": lambda x: 2.0 ** (x / 50),
    "neg-inv-sqrt": lambda x: -1.0 / math.sqrt(x + 1),
}


@pytest.mark.parametrize("name", sorted(MONOTONE_MAPS))
def test_monotone_weight_maps_leave_the_run_unchanged(name):
    # Strata are sample quantiles, so every bucket depends on weight ranks
    # alone: a strictly increasing map changes no accepted id and no counter.
    f = MONOTONE_MAPS[name]
    for seed in range(8):
        g = gen_random(300, 6000, UNIFORM, seed)
        h = GraphSpec.from_columns(g.n, g.u, g.v, map(f, g.w))
        distinct = sorted(set(g.w))
        mapped = list(map(f, distinct))
        assert all(a < b for a, b in zip(mapped, mapped[1:])), "map merged two weights"
        for k in (None, 7):
            params = StrataParams(k=k, seed=seed)
            want, got = kruskal_eds(g, params), kruskal_eds(h, params)
            assert got.edge_ids == want.edge_ids
            for field in (
                "sort_ops",
                "partition_ops",
                "strata_processed",
                "strata_total",
                "accepted_per_stratum",
            ):
                assert getattr(got.metrics, field) == getattr(want.metrics, field), field


def test_phase2_windows():
    # The perfbench sizes: uniform-200k and path-200k keep the full
    # partition, dense-400k buckets 7 of 177 strata first.
    assert phase2_windows(20000, 200000, 129) == ((0, 129),)
    assert phase2_windows(2000, 400000, 177) == ((0, 7), (7, 177))
    assert phase2_windows(200000, 199999, 129) == ((0, 129),)
    # The split boundary: hi == k // 2 splits, hi == k // 2 + 1 does not.
    assert math.ceil(2 * expected_strata(2, 4, 9)) == 4
    assert phase2_windows(2, 4, 9) == ((0, 4), (4, 9))
    assert math.ceil(2 * expected_strata(2, 3, 9)) == 5
    assert phase2_windows(2, 3, 9) == ((0, 9),)
    assert math.ceil(2 * expected_strata(2, 3, 10)) == 5
    assert phase2_windows(2, 3, 10) == ((0, 5), (5, 10))
    assert math.ceil(2 * expected_strata(3, 6, 10)) == 6
    assert phase2_windows(3, 6, 10) == ((0, 10),)
    # One vertex expects no stratum; the light prefix still holds one.
    assert phase2_windows(1, 10, 5) == ((0, 1), (1, 5))
    assert phase2_windows(1, 1, 1) == ((0, 1),)


# (sort_ops, partition_ops, strata_processed, strata_total, union_calls) of
# kruskal_eds with default parameters on the perfbench workloads' sizes.
PERFBENCH_COUNTERS = {
    "uniform-200k": ((20000, 200000), (104892, 200000, 67, 129, 104083)),
    "dense-400k": ((2000, 400000), (10958, 14044, 5, 177, 9822)),
    "path-200k": ((200000,), (199999, 199999, 129, 129, 199999)),
}


@pytest.mark.parametrize("name", list(PERFBENCH_COUNTERS))
def test_counters_at_the_perfbench_sizes(name):
    size, want = PERFBENCH_COUNTERS[name]
    g = gen_random(*size, UNIFORM, 1) if len(size) == 2 else gen_path(*size, UNIFORM, 1)
    m = kruskal_eds(g).metrics
    assert (m.sort_ops, m.partition_ops, m.strata_processed, m.strata_total, m.union_calls) == want


def test_expected_strata_values():
    assert expected_strata(2000, 400000, 177) == 177 * (2000 * math.log(2000) / 800000)
    assert expected_strata(300, 40000, 62) == 62 * (300 * math.log(300) / 80000)
    # Sparse graphs clamp to every stratum.
    assert expected_strata(200000, 199999, 129) == 129.0
    assert expected_strata(4, 2, 5) == 5.0
    assert expected_strata(3, 2, 5) == 5 * (3 * math.log(3) / 4)
    assert expected_strata(1, 1, 9) == 0.0
    for n, m, k in ((0, 1, 1), (2, 0, 1), (2, 1, 0)):
        with pytest.raises(ValueError):
            expected_strata(n, m, k)
