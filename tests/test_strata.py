import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratmst import Boundaries, EdgeRecord, StrataParams, optimal_k, sample_size
from stratmst.strata import estimate_boundaries, estimate_cuts, partition, sample_weights


def edges_with_weights(weights):
    return [EdgeRecord(0, 0, w, i) for i, w in enumerate(weights)]


def test_sample_size_values():
    assert sample_size(0) == 0
    assert sample_size(4) == 4
    assert sample_size(50) == 20
    assert sample_size(10000) == 200
    assert sample_size(1) == 1
    with pytest.raises(ValueError, match="edge count must be non-negative, got -1"):
        sample_size(-1)


def test_optimal_k_values():
    assert optimal_k(0) == 1
    assert optimal_k(100) == 1
    assert optimal_k(199) == 1
    assert optimal_k(200) == 7
    assert optimal_k(600) == 10
    assert optimal_k(40000) == 62
    with pytest.raises(ValueError, match="edge count must be non-negative, got -1"):
        optimal_k(-1)


def test_strata_params_validation():
    with pytest.raises(ValueError):
        StrataParams(k=0)
    for k in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {k!r}")):
            StrataParams(k=k)
    assert StrataParams(k=True).resolve_k(10**6) == 1
    # A bad seed used to surface only in phase 1, as random.Random's TypeError.
    for seed in ([1], {"a": 1}, 1.5, "3", None):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            StrataParams(seed=seed)
    assert repr(StrataParams(seed=True)) == "StrataParams(k=None, seed=1)"
    assert StrataParams(k=3).resolve_k(10**6) == 3
    assert StrataParams().resolve_k(600) == 10
    assert StrataParams().resolve_k(50) == 1


def test_boundaries_must_strictly_increase():
    Boundaries((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        Boundaries((1.0, 1.0))
    with pytest.raises(ValueError):
        Boundaries((2.0, 1.0))
    with pytest.raises(ValueError, match=r"^boundary 0 is not finite: nan$"):
        Boundaries((float("nan"),))
    huge = 10**400
    with pytest.raises(ValueError, match=f"^boundary 1 does not convert to a double: {huge}$"):
        Boundaries((1.0, huge))
    for bad in ("2", None):
        with pytest.raises(ValueError, match=rf"^boundary 0 does not convert to a double: {bad!r}$"):
            Boundaries((bad, 3.0))


def test_estimate_boundaries_whole_population_sample():
    # m=10 <= 20 so the sample is the full edge set and the cuts are exact.
    edges = edges_with_weights([5.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 10.0])
    b = estimate_boundaries(edges, 5, seed=99)
    assert b.values == (3.0, 5.0, 7.0, 9.0)


def test_estimate_boundaries_deduplicates_constants():
    edges = edges_with_weights([5.0] * 12)
    for k in (2, 3, 8):
        assert estimate_boundaries(edges, k, seed=0).values == (5.0,)


def test_estimate_boundaries_degenerate_cases():
    edges = edges_with_weights([1.0, 2.0])
    assert estimate_boundaries(edges, 1, seed=0).values == ()
    assert estimate_boundaries([], 5, seed=0).values == ()
    with pytest.raises(ValueError):
        estimate_boundaries(edges, 0, seed=0)


def test_estimate_boundaries_deterministic():
    rng = random.Random(17)
    edges = edges_with_weights([rng.uniform(0, 1000) for _ in range(400)])
    a = estimate_boundaries(edges, 9, seed=123)
    b = estimate_boundaries(edges, 9, seed=123)
    assert a == b


def test_sample_weights_is_without_replacement():
    edges = edges_with_weights([float(i) for i in range(30)])
    got = sample_weights(edges, 30, random.Random(4))
    assert sorted(got) == [float(i) for i in range(30)]
    with pytest.raises(ValueError):
        sample_weights(edges, 31, random.Random(4))


def list_fisher_yates(m, size, rng):
    """Partial Fisher-Yates over a materialised position list."""
    idx = list(range(m))
    for j in range(size):
        r = rng.randrange(j, len(idx))
        idx[j], idx[r] = idx[r], idx[j]
    return idx[:size]


@pytest.mark.parametrize("m", [0, 1, 5, 20, 200, 10**4, 4 * 10**5])
def test_sample_weights_matches_list_fisher_yates(m):
    # Weight i at position i, so the sampled weights are the sampled positions.
    edges = edges_with_weights([float(i) for i in range(m)])
    for size in sorted({0, 1, 20, sample_size(m), m}):
        if size > m:
            continue
        for seed in range(5):
            want = [float(i) for i in list_fisher_yates(m, size, random.Random(seed))]
            assert sample_weights(edges, size, random.Random(seed)) == want


def cuts_by_every_k(m, weight_of, k, seed):
    """Phase 1 by its definition: one cut position per i in 1..k-1, O(k)."""
    sample = sorted(weight_of(i) for i in list_fisher_yates(m, sample_size(m), random.Random(seed)))
    s = len(sample)
    cuts = []
    for i in range(1, k):
        value = sample[(i * s) // k]
        if not cuts or value > cuts[-1]:
            cuts.append(value)
    return cuts


@pytest.mark.parametrize("m", [0, 2, 10, 21, 200, 5000])
def test_estimate_cuts_matches_one_cut_per_k(m):
    rng = random.Random(m)
    # Coarse weights give duplicate sample values, so deduplication matters.
    weights = [float(rng.randrange(m // 2 + 1)) for _ in range(m)]
    s = sample_size(m)
    for k in sorted({1, s - 1, s, s + 1, 10 * s} - {0, -1}):
        for seed in range(3):
            want = cuts_by_every_k(m, weights.__getitem__, k, seed)
            got = estimate_cuts(m, weights.__getitem__, k, seed)
            assert got.values == tuple(want), (k, seed)


def test_estimate_cuts_cost_does_not_grow_with_k():
    weights = [float(i) for i in range(10**4)]
    got = estimate_cuts(len(weights), weights.__getitem__, 10**12, seed=1)
    # More strata than samples: every sampled weight is a cut.
    assert got.values == tuple(cuts_by_every_k(len(weights), weights.__getitem__, 400, 1))
    assert len(got) == sample_size(len(weights))


def test_partition_example():
    edges = edges_with_weights([2.0, 3.0, 5.0, 7.0, 9.0])
    strat = partition(edges, Boundaries((3.0, 7.0)))
    assert [len(b) for b in strat] == [1, 2, 2]
    # weights equal to a boundary land in the bucket above it
    assert [e.weight for e in strat[1]] == [3.0, 5.0]
    assert [e.weight for e in strat[2]] == [7.0, 9.0]


def test_partition_no_boundaries_single_bucket():
    edges = edges_with_weights([9.0, 1.0, 5.0])
    strat = partition(edges, Boundaries())
    assert len(strat) == 1
    assert [e.id for e in strat[0]] == [0, 1, 2]


def test_partition_empty_edges():
    strat = partition([], Boundaries((1.0, 2.0)))
    assert [len(b) for b in strat] == [0, 0, 0]


finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
edge_lists = st.lists(finite, max_size=60).map(edges_with_weights)
boundary_vectors = st.lists(finite, unique=True, max_size=8).map(
    lambda vs: Boundaries(tuple(sorted(vs)))
)


@settings(max_examples=1000, deadline=None)
@given(edges=edge_lists, b=boundary_vectors)
def test_partition_is_a_partition(edges, b):
    strat = partition(edges, b)
    assert len(strat) == len(b) + 1
    got = Counter((e.weight, e.id) for bucket in strat for e in bucket)
    want = Counter((e.weight, e.id) for e in edges)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(edges=edge_lists, b=boundary_vectors)
def test_partition_weight_consistency(edges, b):
    buckets = partition(edges, b)
    tops = [(i, max(e.weight for e in bk)) for i, bk in enumerate(buckets) if bk]
    for (i, hi), (j, _) in zip(tops, tops[1:]):
        lo_j = min(e.weight for e in buckets[j])
        assert hi <= lo_j, (i, j)


@settings(max_examples=300, deadline=None)
@given(edges=edge_lists, b=boundary_vectors)
def test_partition_keeps_input_order(edges, b):
    for bucket in partition(edges, b):
        ids = [e.id for e in bucket]
        assert ids == sorted(ids)
