import math
import pickle
import random
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import DISTS, disconnected_graph, tiny_graph, traced_memory
from stratmst import (
    Boundaries,
    EdgeRecord,
    GraphSpec,
    StrataParams,
    WeightDist,
    component_count,
    gen_path,
    gen_random,
    graph_from_edges,
    kruskal_eds,
    kruskal_heap,
    kruskal_std,
    mst_weight_equal,
    write_edge_list,
)
from stratmst.cli import main
from stratmst.mst import SOLVERS, Metrics, MstResult
from stratmst.oracle import prim_dense
from stratmst.validation import CLRS_EDGES

ALGOS = (
    kruskal_std,
    kruskal_heap,
    lambda g: kruskal_eds(g, StrataParams(seed=11)),
    lambda g: kruskal_eds(g, StrataParams(k=3, seed=11)),
)

TRIANGLE = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
NEGATIVE = graph_from_edges(3, [(0, 1, -5.0), (1, 2, -3.0), (0, 2, -1.0)])
PARALLEL = graph_from_edges(2, [(0, 1, 2.0), (0, 1, 5.0), (0, 1, 7.0)])
K5_EQUAL = graph_from_edges(5, [(u, v, 1.0) for u in range(5) for v in range(u + 1, 5)])
CLRS = graph_from_edges(9, CLRS_EDGES)


def test_std_fixed_cases():
    assert kruskal_std(TRIANGLE).total_weight == 3.0
    assert kruskal_std(NEGATIVE).total_weight == -8.0
    assert kruskal_std(K5_EQUAL).total_weight == 4.0
    assert kruskal_std(CLRS).total_weight == 37.0


def test_std_metrics():
    res = kruskal_std(CLRS)
    assert res.metrics.sort_ops == CLRS.m
    assert res.metrics.strata_processed == 1
    assert res.metrics.strata_total == 1
    assert res.accepted_count == 8


def test_heap_fixed_cases():
    assert kruskal_heap(GraphSpec(1, ())).total_weight == 0.0
    res = kruskal_heap(PARALLEL)
    assert res.total_weight == 2.0
    assert res.metrics.sort_ops == 1  # one pop completes the tree
    assert kruskal_heap(NEGATIVE).total_weight == -8.0


def test_heap_drains_on_disconnected_input():
    g = graph_from_edges(4, [(0, 1, 3.0), (2, 3, 5.0), (2, 3, 6.0)])
    res = kruskal_heap(g)
    assert res.total_weight == 8.0
    assert res.metrics.sort_ops == g.m


@pytest.mark.parametrize("k", [1, 2, 3, 5, 14, None])
def test_eds_clrs_any_k(k):
    res = kruskal_eds(CLRS, StrataParams(k=k, seed=5))
    assert res.total_weight == 37.0
    assert res.accepted_count == 8


def test_eds_path_processes_every_stratum():
    g = gen_path(2000, WeightDist.uniform(), 42)
    res = kruskal_eds(g, StrataParams(seed=42))
    assert res.metrics.sort_ops == g.m == 1999
    assert res.metrics.strata_processed == res.metrics.strata_total
    assert res.accepted_count == 1999


def test_eds_disconnected_returns_forest():
    g = graph_from_edges(4, [(0, 1, 3.0), (2, 3, 5.0)])
    res = kruskal_eds(g, StrataParams(k=2, seed=1))
    assert res.total_weight == 8.0
    assert res.accepted_count == 2
    assert res.metrics.strata_processed == res.metrics.strata_total == 2


def test_eds_k1_is_the_global_sort():
    g = gen_random(60, 150, WeightDist.uniform(), 8)
    eds = kruskal_eds(g, StrataParams(k=1, seed=8))
    std = kruskal_std(g)
    assert eds.metrics.sort_ops == g.m
    assert eds.metrics.strata_total == 1
    assert [e.id for e in eds.edges] == [e.id for e in std.edges]


def test_auto_k_fallback_below_threshold():
    g = gen_random(40, 80, WeightDist.uniform(), 3)  # m < 200 resolves to k=1
    res = kruskal_eds(g, StrataParams(seed=3))
    assert res.metrics.strata_total == 1
    assert res.metrics.phase1_ns == 0
    assert res.metrics.phase2_ns == 0


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_timing_fields_are_nonnegative_ints(name):
    # Timings are machine-specific: only their presence and type are checked.
    g = gen_random(200, 3000, WeightDist.uniform(), 4)
    metrics = SOLVERS[name](g, StrataParams(seed=4)).metrics
    timings = {field: getattr(metrics, field) for field in metrics._fields if field.endswith("_ns")}
    assert set(timings) == {"phase1_ns", "phase2_ns", "sort_ns", "scan_ns"}
    assert all(type(t) is int and t >= 0 for t in timings.values())


def test_empty_inputs_give_zero_result():
    for g in (GraphSpec(0, ()), GraphSpec(1, ()), GraphSpec(5, ())):
        for run in ALGOS:
            res = run(g)
            assert res.total_weight == 0.0
            assert res.edges == ()
            assert res.metrics.sort_ops == 0
    loop_only = graph_from_edges(1, [(0, 0, 2.0)])
    assert kruskal_std(loop_only).accepted_count == 0
    # Nothing accepted on a graph that has edges: the total is still a float.
    loops = graph_from_edges(3, [(0, 0, 2.0), (2, 2, -1.0)])
    for run in (*ALGOS, prim_dense):
        res = run(loops)
        assert (tuple(res.edge_ids), res.accepted_count) == ((), 0)
        assert type(res.total_weight) is float and res.total_weight == 0.0


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_trivial_graphs_return_before_any_phase(name):
    # 300 self-loops resolve auto k above 1: the return must come before
    # phase 1 samples, so every timer and counter stays at zero.
    loops = graph_from_edges(1, [(0, 0, float(w)) for w in range(300)])
    assert StrataParams().resolve_k(loops.m) > 1
    for g in (loops, GraphSpec(4, ())):
        res = SOLVERS[name](g, StrataParams(seed=2))
        assert tuple(res.edge_ids) == ()
        assert res.metrics == Metrics()


def test_self_loops_never_accepted():
    g = graph_from_edges(3, [(0, 0, 0.5), (0, 1, 1.0), (1, 1, 0.1), (1, 2, 2.0)])
    for run in ALGOS:
        res = run(g)
        assert res.total_weight == 3.0
        assert all(e.u != e.v for e in res.edges)


def test_tie_breaking_gives_identical_edge_sets():
    rng = random.Random(2)
    g = graph_from_edges(
        7,
        [
            (u, v, float(rng.choice([1.0, 2.0])))
            for u in range(7)
            for v in range(u + 1, 7)
        ],
    )
    ids = [tuple(e.id for e in run(g).edges) for run in ALGOS]
    assert len(set(ids)) == 1


def test_mst_weight_equal_comparator():
    a = kruskal_std(TRIANGLE)
    b = kruskal_eds(TRIANGLE, StrataParams(k=2, seed=0))
    assert mst_weight_equal(a, b)
    assert mst_weight_equal(kruskal_std(NEGATIVE), kruskal_heap(NEGATIVE))
    wrong = kruskal_std(graph_from_edges(3, [(0, 1, 1.0), (1, 2, 3.0), (0, 2, 3.0)]))
    assert not mst_weight_equal(a, wrong)
    # Finite weights whose total overflows: every solver and the oracle agree.
    overflow = graph_from_edges(3, [(0, 1, 1e308), (1, 2, 1e308)])
    results = [run(overflow) for run in (*ALGOS, prim_dense)]
    assert {r.total_weight for r in results} == {math.inf}
    assert all(mst_weight_equal(results[0], r) for r in results)


def test_injected_boundaries_never_change_the_answer():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 50)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n))
        g = gen_random(n, m, DISTS[rng.randrange(4)], rng.randrange(2**32))
        # mix arbitrary cut points with exact edge weights to hit the
        # equal-to-boundary path of the half-open rule
        weights = sorted({e.weight for e in g.edges})
        picks = rng.sample(weights, min(len(weights), rng.randint(0, 5)))
        picks += [rng.uniform(min(weights), max(weights)) for _ in range(rng.randint(0, 4))]
        injected = Boundaries(tuple(sorted(set(picks))))
        res = kruskal_eds(g, boundaries=injected)
        assert mst_weight_equal(res, kruskal_std(g))


def test_early_termination_is_tight():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(3, 60)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 4 * n))
        g = gen_random(n, m, DISTS[rng.randrange(4)], rng.randrange(2**32))
        res = kruskal_eds(g, StrataParams(k=rng.randint(2, 12), seed=rng.randrange(99)))
        metrics = res.metrics
        assert metrics.sort_ops <= g.m
        assert metrics.strata_processed <= metrics.strata_total
        assert metrics.union_calls <= g.m
        # connected input: the run stops inside the bucket that completed
        # the tree, so the last processed bucket holds the final accept
        per = metrics.accepted_per_stratum
        last_accepting = max(i for i, c in enumerate(per) if c)
        assert metrics.strata_processed == last_accepting + 1


def test_forest_size_matches_component_count():
    rng = random.Random(9)
    for _ in range(30):
        g = disconnected_graph(rng, parts=rng.randint(1, 3))
        want = g.n - component_count(g)
        for run in ALGOS:
            assert run(g).accepted_count == want


def test_eds_agrees_with_std_across_k_and_seeds():
    rng = random.Random(77)
    for _ in range(100):
        g = tiny_graph(rng, max_n=12, max_m=30)
        std = kruskal_std(g)
        k = rng.choice([1, 2, rng.randint(1, g.m), g.m, None])
        res = kruskal_eds(g, StrataParams(k=k, seed=rng.randrange(2**32)))
        assert mst_weight_equal(res, std)


def test_solvers_and_cli_build_no_edge_records(tmp_path, monkeypatch, capsys):
    g = gen_random(400, 4000, WeightDist.uniform(), seed=8)
    path = tmp_path / "g.txt"
    with open(path, "w") as stream:
        write_edge_list(g, stream)
    built = []
    new = EdgeRecord.__new__

    def counting_new(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(EdgeRecord, "__new__", counting_new)
    for k in ("auto", "1", "7"):
        assert main(["mst", "--input", str(path), "--k", k]) == 0
    results = [solve(g, StrataParams()) for solve in SOLVERS.values()]
    assert results[1].metrics.strata_total > 1  # eds sampled and partitioned
    assert built == []
    # Records appear only when asked for: one per accepted edge.
    edges = results[0].edges
    assert len(built) == len(edges) == g.n - 1
    assert edges[0] == g.edges[edges[0].id]
    # Every record, in acceptance order.
    for res in (*results, prim_dense(g)):
        assert res.edges == tuple(g.edges[i] for i in res.edge_ids)


@pytest.mark.parametrize("name", [*sorted(SOLVERS), "component_count"])
def test_solver_memory_follows_the_edges(name):
    # One edge under a header of 10**6 vertices: the forest's 4-byte C-int
    # slots are all that grows with n, with no int object per vertex.
    g = GraphSpec.from_columns(10**6, [0], [1], [1.0])

    def edges_or_components():
        if name == "component_count":
            return component_count(g)
        return SOLVERS[name](g, StrataParams(seed=1)).accepted_count

    count, _, peak = traced_memory(edges_or_components)
    assert count == (g.n - 1 if name == "component_count" else 1)
    assert peak < 5_000_000


def test_eds_memory_on_a_path_follows_the_vertices():
    # A path accepts every edge it buckets. Packed buckets, forest and
    # accepted ids keep about 11 B per vertex; an int object per id or per
    # forest entry would add 28 B each.
    n = 100_000
    g = gen_path(n, WeightDist.uniform(), seed=1)
    res, _, peak = traced_memory(lambda: kruskal_eds(g))
    assert res.accepted_count == n - 1
    assert peak < 16 * n


def test_eds_makes_ids_only_for_the_edges_it_buckets():
    # eds buckets a light prefix of about 1k of the 40k edges; a full
    # id tuple with its ints would cost about 1.4 MB.
    g = gen_random(300, 40_000, WeightDist.uniform(), 1)
    res, _, peak = traced_memory(lambda: kruskal_eds(g))
    assert res.metrics.partition_ops < g.m // 10
    assert peak < 500_000


def test_results_hash_without_their_edge_ids():
    # Two trees of one graph with the same total and metrics: equal only
    # when their ids are. edge_ids, a mutable array, stays out of the hash.
    g = graph_from_edges(2, [(0, 1, 2.0), (0, 1, 2.0)])
    first, second = MstResult(g, [0], Metrics()), MstResult(g, (1,), Metrics())
    assert (first.edge_ids.typecode, list(first.edge_ids)) == ("I", [0])
    assert first == MstResult(g, array("I", [0]), Metrics())
    assert first != second
    assert hash(first) == hash(second)
    assert len({first, second, MstResult(g, [0], Metrics())}) == 2


def test_value_types_keep_their_reprs_and_read_only_fields():
    g = graph_from_edges(2, [(0, 1, 2.0)])
    res = MstResult(g, [0], Metrics())
    assert repr(g) == "GraphSpec(n=2, u=array('H', [0]), v=array('H', [1]), w=array('d', [2.0]))"
    assert repr(res) == f"MstResult(edge_ids=array('I', [0]), metrics={Metrics()!r}, total_weight=2.0)"
    assert repr(res.edges[0]) == "EdgeRecord(u=0, v=1, weight=2.0, id=0)"
    assert repr(Boundaries([1.0])) == "Boundaries(values=(1.0,))"
    assert repr(StrataParams(k=2)) == "StrataParams(k=2, seed=0)"
    assert repr(WeightDist.pareto()) == "WeightDist(kind='pareto', params=(1.5, 1.0))"
    assert Boundaries([1.0]) == Boundaries((1.0,)) and len(Boundaries([1.0, 2.0])) == 2
    assert hash(Boundaries([1.0])) == hash(Boundaries((1.0,)))
    with pytest.raises(TypeError):
        hash(g)
    for value, name in [
        (g, "n"), (res, "metrics"), (res.metrics, "sort_ops"), (res.edges[0], "u"),
        (Boundaries(), "values"), (StrataParams(), "k"), (WeightDist.uniform(), "kind"),
    ]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        assert pickle.loads(pickle.dumps(value)) == value


def reference_kruskal(g):
    """Accepted ids and ids scanned: a global (w, id) sort and a union-find
    with no rank and no compression, independent of ``kruskal_scan``."""
    parent = list(range(g.n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    accepted = []
    scanned = 0
    for i in sorted(range(g.m), key=lambda i: (g.w[i], i)):
        if len(accepted) == g.n - 1:
            break
        scanned += 1
        a, b = root(g.u[i]), root(g.v[i])
        if a != b:
            parent[a] = b
            accepted.append(i)
    return accepted, scanned


# Few distinct weights force ties; -0.0 and 0.0 compare equal, so only the
# id orders them.
tie_weights = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0]) | st.floats(
    -5.0, 5.0, allow_nan=False
)


@st.composite
def graphs_with_boundaries(draw):
    """Graphs with ties, signed zeros, parallel edges, self-loops and
    disconnected parts, plus an explicit cut vector."""
    n = draw(st.integers(min_value=0, max_value=14))
    edges = []
    if n:
        vertex = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex, tie_weights), max_size=60))
        edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    cuts = draw(st.lists(tie_weights, max_size=6))
    return graph_from_edges(n, edges), Boundaries(tuple(sorted(set(cuts))))


def _row_major_grid(rows, cols):
    """Grid whose edge weights rise in row-major order of their first endpoint."""
    edges = []
    for x in range(rows * cols):
        if (x + 1) % cols:
            edges.append((x, x + 1, float(len(edges))))
        if x + cols < rows * cols:
            edges.append((x, x + cols, float(len(edges))))
    return graph_from_edges(rows * cols, edges)


# Inputs that build deep trees when the union-find links roots by index.
STAR_FIRST = graph_from_edges(12, [(0, x, float(x % 5)) for x in range(1, 12)])
STAR_LAST = graph_from_edges(12, [(11, x, float(x % 5)) for x in range(11)])
PATH_RISING = graph_from_edges(12, [(x, x + 1, float(x)) for x in range(11)])
PATH_FALLING = graph_from_edges(12, [(x, x + 1, float(11 - x)) for x in range(11)])
TOP_ISOLATED = graph_from_edges(
    12, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 0.0), (3, 4, -0.0), (4, 5, 3.0)]
)
LINKING_CUTS = Boundaries((1.0, 4.0))


@settings(max_examples=400, deadline=None)
@given(case=graphs_with_boundaries(), k=st.sampled_from([None, 1, 2, 3, 7, 10**9]))
@example(case=(STAR_FIRST, LINKING_CUTS), k=3)
@example(case=(STAR_LAST, LINKING_CUTS), k=3)
@example(case=(PATH_RISING, LINKING_CUTS), k=3)
@example(case=(PATH_FALLING, LINKING_CUTS), k=3)
@example(case=(_row_major_grid(4, 5), LINKING_CUTS), k=3)
@example(case=(TOP_ISOLATED, LINKING_CUTS), k=3)
def test_every_solver_accepts_the_reference_kruskal_ids(case, k):
    g, cuts = case
    want, scanned = reference_kruskal(g)
    for res in (
        kruskal_std(g),
        kruskal_heap(g),
        kruskal_eds(g, StrataParams(k=k, seed=5)),
        kruskal_eds(g, boundaries=cuts),
    ):
        assert tuple(res.edge_ids) == tuple(want)
        assert res.accepted_count == len(want)
        assert res.metrics.union_calls == scanned
