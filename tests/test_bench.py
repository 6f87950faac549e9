import io

import pytest

from stratmst import GraphSpec, WeightDist, gen_random, graph_from_edges
from stratmst.bench import (
    DEFAULT_SUITE,
    RECORD_FIELDS,
    BenchRecord,
    GridCell,
    ProfileRow,
    SuiteConfig,
    SweepPoint,
    derive_seed,
    grid_metadata,
    run_suite,
    skew_to_dist,
    speedup_grid,
    strata_profile,
    summarize,
    sweep_k,
    write_csv,
)
from stratmst.mst import SOLVERS

SMALL_SUITE = (
    SuiteConfig("mini-sparse", "sparse", 40, 48, WeightDist.uniform()),
    SuiteConfig("mini-medium", "medium", 40, 400, WeightDist.half_normal()),
    SuiteConfig("mini-path", "path", 50, 49, WeightDist.uniform()),
    SuiteConfig("mini-grid", "grid", 30, 49, WeightDist.uniform(), rows=5, cols=6),
)


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(7, "a", 0) == derive_seed(7, "a", 0)
    assert derive_seed(7, "a", 0) != derive_seed(7, "a", 1)
    assert derive_seed(7, "a", 0) != derive_seed(8, "a", 0)


def test_default_suite_shape():
    assert len(DEFAULT_SUITE) == 14
    labels = [cfg.label for cfg in DEFAULT_SUITE]
    assert len(set(labels)) == 14
    dense = next(cfg for cfg in DEFAULT_SUITE if cfg.label == "dense")
    assert (dense.n, dense.m) == (300, 40000)
    path = next(cfg for cfg in DEFAULT_SUITE if cfg.label == "path-2000")
    assert (path.n, path.m) == (2000, 1999)


def test_run_suite_record_shape_and_agreement():
    records = run_suite(trials=2, master_seed=3, configs=SMALL_SUITE)
    assert len(records) == len(SMALL_SUITE) * 3 * 2
    by_key = {}
    for rec in records:
        assert rec.sort_ops <= rec.m
        assert rec.strata_processed <= rec.strata_total
        by_key.setdefault((rec.graph, rec.trial), []).append(rec)
    for group in by_key.values():
        assert len(group) == 3
        weights = [r.mst_weight for r in group]
        ref = weights[0]
        assert all(abs(w - ref) <= 1e-9 * max(1.0, abs(ref)) for w in weights)
        assert len({r.mst_edges for r in group}) == 1
        assert len({r.seed for r in group}) == 1


def test_run_suite_reproducible_modulo_timing():
    a = run_suite(trials=1, master_seed=5, configs=SMALL_SUITE[:2])
    b = run_suite(trials=1, master_seed=5, configs=SMALL_SUITE[:2])
    strip = lambda r: (r.graph, r.algo, r.seed, r.sort_ops, r.mst_weight, r.mst_edges)
    assert [strip(r) for r in a] == [strip(r) for r in b]


def test_run_suite_rejects_bad_trials():
    with pytest.raises(ValueError):
        run_suite(trials=0, configs=SMALL_SUITE)
    infeasible = SuiteConfig("too-many", "sparse", 3, 9, WeightDist.uniform())
    with pytest.raises(ValueError, match="generation failed for 'too-many': m=9 infeasible"):
        run_suite(trials=1, configs=[infeasible])
    misspelt = SuiteConfig("typo", "sprase", 30, 36, WeightDist.uniform())
    with pytest.raises(ValueError, match="generation failed for 'typo': unknown graph family"):
        run_suite(trials=1, configs=[misspelt])


def test_summarize_ratios():
    records = run_suite(trials=3, master_seed=11, configs=SMALL_SUITE)
    summaries = summarize(records)
    assert [s.label for s in summaries] == [cfg.label for cfg in SMALL_SUITE]
    for s in summaries:
        assert list(s.time_ns) == list(SOLVERS)
        assert all(t > 0 for t in s.time_ns.values())
        assert s.ops_ratio >= 1.0
        assert s.eds_sort_ops <= s.m
    path = next(s for s in summaries if s.label == "mini-path")
    assert path.ops_ratio == 1.0


def test_sweep_k_points():
    g = gen_random(100, 300, WeightDist.uniform(), 21)
    points = sweep_k(g, [1, 2, 5, 10], trials=2, master_seed=1)
    assert [p.k for p in points] == [1, 2, 5, 10]
    assert points[0].sort_ops == g.m  # k=1 is the global sort
    for p in points:
        assert p.sort_ops <= g.m
        assert p.strata_processed <= p.strata_total


def test_sweep_k_requires_values():
    g = gen_random(10, 15, WeightDist.uniform(), 2)
    with pytest.raises(ValueError):
        sweep_k(g, [])


def test_sweep_k_dedup_caps_strata():
    # k = m on a tiny graph with distinct weights: dedup caps the stratum
    # count at the number of distinct weights
    g = graph_from_edges(3, [(0, 1, 5.0), (1, 2, 7.0), (0, 2, 9.0)])
    (point,) = sweep_k(g, [g.m], trials=1)
    assert point.strata_total <= 3
    # with duplicates the minimum weight itself can become a boundary,
    # leaving an empty lightest bucket: the cap is distinct + 1
    g = graph_from_edges(4, [(0, 1, 5.0), (1, 2, 5.0), (2, 3, 7.0), (0, 3, 9.0)])
    (point,) = sweep_k(g, [g.m], trials=1)
    assert point.strata_total <= 3 + 1


def test_strata_profile_shapes():
    g = gen_random(200, 300, WeightDist.uniform(), 99)
    profile = strata_profile(g, 7, seed=99)
    assert len(profile) == 7
    assert abs(sum(profile) - 1.0) <= 1e-9
    assert all(f >= 0.0 for f in profile)

    assert strata_profile(g, 1, seed=0) == (1.0,)

    forest = graph_from_edges(4, [(0, 1, 3.0), (2, 3, 5.0)])
    fracs = strata_profile(forest, 2, seed=1)
    assert abs(sum(fracs) - 1.0) <= 1e-9

    assert strata_profile(GraphSpec(1, ()), 3, seed=0) == ()


def test_speedup_grid_markers_and_bounds():
    n = 150
    full = n * (n - 1) // 2
    cells = speedup_grid([0.001, (n - 1) / full, 0.9], [0.0, 0.5], n=n, trials=2)
    assert len(cells) == 6
    by = {(c.density, c.skew): c for c in cells}
    assert by[(0.001, 0.0)].ops_ratio is None  # m < n-1
    assert by[((n - 1) / full, 0.5)].ops_ratio == 1.0  # tree: every edge needed
    assert by[(0.9, 0.0)].ops_ratio >= 5.0  # dense, uniform: strong early stop


def test_speedup_grid_empty_inputs():
    for density, skew in (([], []), ([], [0.5]), ([0.5], [])):
        with pytest.raises(ValueError, match="must be non-empty"):
            speedup_grid(density, skew, n=50)


def test_speedup_grid_validates_ranges():
    with pytest.raises(ValueError):
        speedup_grid([1.5], [0.0], n=20)
    with pytest.raises(ValueError):
        speedup_grid([0.5], [2.0], n=20)


def test_skew_to_dist_mapping():
    assert skew_to_dist(0.0).kind == "uniform"
    d = skew_to_dist(0.5)
    assert d.kind == "pareto"
    assert d.params[0] == pytest.approx(1.0 / 1.1)


def test_records_csv_header_exact():
    records = run_suite(trials=1, master_seed=1, configs=SMALL_SUITE[:1])
    buf = io.StringIO()
    write_csv(BenchRecord, records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == (
        "graph,family,n,m,algo,trial,seed,time_ns,sort_ops,"
        "strata_processed,strata_total,mst_weight,mst_edges"
    )
    assert len(lines) == 1 + 3
    assert len(lines[1].split(",")) == len(RECORD_FIELDS)


def test_other_csv_writers():
    g = gen_random(50, 120, WeightDist.uniform(), 4)
    buf = io.StringIO()
    write_csv(SweepPoint, sweep_k(g, [1, 4], trials=1), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "k,time_ns,sort_ops,strata_processed,strata_total"
    assert len(lines) == 3

    buf = io.StringIO()
    write_csv(ProfileRow, enumerate(strata_profile(g, 4, seed=1)), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "stratum,fraction"

    buf = io.StringIO()
    write_csv(GridCell, speedup_grid([0.0001], [0.0], n=100, trials=1), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "density,skew,m,ops_ratio"
    assert lines[1].endswith(",")  # infeasible cell leaves the ratio empty


def test_grid_metadata_documents_the_mapping():
    meta = grid_metadata([0.1], [0.5], n=100, trials=3, master_seed=7)
    assert "skew_to_alpha" in meta
    assert meta["master_seed"] == 7
    assert meta["density_points"] == [0.1]
