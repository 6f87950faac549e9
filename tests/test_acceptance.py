"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Criteria assert on exact formula values, oracle agreement, and sort-operation
counts. Wall-clock phase timings are never asserted (criterion 10): they are
runtime-specific and the ops-based criteria 4-6 stand in for them.
"""

import io
import random
import statistics
import time

import numpy as np

from helpers import DISTS
from stratmst import (
    Boundaries,
    StrataParams,
    WeightDist,
    exhaustive_mst,
    gen_path,
    gen_random,
    graph_from_edges,
    kruskal_eds,
    kruskal_std,
    mst_weight_equal,
    optimal_k,
    sample_size,
)
from stratmst.bench import RECORD_FIELDS, BenchRecord, run_suite, write_csv
from stratmst.cli import main
from stratmst.strata import sample_weights
from stratmst.validation import run_validation

REL = 1e-9


def report(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def close(a, b):
    return abs(a - b) <= REL * max(1.0, abs(b))


def test_c1_validation_suite():
    t0 = time.monotonic()
    results = run_validation()
    rc = main(["validate"])
    elapsed = time.monotonic() - t0

    fixed = {r.case: f"{r.weight:.4f}" for r in results if r.algo == "eds"}
    expected = {
        "clrs-textbook": "37.0000",
        "triangle": "3.0000",
        "disconnected-forest": "8.0000",
        "single-vertex": "0.0000",
        "duplicate-edges": "2.0000",
        "negative-weights": "-8.0000",
        "equal-weights": "4.0000",
    }
    ok = (
        rc == 0
        and all(r.passed for r in results)
        and len(results) == 36
        and all(fixed[name] == value for name, value in expected.items())
        and elapsed < 5.0
    )
    report("C1 validation suite (12 cases, 3 algorithms, <5s)", ok)


def test_c2_oracle_equivalence_500_graphs():
    t0 = time.monotonic()
    rng = random.Random(20250)
    failures = 0
    for trial in range(500):
        n = rng.randint(2, 8)
        cap = min(n * (n - 1) // 2, 20)
        m = rng.randint(n - 1, cap)
        g = gen_random(n, m, DISTS[trial % 4], rng.randrange(2**32))
        k = rng.randint(1, g.m)
        res = kruskal_eds(g, StrataParams(k=k, seed=rng.randrange(2**32)))
        if not close(res.total_weight, exhaustive_mst(g)):
            failures += 1
    elapsed = time.monotonic() - t0
    report(
        f"C2 oracle equivalence (500 graphs, failures={failures}, {elapsed:.1f}s < 60s)",
        failures == 0 and elapsed < 60.0,
    )


def test_c3_boundary_robustness_fuzz():
    rng = random.Random(31337)
    failures = 0
    for _ in range(200):
        n = rng.randint(2, 50)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 4 * n))
        g = gen_random(n, m, DISTS[rng.randrange(4)], rng.randrange(2**32))
        weights = sorted({e.weight for e in g.edges})
        cuts = set(rng.sample(weights, min(len(weights), rng.randint(0, 6))))
        cuts.update(rng.uniform(min(weights), max(weights)) for _ in range(rng.randint(0, 5)))
        injected = Boundaries(tuple(sorted(cuts)))
        if not mst_weight_equal(kruskal_eds(g, boundaries=injected), kruskal_std(g)):
            failures += 1
    report(f"C3 boundary-robustness fuzz (200 trials, failures={failures})", failures == 0)


def test_c4_dense_early_termination():
    t0 = time.monotonic()
    procs, ops = [], []
    for seed in range(5):
        g = gen_random(300, 40000, WeightDist.uniform(), seed)
        res = kruskal_eds(g, StrataParams(seed=seed))
        procs.append(res.metrics.strata_processed)
        ops.append(res.metrics.sort_ops)
    med_procs = statistics.median(procs)
    med_ops = statistics.median(ops)
    ratio = 40000 / med_ops
    elapsed = time.monotonic() - t0
    report(
        f"C4 dense early termination (median strata={med_procs} <= 6, "
        f"median ops={med_ops} <= 4000, ratio={ratio:.1f}x >= 10, {elapsed:.1f}s < 30s)",
        med_procs <= 6 and med_ops <= 4000 and ratio >= 10 and elapsed < 30.0,
    )


def test_c5_medium_ops_reduction():
    ops = []
    for seed in range(5):
        g = gen_random(500, 5000, WeightDist.uniform(), seed)
        ops.append(kruskal_eds(g, StrataParams(seed=seed)).metrics.sort_ops)
    med = statistics.median(ops)
    report(f"C5 medium ops reduction (median ops={med} <= 2500)", med <= 0.5 * 5000)


def test_c6_path_saturation():
    ok = True
    for seed in range(8):
        g = gen_path(2000, WeightDist.uniform(), seed)
        metrics = kruskal_eds(g, StrataParams(seed=seed)).metrics
        ok = ok and metrics.sort_ops == g.m
        ok = ok and metrics.strata_processed == metrics.strata_total
    report("C6 path saturation (sort_ops = m, all strata processed, every seed)", ok)


def test_c7_formula_exactness():
    ok = (
        optimal_k(100) == 1
        and optimal_k(600) == 10
        and optimal_k(40000) == 62
        and sample_size(4) == 4
        and sample_size(50) == 20
        and sample_size(10000) == 200
    )
    report("C7 formula exactness (optimal_k and sample_size)", ok)


def test_c8_dkw_statistical_check():
    t0 = time.monotonic()
    rng = random.Random(777)
    trials = 200
    exceed = 0
    for _ in range(trials):
        weights = [rng.uniform(0.0, 1000.0) for _ in range(10**4)]
        g = graph_from_edges(2, [(0, 1, w) for w in weights])
        picked = sample_weights(g.edges, 200, random.Random(rng.randrange(2**63)))
        s_sorted = np.sort(np.array(picked))
        full_sorted = np.sort(np.array(weights))
        # both ECDFs are right-continuous step functions, so the sup deviation
        # is attained at one of the jump points
        points = np.concatenate([s_sorted, full_sorted])
        f_sample = np.searchsorted(s_sorted, points, side="right") / len(s_sorted)
        f_full = np.searchsorted(full_sorted, points, side="right") / len(full_sorted)
        if np.max(np.abs(f_sample - f_full)) > 0.15:
            exceed += 1
    fraction = exceed / trials
    elapsed = time.monotonic() - t0
    report(
        f"C8 DKW check (exceed fraction={fraction} <= 0.02, {elapsed:.1f}s < 10s)",
        fraction <= 0.02 and elapsed < 10.0,
    )


def test_c9_suite_metrics_invariants():
    records = run_suite(trials=3)
    buf = io.StringIO()
    write_csv(BenchRecord, records, buf)
    lines = buf.getvalue().splitlines()

    ok = lines[0] == ",".join(RECORD_FIELDS) and len(lines) == 1 + 126
    ok = ok and all(r.sort_ops <= r.m for r in records)
    groups = {}
    for r in records:
        groups.setdefault((r.graph, r.trial), []).append(r)
    for group in groups.values():
        ref = group[0].mst_weight
        ok = ok and len(group) == 3
        ok = ok and all(close(r.mst_weight, ref) for r in group)
    report("C9 suite metrics invariants (126 rows, ops <= m, weights agree)", ok)


def test_c10_timing_excluded_by_design():
    # Wall-clock speedups are runtime-specific and are deliberately not
    # asserted anywhere; the CSV still carries time_ns for inspection.
    assert "time_ns" in RECORD_FIELDS
    report("C10 wall-clock speedups excluded by design (ops criteria substitute)", True)
