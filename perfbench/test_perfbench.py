"""Self-tests for the benchmark.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

import run
from graphs import (
    WORKLOADS,
    Workload,
    check_cli_output,
    check_solution,
    derive_seed,
    generate,
    reference_mst,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = {
    "uniform-200k": Workload("uniform-200k", "random", 200, 2_000),
    "dense-400k": Workload("dense-400k", "random", 40, 700),
    "path-200k": Workload("path-200k", "path", 500, 499),
}


@pytest.fixture
def bench(tmp_path):
    b = run.Bench(run.load_program(ROOT), ROOT, str(tmp_path), time.perf_counter() + 120)
    try:
        yield b
    finally:
        b.close()


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_tiny_workloads_are_one_per_real_workload():
    assert TINY.keys() == WORKLOADS.keys()
    assert all(TINY[name].kind == wl.kind for name, wl in WORKLOADS.items())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_untraced(bench, name):
    values, notes, samples = run.run_untraced(bench, TINY[name], 7, 0.0, setup_reps=2)
    assert bench.checker.failed == 0, bench.checker.problems
    assert values.keys() == run.END_TO_END_UNITS.keys()
    assert all(v > 0 for v in values.values())
    assert values["correct_frac"] == 1.0
    assert len(samples["cli_wall_s"]) >= run.MIN_CLI_SAMPLES
    assert 10 < values["cli_peak_rss_mb"] < 200


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_traced(bench, name, tmp_path):
    values, notes, tr = run.run_traced(bench, TINY[name], 7, 0.0, "test")
    assert bench.checker.failed == 0, bench.checker.problems
    assert values.keys() == run.PER_LAYER_UNITS.keys()
    names = {s.name for s in tr.spans}
    assert {"iteration", "cli.startup", "mst.kruskal_eds", "strata.partition"} <= names
    roots = [s for s in tr.spans if s.parent_id is None]
    assert len(roots) >= run.MIN_TRACED_ITERATIONS
    assert all(tr.spans[s.parent_id].name == "iteration" for s in tr.spans if s not in roots)
    tr.write(str(tmp_path / "spans.jsonl"))
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == len(tr.spans)
    if TINY[name].kind == "path":
        assert values["mst.eds.sort_ops"] == TINY[name].m
        assert values["mst.eds.accept_ratio"] == 1.0


def test_metric_names_and_units_match_benchmark_json():
    spec = _benchmark_json()
    assert {w["name"] for w in spec["workloads"]} == WORKLOADS.keys()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def _tiny_reference():
    g = generate(TINY["uniform-200k"], derive_seed(3, "tiny", "graph"))
    return g, reference_mst(g)


def test_checker_counts_wrong_cli_answers():
    _, ref = _tiny_reference()
    right = f"{ref.total:.4f} {ref.count}\n"
    assert check_cli_output(right, ref) is None
    wrong = [
        f"{ref.total + 0.01:.4f} {ref.count}\n",
        f"{ref.total:.4f} {ref.count - 1}\n",
        "",
        "error\n",
    ]
    checker = run.Checker()
    for out in [right, *wrong]:
        checker.record("cli", check_cli_output(out, ref))
    assert (checker.attempted, checker.failed) == (5, 4)


def test_checker_counts_wrong_in_process_answers():
    g, ref = _tiny_reference()
    ids = ref.ids.tolist()
    outside = min(set(range(g.m)) - set(ids))
    assert check_solution(ids[::-1], ref.total, ref) is None
    wrong = [
        (ids[:-1] + [outside], ref.total),
        (ids[:-1], ref.total),
        (ids, ref.total * (1 + 1e-6)),
    ]
    checker = run.Checker()
    for got, total in wrong:
        checker.record("solve", check_solution(got, total, ref))
    assert (checker.attempted, checker.failed) == (3, 3)


def test_checker_counts_broken_path_invariant(bench):
    wl = TINY["path-200k"]
    case = SimpleNamespace(wl=wl, arrays=SimpleNamespace(m=wl.m))
    full = SimpleNamespace(metrics=SimpleNamespace(
        sort_ops=wl.m, strata_processed=9, strata_total=9))
    early = SimpleNamespace(metrics=SimpleNamespace(
        sort_ops=wl.m - 5, strata_processed=8, strata_total=9))
    assert bench.check_invariants(full, case)
    assert not bench.check_invariants(early, case)
    assert bench.checker.failed == 1


def test_same_seed_same_graph_and_counts_other_seed_differs(bench):
    wl = TINY["uniform-200k"]
    a = generate(wl, derive_seed(5, wl.name, "graph"))
    b = generate(wl, derive_seed(5, wl.name, "graph"))
    c = generate(wl, derive_seed(6, wl.name, "graph"))
    assert all(np.array_equal(x, y) for x, y in ((a.u, b.u), (a.v, b.v), (a.w, b.w)))
    assert not np.array_equal(a.w, c.w)
    assert len({(u, v) for u, v in zip(a.u.tolist(), a.v.tolist())}) == wl.m

    counts = ("mst.eds.sort_ops", "mst.eds.strata_processed", "mst.eds.strata_total",
              "mst.eds.union_calls", "strata.boundaries")
    first, _, _ = run.run_traced(bench, wl, 5, 0.0, "a")
    again, _, _ = run.run_traced(bench, wl, 5, 0.0, "b")
    assert [first[k] for k in counts] == [again[k] for k in counts]
    assert bench.checker.failed == 0


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "path-200k", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
