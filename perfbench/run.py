"""End-to-end and per-layer benchmark for ``stratmst mst``.

Run from the root of a stratmst checkout:

    python3 perfbench/run.py --workload uniform-200k --seed 1 --seconds 28 --trace 0

The benchmark generates the workload's edge-list file from ``--seed``,
computes its own reference answer, then drives the program in a closed loop
from a single client, one child process or one in-process call at a time.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from spans recorded around each public call. Every
answer is checked; the last line of standard output is one JSON result.
See perfbench/README.md for the metric, layer and workload map.
"""

from __future__ import annotations

import os

# Children and ``nproc`` get the caller's environment. numpy in this process
# gets a one-thread BLAS pool, so the benchmark itself starts no threads.
_ORIG_ENV = dict(os.environ)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from types import ModuleType

from graphs import (
    TOTAL_RTOL,
    WORKLOADS,
    EdgeArrays,
    Reference,
    Workload,
    check_cli_output,
    check_solution,
    derive_seed,
    generate,
    reference_mst,
    write_edge_list,
)
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
# The whole run must end well inside three minutes, however slow the program.
HARD_LIMIT_S = 165.0
MIN_CLI_SAMPLES = 12
MIN_TRACED_ITERATIONS = 3
SETUP_REPS = 3
# prim_dense is O(n^2) Python; it cross-checks the reference up to this n.
PRIM_MAX_N = 2_000
CLI_MAIN = "import sys; from stratmst.cli import main; sys.exit(main())"
# A fixed pure-Python loop, timed once per cycle, records how fast the shared
# machine ran during the run. It goes into the environment record only.
PROBE_LOOPS = 200_000

END_TO_END_UNITS = {
    "cli_wall_s": "s",
    "cli_wall_s.tail": "s",
    "cli_peak_rss_mb": "MB",
    "cli_edges_per_s": "edges/s",
    "solve_s": "s",
    "solve_s.tail": "s",
    "setup_s": "s",
    "correct_frac": "ratio",
}
PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    "cli.residual_s": "s",
    "edgelist.load_edge_list_s": "s",
    "edgelist.parse_self_s": "s",
    "graph.GraphSpec_s": "s",
    "graph.component_count_s": "s",
    "strata.estimate_boundaries_s": "s",
    "strata.sample_size": "count",
    "strata.boundaries": "count",
    "strata.partition_s": "s",
    "mst.eds_sort_scan_s": "s",
    "mst.eds_layer_sum_s": "s",
    "mst.eds_unaccounted_frac": "ratio",
    "mst.kruskal_eds_s": "s",
    "mst.kruskal_std_s": "s",
    "mst.kruskal_heap_s": "s",
    "mst.eds_speedup": "ratio",
    "mst.eds.sort_ops": "count",
    "mst.eds.sort_ratio": "ratio",
    "mst.eds.strata_processed": "count",
    "mst.eds.strata_total": "count",
    "mst.eds.union_calls": "count",
    "mst.eds.accept_ratio": "ratio",
    "trace.overhead_s": "s",
}


class Checker:
    """Counts every checked answer; a wrong one is reported, never dropped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        self.problems.append(f"{what}: {problem}")
        print(f"FAILED {what}: {problem}", file=sys.stderr)
        return False


@dataclass
class ChildRun:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str

    def problem(self) -> str | None:
        if self.exit_code == 0:
            return None
        return f"exit code {self.exit_code}: {self.stderr.strip()[-300:]!r}"


@dataclass
class Case:
    """One generated workload instance: its file, reference and loaded graph."""

    wl: Workload
    arrays: EdgeArrays
    path: str
    ref: Reference
    graph: object


class Bench:
    """Drives the program, checks every answer, and starts children via spawner.py."""

    def __init__(self, prog: ModuleType, root: str, out_dir: str, deadline: float) -> None:
        self.prog = prog
        self.out_dir = out_dir
        self.deadline = deadline
        self.checker = Checker()
        self.probes: list[float] = []
        self.spawner = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(_ORIG_ENV, PYTHONPATH=os.path.join(root, "src")),
        )

    def run_child(self, argv: list[str]) -> ChildRun:
        """Run one Python child through the spawner; wall time is spawn to exit."""
        out_path = os.path.join(self.out_dir, "child.out")
        err_path = os.path.join(self.out_dir, "child.err")
        request = {
            "argv": [sys.executable, *argv], "stdout": out_path, "stderr": err_path,
            "timeout_s": self.deadline - time.perf_counter(),
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        with open(out_path, encoding="utf-8", errors="replace") as f:
            stdout = f.read()
        with open(err_path, encoding="utf-8", errors="replace") as f:
            stderr = f.read()
        if reply["killed"]:
            stderr += "\nkilled: the run's time limit was reached"
        return ChildRun(
            reply["wall_s"], reply["maxrss_kb"] / 1024.0, reply["exit_code"], stdout, stderr
        )

    def probe(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        self.probes.append(time.perf_counter() - t0)

    def close(self) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()

    def run_cli(self, case: Case) -> ChildRun | None:
        """One ``stratmst mst --input FILE`` process with the default solver and seed."""
        run = self.run_child(["-c", CLI_MAIN, "mst", "--input", case.path])
        problem = run.problem() or check_cli_output(run.stdout, case.ref)
        self.checker.record("cli mst", problem)
        return run if problem is None else None

    def check_result(self, what: str, res, case: Case) -> bool:
        return self.checker.record(
            what, check_solution([e.id for e in res.edges], res.total_weight, case.ref)
        )

    def check_invariants(self, res, case: Case) -> bool:
        """On a path every edge is in the tree, so eds must sort every stratum."""
        if case.wl.kind != "path":
            return True
        mt = res.metrics
        problem = None
        if mt.sort_ops != case.arrays.m:
            problem = f"sort_ops {mt.sort_ops} != m {case.arrays.m}"
        elif mt.strata_processed != mt.strata_total:
            problem = f"strata_processed {mt.strata_processed} != strata_total {mt.strata_total}"
        return self.checker.record("path invariant", problem)

    def solve(self, g, case: Case) -> float | None:
        """Seconds taken by one default ``kruskal_eds`` call, or None if its answer is wrong."""
        gc.collect()
        try:
            t0 = time.perf_counter()
            res = self.prog.mst.kruskal_eds(g)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # a broken solver is a failed run, not a crash
            self.checker.record("kruskal_eds", repr(exc))
            return None
        ok = self.check_result("kruskal_eds", res, case)
        ok = self.check_invariants(res, case) and ok
        return elapsed if ok else None

    def set_up(self, wl: Workload, seed: int) -> Case:
        """Generate and write the file, compute the reference, load it and warm up."""
        arrays = generate(wl, derive_seed(seed, wl.name, "graph"))
        path = os.path.join(self.out_dir, f"{wl.name}.txt")
        write_edge_list(arrays, path)
        ref = reference_mst(arrays)
        case = Case(wl, arrays, path, ref, self.prog.edgelist.load_edge_list(path))
        self.solve(case.graph, case)
        return case

    def cross_check_reference(self, case: Case) -> None:
        if case.wl.n > PRIM_MAX_N:
            return
        res = self.prog.oracle.prim_dense(case.graph)
        problem = None
        if res.accepted_count != case.ref.count:
            problem = f"prim_dense count {res.accepted_count} != reference {case.ref.count}"
        elif abs(res.total_weight - case.ref.total) > TOTAL_RTOL * max(1.0, abs(case.ref.total)):
            problem = f"prim_dense total {res.total_weight!r} != reference {case.ref.total!r}"
        self.checker.record("reference vs prim_dense", problem)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and that percentile."""
    xs = sorted(samples)
    i = max(1, len(xs) - 10)
    return xs[i - 1], 100.0 * i / len(xs)


def run_untraced(bench: Bench, wl: Workload, seed: int, seconds: float, setup_reps: int):
    setup = []
    for _ in range(setup_reps):
        case = None  # each set-up starts from the same heap
        gc.collect()
        t0 = time.perf_counter()
        case = bench.set_up(wl, seed)
        setup.append(time.perf_counter() - t0)
    bench.cross_check_reference(case)

    cli: list[float] = []
    rss: list[float] = []
    solve: list[float] = []
    cli_runs = 0
    stop = time.perf_counter() + seconds
    while time.perf_counter() < bench.deadline and (
        time.perf_counter() < stop or cli_runs < MIN_CLI_SAMPLES
    ):
        cli_runs += 1
        bench.probe()
        cli_run = bench.run_cli(case)
        if cli_run is not None:
            cli.append(cli_run.wall_s)
            rss.append(cli_run.peak_rss_mb)
        elapsed = bench.solve(case.graph, case)
        if elapsed is not None:
            solve.append(elapsed)
    if not cli or not solve:
        raise RuntimeError("no successful run to time")

    cli_tail, cli_pct = tail(cli)
    solve_tail, solve_pct = tail(solve)
    values = {
        "cli_wall_s": statistics.median(cli),
        "cli_wall_s.tail": cli_tail,
        "cli_peak_rss_mb": statistics.median(rss),
        "cli_edges_per_s": wl.m / statistics.median(cli),
        "solve_s": statistics.median(solve),
        "solve_s.tail": solve_tail,
        "setup_s": statistics.median(setup),
        "correct_frac": 1.0 - bench.checker.failed / bench.checker.attempted,
    }
    notes = {
        "cli_wall_s": f"median of {len(cli)}",
        "cli_wall_s.tail": f"p{cli_pct:.1f} of {len(cli)} samples",
        "cli_peak_rss_mb": f"median of {len(rss)}",
        "cli_edges_per_s": f"m={wl.m} / median wall",
        "solve_s": f"median of {len(solve)}",
        "solve_s.tail": f"p{solve_pct:.1f} of {len(solve)} samples",
        "setup_s": f"median of {len(setup)}",
        "correct_frac": f"{bench.checker.attempted - bench.checker.failed}"
                        f"/{bench.checker.attempted} answers correct",
    }
    return values, notes, {"cli_wall_s": cli, "solve_s": solve, "setup_s": setup}


def traced_iteration(bench: Bench, tr: Tracer, case: Case, untraced: list[float]):
    """One pass over every layer, each public call inside its own span."""
    prog = bench.prog
    chk = bench.checker
    with tr.span("cli.startup"):
        startup = bench.run_child(["-c", "import stratmst.cli"])
    chk.record("cli startup", startup.problem())
    with tr.span("cli.mst"):
        bench.run_cli(case)

    with tr.span("edgelist.load_edge_list"):
        g = prog.edgelist.load_edge_list(case.path)
    with tr.span("graph.GraphSpec"):
        prog.graph.GraphSpec(g.n, g.edges)
    gc.collect()
    with tr.span("graph.component_count"):
        comps = prog.graph.component_count(g)
    expected = case.arrays.n - case.ref.count
    chk.record("component_count", None if comps == expected else f"{comps} != {expected}")

    params = prog.strata.StrataParams()
    with tr.span("strata.estimate_boundaries"):
        b = prog.strata.estimate_boundaries(g.edges, params.resolve_k(g.m), params.seed)
    gc.collect()
    with tr.span("strata.partition"):
        prog.strata.partition(g.edges, b)
    gc.collect()
    with tr.span("mst.kruskal_eds_given_b"):
        res_b = prog.mst.kruskal_eds(g, boundaries=b)
    bench.check_result("kruskal_eds(boundaries=b)", res_b, case)

    gc.collect()
    with tr.span("mst.kruskal_eds"):
        res = prog.mst.kruskal_eds(g)
    bench.check_result("kruskal_eds", res, case)
    bench.check_invariants(res, case)
    elapsed = bench.solve(g, case)
    if elapsed is not None:
        untraced.append(elapsed)

    for name, solver in (("kruskal_std", prog.mst.kruskal_std),
                         ("kruskal_heap", prog.mst.kruskal_heap)):
        gc.collect()
        with tr.span(f"mst.{name}"):
            other = solver(g)
        bench.check_result(name, other, case)
    return res.metrics, res.accepted_count, len(b)


def run_traced(bench: Bench, wl: Workload, seed: int, seconds: float, run_id: str):
    case = bench.set_up(wl, seed)
    bench.cross_check_reference(case)
    # Each pass loads its own graph. Dropping this one keeps the heap that
    # gc scans during the timed calls close to the CLI child's.
    case.graph = None
    tr = Tracer(run_id)
    untraced: list[float] = []
    iterations = 0
    stop = time.perf_counter() + seconds
    while time.perf_counter() < bench.deadline and (
        time.perf_counter() < stop or iterations < MIN_TRACED_ITERATIONS
    ):
        bench.probe()
        with tr.span("iteration"):
            mt, accepted, n_bounds = traced_iteration(bench, tr, case, untraced)
        iterations += 1
    if not untraced:
        raise RuntimeError("no successful run to time")

    med = {name: statistics.median(xs) for name, xs in tr.self_times().items()}
    m = case.arrays.m
    eds = med["mst.kruskal_eds"]
    sort_scan = med["mst.kruskal_eds_given_b"] - med["strata.partition"]
    layer_sum = med["strata.estimate_boundaries"] + med["strata.partition"] + sort_scan
    values = {
        "cli.startup_s": med["cli.startup"],
        "cli.residual_s": med["cli.mst"] - med["cli.startup"]
        - med["edgelist.load_edge_list"] - eds,
        "edgelist.load_edge_list_s": med["edgelist.load_edge_list"],
        "edgelist.parse_self_s": med["edgelist.load_edge_list"] - med["graph.GraphSpec"],
        "graph.GraphSpec_s": med["graph.GraphSpec"],
        "graph.component_count_s": med["graph.component_count"],
        "strata.estimate_boundaries_s": med["strata.estimate_boundaries"],
        "strata.sample_size": bench.prog.strata.sample_size(m),
        "strata.boundaries": n_bounds,
        "strata.partition_s": med["strata.partition"],
        "mst.eds_sort_scan_s": sort_scan,
        "mst.eds_layer_sum_s": layer_sum,
        "mst.eds_unaccounted_frac": 1.0 - layer_sum / eds,
        "mst.kruskal_eds_s": eds,
        "mst.kruskal_std_s": med["mst.kruskal_std"],
        "mst.kruskal_heap_s": med["mst.kruskal_heap"],
        "mst.eds_speedup": med["mst.kruskal_std"] / eds,
        "mst.eds.sort_ops": mt.sort_ops,
        "mst.eds.sort_ratio": m / mt.sort_ops,
        "mst.eds.strata_processed": mt.strata_processed,
        "mst.eds.strata_total": mt.strata_total,
        "mst.eds.union_calls": mt.union_calls,
        "mst.eds.accept_ratio": accepted / mt.union_calls,
        "trace.overhead_s": eds - statistics.median(untraced),
    }
    notes = {name: f"median of {iterations} passes"
             for name, unit in PER_LAYER_UNITS.items() if unit == "s"}
    notes["mst.eds_unaccounted_frac"] = (
        f"estimate_boundaries + partition + sort_scan = {layer_sum:.6f} s "
        f"of kruskal_eds {eds:.6f} s"
    )
    return values, notes, tr


def environment(seed: int, wl: Workload, root: str) -> dict:
    nproc = None
    if shutil.which("nproc"):
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, env=_ORIG_ENV,
                                   check=True).stdout)
    commit = None
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=root)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "loadavg_1m_start": os.getloadavg()[0],
        "git_commit": commit,
        "workload": wl.name,
        "n": wl.n,
        "m": wl.m,
        "seed": seed,
        "graph_seed": derive_seed(seed, wl.name, "graph"),
    }


def load_program(root: str) -> ModuleType:
    """Import ``stratmst`` and the modules it benchmarks from the checkout's own ``src``."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "stratmst", "cli.py")):
        raise FileNotFoundError(f"no stratmst sources under {src}")
    sys.path.insert(0, src)
    import stratmst
    import stratmst.cli  # noqa: F401  (compiles what the CLI child imports)
    import stratmst.edgelist
    import stratmst.graph
    import stratmst.mst
    import stratmst.oracle
    import stratmst.strata

    if os.path.dirname(os.path.dirname(os.path.abspath(stratmst.__file__))) != src:
        raise ImportError(f"stratmst was imported from {stratmst.__file__}, not {src}")
    return stratmst


def report(values: dict, units: dict, notes: dict) -> None:
    for name, value in values.items():
        print(f"# {name:<30} {value:>16.6g} {units[name]:<8} {notes.get(name, '')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = os.getcwd()
    try:
        prog = load_program(root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}; run from the root of a stratmst checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    wl = WORKLOADS[args.workload]
    env = environment(args.seed, wl, root)
    bench = Bench(prog, root, out_dir, started + HARD_LIMIT_S)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    print(f"# perfbench {tag}")

    try:
        if args.trace:
            values, notes, tr = run_traced(bench, wl, args.seed, args.seconds, tag)
            units = PER_LAYER_UNITS
            tr.write(os.path.join(out_dir, f"spans-{tag}.jsonl"))
            samples = {}
        else:
            values, notes, samples = run_untraced(bench, wl, args.seed, args.seconds, SETUP_REPS)
            units = END_TO_END_UNITS
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    env["loadavg_1m_end"] = os.getloadavg()[0]
    if bench.probes:
        env["speed_probe_ms"] = {
            "loops": PROBE_LOOPS, "count": len(bench.probes),
            "median": 1e3 * statistics.median(bench.probes),
            "min": 1e3 * min(bench.probes), "max": 1e3 * max(bench.probes),
        }
    env["elapsed_s"] = time.perf_counter() - started

    chk = bench.checker
    result = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as f:
        json.dump({"env": env, "notes": notes, "samples": samples, "problems": chk.problems,
                   **result}, f, indent=1)
    print(f"# env {json.dumps(env)}")
    report(values, units, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
