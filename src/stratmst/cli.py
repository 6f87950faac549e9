"""Command-line interface: graph generation, MST solving, validation, benchmarks.

The report harness (``bench``, ``validation``) is imported inside the
commands that use it, and ``json`` inside the code that writes it, so
``stratmst gen`` and ``stratmst mst`` without ``--metrics`` load neither.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from functools import partial
from typing import IO, Callable, Iterator

from .edgelist import EdgeListError, load_edge_list, write_edge_list
from .generators import DEFAULT_MASTER_SEED, FAMILY_WEIGHTS, gen_family
from .graph import GraphSpec
from .mst import SOLVERS
from .strata import StrataParams


def _parse_k(text: str) -> int | None:
    if text == "auto":
        return None
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {text!r}")
    if k < 1:
        raise argparse.ArgumentTypeError(f"stratum count must be >= 1, got {k}")
    return k


def _list_of(convert: Callable[[str], float], noun: str, text: str) -> list[float]:
    try:
        return [convert(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")


_int_list = partial(_list_of, int, "integers")
_float_list = partial(_list_of, float, "numbers")


class CliError(Exception):
    """Fatal command error; main() prints the message and exits 2, as it
    does for a ``ValueError`` that a command's inputs raise."""


@contextmanager
def _open_out(path: str | None) -> Iterator[IO[str]]:
    """Standard output, or ``path`` opened for writing: the one place the CLI
    opens an output file. Commands open it after their computation, so a
    failed run never truncates an existing file. A failed open, write or
    close of ``path`` becomes a ``CliError``."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            yield stream
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_graph(path: str) -> GraphSpec:
    try:
        return load_edge_list(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except EdgeListError as exc:
        raise CliError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: input is not valid UTF-8 ({exc.reason})") from exc


def cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    reads = ("rows", "cols") if family == "grid" else ("n",) if family == "path" else ("n", "m")
    for name in ("n", "m", "rows", "cols"):
        if name not in reads and getattr(args, name) is not None:
            raise CliError(f"{family} family does not read --{name}")
    if family == "grid":
        if args.rows is None or args.cols is None:
            raise CliError("grid family needs --rows and --cols")
    elif args.n is None:
        raise CliError(f"{family} family needs --n")
    g = gen_family(family, args.seed, args.n, args.m, args.rows, args.cols)
    with _open_out(args.out) as stream:
        write_edge_list(g, stream)
    if args.out is not None:
        print(f"{g.n} {g.m}")
    return 0


def _peak_rss_kb() -> int | None:
    """This process's peak resident set size in KiB, or None where the
    ``resource`` module does not exist (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak  # macOS counts bytes


def cmd_mst(args: argparse.Namespace) -> int:
    t0 = time.perf_counter_ns()
    g = _load_graph(args.input)
    load_ns = time.perf_counter_ns() - t0
    res = SOLVERS[args.algo](g, StrataParams(k=args.k, seed=args.seed))
    print(f"{res.total_weight:.4f} {res.accepted_count}")
    if args.metrics:
        import json

        payload = res.metrics._asdict()
        payload["load_ns"] = load_ns
        if (peak := _peak_rss_kb()) is not None:
            payload["peak_rss_kb"] = peak
        print(json.dumps(payload), file=sys.stderr)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .validation import run_validation

    results = run_validation()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.case} {r.algo} {r.weight:.4f}")
    return 0 if all(r.passed for r in results) else 1


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench

    records = bench.run_suite(trials=args.trials, master_seed=args.seed)
    with _open_out(args.out) as stream:
        bench.write_csv(bench.BenchRecord, records, stream)
    for s in bench.summarize(records):
        base = s.time_ns["std"]
        times = " ".join(f"{algo}={t / 1e6:8.3f}ms" for algo, t in s.time_ns.items())
        speedups = " ".join(
            f"speedup-{algo}={base / t:5.2f}x"
            for algo, t in s.time_ns.items()
            if algo != "std"
        )
        print(
            f"{s.label:<17} n={s.n:<5} m={s.m:<6} {times} {speedups} "
            f"ops-ratio={s.ops_ratio:5.2f}x "
            f"strata={s.eds_strata_processed:.0f}/{s.eds_strata_total:.0f}",
            file=sys.stderr,
        )
    return 0


def cmd_sweep_k(args: argparse.Namespace) -> int:
    from . import bench

    g = _load_graph(args.input)
    points = bench.sweep_k(g, args.k_values, trials=args.trials, master_seed=args.seed)
    with _open_out(args.out) as stream:
        bench.write_csv(bench.SweepPoint, points, stream)
    return 0


def _write_sidecar(out: str | None, metadata: dict) -> None:
    import json

    text = json.dumps(metadata, indent=2)
    if out is None:
        print(text, file=sys.stderr)
    else:
        with _open_out(out + ".meta.json") as stream:
            stream.write(text + "\n")


def cmd_profile(args: argparse.Namespace) -> int:
    from . import bench

    g = _load_graph(args.input)
    profile = bench.strata_profile(g, args.k, args.seed)
    with _open_out(args.out) as stream:
        bench.write_csv(bench.ProfileRow, enumerate(profile), stream)
    _write_sidecar(
        args.out,
        {"input": args.input, "k": args.k, "seed": args.seed,
         "fractions": "accepted spanning-forest edges per stratum / total accepted"},
    )
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    from . import bench

    cells = bench.speedup_grid(
        args.density, args.skew, n=args.n, trials=args.trials, master_seed=args.seed
    )
    with _open_out(args.out) as stream:
        bench.write_csv(bench.GridCell, cells, stream)
    _write_sidecar(
        args.out, bench.grid_metadata(args.density, args.skew, args.n, args.trials, args.seed)
    )
    return 0


def _add_report_options(p: argparse.ArgumentParser) -> None:
    """The options every seeded report command (bench, sweep-k, grid) ends with."""
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p.add_argument("--out", help="CSV path (default: standard output)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratmst",
        description="Stratified minimum spanning tree toolkit: generators, solvers, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and write it as an edge list")
    p.add_argument("--family", choices=tuple(FAMILY_WEIGHTS), required=True)
    p.add_argument("--n", type=int, help="vertex count (non-grid families)")
    p.add_argument("--m", type=int, help="edge count (random families; family default if omitted)")
    p.add_argument("--rows", type=int, help="grid rows")
    p.add_argument("--cols", type=int, help="grid columns")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="output path (default: standard output)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("mst", help="compute the minimum spanning tree/forest of an edge list")
    p.add_argument("--algo", choices=tuple(SOLVERS), default="eds")
    p.add_argument("--k", type=_parse_k, default=None,
                   help="stratum count for eds: an integer or 'auto' (default)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed for eds")
    p.add_argument("--input", required=True)
    p.add_argument("--metrics", action="store_true",
                   help="emit run metrics as JSON on standard error")
    p.set_defaults(func=cmd_mst)

    p = sub.add_parser("validate", help="run the 12-case correctness suite")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="run the benchmark suite and write a CSV")
    _add_report_options(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep-k", help="measure eds across stratum counts on one graph")
    p.add_argument("--input", required=True)
    p.add_argument("--k-values", type=_int_list, default=[2, 5, 10, 20, 50, 100, 200, 500])
    _add_report_options(p)
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("profile", help="per-stratum share of accepted edges on one graph")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path (default: standard output)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("grid", help="empirical ops-ratio over a density x skew grid")
    p.add_argument("--n", type=int, default=120)
    p.add_argument("--density", type=_float_list, default=[0.02, 0.05, 0.1, 0.2, 0.4, 0.8])
    p.add_argument("--skew", type=_float_list, default=[0.0, 0.25, 0.5, 0.75, 1.0])
    _add_report_options(p)
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of standard output left (say, ``| head``). Python flushes
        # stdout again at exit, so point it at devnull to keep that quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
