"""Benchmark harness: suite runner, k-sweep, stratum profile, speedup grid.

The primary signal everywhere is ``sort_ops`` (edges pushed through sorts),
which is machine-independent; wall-clock columns are emitted for human
inspection only. Seeds derive from a master seed by hashing labels, so runs
are reproducible while trials stay decorrelated.

Each report row is a ``NamedTuple`` whose fields, in order, are its CSV
columns; ``write_csv`` takes the header from the row type's ``_fields``,
so a column is declared once. Summaries iterate ``mst.SOLVERS``, with
``std`` as the speedup base, so a new solver needs no new report field.
"""

from __future__ import annotations

import csv
import hashlib
import statistics
import time
from typing import IO, Iterable, NamedTuple, Sequence

from .generators import DEFAULT_MASTER_SEED, WeightDist, gen_grid, gen_path, gen_random
from .graph import GraphSpec
from .mst import SOLVERS, kruskal_eds
from .strata import StrataParams

ALGOS = tuple(SOLVERS)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def derive_seed(master: int, *parts: object) -> int:
    """Stable 64-bit seed from a master seed and arbitrary labels."""
    text = ":".join([str(master), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SuiteConfig(NamedTuple):
    """One benchmark configuration: a labelled graph family instance."""

    label: str
    family: str
    n: int
    m: int
    dist: WeightDist
    rows: int = 0  # grid family only
    cols: int = 0

    def build(self, seed: int) -> GraphSpec:
        if self.family == "grid":
            return gen_grid(self.rows, self.cols, self.dist, seed)
        if self.family == "path":
            return gen_path(self.n, self.dist, seed)
        return gen_random(self.n, self.m, self.dist, seed)


def _grid_config(label: str, rows: int, cols: int) -> SuiteConfig:
    return SuiteConfig(
        label,
        "grid",
        rows * cols,
        2 * rows * cols - rows - cols,
        WeightDist.uniform(),
        rows=rows,
        cols=cols,
    )


DEFAULT_SUITE: tuple[SuiteConfig, ...] = (
    SuiteConfig("sparse-uniform", "sparse", 500, 600, WeightDist.uniform()),
    SuiteConfig("sparse-normal", "sparse", 500, 600, WeightDist.half_normal()),
    SuiteConfig("sparse-power", "sparse", 500, 600, WeightDist.pareto()),
    SuiteConfig("sparse-clustered", "sparse", 500, 600, WeightDist.clustered()),
    SuiteConfig("medium-uniform", "medium", 500, 5000, WeightDist.uniform()),
    SuiteConfig("medium-normal", "medium", 500, 5000, WeightDist.half_normal()),
    SuiteConfig("dense", "dense", 300, 40000, WeightDist.uniform()),
    _grid_config("grid-20x20", 20, 20),
    _grid_config("grid-30x30", 30, 30),
    SuiteConfig("path-2000", "path", 2000, 1999, WeightDist.uniform()),
    SuiteConfig("sparse-2000", "sparse", 2000, 2500, WeightDist.uniform()),
    SuiteConfig("sparse-5000", "sparse", 5000, 6000, WeightDist.uniform()),
    SuiteConfig("medium-1000", "medium", 1000, 10000, WeightDist.uniform()),
    SuiteConfig("power-1000", "power", 1000, 5000, WeightDist.pareto()),
)


class BenchRecord(NamedTuple):
    """One (configuration, algorithm, trial) measurement."""

    graph: str
    family: str
    n: int
    m: int
    algo: str
    trial: int
    seed: int
    time_ns: int
    sort_ops: int
    strata_processed: int
    strata_total: int
    mst_weight: float
    mst_edges: int


RECORD_FIELDS = BenchRecord._fields


def run_suite(
    trials: int = 3,
    master_seed: int = DEFAULT_MASTER_SEED,
    configs: Sequence[SuiteConfig] = DEFAULT_SUITE,
) -> list[BenchRecord]:
    """Run every configuration under all three solvers for `trials` trials."""
    _check_trials(trials)
    records: list[BenchRecord] = []
    for cfg in configs:
        for trial in range(trials):
            seed = derive_seed(master_seed, cfg.label, trial)
            try:
                g = cfg.build(seed)
            except ValueError as exc:
                raise ValueError(f"generation failed for {cfg.label!r}: {exc}") from exc
            params = StrataParams(seed=seed)
            for algo, solve in SOLVERS.items():
                t0 = time.perf_counter_ns()
                res = solve(g, params)
                elapsed = time.perf_counter_ns() - t0
                records.append(
                    BenchRecord(
                        graph=cfg.label,
                        family=cfg.family,
                        n=g.n,
                        m=g.m,
                        algo=algo,
                        trial=trial,
                        seed=seed,
                        time_ns=elapsed,
                        sort_ops=res.metrics.sort_ops,
                        strata_processed=res.metrics.strata_processed,
                        strata_total=res.metrics.strata_total,
                        mst_weight=res.total_weight,
                        mst_edges=res.accepted_count,
                    )
                )
    return records


class SuiteSummary(NamedTuple):
    """Per-configuration medians over trials, with the eds ops ratio.

    ``time_ns`` maps every solver, in ``SOLVERS`` order, to its median
    wall time; the speedup of a solver is ``time_ns["std"]`` over its own.
    """

    label: str
    n: int
    m: int
    time_ns: dict[str, float]
    eds_sort_ops: float
    ops_ratio: float
    eds_strata_processed: float
    eds_strata_total: float


def summarize(records: Sequence[BenchRecord]) -> list[SuiteSummary]:
    """Collapse suite records into one summary per graph label."""
    by_label: dict[str, dict[str, list[BenchRecord]]] = {}
    for rec in records:
        if rec.graph not in by_label:
            by_label[rec.graph] = {algo: [] for algo in ALGOS}
        by_label[rec.graph][rec.algo].append(rec)

    summaries = []
    for label, groups in by_label.items():
        eds = groups["eds"]
        med_ops = statistics.median(r.sort_ops for r in eds)
        any_rec = eds[0]
        summaries.append(
            SuiteSummary(
                label=label,
                n=any_rec.n,
                m=any_rec.m,
                time_ns={
                    algo: statistics.median(r.time_ns for r in group)
                    for algo, group in groups.items()
                },
                eds_sort_ops=med_ops,
                ops_ratio=any_rec.m / med_ops,
                eds_strata_processed=statistics.median(
                    r.strata_processed for r in eds
                ),
                eds_strata_total=statistics.median(r.strata_total for r in eds),
            )
        )
    return summaries


class SweepPoint(NamedTuple):
    """Median EDS measurements at one stratum count."""

    k: int
    time_ns: float
    sort_ops: float
    strata_processed: float
    strata_total: float


def sweep_k(
    g: GraphSpec,
    k_values: Sequence[int],
    trials: int = 3,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> list[SweepPoint]:
    """Run the stratified solver at each requested k; medians over trials."""
    if not k_values:
        raise ValueError("k_values must be non-empty")
    _check_trials(trials)
    points = []
    for k in k_values:
        times, ops, procs, totals = [], [], [], []
        for trial in range(trials):
            seed = derive_seed(master_seed, "sweep", k, trial)
            t0 = time.perf_counter_ns()
            res = kruskal_eds(g, StrataParams(k=k, seed=seed))
            times.append(time.perf_counter_ns() - t0)
            ops.append(res.metrics.sort_ops)
            procs.append(res.metrics.strata_processed)
            totals.append(res.metrics.strata_total)
        points.append(
            SweepPoint(
                k=k,
                time_ns=statistics.median(times),
                sort_ops=statistics.median(ops),
                strata_processed=statistics.median(procs),
                strata_total=statistics.median(totals),
            )
        )
    return points


class ProfileRow(NamedTuple):
    """One stratum's share of the accepted edges; ``strata_profile``'s
    fractions, enumerated, are the rows."""

    stratum: int
    fraction: float


def strata_profile(g: GraphSpec, k: int, seed: int) -> tuple[float, ...]:
    """Fraction of the accepted spanning-forest edges each stratum contributed
    in one seeded run; empty when no edge was accepted."""
    res = kruskal_eds(g, StrataParams(k=k, seed=seed))
    if res.accepted_count == 0:
        return ()
    total = res.accepted_count
    return tuple(c / total for c in res.metrics.accepted_per_stratum)


class GridCell(NamedTuple):
    """One (density, skew) cell; ops_ratio is None when m < n-1 is infeasible."""

    density: float
    skew: float
    m: int
    ops_ratio: float | None


def skew_to_dist(skew: float) -> WeightDist:
    """Map the skewness index to a weight distribution.

    skew=0 is uniform; larger skew means a heavier Pareto tail via
    alpha = 1 / (0.1 + 2*skew).
    """
    if skew <= 0.0:
        return WeightDist.uniform()
    return WeightDist.pareto(alpha=1.0 / (0.1 + 2.0 * skew))


def speedup_grid(
    density_points: Sequence[float],
    skew_points: Sequence[float],
    n: int = 120,
    trials: int = 3,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> list[GridCell]:
    """Empirical ops(std)/ops(eds) over a (density, skew) grid.

    Since ops(std) = m by definition, each cell is the median of
    m / sort_ops(eds) over the trials.
    """
    _check_trials(trials)
    full = n * (n - 1) // 2
    cells: list[GridCell] = []
    for rho in density_points:
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {rho}")
        m = round(rho * full)
        for sigma in skew_points:
            if not 0.0 <= sigma <= 1.0:
                raise ValueError(f"skew must be in [0, 1], got {sigma}")
            if m < n - 1:
                cells.append(GridCell(rho, sigma, m, None))
                continue
            ratios = []
            for trial in range(trials):
                seed = derive_seed(master_seed, "grid", rho, sigma, trial)
                g = gen_random(n, m, skew_to_dist(sigma), seed)
                res = kruskal_eds(g, StrataParams(seed=seed))
                ratios.append(m / res.metrics.sort_ops)
            cells.append(GridCell(rho, sigma, m, statistics.median(ratios)))
    return cells


def grid_metadata(
    density_points: Sequence[float],
    skew_points: Sequence[float],
    n: int,
    trials: int,
    master_seed: int,
) -> dict:
    return {
        "n": n,
        "trials": trials,
        "master_seed": master_seed,
        "density_points": list(density_points),
        "skew_points": list(skew_points),
        "seed_derivation": "first 8 bytes of sha256('master:grid:density:skew:trial')",
        "skew_to_alpha": "skew=0 -> uniform(0,1000); skew>0 -> Pareto(alpha=1/(0.1+2*skew), scale=1)",
        "ops_ratio": "median over trials of m / eds sort_ops; empty cell means m < n-1",
    }


def write_csv(row_type: type[tuple], rows: Iterable[tuple], stream: IO[str]) -> None:
    """Write rows as CSV; the header is ``row_type._fields``."""
    writer = csv.writer(stream)
    writer.writerow(row_type._fields)
    writer.writerows(rows)
