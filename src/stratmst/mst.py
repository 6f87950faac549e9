"""Minimum spanning tree and forest solvers with uniform instrumentation.

Three interchangeable solvers feed one greedy accept loop over one
union-find:

* ``kruskal_eds``  - sample, partition into weight strata, sort strata on
  demand, and stop the moment the spanning forest is complete.
* ``kruskal_std``  - the baseline global sort: ``kruskal_eds`` with one
  stratum.
* ``kruskal_heap`` - O(m) heapify, then lazy pops in weight order.

All three accept the same inputs (parallel edges, self-loops, negative
weights, disconnected graphs) and produce identical accepted edge sets:
ties always break by edge id, so every solver walks the same total order.
``SOLVERS`` maps each solver's name to the solver and is the one registry
the CLI, the benchmark harness and the validation suite dispatch through.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable

from .graph import DisjointSetForest, EdgeRecord, GraphSpec
from .strata import Boundaries, StrataParams, estimate_boundaries, partition

WEIGHT_RTOL = 1e-9


@dataclass(frozen=True)
class Metrics:
    """Per-run instrumentation.

    ``sort_ops`` counts edges that passed through a sort, summed over every
    sort the run performed (for the heap solver: the number of pops). It
    never exceeds m. Phase timings come from a monotonic clock in
    nanoseconds and are machine- and runtime-specific; nothing asserts on
    them. ``accepted_per_stratum`` (read by the profile report) and
    ``strata_nonempty`` are extra diagnostics; ``stratmst mst --metrics``
    prints every field.
    """

    sort_ops: int = 0
    strata_processed: int = 0
    strata_total: int = 0
    phase1_ns: int = 0
    phase2_ns: int = 0
    phase3_ns: int = 0
    union_calls: int = 0
    strata_nonempty: int = 0
    accepted_per_stratum: tuple[int, ...] = ()


@dataclass(frozen=True)
class MstResult:
    """Accepted edges of a minimum spanning forest plus run metrics."""

    edges: tuple[EdgeRecord, ...]
    total_weight: float
    accepted_count: int
    metrics: Metrics


def _empty_result() -> MstResult:
    return MstResult((), 0.0, 0, Metrics())


def _result(accepted: list[EdgeRecord], metrics: Metrics) -> MstResult:
    return MstResult(
        tuple(accepted),
        sum(e.weight for e in accepted),
        len(accepted),
        metrics,
    )


def _accept(
    forest: DisjointSetForest,
    ordered_edges: Iterable[EdgeRecord],
    accepted: list[EdgeRecord],
    target: int,
) -> int:
    """Greedy Kruskal scan shared by every solver.

    Unions each edge in the given order, appends the ones that join two
    components to ``accepted``, and stops as soon as ``accepted`` holds
    ``target`` edges. Returns the number of union calls made.
    """
    union_calls = 0
    for e in ordered_edges:
        union_calls += 1
        if forest.union(e.u, e.v):
            accepted.append(e)
            if len(accepted) == target:
                break
    return union_calls


def kruskal_std(g: GraphSpec) -> MstResult:
    """Baseline Kruskal: sort all m edges by weight, then greedily accept.

    This is the stratified solver with a single stratum.
    """
    return kruskal_eds(g, StrataParams(k=1))


def kruskal_heap(g: GraphSpec) -> MstResult:
    """Heap-based Kruskal: heapify every edge, then pop lazily in weight order.

    Pops stop once the spanning forest is complete; on disconnected input
    the heap simply drains. ``sort_ops`` records the pops performed.
    """
    if g.n <= 1 or g.m == 0:
        return _empty_result()
    t0 = time.perf_counter_ns()
    heap = [(e.weight, e.id, e) for e in g.edges]
    heapq.heapify(heap)
    t1 = time.perf_counter_ns()
    accepted: list[EdgeRecord] = []
    pops = _accept(
        DisjointSetForest(g.n),
        (heapq.heappop(heap)[2] for _ in range(g.m)),
        accepted,
        g.n - 1,
    )
    t2 = time.perf_counter_ns()
    metrics = Metrics(
        sort_ops=pops,
        strata_processed=1,
        strata_total=1,
        phase2_ns=t1 - t0,
        phase3_ns=t2 - t1,
        union_calls=pops,
        strata_nonempty=1,
        accepted_per_stratum=(len(accepted),),
    )
    return _result(accepted, metrics)


def kruskal_eds(
    g: GraphSpec,
    params: StrataParams | None = None,
    boundaries: Boundaries | None = None,
) -> MstResult:
    """Stratified Kruskal with early termination.

    Phase 1 estimates stratum boundaries from a small uniform edge sample.
    Phase 2 partitions all edges into weight-ordered buckets by binary
    search, with no global sort. Phase 3 sorts buckets lightest-first,
    feeding each through union-find, and returns the moment the spanning
    forest is complete, leaving heavier buckets unsorted. Disconnected
    inputs run through every bucket and yield the minimum spanning forest.

    When the resolved stratum count is 1 (explicitly, or via the automatic
    fallback on small inputs) phases 1 and 2 are skipped entirely and the
    run degenerates to the baseline's single global sort.

    ``boundaries`` bypasses phase 1 with pre-computed cut points; any
    strictly increasing vector is valid, and boundary placement affects
    only performance, never the accepted edges.
    """
    if params is None:
        params = StrataParams()
    if g.n <= 1 or g.m == 0:
        return _empty_result()
    k = params.resolve_k(g.m)

    t0 = time.perf_counter_ns()
    if boundaries is None and k == 1:
        buckets, t1, t2 = [list(g.edges)], t0, t0
    else:
        if boundaries is None:
            boundaries = estimate_boundaries(g.edges, k, params.seed)
        t1 = time.perf_counter_ns()
        buckets = partition(g.edges, boundaries)
        t2 = time.perf_counter_ns()

    forest = DisjointSetForest(g.n)
    accepted: list[EdgeRecord] = []
    target = g.n - 1
    sort_ops = 0
    strata_processed = 0
    union_calls = 0
    accepted_per = [0] * len(buckets)
    for i, bucket in enumerate(buckets):
        strata_processed += 1
        # Weight alone gives the (weight, id) order: the sort is stable and
        # buckets hold edges in id order (GraphSpec ids are positions).
        bucket.sort(key=attrgetter("weight"))
        sort_ops += len(bucket)
        before = len(accepted)
        union_calls += _accept(forest, bucket, accepted, target)
        accepted_per[i] = len(accepted) - before
        if len(accepted) == target:
            break
    t3 = time.perf_counter_ns()
    metrics = Metrics(
        sort_ops=sort_ops,
        strata_processed=strata_processed,
        strata_total=len(buckets),
        phase1_ns=t1 - t0,
        phase2_ns=t2 - t1,
        phase3_ns=t3 - t2,
        union_calls=union_calls,
        strata_nonempty=sum(1 for b in buckets if b),
        accepted_per_stratum=tuple(accepted_per),
    )
    return _result(accepted, metrics)


# Every solver by its CLI name, called as ``solve(g, params)``. ``params``
# configures ``eds`` only; the baselines ignore it.
SOLVERS: dict[str, Callable[[GraphSpec, StrataParams], MstResult]] = {
    "std": lambda g, params: kruskal_std(g),
    "eds": kruskal_eds,
    "heap": lambda g, params: kruskal_heap(g),
}


def weight_close(got: float, want: float) -> bool:
    """True when ``got`` is within ``WEIGHT_RTOL`` of ``want``, relative to
    ``max(1, |want|)``; absorbs summation-order noise between solvers."""
    return abs(got - want) <= WEIGHT_RTOL * max(1.0, abs(want))


def mst_weight_equal(a: MstResult, b: MstResult) -> bool:
    """True when two results agree on accepted count and total weight."""
    return a.accepted_count == b.accepted_count and weight_close(
        b.total_weight, a.total_weight
    )
