"""Minimum spanning tree and forest solvers with uniform instrumentation.

Three interchangeable solvers feed their edges, in weight order, to the
one greedy union-find scan, ``graph.kruskal_scan``:

* ``kruskal_eds``  - sample, partition into weight strata (only the light
  ones the forest is expected to need, unless it turns out to need more),
  sort strata on demand, and stop the moment the spanning forest is
  complete.
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
import math
import operator
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from typing import Callable, Iterator

from .graph import EdgeRecord, GraphSpec, kruskal_scan
from .strata import Boundaries, StrataParams, estimate_cuts, expected_strata, partition_ids

WEIGHT_RTOL = 1e-9


@dataclass(frozen=True)
class Metrics:
    """Per-run instrumentation.

    ``sort_ops`` counts edges that passed through a sort, summed over every
    sort the run performed (for the heap solver: the number of pops). It
    never exceeds m. ``partition_ops`` counts the ids that phase 2
    bucketed by binary search, over the light prefix and any fallback; it
    never exceeds m and is 0 when nothing was partitioned (one stratum, or
    the heap solver). Phase timings come from a monotonic clock in
    nanoseconds and are machine- and runtime-specific; nothing asserts on
    them. ``phase2_ns`` covers every filter pass and bucketing of phase 2,
    including a fallback run after phase 3 began; ``phase3_ns`` is the
    sorting and scanning around it. ``accepted_per_stratum`` is read by the
    profile report; ``stratmst mst --metrics`` prints every field.
    """

    sort_ops: int = 0
    partition_ops: int = 0
    strata_processed: int = 0
    strata_total: int = 0
    phase1_ns: int = 0
    phase2_ns: int = 0
    phase3_ns: int = 0
    union_calls: int = 0
    accepted_per_stratum: tuple[int, ...] = ()


@dataclass(frozen=True)
class MstResult:
    """Accepted edges of a minimum spanning forest plus run metrics.

    Built as ``MstResult(graph, edge_ids, metrics)`` by every solver and
    oracle alike. ``edge_ids`` holds the accepted edge ids in acceptance
    order. ``total_weight`` is derived at construction: their weights summed
    in that order from ``0.0``, so it is a float even when nothing is
    accepted. ``accepted_count`` is ``len(edge_ids)``. ``edges`` builds the
    accepted ``EdgeRecord``s from ``graph`` on first access.
    """

    graph: GraphSpec = field(repr=False, compare=False)
    edge_ids: tuple[int, ...]
    metrics: Metrics
    total_weight: float = field(init=False)

    def __post_init__(self) -> None:
        ids = tuple(self.edge_ids)
        object.__setattr__(self, "edge_ids", ids)
        object.__setattr__(self, "total_weight", sum(map(self.graph.w.__getitem__, ids), 0.0))

    @property
    def accepted_count(self) -> int:
        return len(self.edge_ids)

    @cached_property
    def edges(self) -> tuple[EdgeRecord, ...]:
        g = self.graph
        ids = self.edge_ids
        records = map(
            EdgeRecord,
            map(g.u.__getitem__, ids),
            map(g.v.__getitem__, ids),
            map(g.w.__getitem__, ids),
            ids,
        )
        return tuple(records)


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
        return MstResult(g, (), Metrics())
    t0 = time.perf_counter_ns()
    heap = list(zip(g.w, g.ids))
    heapq.heapify(heap)
    t1 = time.perf_counter_ns()
    accepted: list[int] = []
    pops = kruskal_scan(
        _forest(g),
        g,
        (heapq.heappop(heap)[1] for _ in range(g.m)),
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
        accepted_per_stratum=(len(accepted),),
    )
    return MstResult(g, accepted, metrics)


def kruskal_eds(
    g: GraphSpec,
    params: StrataParams | None = None,
    boundaries: Boundaries | None = None,
) -> MstResult:
    """Stratified Kruskal with early termination.

    Phase 1 estimates stratum boundaries from a small uniform edge sample.
    Phase 2 buckets edge ids by weight with binary search, with no global
    sort, and lazily: ``_phase2_buckets`` first buckets only the light
    strata the forest is expected to need, and the rest only if it is still
    incomplete after them. Phase 3 sorts buckets lightest-first, feeding
    each through union-find, and returns the moment the spanning forest is
    complete, leaving heavier buckets unsorted. Disconnected inputs run
    through every bucket and yield the minimum spanning forest.

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
        return MstResult(g, (), Metrics())
    k = params.resolve_k(g.m)
    weight = g.w.__getitem__

    t0 = t1 = time.perf_counter_ns()
    if boundaries is None and k > 1:
        boundaries = estimate_cuts(g.m, weight, k, params.seed)
        t1 = time.perf_counter_ns()
    cuts = boundaries.values if boundaries is not None else ()

    parent = _forest(g)
    accepted: list[int] = []
    target = g.n - 1
    sort_ops = 0
    strata_processed = 0
    union_calls = 0
    accepted_per = [0] * (len(cuts) + 1)
    phase2 = [0, 0]  # ids bucketed, nanoseconds spent bucketing
    for i, bucket in enumerate(_phase2_buckets(g, cuts, phase2)):
        strata_processed += 1
        # Weight alone gives the (weight, id) order: the sort is stable and
        # buckets hold ids in increasing order.
        bucket.sort(key=weight)
        sort_ops += len(bucket)
        before = len(accepted)
        union_calls += kruskal_scan(parent, g, bucket, accepted, target)
        accepted_per[i] = len(accepted) - before
        if len(accepted) == target:
            break
    t2 = time.perf_counter_ns()
    metrics = Metrics(
        sort_ops=sort_ops,
        partition_ops=phase2[0],
        strata_processed=strata_processed,
        strata_total=len(accepted_per),
        phase1_ns=t1 - t0,
        phase2_ns=phase2[1],
        phase3_ns=t2 - t1 - phase2[1],
        union_calls=union_calls,
        accepted_per_stratum=tuple(accepted_per),
    )
    return MstResult(g, accepted, metrics)


def _forest(g: GraphSpec) -> list[int]:
    """A fresh union-find forest over ``0..n-1``, each vertex its own root.

    Its values equal ``list(range(g.n))``, but the first ``min(n, m)`` are
    the int objects of ``g.ids``, which the solvers build anyway: the forest
    then creates at most ``n - m`` new ints, and the scan's random reads land
    on fewer distinct objects.
    """
    return [*g.ids[: g.n], *range(g.m, g.n)]


def _phase2_buckets(
    g: GraphSpec, cuts: tuple[float, ...], work: list[int]
) -> Iterator[list[int]]:
    """Yield the buckets of ``partition_ids(g.w, g.ids, Boundaries(cuts))``
    lightest-first, partitioning only as far as the consumer reads.

    With ``total`` buckets, ``expected_strata`` predicts how many of the
    lightest the forest needs; ``hi`` is twice that, rounded up. When
    ``hi <= total // 2``, one filter pass takes the ids lighter than
    ``cuts[hi-1]`` and buckets only them (buckets ``0..hi-1``); the
    complement is filtered and bucketed (buckets ``hi..total-1``) only if
    the consumer asks for bucket ``hi``. Otherwise all ids are bucketed in
    one pass. ``work`` accumulates ``[ids bucketed, nanoseconds spent]``.
    Comparisons go through ``operator.lt``/``ge`` on the weight, as
    ``bisect`` does, so an int cut against float weights compares exactly.
    """
    total = len(cuts) + 1
    if total == 1:
        yield list(g.ids)
        return
    hi = math.ceil(2 * expected_strata(g.n, g.m, total))
    if hi > total // 2:
        sides = ((None, 0, total - 1),)
    else:
        sides = ((operator.lt, 0, hi - 1), (operator.ge, hi, total - 1))
    for keep, lo, up in sides:
        t0 = time.perf_counter_ns()
        if keep is None:
            ids, weights = g.ids, g.w
        else:
            ids = list(compress(g.ids, map(keep, g.w, repeat(cuts[hi - 1]))))
            weights = map(g.w.__getitem__, ids)
        buckets = partition_ids(weights, ids, Boundaries(cuts[lo:up]))
        work[0] += len(ids)
        work[1] += time.perf_counter_ns() - t0
        yield from buckets


# Every solver by its CLI name, called as ``solve(g, params)``. ``params``
# configures ``eds`` only; the baselines ignore it.
SOLVERS: dict[str, Callable[[GraphSpec, StrataParams], MstResult]] = {
    "std": lambda g, params: kruskal_std(g),
    "eds": kruskal_eds,
    "heap": lambda g, params: kruskal_heap(g),
}


def weight_close(got: float, want: float) -> bool:
    """True when ``got`` is within ``WEIGHT_RTOL`` of ``want``, relative to
    ``max(1, |want|)``; absorbs summation-order noise between solvers. A
    non-finite value (a total that overflowed) is close only to an equal one."""
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want
    return abs(got - want) <= WEIGHT_RTOL * max(1.0, abs(want))


def mst_weight_equal(a: MstResult, b: MstResult) -> bool:
    """True when two results agree on accepted count and total weight."""
    return a.accepted_count == b.accepted_count and weight_close(
        b.total_weight, a.total_weight
    )
