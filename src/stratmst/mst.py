"""Minimum spanning tree and forest solvers with uniform instrumentation.

Every Kruskal solver runs through one driver, ``_kruskal``, that feeds
weight strata lightest-first, each in (weight, id) order, to the one greedy
union-find scan, ``graph.kruskal_scan``. The solvers differ in strata and
order only:

* ``kruskal_eds``  - sample cut points, partition into weight strata (only
  the light ones the forest is expected to need, unless it turns out to
  need more), and sort each stratum when the scan reaches it.
* ``kruskal_std``  - the baseline global sort: ``kruskal_eds`` with one
  stratum.
* ``kruskal_heap`` - one stratum, ordered by an O(m) heapify and lazy pops.

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
from array import array
from functools import partial
from itertools import compress, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .graph import EdgeRecord, GraphSpec, _Frozen, kruskal_scan
from .strata import Boundaries, StrataParams, estimate_cuts, expected_strata, partition_ids


class Metrics(NamedTuple):
    """Per-run instrumentation.

    ``sort_ops`` counts edges that passed through a sort, summed over every
    sort the run performed (for the heap solver: the number of pops). It
    never exceeds m. ``partition_ops`` counts the ids that phase 2
    bucketed by binary search, over the light prefix and any fallback; it
    never exceeds m and is 0 when nothing was partitioned (one stratum, or
    the heap solver). Timings come from a monotonic clock in nanoseconds
    and are machine- and runtime-specific; nothing asserts on them.
    ``phase2_ns`` covers every filter pass and bucketing of phase 2,
    including a fallback run after phase 3 began. Phase 3 is split in two,
    each summed over the buckets processed: ``sort_ns`` sorts the buckets
    and ``scan_ns`` feeds them through union-find. For the heap solver,
    ``sort_ns`` is the heapify and ``scan_ns`` the pops with the scan they
    feed, which interleave. ``accepted_per_stratum`` is read by the profile
    report; ``stratmst mst --metrics`` prints every field.
    """

    sort_ops: int = 0
    partition_ops: int = 0
    strata_processed: int = 0
    strata_total: int = 0
    phase1_ns: int = 0
    phase2_ns: int = 0
    sort_ns: int = 0
    scan_ns: int = 0
    union_calls: int = 0
    accepted_per_stratum: tuple[int, ...] = ()


class MstResult(_Frozen):
    """Accepted edges of a minimum spanning forest plus run metrics.

    Built as ``MstResult(graph, edge_ids, metrics)`` by every solver and
    oracle alike. ``edge_ids`` holds the accepted edge ids in (weight, id)
    order: the Kruskal solvers accept in that order, and the oracles sort
    into it. It is always an ``array('I')``, 4 bytes per id: an
    ``array('I')`` passed in, such as a Kruskal solver's accepted ids, is
    adopted without a copy, and any other sequence is packed into one.
    Never mutate it. Two results are equal when their ``edge_ids``,
    ``metrics`` and ``total_weight`` are; since an array is unhashable,
    ``hash`` leaves ``edge_ids`` out, which equal results still agree on.
    ``graph`` takes no part in either, nor in the repr.
    ``total_weight`` is derived at construction: their weights
    summed in that order from ``0.0``, so it is a float even when nothing is
    accepted. All minimum spanning forests of a graph share one multiset of
    weights, so every solver and oracle gives the same float total.
    ``accepted_count`` is ``len(edge_ids)``. ``edges`` builds the accepted
    ``EdgeRecord``s from ``graph`` on first access.
    """

    __slots__ = ("graph", "edge_ids", "metrics", "total_weight", "_edges")
    graph: GraphSpec
    edge_ids: array[int]
    metrics: Metrics
    total_weight: float

    def __init__(self, graph: GraphSpec, edge_ids: Iterable[int], metrics: Metrics) -> None:
        if type(edge_ids) is not array or edge_ids.typecode != "I":
            edge_ids = array("I", edge_ids)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "edge_ids", edge_ids)
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "total_weight", sum(map(graph.w.__getitem__, edge_ids), 0.0))
        object.__setattr__(self, "_edges", None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.edge_ids, self.metrics, self.total_weight) == (
            other.edge_ids, other.metrics, other.total_weight
        )

    def __hash__(self) -> int:
        return hash((self.metrics, self.total_weight))

    def __repr__(self) -> str:
        return (
            f"MstResult(edge_ids={self.edge_ids!r}, metrics={self.metrics!r}, "
            f"total_weight={self.total_weight!r})"
        )

    @property
    def accepted_count(self) -> int:
        return len(self.edge_ids)

    @property
    def edges(self) -> tuple[EdgeRecord, ...]:
        if self._edges is None:
            g = self.graph
            ids = self.edge_ids
            records = map(
                EdgeRecord,
                map(g.u.__getitem__, ids),
                map(g.v.__getitem__, ids),
                map(g.w.__getitem__, ids),
                ids,
            )
            object.__setattr__(self, "_edges", tuple(records))
        return self._edges


def kruskal_std(g: GraphSpec) -> MstResult:
    """Baseline Kruskal: sort all m edges by weight, then greedily accept.

    This is the stratified solver with a single stratum.
    """
    return kruskal_eds(g, StrataParams(k=1))


def kruskal_heap(g: GraphSpec) -> MstResult:
    """Heap-based Kruskal: heapify every edge, then pop lazily in weight order.

    The shared driver with one stratum, ordered by the heap. Pops stop once
    the spanning forest is complete; on disconnected input the heap simply
    drains. ``sort_ops`` records the pops performed.
    """
    def pops(ids: Sequence[int]) -> Iterator[int]:
        # Tuples compare by weight, then by id: the (weight, id) order.
        heap = list(zip(map(g.w.__getitem__, ids), ids))
        heapq.heapify(heap)
        return (heapq.heappop(heap)[1] for _ in range(len(heap)))

    return _kruskal(g, pops)


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
    through every bucket and yield the minimum spanning forest. Phases 2
    and 3 are the shared driver ``_kruskal``; this function only decides
    the cut points and sorts each bucket by weight.

    When the resolved stratum count is 1 (explicitly, or via the automatic
    fallback on small inputs) phases 1 and 2 are skipped entirely and the
    run degenerates to the baseline's single global sort.

    ``boundaries`` bypasses phase 1 with pre-computed cut points; any
    strictly increasing vector is valid, and boundary placement affects
    only performance, never the accepted edges.
    """
    if params is None:
        params = StrataParams()
    weight = g.w.__getitem__
    # Weight alone gives the (weight, id) order: the sort is stable and
    # buckets hold ids in increasing order.
    by_weight = partial(sorted, key=weight)
    if boundaries is None and (k := params.resolve_k(g.m)) > 1:
        return _kruskal(g, by_weight, phase1=partial(estimate_cuts, g.m, weight, k, params.seed))
    return _kruskal(g, by_weight, boundaries.values if boundaries is not None else ())


def _kruskal(
    g: GraphSpec,
    order: Callable[[Sequence[int]], Iterable[int]],
    cuts: tuple[float, ...] = (),
    phase1: Callable[[], Boundaries] | None = None,
) -> MstResult:
    """The one Kruskal driver: every solver's run after its choice of cuts.

    A graph with one vertex or no edge returns zero ``Metrics`` before
    anything runs. Otherwise ``phase1``, if given, is timed as phase 1 and
    its cut points replace ``cuts``. Each bucket of ``_phase2_buckets`` is
    put in (weight, id) order by ``order`` and fed to ``kruskal_scan``,
    lightest first, until ``n - 1`` edges are accepted. A list from
    ``order`` counts whole in ``sort_ops``; any other iterable is drawn
    lazily by the scan and counts the ids scanned. The forest is an
    ``array('i')`` and the accepted ids an ``array('I')``.
    """
    if g.n <= 1 or g.m == 0:
        return MstResult(g, (), Metrics())
    t0 = t1 = time.perf_counter_ns()
    if phase1 is not None:
        cuts = phase1().values
        t1 = time.perf_counter_ns()
    parent = array("i", [-1]) * g.n
    accepted = array("I")
    target = g.n - 1
    sort_ops = strata_processed = union_calls = sort_ns = scan_ns = 0
    accepted_per = [0] * (len(cuts) + 1)
    phase2 = [0, 0]  # ids bucketed, nanoseconds spent bucketing
    for i, bucket in enumerate(_phase2_buckets(g, cuts, phase2)):
        strata_processed += 1
        t2 = time.perf_counter_ns()
        ordered = order(bucket)
        t3 = time.perf_counter_ns()
        before = len(accepted)
        scanned = kruskal_scan(parent, g, ordered, accepted, target)
        sort_ns += t3 - t2
        scan_ns += time.perf_counter_ns() - t3
        sort_ops += len(ordered) if type(ordered) is list else scanned
        union_calls += scanned
        accepted_per[i] = len(accepted) - before
        if len(accepted) == target:
            break
    metrics = Metrics(
        sort_ops=sort_ops,
        partition_ops=phase2[0],
        strata_processed=strata_processed,
        strata_total=len(accepted_per),
        phase1_ns=t1 - t0,
        phase2_ns=phase2[1],
        sort_ns=sort_ns,
        scan_ns=scan_ns,
        union_calls=union_calls,
        accepted_per_stratum=tuple(accepted_per),
    )
    return MstResult(g, accepted, metrics)


def _phase2_buckets(
    g: GraphSpec, cuts: tuple[float, ...], work: list[int]
) -> Iterator[Sequence[int]]:
    """Yield the buckets of ``partition_ids(g.w, range(g.m), cuts)``
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
    Edge ids come from ``range(g.m)``, and each bucket is an ``array('I')``
    that keeps them as C ints; the consumer turns one bucket at a time into
    int objects, to sort and scan it, and each bucket is dropped here once
    handed over. With one stratum the single bucket is ``range(g.m)``.
    """
    total = len(cuts) + 1
    if total == 1:
        yield range(g.m)
        return
    hi = math.ceil(2 * expected_strata(g.n, g.m, total))
    if hi > total // 2:
        sides = ((None, 0, total - 1),)
    else:
        sides = ((operator.lt, 0, hi - 1), (operator.ge, hi, total - 1))
    for keep, lo, up in sides:
        t0 = time.perf_counter_ns()
        if keep is None:
            ids, weights = range(g.m), g.w
        else:
            ids = list(compress(range(g.m), map(keep, g.w, repeat(cuts[hi - 1]))))
            weights = map(g.w.__getitem__, ids)
        buckets = partition_ids(weights, ids, cuts[lo:up])
        work[0] += len(ids)
        work[1] += time.perf_counter_ns() - t0
        # Keep only the packed buckets alive, and hand them over one at a
        # time, so that each can be freed once the consumer is done with it.
        del ids, weights
        buckets.reverse()
        while buckets:
            yield buckets.pop()


# Every solver by its CLI name, called as ``solve(g, params)``. ``params``
# configures ``eds`` only; the baselines ignore it.
SOLVERS: dict[str, Callable[[GraphSpec, StrataParams], MstResult]] = {
    "std": lambda g, params: kruskal_std(g),
    "eds": kruskal_eds,
    "heap": lambda g, params: kruskal_heap(g),
}


def mst_weight_equal(a: MstResult, b: MstResult) -> bool:
    """True when two results agree on accepted count and, exactly, on total weight."""
    return a.accepted_count == b.accepted_count and a.total_weight == b.total_weight
