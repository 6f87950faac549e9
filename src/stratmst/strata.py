"""Quantile-boundary estimation and stratified edge partitioning.

A small uniform edge sample estimates the weight distribution; interior
sample quantiles become bucket boundaries, and a single linear pass drops
every edge into its weight-ordered bucket via binary search. Boundaries
only ever need to be weight-consistent, never exact quantiles: a misplaced
boundary changes bucket sizes, not the result of any downstream solver.
``expected_strata`` predicts how many of the lightest strata a random
graph's spanning forest needs, which bounds how much the solver buckets
up front.
"""

from __future__ import annotations

import math
import operator
import random
from array import array
from bisect import bisect_right
from typing import Callable, Iterable, NamedTuple, Sequence

from .graph import EdgeRecord, _Frozen

# Below this edge count a single global sort beats sampling + partitioning.
MIN_EDGES_FOR_STRATA = 200


def sample_size(m: int) -> int:
    """Sample size for boundary estimation: min(m, max(20, floor(2*sqrt(m))))."""
    if m < 0:
        raise ValueError(f"edge count must be non-negative, got {m}")
    return min(m, max(20, math.floor(2.0 * math.sqrt(m))))


def optimal_k(m: int) -> int:
    """Stratum count balancing partition overhead against per-bucket sort cost.

    Evaluates ceil(sqrt(m / ln(m + 1))), with a fallback to a single stratum
    below MIN_EDGES_FOR_STRATA where the sampling overhead cannot pay off.
    """
    if m < 0:
        raise ValueError(f"edge count must be non-negative, got {m}")
    if m < MIN_EDGES_FOR_STRATA:
        return 1
    return math.ceil(math.sqrt(m / math.log(m + 1)))


def expected_strata(n: int, m: int, k: int) -> float:
    """Strata a random graph is expected to need: ``k * min(1, n*ln(n) / (2*m))``.

    A random graph on n vertices becomes connected at about ``n*ln(n)/2``
    edges (Erdos & Renyi, 1960), and quantile strata each hold about ``m/k``
    edges, so the spanning forest should complete within that many of the
    lightest strata. The strata depend on weight ranks only, so the weight
    distribution does not enter. A prediction, never a bound: it steers
    how much phase 2 partitions up front, not which edges are accepted.
    """
    if n < 1 or m < 1 or k < 1:
        raise ValueError(f"need n, m, k >= 1, got n={n}, m={m}, k={k}")
    return k * min(1.0, n * math.log(n) / (2 * m))


class _StrataParamsFields(NamedTuple):
    k: int | None = None
    seed: int = 0


class StrataParams(_StrataParamsFields):
    """Stratification knobs: explicit stratum count (None = automatic) and PRNG seed.

    ``k``, when given, must be an integer (for ``operator.index``) of at
    least 1, and ``seed`` an integer, or construction raises ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, k: int | None = None, seed: int = 0) -> StrataParams:
        if k is not None:
            try:
                k = operator.index(k)
            except TypeError:
                raise ValueError(f"stratum count must be an integer, got {k!r}") from None
            if k < 1:
                raise ValueError(f"stratum count must be >= 1, got {k}")
        try:
            seed = operator.index(seed)
        except TypeError:
            raise ValueError(f"seed must be an integer, got {seed!r}") from None
        return super().__new__(cls, k, seed)

    def resolve_k(self, m: int) -> int:
        return self.k if self.k is not None else optimal_k(m)


class Boundaries(_Frozen):
    """Strictly increasing cut points; empty means a single stratum (global sort)."""

    __slots__ = ("values",)
    values: tuple[float, ...]

    def __init__(self, values: Iterable[float] = ()) -> None:
        values = tuple(values)
        for i, b in enumerate(values):
            try:
                finite = math.isfinite(b)
            except (TypeError, OverflowError):
                raise ValueError(f"boundary {i} does not convert to a double: {b!r}") from None
            if not finite:
                raise ValueError(f"boundary {i} is not finite: {b!r}")
            if i > 0 and values[i - 1] >= b:
                raise ValueError("boundaries must be strictly increasing")
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash((self.values,))

    def __repr__(self) -> str:
        return f"Boundaries(values={self.values!r})"

    def __len__(self) -> int:
        return len(self.values)


def _sample_positions(m: int, size: int, rng: random.Random) -> list[int]:
    """``size`` distinct positions in ``range(m)``, drawn uniformly.

    Partial Fisher-Yates over the positions, so clamping size to m
    degenerates gracefully to the whole population. Only displaced
    positions are stored, so the cost is O(size), not O(m).
    """
    if not 0 <= size <= m:
        raise ValueError(f"sample size {size} out of range for {m} edges")
    displaced: dict[int, int] = {}
    picked: list[int] = []
    for j in range(size):
        r = rng.randrange(j, m)
        picked.append(displaced.get(r, r))
        displaced[r] = displaced.get(j, j)
    return picked


def sample_weights(edges: Sequence[EdgeRecord], size: int, rng: random.Random) -> list[float]:
    """Weights of `size` edges drawn uniformly without replacement."""
    return [edges[i].weight for i in _sample_positions(len(edges), size, rng)]


def estimate_boundaries(edges: Sequence[EdgeRecord], k: int, seed: int) -> Boundaries:
    """Estimate the k-1 interior quantile boundaries from a seeded sample.

    The sorted sample is cut at positions floor(i*s/k) for i = 1..k-1 and
    duplicates collapse, so fewer than k-1 boundaries (possibly none) can
    come back; that merely shrinks the effective stratum count.
    """
    return estimate_cuts(len(edges), lambda i: edges[i].weight, k, seed)


def estimate_cuts(
    m: int, weight_of: Callable[[int], float], k: int, seed: int
) -> Boundaries:
    """``estimate_boundaries`` over edge ids ``0..m-1``; ``weight_of(i)`` is
    called only for the sampled ids."""
    if k < 1:
        raise ValueError(f"stratum count must be >= 1, got {k}")
    rng = random.Random(seed)
    sample = [weight_of(i) for i in _sample_positions(m, sample_size(m), rng)]
    sample.sort()
    s = len(sample)
    # For k > s the positions (i*s)//k, i = 1..k-1, are exactly 0..s-1, so
    # the loop costs O(s) whatever k is.
    positions = range(s) if k > s else ((i * s) // k for i in range(1, k))
    cuts: list[float] = []
    for p in positions:
        value = sample[p]
        if not cuts or value > cuts[-1]:
            cuts.append(value)
    return Boundaries(tuple(cuts))


def partition(edges: Sequence[EdgeRecord], boundaries: Boundaries) -> list[list[EdgeRecord]]:
    """Assign every edge to its stratum by binary search on the boundaries.

    Returns weight-ordered buckets, one more than there are boundaries.
    Half-open rule: bucket i holds b[i-1] <= w < b[i], so a weight equal to
    a boundary lands in the bucket above it. Input order is preserved inside
    each bucket, so downstream sorts stay stable.
    """
    records = list(edges)
    buckets = partition_ids([e.weight for e in records], range(len(records)), boundaries.values)
    return [[records[i] for i in bucket] for bucket in buckets]


def partition_ids(
    weights: Iterable[float], ids: Iterable[int], cuts: Sequence[float]
) -> list[array[int]]:
    """``partition`` on columns: bucket each id by its weight, the i-th
    weight belonging to the i-th id, in input order. ``cuts`` are the
    ``values`` of a ``Boundaries``, and are not checked again.

    Each bucket is an ``array('I')``, so a bucketed id costs 4 bytes and no
    int object: the int that ``ids`` yields is dropped once its C unsigned
    int is stored. Every edge id of a ``GraphSpec`` fits one.
    """
    buckets = [array("I") for _ in range(len(cuts) + 1)]
    for i, x in zip(ids, weights):
        buckets[bisect_right(cuts, x)].append(i)
    return buckets
