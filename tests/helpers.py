"""Shared helpers for building random test graphs."""

from __future__ import annotations

import math
import random
import tracemalloc
from typing import IO, Callable, Iterable, Iterator, TypeVar

from stratmst import (
    EdgeListError,
    EdgeRecord,
    GraphSpec,
    WeightDist,
    gen_random,
    graph_from_edges,
)

T = TypeVar("T")

DISTS = (
    WeightDist.uniform(),
    WeightDist.half_normal(),
    WeightDist.pareto(),
    WeightDist.clustered(),
)


def tiny_graph(
    rng: random.Random,
    max_n: int = 8,
    max_m: int = 20,
    dist: WeightDist | None = None,
) -> GraphSpec:
    """Small connected random graph within the exhaustive oracle's bounds."""
    n = rng.randint(2, max_n)
    cap = min(n * (n - 1) // 2, max_m)
    m = rng.randint(n - 1, cap)
    if dist is None:
        dist = DISTS[rng.randrange(len(DISTS))]
    return gen_random(n, m, dist, rng.randrange(2**32))


def disconnected_graph(rng: random.Random, parts: int = 2) -> GraphSpec:
    """Union of several small connected graphs on disjoint vertex ranges."""
    triples: list[tuple[int, int, float]] = []
    offset = 0
    for _ in range(parts):
        g = tiny_graph(rng, max_n=6, max_m=10)
        triples.extend((e.u + offset, e.v + offset, e.weight) for e in g.edges)
        offset += g.n
    return graph_from_edges(offset, triples)


# The line-by-line edge-list parser as it stood before chunked bulk parsing,
# kept verbatim as the reference for the differential parser test.
def _content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    for no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if text and not text.startswith("#"):
            yield no, text


def reference_read_edge_list(stream: IO[str]) -> GraphSpec:
    """Parse an edge-list stream into a GraphSpec."""
    lines = _content_lines(stream)
    header = next(lines, None)
    if header is None:
        raise EdgeListError(0, "empty input, expected an 'n m' header")
    last_no, text = header
    parts = text.split()
    try:
        if len(parts) != 2:
            raise ValueError
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListError(last_no, f"expected header 'n m', got {text!r}") from None
    if n < 0 or m < 0:
        raise EdgeListError(last_no, "n and m must be non-negative")

    edges: list[EdgeRecord] = []
    for last_no, text in lines:
        if len(edges) == m:
            raise EdgeListError(last_no, f"more than the declared {m} edge lines")
        parts = text.split()
        try:
            if len(parts) != 3:
                raise ValueError
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise EdgeListError(last_no, f"expected 'u v w', got {text!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(last_no, f"endpoints ({u}, {v}) out of range for n={n}")
        if not math.isfinite(w):
            raise EdgeListError(last_no, f"weight {parts[2]!r} is not finite")
        edges.append(EdgeRecord(u, v, w, len(edges)))
    if len(edges) != m:
        raise EdgeListError(last_no, f"expected {m} edges, found only {len(edges)}")
    return GraphSpec(n, tuple(edges))


def traced_memory(call: Callable[[], T]) -> tuple[T, int, int]:
    """``call()``'s result, and the bytes that ``tracemalloc`` saw it keep
    and at its peak."""
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak
