"""Graph primitives: weighted edges, columnar graph specs, and the Kruskal scan.

``kruskal_scan`` is the only union-find in the package: every solver in
``mst`` and ``component_count`` run their edges through it. How it links
two roots changes its speed, never the accepted edges.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from operator import attrgetter
from typing import Iterable, Iterator


@dataclass(frozen=True, slots=True)
class EdgeRecord:
    """Undirected weighted edge; ``id`` is the edge's position in the input sequence."""

    u: int
    v: int
    weight: float
    id: int


class EdgeView(Sequence[EdgeRecord]):
    """Read-only sequence of a graph's edges, built from its columns on access."""

    __slots__ = ("_u", "_v", "_w")

    def __init__(self, u: Sequence[int], v: Sequence[int], w: Sequence[float]) -> None:
        self._u, self._v, self._w = u, v, w

    def __len__(self) -> int:
        return len(self._w)

    def __getitem__(self, i: int) -> EdgeRecord:
        i = range(len(self._w))[i]  # normalises negative ids, raises IndexError
        return EdgeRecord(self._u[i], self._v[i], self._w[i], i)

    def __iter__(self) -> Iterator[EdgeRecord]:
        return map(EdgeRecord, self._u, self._v, self._w, count())


@dataclass(frozen=True, init=False)
class GraphSpec:
    """Vertex count plus three parallel edge columns; the edge id is the index.

    Edge ``i`` joins ``u[i]`` and ``v[i]`` with weight ``w[i]``. The columns
    are lists, because a bound ``list.__getitem__`` is a fast sort key, and
    are never mutated after construction. The solvers read them directly;
    ``edges`` presents them as ``EdgeRecord``s, built only when read.
    Parallel edges, self-loops and disconnected graphs are all legal input.
    Weights must be finite: NaN or infinite weights break the total order
    the solvers rely on, so they are rejected here, at construction.
    """

    n: int
    u: list[int]
    v: list[int]
    w: list[float]

    def __init__(self, n: int, edges: Iterable[EdgeRecord]) -> None:
        """Build from edge records whose ids must equal their positions."""
        edges = tuple(edges)
        ids = list(map(attrgetter("id"), edges))
        self._set(
            n,
            list(map(attrgetter("u"), edges)),
            list(map(attrgetter("v"), edges)),
            list(map(attrgetter("weight"), edges)),
            ids,
        )

    @classmethod
    def from_columns(
        cls, n: int, u: Iterable[int], v: Iterable[int], w: Iterable[float]
    ) -> GraphSpec:
        """Build from parallel endpoint and weight columns; ids are positions."""
        g = cls.__new__(cls)
        g._set(n, list(u), list(v), list(w))
        return g

    @classmethod
    def _from_checked_columns(
        cls, n: int, u: list[int], v: list[int], w: list[float]
    ) -> GraphSpec:
        """Adopt already-checked list columns without copying or re-checking them."""
        g = cls.__new__(cls)
        g._assign(n, u, v, w)
        return g

    def _set(
        self,
        n: int,
        u: list[int],
        v: list[int],
        w: list[float],
        ids: list[int] | None = None,
    ) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        m = len(w)
        if len(u) != m or len(v) != m:
            raise ValueError(f"column lengths differ: {len(u)}, {len(v)}, {m}")
        # One bulk pass decides; only a bad graph pays for the per-edge scan
        # that names its first bad edge, checked in the order listed here.
        if not (
            (m == 0 or (0 <= min(u) and max(u) < n and 0 <= min(v) and max(v) < n))
            and all(map(math.isfinite, w))
            and (ids is None or ids == list(range(m)))
        ):
            for pos in range(m):
                if not (0 <= u[pos] < n and 0 <= v[pos] < n):
                    raise ValueError(
                        f"edge {pos}: endpoints ({u[pos]}, {v[pos]}) out of range for n={n}"
                    )
                if not math.isfinite(w[pos]):
                    raise ValueError(f"edge {pos}: weight {w[pos]!r} is not finite")
                if ids is not None and ids[pos] != pos:
                    raise ValueError(f"edge {pos}: id {ids[pos]} does not match its position")
        self._assign(n, u, v, w)

    def _assign(self, n: int, u: list[int], v: list[int], w: list[float]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return len(self.w)

    @property
    def edges(self) -> EdgeView:
        return EdgeView(self.u, self.v, self.w)

    @cached_property
    def ids(self) -> tuple[int, ...]:
        """Edge ids ``0..m-1``, built once so repeated solves share the ints."""
        return tuple(range(self.m))


def graph_from_edges(n: int, edges: Iterable[tuple[int, int, float]]) -> GraphSpec:
    """Build a GraphSpec from (u, v, weight) triples, assigning ids by position."""
    u: list[int] = []
    v: list[int] = []
    w: list[float] = []
    for a, b, x in edges:
        u.append(a)
        v.append(b)
        w.append(float(x))
    return GraphSpec.from_columns(n, u, v, w)


def kruskal_scan(
    parent: list[int],
    g: GraphSpec,
    ordered_ids: Iterable[int],
    accepted: list[int],
    target: int,
) -> int:
    """Greedy Kruskal scan: the one union-find every solver shares.

    ``parent`` is the forest over ``0..n-1``, created with ``parent[x] == x``
    for every vertex and carried between calls. The scan compares and
    stores vertices by value only, never by identity, so the forest may
    start from any int objects with those values; the solvers borrow the
    graph's edge-id ints. Each edge id in ``ordered_ids`` joins the
    trees of its endpoints (path halving; the larger root index becomes the
    parent, so a find costs amortized O(log n), Tarjan & van Leeuwen 1984);
    ids that join two trees are appended to ``accepted``, and the scan
    stops as soon as ``accepted`` holds ``target`` ids. Endpoints are not
    range-checked: ``GraphSpec`` already did that. Returns the number of
    ids scanned.
    """
    u, v = g.u, g.v
    scanned = 0
    for i in ordered_ids:
        scanned += 1
        a = u[i]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        b = v[i]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            continue
        if a < b:
            a, b = b, a
        parent[b] = a
        accepted.append(i)
        if len(accepted) == target:
            break
    return scanned


def component_count(g: GraphSpec) -> int:
    """Number of connected components: n minus the edges of a spanning forest."""
    accepted: list[int] = []
    kruskal_scan(list(range(g.n)), g, range(g.m), accepted, g.n - 1)
    return g.n - len(accepted)
