"""Graph primitives: weighted edges, columnar graph specs, and union-find."""

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


class DisjointSetForest:
    """Union-find over dense 0-based indices with union by rank and path compression.

    ``find`` compresses the whole path; ``union`` halves paths inline.
    Single-owner mutable: one execution context at a time.
    """

    __slots__ = ("parent", "rank", "components")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"size must be non-negative, got {n}")
        self.parent = list(range(n))
        self.rank = [0] * n
        self.components = n

    def find(self, x: int) -> int:
        parent = self.parent
        if not 0 <= x < len(parent):
            raise IndexError(f"vertex {x} out of range for forest of size {len(parent)}")
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the components of a and b; True iff they were distinct."""
        parent = self.parent
        size = len(parent)
        if not (0 <= a < size and 0 <= b < size):
            bad = b if 0 <= a < size else a
            raise IndexError(f"vertex {bad} out of range for forest of size {size}")
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            return False
        rank = self.rank
        if rank[a] < rank[b]:
            a, b = b, a
        parent[b] = a
        if rank[a] == rank[b]:
            rank[a] += 1
        self.components -= 1
        return True


def component_count(g: GraphSpec) -> int:
    """Number of connected components, computed by unioning every edge."""
    forest = DisjointSetForest(g.n)
    for a, b in zip(g.u, g.v):
        forest.union(a, b)
    return forest.components
