"""Workload graphs, the independent reference answer, and the answer checks.

Nothing here imports ``stratmst``: the graphs are generated and the reference
minimum spanning tree is computed with numpy and a plain union-find, so a
defect in the program cannot hide in the reference it is checked against.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

WEIGHT_HI = 1000.0
# The CLI prints the total with four decimals, so an exact answer may be
# off by half a unit in the last printed place.
CLI_PRINT_SLACK = 0.5e-4
TOTAL_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One benchmark input family at a stated size.

    ``kind`` is ``random`` (a connected graph with m distinct vertex pairs:
    a random spanning tree over a shuffled vertex order plus uniformly drawn
    extra pairs) or ``path`` (0-1-...-(n-1), so m = n-1). Weights are uniform
    on [0, 1000) for both.
    """

    name: str
    kind: str
    n: int
    m: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("uniform-200k", "random", 20_000, 200_000),
        Workload("dense-400k", "random", 2_000, 400_000),
        Workload("path-200k", "path", 200_000, 199_999),
    )
}


@dataclass(frozen=True)
class EdgeArrays:
    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @property
    def m(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class Reference:
    """Minimum spanning forest of an EdgeArrays: sorted accepted ids and their total."""

    ids: np.ndarray
    total: float

    @property
    def count(self) -> int:
        return len(self.ids)


def derive_seed(seed: int, *labels: str) -> int:
    """64-bit seed for one purpose, derived from the workload seed and labels."""
    text = ":".join([str(seed), *labels])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def generate(wl: Workload, graph_seed: int) -> EdgeArrays:
    rng = np.random.default_rng(graph_seed)
    if wl.kind == "path":
        u = np.arange(wl.n - 1, dtype=np.int64)
        return EdgeArrays(wl.n, u, u + 1, rng.uniform(0.0, WEIGHT_HI, wl.m))
    if wl.kind != "random":
        raise ValueError(f"unknown workload kind {wl.kind!r}")
    n, m = wl.n, wl.m
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"m={m} infeasible for n={n}")
    perm = rng.permutation(n)
    # Vertex perm[i] attaches to a uniformly chosen earlier vertex perm[j], j < i.
    j = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    us, vs = perm[j].tolist(), perm[1:].tolist()
    seen = {(a, b) if a < b else (b, a) for a, b in zip(us, vs)}
    while len(us) < m:
        draw = m - len(us) + 64
        for a, b in zip(rng.integers(0, n, draw).tolist(), rng.integers(0, n, draw).tolist()):
            key = (a, b) if a < b else (b, a)
            if a == b or key in seen:
                continue
            seen.add(key)
            us.append(a)
            vs.append(b)
            if len(us) == m:
                break
    return EdgeArrays(
        n, np.array(us, np.int64), np.array(vs, np.int64), rng.uniform(0.0, WEIGHT_HI, m)
    )


def write_edge_list(g: EdgeArrays, path: str) -> None:
    """Write the plain-text ``n m`` / ``u v w`` format; ``repr`` round-trips weights."""
    lines = [f"{g.n} {g.m}\n"]
    lines += [f"{a} {b} {w!r}\n" for a, b, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist())]
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(lines))


def reference_mst(g: EdgeArrays) -> Reference:
    """Kruskal over a (weight, id) lexsort with a path-halving union-find."""
    order = np.lexsort((np.arange(g.m), g.w))
    parent = list(range(g.n))
    accepted: list[int] = []
    target = g.n - 1
    for a, b, i in zip(g.u[order].tolist(), g.v[order].tolist(), order.tolist()):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            accepted.append(i)
            if len(accepted) == target:
                break
    ids = np.sort(np.array(accepted, np.int64))
    return Reference(ids, math.fsum(g.w[ids].tolist()))


def check_cli_output(stdout: str, ref: Reference) -> str | None:
    """Problem with the CLI's ``TOTAL COUNT`` line, or None when it is right."""
    parts = stdout.split()
    if len(parts) != 2:
        return f"expected 'TOTAL COUNT', got {stdout.strip()!r}"
    try:
        total, count = float(parts[0]), int(parts[1])
    except ValueError:
        return f"unparsable output {stdout.strip()!r}"
    if count != ref.count:
        return f"edge count {count} != reference {ref.count}"
    if abs(total - ref.total) > TOTAL_RTOL * abs(ref.total) + CLI_PRINT_SLACK:
        return f"total {total!r} != reference {ref.total!r}"
    return None


def check_solution(ids: list[int], total: float, ref: Reference) -> str | None:
    """Problem with an in-process answer (accepted ids, total), or None when it is right."""
    got = np.sort(np.array(ids, np.int64))
    if len(got) != ref.count:
        return f"edge count {len(got)} != reference {ref.count}"
    if not np.array_equal(got, ref.ids):
        bad = np.setdiff1d(got, ref.ids)[:5].tolist()
        return f"accepted edge ids differ from the reference, e.g. {bad}"
    if abs(total - ref.total) > TOTAL_RTOL * max(1.0, abs(ref.total)):
        return f"total {total!r} != reference {ref.total!r}"
    return None
