"""Independent MST oracles for cross-validation.

``prim_dense`` shares no machinery with the Kruskal solvers (no edge sort,
no union-find), which is what gives the cross-checks their bug-detection
power. ``exhaustive_mst`` is brute-force ground truth for tiny graphs.
Both trade speed for simplicity on purpose.
"""

from __future__ import annotations

from itertools import combinations

from .graph import GraphSpec, component_count
from .mst import Metrics, MstResult

EXHAUSTIVE_MAX_N = 10
EXHAUSTIVE_MAX_M = 20

_INF = float("inf")


def prim_dense(g: GraphSpec) -> MstResult:
    """O(n^2) array-based Prim, run once per connected component.

    Keeps only the cheapest parallel edge per vertex pair and grows each
    component's tree with linear scans over a best-attachment array.
    """
    n = g.n
    w = g.w
    cheapest: list[dict[int, int]] = [{} for _ in range(n)]
    for i, (a, b) in enumerate(zip(g.u, g.v)):
        if a == b:
            continue
        known = cheapest[a].get(b)
        if known is None or w[i] < w[known]:
            cheapest[a][b] = i
            cheapest[b][a] = i

    in_tree = [False] * n
    cost = [_INF] * n
    via: list[int | None] = [None] * n
    accepted: list[int] = []
    for seed in range(n):
        if in_tree[seed]:
            continue
        cost[seed] = 0.0
        while True:
            u = -1
            u_cost = _INF
            for x in range(n):
                if not in_tree[x] and cost[x] < u_cost:
                    u_cost = cost[x]
                    u = x
            if u < 0:
                break
            in_tree[u] = True
            if via[u] is not None:
                accepted.append(via[u])
            for v, i in cheapest[u].items():
                if not in_tree[v] and w[i] < cost[v]:
                    cost[v] = w[i]
                    via[v] = i
    return MstResult(g, accepted, Metrics())


def exhaustive_mst(g: GraphSpec) -> float:
    """Minimum spanning forest weight by enumerating all candidate edge subsets.

    Every combination of n - c edge indices is tested for acyclicity with a
    throwaway union-find; only tiny graphs are allowed.
    """
    if g.n > EXHAUSTIVE_MAX_N or g.m > EXHAUSTIVE_MAX_M:
        raise ValueError(
            f"graph too large to enumerate: n={g.n} (max {EXHAUSTIVE_MAX_N}), "
            f"m={g.m} (max {EXHAUSTIVE_MAX_M})"
        )
    target = g.n - component_count(g)
    if target == 0:
        return 0.0
    u, v, w = g.u, g.v, g.w
    best = _INF
    for combo in combinations(range(g.m), target):
        parent = list(range(g.n))
        weight = 0.0
        acyclic = True
        for idx in combo:
            a = u[idx]
            while parent[a] != a:
                a = parent[a]
            b = v[idx]
            while parent[b] != b:
                b = parent[b]
            if a == b:
                acyclic = False
                break
            parent[a] = b
            weight += w[idx]
        if acyclic and weight < best:
            best = weight
    return best
