"""Seeded generators for the benchmark graph families and weight distributions."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import GraphSpec

# Clustered noise must never flip a weight's sign.
CLUSTER_WEIGHT_FLOOR = 0.001


@dataclass(frozen=True)
class WeightDist:
    """A weight sampler; build one through the factory classmethods."""

    kind: str
    params: tuple[float, ...]

    @classmethod
    def uniform(cls, lo: float = 0.0, hi: float = 1000.0) -> "WeightDist":
        return cls("uniform", (lo, hi))

    @classmethod
    def half_normal(cls, mean: float = 500.0, sd: float = 100.0) -> "WeightDist":
        return cls("half_normal", (mean, sd))

    @classmethod
    def pareto(cls, alpha: float = 1.5, scale: float = 1.0) -> "WeightDist":
        return cls("pareto", (alpha, scale))

    @classmethod
    def clustered(
        cls,
        centers: tuple[float, ...] = (100.0, 300.0, 500.0, 700.0, 900.0),
        sd: float = 30.0,
    ) -> "WeightDist":
        return cls("clustered", (*centers, sd))

    def sample(self, rng: random.Random) -> float:
        if self.kind == "uniform":
            lo, hi = self.params
            return rng.uniform(lo, hi)
        if self.kind == "half_normal":
            mean, sd = self.params
            return abs(rng.gauss(mean, sd))
        if self.kind == "pareto":
            alpha, scale = self.params
            # Inverse CDF with U on (0, 1]: support [scale, inf), heavy right tail.
            return scale * (1.0 - rng.random()) ** (-1.0 / alpha)
        if self.kind == "clustered":
            *centers, sd = self.params
            center = centers[rng.randrange(len(centers))]
            return max(CLUSTER_WEIGHT_FLOOR, center + rng.gauss(0.0, sd))
        raise ValueError(f"unknown weight distribution {self.kind!r}")


def gen_random(n: int, m: int, dist: WeightDist, seed: int) -> GraphSpec:
    """Connected random graph with exactly m edges.

    A random spanning tree over a shuffled vertex order guarantees
    connectivity; the remaining m-(n-1) edges are distinct non-tree pairs
    found by rejection sampling against a duplicate-detection set.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    max_m = n * (n - 1) // 2
    if not n - 1 <= m <= max_m:
        raise ValueError(f"m={m} infeasible for n={n}: need {n - 1} <= m <= {max_m}")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    seen: set[tuple[int, int]] = set()
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []

    def add(u: int, v: int) -> None:
        seen.add((u, v) if u < v else (v, u))
        us.append(u)
        vs.append(v)
        ws.append(dist.sample(rng))

    for i in range(1, n):
        add(perm[rng.randrange(i)], perm[i])
    while len(ws) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or ((u, v) if u < v else (v, u)) in seen:
            continue
        add(u, v)
    return GraphSpec.from_columns(n, us, vs, ws)


def gen_grid(rows: int, cols: int, dist: WeightDist, seed: int) -> GraphSpec:
    """rows x cols grid: one edge per horizontal and vertical neighbour pair."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {rows}x{cols}")
    rng = random.Random(seed)
    us: list[int] = []
    vs: list[int] = []
    for r in range(rows):
        for c in range(cols):
            at = r * cols + c
            if c + 1 < cols:
                us.append(at)
                vs.append(at + 1)
            if r + 1 < rows:
                us.append(at)
                vs.append(at + cols)
    ws = [dist.sample(rng) for _ in us]
    return GraphSpec.from_columns(rows * cols, us, vs, ws)


def gen_path(n: int, dist: WeightDist, seed: int) -> GraphSpec:
    """Path 0-1-...-(n-1), the sparsest connected structure (m = n-1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = random.Random(seed)
    ws = [dist.sample(rng) for _ in range(n - 1)]
    return GraphSpec.from_columns(n, range(n - 1), range(1, n), ws)
