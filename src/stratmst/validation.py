"""The 12-case correctness suite behind the CLI's ``validate`` subcommand.

Fixed-weight cases assert exact golden totals; generated cases assert
the independent Prim oracle's total, compared with ``==`` since every
solver and oracle sums its edges in (weight, id) order. Each constructed case was
cross-checked against exhaustive enumeration before its expected value was
frozen (the test suite re-verifies that).
"""

from __future__ import annotations

from dataclasses import dataclass

from .generators import WeightDist, gen_grid, gen_path, gen_random
from .graph import GraphSpec, graph_from_edges
from .mst import SOLVERS
from .oracle import prim_dense
from .strata import StrataParams

VALIDATION_SEED = 424242

# Classic 9-vertex textbook MST example (vertices a..i mapped to 0..8).
CLRS_EDGES: tuple[tuple[int, int, float], ...] = (
    (0, 1, 4.0),
    (1, 2, 8.0),
    (2, 3, 7.0),
    (3, 4, 9.0),
    (4, 5, 10.0),
    (5, 6, 2.0),
    (6, 7, 1.0),
    (7, 0, 8.0),
    (1, 7, 11.0),
    (2, 8, 2.0),
    (8, 7, 7.0),
    (8, 6, 6.0),
    (2, 5, 4.0),
    (3, 5, 14.0),
)


@dataclass(frozen=True)
class ValidationCase:
    """One suite entry; expected=None means 'compare against the Prim oracle'."""

    name: str
    graph: GraphSpec
    expected: float | None


def make_cases() -> list[ValidationCase]:
    uniform = WeightDist.uniform()
    complete_5 = [(u, v, 1.0) for u in range(5) for v in range(u + 1, 5)]
    return [
        ValidationCase("clrs-textbook", graph_from_edges(9, CLRS_EDGES), 37.0),
        ValidationCase(
            "triangle",
            graph_from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]),
            3.0,
        ),
        ValidationCase(
            "disconnected-forest",
            graph_from_edges(4, [(0, 1, 3.0), (2, 3, 5.0)]),
            8.0,
        ),
        ValidationCase("single-vertex", GraphSpec(1, ()), 0.0),
        ValidationCase(
            "duplicate-edges",
            graph_from_edges(2, [(0, 1, 2.0), (0, 1, 5.0), (0, 1, 7.0)]),
            2.0,
        ),
        ValidationCase(
            "negative-weights",
            graph_from_edges(3, [(0, 1, -5.0), (1, 2, -3.0), (0, 2, -1.0)]),
            -8.0,
        ),
        ValidationCase("path-10", gen_path(10, uniform, VALIDATION_SEED), None),
        ValidationCase("grid-4x4", gen_grid(4, 4, uniform, VALIDATION_SEED + 1), None),
        ValidationCase("sparse-50", gen_random(50, 80, uniform, VALIDATION_SEED + 2), None),
        ValidationCase("dense-50", gen_random(50, 1225, uniform, VALIDATION_SEED + 3), None),
        ValidationCase("random-200", gen_random(200, 400, uniform, VALIDATION_SEED + 4), None),
        ValidationCase("equal-weights", graph_from_edges(5, complete_5), 4.0),
    ]


@dataclass(frozen=True)
class CaseResult:
    case: str
    algo: str
    weight: float
    expected: float
    passed: bool


def run_validation(cases: list[ValidationCase] | None = None) -> list[CaseResult]:
    """Run every case under every solver in ``SOLVERS``."""
    if cases is None:
        cases = make_cases()
    params = StrataParams(seed=VALIDATION_SEED)
    results: list[CaseResult] = []
    for case in cases:
        expected = (
            case.expected
            if case.expected is not None
            else prim_dense(case.graph).total_weight
        )
        for algo, solve in SOLVERS.items():
            got = solve(case.graph, params).total_weight
            results.append(
                CaseResult(case.name, algo, got, expected, got == expected)
            )
    return results
