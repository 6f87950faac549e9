"""Golden counters: exact accepted edge ids and work counters of every solver.

Each case pins, per solver, the accepted edge ids in acceptance order plus
``(sort_ops, union_calls, strata_processed, strata_total,
accepted_per_stratum)``. The values are exact, so a change to the scan
order, the stopping rule or any counter shows up as a mismatch here.
"""

import pytest

from stratmst import (
    Boundaries,
    StrataParams,
    WeightDist,
    gen_path,
    gen_random,
    graph_from_edges,
    kruskal_eds,
    kruskal_heap,
    kruskal_std,
)

UNIFORM = WeightDist.uniform()


def _forest():
    """Two random components on vertices 0-5 and 6-10; vertex 11 is isolated."""
    a = gen_random(6, 9, UNIFORM, 5)
    b = gen_random(5, 7, UNIFORM, 6)
    triples = [(e.u, e.v, e.weight) for e in a.edges]
    triples += [(e.u + 6, e.v + 6, e.weight) for e in b.edges]
    return graph_from_edges(12, triples)


CONNECTED = gen_random(24, 200, UNIFORM, 101)  # m = 200: auto k resolves to 7

# name -> (graph, eds params, eds boundaries)
CASES = {
    "uniform": (CONNECTED, StrataParams(seed=7), None),
    "path": (gen_path(20, UNIFORM, 102), StrataParams(k=4, seed=7), None),
    "forest": (_forest(), StrataParams(k=3, seed=7), None),
    "equal": (
        graph_from_edges(8, [(u, v, 1.0) for u in range(8) for v in range(u + 1, 8)]),
        StrataParams(k=3, seed=7),
        None,
    ),
    "multi": (
        graph_from_edges(4, [(0, 1, 2.0), (0, 0, 0.5), (0, 1, 1.0), (1, 2, 3.0),
                             (2, 2, 0.1), (1, 2, 3.0), (2, 3, 4.0), (3, 3, -1.0),
                             (0, 3, 4.0), (0, 1, 2.0)]),
        StrataParams(k=3, seed=7),
        None,
    ),
    "fallback": (gen_random(40, 80, UNIFORM, 3), StrataParams(seed=3), None),
    "explicit-empty": (CONNECTED, StrataParams(seed=7), Boundaries()),
}

CONNECTED_IDS = (197, 68, 195, 14, 38, 145, 114, 193, 63, 187, 74, 104, 177, 149,
                 32, 24, 159, 160, 164, 119, 109, 46, 192)

# name -> (accepted ids, std counters, eds counters, heap counters)
GOLDEN = {
    "uniform": (
        CONNECTED_IDS,
        (200, 37, 1, 1, (23,)),
        (37, 37, 1, 7, (23, 0, 0, 0, 0, 0, 0)),
        (37, 37, 1, 1, (23,)),
    ),
    "path": (
        (8, 16, 0, 2, 15, 14, 5, 11, 9, 7, 4, 1, 6, 10, 18, 3, 13, 17, 12),
        (19, 19, 1, 1, (19,)),
        (19, 19, 4, 4, (4, 5, 5, 5)),
        (19, 19, 1, 1, (19,)),
    ),
    "forest": (
        (9, 5, 2, 14, 12, 7, 11, 1, 8),
        (16, 16, 1, 1, (9,)),
        (16, 16, 3, 3, (5, 3, 1)),
        (16, 16, 1, 1, (9,)),
    ),
    "equal": (
        (0, 1, 2, 3, 4, 5, 6),
        (28, 7, 1, 1, (7,)),
        (28, 7, 2, 2, (0, 7)),
        (7, 7, 1, 1, (7,)),
    ),
    "multi": (
        (2, 3, 6),
        (10, 9, 1, 1, (3,)),
        (10, 9, 3, 3, (0, 1, 2)),
        (9, 9, 1, 1, (3,)),
    ),
    "fallback": (
        (71, 45, 23, 63, 3, 25, 76, 78, 19, 58, 40, 32, 35, 79, 4, 10, 30, 50, 18,
         34, 43, 31, 57, 61, 21, 68, 52, 39, 22, 69, 41, 5, 42, 62, 47, 28, 9, 46, 74),
        (80, 68, 1, 1, (39,)),
        (80, 68, 1, 1, (39,)),
        (68, 68, 1, 1, (39,)),
    ),
    "explicit-empty": (
        CONNECTED_IDS,
        (200, 37, 1, 1, (23,)),
        (200, 37, 1, 1, (23,)),
        (37, 37, 1, 1, (23,)),
    ),
}


def _observed(res):
    m = res.metrics
    return (
        tuple(e.id for e in res.edges),
        m.sort_ops,
        m.union_calls,
        m.strata_processed,
        m.strata_total,
        m.accepted_per_stratum,
    )


@pytest.mark.parametrize("name", list(CASES))
def test_golden_ids_and_counters(name):
    g, params, boundaries = CASES[name]
    ids, std, eds, heap = GOLDEN[name]
    assert _observed(kruskal_std(g)) == (ids, *std)
    assert _observed(kruskal_eds(g, params, boundaries)) == (ids, *eds)
    assert _observed(kruskal_heap(g)) == (ids, *heap)
