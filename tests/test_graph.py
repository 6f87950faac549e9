import io
import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratmst import graph
from stratmst import (
    EdgeListError,
    EdgeRecord,
    GraphSpec,
    component_count,
    graph_from_edges,
    kruskal_std,
    read_edge_list,
    write_edge_list,
)


def bfs_component_count(n, pairs):
    adjacent = [[] for _ in range(n)]
    for a, b in pairs:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen = [False] * n
    components = 0
    for start in range(n):
        if seen[start]:
            continue
        components += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            for y in adjacent[queue.popleft()]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return components


@st.composite
def vertex_pairs(draw):
    """n in 0..30 and an edge list with self-loops, parallel edges and
    (through sparse draws) isolated vertices."""
    n = draw(st.integers(min_value=0, max_value=30))
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=60))
    loops = draw(st.lists(vertex.map(lambda x: (x, x)), max_size=5))
    parallels = draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
    pairs = pairs + loops + parallels
    return n, draw(st.permutations(pairs))


@settings(max_examples=500, deadline=None)
@given(case=vertex_pairs())
def test_component_count_matches_bfs(case):
    n, pairs = case
    g = graph_from_edges(n, [(a, b, 1.0) for a, b in pairs])
    assert component_count(g) == bfs_component_count(n, pairs)


def test_component_count_examples():
    assert component_count(graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])) == 2
    assert component_count(GraphSpec(1, ())) == 1
    triangle = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    assert component_count(triangle) == 1


def test_graph_rejects_non_finite_weights():
    with pytest.raises(ValueError, match="not finite"):
        graph_from_edges(2, [(0, 1, math.nan)])
    with pytest.raises(ValueError, match="not finite"):
        graph_from_edges(2, [(0, 1, math.inf)])
    with pytest.raises(ValueError, match="not finite"):
        graph_from_edges(2, [(0, 1, -math.inf)])


def test_graph_rejects_bad_endpoints():
    with pytest.raises(ValueError, match="out of range"):
        graph_from_edges(2, [(0, 2, 1.0)])
    with pytest.raises(ValueError, match="out of range"):
        graph_from_edges(2, [(-1, 1, 1.0)])


def test_graph_rejects_misnumbered_ids():
    with pytest.raises(ValueError, match="id"):
        GraphSpec(2, (EdgeRecord(0, 1, 1.0, 5),))
    with pytest.raises(ValueError):
        GraphSpec(-1, ())


def test_from_columns_validates_like_records():
    with pytest.raises(ValueError, match=r"edge 1: endpoints \(0, 2\) out of range for n=2"):
        GraphSpec.from_columns(2, [0, 0], [1, 2], [1.0, 1.0])
    with pytest.raises(ValueError, match="edge 0: weight nan is not finite"):
        GraphSpec.from_columns(2, [0], [1], [math.nan])
    with pytest.raises(ValueError, match="column lengths differ"):
        GraphSpec.from_columns(2, [0, 1], [1], [1.0])
    with pytest.raises(ValueError, match="non-negative"):
        GraphSpec.from_columns(-1, [], [], [])


def test_graph_rejects_non_integer_endpoints_and_n():
    # A float endpoint used to build a graph that failed only as a list
    # index inside the solver; a float n built outright.
    with pytest.raises(ValueError, match=r"edge 0: endpoints \(0\.0, 1\) are not integers"):
        graph_from_edges(2, [(0.0, 1, 1.0)])
    with pytest.raises(ValueError, match=r"edge 1: endpoints \(1, '0'\) are not integers"):
        GraphSpec.from_columns(2, [0, 1], [1, "0"], [1.0, 2.0])
    with pytest.raises(ValueError, match=r"edge 0: endpoints \(0, 1\.5\) are not integers"):
        GraphSpec(2, (EdgeRecord(0, 1.5, 1.0, 0),))
    # The first bad edge is named, whichever check it fails.
    with pytest.raises(ValueError, match=r"edge 0: endpoints \(0, 9\) out of range"):
        GraphSpec.from_columns(2, [0, 0.5], [9, 1], [1.0, 1.0])
    for n in (2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            GraphSpec.from_columns(n, [0], [1], [1.0])
    # Anything operator.index accepts is an integer: numpy ints and bools.
    g = GraphSpec.from_columns(np.int64(3), np.array([0, 1]), [True, np.int32(2)], [1.0, 2.0])
    assert (type(g.n), g.n, g.m) == (int, 3, 2)
    assert kruskal_std(g).total_weight == 3.0


def test_graph_vertex_count_is_capped_at_max_n():
    # Every endpoint must fit the C int of an array('i') column.
    g = GraphSpec.from_columns(2**31, [0], [2**31 - 1], [1.5])
    assert (g.n, list(g.u), list(g.v)) == (2**31, [0], [2**31 - 1])
    for n in (2**31 + 1, 10**30):
        with pytest.raises(ValueError, match=f"vertex count must be at most {2**31}, got {n}"):
            GraphSpec.from_columns(n, [0], [1], [1.5])


def test_graph_edge_count_is_capped_at_max_n(monkeypatch):
    # Every edge id must fit the C unsigned int of an array('I'). Columns
    # of 2**31 edges would take 48 GB as lists, so a cap of 3 stands in for
    # MAX_N.
    monkeypatch.setattr(graph, "MAX_N", 3)
    g = GraphSpec.from_columns(2, [0, 1, 0], [1, 0, 1], [1.5, 2.5, 0.5])
    assert (g.m, list(g.u)) == (3, [0, 1, 0])
    with pytest.raises(ValueError, match="^edge count must be at most 3, got 4$"):
        GraphSpec.from_columns(2, [0] * 4, [1] * 4, [1.5] * 4)


def test_graph_reports_the_first_bad_edge_in_order():
    # Edge 0's wrong id is reported before edge 1's bad endpoint.
    with pytest.raises(ValueError, match="edge 0: id 3 does not match"):
        GraphSpec(2, (EdgeRecord(0, 1, 1.0, 3), EdgeRecord(0, 9, 1.0, 1)))
    with pytest.raises(ValueError, match="edge 0: endpoints"):
        GraphSpec(2, (EdgeRecord(0, 9, math.inf, 7),))


def test_records_and_columns_build_equal_graphs():
    records = (EdgeRecord(0, 1, 2.5, 0), EdgeRecord(2, 2, -1.0, 1), EdgeRecord(1, 2, 0.0, 2))
    g = GraphSpec(3, records)
    assert g == GraphSpec.from_columns(3, [0, 2, 1], [1, 2, 2], [2.5, -1.0, 0.0])
    assert (list(g.u), list(g.v), list(g.w)) == ([0, 2, 1], [1, 2, 2], [2.5, -1.0, 0.0])
    assert g.w.typecode == "d"
    assert g != GraphSpec.from_columns(4, [0, 2, 1], [1, 2, 2], [2.5, -1.0, 0.0])
    assert g.m == 3


def test_edges_view_builds_records_on_access():
    g = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
    view = g.edges
    assert len(view) == 3
    assert view[1] == EdgeRecord(1, 2, 2.0, 1)
    assert view[-1] == EdgeRecord(2, 3, 3.0, 2)
    assert list(view) == [view[0], view[1], view[2]]
    assert EdgeRecord(0, 1, 1.0, 0) in view
    with pytest.raises(IndexError):
        view[3]
    with pytest.raises(IndexError):
        view[-4]
    with pytest.raises(TypeError):
        view[0] = EdgeRecord(0, 1, 1.0, 0)


def test_graph_allows_self_loops_and_parallels():
    g = graph_from_edges(2, [(0, 0, 1.0), (0, 1, 2.0), (0, 1, 3.0)])
    assert g.m == 3


def test_edge_list_round_trip():
    rng = random.Random(3)
    g = graph_from_edges(
        6, [(rng.randrange(6), rng.randrange(6), rng.uniform(-1e6, 1e6)) for _ in range(12)]
    )
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert read_edge_list(io.StringIO(buf.getvalue())) == g


def test_edge_list_parses_comments_and_scientific_notation():
    text = "# a comment\n\n3 2\n0 1 1.5e-3\n# mid comment\n1 2 2E2\n"
    g = read_edge_list(io.StringIO(text))
    assert g.n == 3
    assert g.edges[0].weight == 1.5e-3
    assert g.edges[1].weight == 200.0


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 0),
        ("3\n", 1),
        ("x y\n", 1),
        ("-1 0\n", 1),
        ("2 1\n0 1\n", 2),
        ("2 1\n0 1 zzz\n", 2),
        ("2 1\n0 5 1.0\n", 2),
        ("2 1\n0 1 nan\n", 2),
        ("2 1\n0 1 inf\n", 2),
        ("2 2\n0 1 1.0\n", 2),
        ("2 1\n0 1 1.0\n1 0 2.0\n", 3),
    ],
)
def test_edge_list_errors_name_the_line(text, line):
    with pytest.raises(EdgeListError) as exc_info:
        read_edge_list(io.StringIO(text))
    assert exc_info.value.line_no == line
    assert f"line {line}" in str(exc_info.value)
