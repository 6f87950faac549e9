"""Differential test: the chunked parser against the line-by-line reference."""

import io
import random
import struct
from array import array
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_read_edge_list, traced_memory
from stratmst import (
    EdgeListError,
    EdgeRecord,
    GraphSpec,
    StrataParams,
    edgelist,
    gen_grid,
    gen_path,
    gen_random,
    generators,
    graph_from_edges,
    read_edge_list,
    write_edge_list,
)
from stratmst.generators import WeightDist
from stratmst.graph import MAX_N
from stratmst.mst import SOLVERS

# Field separators. All but the single space are whitespace that str.split
# splits on. The bulk path splits on single spaces alone, so a line that uses
# one must either fail its two-space check or conversion, or read the same.
SEPARATORS = (" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
              "\xa0", "\u3000")
BAD_TOKENS = ("x", "1.5", "#", "#3", "0x1", "", "1e", "--1")
ODD_WEIGHTS = ("nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-0.0", "5e-324",
               "1E2", "+3", "1_0.5", "zzz")


@contextmanager
def chunk_lines(size):
    """Read ``size`` lines a chunk, with the token cache on for n <= ``size``;
    None keeps both defaults."""
    saved = edgelist.CHUNK_LINES, edgelist.TOKEN_CACHE_MAX_N
    if size is not None:
        edgelist.CHUNK_LINES = edgelist.TOKEN_CACHE_MAX_N = size
    try:
        yield
    finally:
        edgelist.CHUNK_LINES, edgelist.TOKEN_CACHE_MAX_N = saved


def parse(reader, lines):
    """The parsed graph, or the type, line and message of the error raised."""
    try:
        return reader(lines)
    except ValueError as exc:
        return (type(exc).__name__, getattr(exc, "line_no", None), str(exc))


def spellings(i):
    """Different tokens that int() reads as vertex i."""
    return st.sampled_from((str(i), f"0{i}", f"+{i}", f"00{i}", "-0" if i == 0 else f"+0{i}"))


@st.composite
def edge_lines(draw, n):
    kind = draw(st.integers(0, 19))  # 6-9 mutate the line, the rest keep it valid
    node = st.integers(0, max(n - 1, 0)).flatmap(lambda i: st.one_of(st.just(str(i)), spellings(i)))
    weight = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers(-2, 9).map(str)
    )
    fields = [draw(node), draw(node), draw(weight)]
    if kind == 6:  # two or four fields
        fields = fields[:2] if draw(st.booleans()) else fields + [draw(weight)]
    elif kind == 7:  # a bad token anywhere
        fields[draw(st.integers(0, 2))] = draw(st.sampled_from(BAD_TOKENS))
    elif kind == 8:  # negative or out-of-range endpoint
        fields[draw(st.integers(0, 1))] = str(draw(st.sampled_from((-1, n, n + 3))))
    elif kind == 9:  # nan, inf and other odd weight spellings
        fields[2] = draw(st.sampled_from(ODD_WEIGHTS))
    if draw(st.integers(0, 2)):  # mostly plain, so that chunks of plain lines are common
        return " ".join(fields)
    line = draw(st.sampled_from(("", " ", "\t", "\x0c"))) + fields[0]
    for field in fields[1:]:  # a separator of its own between each pair of fields
        line += draw(st.sampled_from(SEPARATORS)) + field
    return line + draw(st.sampled_from(("", " ", "\t", "\xa0")))


@st.composite
def edge_list_texts(draw, n_range=(0, 6)):
    n = draw(st.integers(*n_range))
    lines = draw(st.lists(edge_lines(n), max_size=12))
    # Mostly the true edge count; sometimes one too few or too many.
    m = len(lines) + draw(st.sampled_from((0, 0, 0, 0, -1, 1)))
    header = f"{n} {m}"
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from((f"{n}", f"{n} {m} 1", f"-1 {m}", "x y")))
    lines.insert(0, header)
    # Comment and blank lines anywhere, the header's front included.
    for _ in range(draw(st.integers(0, 4))):
        filler = draw(st.sampled_from(("# note", "#", "", "   ", "\t# x 1 2", "#0 1 2.0")))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    eol = draw(st.sampled_from(("\n", "\r\n")))
    text = eol.join(lines)
    if draw(st.booleans()):
        text += eol
    return text


# chunk_lines(c) turns the token cache on for n <= c: chunk 1 runs the bulk
# path without it, 2 and the default with it, 3 either way.
@pytest.mark.parametrize("chunk, n_range", [
    pytest.param(1, (2, 7), id="1"),
    pytest.param(2, (0, 2), id="2"),
    pytest.param(3, (0, 8), id="3"),
    pytest.param(None, (0, 6), id="None"),
])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_chunked_parser_matches_reference(chunk, n_range, data):
    text = data.draw(edge_list_texts(n_range))
    # A StringIO's lines end in "\n"; splitlines() strips every line end, so
    # a bulk chunk of more than one line must not glue its lines together.
    for make_lines in (io.StringIO, lambda t: iter(t.splitlines())):
        want = parse(reference_read_edge_list, make_lines(text))
        with chunk_lines(chunk):
            got = parse(read_edge_list, make_lines(text))
        assert got == want
        assert repr(got) == repr(want)


def test_lines_without_newline_are_not_glued():
    # "".join() of these is "0 1 23 4 5": two endpoints but one weight per
    # pair of lines, which the bulk path once appended as-is.
    g = read_edge_list(iter(["100 2", "0 1 2", "3 4 5"]))
    assert (list(g.u), list(g.v), list(g.w), g.w.typecode) == ([0, 3], [1, 4], [2.0, 5.0], "d")
    # A list is read once from the top, not from the top again after the header.
    assert read_edge_list(["100 2", "0 1 2", "3 4 5"]) == g


# Two-line chunks of 6 fields in all, mostly lines of 4 and 2 fields, that
# the bulk path must not read as two edges.
@pytest.mark.parametrize("lines", [
    ["0 1 2 3\n", "4 5\n"],  # three spaces, then one
    *(["0 1 2" + c + "3\n", "4  5\n"] for c in "\t\x0b\x0c\r\x1c\x1d\x1e\x1f"),
    *(["0 1 2" + c + "3\n", "4  5\n"] for c in "\x85\xa0\u2028\u3000"),  # not ASCII
    ["0 1 2", "3 4 5"],  # no "\n": "0 1 23 4 5" glues two fields into one
    ["0 1\x002 3\n", "4 5\n"],  # a NUL, the bulk path's line joiner, in place of a space
    ["0 1 2\ud800\n", "3 4 5\n"],  # a lone surrogate, which UTF-8 cannot encode
])
def test_bulk_path_proves_three_fields_per_line(lines):
    lines = ["9 2\n", *lines]
    want = parse(reference_read_edge_list, iter(lines))
    assert parse(read_edge_list, iter(lines)) == want


@pytest.mark.parametrize("chunk", [1, None])
def test_crlf_and_trailing_tab_lines_stay_on_the_bulk_path(chunk, monkeypatch):
    # A field keeps the "\r\n" or tab at its end when the bulk path splits
    # on " " alone; float strips it, so no chunk needs the line parser.
    lines = ["5 4\r\n", "0 1 2.5\r\n", "1 2 -0.0\t\n", "2 3 1e-3\t", "3 4 7\t\r\n"]
    want = reference_read_edge_list(iter(lines))

    def line_parser(*args):
        raise AssertionError("a chunk went to the line parser")

    monkeypatch.setattr(edgelist, "_take_lines", line_parser)
    with chunk_lines(chunk):
        got = read_edge_list(lines)
    assert got == want
    assert repr(got) == repr(want)  # -0.0 keeps its sign


def test_unstripped_separators_go_to_the_line_parser(monkeypatch):
    # str.split splits on "\x1c"-"\x1f", so the line parser reads these
    # lines, but float does not strip them: the bulk path must give way.
    lines = ["3 2\n", "0 1 2\x1c\n", "1 2 3\x1f\n"]
    sent = []
    take_lines = edgelist._take_lines

    def line_parser(chunk, *args):
        sent.append(chunk)
        return take_lines(chunk, *args)

    monkeypatch.setattr(edgelist, "_take_lines", line_parser)
    assert read_edge_list(lines) == reference_read_edge_list(iter(lines))
    assert sent == [lines[1:]]


EDGES = [(300 + i % 5, 300 + i // 10, float(i)) for i in range(1000)]


def top_edges(n):
    """100 edges that all touch vertex n - 1, the largest of n."""
    return [(i % 7, n - 1 - i % 2, float(i)) for i in range(100)]


def parsed(chunk, filler, n, edges=EDGES):
    """Parse ``edges`` under a header of ``n`` vertices, with ``filler``
    before every hundredth edge line."""
    def build(monkeypatch):
        text = f"{n} {len(edges)}\n" + "".join(
            (filler if i % 100 == 50 else "") + f"{a} {b} {x!r}\n"
            for i, (a, b, x) in enumerate(edges)
        )
        with chunk_lines(chunk):
            return read_edge_list(io.StringIO(text)), edges
    return build


def from_columns(n, edges):
    return lambda mp: (GraphSpec.from_columns(n, *map(list, zip(*edges))), edges)


def generated(make):
    """Run a generator and record the columns it hands to ``from_columns``."""
    def build(monkeypatch):
        seen = []

        class Recording(GraphSpec):
            @classmethod
            def from_columns(cls, n, u, v, w):
                seen.append(list(zip(u, v, w)))
                return GraphSpec.from_columns(n, u, v, w)

        monkeypatch.setattr(generators, "GraphSpec", Recording)
        g = make()
        return g, seen[0]
    return build


# Endpoints are C unsigned shorts up to n = 65,536, where the largest vertex
# is 65,535, and C ints above it.
@pytest.mark.parametrize("build, typecode", [
    pytest.param(parsed(None, "", 40_000), "H", id="bulk"),  # n > TOKEN_CACHE_MAX_N: no token cache
    pytest.param(parsed(None, "", 400), "H", id="token-cache"),
    pytest.param(parsed(None, "# note\n", 400), "H", id="line-parser"),  # a comment in the chunk
    pytest.param(parsed(64, "# note\n", 400), "H", id="split-chunks"),  # both parsers
    pytest.param(from_columns(400, EDGES), "H", id="from_columns"),
    pytest.param(lambda mp: (graph_from_edges(400, EDGES), EDGES), "H", id="graph_from_edges"),
    pytest.param(lambda mp: (GraphSpec(400, [EdgeRecord(*e, i) for i, e in enumerate(EDGES)]),
                             EDGES), "H", id="records"),
    pytest.param(generated(lambda: gen_random(400, 1000, WeightDist.uniform(), seed=2)), "H",
                 id="gen_random"),
    pytest.param(generated(lambda: gen_grid(3, 4, WeightDist.uniform(), seed=2)), "H",
                 id="gen_grid"),
    pytest.param(generated(lambda: gen_path(50, WeightDist.uniform(), seed=2)), "H",
                 id="gen_path"),
    *(pytest.param(build(n, top_edges(n)), typecode, id=f"{name}-{n}")
      for n, typecode in ((1 << 16, "H"), ((1 << 16) + 1, "i"))
      for name, build in (
          ("bulk", lambda n, e: parsed(None, "", n, e)),
          ("line-parser", lambda n, e: parsed(None, "# note\n", n, e)),
          ("from_columns", from_columns),
      )),
])
def test_every_route_packs_endpoints_as_c_ints(build, typecode, monkeypatch):
    g, edges = build(monkeypatch)
    for col in (g.u, g.v):
        assert type(col) is array and col.typecode == typecode
    assert list(zip(g.u, g.v, g.w)) == edges


# Lines between header and edge: none keeps the chunk plain, for the bulk
# path; a comment sends it to the line parser.
HEADER_FILLERS = [pytest.param([], id="bulk"), pytest.param(["#\n"], id="lines")]


@pytest.mark.parametrize("filler", HEADER_FILLERS)
def test_header_n_up_to_max_n_parses(filler):
    assert MAX_N == 2**31
    g = read_edge_list([f"{2**31} 1\n", *filler, "0 2147483647 1.5\n"])
    assert (g.n, list(g.u), list(g.v), list(g.w)) == (2**31, [0], [2**31 - 1], [1.5])
    for n in (2**31 + 1, 3_000_000_000, 10**30):
        with pytest.raises(EdgeListError, match=f"^line 1: n={n} exceeds the limit of {2**31}"):
            read_edge_list([f"{n} 1\n", *filler, "0 1 1.5\n"])


@pytest.mark.parametrize("filler", HEADER_FILLERS)
def test_header_m_up_to_max_n_parses(filler):
    # Edge ids fill array('I') slots. A header of 2**31 edges passes the
    # cap, and the file fails only for the edges it lacks.
    last = 2 + len(filler)
    with pytest.raises(EdgeListError, match=f"^line {last}: expected {2**31} edges, found only 1$"):
        read_edge_list([f"2 {2**31}\n", *filler, "0 1 1.5\n"])
    for m in (2**31 + 1, 10**30):
        with pytest.raises(EdgeListError, match=f"^line 1: m={m} exceeds the limit of {2**31} edges$"):
            read_edge_list([f"2 {m}\n", *filler, "0 1 1.5\n"])


# Chunk sizes that split the file, and the default that does not.
@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_generated_file_round_trips_across_chunk_sizes(chunk):
    g = gen_random(300, 1000, WeightDist.pareto(), seed=5)
    buf = io.StringIO()
    write_edge_list(g, buf)
    text = buf.getvalue()
    with chunk_lines(chunk):
        assert read_edge_list(io.StringIO(text)) == g
        # An error in a late chunk still names its line.
        lines = text.splitlines(keepends=True)
        lines[900] = "0 1 nan\n"
        with pytest.raises(EdgeListError, match="line 901: weight 'nan' is not finite"):
            read_edge_list(io.StringIO("".join(lines)))


def test_parse_transient_memory_is_bounded_by_the_chunk():
    # Peak minus retained: the chunk's lines, joined bytes and fields, which
    # are dropped before the next chunk is read, and the token cache of the
    # n = 2,000 vertices, which is not. n is fixed, so only m grows. At
    # 1,024-line chunks it read 401-422 kB on Python 3.11-3.13; the cache
    # sets most of it, so it does not shrink with the chunk. Retained, the
    # graph costs two packed 2-byte endpoints and one packed double per
    # edge, about 12 B.
    transient = []
    for m in (20_000, 80_000):
        buf = io.StringIO()
        write_edge_list(gen_random(2000, m, WeightDist.uniform(), seed=4), buf)
        lines = buf.getvalue().splitlines(keepends=True)
        g, retained, peak = traced_memory(lambda: read_edge_list(lines))
        assert g.m == m
        assert type(g.w) is array and g.w.typecode == "d"
        assert retained < 20 * m
        transient.append(peak - retained)
    assert max(transient) < 500_000
    assert transient[1] - transient[0] < 500_000  # flat as m grows


def test_huge_header_parses_in_memory_bounded_by_the_edges():
    # The parse keeps nothing per header vertex; an n-slot list would need
    # 8 GB.
    g, _, peak = traced_memory(
        lambda: read_edge_list(["1000000000 1\n", "0 999999999 1.5\n"])
    )
    assert (g.n, list(g.u), list(g.v), list(g.w)) == (10**9, [0], [999_999_999], [1.5])
    assert g.w.typecode == "d"
    assert peak < 1_000_000


def test_path_parse_never_grows_a_dict_of_every_vertex():
    # Past the token cache's gate, with n = m + 1, the parse keeps no table
    # of vertices. A dict of all 65,536 vertices made the parse's transient
    # (peak minus retained) 3.6 MB under tracemalloc; the packed columns
    # leave only the chunk's own transient.
    n = 1 << 16
    assert n > edgelist.TOKEN_CACHE_MAX_N
    buf = io.StringIO()
    write_edge_list(gen_path(n, WeightDist.uniform(), seed=1), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    g, retained, peak = traced_memory(lambda: read_edge_list(lines))
    assert g.m == n - 1
    assert peak - retained < 2_500_000


# Weights whose bits a lossy column would change: a sign that == cannot see,
# the smallest subnormal and normal doubles, and doubles past 2**53.
EXACT_WEIGHTS = ("-0.0", "0.0", "5e-324", "2.2250738585072014e-308", "1e16", "-1e16")


def bits(weights):
    return struct.pack(f"{len(weights)}d", *weights)


# A comment sends its whole chunk, here the whole file, to the line parser.
@pytest.mark.parametrize("filler", [pytest.param("", id="bulk"), pytest.param("#\n", id="lines")])
def test_weights_keep_their_bits_through_parse_and_write(filler):
    n = 24
    rng = random.Random(7)
    spelled = [(a, b, rng.choice(EXACT_WEIGHTS)) for a in range(n) for b in range(a + 1, n)]
    triples = [(a, b, float(x)) for a, b, x in spelled]
    text = f"{n} {len(spelled)}\n{filler}" + "".join(f"{a} {b} {x}\n" for a, b, x in spelled)
    want = graph_from_edges(n, triples)
    g = read_edge_list(io.StringIO(text))
    buf = io.StringIO()
    write_edge_list(g, buf)
    again = read_edge_list(io.StringIO(buf.getvalue()))
    expected = bits([x for _, _, x in triples])
    for h in (g, again):
        assert type(h.w) is array and h.w.typecode == "d"
        assert bits(h.w) == expected
        assert (h.u, h.v) == (want.u, want.v)
    for name, solve in SOLVERS.items():
        for params in (StrataParams(seed=3), StrataParams(k=7, seed=3)):
            ref = solve(want, params)
            for got in (solve(g, params), solve(again, params)):
                assert got.edge_ids == ref.edge_ids, name
                assert bits([got.total_weight]) == bits([ref.total_weight]), name
                for field in ("sort_ops", "partition_ops", "strata_processed",
                              "strata_total", "union_calls", "accepted_per_stratum"):
                    assert getattr(got.metrics, field) == getattr(ref.metrics, field), field
