"""Differential test: the chunked parser against the line-by-line reference."""

import io
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_read_edge_list
from stratmst import EdgeListError, edgelist, gen_random, read_edge_list, write_edge_list
from stratmst.generators import WeightDist

# Field separators. All but the single space are whitespace that str.split
# splits on but the bulk path cannot prove safe, so their chunks must go to
# the line parser.
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
    assert (g.u, g.v, g.w) == ([0, 3], [1, 4], [2.0, 5.0])
    # A list is read once from the top, not from the top again after the header.
    assert read_edge_list(["100 2", "0 1 2", "3 4 5"]) == g


# Two-line chunks that get past every check of the bulk path but one: mostly
# lines of 4 and 2 fields, which hold 6 fields together.
@pytest.mark.parametrize("lines", [
    ["0 1 2 3\n", "4 5\n"],  # three spaces, then one
    *(["0 1 2" + c + "3\n", "4  5\n"] for c in "\t\x0b\x0c\r\x1c\x1d\x1e\x1f"),
    *(["0 1 2" + c + "3\n", "4  5\n"] for c in "\x85\xa0\u2028\u3000"),  # not ASCII
    ["0 1 2", "3 4 5"],  # no "\n": "0 1 23 4 5" glues two fields into one
])
def test_bulk_path_proves_three_fields_per_line(lines):
    lines = ["9 2\n", *lines]
    want = parse(reference_read_edge_list, iter(lines))
    assert parse(read_edge_list, iter(lines)) == want


@pytest.mark.parametrize("chunk, filler", [
    pytest.param(8, "", id="bulk"),  # n > TOKEN_CACHE_MAX_N: no token cache
    pytest.param(None, "", id="token-cache"),
    pytest.param(None, "# note\n", id="line-parser"),  # a comment in the chunk
])
def test_each_vertex_is_one_int_object(chunk, filler):
    # Vertices above 256, since CPython shares the small ints anyway; each
    # vertex appears in both columns and in several chunks.
    edges = [(300 + i % 5, 300 + (i * 3) % 7, float(i)) for i in range(40)]
    text = "400 40\n" + filler + "".join(f"{a} {b} {x!r}\n" for a, b, x in edges)
    with chunk_lines(chunk):
        g = read_edge_list(io.StringIO(text))
    assert list(zip(g.u, g.v, g.w)) == edges
    ends = [*g.u, *g.v]
    assert len({id(x) for x in ends}) == len(set(ends))  # equal means identical


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
    # Peak minus retained: the chunk's lines, joined text and fields, which
    # are dropped before the next chunk is read. n is fixed, so only m grows.
    transient = []
    for m in (20_000, 80_000):
        buf = io.StringIO()
        write_edge_list(gen_random(2000, m, WeightDist.uniform(), seed=4), buf)
        lines = buf.getvalue().splitlines(keepends=True)
        tracemalloc.start()
        try:
            g = read_edge_list(lines)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m == m
        transient.append(peak - retained)
    assert max(transient) < 400 * edgelist.CHUNK_LINES
    assert transient[1] - transient[0] < 500_000  # flat as m grows
