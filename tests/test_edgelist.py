"""Differential test: the chunked parser against the line-by-line reference."""

import io
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_read_edge_list
from stratmst import EdgeListError, edgelist, gen_random, read_edge_list, write_edge_list
from stratmst.generators import WeightDist

SEPARATORS = (" ", "  ", "\t", " \t ")
BAD_TOKENS = ("x", "1.5", "#", "#3", "0x1", "", "1e", "--1")
ODD_WEIGHTS = ("nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-0.0", "5e-324",
               "1E2", "+3", "1_0.5", "zzz")


@contextmanager
def chunk_lines(size):
    saved = edgelist.CHUNK_LINES
    if size is not None:
        edgelist.CHUNK_LINES = size
    try:
        yield
    finally:
        edgelist.CHUNK_LINES = saved


def parse(reader, text):
    """The parsed graph, or the type, line and message of the error raised."""
    try:
        return reader(io.StringIO(text))
    except ValueError as exc:
        return (type(exc).__name__, getattr(exc, "line_no", None), str(exc))


@st.composite
def edge_lines(draw, n):
    kind = draw(st.integers(0, 19))  # 6-9 mutate the line, the rest keep it valid
    sep = draw(st.sampled_from(SEPARATORS))
    node = st.integers(0, max(n - 1, 0)).map(str)
    weight = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    fields = [draw(node), draw(node), draw(weight)]
    if kind == 6:  # two or four fields
        fields = fields[:2] if draw(st.booleans()) else fields + [draw(weight)]
    elif kind == 7:  # a bad token anywhere
        fields[draw(st.integers(0, 2))] = draw(st.sampled_from(BAD_TOKENS))
    elif kind == 8:  # negative or out-of-range endpoint
        fields[draw(st.integers(0, 1))] = str(draw(st.sampled_from((-1, n, n + 3))))
    elif kind == 9:  # nan, inf and other odd weight spellings
        fields[2] = draw(st.sampled_from(ODD_WEIGHTS))
    lead = draw(st.sampled_from(("", " ", "\t")))
    trail = draw(st.sampled_from(("", " ", "\t")))
    return lead + sep.join(fields) + trail


@st.composite
def edge_list_texts(draw):
    n = draw(st.integers(0, 6))
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


@pytest.mark.parametrize("chunk", [1, 2, 3, None])
@settings(max_examples=200, deadline=None)
@given(text=edge_list_texts())
def test_chunked_parser_matches_reference(chunk, text):
    want = parse(reference_read_edge_list, text)
    with chunk_lines(chunk):
        got = parse(read_edge_list, text)
    assert got == want
    assert repr(got) == repr(want)


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
