"""Plain-text edge list format shared by the CLI and the generators.

The first non-comment line is ``n m``; each of the m following lines is
``u v w`` with 0-based integer endpoints and a decimal weight in plain or
scientific notation. Lines starting with ``#`` are comments and may appear
anywhere; blank lines are ignored.

The reader takes any iterable of lines: an open text file, a ``StringIO``
or a list of strings. A line may hold ``\\n`` only at its end, as file
iteration guarantees; any line may lack it.

Edge lines are read in chunks of ``CHUNK_LINES``. A chunk of plain, valid
``u v w`` lines is converted column by column in bulk; any other chunk goes
through the line-by-line parser, which skips comments and blank lines and
raises every line-numbered error. Both use the same ``int`` and ``float``,
so they accept the same inputs. The bulk path needs only that every line
holds exactly two spaces: joined with ``" "`` and split on ``" "``, the
chunk gives three fields per line, and no line runs into the next. A field
may keep whitespace at its ends, such as a tab or ``"\\r\\n"``. ``int`` and
``float`` strip only characters that ``str.split`` splits on and accept
none inside a number, so a chunk that converts holds what the line parser
reads; any other chunk, one with ``"\\x1c"``-``"\\x1f"`` (split on, never
stripped) included, fails to convert and goes to the line parser. A chunk's
lines, their joined text and its fields are dropped before the next chunk
is read, so the chunk size, not the edge count, sets the parse's
transient memory: about 1 MB at 4,096 lines of ``u v w`` (tracemalloc).
Larger chunks only raise the peak; the parse is no faster with them. The
columns are packed arrays, ``array('i')`` endpoints and ``array('d')``
weights, filled as each chunk is taken, so only one chunk's int and float
objects exist at a time and the graph keeps about 16 bytes per edge. A
header's ``n`` or ``m`` above ``graph.MAX_N`` is rejected, so every
endpoint fits an ``array('i')`` slot and every edge id an ``array('I')``
slot.

When the header's ``n`` is at most ``TOKEN_CACHE_MAX_N``, the reader keeps
every endpoint token it has converted, so a vertex spelled the same way
again costs a dict lookup instead of an ``int`` call. The gate reads ``n``
alone and does not follow the chunk size: with more vertices, a chunk is
likelier to hold a token not yet seen, and it then pays for a failed
lookup as well as the ``int`` calls. Loads of uniform random files, cache
on against off (in-process medians of 9 interleaved runs, Python 3.11.7,
2-vCPU Xeon), put the crossover between n = 8,192 and 12,288, rising
slowly with m:

    n        m = 50k   m = 200k   m = 400k   (load time, on / off)
    4,096    0.86      0.86       0.93
    8,192    0.97      0.96       0.94
    10,240   1.05      0.96       0.98
    12,288   1.04      1.18       0.95

An earlier sweep gave 1.13, 1.00 and 1.04 at n = 16,000, and 1.25, 1.20
and 1.24 at n = 24,000. The gate sits at the low end of the crossover, so
that the cache never costs on the sizes measured.
"""

from __future__ import annotations

import math
import struct
from array import array
from itertools import islice, repeat
from typing import IO, Iterable, Iterator

from .graph import MAX_N, GraphSpec

CHUNK_LINES = 1 << 12
TOKEN_CACHE_MAX_N = 1 << 13


class EdgeListError(ValueError):
    """Malformed edge-list input; the message names the offending line."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    for no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if text and not text.startswith("#"):
            yield no, text


def _plain_fields(chunk: list[str]) -> list[str] | None:
    """Three fields per line of a chunk whose lines all hold exactly two
    spaces, split on ``" "`` alone; else None."""
    if set(map(str.count, chunk, repeat(" "))) != {2}:
        return None
    return " ".join(chunk).split(" ")


def _endpoints(col: list[str], n: int, tokens: dict[str, int] | None) -> list[int]:
    """The vertex of each token; ValueError if one is not a vertex."""
    if tokens is not None:
        try:
            return list(map(tokens.__getitem__, col))
        except KeyError:
            pass
    ints = list(map(int, col))
    if not (0 <= min(ints) and max(ints) < n):
        raise ValueError
    if tokens is not None:
        tokens.update(zip(col, ints))
    return ints


def _take_bulk(
    chunk: list[str],
    n: int,
    m: int,
    u: array[int],
    v: array[int],
    w: array[float],
    tokens: dict[str, int] | None,
) -> bool:
    """Append a chunk of plain ``u v w`` lines to the columns in bulk.

    Returns False, appending nothing, unless every line's three fields
    convert, endpoints are in range, weights are finite and the edge count
    stays within ``m``. Each column of the chunk is converted to a list of
    ints or floats, then packed onto its array by ``struct.pack``: about
    twice as fast as ``fromlist`` and four times as fast as ``extend`` on a
    4,096-item chunk. The chunk's int and float objects go with the chunk.
    ``tokens``, when given, maps each endpoint token already converted to
    its int; it only ever holds in-range vertices.
    """
    k = len(chunk)
    if len(w) + k > m or (fields := _plain_fields(chunk)) is None:
        return False
    try:
        cu = _endpoints(fields[0::3], n, tokens)
        cv = _endpoints(fields[1::3], n, tokens)
        cw = list(map(float, fields[2::3]))
    except ValueError:
        return False
    if not all(map(math.isfinite, cw)):
        return False
    u.frombytes(struct.pack(f"{k}i", *cu))
    v.frombytes(struct.pack(f"{k}i", *cv))
    w.frombytes(struct.pack(f"{k}d", *cw))
    return True


def _take_lines(
    chunk: list[str],
    offset: int,
    last_no: int,
    n: int,
    m: int,
    u: array[int],
    v: array[int],
    w: array[float],
) -> int:
    """Parse a chunk line by line; returns the number of its last content line.

    ``offset`` is the number of lines before the chunk; ``last_no`` is
    returned unchanged when the chunk holds no content line.
    """
    for no, text in _content_lines(chunk):
        last_no = offset + no
        if len(w) == m:
            raise EdgeListError(last_no, f"more than the declared {m} edge lines")
        parts = text.split()
        try:
            if len(parts) != 3:
                raise ValueError
            a, b, x = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise EdgeListError(last_no, f"expected 'u v w', got {text!r}") from None
        if not (0 <= a < n and 0 <= b < n):
            raise EdgeListError(last_no, f"endpoints ({a}, {b}) out of range for n={n}")
        if not math.isfinite(x):
            raise EdgeListError(last_no, f"weight {parts[2]!r} is not finite")
        u.append(a)
        v.append(b)
        w.append(x)
    return last_no


def read_edge_list(stream: Iterable[str]) -> GraphSpec:
    """Parse an edge-list stream into a GraphSpec.

    ``stream`` yields lines that hold ``"\\n"`` only at their end, if at all:
    an open text file, a ``StringIO`` or a list of strings.
    """
    stream = iter(stream)  # so that a list, too, is read on after its header
    header = next(_content_lines(stream), None)
    if header is None:
        raise EdgeListError(0, "empty input, expected an 'n m' header")
    last_no, text = header
    parts = text.split()
    try:
        if len(parts) != 2:
            raise ValueError
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListError(last_no, f"expected header 'n m', got {text!r}") from None
    if n < 0 or m < 0:
        raise EdgeListError(last_no, "n and m must be non-negative")
    if n > MAX_N:
        raise EdgeListError(last_no, f"n={n} exceeds the limit of {MAX_N} vertices")
    if m > MAX_N:
        raise EdgeListError(last_no, f"m={m} exceeds the limit of {MAX_N} edges")

    u = array("i")
    v = array("i")
    w = array("d")
    tokens: dict[str, int] | None = {} if n <= TOKEN_CACHE_MAX_N else None
    no = last_no
    while chunk := list(islice(stream, CHUNK_LINES)):
        if _take_bulk(chunk, n, m, u, v, w, tokens):
            last_no = no + len(chunk)
        else:
            last_no = _take_lines(chunk, no, last_no, n, m, u, v, w)
        no += len(chunk)
    if len(w) != m:
        raise EdgeListError(last_no, f"expected {m} edges, found only {len(w)}")
    # Both chunk parsers checked every endpoint and weight already.
    return GraphSpec._from_checked_columns(n, u, v, w)


def load_edge_list(path: str) -> GraphSpec:
    with open(path, "r", encoding="utf-8") as stream:
        return read_edge_list(stream)


def write_edge_list(g: GraphSpec, stream: IO[str]) -> None:
    """Write a GraphSpec in the edge-list format; weights round-trip exactly."""
    stream.write(f"{g.n} {g.m}\n")
    for a, b, x in zip(g.u, g.v, g.w):
        stream.write(f"{a} {b} {x!r}\n")
