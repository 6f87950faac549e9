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
raises every line-numbered error. The bulk path needs only that every line
holds exactly two spaces and no NUL. It proves that with one call: the
chunk's lines, joined with ``"\\0"`` and encoded, keep only their spaces and
NULs under ``bytes.translate``, and that must equal ``b"  \\0"`` repeated
once per line but the last, then ``b"  "``. The NULs then become spaces, and
a split on ``b" "`` gives three fields per line; no line runs into the next,
whether or not it ends in ``"\\n"``. A field may keep whitespace at its
ends, such as a tab or ``"\\r\\n"``. ``int`` and ``float`` take the bytes
fields as they take ASCII text, so both parsers give the same numbers. On
bytes they strip only ASCII whitespace, which ``str.split`` also splits on,
and accept none inside a number, so a chunk that converts holds what the
line parser reads. Any other chunk fails to convert and goes to the line
parser: one with a NUL inside a line, with ``"\\x1c"``-``"\\x1f"`` (split
on by ``str.split``, never stripped) or with any non-ASCII character (its
UTF-8 bytes are neither digits nor whitespace). On files of the three
perfbench sizes the one-call check and split took 31 / 60 / 27 ms in
place of 47 / 94 / 43 ms for a per-line ``str.count`` and a ``str`` join
and split (uniform / dense / path, 1,024-line chunks, medians of 7,
Python 3.11.7, 2-vCPU Xeon).

A chunk's lines, their joined bytes and its fields are dropped before the
next chunk is read, so the chunk size, not the edge count, sets the
parse's transient memory. At 1,024 lines of ``u v w`` the whole transient
of a 2,000-vertex parse is about 420 kB under tracemalloc, most of it the
token cache below, against about 1.2 MB at 4,096 lines. ``stratmst mst``
peaked 0.8-1.2 MB higher with 4,096-line chunks on the same files,
0.4 MB higher with 2,048, and within 0.3 MB of 1,024 with 256 or 512
lines, which were no faster. The columns are packed arrays: endpoints in
``array('H')`` up to 65,536 vertices and ``array('i')`` above
(``graph._endpoint_typecode``), weights in ``array('d')``. They are filled
as each chunk is taken, so only one chunk's int and float objects exist at
a time, and the graph keeps about 12 bytes per edge (16 above 65,536
vertices). A header's ``n`` or ``m`` above ``graph.MAX_N`` is rejected, so
every endpoint fits an ``array('i')`` slot and every edge id an
``array('I')`` slot.

When the header's ``n`` is at most ``TOKEN_CACHE_MAX_N``, the reader keeps
every endpoint token it has converted, so a vertex spelled the same way
again costs a dict lookup instead of an ``int`` call. The gate reads ``n``
alone and does not follow the chunk size: with more vertices, a chunk is
likelier to hold a token not yet seen, and it then pays for a failed
lookup as well as the ``int`` calls. Loads of uniform random files, cache
on against off, with bytes tokens and 1,024-line chunks (in-process
medians of 9 interleaved runs, Python 3.11.7, 2-vCPU Xeon; a range is two
or three sweeps), put the crossover between n = 12,288 and 16,384, rising
slowly with m:

    n        m = 50k     m = 200k    m = 400k    (load time, on / off)
    1,024    0.81        0.80        0.80
    4,096    0.90        0.86        0.81
    8,192    0.93-0.95   0.85-0.93   0.85-0.87
    10,240   0.97        0.91        0.86-0.89
    12,288   0.96-1.01   0.89-1.14   0.88-0.92
    16,384   1.07        0.99        0.93
    24,000   1.20        1.00        1.00

The gate sits at 10,240, the largest n measured where the cache never
cost in any sweep.
"""

from __future__ import annotations

import math
import struct
from array import array
from itertools import islice
from typing import IO, Iterable, Iterator

from .graph import MAX_N, GraphSpec, _endpoint_typecode

CHUNK_LINES = 1 << 10
TOKEN_CACHE_MAX_N = 10_240


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


# Every byte but the space and the NUL: deleting them leaves a chunk's shape.
_NOT_SHAPE = bytes(b for b in range(256) if b not in b" \0")


def _plain_fields(chunk: list[str]) -> list[bytes] | None:
    """Three fields per line, as bytes, of a chunk whose lines all hold
    exactly two spaces and no NUL, split on ``b" "`` alone; else None."""
    # "surrogatepass": a lone surrogate, which a list of str may hold, gives
    # bytes that fail to convert instead of an encoding error.
    data = "\0".join(chunk).encode("utf-8", "surrogatepass")
    if data.translate(None, _NOT_SHAPE) != b"  \0" * (len(chunk) - 1) + b"  ":
        return None
    return data.replace(b"\0", b" ").split(b" ")


def _endpoints(col: list[bytes], n: int, tokens: dict[bytes, int] | None) -> list[int]:
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
    tokens: dict[bytes, int] | None,
) -> bool:
    """Append a chunk of plain ``u v w`` lines to the columns in bulk.

    Returns False, appending nothing, unless every line's three fields
    convert, endpoints are in range, weights are finite and the edge count
    stays within ``m``. Each column of the chunk is converted to a list of
    ints or floats, then packed onto its array by ``struct.pack``: about
    twice as fast as ``fromlist`` and four times as fast as ``extend`` on a
    1,024-item chunk. The chunk's int and float objects go with the chunk.
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
    u.frombytes(struct.pack(f"{k}{u.typecode}", *cu))
    v.frombytes(struct.pack(f"{k}{v.typecode}", *cv))
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

    typecode = _endpoint_typecode(n)
    u = array(typecode)
    v = array(typecode)
    w = array("d")
    tokens: dict[bytes, int] | None = {} if n <= TOKEN_CACHE_MAX_N else None
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
