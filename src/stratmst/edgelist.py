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
so they accept the same inputs. The bulk path proves a chunk plain without
splitting each line: every line holds exactly two spaces, the chunk holds
no other whitespace but line ends, and it splits into three fields per line.
A chunk's lines, their joined text and its fields are dropped before the
next chunk is read, so the chunk size, not the edge count, sets the parse's
transient memory: about 1 MB at 4,096 lines of ``u v w`` (tracemalloc).
Larger chunks only raise the peak; the parse is no faster with them.

Each vertex is stored as one int object, shared by every edge that names
it. When the header's ``n`` is at most ``TOKEN_CACHE_MAX_N``, the reader
also keeps every endpoint token it has converted, so a vertex spelled the
same way again costs a dict lookup instead of an ``int`` call. The gate
reads ``n`` alone and does not follow the chunk size: with more vertices
than that, most tokens are new, and the cache would only cost.
"""

from __future__ import annotations

import math
from itertools import islice, repeat
from typing import IO, Iterable, Iterator

from .graph import GraphSpec

CHUNK_LINES = 1 << 12
TOKEN_CACHE_MAX_N = 1 << 15
# ASCII whitespace that ``str.split`` splits on, other than " " and "\n".
_OTHER_SPACE = "\t\x0b\x0c\r\x1c\x1d\x1e\x1f"


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
    """The fields of a chunk in which every line is exactly ``a b c``, else None.

    Two spaces per line and nothing else that splits give each line at most
    three fields; three per line in total then means exactly three on each
    line, with no line glued to the next.
    """
    if set(map(str.count, chunk, repeat(" "))) != {2}:
        return None
    text = "".join(chunk)
    if not text.isascii() or any(map(text.__contains__, _OTHER_SPACE)):
        return None
    fields = text.split()
    return fields if len(fields) == 3 * len(chunk) else None


def _endpoints(
    col: list[str], n: int, vertices: dict[int, int], tokens: dict[str, int] | None
) -> list[int]:
    """The interned vertex of each token; ValueError if one is not a vertex."""
    if tokens is not None:
        try:
            return list(map(tokens.__getitem__, col))
        except KeyError:
            pass
    ints = list(map(int, col))
    if not (0 <= min(ints) and max(ints) < n):
        raise ValueError
    ints = list(map(vertices.setdefault, ints, ints))
    if tokens is not None:
        tokens.update(zip(col, ints))
    return ints


def _take_bulk(
    chunk: list[str],
    n: int,
    m: int,
    u: list[int],
    v: list[int],
    w: list[float],
    vertices: dict[int, int],
    tokens: dict[str, int] | None,
) -> bool:
    """Append a chunk of plain ``u v w`` lines to the columns in bulk.

    Returns False, appending nothing, unless every line has exactly three
    fields that convert, endpoints are in range, weights are finite and the
    edge count stays within ``m``. Endpoints are stored as the one int
    object per vertex kept in ``vertices``: the columns then cost less
    memory, and the accept scan's random reads of ``u[i]`` and ``v[i]`` land
    on n objects instead of 2m. ``tokens``, when given, maps each endpoint
    token already converted to that object; it only ever holds in-range
    vertices.
    """
    if len(w) + len(chunk) > m or (fields := _plain_fields(chunk)) is None:
        return False
    try:
        cu = _endpoints(fields[0::3], n, vertices, tokens)
        cv = _endpoints(fields[1::3], n, vertices, tokens)
        cw = list(map(float, fields[2::3]))
    except ValueError:
        return False
    if not all(map(math.isfinite, cw)):
        return False
    u += cu
    v += cv
    w += cw
    return True


def _take_lines(
    chunk: list[str],
    offset: int,
    last_no: int,
    n: int,
    m: int,
    u: list[int],
    v: list[int],
    w: list[float],
    vertices: dict[int, int],
) -> int:
    """Parse a chunk line by line; returns the number of its last content line.

    ``offset`` is the number of lines before the chunk; ``last_no`` is
    returned unchanged when the chunk holds no content line. Endpoints are
    interned in ``vertices``, as in the bulk path.
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
        u.append(vertices.setdefault(a, a))
        v.append(vertices.setdefault(b, b))
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

    u: list[int] = []
    v: list[int] = []
    w: list[float] = []
    vertices: dict[int, int] = {}
    tokens: dict[str, int] | None = {} if n <= TOKEN_CACHE_MAX_N else None
    no = last_no
    while chunk := list(islice(stream, CHUNK_LINES)):
        if _take_bulk(chunk, n, m, u, v, w, vertices, tokens):
            last_no = no + len(chunk)
        else:
            last_no = _take_lines(chunk, no, last_no, n, m, u, v, w, vertices)
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
