"""Plain-text edge list format shared by the CLI and the generators.

The first non-comment line is ``n m``; each of the m following lines is
``u v w`` with 0-based integer endpoints and a decimal weight in plain or
scientific notation. Lines starting with ``#`` are comments and may appear
anywhere; blank lines are ignored.

Edge lines are read in chunks of ``CHUNK_LINES``. A chunk of plain, valid
``u v w`` lines is converted column by column in bulk; any other chunk goes
through the line-by-line parser, which skips comments and blank lines and
raises every line-numbered error. Both use the same ``str.split``, ``int``
and ``float``, so they accept the same inputs.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import IO, Iterable, Iterator

from .graph import GraphSpec

CHUNK_LINES = 1 << 15


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


def _take_bulk(
    chunk: list[str],
    n: int,
    m: int,
    u: list[int],
    v: list[int],
    w: list[float],
    vertices: dict[int, int],
) -> bool:
    """Append a chunk of plain ``u v w`` lines to the columns in bulk.

    Returns False, appending nothing, unless every line has exactly three
    fields that convert, endpoints are in range, weights are finite and the
    edge count stays within ``m``. Endpoints are stored as the one int
    object per vertex kept in ``vertices``: the columns then cost less
    memory, and the accept scan's random reads of ``u[i]`` and ``v[i]`` land
    on n objects instead of 2m.
    """
    if len(w) + len(chunk) > m or set(map(len, map(str.split, chunk))) != {3}:
        return False
    fields = "".join(chunk).split()
    try:
        cu = list(map(int, fields[0::3]))
        cv = list(map(int, fields[1::3]))
        cw = list(map(float, fields[2::3]))
    except ValueError:
        return False
    if not (
        0 <= min(cu) and max(cu) < n and 0 <= min(cv) and max(cv) < n
        and all(map(math.isfinite, cw))
    ):
        return False
    u += map(vertices.setdefault, cu, cu)
    v += map(vertices.setdefault, cv, cv)
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


def read_edge_list(stream: IO[str]) -> GraphSpec:
    """Parse an edge-list stream into a GraphSpec."""
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
    no = last_no
    while chunk := list(islice(stream, CHUNK_LINES)):
        if _take_bulk(chunk, n, m, u, v, w, vertices):
            last_no = no + len(chunk)
        else:
            last_no = _take_lines(chunk, no, last_no, n, m, u, v, w)
        no += len(chunk)
    if len(w) != m:
        raise EdgeListError(last_no, f"expected {m} edges, found only {len(w)}")
    return GraphSpec.from_columns(n, u, v, w)


def load_edge_list(path: str) -> GraphSpec:
    with open(path, "r", encoding="utf-8") as stream:
        return read_edge_list(stream)


def write_edge_list(g: GraphSpec, stream: IO[str]) -> None:
    """Write a GraphSpec in the edge-list format; weights round-trip exactly."""
    stream.write(f"{g.n} {g.m}\n")
    for a, b, x in zip(g.u, g.v, g.w):
        stream.write(f"{a} {b} {x!r}\n")
