"""In-memory span recorder for the traced benchmark run.

Spans are recorded only in the benchmark's own code, around each call into
the program, and written out once when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator


@dataclass
class Span:
    run_id: str
    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int = 0

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1].span_id if self._open else None
        s = Span(self.run_id, len(self.spans), parent, name, time.perf_counter_ns())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            self._open.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus the time its child spans cover."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent_id is not None:
                child_s[s.parent_id] += s.duration_s
        out: dict[str, list[float]] = {}
        for s in self.spans:
            out.setdefault(s.name, []).append(s.duration_s - child_s[s.span_id])
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")
