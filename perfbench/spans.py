"""The benchmark's own span recorder (independent of ``repro.obs``).

Spans live in memory while the run measures and are written out once,
when the run ends.  Each span has a name, a start, an end, its parent
span and the id of the operation (request) that caused it.  A layer's
*self time* is its span's duration minus the part of that interval its
child spans cover; :func:`self_times` sums it per span name.

The recorder is only ever created by traced runs (``--trace 1``);
untraced runs never construct one, so they record no spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request")

    def __init__(
        self, sid: int, name: str, start: float, parent: int | None,
        request: int | None,
    ) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request


class Recorder:
    """Collects spans for one process; single-threaded use per stack.

    ``enabled`` gates recording: a disabled recorder's :meth:`span`
    costs one attribute test, which is how traced runs interleave
    untraced rotations to measure the recorder's own overhead.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = True
        self.request: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span | None]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(
            len(self.spans), name, time.perf_counter(), parent, self.request
        )
        self.spans.append(record)
        self._stack.append(record.sid)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(
        self, name: str, start: float, end: float, request: int | None
    ) -> None:
        """Record a finished span measured elsewhere (a root span)."""
        if not self.enabled:
            return
        record = Span(len(self.spans), name, start, None, request)
        record.end = end
        self.spans.append(record)

    def write(self, path: Path) -> None:
        """Dump every span as JSON lines (called once, at exit)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "request": s.request,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name, in seconds.

    Children of one span never overlap each other (the recorder is a
    stack), so a span's covered part is the sum of its children's
    durations.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += (s.end - s.start) - child_time[s.sid]
    return dict(totals)
