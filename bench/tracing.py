"""Spans recorded around the benchmark's calls into each btzeta layer.

A span is ``[name, start, end, parent, item]``: ``parent`` is the index of
the enclosing span (or None) and ``item`` the id of the workload item the
call served.  Spans stay in memory and are written out once, at the end of
a run.  Names are ``<layer>.<operation>`` with an optional ``[detail]``
suffix that tells apart repeated calls of one operation within an item.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item: str | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.item]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


class NullTracer:
    """Stand-in that records nothing, for untraced runs."""

    def span(self, name: str):
        return nullcontext()


def layer_metric(span_name: str) -> str:
    """Metric a span counts towards: its name without the detail suffix."""
    return span_name.split("[", 1)[0] + "_s"
