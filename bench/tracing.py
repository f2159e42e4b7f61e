"""Spans and counters recorded from the benchmark's own files, around calls into sturmlex.

A span is (name, start, end, parent, task id); its module is the first dotted
part of its name.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """The tracer of untraced runs: records nothing."""

    task = None

    def span(self, name: str):
        return _NULL

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer:
    """Records spans and counts in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, task id]
        self.counts: dict[str, int] = {}
        self.task: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.task]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open.pop()
            rec[2] = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + end - start
        return out

    def self_time_by_module(self) -> dict[str, float]:
        """Per module: span time minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (end - start) - child[i]
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "task": t}
            for n, s, e, p, t in self.spans
        ]
