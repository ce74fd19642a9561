"""Span tracing from outside the package: wrap functions where callers look them up.

The benchmark never edits `capdisc`.  Instead it replaces a module attribute,
such as `capdisc.covering.confidence_radius`, with a wrapper that records one
span per call.  Python resolves a module-level name at call time, so every
caller inside that module (including a function recursing through its own
global, like `cover_cap_recurse`) goes through the wrapper.

A span is a list `[name, parent, op, start, end, attrs]`: `parent` is the
index of the enclosing span (-1 at top level), `op` the workload operation
that was running, and `attrs` an optional dict.  Spans stay in memory until
the pass ends.
"""
from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

NAME, PARENT, OP, START, END, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, self.op, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        """Route `module.attr` through a span named `name`.

        `attrs(args, kwargs, result)` may return a dict stored on the span.
        A call that raises stores the exception's class name as `error`.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span)
                span[ATTRS] = {"error": type(exc).__name__}
                raise
            self._close(span)
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        self._undo.append((module, attr, fn))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def write_jsonl(self, path) -> None:
        keys = ("name", "parent", "op", "start", "end", "attrs")
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                rec = dict(zip(keys, span))
                rec["id"] = i
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children run inside their parent and one at a time, so what remains is
    the time the parent spent in its own code.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def subtree(spans: list[list], root: int) -> list[int]:
    """Indices of `root` and every span below it (spans are in start order)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][PARENT] in inside:
            inside.add(i)
    return sorted(inside)


def totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration and summed self time."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, selfs):
        t = out[span[NAME]]
        t["calls"] += 1
        t["s"] += span[END] - span[START]
        t["self_s"] += own
    return dict(out)
