"""In-memory span tracer that times the program's layers from outside.

The suite never edits ``src/``: :meth:`Tracer.wrap` replaces a public
callable *in place* (a module attribute or a class attribute) with a
wrapper that records one span per call, and :meth:`Tracer.restore` puts
every original back.  Only names looked up at call time are seen, so
the suite wraps the attribute the caller actually resolves (for example
``repro.serve.server.normalize``, the name the server module bound).

A span is ``(id, parent, name, start, end, size)``.  The parent comes
from a :class:`contextvars.ContextVar`, which asyncio tasks and
``asyncio.to_thread`` calls copy, so a cache read the server pushes to
a helper thread still nests under the request that caused it.  Spans
stay in memory and are written once, at the end, by :meth:`write`.

Self time is a span's duration minus the union of the intervals its
children cover (children can overlap when they run on other tasks or
threads).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import threading
import time

_CURRENT = contextvars.ContextVar("suite_trace_span", default=0)


class Tracer:
    """Collects spans from wrapped callables until :meth:`restore`."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patched: list = []

    @contextlib.contextmanager
    def span(self, name: str, size=None):
        """Record one span around the body; ``size`` is an optional count
        (bytes moved, items processed) stored with it."""
        with self._lock:
            span_id = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append((span_id, parent, name, start, end, size))

    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``size(*args, **kwargs)``, when given, is evaluated on the call's
        arguments and stored in the span.  Coroutine functions get an
        ``async`` wrapper so the span covers the awaited work.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                amount = size(*args, **kwargs) if size else None
                with tracer.span(name, amount):
                    return await original(*args, **kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                amount = size(*args, **kwargs) if size else None
                with tracer.span(name, amount):
                    return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped callable back (last wrapped, first restored)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as JSON (times in seconds from the first)."""
        origin = min((s[3] for s in self.spans), default=0.0)
        rows = [{"id": i, "parent": p, "name": n, "start": s - origin,
                 "end": e - origin, "size": z}
                for i, p, n, s, e, z in sorted(self.spans, key=lambda s: s[3])]
        with open(path, "w") as handle:
            json.dump({"spans": rows}, handle)
            handle.write("\n")


def _covered(intervals: list) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list) -> dict:
    """``{span id: self seconds}`` for rows ``(id, parent, name, start,
    end, ...)``; children are clipped to their parent's interval."""
    by_id = {row[0]: row for row in spans}
    children: dict = {}
    for row in spans:
        parent = by_id.get(row[1])
        if parent is not None:
            children.setdefault(row[1], []).append(
                (max(row[3], parent[3]), min(row[4], parent[4])))
    # max(0, ...): the union's pieces can sum past the parent by rounding
    return {row[0]: max(0.0, (row[4] - row[3]) - _covered(
                [c for c in children.get(row[0], []) if c[1] > c[0]]))
            for row in spans}


def summarize(spans: list) -> dict:
    """Per span name: count, total and self seconds, p50 of each call's
    duration and of its self time, and the summed ``size``."""
    own = self_times(spans)
    groups: dict = {}
    for row in spans:
        groups.setdefault(row[2], []).append(row)
    table = {}
    for name, rows in sorted(groups.items()):
        durations = sorted(r[4] - r[3] for r in rows)
        selfs = sorted(own[r[0]] for r in rows)
        table[name] = {
            "count": len(rows),
            "total_s": sum(durations),
            "self_s": sum(selfs),
            "p50_s": durations[len(durations) // 2],
            "self_p50_s": selfs[len(selfs) // 2],
            "size": sum(r[5] or 0 for r in rows),
        }
    return table


def load(path) -> list:
    """Span rows from a file :meth:`Tracer.write` produced."""
    with open(path) as handle:
        raw = json.load(handle)
    return [(r["id"], r["parent"], r["name"], r["start"], r["end"],
             r["size"]) for r in raw["spans"]]
