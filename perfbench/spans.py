"""In-memory span recorder that times nemclock's layers from outside the package.

The tracer replaces chosen functions and methods with wrappers that record a
span (name, start, end, parent, counts) around each call.  A function that
another module imported by name (``from .quadrature import integrate``) is
rebound in every loaded ``nemclock`` module, so calls through either name are
seen.  Spans stay in memory until :meth:`Tracer.dump` writes them out.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the main thread as its parent: the package only starts
thread pools from the main thread, inside the call that waits for them.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import threading
import time


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "counts")

    def __init__(self, id, name, start, parent):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.counts = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None
        )
        with self._lock:
            span = Span(len(self.spans), name, 0.0, parent.id if parent else None)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, *, counts=None, wrap_args=None):
        """Wrapper of ``fn`` that records one span per call.

        ``counts(args, result)`` returns the work counters stored on the span;
        ``wrap_args(args)`` may substitute arguments, such as a traced
        integrand, before the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if wrap_args is not None:
                args = wrap_args(args)
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Trace ``owner.attr``: a method when ``owner`` is a class, else a
        module function rebound wherever a nemclock module holds it."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(self.wrap(original.__func__, name, **hooks)))
            return
        wrapper = self.wrap(original, name, **hooks)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            return
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("nemclock"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "counts": s.counts,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children on other threads may overlap one another, so the covered part is
    the length of the union of the child intervals clipped to the parent.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out
