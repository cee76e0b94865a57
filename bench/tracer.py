"""Span tracing from outside the library, for the per-layer breakdown.

The library has no timing hooks of its own, so a traced run replaces chosen
class-level methods with wrappers that record one span per call: name,
start, end, parent span and the benchmark's current batch id.  Classes are
patched (not instances), so engines built after :meth:`Tracer.install`
dispatch through the wrappers; a caller that bound a method before the patch
bypasses it, which the span-count check of the traced run catches.

A layer's *self time* is its span's duration minus the part of that interval
its child spans cover (:func:`self_times`).  Spans opened on a worker thread
with no open span of its own (the fabric's per-switch sessions) take the
main thread's innermost open span as parent.  Forked worker processes
inherit the patched classes; the wrappers pass straight through there.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence

#: ``count(args, result)`` extracts a per-span work count (values resolved,
#: keys probed, ...) from the wrapped call's arguments or its return value.
WorkCount = Callable[[tuple, object], Optional[int]]


class Target(NamedTuple):
    """One method to wrap: ``owner.<attr>``, recorded under ``name``."""

    owner: type
    attr: str
    name: str
    count: Optional[WorkCount] = None


class SpanGroup(NamedTuple):
    """The wrapped methods of one layer boundary.

    A ``required`` group must record at least one span in a traced round;
    an optional one covers a path the deployment may legitimately skip.
    """

    name: str
    targets: Sequence[Target]
    required: bool = True


class Span(NamedTuple):
    id: int
    name: str
    start: int
    end: int
    parent: Optional[int]
    batch: Optional[int]
    count: Optional[int]


class Tracer:
    """In-memory span recorder with class-level method patching."""

    def __init__(self) -> None:
        self.batch: Optional[int] = None
        self._records: List[list] = []
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._main_stack: List[int] = []
        self._local = threading.local()
        self._pid = os.getpid()
        self._patched: List[tuple] = []

    # -- recording ------------------------------------------------------------
    def _stack(self) -> List[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        record = [next(self._ids), name, time.perf_counter_ns(), 0, parent, self.batch, None]
        self._records.append(record)
        stack.append(record[0])
        return record

    def _exit(self, record: list, count: Optional[int] = None) -> None:
        record[3] = time.perf_counter_ns()
        record[6] = count
        self._stack().pop()

    def iterate(self, name: str, iterable: Iterable, count: Optional[WorkCount] = None) -> Iterator:
        """Yield from ``iterable``, recording one span per item produced."""
        iterator = iter(iterable)
        while True:
            record = self._enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                self._exit(record, 0)
                return
            self._exit(record, count((), item) if count else None)
            yield item

    def spans(self) -> List[Span]:
        """Every finished span, in start order."""
        return [Span(*record) for record in self._records if record[3]]

    # -- patching -------------------------------------------------------------
    def install(self, groups: Iterable[SpanGroup]) -> None:
        for group in groups:
            for target in group.targets:
                self._wrap(target)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, target: Target) -> None:
        original = target.owner.__dict__[target.attr]
        tracer = self
        name = target.name
        count = target.count

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            record = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._exit(record)
                raise
            tracer._exit(record, count(args, result) if count else None)
            return result

        setattr(target.owner, target.attr, traced)
        self._patched.append((target.owner, target.attr, original))

    def write(self, path: os.PathLike) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans():
                stream.write(json.dumps(span._asdict()) + "\n")


def _covered(start: int, end: int, intervals: List[tuple]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    cursor = start
    for low, high in sorted(intervals):
        low = max(low, cursor)
        high = min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id -> duration minus the time its direct children cover (ns)."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.end - span.start
        - _covered(span.start, span.end, children.get(span.id, []))
        for span in spans
    }
