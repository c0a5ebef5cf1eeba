"""Outside-in span recording for the traced benchmark run.

The program is not instrumented for this: :class:`SpanRecorder` replaces
public functions and methods *at their lookup site* (the module attribute
or class attribute a caller resolves at call time) with thin wrappers that
record one span per call, and :meth:`SpanRecorder.restore` puts the
originals back.  Spans stay in memory; :meth:`SpanRecorder.summary` turns
them into per-name call counts, total seconds and self seconds (duration
minus the part of the interval covered by child spans).

Parenthood follows a :class:`contextvars.ContextVar`, so it is correct for
plain calls and for coroutines alike (each asyncio task sees the span that
was open when it was created).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

_CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    """One recorded call: name, wall interval, causing span and run id."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanRecorder:
    """Records spans around patched callables.

    ``patch(owner, attr, name)`` wraps ``owner.attr`` (a module or class).
    ``name`` is the span name, or a callable receiving the call's
    arguments and returning the name (used to label which overlay a batch
    call served).  ``on_result(tracer, args, kwargs, result)`` hooks let
    the caller count things about return values (e.g. ``settle`` timeouts)
    without touching the program.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._open: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}

    # -- recording ------------------------------------------------------

    def _begin(self, name: str):
        parent = _CURRENT.get()
        span_id = len(self.spans)
        self.spans.append(
            Span(span_id, name, time.perf_counter(), 0.0, parent, self.run_id)
        )
        self._open[name] = self._open.get(name, 0) + 1
        return span_id, _CURRENT.set(span_id)

    def _end(self, span_id: int, token) -> None:
        self.spans[span_id].end = time.perf_counter()
        _CURRENT.reset(token)
        name = self.spans[span_id].name
        self._open[name] -= 1

    def is_open(self, name: str) -> bool:
        """Whether a span named ``name`` is currently open."""
        return self._open.get(name, 0) > 0

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a named tally kept beside the spans."""
        self.counts[name] = self.counts.get(name, 0) + n

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, name,
              on_result: Optional[Callable] = None,
              skip_inside: Optional[str] = None) -> None:
        """Wrap ``owner.attr`` with a span recorder.

        ``skip_inside``: record nothing while a span of that name is open
        (e.g. joins issued by the initial build, so only rejoins count).
        """
        original = vars(owner).get(attr)
        # A plain function on a class is what instances resolve, so
        # wrapping it covers every caller; on a module it is what callers
        # that look the name up at call time get.
        func = getattr(owner, attr)
        naming = name if callable(name) else (lambda *a, **k: name)
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                if skip_inside and tracer.is_open(skip_inside):
                    return await func(*args, **kwargs)
                span_name = naming(*args, **kwargs)
                span_id, token = tracer._begin(span_name)
                try:
                    result = await func(*args, **kwargs)
                finally:
                    tracer._end(span_id, token)
                if on_result is not None:
                    on_result(tracer, args, kwargs, result)
                return result
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if skip_inside and tracer.is_open(skip_inside):
                    return func(*args, **kwargs)
                span_name = naming(*args, **kwargs)
                span_id, token = tracer._begin(span_name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._end(span_id, token)
                if on_result is not None:
                    on_result(tracer, args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)  # was inherited; uncover it again
            else:
                setattr(owner, attr, original)

    # -- readback -------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``name -> {calls, total_s, self_s}`` over all recorded spans."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end)
                )
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            covered = _union_length(children.get(span.id, []))
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.duration - covered
        return out

    def root_coverage(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by top-level spans."""
        roots = [
            (max(s.start, start), min(s.end, end))
            for s in self.spans
            if s.parent is None and s.end > start and s.start < end
        ]
        return _union_length(roots)
