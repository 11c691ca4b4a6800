"""Spans around the layers' public entry points, recorded from outside.

A :class:`Tracer` replaces a method on its class with a wrapper that records
one span per call — name, start, end, the enclosing span on the same thread
and the job that thread is running — plus a call count.  Spans stay in
memory; :meth:`Tracer.write` dumps them as JSON lines when the run ends and
:meth:`Tracer.close` puts the original methods back.

Only calls made in this process are seen: job-server pool workers execute
in their own processes and run untraced.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from bench_metrics import self_times


@dataclass
class Span:
    """One call into a layer."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    job: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)


class Tracer:
    """Records spans around wrapped methods while :attr:`active` is set."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.active = False
        self._local = threading.local()
        self._originals: List[Tuple[type, str, Callable]] = []

    # -- instrumentation -------------------------------------------------------

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        annotate: Optional[Callable[[Span, tuple, object], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``annotate(span, args, result)`` may copy facts about the call (an
        argument, a field of the result) into ``span.attrs``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span, index = tracer._open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer._close(span, index)
                if annotate is not None:
                    annotate(span, args, result)

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def close(self) -> None:
        """Restore every wrapped method."""
        self.active = False
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Tuple[Span, int]:
        stack = self._stack()
        span = Span(
            name=name,
            start=time.perf_counter(),
            parent=stack[-1] if stack else None,
            job=getattr(self._local, "job", None),
        )
        self.spans.append(span)
        index = len(self.spans) - 1
        stack.append(index)
        self.counts[name] = self.counts.get(name, 0) + 1
        return span, index

    def _close(self, span: Span, index: int) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextlib.contextmanager
    def job(self, job_id: str) -> Iterator[None]:
        """Attribute spans on this thread to ``job_id``, inside a job span."""
        if not self.active:
            yield
            return
        self._local.job = job_id
        span, index = self._open("job")
        try:
            yield
        finally:
            self._close(span, index)
            self._local.job = None

    # -- results ---------------------------------------------------------------

    def self_time_by_name(self, jobs: Optional[set] = None) -> Dict[str, float]:
        """Summed self time per span name, optionally only for ``jobs``."""
        own = self_times([(s.start, s.end, s.parent) for s in self.spans])
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            if jobs is None or span.job in jobs:
                totals[span.name] = totals.get(span.name, 0.0) + seconds
        return totals

    def write(self, path: str, header: Dict[str, object]) -> None:
        """Write a header line, then one JSON line per span."""
        own = self_times([(s.start, s.end, s.parent) for s in self.spans])
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({**header, "counts": self.counts}) + "\n")
            for index, (span, seconds) in enumerate(zip(self.spans, own)):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "self": seconds,
                    "parent": span.parent,
                    "job": span.job,
                }
                if span.attrs:
                    record["attrs"] = span.attrs
                handle.write(json.dumps(record) + "\n")
