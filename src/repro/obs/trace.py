"""Structured tracing: nested spans and instant events, Chrome-viewable.

A :class:`Tracer` collects *complete* spans (``ph: "X"`` in Chrome's
``trace_event`` vocabulary: one record per span, with start timestamp
and duration, both in microseconds) and *instant* events (``ph: "i"``).
Spans are opened with a ``with`` block, so on any one thread they nest
properly by construction -- a property the trace-integrity tests then
verify on the emitted artifact rather than trusting the emitter.

Delivery is a thread-local indirection, not a parameter threaded
through every call::

    with use_tracer(tracer):
        dispatch(...)           # every span inside lands in `tracer`

and instrumented sites write::

    with current_tracer().span("assemble", language=config.language):
        ...

:func:`current_tracer` resolves thread-local first (per-request tracing
in the resident server's worker threads), then the process default
(set once by ``--trace FILE`` front-ends), then the shared
:data:`NULL_TRACER`.  The null tracer's ``span`` returns one preallocated
no-op context manager -- the untraced cost of an instrumented site is a
thread-local read, an attribute load, and two trivial calls, which is
why the call sites can stay in the code permanently (the benchmark gate
in ``benchmarks/bench_gates.py`` holds the no-op path to <=3% on the hot
workload).

Two serialization shapes, chosen by filename:

* ``*.jsonl`` -- one event object per line (stream-friendly);
* anything else -- a Chrome ``{"traceEvents": [...]}`` document, loadable
  in ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Iterator
from contextlib import contextmanager


class _NullSpan:
    """A reusable no-op context manager (the null tracer's span)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The do-nothing tracer behind every un-traced run.

    ``active`` is False so call sites can skip argument construction
    that is itself expensive (none of the shipped sites need to).
    """

    __slots__ = ()

    active = False

    def span(self, name: str, cat: str = "phase", **args: Any) -> _NullSpan:
        """Return the shared no-op context manager."""
        return _NULL_SPAN

    def event(self, name: str, cat: str = "phase", **args: Any) -> None:
        """Discard the event."""


#: The process-wide no-op tracer (singleton; identity-comparable).
NULL_TRACER = NullTracer()


class Tracer:
    """A thread-safe collector of spans and events for one trace file.

    Timestamps are microseconds from the tracer's construction
    (``perf_counter``-based: monotone, sub-microsecond resolution).
    Each thread gets its own lane: a small consecutive integer assigned
    at the thread's first record, so Chrome's track names stay readable.
    Lanes are held in a ``threading.local``, not keyed by
    ``threading.get_ident()``: the OS reuses an exited thread's ident,
    which would fold threads that ran one after another into one lane.
    """

    active = True

    def __init__(self, process_name: str = "repro") -> None:
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._events: list[dict] = []
        self._lanes = threading.local()
        self._next_tid = 0
        self.process_name = process_name
        self.pid = os.getpid()

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def _tid(self) -> int:
        tid = getattr(self._lanes, "tid", None)
        if tid is None:
            with self._lock:
                tid = self._next_tid
                self._next_tid += 1
            self._lanes.tid = tid
        return tid

    @contextmanager
    def span(self, name: str, cat: str = "phase", **args: Any) -> Iterator[None]:
        """Record the ``with`` body as one complete span."""
        start = self._now_us()
        try:
            yield
        finally:
            end = self._now_us()
            record = {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": round(start, 3),
                "dur": round(end - start, 3),
                "pid": self.pid,
                "tid": self._tid(),
            }
            if args:
                record["args"] = args
            with self._lock:
                self._events.append(record)

    def event(self, name: str, cat: str = "phase", **args: Any) -> None:
        """Record one instant event (thread-scoped)."""
        record = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",
            "ts": round(self._now_us(), 3),
            "pid": self.pid,
            "tid": self._tid(),
        }
        if args:
            record["args"] = args
        with self._lock:
            self._events.append(record)

    def events(self) -> list[dict]:
        """A copy of every event recorded so far."""
        with self._lock:
            return [dict(event) for event in self._events]

    def chrome_trace(self) -> dict:
        """The collected events as a Chrome ``trace_event`` document."""
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": self.pid,
                "tid": 0,
                "args": {"name": self.process_name},
            }
        ]
        return {"traceEvents": metadata + self.events()}

    def write(self, path: str) -> None:
        """Serialize to ``path``: JSONL for ``*.jsonl``, Chrome JSON else."""
        if path.endswith(".jsonl"):
            with open(path, "w", encoding="utf-8") as handle:
                for event in self.events():
                    handle.write(json.dumps(event, sort_keys=True) + "\n")
            return
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, sort_keys=True)
            handle.write("\n")


_STATE = threading.local()
_default_tracer: NullTracer | Tracer = NULL_TRACER


def current_tracer() -> Any:
    """The tracer instrumented sites should emit to, cheapest case first.

    Resolution order: this thread's :func:`use_tracer` override, then
    the process default (:func:`set_default_tracer`), then the shared
    no-op :data:`NULL_TRACER`.
    """
    tracer = getattr(_STATE, "tracer", None)
    if tracer is not None:
        return tracer
    return _default_tracer


def set_default_tracer(tracer: Any) -> None:
    """Install the process-wide default tracer (``--trace`` front-ends).

    Pass :data:`NULL_TRACER` to uninstall.  Worker threads with no
    thread-local override inherit this default, which is what makes one
    ``--trace FILE`` flag cover the serve executor's worker threads
    without any per-thread plumbing.
    """
    global _default_tracer
    _default_tracer = tracer


@contextmanager
def use_tracer(tracer: Any) -> Iterator[Any]:
    """Route this thread's spans to ``tracer`` for the ``with`` body."""
    previous = getattr(_STATE, "tracer", None)
    _STATE.tracer = tracer
    try:
        yield tracer
    finally:
        _STATE.tracer = previous
