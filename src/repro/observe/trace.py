"""Lightweight nested tracing spans.

One process-local :class:`Trace` is active at a time (observability is a
per-run concern, not a concurrency primitive); :func:`span` opens a span
on it as a context manager::

    from repro import observe

    observe.enable()
    with observe.span("search", pattern="house"):
        ...
    trace = observe.disable()
    trace.write_json("run_trace.json")
    trace.write_chrome("run_trace.chrome.json")   # chrome://tracing

Design constraints, in priority order:

* **Near-zero overhead when disabled.**  ``span()`` is one module-global
  check plus returning a shared no-op context manager; no objects are
  allocated, nothing is recorded.  ``scripts/observe_overhead.py`` gates
  this (< 2 % on the fig16 smoke run).
* **Pool workers report through the result channel.**  A chunk task
  carries the parent's enabled flag; the worker records its spans into
  its own per-chunk trace (:func:`begin_worker_trace` /
  :func:`take_worker_spans`) with *relative* timestamps, and returns
  them alongside the chunk's accumulators; the parent grafts them into
  the live trace with :func:`graft_worker_spans`.  Worker clocks are not comparable to the
  parent's, so grafted spans keep exact durations but are re-based so the
  subtree ends at collection time — faithful for duration accounting
  (the quantity the chunk-coverage check sums), approximate for absolute
  placement.
* **Zero dependencies.**  Stdlib only; exports are plain dicts/JSON.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

__all__ = [
    "Span",
    "Trace",
    "span",
    "enable",
    "disable",
    "enabled",
    "current_trace",
    "begin_worker_trace",
    "take_worker_spans",
    "graft_worker_spans",
]

_ENABLED = False
_TRACE: "Trace | None" = None


def enabled() -> bool:
    """True when tracing is on (module-level flag, process-local)."""
    return _ENABLED


def enable(name: str = "run") -> "Trace":
    """Turn tracing on with a fresh trace; returns the live trace."""
    global _ENABLED, _TRACE
    _TRACE = Trace(name)
    _ENABLED = True
    return _TRACE


def disable() -> "Trace | None":
    """Turn tracing off; returns the finished trace (if any)."""
    global _ENABLED, _TRACE
    trace, _TRACE = _TRACE, None
    _ENABLED = False
    if trace is not None:
        trace.close()
    return trace


def current_trace() -> "Trace | None":
    return _TRACE


class Span:
    """One timed region.  ``start``/``end`` are seconds relative to the
    owning trace's origin (monotonic clock)."""

    __slots__ = ("sid", "name", "start", "end", "parent", "attrs")

    def __init__(self, sid: int, name: str, start: float,
                 parent: int | None, attrs: dict[str, Any] | None) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        record = {
            "sid": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        out = cls(int(record["sid"]), str(record["name"]),
                  float(record["start"]), record.get("parent"),
                  dict(record.get("attrs", {})))
        out.end = float(record["end"])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
                f"sid={self.sid}, parent={self.parent})")


class _SpanHandle:
    """Context manager binding one open span to its trace."""

    __slots__ = ("_trace", "_span")

    def __init__(self, trace: "Trace", span_: Span) -> None:
        self._trace = trace
        self._span = span_

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the open span."""
        self._span.attrs.update(attrs)

    @property
    def duration(self) -> float:
        """The span's measured window (valid once the span has closed).

        Callers that both trace a region and measure it should read the
        elapsed time from here instead of a second ``perf_counter()``
        pair: one clock means the trace and the measurement can never
        disagree (a GC pause or a deschedule landing between two
        separate clock reads would otherwise skew one but not the
        other).
        """
        return self._span.duration

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self._trace.finish(self._span)


class _NoopSpan:
    """Shared do-nothing stand-in returned while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    @property
    def duration(self) -> None:
        """None (no measurement): callers fall back to their own clock."""
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs: Any):
    """Open a span on the live trace; a shared no-op when disabled."""
    if not _ENABLED or _TRACE is None:
        return NOOP_SPAN
    return _SpanHandle(_TRACE, _TRACE.begin(name, attrs))


class Trace:
    """An append-only list of spans with a stack of open ones."""

    def __init__(self, name: str = "run") -> None:
        self.name = name
        self.pid = os.getpid()
        self.origin = time.perf_counter()
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, attrs: dict[str, Any] | None = None) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        entry = Span(len(self.spans), name,
                     time.perf_counter() - self.origin, parent, attrs)
        self.spans.append(entry)
        self._stack.append(entry)
        return entry

    def finish(self, entry: Span) -> None:
        entry.end = time.perf_counter() - self.origin
        # Close any younger spans left open by an exception unwind.
        while self._stack:
            top = self._stack.pop()
            if top is entry:
                break
            top.end = entry.end

    def close(self) -> None:
        """Close every span still open (end of the run)."""
        now = time.perf_counter() - self.origin
        while self._stack:
            self._stack.pop().end = now

    def adopt(self, records: list[dict], base: float | None = None,
              extra_attrs: dict[str, Any] | None = None) -> None:
        """Graft foreign (worker-exported) span records into this trace.

        ``records`` use their own 0-based clock; they are shifted by
        ``base`` (default: so the subtree ends now) and re-parented under
        the innermost open span.
        """
        if not records:
            return
        if base is None:
            tail = max(float(r["end"]) for r in records)
            base = (time.perf_counter() - self.origin) - tail
        parent = self._stack[-1].sid if self._stack else None
        mapping: dict[int, int] = {}
        for record in records:
            sid = len(self.spans)
            mapping[int(record["sid"])] = sid
            attrs = dict(record.get("attrs", {}))
            if extra_attrs:
                attrs.update(extra_attrs)
            entry = Span(sid, str(record["name"]),
                         float(record["start"]) + base,
                         mapping.get(record.get("parent"), parent),
                         attrs)
            entry.end = float(record["end"]) + base
            self.spans.append(entry)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find(self, name: str) -> list[Span]:
        return [entry for entry in self.spans if entry.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(entry.duration for entry in self.spans
                   if entry.name == name)

    def children(self, entry: Span) -> list[Span]:
        return [child for child in self.spans if child.parent == entry.sid]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pid": self.pid,
            "spans": [entry.to_dict() for entry in self.spans],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "Trace":
        trace = cls(str(payload.get("name", "run")))
        trace.pid = int(payload.get("pid", 0))
        trace.spans = [Span.from_dict(r) for r in payload.get("spans", [])]
        return trace

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))

    def to_chrome(self) -> list[dict]:
        """Chrome ``trace_event`` complete ("X") events, in microseconds.

        Load the file via ``chrome://tracing`` or https://ui.perfetto.dev.
        """
        events = []
        for entry in self.spans:
            event = {
                "name": entry.name,
                "ph": "X",
                "ts": entry.start * 1e6,
                "dur": max(entry.duration, 0.0) * 1e6,
                "pid": self.pid,
                "tid": int(entry.attrs.get("worker_pid", self.pid)),
            }
            if entry.attrs:
                event["args"] = {k: v for k, v in entry.attrs.items()}
            events.append(event)
        return events

    def write_json(self, path, indent: int = 2) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent=indent))

    def write_chrome(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self.to_chrome(),
                       "displayTimeUnit": "ms"}, fh)


# ----------------------------------------------------------------------
# Pool worker support
# ----------------------------------------------------------------------
#
# A pool worker outlives the parent's tracing state at fork time, so
# each chunk task carries the parent's flag.  Recording into an
# inherited copy of the parent trace would be invisible to the parent:
# workers swap in a fresh trace per chunk and ship its spans back
# through the chunk result tuple.

def begin_worker_trace(name: str = "worker",
                       enabled: bool | None = None) -> "Trace | None":
    """Start a fresh trace in a worker process (None when disabled).

    ``enabled`` is the submitting parent's tracing flag, which a chunk
    task carries; None keeps this process's own flag."""
    global _ENABLED, _TRACE
    _ENABLED = _ENABLED if enabled is None else enabled
    _TRACE = Trace(name) if _ENABLED else None
    return _TRACE


def take_worker_spans(trace: "Trace | None") -> list[dict]:
    """Export and detach a worker trace's spans (empty when disabled)."""
    global _TRACE
    if trace is None:
        return []
    trace.close()
    if _TRACE is trace:
        _TRACE = None
    return [entry.to_dict() for entry in trace.spans]


def graft_worker_spans(records: list[dict]) -> None:
    """Merge spans shipped back from a worker into the live trace."""
    if not records or not _ENABLED or _TRACE is None:
        return
    _TRACE.adopt(records)
