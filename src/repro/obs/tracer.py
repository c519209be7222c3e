"""Zero-dependency span tracing for the serving stack.

A :class:`Tracer` produces nested :class:`Span` records — monotonic start
time, duration, span-id/parent-id, structured attributes — collected in a
thread-safe in-memory buffer and exportable as CRC-framed JSONL.
Nesting is tracked per thread: spans opened on the same thread parent
implicitly to the innermost open span; work that hops threads (the
microbatcher hands tickets from the caller thread to batch workers)
passes the parent id explicitly instead.

Traces can span processes.  A shard worker runs its own tracer seeded
with a disjoint ``id_start`` range, parents its spans to parent-process
span ids carried in the request messages, and periodically
:meth:`~Tracer.drain`\\ s its buffers back over the result pipe; the
parent :meth:`~Tracer.absorb`\\ s them (with a clock-offset correction,
since ``time.monotonic`` is per-process) into one coherent tree.

Tracing is **off by default**.  The process-global tracer returned by
:func:`get_tracer` starts as the disabled :data:`NULL_TRACER`, whose
``span()`` returns a shared no-op context manager — instrumented hot
paths pay one attribute check and an empty ``with`` block, nothing else.
Install a live tracer with :func:`set_tracer` or the scoped
:func:`use_tracer`:

    tracer = Tracer()
    with use_tracer(tracer):
        service.submit_many(workload)
    tracer.export_jsonl("trace.jsonl")
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic as _monotonic

__all__ = [
    "Span",
    "Tracer",
    "NULL_TRACER",
    "TRACE_EVENT_KIND",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "worker_id_start",
]

#: Event-journal kind tag for framed trace files (``repro fsck``).
TRACE_EVENT_KIND = "trace"


def worker_id_start(shard_id: int, generation: int) -> int:
    """First span id for a shard worker's tracer.

    Each (shard, spawn-generation) pair gets a disjoint 2^28-id block
    well above any realistic parent-process allocation, so worker spans
    can reference parent span ids directly and absorbed traces never
    collide — including across respawns of the same shard.
    """
    return ((shard_id + 1) << 44) | (generation << 28)

#: Sentinel distinguishing "no parent given: use the thread's innermost
#: open span" from an explicit ``parent=None`` (force a root span).
_IMPLICIT = object()


@dataclass
class Span:
    """One finished span: a named, timed slice of work.

    ``start_s`` is on the :func:`time.monotonic` clock — comparable to
    other spans of the same process/trace, not to wall time.
    """

    name: str
    span_id: int
    parent_id: int | None
    start_s: float
    duration_s: float
    attributes: dict = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def to_dict(self) -> dict:
        """JSON-serializable form (the trace-file line format)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attributes": self.attributes,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Span":
        return cls(
            name=str(obj["name"]),
            span_id=int(obj["span_id"]),
            parent_id=(
                None if obj.get("parent_id") is None else int(obj["parent_id"])
            ),
            start_s=float(obj["start_s"]),
            duration_s=float(obj["duration_s"]),
            attributes=dict(obj.get("attributes") or {}),
        )


class _NullSpan:
    """Shared no-op span handed out by disabled tracers."""

    __slots__ = ()
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attributes) -> None:
        """Discard attributes (tracing is off)."""


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """An open span: context manager that finalizes into a :class:`Span`.

    Finished spans are buffered as plain tuples (``Span`` objects are
    materialized lazily by :meth:`Tracer.spans`), and the per-thread
    (stack, buffer) pair is fetched once per span — both measurable wins
    on the serving hot path, where a request's work is a few hundred
    microseconds and each span used to cost ~5us.
    """

    __slots__ = ("_tracer", "_parent", "_stack", "_buffer", "name",
                 "span_id", "parent_id", "start_s", "attributes")

    def __init__(self, tracer, name, parent, start_s, attributes):
        self._tracer = tracer
        self._parent = parent
        self.name = name
        self.span_id: int | None = None
        self.parent_id: int | None = None
        self.start_s = start_s
        self.attributes = attributes

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack, buffer = tracer._thread_state()
        self._stack = stack
        self._buffer = buffer
        self.span_id = span_id = next(tracer._ids)
        parent = self._parent
        if parent is _IMPLICIT:
            self.parent_id = stack[-1] if stack else None
        else:
            self.parent_id = tracer._resolve_parent(parent)
        if self.start_s is None:
            self.start_s = _monotonic()
        stack.append(span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = _monotonic()
        stack = self._stack
        if stack:
            stack.pop()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        start = self.start_s
        self._buffer.append(
            (self.name, self.span_id, self.parent_id, start,
             end - start if end > start else 0.0, self.attributes)
        )
        return False

    def set(self, **attributes) -> None:
        """Attach attributes to the span (merged into any set at open)."""
        self.attributes.update(attributes)


class Tracer:
    """Collect nested spans in memory; export them as JSONL.

    Parameters
    ----------
    enabled:
        When False every ``span()`` returns the shared no-op span and
        nothing is recorded.  The process-global default tracer is a
        disabled singleton, so instrumentation costs ~nothing until a
        live tracer is installed.
    id_start:
        First span id this tracer allocates.  Cross-process stitching
        gives each shard worker a disjoint id range (derived from its
        shard id and spawn generation) so worker span ids can parent
        directly to parent-process ids without remapping.
    """

    def __init__(self, enabled: bool = True, id_start: int = 1):
        self.enabled = bool(enabled)
        self._ids = itertools.count(id_start)
        self._lock = threading.Lock()
        # Finished spans land in per-thread tuple buffers (registered once
        # per thread under the lock, then appended to lock-free):
        # collection is on the serving hot path, and both a single
        # contended list and eager Span construction were measurable
        # slices of tracing overhead.
        self._buffers: list[list[tuple]] = []
        self._tls = threading.local()

    # -- span creation -------------------------------------------------- #
    def span(self, name: str, *, parent=_IMPLICIT, start_s: float | None = None,
             **attributes):
        """Open a span as a context manager.

        ``parent`` defaults to the calling thread's innermost open span;
        pass a span (or id) to parent across threads, or ``None`` to
        force a root.  ``start_s`` backdates the span's start (monotonic
        clock) — the request root uses its admission timestamp so the
        span covers queue wait too.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, parent, start_s, attributes)

    def record_span(self, name: str, start_s: float, end_s: float, *,
                    parent=_IMPLICIT, **attributes) -> int | None:
        """Record an already-timed span retroactively (e.g. queue wait).

        Buffers the raw tuple only; the :class:`Span` appears when
        :meth:`spans` materializes the buffer.  Returns the span's id,
        which a child can take as its ``parent`` (``None`` when
        disabled).
        """
        if not self.enabled:
            return None
        start = float(start_s)
        duration = float(end_s) - start
        stack, buffer = self._thread_state()
        if parent is _IMPLICIT:
            parent_id = stack[-1] if stack else None
        else:
            parent_id = self._resolve_parent(parent)
        span_id = next(self._ids)
        buffer.append(
            (name, span_id, parent_id, start,
             duration if duration > 0.0 else 0.0, attributes)
        )
        return span_id

    def current_span_id(self) -> int | None:
        """Id of the calling thread's innermost open span (None outside)."""
        state = getattr(self._tls, "state", None)
        if state is None:
            return None
        stack = state[0]
        return stack[-1] if stack else None

    # -- collection ----------------------------------------------------- #
    def spans(self) -> list[Span]:
        """Snapshot of all finished spans, in span-id (creation) order."""
        with self._lock:
            merged = [rec for buf in self._buffers for rec in list(buf)]
        merged.sort(key=lambda rec: rec[1])
        return [
            Span(
                name=name,
                span_id=span_id,
                parent_id=parent_id,
                start_s=start_s,
                duration_s=duration_s,
                attributes=attributes,
            )
            for name, span_id, parent_id, start_s, duration_s, attributes
            in merged
        ]

    def drain(self) -> list[tuple]:
        """Atomically snapshot and clear all finished-span buffers.

        Returns the raw record tuples — the wire form a shard worker
        ships back over its result pipe for the parent to
        :meth:`absorb`.  Span ids keep counting up across drains.
        """
        with self._lock:
            merged = [rec for buf in self._buffers for rec in buf]
            for buf in self._buffers:
                buf.clear()
        merged.sort(key=lambda rec: rec[1])
        return merged

    def absorb(self, records, offset_s: float = 0.0) -> int:
        """Merge span records drained from another tracer into this one.

        ``records`` are the tuples (or lists, after pickling) returned
        by :meth:`drain`; ``offset_s`` is added to each start time to
        map the foreign process's monotonic clock onto this one.
        Returns the number of spans absorbed.  Absorbed ids are taken
        as-is — callers guarantee disjoint ``id_start`` ranges.
        """
        if not self.enabled:
            return 0
        cleaned = [
            (str(name), int(span_id),
             None if parent_id is None else int(parent_id),
             float(start_s) + offset_s, float(duration_s),
             dict(attributes or {}))
            for name, span_id, parent_id, start_s, duration_s, attributes
            in records
        ]
        with self._lock:
            buf: list[tuple] = []
            self._buffers.append(buf)
            buf.extend(cleaned)
        return len(cleaned)

    def clear(self) -> None:
        """Drop collected spans (span ids keep counting up)."""
        with self._lock:
            for buf in self._buffers:
                buf.clear()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(buf) for buf in self._buffers)

    def export_jsonl(self, path) -> int:
        """Write the trace as CRC-framed JSONL; returns the span count.

        The file is a storage-v2 event snapshot (kind ``"trace"``), so
        ``repro fsck`` verifies and repairs it like any other artifact.
        :func:`~repro.obs.summary.load_spans` reads both this framing
        and the legacy bare-line format of earlier releases.
        """
        # Lazy import: repro.core.storage imports repro.obs at module
        # level for its own tracing, so the obs side must not import it
        # back at import time.
        from repro.core.storage import save_events_jsonl

        spans = self.spans()
        save_events_jsonl(
            [span.to_dict() for span in spans], Path(path),
            kind=TRACE_EVENT_KIND,
        )
        return len(spans)

    # -- internals ------------------------------------------------------ #
    def _resolve_parent(self, parent) -> int | None:
        if parent is _IMPLICIT:
            return self.current_span_id()
        if parent is None:
            return None
        span_id = getattr(parent, "span_id", parent)
        return None if span_id is None else int(span_id)

    def _thread_state(self) -> tuple[list, list]:
        """The calling thread's ``(open-span stack, finished buffer)`` pair.

        Registered once per thread under the lock; afterwards a single
        thread-local attribute fetch per span.
        """
        state = getattr(self._tls, "state", None)
        if state is None:
            buf: list[tuple] = []
            with self._lock:
                self._buffers.append(buf)
            state = self._tls.state = ([], buf)
        return state


#: The disabled default: instrumented code paths run against this until a
#: live tracer is installed.
NULL_TRACER = Tracer(enabled=False)

_active: Tracer = NULL_TRACER
_active_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-global tracer (the disabled default until installed)."""
    return _active


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` globally (``None`` restores the disabled default);
    returns the previously installed tracer."""
    global _active
    with _active_lock:
        previous = _active
        _active = tracer if tracer is not None else NULL_TRACER
        return previous


@contextmanager
def use_tracer(tracer: Tracer):
    """Scope a global tracer install: restores the previous one on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
