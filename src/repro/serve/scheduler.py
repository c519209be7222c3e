"""Microbatching scheduler: bounded admission queue + work-conserving flush.

The scheduler owns one collector thread and a pool of batch workers.  The
collector pulls tickets off a bounded queue and groups them into batches.
A batch flushes as soon as any of these holds:

- it is full (``max_batch_size``);
- a batch worker is idle (fewer dispatched-but-unfinished batches than
  workers), the admission queue is empty, and no caller holds the
  scheduler open (:meth:`MicroBatcher.hold`) — waiting longer could only
  add latency, since nothing else is about to join;
- its oldest ticket has waited ``max_wait_s``.

So ``max_wait_s`` is an upper bound on any ticket's wait, and it binds
only while every worker is busy or a burst is still being admitted: a
lone request with an idle worker flushes at once, while a burst admitted
under :meth:`~MicroBatcher.hold` still forms one batch (its same-prompt
tickets share one lockstep decode downstream).  Flushed batches go to the
worker pool, so multiple batches execute concurrently while the
collector keeps admitting traffic.

The worker pool is sized through :func:`repro.utils.parallel.effective_workers`
with oversubscription allowed: batch execution here is in-process Python
with no IO, and the service intentionally runs more batch workers than
cores to keep batches flowing while others sit on cache locks.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ServiceClosedError, ServiceOverloadedError
from repro.obs import get_tracer
from repro.serve.request import Request
from repro.utils.parallel import effective_workers

__all__ = ["Ticket", "MicroBatcher"]

#: Collector poll granularity while waiting out a batch deadline.
_POLL_S = 0.5


@dataclass
class Ticket:
    """One admitted request travelling through the scheduler.

    ``trace_parent`` carries the submitting thread's innermost span id
    across the thread hop to the batch worker, so the worker-side
    ``serve.request`` span parents into the caller's trace (e.g. under a
    ``resilience.attempt`` span).  ``None`` when tracing is off or the
    caller had no open span.

    ``group_key`` is the request's seed-independent prompt digest (set by
    the service when prefix reuse is on, empty otherwise): flushes
    stable-sort by it so same-prompt tickets sit adjacently in the batch
    and can share one lockstep decode.

    ``admitted_at`` is when the service started admitting the request
    (before its admission-time lookup), the origin of the
    request's end-to-end latency; ``enqueued_at`` is when it entered the
    queue, the origin of queue wait and of the ``max_wait_s`` deadline.

    ``lookup`` is the service's admission-time lookup of a result miss
    (surrogate, result key, built prompt), so the batch worker never
    rebuilds the prompt; ``None`` when admission left the lookup to the
    worker.

    ``counted`` is set once the request counts as submitted (see
    :meth:`repro.serve.stats.StatsRecorder.record_submit_once`).
    """

    request_id: int
    request: Request
    future: Future = field(default_factory=Future)
    admitted_at: float = field(default_factory=time.monotonic)
    enqueued_at: float = field(default_factory=time.monotonic)
    trace_parent: int | None = None
    group_key: str = ""
    lookup: object = None
    counted: bool = False


class _Sentinel:
    """Queue marker that tells the collector to flush and exit."""


class _Wake:
    """Queue marker that tells the collector to re-check its flush rule
    (a batch finished or the last hold closed)."""


_STOP = _Sentinel()
_WAKE = _Wake()


class MicroBatcher:
    """Batch requests and dispatch them to a worker pool.

    The flush rule is the module docstring's.  A batch held back waits
    for the queue to bring a ticket or a wake marker (put when a batch
    finishes or the last :meth:`hold` closes), or for its deadline.  Each
    ``serve.flush`` span records why it flushed as
    ``reason=size|idle|deadline|close``.

    Parameters
    ----------
    execute_batch:
        Callback receiving a non-empty ``list[Ticket]``; it must resolve
        every ticket's future (result or exception) and never raise.
    max_batch_size:
        Flush threshold; also the denominator of batch occupancy.
    max_wait_s:
        Upper bound on how long the oldest ticket waits before a partial
        batch is flushed anyway; it binds only while every worker is busy
        or a hold is open.
    queue_capacity:
        Bound on admitted-but-unbatched tickets; beyond it
        :meth:`submit` raises :class:`ServiceOverloadedError`.
    workers:
        Batch-worker count (resolved with oversubscription allowed;
        ``None`` uses the clamped default).
    max_inflight_batches:
        Bound on dispatched-but-unfinished batches (default ``2 *
        workers``: one running, one ready per worker).  Without this the
        collector would drain the bounded queue into the executor's
        unbounded backlog and the queue bound would never exert
        backpressure.
    fault_injector:
        Optional :class:`repro.faults.FaultInjector`; its
        ``before_flush`` hook runs on every flush (queue-stall
        injection), keyed on the flush index.
    """

    def __init__(
        self,
        execute_batch: Callable[[list[Ticket]], None],
        *,
        max_batch_size: int = 8,
        max_wait_s: float = 0.005,
        queue_capacity: int = 1024,
        workers: int | None = None,
        max_inflight_batches: int | None = None,
        fault_injector=None,
    ):
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.queue_capacity = int(queue_capacity)
        self._execute_batch = execute_batch
        self._queue: queue.Queue = queue.Queue(maxsize=queue_capacity)
        nworkers = effective_workers(workers, allow_oversubscription=True)
        if max_inflight_batches is None:
            max_inflight_batches = 2 * nworkers
        if max_inflight_batches < 1:
            raise ValueError(
                f"max_inflight_batches must be >= 1, got {max_inflight_batches}"
            )
        self._faults = fault_injector
        self._flush_count = 0
        #: Set by close(); read by the collector when the sentinel lands
        #: to decide the in-hand partial batch's fate (execute vs. fail).
        self._drain_on_close = True
        self._inflight = threading.Semaphore(max_inflight_batches)
        # Batches that can run at once: past this many dispatched, a new
        # batch would only wait for a worker or a dispatch slot.
        self._slots = min(nworkers, max_inflight_batches)
        # Dispatched-but-unfinished batches and open holds; both change
        # on other threads than the collector's, so under one lock.
        self._lock = threading.Lock()
        self._busy = 0
        self._holds = 0
        self._pool = ThreadPoolExecutor(
            max_workers=nworkers,
            thread_name_prefix="repro-serve-batch",
        )
        self._closed = threading.Event()
        self._collector = threading.Thread(
            target=self._collect, name="repro-serve-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun (admissions are refused)."""
        return self._closed.is_set()

    def submit(self, ticket: Ticket, *, block: bool = False) -> None:
        """Admit a ticket, raising on shutdown or backpressure.

        With ``block=True`` a full queue waits for space instead of
        raising (cooperative backpressure for bulk submitters); the
        collector keeps draining, so the wait always progresses.
        """
        if self._closed.is_set():
            raise ServiceClosedError("service is shut down")
        # The admission span covers any cooperative-backpressure wait on
        # a full queue — that wait is exactly the signal worth seeing.
        with get_tracer().span(
            "serve.submit", request_id=ticket.request_id, block=block
        ):
            if block:
                self._queue.put(ticket)
            else:
                try:
                    self._queue.put_nowait(ticket)
                except queue.Full:
                    raise ServiceOverloadedError(
                        self.queue_capacity, depth=self._queue.qsize()
                    ) from None
        # close() may have raced the enqueue: the collector could already
        # have passed (or be past) the shutdown sentinel, in which case
        # this ticket would never be batched and its future never
        # resolved.  Cancelling wins only while the ticket is still
        # pending — if the collector did pick it up, it completes
        # normally and the submission stands.
        if self._closed.is_set() and ticket.future.cancel():
            raise ServiceClosedError("service shut down during submission")

    @contextlib.contextmanager
    def hold(self):
        """Declare that more tickets are on their way.

        While any hold is open an idle worker does not flush a partial
        batch, so a burst admitted inside one forms full batches (or
        flushes at ``max_wait_s``).  Holds nest and may overlap across
        threads; when the last one closes the collector re-checks its
        flush rule at once.
        """
        with self._lock:
            self._holds += 1
        try:
            yield
        finally:
            with self._lock:
                self._holds -= 1
                last = self._holds == 0
            if last:
                self._wake()

    def close(self, drain: bool = True) -> None:
        """Stop admissions and shut the scheduler down.

        With ``drain=True`` (graceful), every already-admitted ticket is
        batched and executed before the worker pool stops.  With
        ``drain=False``, unbatched tickets fail with
        :class:`ServiceClosedError` — including the partial batch the
        collector holds in hand when the sentinel arrives — and only
        batches already dispatched to the pool run to completion.

        Idempotent; safe to call from ``with``-exit and explicitly.
        """
        if self._closed.is_set():
            return
        self._drain_on_close = drain
        self._closed.set()
        if not drain:
            # Reject everything still queued before the sentinel lands.
            while True:
                try:
                    ticket = self._queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(ticket, Ticket):
                    _fail_closed(ticket)
        self._queue.put(_STOP)
        self._collector.join()
        # Sweep tickets enqueued after the sentinel (submit racing
        # close): cancel them so the racing submitter's own post-enqueue
        # check converts the cancellation into ServiceClosedError instead
        # of waiting forever on an unresolved future.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(item, Ticket):
                item.future.cancel()
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    def _collect(self) -> None:
        """Collector loop: group tickets into batches, dispatch on flush."""
        batch: list[Ticket] = []
        deadline: float | None = None
        while True:
            if deadline is None:
                timeout = _POLL_S
            else:
                # Never let the poll granularity outlive the deadline: a
                # partial batch with max_wait_s < _POLL_S must flush at
                # its deadline, not at the next 0.5s poll tick.
                timeout = min(
                    _POLL_S, max(deadline - time.monotonic(), 0.0)
                )
            try:
                item = self._queue.get(timeout=timeout)
            except queue.Empty:
                if batch and time.monotonic() >= deadline:
                    self._flush(batch, "deadline")
                    batch, deadline = [], None
                continue
            if isinstance(item, _Sentinel):
                if batch:
                    if self._drain_on_close:
                        self._flush(batch, "close")
                    else:
                        # Non-drain close: the docstring promises every
                        # unbatched ticket fails with ServiceClosedError
                        # — that includes this in-hand partial batch, not
                        # just tickets still sitting on the queue.
                        for ticket in batch:
                            _fail_closed(ticket)
                break
            if isinstance(item, Ticket):
                if not batch:
                    # Anchor the flush deadline at the ticket's *enqueue*
                    # time, not collector pickup: if the collector was
                    # parked in a flush (dispatch-slot wait), time
                    # already spent in the queue counts against
                    # max_wait_s instead of silently restarting the
                    # clock.
                    deadline = item.enqueued_at + self.max_wait_s
                batch.append(item)
                if len(batch) >= self.max_batch_size:
                    self._flush(batch, "size")
                    batch, deadline = [], None
                    continue
            if batch and self._idle():
                self._flush(batch, "idle")
                batch, deadline = [], None

    def _idle(self) -> bool:
        """Whether nothing can join a partial batch soon: a worker is
        free, the queue is empty and no caller holds the scheduler."""
        with self._lock:
            return (
                self._busy < self._slots
                and not self._holds
                and self._queue.empty()
            )

    def _wake(self) -> None:
        """Make the collector re-check its flush rule now.  Skipped once
        closed (the collector is draining or gone); a full queue already
        guarantees the collector another look.  The marker holds a queue
        slot only until the collector takes it."""
        if self._closed.is_set():
            return
        try:
            self._queue.put_nowait(_WAKE)
        except queue.Full:
            pass

    def _done(self, _future) -> None:
        self._inflight.release()
        with self._lock:
            self._busy -= 1
        self._wake()

    def _flush(self, batch: list[Ticket], reason: str) -> None:
        if len(batch) > 1 and any(t.group_key for t in batch):
            # Stable sort: same-prompt tickets become adjacent (one
            # lockstep decode group downstream) while admission order is
            # preserved within each group.
            batch.sort(key=lambda t: t.group_key)
        # The flush span covers the injected stall and the dispatch-slot
        # wait — the two places a batch loses time before a worker has it.
        with get_tracer().span(
            "serve.flush", batch_size=len(batch), reason=reason
        ) as span:
            if self._faults is not None:
                # Only the collector thread flushes, so the index needs
                # no lock.
                self._flush_count += 1
                span.set(flush_index=self._flush_count)
                self._faults.before_flush(self._flush_count)
            # Block until a dispatch slot frees: this is what propagates
            # worker saturation back to the bounded queue (and from there
            # to submitters) instead of hiding it in the executor's
            # backlog.
            self._inflight.acquire()
            with self._lock:
                self._busy += 1
            future = self._pool.submit(self._execute_batch, list(batch))
            future.add_done_callback(self._done)


def _fail_closed(ticket: Ticket) -> None:
    """Fail an unexecuted ticket with ServiceClosedError (skip if the
    caller already cancelled it, e.g. a timed-out blocking submit)."""
    if ticket.future.set_running_or_notify_cancel():
        ticket.future.set_exception(
            ServiceClosedError("service shut down before execution")
        )
