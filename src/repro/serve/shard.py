"""Sharded multi-process serving: N worker replicas behind one façade.

Every layer below this one executes inside a single Python process, so
the CPU-bound surrogate decode is GIL-serialized no matter how many
cores the host has.  :class:`ShardedPredictionService` scales it out:
``N`` worker processes, each hosting a **full replica** of the stack —
a :class:`~repro.serve.service.PredictionService` with its own
microbatcher, result cache, and per-surrogate prefix caches —
behind the same submit/submit_many/stats/close API.

Design points (DESIGN.md §12):

* **Routing** is rendezvous (highest-random-weight) hashing on the
  request's seed-independent ``prompt_key``
  (:func:`route_shard`): same-prompt traffic always lands on the same
  shard, so prefix-group/lockstep-decode and cache hit rates survive
  sharding instead of being diluted ``1/N`` by round-robin.
* **Transport** is pickled :class:`~repro.serve.request.Request` /
  :class:`~repro.serve.request.Response` pairs: a bounded per-shard
  inbox queue parent → worker, and a *private pipe* per shard worker →
  parent (the collector multiplexes them with
  ``multiprocessing.connection.wait``).  A full inbox raises
  :class:`~repro.errors.ServiceOverloadedError` exactly like the
  single-process admission queue (``block=True`` waits instead), so
  backpressure semantics are unchanged.  Results deliberately do NOT
  share one ``mp.Queue``: concurrent queue writers serialize on a
  shared cross-process lock, and a worker SIGKILLed while holding it
  (chaos drills do exactly this) would wedge every other shard's
  replies forever.  One writer per pipe means a kill can only ever
  sever that shard's own channel — the parent sees EOF, nothing else.
* **Trace propagation** (DESIGN.md §14): when tracing is on, the parent
  sends its ``shard.submit`` span id with each request; the worker runs
  its own :class:`~repro.obs.Tracer` in a disjoint span-id block and
  ships finished spans back over the result pipe (piggybacked on
  replies, final sweep before ``bye``), so the parent stitches one
  coherent cross-process span tree.
* **Worker death** is detected by a watchdog thread: in-flight tickets
  on the dead shard fail with the typed
  :class:`~repro.errors.ShardCrashError` (retryable), the shard is
  respawned with a capped restart budget, and beyond the cap submissions
  routed to it raise :class:`~repro.errors.ShardFailedError`.
  ``repro chaos`` kills shards deterministically through
  ``FaultPlan.shard_kill_rate`` (keyed on the dispatch index) or
  explicitly via :meth:`ShardedPredictionService.kill_shard`.
* **Determinism**: a prediction is a pure function of (prompt, seed,
  sampling params) — the engine's determinism contract — and routing
  never changes those inputs, so predictions are bit-identical for any
  shard count, including 0 (the in-process default;
  :func:`make_service` selects the backend).  Serving *metadata*
  (latency, batch size) reflects the actual execution and is excluded
  from the contract.

Workers are started from a clean interpreter
(:func:`repro.utils.parallel.mp_context`: forkserver/spawn, never
fork) — the parent runs collector and watchdog threads, and forking a
threaded process copies locked locks into the child.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import pickle
import queue
import threading
import time
from multiprocessing import connection as mp_connection
from concurrent.futures import Future

from repro.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ShardCrashError,
    ShardFailedError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.obs import MetricsRegistry, Tracer, get_tracer, set_tracer
from repro.obs.tracer import worker_id_start
from repro.serve.request import Request, Response
from repro.serve.service import PredictionService, ServiceBase
from repro.serve.stats import (
    WORKER_METRICS,
    StatsRecorder,
    peak_rss_bytes,
    read_outs,
)
from repro.utils.parallel import mp_context
from repro.utils.rng import derive_seed

__all__ = ["ShardedPredictionService", "make_service", "route_shard"]

#: Watchdog poll period: how quickly a dead worker is noticed.
_WATCHDOG_POLL_S = 0.05

#: Poll period while cooperatively block-putting into a full inbox.
_BLOCK_PUT_POLL_S = 0.005

#: Bound on each shard's inbox (tickets dispatched but not yet picked up
#: by the worker).  A full inbox raises
#: :class:`~repro.errors.ServiceOverloadedError` on non-blocking submits,
#: mirroring the single-process admission queue.
SHARD_QUEUE_CAPACITY = 64

#: Rendezvous-hash seed; fixed, so routing — and thus per-shard cache
#: populations — is reproducible across runs.
ROUTE_SEED = 0

#: :class:`ShardedPredictionService` options with no in-process meaning,
#: which :func:`make_service` drops at 0 shards.
_SHARDED_ONLY = ("max_restarts", "stats_timeout_s")


def route_shard(
    prompt_key: str, n_shards: int, route_seed: int = ROUTE_SEED
) -> int:
    """Rendezvous-hash a prompt key onto one of ``n_shards`` shards.

    Pure function of ``(route_seed, prompt_key, shard index)``: every
    submitter computes the same owner for the same prompt, and changing
    the shard count only remaps the keys whose winner changed (the
    rendezvous property) — cache-affinity-friendly, seed-independent.
    """
    if n_shards < 1:
        raise ServiceError(f"n_shards must be >= 1, got {n_shards}")
    return max(
        range(n_shards),
        key=lambda s: derive_seed(route_seed, "shard-route", prompt_key, s),
    )


# ---------------------------------------------------------------------- #
# Worker side (runs in the shard process)
# ---------------------------------------------------------------------- #
def _portable_error(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives a pickle round-trip, else a wrapper.

    Library errors define ``__reduce__`` for exactly this path; anything
    exotic (a third-party error with unpicklable state) degrades to a
    plain :class:`ServiceError` carrying the rendered message rather
    than poisoning the results pipe.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ServiceError(f"{type(exc).__name__}: {exc}")


def _relay_result(
    reply, ship_spans, shard_id, generation, ticket_id, future
) -> None:
    """Done-callback shipping one worker-side outcome to the parent."""
    try:
        exc = future.exception()
    except BaseException:  # cancelled during a non-drain close
        exc = ServiceClosedError("request cancelled in shard worker")
    if exc is None:
        reply(("ok", shard_id, generation, ticket_id, future.result()))
    else:
        reply(
            ("err", shard_id, generation, ticket_id, _portable_error(exc))
        )
    # Piggyback finished spans on the reply: by the time the future
    # resolves, the request's span tree in this worker is closed, so the
    # parent can stitch it while the trace is still warm.
    ship_spans()


def _shard_worker_main(
    shard_id: int,
    generation: int,
    service_kwargs: dict,
    fault_plan,
    inbox,
    results,
) -> None:
    """Shard worker entry point: host one full service replica.

    Top-level by necessity (spawn/forkserver pickle the target by
    qualified name).  Message protocol, parent → worker over ``inbox``::

        ("req", ticket_id, Request, trace_parent|None)
                                      submit; outcome goes to ``results``
        ("stats", token)              reply with a metrics snapshot
        ("stop", drain)               close the service, reply "bye", exit

    and worker → parent over this shard's private ``results`` pipe::

        ("ok"|"err", shard, gen, ticket_id, Response|error)
        ("spans", shard, gen, span records, worker monotonic now)
        ("stats", shard, gen, token, MetricsRegistry)
        ("bye", shard, gen, MetricsRegistry)

    ``trace_parent`` is the parent process's ``shard.submit`` span id;
    when present, a worker-side tracer (ids from a disjoint
    per-(shard, generation) block, see
    :func:`~repro.obs.tracer.worker_id_start`) wraps the replica submit
    in a ``shard.worker`` span parented to it, and finished spans are
    drained back as ``spans`` messages — piggybacked after each reply
    and once more before ``bye``, so the parent stitches one coherent
    cross-process tree.  A worker SIGKILLed with undrained spans loses
    them; the parent's tree renders the surviving subtrees as marked
    orphans.

    Every message carries the shard's spawn ``generation`` so the parent
    can discard stragglers from an incarnation it already declared dead.
    """
    service = PredictionService(fault_plan=fault_plan, **service_kwargs)
    # The done callbacks fire on executor threads concurrently with this
    # loop's stats/bye replies; Connection.send is not thread-safe, so
    # every write to the results pipe goes through one in-process lock.
    send_lock = threading.Lock()

    def reply(msg) -> None:
        try:
            with send_lock:
                results.send(msg)
        except (BrokenPipeError, OSError):  # parent gone; nothing to tell
            pass

    # Created on the first traced request; untraced runs never pay for
    # a tracer (the global stays the disabled NULL_TRACER).
    tracer: Tracer | None = None

    def ship_spans() -> None:
        if tracer is None:
            return
        records = tracer.drain()
        if records:
            reply(("spans", shard_id, generation, records, time.monotonic()))

    def handle(msg) -> bool:
        """Act on one inbox message; True once the worker should exit."""
        nonlocal tracer
        kind = msg[0]
        if kind == "req":
            ticket_id, request = msg[1], msg[2]
            trace_parent = msg[3] if len(msg) > 3 else None
            if trace_parent is not None and tracer is None:
                tracer = Tracer(
                    id_start=worker_id_start(shard_id, generation)
                )
                set_tracer(tracer)
            if trace_parent is not None and tracer is not None:
                span = tracer.span(
                    "shard.worker",
                    parent=trace_parent,
                    shard=shard_id,
                    generation=generation,
                )
            else:
                span = contextlib.nullcontext()
            try:
                # block=True: a saturated replica parks this loop,
                # the inbox fills, and the parent's put_nowait sees
                # queue.Full — backpressure propagates end to end.
                # The shard.worker span is open across the submit, so
                # the replica's Ticket captures it as trace parent
                # and the in-process span chain hangs off it.
                with span:
                    future = service.submit_async(request, block=True)
            except Exception as exc:
                reply(
                    (
                        "err",
                        shard_id,
                        generation,
                        ticket_id,
                        _portable_error(exc),
                    )
                )
                return False
            future.add_done_callback(
                functools.partial(
                    _relay_result,
                    reply,
                    ship_spans,
                    shard_id,
                    generation,
                    ticket_id,
                )
            )
        elif kind == "stats":
            reply(("stats", shard_id, generation, msg[1],
                   service.metrics()))
        elif kind == "stop":
            service.close(drain=bool(msg[1]))
            # Final span drain before the goodbye: drained requests'
            # done-callbacks have all fired by now, so this sweep
            # catches spans whose piggyback raced the close.
            ship_spans()
            reply(("bye", shard_id, generation, service.metrics()))
            return True
        return False

    try:
        while True:
            msg = inbox.get()
            # Hold the replica while draining what is already in the
            # inbox: a burst the parent sent together still batches
            # together instead of flushing one request at a time.
            with service.hold():
                while True:
                    if handle(msg):
                        return
                    try:
                        msg = inbox.get_nowait()
                    except queue.Empty:
                        break
    except (EOFError, KeyboardInterrupt):  # parent gone / interrupted
        service.close(drain=False)


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #
class _Inflight:
    """Parent-side record of one ticket dispatched to a shard."""

    __slots__ = ("future", "shard", "generation", "enqueued_at",
                 "trace_parent", "counted")

    def __init__(
        self, shard: int, generation: int, trace_parent: int | None = None
    ):
        self.future: Future = Future()
        self.shard = shard
        self.generation = generation
        self.enqueued_at = time.monotonic()
        #: Parent-side ``shard.submit`` span id (None when untraced);
        #: the retroactive ``shard.roundtrip`` span parents to it.
        self.trace_parent = trace_parent
        #: Set once the ticket counts as submitted
        #: (:meth:`~repro.serve.stats.StatsRecorder.record_submit_once`).
        self.counted = False


class _ShardSlot:
    """One shard's process, inbox, and per-incarnation bookkeeping."""

    __slots__ = (
        "index", "process", "inbox", "generation", "restarts", "failed",
        "metrics",
    )

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.inbox = None
        self.generation = 0
        self.restarts = 0
        self.failed = False
        #: Latest metrics snapshot from the *current* incarnation.
        self.metrics: MetricsRegistry | None = None


class ShardedPredictionService(ServiceBase):
    """N-process sharded drop-in for :class:`PredictionService`.

    Parameters
    ----------
    shards:
        Worker-process count (>= 1; use :func:`make_service` for the
        "0 means in-process" convention).  Each shard's inbox holds
        :data:`SHARD_QUEUE_CAPACITY` tickets, and requests route by
        :func:`route_shard` under :data:`ROUTE_SEED`.
    max_restarts:
        Per-shard respawn budget after crashes; beyond it the shard is
        failed permanently and submissions routed to it raise
        :class:`~repro.errors.ShardFailedError`.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`.  Request-level
        faults are injected *inside* each worker's replica from the
        same plan; ``shard_kill_rate`` fires parent-side, keyed on the
        dispatch index, SIGKILLing the target shard before the ticket
        is enqueued.  ``service.faults`` is the parent's
        :class:`~repro.faults.FaultInjector` (shard kills and telemetry
        faults, counted in the parent's registry);
        ``fault_counts(service.metrics())`` adds every worker's.
    **service_kwargs:
        Forwarded verbatim to each worker's
        :class:`PredictionService` (``max_batch_size``, ``workers``,
        cache sizes/switches, ...).  Must be picklable; an explicit
        ``surrogate`` is rejected — sharded workers build their
        surrogates per size, lazily, like the default service.

    The parent counts what it owns — request outcomes, end-to-end
    latencies, resilience and shard health — in its own registry, and
    merges the :data:`~repro.serve.stats.WORKER_METRICS` of every worker
    incarnation into :meth:`metrics` (fetched on each call, finalized by
    the drain handshake on :meth:`close`).
    """

    def __init__(
        self,
        shards: int,
        *,
        max_restarts: int = 2,
        fault_plan: FaultPlan | None = None,
        stats_timeout_s: float = 2.0,
        **service_kwargs,
    ):
        if shards < 1:
            raise ServiceError(f"shards must be >= 1, got {shards}")
        if stats_timeout_s <= 0:
            raise ServiceError(
                f"stats_timeout_s must be > 0, got {stats_timeout_s}"
            )
        if max_restarts < 0:
            raise ServiceError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        if service_kwargs.get("surrogate") is not None:
            raise ServiceError(
                "the sharded backend builds surrogates inside each worker; "
                "route by Request.size instead of passing a surrogate"
            )
        service_kwargs.pop("surrogate", None)
        self.n_shards = int(shards)
        #: How long a stats round-trip waits for lagging shards.  The
        #: telemetry sampler scrapes stats() on its own cadence; drills
        #: running sub-second sampler intervals lower this so a shard
        #: dying mid-scrape cannot stall the timeline past its gap bound.
        self.stats_timeout_s = float(stats_timeout_s)
        self._service_kwargs = dict(service_kwargs)
        self._max_restarts = int(max_restarts)
        self._stats = StatsRecorder(
            max_batch_size=service_kwargs.get("max_batch_size", 8)
        )
        registry = self._stats.registry
        registry.gauge("serve.shards").set(self.n_shards)
        self._shards_failed = registry.gauge("serve.shards_failed")
        self._respawns = registry.counter("serve.shard_respawns")
        self._crashed_tickets = registry.counter("serve.shard_crashed_tickets")
        #: Worker-owned counts of dead incarnations: their last
        #: snapshots, merged (what a shard counted after its last stats
        #: exchange dies with it).
        self._retired = MetricsRegistry()
        self.faults = (
            FaultInjector(fault_plan, registry=registry)
            if fault_plan is not None else None
        )
        #: Tracer that absorbs worker span shipments; captured at traced
        #: submits so stitching survives a scoped use_tracer exit.
        self._trace_sink: Tracer | None = None
        self._ids = itertools.count()
        self._dispatches = itertools.count()
        self._stats_tokens = itertools.count()
        self._lock = threading.Lock()
        self._inflight: dict[int, _Inflight] = {}
        self._stats_pending: dict[int, dict] = {}
        self._closed = threading.Event()
        self._ctx = mp_context()
        #: Open read ends of the per-shard result pipes.  A dead
        #: incarnation's pipe stays here until the collector has drained
        #: its buffered replies and seen EOF — late results are filtered
        #: by ticket/generation, not by dropping the channel early.
        self._result_conns: set = set()
        self._shards = [_ShardSlot(i) for i in range(self.n_shards)]
        for slot in self._shards:
            self._spawn(slot)
        self._collector_stop = threading.Event()
        self._collector = threading.Thread(
            target=self._collect, name="repro-shard-collector", daemon=True
        )
        self._collector.start()
        self._watchdog_stop = threading.Event()
        self._watchdog = threading.Thread(
            target=self._watch, name="repro-shard-watchdog", daemon=True
        )
        self._watchdog.start()

    # ------------------------------------------------------------------ #
    # Submission API (mirrors PredictionService)
    # ------------------------------------------------------------------ #
    def submit_async(self, request: Request, *, block: bool = False) -> Future:
        """Dispatch a request to its shard; the future yields a Response.

        Raises :class:`~repro.errors.ServiceOverloadedError` when the
        target shard's inbox is full, unless ``block=True`` (cooperative
        backpressure).  A request routed to a permanently failed shard
        raises :class:`~repro.errors.ShardFailedError` — rerouting it
        would silently break the cache-affinity contract.

        When tracing is on, the dispatch runs inside a ``shard.submit``
        span whose id crosses the process boundary on the request
        message; the tracer is also captured as the sink that absorbs
        span records shipped back by the workers (the collector thread
        outlives any scoped ``use_tracer`` block, so absorption must
        not depend on the global still pointing at the same tracer).
        """
        tracer = get_tracer()
        if tracer.enabled:
            self._trace_sink = tracer
        with tracer.span("shard.submit") as span:
            return self._dispatch_request(request, block, span)

    def _dispatch_request(self, request: Request, block: bool, span) -> Future:
        if self._closed.is_set():
            self._stats.closed_rejects.inc()
            raise ServiceClosedError("service is shut down")
        shard_idx = route_shard(request.prompt_key, self.n_shards)
        dispatch = next(self._dispatches)
        ticket_id = next(self._ids)
        span.set(shard=shard_idx, ticket=ticket_id)
        with self._lock:
            slot = self._shards[shard_idx]
            if slot.failed:
                raise ShardFailedError(shard_idx, slot.restarts)
            entry = _Inflight(shard_idx, slot.generation, span.span_id)
            self._inflight[ticket_id] = entry
            inbox = slot.inbox
        if self.faults is not None and self.faults.before_dispatch(dispatch):
            # Register-then-kill: the triggering ticket is already
            # in flight on the victim shard, so it deterministically
            # fails with ShardCrashError regardless of watchdog timing.
            self.kill_shard(shard_idx)
        msg = ("req", ticket_id, request, span.span_id)
        if block:
            self._blocking_put(slot, entry, ticket_id, msg)
        elif inbox is None or not self._put(inbox, entry, msg):
            # A full inbox, or a shard mid-respawn (its replacement inbox
            # isn't wired up yet): a non-blocking caller is shed.
            with self._lock:
                self._inflight.pop(ticket_id, None)
            self._stats.rejected.inc()
            raise ServiceOverloadedError(
                SHARD_QUEUE_CAPACITY,
                depth=(SHARD_QUEUE_CAPACITY if inbox is None
                       else _inbox_depth(inbox, SHARD_QUEUE_CAPACITY)),
            )
        return entry.future

    def _put(self, inbox, entry: _Inflight, msg: tuple) -> bool:
        """Enqueue a request and count its submit; False if ``inbox`` is full.

        Both happen under the lock stats requests are enqueued under, so
        a worker's stats reply never counts a lookup whose submit the
        parent has not counted.
        """
        with self._lock:
            try:
                inbox.put_nowait(msg)
            except queue.Full:
                return False
            self._stats.record_submit_once(entry)
            return True

    def _blocking_put(self, slot, entry, ticket_id, msg) -> None:
        """Cooperatively wait for inbox space, tracking shard liveness.

        If the target shard dies mid-wait, the watchdog has already
        failed ``entry.future`` with :class:`ShardCrashError` — the
        caller gets the failed future instead of blocking forever.
        """
        while True:
            if entry.future.done():
                return
            if self._closed.is_set():
                with self._lock:
                    self._inflight.pop(ticket_id, None)
                entry.future.cancel()
                self._stats.closed_rejects.inc()
                raise ServiceClosedError(
                    "service shut down during submission"
                )
            with self._lock:
                inbox = slot.inbox
            # No inbox: the shard is being respawned or has failed.
            if inbox is not None and self._put(inbox, entry, msg):
                return
            time.sleep(_BLOCK_PUT_POLL_S)

    def cached_response(self, request: Request) -> Response | None:
        """Always ``None``: result caches live inside the shard workers.

        The fallback chain's result-cache rung is therefore a no-op on
        the sharded backend (it degrades straight to the GBT rung); a
        cross-process cache peek would cost a round-trip to a shard
        that may itself be the thing that just failed.
        """
        return None

    # ------------------------------------------------------------------ #
    # Chaos / failure handling
    # ------------------------------------------------------------------ #
    def kill_shard(self, index: int) -> None:
        """SIGKILL one shard worker (chaos drills and tests).

        In-flight tickets on the shard fail with
        :class:`ShardCrashError`; the watchdog respawns it within its
        restart budget.
        """
        with self._lock:
            proc = self._shards[index].process
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5)

    def _watch(self) -> None:
        while not self._watchdog_stop.wait(_WATCHDOG_POLL_S):
            for slot in self._shards:
                proc = slot.process
                if proc is not None and not proc.is_alive():
                    self._handle_death(slot)

    def _handle_death(self, slot: _ShardSlot) -> None:
        with self._lock:
            proc = slot.process
            if proc is None or proc.is_alive():
                return
            exitcode = proc.exitcode
            dead_gen = slot.generation
            slot.generation += 1
            slot.process = None
            slot.inbox = None
            # The incarnation's counters survive only as their last
            # exchanged snapshot; anything accumulated since is lost
            # with the process (documented in DESIGN §12).
            if slot.metrics is not None:
                self._retired.merge(slot.metrics, WORKER_METRICS)
                slot.metrics = None
            stale_ids = [
                tid
                for tid, entry in self._inflight.items()
                if entry.shard == slot.index and entry.generation <= dead_gen
            ]
            entries = [self._inflight.pop(tid) for tid in stale_ids]
            self._crashed_tickets.inc(len(entries))
            respawn = (
                slot.restarts < self._max_restarts
                and not self._closed.is_set()
            )
            if respawn:
                slot.restarts += 1
                self._respawns.inc()
            else:
                slot.failed = True
                self._shards_failed.set(sum(s.failed for s in self._shards))
        if respawn:
            # Spawning a replacement takes process-start time; doing it
            # outside the lock keeps submitters and the telemetry
            # sampler's stats scrapes from stalling behind a respawn.
            # Safe vs. close(): _handle_death runs only on the watchdog
            # thread, which close() joins before its shutdown sweep.
            self._spawn(slot)
        error = ShardCrashError(slot.index, exitcode)
        for entry in entries:
            self._stats.record_submit_once(entry)
            self._stats.record_failed()
            if entry.future.set_running_or_notify_cancel():
                entry.future.set_exception(error)

    def _spawn(self, slot: _ShardSlot) -> None:
        inbox = self._ctx.Queue(maxsize=SHARD_QUEUE_CAPACITY)
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                slot.index,
                slot.generation,
                self._service_kwargs,
                self._worker_plan(),
                inbox,
                send_conn,
            ),
            name=f"repro-shard-{slot.index}",
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the write end: the worker must be
        # the pipe's only writer, or its death never reads as EOF.
        send_conn.close()
        with self._lock:
            slot.process = process
            slot.inbox = inbox
            self._result_conns.add(recv_conn)

    def _worker_plan(self):
        """The fault plan forwarded to workers (shard kills stay parent-side)."""
        if self.faults is None:
            return None
        return dataclasses.replace(self.faults.plan, shard_kill_rate=0.0)

    # ------------------------------------------------------------------ #
    # Result collection
    # ------------------------------------------------------------------ #
    def _collect(self) -> None:
        """Multiplex every shard's result pipe until told to stop.

        EOF on a pipe (worker exited or was killed; a kill mid-``send``
        surfaces as EOF too, since a partial frame can never complete)
        retires just that channel; the watchdog owns declaring the
        shard dead.  On stop, one final sweep drains replies still
        buffered in the pipes — :meth:`close` joins the workers before
        setting the stop flag, so the "bye" snapshots are all there.
        """
        while True:
            with self._lock:
                conns = list(self._result_conns)
            if self._collector_stop.is_set():
                self._drain_conns(conns)
                return
            if not conns:
                time.sleep(_WATCHDOG_POLL_S)
                continue
            for conn in mp_connection.wait(conns, timeout=0.1):
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._retire_conn(conn)
                    continue
                self._dispatch(msg)

    def _drain_conns(self, conns) -> None:
        for conn in conns:
            while True:
                try:
                    if not conn.poll(0):
                        break
                    msg = conn.recv()
                except (EOFError, OSError):
                    break
                self._dispatch(msg)
            self._retire_conn(conn)

    def _retire_conn(self, conn) -> None:
        with self._lock:
            self._result_conns.discard(conn)
        conn.close()

    def _dispatch(self, msg: tuple) -> None:
        kind = msg[0]
        if kind in ("ok", "err"):
            self._resolve(kind, msg)
        elif kind == "spans":
            self._absorb_spans(msg)
        elif kind in ("stats", "bye"):
            self._absorb_snapshot(kind, msg)

    def _absorb_spans(self, msg: tuple) -> None:
        """Stitch a worker's drained span records into the trace sink."""
        sink = self._trace_sink
        if sink is None or not sink.enabled:
            return
        _, _shard_id, _gen, records, worker_now = msg
        # time.monotonic() is system-wide on every platform we run on,
        # so a small send→receive delta is transport latency, not clock
        # skew — leave the timestamps alone.  A large delta means the
        # worker genuinely lives on a different monotonic epoch; shift
        # its spans onto ours.
        delta = time.monotonic() - float(worker_now)
        offset = delta if abs(delta) > 1.0 else 0.0
        sink.absorb(records, offset_s=offset)

    def _resolve(self, kind: str, msg: tuple) -> None:
        _, _shard_id, _gen, ticket_id, payload = msg
        with self._lock:
            entry = self._inflight.pop(ticket_id, None)
        if entry is None:
            # Already failed by the watchdog (the shard was declared
            # dead) or swept by close(); a late success is dropped — the
            # caller was told the truth it had at the time.
            return
        future = entry.future
        if not future.set_running_or_notify_cancel():
            # The caller timed out and cancelled: completed work with
            # nobody left to read it is a late discard, same as the
            # single-process path.
            if kind == "ok":
                self._stats.late_discards.inc()
            return
        done_at = time.monotonic()
        if kind == "ok":
            response = dataclasses.replace(
                payload,
                request_id=ticket_id,
                latency_s=done_at - entry.enqueued_at,
            )
            self._stats.record_done(response.latency_s)
            future.set_result(response)
        else:
            self._stats.record_failed()
            future.set_exception(payload)
        if entry.trace_parent is not None:
            sink = self._trace_sink
            if sink is not None:
                # Retroactive parent-side view of the dispatch: queue +
                # pipe + worker execution, bracketed by the same ids the
                # worker's shard.worker span parents into.
                sink.record_span(
                    "shard.roundtrip",
                    entry.enqueued_at,
                    done_at,
                    parent=entry.trace_parent,
                    shard=entry.shard,
                    outcome=kind,
                )

    def _absorb_snapshot(self, kind: str, msg: tuple) -> None:
        shard_id, gen = msg[1], msg[2]
        with self._lock:
            slot = self._shards[shard_id]
            if gen == slot.generation:
                slot.metrics = msg[-1]
            if kind == "stats":
                pending = self._stats_pending.get(msg[3])
                if pending is not None:
                    pending["got"].add(shard_id)
                    if pending["got"] >= pending["want"]:
                        pending["event"].set()

    # ------------------------------------------------------------------ #
    # Stats & introspection
    # ------------------------------------------------------------------ #
    def _refresh_shard_stats(self, timeout: float | None = None) -> None:
        """Round-trip a stats request to every live shard (best effort).

        Shards that do not answer within ``timeout`` (default: the
        service's ``stats_timeout_s``; e.g. mid-drain behind a deep
        backlog) keep their previous snapshot; after :meth:`close` the
        drain handshake has already delivered final snapshots, so no
        round-trip is needed.
        """
        if self._closed.is_set():
            return
        if timeout is None:
            timeout = self.stats_timeout_s
        token = next(self._stats_tokens)
        event = threading.Event()
        with self._lock:
            want = set()
            for slot in self._shards:
                if slot.failed or slot.inbox is None:
                    continue
                try:
                    slot.inbox.put_nowait(("stats", token))
                except queue.Full:
                    continue
                want.add(slot.index)
            if not want:
                return
            self._stats_pending[token] = {
                "want": want,
                "got": set(),
                "event": event,
            }
        event.wait(timeout)
        with self._lock:
            self._stats_pending.pop(token, None)

    def metrics(self) -> MetricsRegistry:
        """The parent's registry snapshot with every worker incarnation's
        :data:`~repro.serve.stats.WORKER_METRICS` merged in (counters
        add, histograms merge bucket by bucket, so the cross-shard
        queue-wait percentiles are percentiles of the union).

        The ``cache.bytes{level=decode}`` gauge is the sum over live
        workers: each process holds its own decode-state cache.
        ``process.peak_rss_bytes`` is the parent's peak RSS plus every
        live worker's.

        Live shards are polled first.
        """
        self._refresh_shard_stats()
        workers = MetricsRegistry()
        decode_bytes = None
        rss_bytes = peak_rss_bytes()
        with self._lock:
            workers.merge(self._retired)
            for slot in self._shards:
                if slot.metrics is not None:
                    workers.merge(slot.metrics, WORKER_METRICS)
                    held = slot.metrics.get("cache.bytes", level="decode")
                    if held is not None:
                        decode_bytes = (decode_bytes or 0) + held.value
                    rss = slot.metrics.get("process.peak_rss_bytes")
                    if rss is not None:
                        rss_bytes += rss.value
        # The parent's submit count is read after the workers' lookups
        # it bounds (see StatsRecorder.snapshot).
        snap = self._stats.snapshot()
        snap.merge(workers)
        if decode_bytes is not None:
            snap.gauge("cache.bytes", level="decode").set(decode_bytes)
        snap.gauge("process.peak_rss_bytes").set(rss_bytes)
        return read_outs(snap, self._stats.max_batch_size)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, drain: bool = True) -> None:
        """Shut down every shard (draining admitted requests by default).

        The drain handshake delivers each worker's final metrics
        snapshot, so post-close :meth:`metrics` and :meth:`stats` are
        exact.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        # Stop the watchdog first: an orderly worker exit must not be
        # mistaken for a crash and respawned mid-shutdown.
        self._watchdog_stop.set()
        self._watchdog.join()
        if not drain:
            with self._lock:
                entries = list(self._inflight.values())
                self._inflight.clear()
            for entry in entries:
                if entry.future.set_running_or_notify_cancel():
                    entry.future.set_exception(
                        ServiceClosedError(
                            "service shut down before execution"
                        )
                    )
        with self._lock:
            live = [
                slot
                for slot in self._shards
                if slot.process is not None and not slot.failed
            ]
        for slot in live:
            try:
                slot.inbox.put(("stop", drain), timeout=1.0)
            except queue.Full:
                slot.process.terminate()
        for slot in live:
            slot.process.join(timeout=60.0 if drain else 5.0)
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=5.0)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join()
        # Workers have exited, so their final "bye" snapshots are
        # buffered in the result pipes; the collector's stop-sweep
        # drains them before it returns.
        self._collector_stop.set()
        self._collector.join()
        with self._lock:
            entries = list(self._inflight.values())
            self._inflight.clear()
        for entry in entries:
            if entry.future.set_running_or_notify_cancel():
                entry.future.set_exception(
                    ServiceClosedError("service shut down before execution")
                )


def _inbox_depth(inbox, capacity: int) -> int | None:
    """Best-effort queue depth (qsize is unimplemented on some platforms)."""
    try:
        return inbox.qsize()
    except (NotImplementedError, OSError):
        return capacity


def make_service(*, shards: int = 0, surrogate=None, **kwargs):
    """Build the serving backend for a shard count (0 = in-process).

    The single switch the CLI / sessions / runner layers use:
    ``shards == 0`` returns the default single-process
    :class:`PredictionService` (bit-identical predictions either way —
    the engine's determinism contract is per-request, and routing never
    changes a request's inputs).  ``kwargs`` go to the backend; the
    sharded-only ``max_restarts`` and ``stats_timeout_s`` are ignored
    in-process.
    """
    if shards < 0:
        raise ServiceError(f"shards must be >= 0, got {shards}")
    if shards == 0:
        for name in _SHARDED_ONLY:
            kwargs.pop(name, None)
        return PredictionService(surrogate, **kwargs)
    return ShardedPredictionService(shards, surrogate=surrogate, **kwargs)
