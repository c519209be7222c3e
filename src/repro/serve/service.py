"""The :class:`PredictionService` façade: admit → (hit | batch → generate).

The service accepts :class:`~repro.serve.request.Request` envelopes.
Admission looks each request up in the result cache on the submitting
thread, by its ``prompt_key``, before building anything: a hit is
answered right there with an already-resolved future — it never builds
or tokenizes a prompt, never queues, so it never waits out the
microbatch deadline and is never shed by a full queue.  A miss builds
its prompt once and enters the bounded microbatching scheduler (so
``max_wait_s`` and the queue-wait statistics describe misses alone),
carrying the built prompt; each batch executes against per-size
:class:`~repro.core.surrogate.DiscriminativeSurrogate` stacks.  The
**result cache** (``prompt_key``, seed, sampling params, token cap,
evidence flag → ``SurrogatePrediction``) skips generation entirely for
identical requests, relying on the engine's determinism contract and on
equal ``prompt_key`` meaning an equal prompt.  A request with
``evidence=False`` is answered, and cached, without ``value_steps``.  A
miss decodes through the surrogate, whose prefix cache already reduces
the one-time prompt analysis to the query past the shared ICL prefix —
so a recurring prompt under a new seed needs no cache of its own.

Robustness: bounded-queue backpressure (:class:`ServiceOverloadedError`),
per-request timeouts (:class:`RequestTimeoutError`), and graceful drain on
:meth:`PredictionService.close` / ``with``-exit.
"""

from __future__ import annotations

import abc
import contextlib
import itertools
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import replace
from typing import Iterable, NamedTuple

from repro.core.surrogate import DiscriminativeSurrogate
from repro.dataset.syr2k import Syr2kTask
from repro.errors import RequestTimeoutError, ServiceClosedError
from repro.faults import FaultInjector, FaultPlan
from repro.llm.prefix_cache import DECODE_STATES
from repro.obs import MetricsRegistry, get_tracer
from repro.prompts.builder import PromptParts
from repro.serve.cache import MISS, LRUCache
from repro.serve.request import Request, Response
from repro.serve.scheduler import MicroBatcher, Ticket
from repro.serve.stats import (
    ServiceStats,
    StatsRecorder,
    peak_rss_bytes,
    read_outs,
    service_stats,
)

__all__ = ["PredictionService", "ServiceBase"]

#: LRU capacity of the result cache.
RESULT_CACHE_SIZE = 4096


class _PrefixGroup:
    """One shared-prompt decode group inside a single batch.

    ``seeds`` are the distinct member seeds (admission order); ``stash``
    holds seed -> prediction once the leader has decoded; ``width`` is
    the member-ticket count reported on responses and spans;
    ``evidence`` is whether any member asked for evidence, so the
    leader's decode records it whenever one will read it.
    """

    __slots__ = ("seeds", "stash", "width", "evidence")

    def __init__(self, seeds: list[int], width: int, evidence: bool):
        self.seeds = seeds
        self.width = width
        self.evidence = evidence
        self.stash: dict[int, object] | None = None


class _Lookup(NamedTuple):
    """A request's result-cache key, its entry there, and its prompt.

    ``cached`` is the entry as :meth:`LRUCache.peek` saw it (uncounted,
    recency untouched), or :data:`MISS`.  ``parts`` is the built prompt,
    or ``None`` until a miss needs it: the key is the request's
    ``prompt_key``, so finding a hit builds nothing.
    """

    surrogate: DiscriminativeSurrogate
    result_key: tuple
    cached: object
    parts: PromptParts | None = None


class ServiceBase(abc.ABC):
    """The serving contract: what every backend offers its callers.

    ``submit``, ``submit_async``, ``submit_many``, ``cached_response``,
    ``hold``, ``stats``, ``metrics`` and ``close``, plus the context
    manager (``with``-exit closes, draining unless an error unwinds).
    The in-process :class:`PredictionService`, the sharded
    :class:`~repro.serve.shard.ShardedPredictionService` and the
    :class:`~repro.serve.resilience.ResilientService` wrapper are its
    backends; the drivers (runner, sessions, loadgen, drills) type
    against it alone.

    Shared here: the blocking submit with its timeout and late-discard
    accounting, the bulk submit, the :class:`ServiceStats` view and the
    context manager.  A backend supplies the abstract methods and its
    :class:`StatsRecorder` as ``_stats``; one that batches in-process
    also overrides :meth:`hold`.
    """

    @abc.abstractmethod
    def submit_async(self, request: Request, *, block: bool = False) -> Future:
        """Admit a request; the future resolves to a :class:`Response`.

        Raises :class:`ServiceClosedError` after :meth:`close`, and
        :class:`~repro.errors.ServiceOverloadedError` when admission is
        full, unless ``block=True`` (then it waits for space).
        """

    @abc.abstractmethod
    def cached_response(self, request: Request) -> Response | None:
        """An already-computed answer, without admission or generation
        (``None`` when there is none); counts nothing."""

    @abc.abstractmethod
    def metrics(self) -> MetricsRegistry:
        """A snapshot of the registry this service counts in, owned by
        the caller."""

    @abc.abstractmethod
    def close(self, drain: bool = True) -> None:
        """Shut down, finishing admitted work when ``drain``; idempotent."""

    def submit(self, request: Request) -> Response:
        """Serve one request synchronously.

        Waits up to ``request.timeout_s`` (``None``: indefinitely); on
        expiry the request is cancelled if still queued and
        :class:`RequestTimeoutError` is raised.
        """
        future = self.submit_async(request)
        try:
            return future.result(timeout=request.timeout_s)
        except FuturesTimeoutError:
            if not future.cancel():
                # The work already started: it will finish in the
                # background with nobody left to read it.  Count that
                # discarded late completion instead of dropping it
                # silently (failures/cancellations are already counted
                # through their own paths).
                future.add_done_callback(self._note_late_discard)
            self._stats.timeouts.inc()
            raise RequestTimeoutError(float(request.timeout_s)) from None

    def _note_late_discard(self, future: Future) -> None:
        if not future.cancelled() and future.exception() is None:
            self._stats.late_discards.inc()

    def submit_many(self, requests: Iterable[Request]) -> list[Response]:
        """Serve a bulk workload, preserving input order.

        Admission blocks on queue space rather than raising, so bulk
        submitters cooperate with backpressure instead of tripping it.
        """
        with self.hold():
            futures = [self.submit_async(r, block=True) for r in requests]
        return [f.result() for f in futures]

    def hold(self) -> contextlib.AbstractContextManager:
        """Declare that more requests are on their way, so a batch does
        not flush short while a burst is still being admitted (see
        :meth:`~repro.serve.scheduler.MicroBatcher.hold`).  A backend with
        no in-process batcher has nothing to hold."""
        return contextlib.nullcontext()

    def stats(self) -> ServiceStats:
        """Snapshot current service metrics (the view of :meth:`metrics`)."""
        return service_stats(self.metrics(), self._stats.max_batch_size)

    @property
    def stats_recorder(self) -> StatsRecorder:
        """The live recorder (shared with the resilience wrapper)."""
        return self._stats

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # Drain on clean exit; abandon queued work when unwinding an error.
        self.close(drain=exc_type is None)


class PredictionService(ServiceBase):
    """Batched, cached serving front-end for surrogate predictions.

    Admission keys each request on its ``prompt_key``: a result-cache
    hit is answered there without building, tokenizing or
    fingerprinting a prompt, and a miss builds its prompt once and
    carries it to a batch worker.

    Parameters
    ----------
    surrogate:
        Optional explicit surrogate used for *every* request (its task
        fixes the prompt; ``Request.size`` routing is then ignored).  By
        default surrogates are built lazily per requested size with the
        calibrated default stack, matching what the experiment runner
        uses directly.
    max_batch_size, max_wait_s, queue_capacity, workers:
        Microbatching scheduler knobs (see
        :class:`~repro.serve.scheduler.MicroBatcher`).
    enable_result_cache:
        Result-cache kill-switch (the throughput benchmark measures both
        settings; a disabled cache records no counters).  The capacity
        is :data:`RESULT_CACHE_SIZE`.
    enable_prefix_cache:
        Prefix-reuse kill-switch.  On (default), lazily built per-size
        surrogates carry a :class:`~repro.llm.prefix_cache.PrefixCache`
        of prepared-prefix snapshots, flush batches are sorted so
        same-prompt tickets sit adjacently, and such tickets (differing
        only by seed) share one lockstep batch decode.  Off, every
        request decodes alone on the cold path — bit-identical results
        either way (the benchmark's baseline).  An explicitly
        passed ``surrogate`` keeps its own prefix-cache setting.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` activating deterministic
        fault injection at the service's hook points.  ``service.faults``
        is then its :class:`~repro.faults.FaultInjector`, counting into
        this service's registry (read them with
        ``fault_counts(service.metrics())``).
    """

    def __init__(
        self,
        surrogate: DiscriminativeSurrogate | None = None,
        *,
        max_batch_size: int = 8,
        max_wait_s: float = 0.005,
        queue_capacity: int = 1024,
        workers: int | None = None,
        max_inflight_batches: int | None = None,
        enable_result_cache: bool = True,
        enable_prefix_cache: bool = True,
        fault_plan: FaultPlan | None = None,
    ):
        self._fixed_surrogate = surrogate
        self.enable_prefix_cache = bool(enable_prefix_cache)
        self._surrogates: dict[str, DiscriminativeSurrogate] = {}
        self._surrogate_lock = threading.Lock()
        self.result_cache = (
            LRUCache(RESULT_CACHE_SIZE) if enable_result_cache else None
        )
        self._stats = StatsRecorder(
            max_batch_size,
            cache_levels=("result",) if enable_result_cache else (),
        )
        # Result key -> event set when the worker holding it is done.
        self._claims: dict[tuple, threading.Event] = {}
        self._claims_lock = threading.Lock()
        self._ids = itertools.count()
        # Cache-only serves (cached_response) get negative ids from their
        # own counter: they never pass through admission, and drawing from
        # self._ids would shift every later ticket's admission-ordered id
        # — the key deterministic fault injection is keyed on.
        self._cached_ids = itertools.count(-1, -1)
        self.faults = (
            FaultInjector(fault_plan, registry=self._stats.registry)
            if fault_plan is not None else None
        )
        self._batcher = MicroBatcher(
            self._execute_batch,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            queue_capacity=queue_capacity,
            workers=workers,
            max_inflight_batches=max_inflight_batches,
            fault_injector=self.faults,
        )

    # ------------------------------------------------------------------ #
    # Submission API
    # ------------------------------------------------------------------ #
    def submit_async(self, request: Request, *, block: bool = False) -> Future:
        """Admit a request; the returned future resolves to a `Response`.

        A result-cache hit comes back already resolved, without a prompt
        build.  A miss builds its prompt and is queued for a batch, and
        raises :class:`ServiceOverloadedError` when the
        admission queue is full, unless ``block=True`` (then admission
        waits for space — the cooperative-backpressure mode bulk callers
        use).  A request whose prompt cannot be built resolves to that
        error.
        """
        admitted_at = time.monotonic()
        request_id = next(self._ids)
        if self._batcher.closed:
            self._stats.closed_rejects.inc()
            raise ServiceClosedError("service is shut down")
        try:
            # An id a per-request fault fires for goes through the batcher
            # without a lookup, so the fault hook runs on a batch worker
            # before the prompt is built — exactly where it always has.
            lookup = (
                None if self._fault_due(request_id)
                else self._lookup(request)
            )
            if lookup is not None:
                if lookup.cached is not MISS:
                    return self._serve_hit(
                        request_id, request, lookup, admitted_at
                    )
                lookup = lookup._replace(parts=self._build(lookup, request))
            group_key = request.prompt_key if self.enable_prefix_cache else ""
        except Exception as exc:
            return self._fail_at_admission(request_id, request, admitted_at, exc)
        ticket = Ticket(
            request_id=request_id,
            request=request,
            admitted_at=admitted_at,
            trace_parent=get_tracer().current_span_id(),
            group_key=group_key,
            lookup=lookup,
        )
        try:
            self._batcher.submit(ticket, block=block)
        except ServiceClosedError:
            self._stats.closed_rejects.inc()
            raise
        except Exception:
            self._stats.rejected.inc()
            raise
        self._stats.record_submit_once(ticket)
        return ticket.future

    def _fault_due(self, request_id: int) -> bool:
        """Whether a per-request fault fires for this admission id.

        The plan's decisions are pure functions of the id, so asking has
        no side effects; the hook itself runs later, on a batch worker.
        """
        if self.faults is None:
            return False
        plan = self.faults.plan
        return bool(
            plan.eviction_storm(request_id)
            or plan.latency_spike(request_id)
            or plan.transient_error(request_id)
        )

    def _serve_hit(
        self, request_id: int, request: Request, lookup: _Lookup,
        admitted_at: float,
    ) -> Future:
        """Answer a result-cache hit on the submitting thread."""
        self._stats.record_submit()
        looked_up_at = time.monotonic()
        # Refreshes recency.  The peeked entry is the answer even if
        # evicted since (the engine's determinism contract), so it
        # counts as the hit it is served as.
        self.result_cache.get(lookup.result_key)
        self._stats.record_lookup("result", hit=True)
        done_at = time.monotonic()
        # Recorded after the fact as two buffered tuples: a hit costs a
        # few tens of µs, and opening two spans would add a third.
        tracer = get_tracer()
        root = tracer.record_span(
            "serve.request",
            admitted_at,
            done_at,
            request_id=request_id,
            size=request.size,
            batch_size=1,
            result_cache_hit=True,
            group_width=1,
        )
        tracer.record_span(
            "serve.cache_lookup", looked_up_at, done_at, parent=root,
            level="result",
        )
        response = Response(
            request_id=request_id,
            prediction=lookup.cached,
            latency_s=done_at - admitted_at,
            result_cache_hit=True,
            batch_size=1,
        )
        self._stats.record_done(response.latency_s)
        future: Future = Future()
        future.set_result(response)
        return future

    def _fail_at_admission(
        self, request_id: int, request: Request, admitted_at: float,
        exc: Exception,
    ) -> Future:
        """Resolve a request whose prompt could not be built to its error."""
        get_tracer().record_span(
            "serve.request",
            admitted_at,
            time.monotonic(),
            request_id=request_id,
            size=request.size,
            error=type(exc).__name__,
        )
        self._stats.record_submit()
        self._stats.record_failed()
        future: Future = Future()
        future.set_exception(exc)
        return future

    # ------------------------------------------------------------------ #
    # Lifecycle & introspection
    # ------------------------------------------------------------------ #
    def hold(self) -> contextlib.AbstractContextManager:
        return self._batcher.hold()

    def close(self, drain: bool = True) -> None:
        """Shut down (gracefully draining admitted requests by default)."""
        self._batcher.close(drain=drain)

    def metrics(self) -> MetricsRegistry:
        """A frozen snapshot of this service's registry, with the prefix
        and decode-state lookups, the cache fill gauges and the process's
        ``process.peak_rss_bytes`` (see :mod:`repro.serve.stats`)."""
        snap = self._stats.snapshot()
        snap.gauge("process.peak_rss_bytes").set(peak_rss_bytes())
        cache = self.result_cache
        if cache is not None:
            snap.gauge("cache.entries", level="result").set(len(cache))
            snap.gauge("cache.capacity", level="result").set(cache.capacity)
        if self._fixed_surrogate is not None:
            surrogates = [self._fixed_surrogate]
        else:
            with self._surrogate_lock:
                surrogates = list(self._surrogates.values())
        lookups = {"prefix": [0, 0], "decode": [0, 0]}
        for surrogate in surrogates:
            if surrogate.prefix_cache is not None:
                for level, counts in (
                    ("prefix", surrogate.prefix_cache.snapshot()),
                    ("decode", surrogate.engine.state_lookups()),
                ):
                    lookups[level][0] += counts[0]
                    lookups[level][1] += counts[1]
        for level, (hits, misses) in lookups.items():
            if hits or misses:
                for outcome, n in (("hit", hits), ("miss", misses)):
                    snap.counter("cache.lookups", level=level, outcome=outcome).inc(n)
        if any(lookups["decode"]):
            # Process-wide: every model in this process shares the budget.
            snap.gauge("cache.bytes", level="decode").set(DECODE_STATES.nbytes)
        return read_outs(snap, self._stats.max_batch_size)

    # ------------------------------------------------------------------ #
    # Execution path (batch workers)
    # ------------------------------------------------------------------ #
    def _surrogate_for(self, size: str) -> DiscriminativeSurrogate:
        if self._fixed_surrogate is not None:
            return self._fixed_surrogate
        with self._surrogate_lock:
            surrogate = self._surrogates.get(size)
            if surrogate is None:
                surrogate = DiscriminativeSurrogate(
                    Syr2kTask(size), prefix_cache=self.enable_prefix_cache
                )
                self._surrogates[size] = surrogate
            return surrogate

    def _execute_batch(self, batch: list[Ticket]) -> None:
        """Resolve every ticket of one batch (the scheduler's callback)."""
        self._stats.record_batch(len(batch))
        # Singleton batches skip group planning: there is nothing to share.
        plan = (
            self._group_plan(batch)
            if self.enable_prefix_cache and len(batch) > 1
            else None
        )
        for ticket in batch:
            if not ticket.future.set_running_or_notify_cancel():
                continue  # caller gave up (timeout) before we started
            self._stats.record_submit_once(ticket)
            try:
                response = self._serve_one(
                    ticket,
                    batch_size=len(batch),
                    group=plan.get(ticket.request_id) if plan else None,
                )
            except Exception as exc:  # typed errors propagate to the caller
                self._stats.record_failed()
                ticket.future.set_exception(exc)
            else:
                self._stats.record_done(response.latency_s)
                ticket.future.set_result(response)

    @staticmethod
    def _group_plan(batch: list[Ticket]) -> dict[int, "_PrefixGroup"]:
        """Map request id -> shared-prompt decode group (>= 2 members).

        Tickets whose requests build the same prompt (equal
        ``prompt_key``) are planned into one group: the first member to
        miss the result cache decodes every member seed in a single
        lockstep batch and stashes the predictions for the rest.  The
        batch executes in one worker thread, so groups need no locking.
        """
        by_key: dict[str, list[Ticket]] = {}
        for ticket in batch:
            if ticket.group_key:
                by_key.setdefault(ticket.group_key, []).append(ticket)
        plan: dict[int, _PrefixGroup] = {}
        for members in by_key.values():
            if len(members) < 2:
                continue
            group = _PrefixGroup(
                seeds=list(
                    dict.fromkeys(int(t.request.seed) for t in members)
                ),
                width=len(members),
                evidence=any(t.request.evidence for t in members),
            )
            for ticket in members:
                plan[ticket.request_id] = group
        return plan

    def _lookup(self, request: Request) -> _Lookup:
        """Key the request and peek the result cache; builds nothing.

        The result key is the engine's determinism contract: prompt,
        seed, sampling parameters and token cap fix the generation.  The
        prompt enters as ``request.prompt_key``: equal keys build the
        same prompt for one surrogate, and the surrogate is fixed by the
        key's size (or is the service's only one).  The evidence flag
        keys too, since a lean entry cannot answer a request for the
        logits.
        """
        surrogate = self._surrogate_for(request.size)
        result_key = (
            request.prompt_key,
            int(request.seed),
            surrogate.engine.sampling,
            surrogate.engine.max_new_tokens,
            bool(request.evidence),
        )
        cached = (
            MISS if self.result_cache is None
            else self.result_cache.peek(result_key)
        )
        return _Lookup(surrogate, result_key, cached)

    @staticmethod
    def _build(lookup: _Lookup, request: Request) -> PromptParts:
        """The request's prompt: the one admission built, else built now."""
        if lookup.parts is not None:
            return lookup.parts
        return lookup.surrogate.build_parts(
            request.examples, request.query_config
        )

    def cached_response(self, request: Request) -> Response | None:
        """Serve purely from the result cache — no admission, no generation.

        Returns ``None`` on a miss or when the result cache is disabled.
        This is the first rung of the resilience layer's degradation
        chain, so the lookup uses :meth:`LRUCache.peek`: it is not
        counted and leaves recency alone.
        """
        if self.result_cache is None:
            return None
        prediction = self._lookup(request).cached
        if prediction is MISS:
            return None
        return Response(
            request_id=next(self._cached_ids),
            prediction=prediction,
            latency_s=0.0,
            result_cache_hit=True,
            batch_size=1,
        )

    def _serve_one(
        self,
        ticket: Ticket,
        batch_size: int,
        group: "_PrefixGroup | None" = None,
    ) -> Response:
        request = ticket.request
        tracer = get_tracer()
        # The request root is backdated to admission so its duration is
        # the end-to-end latency the stats report; it parents into the
        # submitting thread's span (carried across the hop on the ticket).
        with tracer.span(
            "serve.request",
            parent=ticket.trace_parent,
            start_s=ticket.admitted_at,
            request_id=ticket.request_id,
            size=request.size,
            batch_size=batch_size,
        ) as root:
            serve_start = time.monotonic()
            tracer.record_span(
                "serve.queue_wait", ticket.enqueued_at, serve_start,
                parent=root.span_id,
            )
            self._stats.queue_wait.observe(serve_start - ticket.enqueued_at)
            if self.faults is not None:
                # Deterministic per-request injection, keyed on the
                # ticket's admission-ordered id: eviction storm / latency
                # spike / transient error (the error propagates as a
                # failed future).
                self.faults.before_request(
                    ticket.request_id, caches=(self.result_cache,)
                )
            lookup = ticket.lookup
            if lookup is None:  # a fault was due: admission looked nothing up
                lookup = self._lookup(request)

            result_hit, group_width = False, 1
            if self.result_cache is None:
                prediction, group_width = self._generate(
                    lookup, request, group
                )
            else:
                with self._claimed(lookup.result_key):
                    # Counted even though admission peeked a miss: a
                    # duplicate may have finished in the meantime.
                    with tracer.span("serve.cache_lookup", level="result"):
                        prediction = self.result_cache.get(lookup.result_key)
                    result_hit = prediction is not MISS
                    self._stats.record_lookup("result", result_hit)
                    if not result_hit:
                        prediction, group_width = self._generate(
                            lookup, request, group
                        )
                        self.result_cache.put(lookup.result_key, prediction)
            root.set(result_cache_hit=result_hit, group_width=group_width)

            return Response(
                request_id=ticket.request_id,
                prediction=prediction,
                latency_s=time.monotonic() - ticket.admitted_at,
                result_cache_hit=result_hit,
                batch_size=batch_size,
                group_width=group_width,
            )

    @contextlib.contextmanager
    def _claimed(self, result_key: tuple):
        """Hold ``result_key`` for this worker, first waiting out any
        other worker that holds it.

        Concurrent batches can carry the same request (a repeat admitted
        while the first was still queued); the later one waits for the
        first's result instead of generating it again.  A worker holds at
        most one key and waits only while holding none, so waits cannot
        form a cycle.
        """
        while True:
            with self._claims_lock:
                holder = self._claims.get(result_key)
                if holder is None:
                    claim = self._claims[result_key] = threading.Event()
                    break
            holder.wait()
        try:
            yield
        finally:
            with self._claims_lock:
                del self._claims[result_key]
            claim.set()

    def _generate(
        self, lookup: _Lookup, request: Request, group: "_PrefixGroup | None"
    ) -> tuple[object, int]:
        """Generate a result-cache miss: ``(prediction, group width)``.

        A solo miss decodes with evidence only if it asked for it; a
        group decodes with it if any member asked, so its stash serves
        members of either flag, and a lean member drops it here.
        """
        seed = int(request.seed)
        prediction = MISS
        if group is not None and group.stash is not None:
            # Follower: the group's leader already decoded this seed in
            # its lockstep batch.
            prediction = group.stash.get(seed, MISS)
        if prediction is MISS:
            # A solo miss decodes as a group of one; a group's leader
            # decodes every member seed in one lockstep batch and stashes
            # the predictions for its followers.
            seeds, evidence = (
                ([seed], request.evidence) if group is None
                else (group.seeds, group.evidence)
            )
            parts = self._build(lookup, request)
            with get_tracer().span("serve.generate") as gen:
                predictions = lookup.surrogate.predict_parts_batch(
                    parts, seeds, evidence=evidence
                )
                if group is None:
                    prediction = predictions[0]
                else:
                    group.stash = dict(zip(seeds, predictions))
                    gen.set(group_width=group.width)
                    self._stats.record_group(group.width)
                    prediction = group.stash[seed]
        if not request.evidence and prediction.value_steps:
            prediction = replace(prediction, value_steps=[])
        return prediction, 1 if group is None else group.width
