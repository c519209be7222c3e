"""Service metrics: one registry of counts, and views read off it.

A :class:`StatsRecorder` binds a service's counters and histograms in a
:class:`~repro.obs.metrics.MetricsRegistry` once, at construction, and
the serving code records straight into them — the registry is the only
place the serving stack counts, result-cache lookups and injected
faults included.  :meth:`StatsRecorder.snapshot` freezes a
copy; a backend adds its prefix-cache lookups and cache fill gauges to
it (a sharded parent merges its workers' copies, :data:`WORKER_METRICS`),
:func:`read_outs` sets the percentile, rate and ratio gauges an export
reads, and :func:`service_stats` reads the immutable
:class:`ServiceStats` view the ``repro serve-bench`` report renders.
Latencies, queue waits and batch sizes stream into log-bucket
histograms (:class:`~repro.obs.metrics.Histogram`), so memory and
snapshot cost stay constant over any run length and p50/p95 read at
bucket resolution (within a factor of 10^(1/16) ≈ 1.155).
"""

from __future__ import annotations

import functools
import resource
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.utils.tables import Table
from repro.utils.timing import format_duration

__all__ = [
    "WORKER_METRICS",
    "ServiceStats",
    "StatsRecorder",
    "peak_rss_bytes",
    "read_outs",
    "service_stats",
]

#: The metrics a sharded service's worker replicas count.  The parent
#: admits and answers requests — it owns admission outcomes, end-to-end
#: latency, the resilience wrapper's counts and shard health — while
#: batching, queue waits, decode groups, cache lookups and request-level
#: faults happen inside the workers, so the parent merges these names
#: from every worker incarnation's registry and nothing else.
WORKER_METRICS = frozenset({
    "serve.batches",
    "serve.batch_size",
    "serve.queue_wait_s",
    "serve.prefix_groups",
    "serve.grouped_requests",
    "cache.lookups",
    "faults.injected",
})


@dataclass(frozen=True)
class ServiceStats:
    """A frozen snapshot of service-level metrics.

    Latencies are end-to-end per request from admission: prompt build
    plus, for a result-cache hit, the lookup, or, for a miss, queue wait
    and batch execution.  Batch and queue-wait figures cover misses
    only (hits never queue).  Throughput is completed requests over the
    busy window (first submit to last completion).
    """

    n_submitted: int
    n_completed: int
    n_failed: int
    #: Overload rejections only (queue full); submissions refused because
    #: the service was closed count in ``n_closed_rejects`` — a shutdown
    #: is operator intent, not backpressure, and conflating them made
    #: rejection rates lie during drains.
    n_rejected: int
    n_timeouts: int
    n_batches: int
    max_batch_size: int
    mean_batch_size: float
    p50_latency_s: float
    p95_latency_s: float
    throughput_rps: float
    result_hits: int
    result_misses: int
    #: Submissions refused because the service was closed/draining.
    n_closed_rejects: int = 0
    #: Time spent in the admission queue before a batch worker picked the
    #: request up — the backpressure component of end-to-end latency.
    p50_queue_wait_s: float = 0.0
    p95_queue_wait_s: float = 0.0
    # Prefix-reuse layer (repro.llm.prefix_cache); all zero when the
    # service runs with enable_prefix_cache=False.
    prefix_hits: int = 0
    prefix_misses: int = 0
    #: Shared-prompt decode groups the batch workers executed.
    n_groups: int = 0
    #: Requests served through a group's lockstep decode (leader +
    #: followers).
    n_group_served: int = 0
    mean_group_width: float = 0.0
    # Resilience layer (repro.serve.resilience); all zero when requests
    # bypass the ResilientService wrapper.
    n_late_discards: int = 0
    n_retries: int = 0
    n_breaker_trips: int = 0
    n_degraded: int = 0
    n_logical: int = 0
    n_unavailable: int = 0
    #: Always 0: the service has no prepare cache (a miss's prompt
    #: analysis runs past the prefix snapshot, in the decode).  Kept
    #: because perfbench's traced serve runs read both fields.
    prepare_hits: int = 0
    prepare_misses: int = 0
    #: The bucket counts behind ``p50/p95_queue_wait_s`` (for a sharded
    #: service, the merge of every worker's histogram).
    queue_wait_hist: Histogram = field(
        default_factory=Histogram, compare=False, repr=False
    )

    @property
    def batch_occupancy(self) -> float:
        """Mean batch fill as a fraction of the configured maximum."""
        if self.max_batch_size <= 0:
            return 0.0
        return self.mean_batch_size / self.max_batch_size

    @property
    def result_hit_rate(self) -> float:
        total = self.result_hits + self.result_misses
        return self.result_hits / total if total else 0.0

    @property
    def prefix_hit_rate(self) -> float:
        total = self.prefix_hits + self.prefix_misses
        return self.prefix_hits / total if total else 0.0

    @property
    def availability(self) -> float:
        """Fraction of logical requests answered (degraded ones count).

        A logical request is one ``ResilientService.submit`` call; only
        requests that ultimately raised are unavailable.  1.0 before any
        resilient traffic.
        """
        if self.n_logical <= 0:
            return 1.0
        return 1.0 - self.n_unavailable / self.n_logical

    @property
    def degraded_rate(self) -> float:
        """Fraction of logical requests served via the fallback chain."""
        if self.n_logical <= 0:
            return 0.0
        return self.n_degraded / self.n_logical

    def render(self, title: str = "service stats") -> str:
        """ASCII table of the snapshot (the serve-bench report body)."""
        t = Table(["metric", "value"], title=title)
        t.add_row(["requests submitted", self.n_submitted])
        t.add_row(["requests completed", self.n_completed])
        t.add_row(["requests failed", self.n_failed])
        t.add_row(["requests rejected (overload)", self.n_rejected])
        t.add_row(["requests rejected (closed)", self.n_closed_rejects])
        t.add_row(["requests timed out", self.n_timeouts])
        t.add_row(["throughput (req/s)", round(self.throughput_rps, 1)])
        t.add_row(["p50 latency", format_duration(self.p50_latency_s)])
        t.add_row(["p95 latency", format_duration(self.p95_latency_s)])
        if self.p50_queue_wait_s or self.p95_queue_wait_s:
            t.add_row(
                ["p50 queue wait", format_duration(self.p50_queue_wait_s)]
            )
            t.add_row(
                ["p95 queue wait", format_duration(self.p95_queue_wait_s)]
            )
        t.add_row(["batches dispatched", self.n_batches])
        t.add_row(["mean batch size", round(self.mean_batch_size, 2)])
        t.add_row(["batch occupancy", f"{self.batch_occupancy:.0%}"])
        t.add_row(["result-cache hit rate", f"{self.result_hit_rate:.0%}"])
        if self.prefix_hits or self.prefix_misses:
            t.add_row(["prefix-cache hit rate", f"{self.prefix_hit_rate:.0%}"])
        if self.n_groups:
            t.add_row(["prefix decode groups", self.n_groups])
            t.add_row(["grouped requests", self.n_group_served])
            t.add_row(
                ["mean decode-group width", round(self.mean_group_width, 2)]
            )
        t.add_row(["late completions discarded", self.n_late_discards])
        if self.n_logical:
            t.add_row(["logical requests (resilient)", self.n_logical])
            t.add_row(["retries", self.n_retries])
            t.add_row(["breaker trips", self.n_breaker_trips])
            t.add_row(["degraded serves", self.n_degraded])
            t.add_row(["degraded-serve rate", f"{self.degraded_rate:.1%}"])
            t.add_row(["availability", f"{self.availability:.2%}"])
        return t.render()


class StatsRecorder:
    """A service's instruments, bound once in one registry.

    Events that touch one instrument record through it directly
    (``recorder.timeouts.inc()``, ``recorder.queue_wait.observe(w)``);
    the ``record_*`` methods cover events that touch several, pick one
    of a family, or the busy window behind ``throughput_rps``.  Nothing
    here grows with the number of events.  ``cache_levels`` names the
    enabled caches whose lookups are counted (``cache.lookups{level,
    outcome}``); a backend without caches passes none.
    """

    def __init__(self, max_batch_size: int, cache_levels=()):
        self.max_batch_size = int(max_batch_size)
        self.registry = registry = MetricsRegistry()
        requests = functools.partial(registry.counter, "serve.requests")
        self._submitted = requests(event="submitted")
        self._failed = requests(event="failed")
        #: Overload rejections only (queue full — genuine backpressure).
        self.rejected = requests(event="rejected_overload")
        #: Submissions refused because the service was closed/draining.
        self.closed_rejects = requests(event="rejected_closed")
        self.timeouts = requests(event="timeout")
        #: A timed-out request's work completed anyway and was dropped.
        self.late_discards = requests(event="late_discard")
        #: End-to-end latency of each completion (its count is the
        #: completed-request count).
        self.latency = registry.histogram("serve.latency_s")
        #: Admission-to-pickup delay of each request a batch worker ran.
        self.queue_wait = registry.histogram("serve.queue_wait_s")
        self._batches = registry.counter("serve.batches")
        self._batch_sizes = registry.histogram("serve.batch_size")
        self._groups = registry.counter("serve.prefix_groups")
        self._grouped = registry.counter("serve.grouped_requests")
        self._lookups = {
            (level, hit): registry.counter(
                "cache.lookups", level=level, outcome="hit" if hit else "miss"
            )
            for level in cache_levels
            for hit in (True, False)
        }
        #: One ``ResilientService.submit`` call (availability's
        #: denominator), and its outcomes.
        self.logical = registry.counter("resilience.logical")
        self.retries = registry.counter("resilience.retries")
        self.breaker_trips = registry.counter("resilience.breaker_trips")
        self.degraded = registry.counter("resilience.degraded")
        #: A logical request that ultimately raised to its caller.
        self.unavailable = registry.counter("resilience.unavailable")
        # The busy window: first submit to last completion.  Plain
        # stores (atomic under the GIL), read only by snapshot().
        self._first_submit_t: float | None = None
        self._last_done_t: float | None = None
        #: Guards the ``counted`` flags of :meth:`record_submit_once`.
        self._submit_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def record_submit(self) -> None:
        self._submitted.inc()
        if self._first_submit_t is None:
            self._first_submit_t = time.monotonic()

    def record_submit_once(self, admission) -> None:
        """Count an enqueued request as submitted, exactly once.

        The submitter calls this once its enqueue stands, and whatever
        resolves the request (a batch worker, a shard's collector or
        watchdog) calls it before counting a lookup or an outcome — so
        no scrape sees more lookups or outcomes than submits, and a
        rejected admission never counts.  ``admission`` (a ticket)
        carries the ``counted`` flag.
        """
        with self._submit_lock:
            if admission.counted:
                return
            admission.counted = True
        self.record_submit()

    def record_done(self, latency_s: float) -> None:
        """A successful completion with its end-to-end latency."""
        self._last_done_t = time.monotonic()
        self.latency.observe(latency_s)

    def record_failed(self) -> None:
        """A failed request.  Latency-free by design: a failure has no
        meaningful end-to-end latency, and a placeholder sample would
        poison the percentiles.  It still ends the busy window."""
        self._last_done_t = time.monotonic()
        self._failed.inc()

    def record_batch(self, batch_size: int) -> None:
        self._batches.inc()
        self._batch_sizes.observe(batch_size)

    def record_lookup(self, level: str, hit: bool) -> None:
        """One lookup in the ``level`` cache (``"result"``)."""
        self._lookups[level, hit].inc()

    def record_group(self, width: int) -> None:
        """One shared-prompt lockstep decode serving ``width`` requests."""
        self._groups.inc()
        self._grouped.inc(width)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> MetricsRegistry:
        """A frozen copy of the registry, with the completed-request
        count and the throughput over the busy window."""
        snap = MetricsRegistry()
        snap.merge(self.registry)
        # Re-read the submit count after everything it bounds: a lookup,
        # completion or failure is counted after its submit, so the
        # snapshot never shows more of them than submits.
        submitted = snap.counter("serve.requests", event="submitted")
        submitted.inc(self._submitted.value - submitted.value)
        done = snap.histogram("serve.latency_s").n
        snap.counter("serve.requests", event="completed").inc(done)
        first, last = self._first_submit_t, self._last_done_t
        window = 0.0
        if first is not None and last is not None:
            window = max(last - first, 1e-9)
        snap.gauge("serve.throughput_rps").set(done / window if window else 0.0)
        return snap


def peak_rss_bytes() -> int:
    """This process's peak resident set size in bytes (``ru_maxrss`` is
    in bytes on macOS and in KiB elsewhere)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak if sys.platform == "darwin" else peak * 1024)


def _count(registry: MetricsRegistry, name: str, **labels) -> int:
    inst = registry.get(name, **labels)
    return inst.value if inst is not None else 0


def _histogram(registry: MetricsRegistry, name: str) -> Histogram:
    inst = registry.get(name)
    return inst if inst is not None else Histogram(name)


def read_outs(registry: MetricsRegistry, max_batch_size: int) -> MetricsRegistry:
    """Set the gauges an export reads off a snapshot's counts.

    p50/p95 of the latency and queue-wait histograms, batch occupancy,
    mean decode-group width and availability.  Returns ``registry``.
    """
    for name in ("serve.latency_s", "serve.queue_wait_s"):
        hist = _histogram(registry, name)
        for q in (50, 95):
            registry.gauge(name, quantile=f"p{q}").set(hist.quantile(q / 100))
    mean_batch = _histogram(registry, "serve.batch_size").mean
    registry.gauge("serve.batch_occupancy").set(
        mean_batch / max_batch_size if max_batch_size > 0 else 0.0
    )
    groups = _count(registry, "serve.prefix_groups")
    registry.gauge("serve.mean_group_width").set(
        _count(registry, "serve.grouped_requests") / groups if groups else 0.0
    )
    logical = _count(registry, "resilience.logical")
    registry.gauge("resilience.availability").set(
        1.0 - _count(registry, "resilience.unavailable") / logical
        if logical else 1.0
    )
    return registry


def service_stats(registry: MetricsRegistry, max_batch_size: int) -> ServiceStats:
    """The :class:`ServiceStats` view of a registry snapshot."""
    count = functools.partial(_count, registry)
    requests = functools.partial(count, "serve.requests")
    lookups = functools.partial(count, "cache.lookups")
    latency = _histogram(registry, "serve.latency_s")
    waits = _histogram(registry, "serve.queue_wait_s")
    throughput = registry.get("serve.throughput_rps")
    n_groups = count("serve.prefix_groups")
    grouped = count("serve.grouped_requests")
    return ServiceStats(
        n_submitted=requests(event="submitted"),
        n_completed=latency.n,
        n_failed=requests(event="failed"),
        n_rejected=requests(event="rejected_overload"),
        n_closed_rejects=requests(event="rejected_closed"),
        n_timeouts=requests(event="timeout"),
        n_late_discards=requests(event="late_discard"),
        n_batches=count("serve.batches"),
        max_batch_size=int(max_batch_size),
        mean_batch_size=_histogram(registry, "serve.batch_size").mean,
        p50_latency_s=latency.quantile(0.50),
        p95_latency_s=latency.quantile(0.95),
        p50_queue_wait_s=waits.quantile(0.50),
        p95_queue_wait_s=waits.quantile(0.95),
        queue_wait_hist=waits,
        throughput_rps=throughput.value if throughput is not None else 0.0,
        result_hits=lookups(level="result", outcome="hit"),
        result_misses=lookups(level="result", outcome="miss"),
        prefix_hits=lookups(level="prefix", outcome="hit"),
        prefix_misses=lookups(level="prefix", outcome="miss"),
        n_groups=n_groups,
        n_group_served=grouped,
        mean_group_width=grouped / n_groups if n_groups else 0.0,
        n_retries=count("resilience.retries"),
        n_breaker_trips=count("resilience.breaker_trips"),
        n_degraded=count("resilience.degraded"),
        n_logical=count("resilience.logical"),
        n_unavailable=count("resilience.unavailable"),
    )
