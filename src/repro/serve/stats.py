"""Service metrics: latency percentiles, throughput, batching, cache hits.

A :class:`StatsRecorder` is the live, lock-protected accumulator the
service updates on every event; :meth:`StatsRecorder.snapshot` freezes it
into an immutable :class:`ServiceStats` for reporting (the ``repro
serve-bench`` subcommand renders one per configuration).  Latencies and
queue waits stream into log-bucket histograms
(:class:`~repro.obs.metrics.Histogram`), so the recorder's memory and
snapshot cost stay constant over any run length and p50/p95 read at
bucket resolution (within a factor of 10^(1/16) ≈ 1.155).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.obs.metrics import Histogram
from repro.utils.tables import Table
from repro.utils.timing import format_duration

__all__ = ["ServiceStats", "StatsRecorder"]


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
    prepare_hits: int
    prepare_misses: int
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
    #: The bucket counts behind ``p50/p95_queue_wait_s``.  It pickles,
    #: so shards ship it to the parent, which merges the workers'
    #: histograms and reads the cross-shard percentiles off the merge.
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
    def prepare_hit_rate(self) -> float:
        total = self.prepare_hits + self.prepare_misses
        return self.prepare_hits / total if total else 0.0

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
        t.add_row(["prepare-cache hit rate", f"{self.prepare_hit_rate:.0%}"])
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
    """Lock-protected accumulator behind :class:`ServiceStats`.

    Holds two histograms plus counts and sums, nothing that grows with
    the number of events.
    """

    def __init__(self, max_batch_size: int):
        self._lock = threading.Lock()
        self._max_batch_size = int(max_batch_size)
        self._latencies = Histogram()
        self._queue_waits = Histogram()
        self._n_batches = 0
        self._batched = 0  # sum of batch sizes
        self._n_groups = 0
        self._grouped = 0  # sum of group widths
        self._submitted = 0
        self._failed = 0
        self._rejected = 0
        self._closed_rejects = 0
        self._timeouts = 0
        self._late_discards = 0
        self._retries = 0
        self._breaker_trips = 0
        self._degraded = 0
        self._logical = 0
        self._unavailable = 0
        self._first_submit_t: float | None = None
        self._last_done_t: float | None = None

    # ------------------------------------------------------------------ #
    def record_submit(self) -> None:
        with self._lock:
            self._submitted += 1
            if self._first_submit_t is None:
                self._first_submit_t = time.monotonic()

    def record_reject(self) -> None:
        """An overload rejection (queue full — genuine backpressure)."""
        with self._lock:
            self._rejected += 1

    def record_closed_reject(self) -> None:
        """A submission refused because the service was closed/draining."""
        with self._lock:
            self._closed_rejects += 1

    def record_timeout(self) -> None:
        with self._lock:
            self._timeouts += 1

    def record_late_discard(self) -> None:
        """A timed-out request's work completed anyway and was dropped."""
        with self._lock:
            self._late_discards += 1

    def record_retry(self) -> None:
        with self._lock:
            self._retries += 1

    def record_breaker_trip(self) -> None:
        with self._lock:
            self._breaker_trips += 1

    def record_degraded(self) -> None:
        with self._lock:
            self._degraded += 1

    def record_logical(self) -> None:
        """One ``ResilientService.submit`` call (denominator of availability)."""
        with self._lock:
            self._logical += 1

    def record_unavailable(self) -> None:
        """A logical request that ultimately raised to its caller."""
        with self._lock:
            self._unavailable += 1

    def record_batch(self, batch_size: int) -> None:
        with self._lock:
            self._n_batches += 1
            self._batched += int(batch_size)

    def record_queue_wait(self, wait_s: float) -> None:
        """Admission-to-pickup delay for one request."""
        self._queue_waits.observe(max(float(wait_s), 0.0))

    def record_group(self, width: int) -> None:
        """One shared-prompt lockstep decode serving ``width`` requests."""
        with self._lock:
            self._n_groups += 1
            self._grouped += int(width)

    def record_done(self, latency_s: float) -> None:
        """A successful completion with its end-to-end latency."""
        with self._lock:
            self._last_done_t = time.monotonic()
            self._latencies.observe(latency_s)

    def record_failed(self) -> None:
        """A failed request.  Latency-free by design: a failure has no
        meaningful end-to-end latency, and the ``0.0`` the old API forced
        callers to pass would have poisoned the percentiles had it ever
        been recorded."""
        with self._lock:
            self._last_done_t = time.monotonic()
            self._failed += 1

    # ------------------------------------------------------------------ #
    def snapshot(
        self,
        prepare_hits: int = 0,
        prepare_misses: int = 0,
        result_hits: int = 0,
        result_misses: int = 0,
        prefix_hits: int = 0,
        prefix_misses: int = 0,
    ) -> ServiceStats:
        """Freeze current counters (cache counters supplied by the owner)."""
        with self._lock:
            # A private copy: the frozen snapshot must not see later
            # observations.
            waits = Histogram()
            waits.merge(self._queue_waits)
            n_done = self._latencies.n
            window = 0.0
            if self._first_submit_t is not None and self._last_done_t is not None:
                window = max(self._last_done_t - self._first_submit_t, 1e-9)
            return ServiceStats(
                n_submitted=self._submitted,
                n_completed=n_done,
                n_failed=self._failed,
                n_rejected=self._rejected,
                n_closed_rejects=self._closed_rejects,
                n_timeouts=self._timeouts,
                n_batches=self._n_batches,
                max_batch_size=self._max_batch_size,
                mean_batch_size=(
                    self._batched / self._n_batches if self._n_batches else 0.0
                ),
                p50_latency_s=self._latencies.quantile(0.50),
                p95_latency_s=self._latencies.quantile(0.95),
                p50_queue_wait_s=waits.quantile(0.50),
                p95_queue_wait_s=waits.quantile(0.95),
                queue_wait_hist=waits,
                throughput_rps=(n_done / window) if window else 0.0,
                prepare_hits=prepare_hits,
                prepare_misses=prepare_misses,
                result_hits=result_hits,
                result_misses=result_misses,
                prefix_hits=prefix_hits,
                prefix_misses=prefix_misses,
                n_groups=self._n_groups,
                n_group_served=self._grouped,
                mean_group_width=(
                    self._grouped / self._n_groups if self._n_groups else 0.0
                ),
                n_late_discards=self._late_discards,
                n_retries=self._retries,
                n_breaker_trips=self._breaker_trips,
                n_degraded=self._degraded,
                n_logical=self._logical,
                n_unavailable=self._unavailable,
            )
