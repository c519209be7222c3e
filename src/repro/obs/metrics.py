"""A labelled metrics registry: counters, gauges, histograms.

The serving stack already counts things in four unrelated places —
:class:`~repro.serve.stats.StatsRecorder` (request/latency counters),
:class:`~repro.serve.cache.LRUCache` (hit/miss), ``FaultInjector.stats``
(injected faults), and ``CircuitBreaker.trips`` — each with its own ad-hoc
snapshot and render.  :class:`MetricsRegistry` is the single vocabulary
over all of them: named instruments with label sets, one ``snapshot()``
(plain dict, JSON-friendly) and one ``render()`` (ASCII table).
:func:`collect_service_metrics` maps a live service (and optionally its
resilience wrapper) onto that vocabulary at a point in time.

Metric names are dotted, labels identify the sub-stream::

    registry.counter("cache.lookups", level="result", outcome="hit").inc()
    registry.histogram("serve.latency_s").observe(0.012)

:class:`Histogram` is the one latency distribution in the package:
fixed log-spaced buckets, so memory and quantile cost stay constant
over any run length and histograms from several processes merge
bucket by bucket.  ``StatsRecorder``, the sharded service's
cross-shard aggregate and the load generator's SLO reports all use it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import threading

import numpy as np

from repro.utils.tables import Table

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collect_service_metrics",
]


def _label_suffix(labels: tuple) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class _Instrument:
    """Shared identity: a name plus a frozen, sorted label set."""

    kind = "instrument"

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def key(self) -> str:
        """Render key: ``name{label=value,...}``."""
        return self.name + _label_suffix(self.labels)

    # Locks do not pickle; an unpickled instrument gets a fresh one.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: tuple):
        super().__init__(name, labels)
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up; got inc({n})")
        with self._lock:
            self._value += n

    def set_absolute(self, value: int) -> None:
        """Set the counter to an externally-maintained cumulative total.

        Collectors scrape sources that own their own cumulative counts
        (``ServiceStats``, ``FaultStats``, cache snapshots); ``inc``
        would compound the source total on every scrape, so periodic
        sampling writes the absolute value instead — scraping twice is
        the same as scraping once.
        """
        if value < 0:
            raise ValueError(
                f"counters cannot be negative; got set_absolute({value})"
            )
        with self._lock:
            self._value = int(value)

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """A point-in-time value (set, not accumulated)."""

    kind = "gauge"

    def __init__(self, name: str, labels: tuple):
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """Log-spaced latency histogram: bounded, mergeable, deterministic.

    Buckets span ``[lo, hi)`` with ``buckets_per_decade`` geometric
    steps per factor of ten; observations outside the span clamp into
    the first/last bucket.  Memory and quantile cost are fixed by the
    layout, not by how many values were observed, so a histogram can
    live as long as the process.  Quantiles interpolate linearly
    *inside* the owning bucket, so the estimate is a pure function of
    the counts: identical counts give identical quantiles on every
    host, and merging per-shard histograms gives exactly the histogram
    of the union.  ``n``, ``total``, ``min`` and ``max`` are exact.

    Reads and writes take the instrument's lock, and an instance pickles
    (without the lock), so a snapshot can cross a process pipe.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str = "",
        labels: tuple = (),
        *,
        lo: float = 1e-5,
        hi: float = 1e3,
        buckets_per_decade: int = 16,
    ):
        if not 0 < lo < hi:
            raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        super().__init__(name, labels)
        self.lo = float(lo)
        self.bpd = int(buckets_per_decade)
        n_buckets = int(
            math.ceil(round(math.log10(hi / lo), 9) * self.bpd)
        )
        #: ``edges[k]`` is the lower bound of bucket ``k``; bucket ``k``
        #: covers ``[edges[k], edges[k + 1])``.
        self.edges = self.lo * np.power(
            10.0, np.arange(n_buckets + 1, dtype=np.float64) / self.bpd
        )
        self.counts = [0] * n_buckets
        self.n = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _bucket(self, value: float) -> int:
        if value <= self.lo:
            return 0
        k = int(math.floor(round(math.log10(value / self.lo), 9) * self.bpd))
        return min(k, len(self.counts) - 1)

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0:
            raise ValueError(f"latencies are non-negative, got {value}")
        k = self._bucket(value)
        with self._lock:
            self.counts[k] += 1
            self.n += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (bucket layouts must match)."""
        if (
            other.lo != self.lo
            or other.bpd != self.bpd
            or len(other.counts) != len(self.counts)
        ):
            raise ValueError("cannot merge histograms with different buckets")
        # Read ``other`` under its own lock, then write under ours: never
        # holding both means concurrent a.merge(b) / b.merge(a) cannot
        # deadlock.
        with other._lock:
            counts = other.counts.copy()
            n, total, lo, hi = other.n, other.total, other.min, other.max
        with self._lock:
            self.counts = [a + b for a, b in zip(self.counts, counts)]
            self.n += n
            self.total += total
            self.min = min(self.min, lo)
            self.max = max(self.max, hi)

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.n if self.n else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]); 0.0 when empty.

        The target rank is ``ceil(q * n)`` (nearest-rank), located in
        its bucket, then interpolated linearly between the bucket's
        edges by fractional position — deterministic given the counts.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            return self._quantile(q)

    def _quantile(self, q: float) -> float:
        # Caller holds the lock.
        if self.n == 0:
            return 0.0
        target = max(1, math.ceil(q * self.n))
        cum = list(itertools.accumulate(self.counts))
        k = bisect.bisect_left(cum, target)  # first bucket reaching it
        count = self.counts[k]
        frac = (target - (cum[k] - count)) / count
        lower, upper = self.edges[k], self.edges[k + 1]
        return float(lower + frac * (upper - lower))

    def snapshot(self) -> dict:
        """JSON-friendly exact moments plus the p50/p95 estimates."""
        with self._lock:
            n = self.n
            return {
                "count": n,
                "sum": self.total,
                "mean": self.total / n if n else 0.0,
                "min": self.min if n else 0.0,
                "max": self.max if n else 0.0,
                "p50": self._quantile(0.50),
                "p95": self._quantile(0.95),
            }


class MetricsRegistry:
    """Get-or-create registry of labelled instruments.

    The same ``(name, labels)`` pair always returns the same instrument;
    requesting it as a different kind is an error (one name, one meaning).
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[tuple, _Instrument] = {}

    def _get(self, kind: str, name: str, labels: dict):
        key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        cls = self._KINDS[kind]
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = self._instruments[key] = cls(name, key[1])
            elif not isinstance(inst, cls):
                raise ValueError(
                    f"metric {inst.key!r} already registered as a "
                    f"{inst.kind}, not a {kind}"
                )
            return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", name, labels)

    def instruments(self) -> list[_Instrument]:
        """All instruments, sorted by render key."""
        with self._lock:
            return sorted(self._instruments.values(), key=lambda i: i.key)

    def snapshot(self) -> dict[str, object]:
        """Freeze every instrument into a plain, JSON-friendly dict.

        Counters and gauges map to their value; histograms to their
        :meth:`Histogram.snapshot` sub-dict.
        """
        return {
            inst.key: (
                inst.snapshot() if isinstance(inst, Histogram) else inst.value
            )
            for inst in self.instruments()
        }

    def render(self, title: str = "metrics") -> str:
        """ASCII table of the registry (one row per instrument)."""
        t = Table(["metric", "kind", "value"], title=title)
        for inst in self.instruments():
            if isinstance(inst, Histogram):
                snap = inst.snapshot()
                value = (
                    f"n={snap['count']} mean={snap['mean']:.6g} "
                    f"p50={snap['p50']:.6g} p95={snap['p95']:.6g}"
                )
            elif isinstance(inst, Gauge):
                value = f"{inst.value:.6g}"
            else:
                value = str(inst.value)
            t.add_row([inst.key, inst.kind, value])
        return t.render()


def collect_service_metrics(
    service, resilient=None, registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Unify a live service's scattered counters into one registry.

    Maps :class:`~repro.serve.stats.ServiceStats` (request outcomes,
    latency percentiles, resilience counters), both
    :class:`~repro.serve.cache.LRUCache` levels, the fault injector's
    :class:`~repro.faults.FaultStats`, and — when the ``resilient``
    wrapper is given — per-route circuit-breaker state onto labelled
    instruments.  Idempotent: counters are written as absolute values
    from the sources' own cumulative counts, so the telemetry sampler
    can scrape the same registry every interval without compounding.
    """
    registry = registry if registry is not None else MetricsRegistry()
    stats = service.stats()

    for event, count in (
        ("submitted", stats.n_submitted),
        ("completed", stats.n_completed),
        ("failed", stats.n_failed),
        ("rejected_overload", stats.n_rejected),
        ("rejected_closed", stats.n_closed_rejects),
        ("timeout", stats.n_timeouts),
        ("late_discard", stats.n_late_discards),
    ):
        registry.counter("serve.requests", event=event).set_absolute(count)
    registry.counter("serve.batches").set_absolute(stats.n_batches)
    registry.gauge("serve.batch_occupancy").set(stats.batch_occupancy)
    registry.gauge("serve.throughput_rps").set(stats.throughput_rps)
    registry.gauge("serve.latency_s", quantile="p50").set(stats.p50_latency_s)
    registry.gauge("serve.latency_s", quantile="p95").set(stats.p95_latency_s)
    registry.gauge("serve.queue_wait_s", quantile="p50").set(
        stats.p50_queue_wait_s
    )
    registry.gauge("serve.queue_wait_s", quantile="p95").set(
        stats.p95_queue_wait_s
    )

    for level, cache in (
        ("prepare", service.prepare_cache),
        ("result", service.result_cache),
    ):
        if cache is None:
            continue
        # One locked snapshot per level: reading hits and misses as two
        # separate calls can tear around a concurrent lookup and report
        # a hit rate above 1.0.
        hits, misses, size = cache.snapshot()
        registry.counter(
            "cache.lookups", level=level, outcome="hit"
        ).set_absolute(hits)
        registry.counter(
            "cache.lookups", level=level, outcome="miss"
        ).set_absolute(misses)
        registry.gauge("cache.entries", level=level).set(size)
        registry.gauge("cache.capacity", level=level).set(cache.capacity)

    # Prefix-reuse layer: snapshot cache hit/miss plus decode grouping.
    if stats.prefix_hits or stats.prefix_misses:
        registry.counter(
            "cache.lookups", level="prefix", outcome="hit"
        ).set_absolute(stats.prefix_hits)
        registry.counter(
            "cache.lookups", level="prefix", outcome="miss"
        ).set_absolute(stats.prefix_misses)
    if stats.n_groups:
        registry.counter("serve.prefix_groups").set_absolute(stats.n_groups)
        registry.counter("serve.grouped_requests").set_absolute(
            stats.n_group_served
        )
        registry.gauge("serve.mean_group_width").set(stats.mean_group_width)

    if service.faults is not None:
        for kind, count in service.faults.stats.snapshot().items():
            registry.counter("faults.injected", kind=kind).set_absolute(count)

    # Sharded backend: topology and worker-death accounting (duck-typed;
    # the single-process service has no shard_info attribute).
    shard_info = getattr(service, "shard_info", None)
    if shard_info is not None:
        registry.gauge("serve.shards").set(shard_info["n_shards"])
        registry.gauge("serve.shards_failed").set(shard_info["failed"])
        registry.counter("serve.shard_respawns").set_absolute(
            shard_info["respawns"]
        )
        registry.counter("serve.shard_crashed_tickets").set_absolute(
            shard_info["crashed_tickets"]
        )

    for name, count in (
        ("logical", stats.n_logical),
        ("retries", stats.n_retries),
        ("breaker_trips", stats.n_breaker_trips),
        ("degraded", stats.n_degraded),
        ("unavailable", stats.n_unavailable),
    ):
        registry.counter(f"resilience.{name}").set_absolute(count)
    registry.gauge("resilience.availability").set(stats.availability)

    if resilient is not None:
        for route, breaker in resilient.breakers.items():
            registry.counter("breaker.trips", route=route).set_absolute(
                breaker.trips
            )
            registry.gauge("breaker.open", route=route).set(
                1.0 if breaker.state == "open" else 0.0
            )

    collect_storage_metrics(registry)
    return registry


def collect_storage_metrics(
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Map the process-wide storage-integrity counters onto the registry.

    ``storage.crc_failures`` (frames whose checksum did not verify),
    ``storage.records_quarantined`` (lines copied to ``.quarantine``
    sidecars), and ``storage.recoveries`` (tolerant loads or repairs
    that found damage).  All zero on a healthy node — any non-zero value
    is an alarm, not noise.
    """
    # Imported lazily: storage pulls in the runner/obs stack and the
    # metrics module must stay importable on its own.
    from repro.core.storage import integrity_counters

    registry = registry if registry is not None else MetricsRegistry()
    for name, count in integrity_counters().items():
        registry.counter(f"storage.{name}").set_absolute(count)
    return registry
