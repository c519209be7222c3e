"""A labelled metrics registry: counters, gauges, histograms.

:class:`MetricsRegistry` is the one place the serving stack counts.
Each backend's :class:`~repro.serve.stats.StatsRecorder` binds its
instruments in a registry once, at construction, and records straight
into them; the :class:`~repro.serve.stats.ServiceStats` view, the
cross-shard aggregate and the exported metrics are all read off that
registry.  Instruments are named and labelled, with one ``snapshot()``
(plain dict, JSON-friendly) and one ``render()`` (ASCII table);
registries pickle, and :meth:`MetricsRegistry.merge` folds one into
another (counters add, histograms merge bucket by bucket), which is how
a sharded parent combines its workers' counts.
:func:`collect_service_metrics` copies a live service's registry into
an export registry.

Metric names are dotted, labels identify the sub-stream::

    registry.counter("cache.lookups", level="result", outcome="hit").inc()
    registry.histogram("serve.latency_s").observe(0.012)

:class:`Histogram` is the one latency distribution in the package:
fixed log-spaced buckets, so memory and quantile cost stay constant
over any run length and histograms from several processes merge
bucket by bucket.  The service registries and the load generator's SLO
reports both use it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve -> obs)
    from repro.serve.service import ServiceBase

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


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Locked:
    """Locks do not pickle; an unpickled copy gets a fresh one."""

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class _Instrument(_Locked):
    """Shared identity: a name plus a frozen, sorted label set."""

    kind = "instrument"

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        #: Render key: ``name{label=value,...}``.
        self.key = name + _label_suffix(labels)
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

        Collectors copy sources that keep their own cumulative counts
        (a service registry, the storage integrity registry); ``inc`` would
        compound the source total on every scrape, so periodic sampling
        writes the absolute value instead — scraping twice is the same
        as scraping once.
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


@functools.lru_cache(maxsize=None)
def _bucket_edges(lo: float, bpd: int, n_buckets: int) -> np.ndarray:
    """One read-only edge array per layout, shared by its histograms."""
    edges = lo * np.power(10.0, np.arange(n_buckets + 1, dtype=np.float64) / bpd)
    edges.flags.writeable = False
    return edges


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
        self.edges = _bucket_edges(self.lo, self.bpd, n_buckets)
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
            self.counts = list(map(operator.add, self.counts, counts))
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


class MetricsRegistry(_Locked):
    """Get-or-create registry of labelled instruments.

    The same ``(name, labels)`` pair always returns the same instrument;
    requesting it as a different kind is an error (one name, one meaning).
    A registry pickles with its instruments' values, so a snapshot can
    cross a process pipe.
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[tuple, _Instrument] = {}

    def _bind(self, kind: str, key: tuple):
        cls = self._KINDS[kind]
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = self._instruments[key] = cls(*key)
            elif not isinstance(inst, cls):
                raise ValueError(
                    f"metric {inst.key!r} already registered as a "
                    f"{inst.kind}, not a {kind}"
                )
            return inst

    def _replace(self, inst: _Instrument) -> None:
        key = (inst.name, inst.labels)
        with self._lock:
            mine = self._instruments.get(key)
            if mine is not None and mine.kind != inst.kind:
                raise ValueError(
                    f"metric {inst.key!r} already registered as a "
                    f"{mine.kind}, not a {inst.kind}"
                )
            self._instruments[key] = inst

    def counter(self, name: str, **labels) -> Counter:
        return self._bind("counter", (name, _label_key(labels)))

    def gauge(self, name: str, **labels) -> Gauge:
        return self._bind("gauge", (name, _label_key(labels)))

    def histogram(self, name: str, **labels) -> Histogram:
        return self._bind("histogram", (name, _label_key(labels)))

    def get(self, name: str, **labels) -> _Instrument | None:
        """The instrument registered under ``name`` and ``labels``, if any
        (a read that, unlike :meth:`counter` and friends, creates none)."""
        with self._lock:
            return self._instruments.get((name, _label_key(labels)))

    def merge(self, other: "MetricsRegistry", names=None) -> None:
        """Fold ``other``'s instruments into this registry.

        Counters add, histograms merge bucket by bucket, and gauges take
        ``other``'s value.  ``names`` (a collection of metric names)
        limits the fold to those metrics.  Merging into an empty
        registry makes a copy that later observations do not touch.
        """
        with other._lock:
            theirs = list(other._instruments.values())
        for inst in theirs:
            if names is not None and inst.name not in names:
                continue
            mine = self._bind(inst.kind, (inst.name, inst.labels))
            if isinstance(inst, Histogram):
                mine.merge(inst)
            elif isinstance(inst, Counter):
                mine.inc(inst.value)
            else:
                mine.set(inst.value)

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
    service: ServiceBase, registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Copy a live service's registry into ``registry`` for export.

    ``service.metrics()`` is the backend's registry snapshot: request
    outcomes, batching, cache lookups, injected faults, resilience and
    (sharded) shard-health counts, with the p50/p95, rate and ratio
    gauges read off them, and on a
    :class:`~repro.serve.resilience.ResilientService` per-route
    circuit-breaker state.  Its counters and gauges land in ``registry``
    as absolute values, replacing what an earlier scrape put there, so
    the telemetry sampler can scrape into the same registry every
    interval without compounding; histograms stay behind, exported
    through their quantile gauges.
    """
    registry = registry if registry is not None else MetricsRegistry()
    # The snapshot is this call's own, so its instruments move over
    # as they are.
    for inst in service.metrics().instruments():
        if not isinstance(inst, Histogram):
            registry._replace(inst)

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
    from repro.core.storage import INTEGRITY_METRICS

    registry = registry if registry is not None else MetricsRegistry()
    for inst in INTEGRITY_METRICS.instruments():
        registry.counter(inst.name).set_absolute(inst.value)
    return registry
