"""Tests for service metrics: percentiles, throughput, occupancy, render."""

import functools

import pytest

from repro.obs import Histogram
from repro.serve.stats import ServiceStats, StatsRecorder, service_stats


def view(recorder: StatsRecorder) -> ServiceStats:
    return service_stats(recorder.snapshot(), recorder.max_batch_size)


def make_stats(**overrides) -> ServiceStats:
    base = dict(
        n_submitted=10, n_completed=10, n_failed=0, n_rejected=0,
        n_timeouts=0, n_batches=2, max_batch_size=8, mean_batch_size=5.0,
        p50_latency_s=0.010, p95_latency_s=0.050, throughput_rps=100.0,
        prepare_hits=3, prepare_misses=1, result_hits=6, result_misses=4,
    )
    base.update(overrides)
    return ServiceStats(**base)


class TestServiceStats:
    def test_batch_occupancy(self):
        assert make_stats().batch_occupancy == pytest.approx(5.0 / 8.0)

    def test_occupancy_guard(self):
        assert make_stats(max_batch_size=0).batch_occupancy == 0.0

    def test_hit_rates(self):
        s = make_stats()
        assert s.prepare_hit_rate == pytest.approx(0.75)
        assert s.result_hit_rate == pytest.approx(0.6)

    def test_hit_rates_no_traffic(self):
        s = make_stats(
            prepare_hits=0, prepare_misses=0, result_hits=0, result_misses=0
        )
        assert s.prepare_hit_rate == 0.0 and s.result_hit_rate == 0.0

    def test_render_contains_key_metrics(self):
        out = make_stats().render(title="svc")
        assert "svc" in out
        assert "p95 latency" in out
        assert "result-cache hit rate" in out
        assert "60%" in out
        assert "batch occupancy" in out

    def test_availability_no_traffic_is_perfect(self):
        s = make_stats()
        assert s.n_logical == 0
        assert s.availability == 1.0
        assert s.degraded_rate == 0.0

    def test_availability_counts_degraded_as_served(self):
        s = make_stats(n_logical=10, n_degraded=3, n_unavailable=1)
        assert s.availability == pytest.approx(0.9)
        assert s.degraded_rate == pytest.approx(0.3)

    def test_render_includes_resilience_rows_when_present(self):
        s = make_stats(
            n_logical=10, n_retries=4, n_breaker_trips=1,
            n_degraded=2, n_unavailable=0, n_late_discards=1,
        )
        out = s.render()
        assert "late completions discarded" in out
        assert "retries" in out
        assert "breaker trips" in out
        assert "degraded-serve rate" in out
        assert "availability" in out
        assert "100.00%" in out

    def test_render_omits_resilience_rows_without_logical_traffic(self):
        out = make_stats().render()
        assert "availability" not in out
        assert "breaker trips" not in out
        # The late-discard row is unconditional (it is a base-service
        # leak counter, not a resilience-wrapper one).
        assert "late completions discarded" in out


class TestStatsRecorder:
    def test_latency_percentiles_exact(self):
        r = StatsRecorder(max_batch_size=4)
        for ms in range(1, 101):      # 1..100 ms
            r.record_submit()
            r.record_done(ms / 1000.0)
        s = view(r)
        assert s.n_completed == 100
        assert s.p50_latency_s == pytest.approx(0.0505, abs=1e-3)
        assert s.p95_latency_s == pytest.approx(0.09505, abs=1e-3)

    def test_counters(self):
        r = StatsRecorder(max_batch_size=8)
        r.record_submit()
        r.record_submit()
        r.rejected.inc()
        r.timeouts.inc()
        r.record_batch(2)
        r.record_done(0.01)
        r.record_failed()
        # Cache lookups reach the view through the snapshot's registry.
        snap = r.snapshot()
        lookups = functools.partial(snap.counter, "cache.lookups")
        lookups(level="prepare", outcome="hit").inc(1)
        lookups(level="prepare", outcome="miss").inc(2)
        lookups(level="result", outcome="hit").inc(3)
        lookups(level="result", outcome="miss").inc(4)
        s = service_stats(snap, r.max_batch_size)
        assert s.n_submitted == 2
        assert s.n_rejected == 1
        assert s.n_timeouts == 1
        assert s.n_completed == 1
        assert s.n_failed == 1
        assert s.n_batches == 1 and s.mean_batch_size == 2.0
        assert (s.prepare_hits, s.result_misses) == (1, 4)

    def test_closed_rejects_split_from_overload(self):
        r = StatsRecorder(max_batch_size=8)
        r.rejected.inc()
        r.closed_rejects.inc()
        r.closed_rejects.inc()
        s = view(r)
        assert s.n_rejected == 1
        assert s.n_closed_rejects == 2
        out = s.render()
        assert "requests rejected (overload)" in out
        assert "requests rejected (closed)" in out

    def test_record_failed_leaves_latency_samples_clean(self):
        r = StatsRecorder(max_batch_size=8)
        r.record_submit()
        r.record_done(0.100)
        r.record_failed()
        r.record_failed()
        s = view(r)
        assert s.n_completed == 1
        assert s.n_failed == 2
        # Failures used to force a bogus 0.0 latency sample through the
        # old record_done(0.0, failed=True) API; the percentiles must
        # reflect only genuine completions.  One 0.100 s sample reads as
        # its bucket's upper edge; a stray 0.0 would read ~1e-5.
        assert s.p50_latency_s == pytest.approx(0.100 * 10 ** (1 / 16))
        # Failures still advance the busy window, so throughput has a
        # denominator even when the last event was a failure.
        assert s.throughput_rps > 0.0

    def test_memory_is_bounded(self):
        """Nothing the recorder holds grows with the number of events."""
        r = StatsRecorder(max_batch_size=8)

        def feed(n):
            for i in range(n):
                r.record_done(0.001 * (i % 100 + 1))
                r.queue_wait.observe(0.0001 * (i % 50))
                r.record_batch(i % 8 + 1)
                r.record_group(i % 4 + 1)

        def lengths():
            instruments = r.registry.instruments()
            out = {"instruments": len(instruments)}
            for inst in instruments:
                if isinstance(inst, Histogram):
                    out[inst.key] = len(inst.counts)
            return out

        feed(10)
        after_ten = lengths()
        feed(10**5 - 10)
        assert lengths() == after_ten
        s = view(r)
        assert s.n_completed == s.n_batches == s.n_groups == 10**5

    def test_instruments_are_bound_at_construction(self):
        """Recording never registers an instrument: every one exists
        before the first event, and events only move their values."""
        r = StatsRecorder(max_batch_size=8)
        before = [inst.key for inst in r.registry.instruments()]
        r.record_submit()
        r.record_done(0.01)
        r.record_failed()
        r.record_batch(3)
        r.record_group(2)
        r.queue_wait.observe(0.001)
        for counter in (r.rejected, r.closed_rejects, r.timeouts,
                        r.late_discards, r.logical, r.retries,
                        r.breaker_trips, r.degraded, r.unavailable):
            counter.inc()
        assert [inst.key for inst in r.registry.instruments()] == before

    def test_snapshot_is_frozen(self):
        r = StatsRecorder(max_batch_size=8)
        r.record_done(0.01)
        snap = r.snapshot()
        r.record_done(0.02)
        r.record_batch(4)
        s = service_stats(snap, 8)
        assert (s.n_completed, s.n_batches) == (1, 0)
        assert snap.snapshot()["serve.requests{event=completed}"] == 1

    def test_empty_snapshot(self):
        s = view(StatsRecorder(max_batch_size=8))
        assert s.n_completed == 0
        assert s.p50_latency_s == 0.0 and s.p95_latency_s == 0.0
        assert s.throughput_rps == 0.0
        assert s.mean_batch_size == 0.0

    def test_throughput_positive_after_traffic(self):
        r = StatsRecorder(max_batch_size=1)
        r.record_submit()
        r.record_done(0.001)
        assert view(r).throughput_rps > 0.0

    def test_resilience_counters(self):
        r = StatsRecorder(max_batch_size=8)
        for _ in range(5):
            r.logical.inc()
        r.retries.inc()
        r.retries.inc()
        r.breaker_trips.inc()
        r.degraded.inc()
        r.unavailable.inc()
        r.late_discards.inc()
        s = view(r)
        assert s.n_logical == 5
        assert s.n_retries == 2
        assert s.n_breaker_trips == 1
        assert s.n_degraded == 1
        assert s.n_unavailable == 1
        assert s.n_late_discards == 1
        assert s.availability == pytest.approx(0.8)
        assert s.degraded_rate == pytest.approx(0.2)
