"""Tests for service metrics: percentiles, throughput, occupancy, render."""

import pytest

from repro.obs import Histogram
from repro.serve.stats import ServiceStats, StatsRecorder


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
        s = r.snapshot()
        assert s.n_completed == 100
        assert s.p50_latency_s == pytest.approx(0.0505, abs=1e-3)
        assert s.p95_latency_s == pytest.approx(0.09505, abs=1e-3)

    def test_counters(self):
        r = StatsRecorder(max_batch_size=8)
        r.record_submit()
        r.record_submit()
        r.record_reject()
        r.record_timeout()
        r.record_batch(2)
        r.record_done(0.01)
        r.record_failed()
        s = r.snapshot(prepare_hits=1, prepare_misses=2,
                       result_hits=3, result_misses=4)
        assert s.n_submitted == 2
        assert s.n_rejected == 1
        assert s.n_timeouts == 1
        assert s.n_completed == 1
        assert s.n_failed == 1
        assert s.n_batches == 1 and s.mean_batch_size == 2.0
        assert (s.prepare_hits, s.result_misses) == (1, 4)

    def test_closed_rejects_split_from_overload(self):
        r = StatsRecorder(max_batch_size=8)
        r.record_reject()
        r.record_closed_reject()
        r.record_closed_reject()
        s = r.snapshot()
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
        s = r.snapshot()
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
                r.record_queue_wait(0.0001 * (i % 50))
                r.record_batch(i % 8 + 1)
                r.record_group(i % 4 + 1)

        def lengths():
            out = {}
            for name, value in vars(r).items():
                if isinstance(value, Histogram):
                    value = value.counts
                if hasattr(value, "__len__"):
                    out[name] = len(value)
            return out

        feed(10)
        after_ten = lengths()
        feed(10**5 - 10)
        assert lengths() == after_ten
        s = r.snapshot()
        assert s.n_completed == s.n_batches == s.n_groups == 10**5

    def test_empty_snapshot(self):
        s = StatsRecorder(max_batch_size=8).snapshot()
        assert s.n_completed == 0
        assert s.p50_latency_s == 0.0 and s.p95_latency_s == 0.0
        assert s.throughput_rps == 0.0
        assert s.mean_batch_size == 0.0

    def test_throughput_positive_after_traffic(self):
        r = StatsRecorder(max_batch_size=1)
        r.record_submit()
        r.record_done(0.001)
        assert r.snapshot().throughput_rps > 0.0

    def test_resilience_counters(self):
        r = StatsRecorder(max_batch_size=8)
        for _ in range(5):
            r.record_logical()
        r.record_retry()
        r.record_retry()
        r.record_breaker_trip()
        r.record_degraded()
        r.record_unavailable()
        r.record_late_discard()
        s = r.snapshot()
        assert s.n_logical == 5
        assert s.n_retries == 2
        assert s.n_breaker_trips == 1
        assert s.n_degraded == 1
        assert s.n_unavailable == 1
        assert s.n_late_discards == 1
        assert s.availability == pytest.approx(0.8)
        assert s.degraded_rate == pytest.approx(0.2)
