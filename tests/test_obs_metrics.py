"""Tests for :mod:`repro.obs.metrics`: instruments, registry, collection.

The registry is where the serving stack counts; the collection tests
drive real services and check that the exported values agree with the
``ServiceStats`` view and the original sources (caches, fault
injector, breakers), for the in-process and the sharded backend.
"""

import math
import pickle
import threading

import numpy as np
import pytest

from repro.obs import Histogram, MetricsRegistry, collect_service_metrics


def rule_quantile(h: Histogram, q: float) -> float:
    """Reference loop for the nearest-rank, intra-bucket-linear rule."""
    if h.n == 0:
        return 0.0
    target = max(1, math.ceil(q * h.n))
    cum = 0
    for k, count in enumerate(h.counts):
        if count and cum + count >= target:
            frac = (target - cum) / count
            return float(h.edges[k] + frac * (h.edges[k + 1] - h.edges[k]))
        cum += count
    raise AssertionError("rank beyond the counts")


class TestInstruments:
    def test_counter_accumulates(self):
        c = MetricsRegistry().counter("events")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("events")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_overwrites(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_percentiles_match_numpy(self):
        """Quantiles are bucket-resolution estimates: within one bucket
        width (a factor of 10**(1/16)) of the exact percentile, and
        exactly the nearest-rank rule's value."""
        h = MetricsRegistry().histogram("latency_s")
        samples = [i / 1000.0 for i in range(1, 101)]
        for s in samples:
            h.observe(s)
        assert h.n == 100
        assert h.total == pytest.approx(sum(samples))
        assert h.mean == pytest.approx(np.mean(samples))
        for q in (50, 90, 95, 99):
            exact = float(np.percentile(samples, q))
            estimate = h.quantile(q / 100)
            assert exact / 1.155 <= estimate <= exact * 1.155
            assert estimate == rule_quantile(h, q / 100)

    def test_empty_histogram_is_zero(self):
        h = MetricsRegistry().histogram("latency_s")
        assert h.n == 0
        assert h.mean == 0.0
        assert h.quantile(0.95) == 0.0

    def test_key_renders_sorted_labels(self):
        c = MetricsRegistry().counter("cache.lookups", outcome="hit",
                                      level="result")
        assert c.key == "cache.lookups{level=result,outcome=hit}"

    def test_key_without_labels_is_bare_name(self):
        assert MetricsRegistry().counter("serve.batches").key == "serve.batches"


class TestHistogram:
    def test_bucket_edges_are_pure_functions_of_layout(self):
        h = Histogram(lo=1e-5, hi=1e3, buckets_per_decade=16)
        # 8 decades x 16 buckets, edges geometric from lo.
        assert len(h.counts) == 128
        assert h.edges[0] == pytest.approx(1e-5)
        assert h.edges[16] == pytest.approx(1e-4)
        assert h.edges[-1] == pytest.approx(1e3)

    def test_single_observation_quantile_pins_owning_bucket(self):
        h = Histogram()
        h.observe(1.0)
        # 1.0 lands exactly on edge index 80 (= 5 decades * 16); the
        # nearest-rank + full-bucket interpolation rule returns the
        # bucket's upper edge.
        expected = 1e-5 * 10.0 ** (81 / 16)
        assert h.quantile(0.5) == pytest.approx(expected)
        assert h.quantile(0.0) == pytest.approx(expected)
        assert h.quantile(1.0) == pytest.approx(expected)

    def test_intra_bucket_linear_interpolation(self):
        h = Histogram()
        for _ in range(4):
            h.observe(0.010)  # all four share one bucket
        k = h._bucket(0.010)
        lower, upper = h.edges[k], h.edges[k + 1]
        # ranks 1..4 of 4: q=0.25 -> frac 1/4, q=1.0 -> frac 4/4
        assert h.quantile(0.25) == pytest.approx(lower + 0.25 * (upper - lower))
        assert h.quantile(1.00) == pytest.approx(upper)

    def test_quantiles_monotone_across_buckets(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.004, 0.008, 0.016, 0.25, 1.0):
            h.observe(v)
        qs = [h.quantile(q) for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_clamping_outside_span(self):
        h = Histogram(lo=1e-3, hi=1e1, buckets_per_decade=4)
        h.observe(1e-9)   # below lo -> first bucket
        h.observe(1e6)    # above hi -> last bucket
        assert h.counts[0] == 1
        assert h.counts[-1] == 1
        assert h.n == 2

    def test_merge_matches_single_stream(self):
        a, b, ref = (Histogram() for _ in range(3))
        for i, v in enumerate([0.001, 0.01, 0.02, 0.5, 1.5, 0.004]):
            (a if i % 2 else b).observe(v)
            ref.observe(v)
        a.merge(b)
        assert a.n == ref.n
        assert a.total == pytest.approx(ref.total)
        for q in (0.25, 0.5, 0.95):
            assert a.quantile(q) == pytest.approx(ref.quantile(q))

    def test_merge_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Histogram().merge(Histogram(lo=1e-4))

    def test_empty_and_invalid(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.observe(-0.1)
        with pytest.raises(ValueError):
            Histogram(lo=1.0, hi=0.1)

    def test_moments_are_exact_not_bucketed(self):
        h = Histogram()
        for v in (0.011, 0.013):
            h.observe(v)
        assert h.mean == pytest.approx(0.012)
        assert h.min == pytest.approx(0.011)
        assert h.max == pytest.approx(0.013)
        assert not math.isinf(h.snapshot()["min"])

    def test_pickle_round_trip_keeps_state(self):
        h = Histogram("serve.queue_wait_s", (("shard", "0"),))
        for v in (0.001, 0.002, 0.5):
            h.observe(v)
        copy = pickle.loads(pickle.dumps(h))
        assert copy.key == h.key
        assert copy.counts == h.counts
        assert (copy.n, copy.total, copy.min, copy.max) == (
            h.n, h.total, h.min, h.max,
        )
        copy.observe(0.003)  # the unpickled copy has a working lock
        assert (copy.n, h.n) == (4, 3)


class TestRegistry:
    def test_get_or_create_identity(self):
        r = MetricsRegistry()
        a = r.counter("hits", level="result")
        b = r.counter("hits", level="result")
        c = r.counter("hits", level="prepare")
        assert a is b
        assert a is not c

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("x")

    def test_snapshot_shapes(self):
        r = MetricsRegistry()
        r.counter("n").inc(3)
        r.gauge("g").set(0.5)
        h = r.histogram("h")
        h.observe(1.0)
        h.observe(3.0)
        snap = r.snapshot()
        assert snap["n"] == 3
        assert snap["g"] == 0.5
        assert snap["h"]["count"] == 2
        assert snap["h"]["mean"] == pytest.approx(2.0)
        assert snap["h"]["sum"] == pytest.approx(4.0)

    def test_render_lists_every_instrument(self):
        r = MetricsRegistry()
        r.counter("serve.batches").inc(2)
        r.gauge("serve.throughput_rps").set(10.0)
        r.histogram("serve.latency_s").observe(0.01)
        out = r.render(title="bench")
        assert "bench" in out
        for key in ("serve.batches", "serve.throughput_rps",
                    "serve.latency_s"):
            assert key in out

    def test_instruments_sorted_by_key(self):
        r = MetricsRegistry()
        r.counter("b")
        r.counter("a", x="2")
        r.counter("a", x="1")
        assert [i.key for i in r.instruments()] == [
            "a{x=1}", "a{x=2}", "b"
        ]

    def test_merge_adds_counters_merges_histograms_sets_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n", k="x").inc(2)
        b.counter("n", k="x").inc(3)
        b.counter("only_b").inc(1)
        a.histogram("h").observe(0.001)
        b.histogram("h").observe(0.5)
        a.gauge("g").set(1.0)
        b.gauge("g").set(7.0)
        a.merge(b)
        assert a.counter("n", k="x").value == 5
        assert a.counter("only_b").value == 1
        assert a.histogram("h").n == 2
        assert a.histogram("h").max == 0.5
        assert a.gauge("g").value == 7.0
        # The source is untouched.
        assert b.counter("n", k="x").value == 3

    def test_merge_limited_to_names(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("kept", k="1").inc(4)
        b.counter("dropped").inc(9)
        a.merge(b, names={"kept"})
        assert a.snapshot() == {"kept{k=1}": 4}

    def test_merge_into_empty_is_a_frozen_copy(self):
        live = MetricsRegistry()
        live.counter("n").inc()
        live.histogram("h").observe(0.01)
        copy = MetricsRegistry()
        copy.merge(live)
        live.counter("n").inc()
        live.histogram("h").observe(0.02)
        assert copy.counter("n").value == 1
        assert copy.histogram("h").n == 1

    def test_get_creates_nothing(self):
        r = MetricsRegistry()
        assert r.get("absent", k="v") is None
        assert r.snapshot() == {}
        c = r.counter("present", k="v")
        assert r.get("present", k="v") is c

    def test_registry_pickles_with_values(self):
        r = MetricsRegistry()
        r.counter("n", k="v").inc(3)
        r.gauge("g").set(0.25)
        r.histogram("h").observe(0.004)
        copy = pickle.loads(pickle.dumps(r))
        assert copy.snapshot() == r.snapshot()
        copy.counter("n", k="v").inc()  # fresh, working locks
        assert (copy.counter("n", k="v").value, r.counter("n", k="v").value) == (4, 3)

    def test_concurrent_increments_are_lossless(self):
        r = MetricsRegistry()
        n_threads, per_thread = 8, 500

        def work():
            for _ in range(per_thread):
                r.counter("hits").inc()
                r.histogram("obs").observe(1.0)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert r.counter("hits").value == n_threads * per_thread
        assert r.histogram("obs").n == n_threads * per_thread


class TestCollectServiceMetrics:
    def test_unifies_service_counters(self, sm_dataset):
        from repro.serve import PredictionService, Request

        examples = [
            (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
            for i in range(3)
        ]
        requests = [
            Request(
                examples=examples,
                query_config=sm_dataset.config(40 + i % 2),
                seed=1,
                size="SM",
            )
            for i in range(6)
        ]
        with PredictionService() as service:
            service.submit_many(requests)
            registry = collect_service_metrics(service)
            stats = service.stats()
            rc = service.result_cache
        snap = registry.snapshot()
        # The registry is a relabelling of the existing sources, value
        # for value — ServiceStats...
        assert snap["serve.requests{event=submitted}"] == stats.n_submitted
        assert snap["serve.requests{event=completed}"] == stats.n_completed
        assert snap["serve.batches"] == stats.n_batches
        assert snap["serve.latency_s{quantile=p95}"] == stats.p95_latency_s
        # ...the lookups the service counted...
        assert snap["cache.lookups{level=result,outcome=hit}"] == stats.result_hits
        assert snap["cache.lookups{level=result,outcome=miss}"] == stats.result_misses
        assert stats.result_hits + stats.result_misses == len(requests)
        # ...and the caches' fill.
        assert snap["cache.entries{level=result}"] == len(rc) == 2
        assert snap["cache.capacity{level=result}"] == rc.capacity

    def test_maps_faults_and_breakers(self, sm_dataset):
        from repro.faults import FaultPlan, fault_counts
        from repro.serve import (
            PredictionService,
            Request,
            ResilientService,
            RetryPolicy,
        )

        examples = [
            (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
            for i in range(3)
        ]
        plan = FaultPlan(seed=20250806, transient_error_rate=0.4)
        with PredictionService(fault_plan=plan) as service:
            resilient = ResilientService(
                service,
                retry_policy=RetryPolicy(max_attempts=4),
                sleep=lambda s: None,
            )
            resilient.submit_many(
                Request(
                    examples=examples,
                    query_config=sm_dataset.config(40 + q),
                    seed=q,
                    size="SM",
                )
                for q in range(8)
            )
            registry = collect_service_metrics(resilient)
            stats = service.stats()
            faults = fault_counts(service.metrics())
        snap = registry.snapshot()
        assert (
            snap["faults.injected{kind=transient_errors}"]
            == faults["transient_errors"]
            >= 1
        )
        assert snap["resilience.retries"] == stats.n_retries
        assert snap["resilience.logical"] == stats.n_logical
        assert snap["resilience.availability"] == stats.availability
        assert (
            snap["breaker.trips{route=SM}"]
            == resilient.breaker("SM").trips
        )
        assert "breaker.open{route=SM}" in snap

    @pytest.mark.parametrize("shards", [0, 1])
    def test_cache_lookups_equal_stats(self, shards, sm_dataset):
        """Both backends export the result cache lookups
        their ServiceStats view reports (the sharded parent has no
        caches of its own; the lookups come from its workers)."""
        from repro.serve import Request, make_service

        examples = [
            (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
            for i in range(3)
        ]
        requests = [
            Request(
                examples=examples,
                query_config=sm_dataset.config(40 + i % 2),
                seed=1,
                size="SM",
            )
            for i in range(6)
        ]
        with make_service(shards=shards) as service:
            service.submit_many(requests)
            snap = collect_service_metrics(service).snapshot()
            stats = service.stats()
        lookups = {
            (level, outcome): snap[
                f"cache.lookups{{level={level},outcome={outcome}}}"
            ]
            for level in ("result",)
            for outcome in ("hit", "miss")
        }
        assert lookups == {
            ("result", "hit"): stats.result_hits,
            ("result", "miss"): stats.result_misses,
        }
        # Two prompts, three copies each: the first of each misses.
        assert (stats.result_hits, stats.result_misses) == (4, 2)
        assert not any("level=prepare" in key for key in snap)

    def test_scraping_twice_equals_scraping_once(self, sm_dataset):
        from repro.serve import PredictionService, Request

        examples = [
            (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
            for i in range(3)
        ]
        request = Request(examples=examples,
                          query_config=sm_dataset.config(40), seed=1,
                          size="SM")
        with PredictionService() as service:
            service.submit_many([request, request])
            registry = collect_service_metrics(service)
            once = registry.snapshot()
            collect_service_metrics(service, registry=registry)
        assert registry.snapshot() == once

    def test_disabled_caches_record_nothing(self, sm_dataset):
        from repro.serve import PredictionService

        with PredictionService(enable_result_cache=False) as service:
            snap = collect_service_metrics(service).snapshot()
        assert not any(key.startswith("cache.") for key in snap)
