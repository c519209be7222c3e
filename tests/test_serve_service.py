"""End-to-end tests for the :mod:`repro.serve` prediction service.

Covers the façade (submit/submit_many), the result and prefix caches,
batching, backpressure, timeouts, drain/shutdown, and — critically — bit-parity
between served predictions and direct surrogate calls, which is what lets
the experiment runner route paper grids through the service.
"""

import dataclasses
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import quick_grid, run_grid, run_spec
from repro.core.surrogate import DiscriminativeSurrogate
from repro.errors import (
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.faults import fault_counts
from repro.llm.trace import GenerationTrace
from repro.obs import Tracer, use_tracer
from repro.serve import PredictionService, Request, make_service


@pytest.fixture(scope="module")
def examples(sm_dataset):
    return [
        (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
        for i in range(4)
    ]


@pytest.fixture(scope="module")
def surrogate(sm_task):
    return DiscriminativeSurrogate(sm_task)


class SlowSurrogate(DiscriminativeSurrogate):
    """Surrogate with an artificial delay per decode call (test control)."""

    delay_s = 0.05

    def predict_parts_batch(self, parts, seeds, **kwargs):
        time.sleep(self.delay_s)
        return super().predict_parts_batch(parts, seeds, **kwargs)


def make_request(sm_dataset, examples, query=42, seed=0, **kw):
    return Request(
        examples=examples,
        query_config=sm_dataset.config(query),
        seed=seed,
        size="SM",
        **kw,
    )


class TestRequestValidation:
    def test_needs_examples(self, sm_dataset):
        with pytest.raises(ServiceError):
            Request(examples=[], query_config=sm_dataset.config(0))

    def test_rejects_bad_timeout(self, sm_dataset, examples):
        with pytest.raises(ServiceError):
            make_request(sm_dataset, examples, timeout_s=0.0)


class TestServing:
    def test_matches_direct_prediction(self, sm_dataset, examples, surrogate):
        """Served output is bit-identical to a direct surrogate call."""
        direct = surrogate.predict(examples, sm_dataset.config(42), seed=7)
        with PredictionService() as svc:
            resp = svc.submit(make_request(sm_dataset, examples, seed=7))
        assert resp.prediction.generated_text == direct.generated_text
        assert resp.prediction.value == direct.value
        assert resp.prediction.value_text == direct.value_text
        assert resp.value == direct.value

    def test_submit_many_preserves_order(self, sm_dataset, examples, surrogate):
        queries = [10, 99, 42, 10, 7]
        with PredictionService() as svc:
            responses = svc.submit_many(
                make_request(sm_dataset, examples, query=q, seed=q)
                for q in queries
            )
        for q, resp in zip(queries, responses):
            want = surrogate.predict(examples, sm_dataset.config(q), seed=q)
            assert resp.prediction.generated_text == want.generated_text

    def test_result_cache_hit(self, sm_dataset, examples):
        with PredictionService() as svc:
            first = svc.submit(make_request(sm_dataset, examples, seed=3))
            second = svc.submit(make_request(sm_dataset, examples, seed=3))
            assert not first.result_cache_hit
            assert second.result_cache_hit
            # Cached responses share the prediction object.
            assert second.prediction is first.prediction
            stats = svc.stats()
        assert stats.result_hits == 1 and stats.result_misses == 1
        assert stats.n_submitted == stats.n_completed == 2

    def test_new_seed_reuses_prefix(self, sm_dataset, sm_task, examples):
        """Same prompt, new seed: the result cache misses, any prompt
        analysis runs past the warm prefix snapshot (a decode whose every
        step hits the decode-state cache runs none), and the prediction
        equals a surrogate's without prefix reuse."""
        tracer = Tracer()
        with PredictionService() as svc:
            svc.submit(make_request(sm_dataset, examples, seed=1))
            with use_tracer(tracer):
                resp = svc.submit(make_request(sm_dataset, examples, seed=2))
            stats = svc.stats()
        assert not resp.result_cache_hit
        assert (stats.prefix_hits, stats.prefix_misses) == (1, 1)
        for span in tracer.spans():
            if span.name == "llm.prepare":
                assert span.attributes["prefix_reused"] is True
        cold = DiscriminativeSurrogate(sm_task, prefix_cache=False)
        want = cold.predict(examples, sm_dataset.config(42), seed=2)
        got = resp.prediction
        assert (got.value, got.value_text, got.generated_text) == (
            want.value, want.value_text, want.generated_text
        )
        assert len(got.value_steps) == len(want.value_steps)
        for a, b in zip(got.value_steps, want.value_steps):
            assert a.tokens == b.tokens and a.chosen == b.chosen
            assert a.logits.tobytes() == b.logits.tobytes()

    def test_caches_disabled(self, sm_dataset, examples):
        with PredictionService(enable_result_cache=False) as svc:
            svc.submit(make_request(sm_dataset, examples, seed=3))
            resp = svc.submit(make_request(sm_dataset, examples, seed=3))
            assert not resp.result_cache_hit
            stats = svc.stats()
        assert stats.result_hits == 0 and stats.result_misses == 0

    def test_explicit_surrogate_is_used(self, sm_dataset, examples, surrogate):
        with PredictionService(surrogate) as svc:
            resp = svc.submit(make_request(sm_dataset, examples, seed=5))
        want = surrogate.predict(examples, sm_dataset.config(42), seed=5)
        assert resp.prediction.generated_text == want.generated_text

    def test_batching_records_occupancy(self, sm_dataset, examples):
        with PredictionService(max_batch_size=4, max_wait_s=0.05) as svc:
            svc.submit_many(
                make_request(sm_dataset, examples, query=q, seed=q)
                for q in range(8)
            )
            stats = svc.stats()
        assert stats.n_batches >= 2
        assert 0.0 < stats.mean_batch_size <= 4.0
        assert 0.0 < stats.batch_occupancy <= 1.0
        assert stats.p95_latency_s >= stats.p50_latency_s >= 0.0


class TestRobustness:
    def test_timeout(self, sm_task, sm_dataset, examples):
        slow = SlowSurrogate(sm_task)
        slow.delay_s = 0.5
        with PredictionService(slow, max_wait_s=0.0) as svc:
            with pytest.raises(RequestTimeoutError):
                svc.submit(
                    make_request(sm_dataset, examples, timeout_s=0.05)
                )
            assert svc.stats().n_timeouts == 1

    def test_backpressure_overload(self, sm_task, sm_dataset, examples):
        slow = SlowSurrogate(sm_task)
        slow.delay_s = 0.1
        svc = PredictionService(
            slow,
            max_batch_size=1,
            max_wait_s=0.0,
            queue_capacity=1,
            workers=1,
            max_inflight_batches=1,
        )
        futures, rejected = [], 0
        try:
            for i in range(20):
                try:
                    futures.append(
                        svc.submit_async(
                            make_request(sm_dataset, examples, seed=i)
                        )
                    )
                except ServiceOverloadedError as exc:
                    rejected += 1
                    assert exc.capacity == 1
                    assert exc.depth is not None
                    assert 0 <= exc.depth <= exc.capacity
                    assert "queued" in str(exc)
        finally:
            svc.close(drain=True)
        assert rejected >= 1
        assert svc.stats().n_rejected == rejected
        # Everything admitted still completed (graceful drain).
        assert all(f.result().prediction is not None for f in futures)

    def test_submit_after_close(self, sm_dataset, examples):
        svc = PredictionService()
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(make_request(sm_dataset, examples))

    def test_close_idempotent(self):
        svc = PredictionService()
        svc.close()
        svc.close()

    def test_abandon_rejects_queued(self, sm_task, sm_dataset, examples):
        slow = SlowSurrogate(sm_task)
        slow.delay_s = 0.2
        svc = PredictionService(
            slow, max_batch_size=1, max_wait_s=0.0, workers=1,
            max_inflight_batches=1, queue_capacity=8,
        )
        futures = [
            svc.submit_async(make_request(sm_dataset, examples, seed=i))
            for i in range(6)
        ]
        svc.close(drain=False)
        outcomes = []
        for f in futures:
            try:
                f.result(timeout=5)
                outcomes.append("done")
            except ServiceClosedError:
                outcomes.append("rejected")
        assert "rejected" in outcomes  # queued work was abandoned

    def test_nondrain_close_fails_in_hand_partial_batch(self):
        """close(drain=False) must fail the collector's partial batch.

        Pre-fix the sentinel branch flushed and *executed* the in-hand
        partial batch even on a non-drain close, contradicting the
        documented abandon semantics.
        """
        from repro.serve.scheduler import MicroBatcher, Ticket

        executed = []

        def execute(batch):
            executed.append(len(batch))
            for t in batch:
                if t.future.set_running_or_notify_cancel():
                    t.future.set_result("ran")

        # Batch threshold and deadline both unreachably large, and the
        # open hold keeps the idle worker from flushing: the collector
        # picks the tickets up and then just holds them.
        mb = MicroBatcher(
            execute, max_batch_size=64, max_wait_s=60.0, workers=1
        )
        tickets = [Ticket(request_id=i, request=None) for i in range(3)]
        with mb.hold():
            for t in tickets:
                mb.submit(t)
            deadline = time.monotonic() + 5.0
            while mb._queue.qsize() > 0 and time.monotonic() < deadline:
                time.sleep(0.001)  # wait for the collector to take them
            mb.close(drain=False)
        for t in tickets:
            with pytest.raises(ServiceClosedError):
                t.future.result(timeout=5)
        assert executed == []

    def test_closed_reject_not_counted_as_overload(
        self, sm_dataset, examples
    ):
        svc = PredictionService()
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(make_request(sm_dataset, examples))
        stats = svc.stats()
        assert stats.n_closed_rejects == 1
        assert stats.n_rejected == 0  # overload counter stays clean


class TestMicroBatcherDeadline:
    def test_queue_wait_p95_tracks_max_wait_not_poll_tick(self):
        """Regression: the collector polled at a fixed 0.5 s granularity,
        so a lone ticket under ``max_wait_s=0.05`` sat in hand until the
        next poll tick — up to 10x its deadline.  The poll now sleeps
        ``min(_POLL_S, remaining deadline)``; queue wait must track the
        configured deadline, not the tick."""
        from repro.serve.scheduler import _POLL_S, MicroBatcher, Ticket

        waits = []

        def execute(batch):
            now = time.monotonic()
            for t in batch:
                waits.append(now - t.enqueued_at)
                if t.future.set_running_or_notify_cancel():
                    t.future.set_result("ran")

        # Batch threshold unreachable, and the open hold keeps the idle
        # worker from flushing: every flush is deadline-driven.
        mb = MicroBatcher(
            execute, max_batch_size=64, max_wait_s=0.05, workers=1
        )
        try:
            with mb.hold():
                for i in range(20):
                    ticket = Ticket(request_id=i, request=None)
                    mb.submit(ticket)
                    ticket.future.result(timeout=5)
        finally:
            mb.close()
        waits.sort()
        p95 = waits[int(0.95 * (len(waits) - 1))]
        # Well under the old tick; generous headroom for a loaded box.
        assert p95 < _POLL_S / 2, waits


class CountingSurrogate(SlowSurrogate):
    """Surrogate that counts its prompt builds and decodes (test spy)."""

    delay_s = 0.0

    def __init__(self, task):
        super().__init__(task)
        # list.append: atomic across batch workers
        self.builds = []
        self.decodes = []

    def build_parts(self, examples, query_config):
        self.builds.append(1)
        return super().build_parts(examples, query_config)

    def predict_parts_batch(self, parts, seeds, **kwargs):
        self.decodes.extend(seeds)
        return super().predict_parts_batch(parts, seeds, **kwargs)


class TestAdmissionHits:
    """Result-cache hits are answered inside submit_async, unbatched."""

    def test_hit_is_done_at_admission_without_a_batch(
        self, sm_dataset, examples
    ):
        with PredictionService() as svc:
            req = make_request(sm_dataset, examples, seed=11)
            first = svc.submit(req)
            batches = svc.stats().n_batches
            future = svc.submit_async(req)
            assert future.done()
            resp = future.result()
            stats = svc.stats()
        assert resp.result_cache_hit and resp.batch_size == 1
        assert resp.prediction is first.prediction
        assert resp.request_id == first.request_id + 1
        assert stats.n_batches == batches

    @pytest.mark.parametrize("faults", [False, True])
    def test_each_miss_builds_its_prompt_once(
        self, sm_task, sm_dataset, examples, faults
    ):
        """A hit is keyed on ``prompt_key``, so it builds nothing; a miss
        builds at most once (a decode group's follower that admission
        left to the worker reuses its leader's prompt)."""
        from repro.faults import FaultPlan

        spy = CountingSurrogate(sm_task)
        plan = (
            FaultPlan(seed=5, eviction_storm_rate=0.3, latency_spike_rate=0.3,
                      latency_spike_s=0.001)
            if faults else None
        )
        # Two prompts x two seeds, each pair repeated: batched misses,
        # same-prompt decode groups, and admission-time hits.
        requests = [
            make_request(sm_dataset, examples, query=q, seed=s)
            for _ in range(3)
            for q in (10, 11)
            for s in (1, 2)
        ]
        with PredictionService(spy, fault_plan=plan) as svc:
            svc.submit_many(requests[:4])
            for req in requests[4:]:
                svc.submit(req)
            stats = svc.stats()
        assert stats.result_hits + stats.result_misses == len(requests)
        assert 0 < len(spy.builds) <= stats.result_misses
        if not faults:
            assert stats.result_hits == len(requests) - 4
            assert len(spy.builds) == stats.result_misses

    def test_retyped_request_hits_at_admission(
        self, sm_task, sm_dataset, examples
    ):
        """A fresh request whose values differ only in type (numpy or
        ``str`` scalars render the same text) is the same prompt: it
        hits at admission without building anything."""
        import numpy as np

        def retyped(cfg):
            return {
                name: np.int64(v) if isinstance(v, int) and not isinstance(v, bool)
                else str(v)
                for name, v in cfg.items()
            }

        spy = CountingSurrogate(sm_task)
        req = make_request(sm_dataset, examples, seed=21)
        fresh = Request(
            examples=[(retyped(cfg), rt) for cfg, rt in examples],
            query_config=retyped(req.query_config),
            seed=21,
            size="SM",
        )
        with PredictionService(spy) as svc:
            first = svc.submit(req)
            builds = len(spy.builds)
            future = svc.submit_async(fresh)
            assert future.done()
            again = future.result()
        assert builds == 1 and len(spy.builds) == builds
        assert again.result_cache_hit
        assert again.prediction is first.prediction

    def test_reordered_config_misses(self, sm_task, sm_dataset, examples):
        """The same items in another order render another prompt."""
        spy = CountingSurrogate(sm_task)
        req = make_request(sm_dataset, examples, seed=22)
        reordered = Request(
            examples=examples,
            query_config=dict(reversed(list(req.query_config.items()))),
            seed=22,
            size="SM",
        )
        with PredictionService(spy) as svc:
            svc.submit(req)
            resp = svc.submit(reordered)
        assert not resp.result_cache_hit
        assert len(spy.builds) == 2
        assert spy.decodes == [22, 22]

    def test_cached_response_builds_nothing(
        self, sm_task, sm_dataset, examples
    ):
        spy = CountingSurrogate(sm_task)
        req = make_request(sm_dataset, examples, seed=23)
        with PredictionService(spy) as svc:
            assert svc.cached_response(req) is None
            assert spy.builds == []
            first = svc.submit(req)
            cached = svc.cached_response(req)
        assert cached.prediction is first.prediction
        assert len(spy.builds) == 1

    def test_concurrent_duplicate_waits_for_the_first(
        self, sm_task, sm_dataset, examples
    ):
        """A repeat admitted while its first copy is still in flight
        rides another batch on another worker; it waits for the first
        result instead of generating it again."""
        spy = CountingSurrogate(sm_task)
        spy.delay_s = 0.1
        req = make_request(sm_dataset, examples, seed=14)
        with PredictionService(
            spy, max_batch_size=1, max_wait_s=0.0, workers=2
        ) as svc:
            futures = [svc.submit_async(req), svc.submit_async(req)]
            first, again = [f.result(timeout=10) for f in futures]
            stats = svc.stats()
        assert spy.decodes == [14]
        assert stats.n_batches == 2
        assert (stats.result_hits, stats.result_misses) == (1, 1)
        assert again.prediction is first.prediction

    def test_evicted_admission_hit_counts_as_a_hit(self, sm_dataset, examples):
        """An entry evicted between the admission peek and the counted
        lookup is still served, and counted as the hit it was."""
        with PredictionService() as svc:
            req = make_request(sm_dataset, examples, seed=12)
            first = svc.submit(req)
            cache = svc.result_cache
            get = cache.get

            def evict_then_get(key):
                cache.clear()
                return get(key)

            cache.get = evict_then_get
            again = svc.submit(req)
            stats = svc.stats()
        assert again.result_cache_hit
        assert again.prediction is first.prediction
        assert (stats.result_hits, stats.result_misses) == (1, 1)

    @pytest.mark.parametrize("shards", [0, 1])
    def test_scrapes_never_count_ahead_of_submits(
        self, sm_dataset, examples, shards
    ):
        """Every request makes exactly one counted result lookup, and its
        submit is counted before it can be looked up or complete: with
        submitters racing and a scraper reading throughout, no scrape
        sees more result lookups or outcomes than submits, nor more
        submits than were sent."""
        requests = [
            make_request(sm_dataset, examples, query=q % 6, seed=q % 2)
            for q in range(48)
        ]
        sent = []  # list.append: atomic across submitter threads
        errors = []
        stop = threading.Event()

        def submit(part):
            for request in part:
                sent.append(1)
                svc.submit(request)

        def scrape():
            while not stop.is_set():
                stats = svc.stats()
                lookups = stats.result_hits + stats.result_misses
                outcomes = stats.n_completed + stats.n_failed
                # sent is read after the scrape, so it bounds what
                # the scrape could have seen.
                bound = len(sent)
                if not max(lookups, outcomes) <= stats.n_submitted <= bound:
                    errors.append(
                        (lookups, outcomes, stats.n_submitted, bound)
                    )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread interleavings
        try:
            with make_service(
                shards=shards, max_batch_size=4, workers=2
            ) as svc:
                scraper = threading.Thread(target=scrape)
                scraper.start()
                submitters = [
                    threading.Thread(target=submit, args=(requests[t::4],))
                    for t in range(4)
                ]
                for t in submitters:
                    t.start()
                for t in submitters:
                    t.join(timeout=60)
                stop.set()
                scraper.join(timeout=60)
                stats = svc.stats()
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [scraper, *submitters])
        assert not errors
        assert stats.n_submitted == stats.n_completed == len(requests)
        assert stats.result_hits + stats.result_misses == len(requests)

    def test_closed_service_rejects_a_hit(self, sm_dataset, examples):
        svc = PredictionService()
        req = make_request(sm_dataset, examples, seed=13)
        svc.submit(req)
        svc.close()
        assert svc.cached_response(req) is not None  # still cached
        with pytest.raises(ServiceClosedError):
            svc.submit_async(req)
        assert svc.stats().n_closed_rejects == 1

    def test_malformed_query_fails_the_future(self, sm_dataset, examples):
        bad = Request(examples=examples, query_config=["not", "a", "map"])
        with PredictionService() as svc:
            future = svc.submit_async(bad)
            with pytest.raises(AttributeError):
                future.result(timeout=5)
            stats = svc.stats()
        assert stats.n_submitted == stats.n_failed == 1

    def test_faults_meet_every_admission_id_as_planned(
        self, sm_dataset, examples
    ):
        """Hits skip the batcher, yet every admission id meets the plan:
        the fault counts equal the plan's decisions over ids 0..n-1."""
        from repro.faults import FaultPlan

        plan = FaultPlan(
            seed=7, eviction_storm_rate=0.15, latency_spike_rate=0.15,
            latency_spike_s=0.001, transient_error_rate=0.15,
        )
        n = 40
        with PredictionService(fault_plan=plan) as svc:
            failed = hits = 0
            for i in range(n):
                req = make_request(
                    sm_dataset, examples, query=i % 4, seed=i % 2
                )
                try:
                    hits += svc.submit(req).result_cache_hit
                except ServiceError:
                    failed += 1
            got = fault_counts(svc.metrics())
        want = {
            "evictions": sum(plan.eviction_storm(i) for i in range(n)),
            "latency_spikes": sum(
                plan.latency_spike(i) > 0 for i in range(n)
            ),
            "transient_errors": sum(
                plan.transient_error(i) for i in range(n)
            ),
        }
        assert all(want.values())  # every hook actually fired
        assert {k: got[k] for k in want} == want
        assert failed == want["transient_errors"]
        assert hits > 0  # and hits were answered at admission


class TestCachedResponseIds:
    def test_cached_response_ids_negative_and_isolated(
        self, sm_dataset, examples
    ):
        """Cache-only serves draw from their own (negative) id space."""
        with PredictionService() as svc:
            req = make_request(sm_dataset, examples, seed=5)
            assert svc.cached_response(req) is None  # miss: nothing served
            live = svc.submit(req)
            assert live.request_id == 0
            cached = svc.cached_response(req)
            cached2 = svc.cached_response(req)
            assert cached is not None and cached2 is not None
            assert cached.request_id < 0 and cached2.request_id < 0
            assert cached.request_id != cached2.request_id
            # Admission-ordered ids are untouched by the cached serves —
            # pre-fix they shared self._ids and the next live request
            # would have skipped ids 1 and 2.
            live2 = svc.submit(
                make_request(sm_dataset, examples, query=10, seed=5)
            )
            assert live2.request_id == 1

    def test_fault_schedule_immune_to_cached_serves(
        self, sm_dataset, examples
    ):
        """Interleaved degraded cache serves must not shift fault keys.

        Request-level faults are keyed on admission-ordered ticket ids;
        when cached_response consumed those ids, every later request's
        fault decision silently moved.
        """
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=20250806, transient_error_rate=0.3)

        def run(interleave: bool):
            outcomes = []
            with PredictionService(fault_plan=plan) as svc:
                for q in range(12):
                    req = make_request(
                        sm_dataset, examples, query=q % 3, seed=q % 3
                    )
                    if interleave:
                        svc.cached_response(req)
                    try:
                        outcomes.append(svc.submit(req).prediction.value)
                    except ServiceError:
                        outcomes.append(None)
                faults = fault_counts(svc.metrics())
            return outcomes, faults

        plain_outcomes, plain_faults = run(False)
        mixed_outcomes, mixed_faults = run(True)
        assert plain_faults["transient_errors"] >= 1  # the plan fired
        assert mixed_faults == plain_faults
        assert mixed_outcomes == plain_outcomes


def assert_lean_twin(lean, full):
    """``lean`` is ``full`` without its evidence, field by field."""
    for field in dataclasses.fields(full):
        if field.name != "value_steps":
            assert getattr(lean, field.name) == getattr(full, field.name), field.name
    assert lean.value_steps == []


class TestEvidence:
    """``Request.evidence=False`` answers and caches the value without
    ``value_steps``; the flag keys the result cache, nothing else."""

    def test_lean_prediction_is_the_full_one_without_evidence(self, sm_dataset):
        with PredictionService() as svc:

            @settings(max_examples=15, deadline=None)
            @given(
                query=st.integers(0, len(sm_dataset) - 1),
                seed=st.integers(0, 2**31 - 1),
                n_icl=st.integers(1, 5),
                lean_first=st.booleans(),
            )
            def check(query, seed, n_icl, lean_first):
                examples = [
                    (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
                    for i in range(100, 100 + n_icl)
                ]
                flags = (False, True) if lean_first else (True, False)
                got = {
                    flag: svc.submit(make_request(
                        sm_dataset, examples, query=query, seed=seed,
                        evidence=flag,
                    )).prediction
                    for flag in flags
                }
                assert_lean_twin(got[False], got[True])
                assert got[True].value_steps

            check()

    def test_lean_solo_miss_assembles_no_evidence(
        self, sm_dataset, examples, monkeypatch
    ):
        """A lean miss never reads its trace's value region."""
        reads = []
        value_region = GenerationTrace.value_region

        def counting(trace, vocab):
            reads.append(1)
            return value_region(trace, vocab)

        monkeypatch.setattr(GenerationTrace, "value_region", counting)
        with PredictionService() as svc:
            lean = svc.submit(make_request(sm_dataset, examples, seed=4,
                                           evidence=False))
        assert reads == []
        assert lean.prediction.value_steps == [] and lean.prediction.parsed

    def test_full_after_lean_decodes_with_evidence(
        self, sm_task, sm_dataset, examples
    ):
        spy = CountingSurrogate(sm_task)
        with PredictionService(spy) as svc:
            lean = svc.submit(make_request(sm_dataset, examples, seed=4,
                                           evidence=False))
            again = svc.submit(make_request(sm_dataset, examples, seed=4,
                                            evidence=False))
            full = svc.submit(make_request(sm_dataset, examples, seed=4))
            stats = svc.stats()
        assert again.result_cache_hit and again.prediction is lean.prediction
        assert not full.result_cache_hit
        assert spy.decodes == [4, 4]
        assert (stats.result_hits, stats.result_misses) == (1, 2)
        assert full.prediction.value_steps
        assert_lean_twin(lean.prediction, full.prediction)

    def test_mixed_flag_group_decodes_once(self, sm_task, sm_dataset, examples):
        """Flags do not split a lockstep group: its leader decodes each
        seed once, and each member drops evidence by its own flag."""
        spy = CountingSurrogate(sm_task)
        requests = [
            make_request(sm_dataset, examples, seed=seed, evidence=flag)
            for seed, flag in ((1, False), (2, True), (1, True), (3, False))
        ]
        with PredictionService(spy, max_batch_size=4, max_wait_s=0.5) as svc:
            responses = svc.submit_many(requests)
            stats = svc.stats()
        assert spy.decodes == [1, 2, 3]
        assert stats.n_groups == 1
        assert [r.group_width for r in responses] == [4, 4, 4, 4]
        assert [bool(r.prediction.value_steps) for r in responses] == [
            False, True, True, False
        ]
        assert_lean_twin(responses[0].prediction, responses[2].prediction)


class TestRunnerIntegration:
    def test_run_spec_requests_evidence(self, sm_dataset):
        """The grid reads the logits, so its requests keep the default."""

        class Recording(PredictionService):
            def submit_many(self, requests):
                self.requests = list(requests)
                return super().submit_many(self.requests)

        spec = quick_grid(
            sizes=("SM",), icl_counts=(2,), n_sets=1, seeds=(1,),
            selections=("random",), n_queries=2,
        )[0]
        with Recording() as svc:
            served = run_spec(spec, service=svc)
        assert len(svc.requests) == 2
        assert all(r.evidence for r in svc.requests)
        assert all(p.value_steps for p in served)

    def test_run_spec_parity(self, sm_dataset):
        spec = quick_grid(
            sizes=("SM",), icl_counts=(2,), n_sets=1, seeds=(1,),
            selections=("random",), n_queries=2,
        )[0]
        direct = run_spec(spec)
        with PredictionService() as svc:
            served = run_spec(spec, service=svc)
        assert len(direct) == len(served)
        for a, b in zip(direct, served):
            assert a.predicted == b.predicted
            assert a.generated_text == b.generated_text
            assert a.truth == b.truth
            assert a.query_index == b.query_index

    def test_run_grid_through_service(self, sm_dataset):
        specs = quick_grid(
            sizes=("SM",), icl_counts=(1, 2), n_sets=1, seeds=(1,),
            selections=("random",), n_queries=1,
        )
        direct = run_grid(specs, workers=1)
        with PredictionService() as svc:
            served = run_grid(specs, service=svc)
            stats = svc.stats()
        assert [p.predicted for p in served] == [p.predicted for p in direct]
        assert stats.n_completed == len(served)
