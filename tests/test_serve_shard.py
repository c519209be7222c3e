"""Tests for the sharded multi-process serving backend.

Covers the pure routing function, cross-process error transport, the
``make_service`` backend switch, bit-identical predictions across shard
counts, aggregated stats, and — under the ``chaos`` marker — worker
death: kill → typed ``ShardCrashError`` → respawn → permanent
``ShardFailedError`` at the restart cap, plus checkpointed-grid
recovery to a bit-identical unsharded baseline.

Worker processes boot a full replica each (~seconds on small hosts), so
the live-service tests share one module-scoped 2-shard service; tests
that destroy shard state build their own.
"""

import dataclasses
import pickle
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import load_probes_jsonl, quick_grid, run_grid
from repro.errors import (
    CircuitOpenError,
    InjectedFaultError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ShardCrashError,
    ShardError,
    ShardFailedError,
)
from repro.obs import Histogram
from repro.serve import (
    PredictionService,
    Request,
    ShardedPredictionService,
    StatsRecorder,
    make_service,
    route_shard,
)
from repro.serve.stats import WORKER_METRICS, service_stats


@pytest.fixture(scope="module")
def examples(sm_dataset):
    return [
        (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
        for i in range(4)
    ]


def make_request(sm_dataset, examples, query=42, seed=0, **kw):
    return Request(
        examples=examples,
        query_config=sm_dataset.config(query),
        seed=seed,
        size="SM",
        **kw,
    )


def canonical(responses):
    """Strip serving metadata: the determinism contract covers the
    prediction payload, not latency/batch shape (DESIGN §12)."""
    return [repr(r.prediction) for r in responses]


def probe_key(probe):
    """Identity of a probe for bit-identity checks (mirrors the
    checkpoint tests): spec cell, query, and the exact decode."""
    return (
        probe.spec.cell_key,
        probe.query_index,
        probe.predicted,
        probe.generated_text,
    )


class TestRouteShard:
    def test_in_range_and_deterministic(self):
        keys = [f"prompt-{i}" for i in range(64)]
        for n in (1, 2, 3, 5, 8):
            owners = [route_shard(k, n) for k in keys]
            assert all(0 <= s < n for s in owners)
            assert owners == [route_shard(k, n) for k in keys]

    def test_single_shard_owns_everything(self):
        assert route_shard("anything", 1) == 0

    def test_spreads_load(self):
        owners = {route_shard(f"p{i}", 4) for i in range(256)}
        assert owners == {0, 1, 2, 3}

    def test_route_seed_remaps(self):
        keys = [f"prompt-{i}" for i in range(64)]
        a = [route_shard(k, 4, route_seed=0) for k in keys]
        b = [route_shard(k, 4, route_seed=1) for k in keys]
        assert a != b

    def test_rendezvous_stability(self):
        """Growing the shard count only remaps keys whose winner is the
        new shard — everything else keeps its owner."""
        keys = [f"prompt-{i}" for i in range(256)]
        before = {k: route_shard(k, 4) for k in keys}
        after = {k: route_shard(k, 5) for k in keys}
        for k in keys:
            assert after[k] == before[k] or after[k] == 4

    def test_rejects_zero_shards(self):
        with pytest.raises(ServiceError):
            route_shard("p", 0)


class TestAggregateStats:
    """Cross-shard folding of worker registries, fed in directly."""

    @staticmethod
    def worker(waits=(), batches=(), hits=0):
        r = StatsRecorder(max_batch_size=8)
        for w in waits:
            r.queue_wait.observe(w)
            r.record_done(w)
        for size in batches:
            r.record_batch(size)
        for _ in range(hits):  # admission hits complete without queueing
            r.record_done(1e-4)
        # Snapshots reach the parent through a pickled pipe message.
        return pickle.loads(pickle.dumps(r.snapshot()))

    @staticmethod
    def aggregate(workers):
        """What the sharded parent does: its own snapshot, plus the
        worker-owned metrics of every worker incarnation."""
        merged = StatsRecorder(max_batch_size=8).snapshot()
        for worker in workers:
            merged.merge(worker, WORKER_METRICS)
        return service_stats(merged, 8)

    def test_queue_wait_percentiles_are_read_off_the_merge(self):
        waits = [0.001] * 99 + [1.0]
        union = Histogram()
        for w in waits:
            union.observe(w)
        shards = [self.worker(waits[:99]), self.worker(waits[99:])]
        out = self.aggregate(shards)
        assert out.p50_queue_wait_s == union.quantile(0.50)
        assert out.p95_queue_wait_s == union.quantile(0.95)
        # ~1.15 ms; a completed-weighted mean of per-shard p95s reads
        # 12.7 ms, pulled up by the one slow wait.
        assert out.p95_queue_wait_s == pytest.approx(1.15e-3, rel=0.01)
        assert out.queue_wait_hist.counts == union.counts
        # Completions are the parent's to count, not the workers'.
        assert out.n_completed == 0
        # A shard whose completions were all admission hits never
        # queued anything and adds no weight.
        with_hits = self.aggregate(shards + [self.worker(hits=500)])
        assert with_hits.p50_queue_wait_s == out.p50_queue_wait_s
        assert with_hits.p95_queue_wait_s == out.p95_queue_wait_s

    def test_batch_counters_exact_across_incarnations(self):
        retired = self.worker(batches=[1])
        live = self.worker(batches=[3, 3, 3] + [2] * 8)  # 11 batches, 25
        out = self.aggregate([retired, live])
        assert out.n_batches == 12
        assert out.mean_batch_size == 26 / 12


class TestErrorTransport:
    """Structured errors must survive the worker → parent pickle hop."""

    CASES = [
        (ServiceOverloadedError(8, depth=8), ("capacity", "depth")),
        (RequestTimeoutError(1.5), ("timeout_s",)),
        (InjectedFaultError("worker", "k"), ("site", "key")),
        (CircuitOpenError("SM"), ("route",)),
        (ShardCrashError(3, exitcode=-9), ("shard", "exitcode")),
        (ShardFailedError(2, restarts=4), ("shard", "restarts")),
    ]

    @pytest.mark.parametrize(
        "exc,attrs", CASES, ids=[type(e).__name__ for e, _ in CASES]
    )
    def test_roundtrip(self, exc, attrs):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert str(clone) == str(exc)
        for attr in attrs:
            assert getattr(clone, attr) == getattr(exc, attr)

    def test_shard_errors_are_service_errors(self):
        assert issubclass(ShardCrashError, ShardError)
        assert issubclass(ShardFailedError, ShardError)
        assert issubclass(ShardError, ServiceError)


class TestMakeService:
    def test_zero_shards_is_in_process(self):
        service = make_service(shards=0)
        try:
            assert isinstance(service, PredictionService)
        finally:
            service.close()

    def test_negative_rejected(self):
        with pytest.raises(ServiceError):
            make_service(shards=-1)

    def test_sharded_rejects_surrogate(self, sm_task):
        from repro.core.surrogate import DiscriminativeSurrogate

        with pytest.raises(ServiceError):
            make_service(shards=2, surrogate=DiscriminativeSurrogate(sm_task))

    def test_constructor_validation(self):
        with pytest.raises(ServiceError):
            ShardedPredictionService(0)
        with pytest.raises(ServiceError):
            ShardedPredictionService(2, max_restarts=-1)


@pytest.fixture(scope="module")
def sharded(request):
    service = make_service(shards=2, max_batch_size=4)
    request.addfinalizer(service.close)
    return service


class TestShardedServing:
    """Live 2-shard service: parity with the in-process backend."""

    def workload(self, sm_dataset, examples):
        return [
            make_request(sm_dataset, examples, query=q, seed=s)
            for s in range(2)
            for q in (40, 41, 42)
        ]

    def test_bit_identical_with_unsharded(
        self, sharded, sm_dataset, examples
    ):
        requests = self.workload(sm_dataset, examples)
        with PredictionService(max_batch_size=4) as baseline:
            expect = canonical(baseline.submit_many(requests))
        got = canonical(sharded.submit_many(requests))
        assert got == expect

    def test_request_ids_follow_admission_order(
        self, sharded, sm_dataset, examples
    ):
        requests = self.workload(sm_dataset, examples)
        responses = sharded.submit_many(requests)
        ids = [r.request_id for r in responses]
        assert ids == sorted(ids)

    def test_stats_aggregate_outcomes(self, sharded, sm_dataset, examples):
        stats = sharded.stats()
        assert stats.n_submitted == stats.n_completed
        assert stats.n_submitted >= 12
        assert stats.n_batches >= 2
        assert stats.n_failed == 0

    def test_single_submit(self, sharded, sm_dataset, examples):
        response = sharded.submit(make_request(sm_dataset, examples))
        assert response.prediction is not None
        assert response.latency_s >= 0.0

    def test_cached_response_is_none(self, sharded, sm_dataset, examples):
        assert sharded.cached_response(
            make_request(sm_dataset, examples)
        ) is None

    def test_decode_state_bytes_sum_over_workers(
        self, sharded, sm_dataset, examples
    ):
        """Each worker process holds its own decode-state cache, so the
        parent reports the sum of the workers' byte gauges."""
        sharded.submit_many(self.workload(sm_dataset, examples))
        snap = sharded.metrics().snapshot()
        held = [
            slot.metrics.get("cache.bytes", level="decode")
            for slot in sharded._shards
        ]
        total = sum(gauge.value for gauge in held if gauge is not None)
        assert snap["cache.bytes{level=decode}"] == total > 0
        assert snap["cache.lookups{level=decode,outcome=miss}"] > 0

    def test_shard_info(self, sharded):
        """Shard topology and health are registry instruments."""
        metrics = sharded.metrics()
        assert metrics.get("serve.shards").value == 2
        assert metrics.get("serve.shards_failed").value == 0
        assert metrics.get("serve.shard_respawns").value == 0
        assert metrics.get("serve.shard_crashed_tickets").value == 0


@pytest.mark.parametrize("shards", [0, 1])
def test_repeat_is_served_bit_identically(shards, sm_task, sm_dataset, examples):
    """A repeat is a result-cache hit answered at the replica's admission,
    with the same prediction as the first serve and a direct call."""
    from repro.core.surrogate import DiscriminativeSurrogate

    request = make_request(sm_dataset, examples, query=43, seed=3)
    direct = DiscriminativeSurrogate(sm_task).predict(
        request.examples, request.query_config, seed=request.seed
    )
    with make_service(shards=shards) as service:
        first = service.submit(request)
        again = service.submit(request)
        stats = service.stats()
    assert not first.result_cache_hit and again.result_cache_hit
    assert canonical([first]) == canonical([again]) == [repr(direct)]
    assert (stats.result_hits, stats.result_misses) == (1, 1)


@pytest.mark.chaos
def test_lean_reply_is_the_full_one_without_evidence(sm_dataset):
    """Across the pipe too, ``evidence=False`` changes only
    ``value_steps``, which comes back empty."""
    with make_service(shards=2) as service:

        @settings(max_examples=10, deadline=None)
        @given(
            query=st.integers(0, len(sm_dataset) - 1),
            seed=st.integers(0, 2**31 - 1),
            n_icl=st.integers(1, 5),
        )
        def check(query, seed, n_icl):
            examples = [
                (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
                for i in range(100, 100 + n_icl)
            ]
            lean, full = service.submit_many(
                make_request(sm_dataset, examples, query=query, seed=seed,
                             evidence=flag)
                for flag in (False, True)
            )
            for field in dataclasses.fields(full.prediction):
                if field.name != "value_steps":
                    assert getattr(lean.prediction, field.name) == getattr(
                        full.prediction, field.name
                    ), field.name
            assert lean.prediction.value_steps == []
            assert full.prediction.value_steps
            assert len(pickle.dumps(lean)) < len(pickle.dumps(full)) / 4

        check()


@pytest.mark.chaos
class TestShardDeath:
    def test_kill_crash_respawn_then_fail_permanently(
        self, sm_dataset, examples
    ):
        with make_service(shards=2, max_restarts=1) as service:
            # Find a query routed to shard 0 so the kill provably hits
            # the request in flight.
            victim = next(
                q for q in range(100)
                if route_shard(
                    make_request(sm_dataset, examples, query=q).prompt_key, 2
                ) == 0
            )
            request = make_request(sm_dataset, examples, query=victim)
            future = service.submit_async(request)
            service.kill_shard(0)
            with pytest.raises(ShardCrashError) as err:
                future.result(timeout=30)
            assert err.value.shard == 0
            # The restart budget covers the first death: the respawned
            # shard serves the same prompt again.
            response = service.submit(request)
            assert response.prediction is not None
            assert service.metrics().get("serve.shard_respawns").value == 1
            # Second death exhausts max_restarts=1 → permanent failure.
            # A fresh seed keeps the request off the result cache (which
            # would answer before the kill lands); routing keys on the
            # seed-independent prompt_key, so it still targets shard 0.
            future = service.submit_async(
                make_request(sm_dataset, examples, query=victim, seed=1)
            )
            service.kill_shard(0)
            with pytest.raises(ShardCrashError):
                future.result(timeout=30)
            deadline = time.monotonic() + 10
            while (
                service.metrics().get("serve.shards_failed").value == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            with pytest.raises(ShardFailedError):
                service.submit(request)
            # The sibling shard is unaffected.
            other = next(
                q for q in range(100)
                if route_shard(
                    make_request(sm_dataset, examples, query=q).prompt_key, 2
                ) == 1
            )
            assert service.submit(
                make_request(sm_dataset, examples, query=other)
            ).prediction is not None
        with pytest.raises(ServiceClosedError):
            service.submit(request)

    def test_shard_kills_count_the_planned_dispatches(
        self, sm_dataset, examples
    ):
        """The parent's injector kills (and counts) exactly the dispatch
        indices the plan selects; the merged metrics carry the count."""
        from repro.faults import FaultInjector, FaultPlan, fault_counts

        plan = FaultPlan(seed=1, shard_kill_rate=0.2)
        n = 10
        planned = [i for i in range(n) if plan.shard_kill(i)]
        assert planned == [2, 4, 7]
        crashed = []
        with make_service(
            shards=2, max_restarts=n, fault_plan=plan
        ) as service:
            assert isinstance(service.faults, FaultInjector)
            for i in range(n):
                try:
                    service.submit(
                        make_request(sm_dataset, examples, query=i, seed=i)
                    )
                except ShardCrashError:
                    crashed.append(i)
            counts = fault_counts(service.metrics())
        assert crashed == planned
        assert counts["shard_kills"] == len(planned)
        assert sum(counts.values()) == len(planned)

    def test_grid_resumes_bit_identical_after_shard_kill(self, tmp_path):
        """Satellite: kill every shard mid-grid, assert the typed
        failure, then resume the checkpoint on a fresh sharded service —
        the probes must be bit-identical to an unsharded serial run."""
        specs = quick_grid(
            sizes=("SM",), icl_counts=(1, 2, 3), n_sets=1, seeds=(1,),
            selections=("random",), n_queries=1,
        )
        baseline = run_grid(specs, workers=1)
        checkpoint = tmp_path / "grid.jsonl"

        class KillAfterFirstCell:
            """Service proxy: SIGKILL both shards before the 2nd cell."""

            def __init__(self, inner):
                self._inner = inner
                self._cells = 0

            def submit_many(self, requests):
                self._cells += 1
                if self._cells == 2:
                    self._inner.kill_shard(0)
                    self._inner.kill_shard(1)
                return self._inner.submit_many(requests)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        with make_service(shards=2, max_restarts=0) as service:
            with pytest.raises((ShardCrashError, ShardFailedError)):
                run_grid(
                    specs,
                    service=KillAfterFirstCell(service),
                    checkpoint=checkpoint,
                )
        partial = load_probes_jsonl(checkpoint)
        assert 0 < len(partial) < len(baseline)
        with make_service(shards=2) as service:
            resumed = run_grid(
                specs,
                service=service,
                checkpoint=checkpoint,
                resume=True,
            )
        assert [probe_key(p) for p in resumed] == [
            probe_key(p) for p in baseline
        ]
