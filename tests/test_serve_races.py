"""Shutdown/timeout race coverage for the serving stack.

These tests pin the tricky lifecycle corners: a timed-out request whose
work completes anyway (the late completion must be counted, not leaked),
overload errors reporting observed queue depth, graceful drain with a
batch in flight, and ``submit`` racing ``close`` — which must always end
in a completed ``Response`` or a typed error, never a hung future.
"""

import threading
import time

import pytest

from repro.core.surrogate import DiscriminativeSurrogate
from repro.errors import (
    RequestTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve import PredictionService, Request


@pytest.fixture(scope="module")
def examples(sm_dataset):
    return [
        (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
        for i in range(4)
    ]


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


class TestLateDiscards:
    def test_late_completion_is_counted(self, sm_task, sm_dataset, examples):
        """Timeout while the batch is running: the eventual result is
        discarded, and that discard shows up in the stats."""
        slow = SlowSurrogate(sm_task)
        slow.delay_s = 0.6
        svc = PredictionService(
            slow, max_batch_size=1, max_wait_s=0.0, workers=1
        )
        try:
            with pytest.raises(RequestTimeoutError):
                # 0.2s deadline, 0.6s of work: the batch has started long
                # before the deadline, so cancel fails and the work
                # completes with nobody left to read it.
                svc.submit(
                    make_request(sm_dataset, examples, timeout_s=0.2)
                )
        finally:
            svc.close(drain=True)  # waits out the in-flight batch
        stats = svc.stats()
        assert stats.n_timeouts == 1
        assert stats.n_late_discards == 1
        assert "late completions discarded" in stats.render()

    def test_cancelled_before_start_is_not_a_discard(
        self, sm_task, sm_dataset, examples
    ):
        """A request cancelled while still queued never ran: no discard."""
        slow = SlowSurrogate(sm_task)
        slow.delay_s = 0.3
        svc = PredictionService(
            slow,
            max_batch_size=1,
            max_wait_s=0.0,
            workers=1,
            max_inflight_batches=1,
            queue_capacity=8,
        )
        try:
            # Occupy the single worker, then time out a queued request.
            blocker = svc.submit_async(
                make_request(sm_dataset, examples, seed=1)
            )
            with pytest.raises(RequestTimeoutError):
                svc.submit(
                    make_request(sm_dataset, examples, seed=2, timeout_s=0.05)
                )
            blocker.result(timeout=10)
        finally:
            svc.close(drain=True)
        stats = svc.stats()
        assert stats.n_timeouts == 1
        assert stats.n_late_discards == 0


class TestOverloadReporting:
    def test_error_carries_capacity_and_depth(self):
        exc = ServiceOverloadedError(8, depth=8)
        assert exc.capacity == 8
        assert exc.depth == 8
        assert "8/8 queued" in str(exc)

    def test_depth_defaults_to_capacity_in_message(self):
        exc = ServiceOverloadedError(4)
        assert exc.depth is None
        assert "4/4 queued" in str(exc)

    def test_overloaded_service_reports_depth(
        self, sm_task, sm_dataset, examples
    ):
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
        depths = []
        try:
            for i in range(20):
                try:
                    svc.submit_async(
                        make_request(sm_dataset, examples, seed=i)
                    )
                except ServiceOverloadedError as exc:
                    depths.append(exc.depth)
        finally:
            svc.close(drain=True)
        assert depths, "overload never tripped"
        assert all(d is not None and 0 <= d <= 1 for d in depths)


class TestShutdownRaces:
    def test_drain_resolves_inflight_batch(self, sm_task, sm_dataset, examples):
        """close(drain=True) with work queued and running: every future
        resolves to a Response — none dropped, none hung."""
        slow = SlowSurrogate(sm_task)
        slow.delay_s = 0.05
        svc = PredictionService(
            slow, max_batch_size=2, max_wait_s=0.0, workers=1,
            max_inflight_batches=1,
        )
        futures = [
            svc.submit_async(make_request(sm_dataset, examples, seed=i))
            for i in range(6)
        ]
        svc.close(drain=True)
        for f in futures:
            assert f.result(timeout=10).prediction is not None
        assert svc.stats().n_completed == 6

    def test_submit_racing_close_never_hangs(
        self, sm_task, sm_dataset, examples
    ):
        """Hammer submit against close: every submission deterministically
        ends in a Response or a typed service error within the deadline."""
        slow = SlowSurrogate(sm_task)
        slow.delay_s = 0.002
        for trial in range(4):
            svc = PredictionService(
                slow, max_batch_size=4, max_wait_s=0.0, workers=2
            )
            futures, errors = [], []
            stop = threading.Event()

            def pump():
                for i in range(200):
                    if stop.is_set():
                        break
                    try:
                        futures.append(
                            svc.submit_async(
                                make_request(sm_dataset, examples, seed=i)
                            )
                        )
                    except (ServiceClosedError, ServiceOverloadedError) as exc:
                        errors.append(exc)
                        if isinstance(exc, ServiceClosedError):
                            break

            pumper = threading.Thread(target=pump)
            pumper.start()
            time.sleep(0.01 * (trial + 1))
            svc.close(drain=True)
            stop.set()
            pumper.join(timeout=10)
            assert not pumper.is_alive(), "submitter wedged against close"
            for f in futures:
                # Admitted before the sentinel → a real Response (drain);
                # admitted after → swept/cancelled or closed, both typed.
                if f.cancelled():
                    continue
                try:
                    resp = f.result(timeout=10)
                except ServiceClosedError:
                    continue
                assert resp.prediction is not None

    def test_submit_after_close_still_typed(self, sm_dataset, examples):
        svc = PredictionService()
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(make_request(sm_dataset, examples))
