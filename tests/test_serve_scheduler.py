"""The microbatcher is work-conserving: an idle worker never waits.

A partial batch flushes as soon as a batch worker is idle, the queue is
empty and no caller holds the scheduler open; ``max_wait_s`` only binds
while every worker is busy or a burst is still being admitted.  Every
test here sets ``max_wait_s=60`` so that a flush which waited out the
deadline would blow the generous timeouts, and asserts batch counts
rather than wall-clock ratios.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.dataset import Syr2kPerformanceModel, Syr2kTask, syr2k_space
from repro.obs import Tracer, use_tracer
from repro.serve import PredictionService
from repro.serve.scheduler import MicroBatcher, Ticket
from repro.sessions import DONE, SessionManager, TuningSession
from repro.tuning import RandomSearchTuner, run_tuner

#: Longer than any test may take: reaching it means the flush waited.
NEVER_S = 60.0


class Recorder:
    """``execute_batch`` spy: records batch sizes; a batch whose first
    ticket id is in ``gated`` blocks until ``gate`` is set."""

    def __init__(self, gated=()):
        self.sizes: list[int] = []
        self.gated = set(gated)
        self.gate = threading.Event()
        self.started = threading.Event()

    def __call__(self, batch):
        self.sizes.append(len(batch))
        if batch[0].request_id in self.gated:
            self.started.set()
            self.gate.wait(timeout=30)
        for ticket in batch:
            if ticket.future.set_running_or_notify_cancel():
                ticket.future.set_result(ticket.request_id)


def _wait_taken(mb: MicroBatcher) -> None:
    """Wait until the collector has taken every queued ticket in hand."""
    deadline = time.monotonic() + 5.0
    while mb._queue.qsize() > 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.05)  # let the collector act on its last pickup


def test_lone_ticket_with_idle_worker_flushes_at_once():
    spy = Recorder()
    mb = MicroBatcher(spy, max_batch_size=8, max_wait_s=NEVER_S, workers=1)
    try:
        ticket = Ticket(request_id=0, request=None)
        mb.submit(ticket)
        assert ticket.future.result(timeout=1.0) == 0
    finally:
        mb.close()
    assert spy.sizes == [1]


def test_batch_held_behind_a_busy_worker_flushes_when_it_frees():
    spy = Recorder(gated={0})
    mb = MicroBatcher(spy, max_batch_size=8, max_wait_s=NEVER_S, workers=1)
    try:
        first = Ticket(request_id=0, request=None)
        mb.submit(first)
        assert spy.started.wait(timeout=5.0)  # the one worker is busy
        queued = [Ticket(request_id=i, request=None) for i in (1, 2)]
        for ticket in queued:
            mb.submit(ticket)
        _wait_taken(mb)
        assert spy.sizes == [1]  # held: no idle worker to take them
        spy.gate.set()
        assert [t.future.result(timeout=5.0) for t in queued] == [1, 2]
        assert first.future.result(timeout=5.0) == 0
    finally:
        spy.gate.set()
        mb.close()
    assert spy.sizes == [1, 2]


def test_tickets_submitted_inside_hold_flush_as_one_batch():
    spy = Recorder()
    mb = MicroBatcher(spy, max_batch_size=8, max_wait_s=NEVER_S, workers=1)
    try:
        tickets = [Ticket(request_id=i, request=None) for i in range(3)]
        with mb.hold():
            for ticket in tickets:
                mb.submit(ticket)
            _wait_taken(mb)
            assert spy.sizes == []  # the idle worker waits for the burst
        assert [t.future.result(timeout=5.0) for t in tickets] == [0, 1, 2]
    finally:
        mb.close()
    assert spy.sizes == [3]


def test_counts_and_wakes_survive_concurrent_submitters():
    """Stress: more workers and submitters than cores, a tiny switch
    interval, holds opening and closing on every thread.  A lost update
    to the busy or hold count, or a lost wake, leaves a ticket waiting
    out the 60 s deadline and the counts off zero."""
    spy = Recorder()
    mb = MicroBatcher(spy, max_batch_size=4, max_wait_s=NEVER_S, workers=4)
    n_clients, n_each = 8, 40

    def client(c: int) -> None:
        for i in range(n_each):
            ticket = Ticket(request_id=c * n_each + i, request=None)
            if i % 2:
                with mb.hold():
                    mb.submit(ticket)
            else:
                mb.submit(ticket)
            ticket.future.result(timeout=10.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(n_clients) as pool:
            list(pool.map(client, range(n_clients)))
    finally:
        sys.setswitchinterval(interval)
        mb.close()
    assert sum(spy.sizes) == n_clients * n_each
    assert (mb._busy, mb._holds) == (0, 0)


def _flush_reasons(tracer: Tracer) -> list[str]:
    return [
        s.attributes["reason"]
        for s in tracer.spans()
        if s.name == "serve.flush"
    ]


def test_flush_span_records_its_reason():
    spy = Recorder()
    tracer = Tracer()
    with use_tracer(tracer):
        mb = MicroBatcher(
            spy, max_batch_size=4, max_wait_s=NEVER_S, workers=1
        )
        try:
            # A closed loop with one client: every flush finds the worker
            # idle and nothing else coming.
            for i in range(5):
                ticket = Ticket(request_id=i, request=None)
                mb.submit(ticket)
                ticket.future.result(timeout=5.0)
            assert _flush_reasons(tracer) == ["idle"] * 5
            # A held burst of max_batch_size fills the batch.
            burst = [Ticket(request_id=10 + i, request=None) for i in range(4)]
            with mb.hold():
                for ticket in burst:
                    mb.submit(ticket)
            for ticket in burst:
                ticket.future.result(timeout=5.0)
        finally:
            mb.close()
    assert _flush_reasons(tracer) == ["idle"] * 5 + ["size"]
    assert spy.sizes == [1] * 5 + [4]


@pytest.fixture(scope="module")
def model():
    return Syr2kPerformanceModel(Syr2kTask("SM"))


def test_sessions_sharing_a_trajectory_batch_each_wave(model):
    """Four campaigns with one tuner seed propose the same prompt each
    step: each tick's dispatches are one held burst, so every wave is
    one batch of 4 that flushes as soon as it is admitted."""
    n_tenants, budget = 4, 4
    sessions = [
        TuningSession(
            f"t{i}/s0", f"t{i}",
            RandomSearchTuner(syr2k_space(), seed=3), model, budget,
            seed=100 + i,
        )
        for i in range(n_tenants)
    ]
    with PredictionService(max_batch_size=8, max_wait_s=NEVER_S) as service:
        with SessionManager(service, sessions=sessions) as manager:
            start = time.monotonic()
            manager.run()
            elapsed = time.monotonic() - start
        stats = service.stats()
    assert elapsed < 30.0  # one deadline wait alone would take 60 s
    assert (stats.n_batches, stats.n_completed) == (budget, n_tenants * budget)
    assert stats.mean_batch_size == n_tenants
    reference = run_tuner(RandomSearchTuner(syr2k_space(), seed=3), model, budget)
    for session in sessions:
        assert session.state == DONE
        assert session.history.indices == reference.history.indices
