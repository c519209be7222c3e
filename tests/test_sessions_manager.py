"""Tests for the session manager: fairness, lifecycle, resume, faults.

Most tests drive the manager against a :class:`StubService` whose
futures resolve immediately — the manager's determinism contract says
histories must be independent of the serving backend, so everything
pinned here (fairness, resume exactness, run_tuner equality) holds for
the real service too (covered by one integration test at the end and
the sessions benchmarks).
"""

import contextlib
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.core.storage import load_events_jsonl
from repro.dataset import Syr2kPerformanceModel, Syr2kTask, syr2k_space
from repro.errors import (
    InjectedFaultError,
    ServiceOverloadedError,
    SessionError,
)
from repro.sessions import (
    DONE,
    EVENT_KIND,
    FAILED,
    PAUSED,
    AdmissionController,
    SessionManager,
    TenantQuota,
    TuningSession,
    collect_session_metrics,
    jains_index,
    replay_log,
)
from repro.tuning import RandomSearchTuner
from repro.tuning.harness import run_tuner


def ok_response(value=0.5):
    return SimpleNamespace(value=value, provenance="stub", degraded=False)


class StubService:
    """Async-capable fake: every submit resolves instantly.

    ``overload_first`` makes the first N submits raise
    :class:`ServiceOverloadedError` (the shed path);
    ``fail_submits`` is a set of 1-based submit ordinals whose futures
    resolve to an :class:`InjectedFaultError` (the eval-retry path).
    """

    def __init__(self, overload_first=0, fail_submits=()):
        self.n_submits = 0
        self.overload_first = overload_first
        self.fail_submits = set(fail_submits)
        self.requests = []

    def hold(self):
        return contextlib.nullcontext()

    def submit_async(self, request):
        self.n_submits += 1
        if self.n_submits <= self.overload_first:
            raise ServiceOverloadedError(4, 4)
        self.requests.append(request)
        future = Future()
        if self.n_submits in self.fail_submits:
            future.set_exception(InjectedFaultError("stub", self.n_submits))
        else:
            future.set_result(ok_response())
        return future


class FakeClock:
    """Monotonic clock advancing a fixed step per read."""

    def __init__(self, step=0.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


@pytest.fixture(scope="module")
def model():
    return Syr2kPerformanceModel(Syr2kTask("SM"))


def make_session(model, sid, tenant, *, budget=8, tuner_seed=5, **kwargs):
    return TuningSession(
        sid,
        tenant,
        RandomSearchTuner(syr2k_space(), seed=tuner_seed),
        model,
        budget,
        **kwargs,
    )


def tenant_counts(manager):
    counts = {}
    for session in manager.registry:
        counts[session.tenant] = (
            counts.get(session.tenant, 0) + len(session.history)
        )
    return counts


class TestBasicRun:
    def test_all_sessions_complete(self, model):
        sessions = [
            make_session(model, f"t{i}/s0", f"t{i}", budget=6)
            for i in range(3)
        ]
        service = StubService()
        manager = SessionManager(service, sessions=sessions)
        snapshot = manager.run()
        assert all(s.state == DONE for s in manager.registry)
        assert snapshot["completed"] == 18
        assert manager.admission.total_inflight == 0
        # A session reads only the value: its requests decline evidence.
        assert len(service.requests) == 18
        assert not any(r.evidence for r in service.requests)

    def test_histories_equal_run_tuner(self, model):
        """The determinism contract: concurrent service-driven campaigns
        produce bit-identical histories to the sequential loop."""
        sessions = [
            make_session(model, f"t{i}/s0", f"t{i}", budget=8, tuner_seed=7)
            for i in range(3)
        ]
        SessionManager(StubService(), sessions=sessions).run()
        reference = run_tuner(
            RandomSearchTuner(syr2k_space(), seed=7), model, 8
        )
        for session in sessions:
            assert session.history.indices == reference.history.indices
            assert session.history.runtimes == reference.history.runtimes

    def test_duplicate_session_id_rejected(self, model):
        manager = SessionManager(
            StubService(),
            sessions=[make_session(model, "a", "t0")],
        )
        with pytest.raises(SessionError):
            manager.add_session(make_session(model, "a", "t1"))

    def test_snapshot_and_metrics(self, model):
        manager = SessionManager(
            StubService(),
            sessions=[make_session(model, "a", "t0", budget=4)],
        )
        manager.run()
        snapshot = manager.snapshot()
        assert snapshot["tenants"]["t0"]["completed_evaluations"] == 4
        assert snapshot["fairness_jain"] == pytest.approx(1.0)
        registry = collect_session_metrics(manager)
        snap = registry.snapshot()
        assert snap["sessions.evaluations{tenant=t0}"] == 4
        assert snap["sessions.sessions{state=DONE}"] == 1.0


class TestFairness:
    def test_equal_tenants_saturated_service(self, model):
        """Acceptance criterion: 3 equal-priority tenants against a
        saturated service (global in-flight ceiling of 1, so every tick
        sheds the rest) end with Jain's index >= 0.95."""
        sessions = [
            make_session(model, f"t{i}/s0", f"t{i}", budget=20)
            for i in range(3)
        ]
        manager = SessionManager(
            StubService(),
            sessions=sessions,
            admission=AdmissionController(max_inflight=1),
            sleep=lambda s: None,
        )
        # cut off mid-flight so unequal progress would show up
        manager.run(max_evaluations=30)
        counts = tenant_counts(manager)
        assert sum(counts.values()) >= 30
        assert jains_index(counts.values()) >= 0.95

    def test_priority_weighted_share(self, model):
        """A weight-3 tenant makes ~3x the progress of weight-1 peers
        while the budget cutoff binds."""
        sessions = [
            make_session(
                model, "heavy/s0", "heavy", budget=60, priority=3
            ),
            make_session(model, "light/s0", "light", budget=60, priority=1),
        ]
        manager = SessionManager(
            StubService(),
            sessions=sessions,
            admission=AdmissionController(max_inflight=1),
            sleep=lambda s: None,
        )
        manager.run(max_evaluations=40)
        counts = tenant_counts(manager)
        ratio = counts["heavy"] / counts["light"]
        assert 2.0 <= ratio <= 4.0


class TestAdmissionIntegration:
    def test_zero_quota_tenant_fails_others_proceed(self, model):
        sessions = [
            make_session(model, "blocked/s0", "blocked", budget=5),
            make_session(model, "ok/s0", "ok", budget=5),
        ]
        manager = SessionManager(
            StubService(),
            sessions=sessions,
            admission=AdmissionController(
                {"blocked": TenantQuota(max_evaluations=0)}
            ),
        )
        manager.run()
        blocked = manager.registry.get("blocked/s0")
        assert blocked.state == FAILED
        assert "quota" in blocked.failure_reason
        assert len(blocked.history) == 0
        assert manager.registry.get("ok/s0").state == DONE

    def test_shed_preserves_trajectory(self, model):
        """Overload sheds never burn a proposal: the history still
        matches the sequential reference exactly."""
        service = StubService(overload_first=4)
        sessions = [make_session(model, "a", "t0", budget=6, tuner_seed=3)]
        manager = SessionManager(
            service, sessions=sessions, sleep=lambda s: None
        )
        manager.run()
        session = sessions[0]
        assert session.state == DONE
        assert session.n_shed == 4
        reference = run_tuner(
            RandomSearchTuner(syr2k_space(), seed=3), model, 6
        )
        assert session.history.indices == reference.history.indices
        assert session.history.runtimes == reference.history.runtimes

    def test_rate_limited_tenant_still_completes(self, model):
        clock = FakeClock(step=0.05)
        sessions = [make_session(model, "a", "t0", budget=6)]
        manager = SessionManager(
            StubService(),
            sessions=sessions,
            admission=AdmissionController(
                {"t0": TenantQuota(rate_per_s=5.0, burst=1.0)},
                clock=clock,
            ),
            clock=clock,
            sleep=lambda s: None,
        )
        manager.run()
        assert sessions[0].state == DONE


class TestEvalFailures:
    def test_transient_eval_error_retried(self, model):
        service = StubService(fail_submits={2})
        sessions = [make_session(model, "a", "t0", budget=5, tuner_seed=3)]
        manager = SessionManager(
            service, sessions=sessions, sleep=lambda s: None
        )
        manager.run()
        session = sessions[0]
        assert session.state == DONE
        assert session.n_eval_errors == 1
        reference = run_tuner(
            RandomSearchTuner(syr2k_space(), seed=3), model, 5
        )
        assert session.history.indices == reference.history.indices

    def test_persistent_eval_error_fails_session(self, model):
        service = StubService(fail_submits=set(range(1, 100)))
        sessions = [make_session(model, "a", "t0", budget=5)]
        manager = SessionManager(
            service,
            sessions=sessions,
            eval_max_attempts=3,
            sleep=lambda s: None,
        )
        manager.run()
        session = sessions[0]
        assert session.state == FAILED
        assert "failed 3x" in session.failure_reason
        assert session.n_eval_errors == 3


class TestLifecycle:
    def test_all_sessions_paused_returns_immediately(self, model):
        sessions = [
            make_session(model, f"s{i}", f"t{i}", budget=5)
            for i in range(2)
        ]
        manager = SessionManager(StubService(), sessions=sessions)
        manager.run(max_evaluations=0)  # starts then stop-pauses everyone
        manager._stopped.clear()  # make the pauses user-intent
        snapshot = manager.run()
        assert all(s.state == PAUSED for s in manager.registry)
        assert snapshot["completed"] == 0

    def test_stop_limit_pauses_and_restarts(self, model):
        sessions = [make_session(model, "a", "t0", budget=10, tuner_seed=4)]
        manager = SessionManager(
            StubService(), sessions=sessions, sleep=lambda s: None
        )
        manager.run(max_evaluations=3)
        session = sessions[0]
        assert session.state == PAUSED
        assert 3 <= len(session.history) < 10
        manager.run()
        assert session.state == DONE
        reference = run_tuner(
            RandomSearchTuner(syr2k_space(), seed=4), model, 10
        )
        assert session.history.indices == reference.history.indices
        assert session.history.runtimes == reference.history.runtimes

    def test_deadline_expiry_mid_run(self, model):
        clock = FakeClock(step=0.05)
        sessions = [
            make_session(
                model, "dl", "t0", budget=1000, deadline_s=2.0
            ),
            make_session(model, "ok", "t1", budget=5),
        ]
        manager = SessionManager(
            StubService(),
            sessions=sessions,
            clock=clock,
            sleep=lambda s: None,
        )
        manager.run()
        expired = manager.registry.get("dl")
        assert expired.state == FAILED
        assert "deadline" in expired.failure_reason
        assert len(expired.history) < 1000
        assert manager.registry.get("ok").state == DONE
        assert manager.admission.total_inflight == 0

    def test_invalid_transitions_raise(self, model):
        session = make_session(model, "a", "t0")
        with pytest.raises(SessionError):
            session.pause()  # PENDING -> PAUSED is invalid
        session.start()
        with pytest.raises(SessionError):
            session.start()
        session.fail("boom")
        with pytest.raises(SessionError):
            session.fail("again")


class TestEventLogAndResume:
    def test_log_matches_history_exactly(self, model, tmp_path):
        log = tmp_path / "log.jsonl"
        sessions = [
            make_session(model, f"t{i}/s0", f"t{i}", budget=5)
            for i in range(2)
        ]
        manager = SessionManager(
            StubService(), sessions=sessions, log_path=log
        )
        manager.run()
        manager.close()
        by_step = {}
        for event in load_events_jsonl(log, kind=EVENT_KIND):
            if event["event"] != "eval":
                continue
            key = (event["session"], event["step"])
            assert key not in by_step, "duplicated evaluation in log"
            by_step[key] = (event["index"], event["runtime"])
        for session in sessions:
            for step, (index, runtime) in enumerate(
                zip(session.history.indices, session.history.runtimes)
            ):
                assert by_step[(session.session_id, step)] == (
                    index,
                    runtime,
                )
        assert len(by_step) == 10  # nothing lost, nothing extra

    def test_resume_after_stop_is_exact(self, model, tmp_path):
        log = tmp_path / "log.jsonl"
        manager = SessionManager(
            StubService(),
            sessions=[
                make_session(model, "a", "t0", budget=9, tuner_seed=6)
            ],
            log_path=log,
        )
        manager.run(max_evaluations=4)
        manager.close()

        resumed_session = make_session(model, "a", "t0", budget=9,
                                       tuner_seed=6)
        manager2 = SessionManager(
            StubService(),
            sessions=[resumed_session],
            log_path=log,
            resume=True,
        )
        assert len(resumed_session.history) >= 4
        manager2.run()
        manager2.close()
        reference = run_tuner(
            RandomSearchTuner(syr2k_space(), seed=6), model, 9
        )
        assert resumed_session.history.indices == reference.history.indices
        assert (
            resumed_session.history.runtimes == reference.history.runtimes
        )

    def test_resume_refuses_mismatched_campaign(self, model, tmp_path):
        log = tmp_path / "log.jsonl"
        manager = SessionManager(
            StubService(),
            sessions=[make_session(model, "a", "t0", budget=6)],
            log_path=log,
        )
        manager.run(max_evaluations=2)
        manager.close()
        with pytest.raises(SessionError, match="refusing to resume"):
            SessionManager(
                StubService(),
                sessions=[make_session(model, "a", "t0", budget=7)],
                log_path=log,
                resume=True,
            )

    def test_resume_requires_log_path(self):
        with pytest.raises(SessionError):
            SessionManager(StubService(), resume=True)

    def test_kill_and_resume_subprocess(self, model, tmp_path):
        """Acceptance criterion: kill the manager mid-run, resume from
        the journal, and end with the exact same TuningHistory — no
        lost or duplicated evaluations."""
        log = tmp_path / "sessions.jsonl"
        child = f"""
import contextlib
import os
from concurrent.futures import Future
from types import SimpleNamespace

from repro.dataset import Syr2kPerformanceModel, Syr2kTask, syr2k_space
from repro.sessions import SessionManager, TuningSession
from repro.tuning import RandomSearchTuner

class DyingStub:
    def __init__(self):
        self.n = 0
    def hold(self):
        return contextlib.nullcontext()
    def submit_async(self, request):
        self.n += 1
        if self.n > 8:
            os._exit(23)  # hard kill mid-campaign, no cleanup
        future = Future()
        future.set_result(SimpleNamespace(
            value=0.5, provenance="stub", degraded=False))
        return future

task = Syr2kTask("SM")
sessions = [
    TuningSession(
        f"t{{i}}/s0", f"t{{i}}",
        RandomSearchTuner(syr2k_space(), seed=5),
        Syr2kPerformanceModel(task), 7, seed=i,
    )
    for i in range(2)
]
SessionManager(
    DyingStub(), sessions=sessions, log_path={str(log)!r}
).run()
os._exit(99)  # must not be reached
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", child],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 23, proc.stderr
        killed = replay_log(log)
        assert sum(len(e["evals"]) for e in killed.values()) >= 1

        sessions = [
            make_session(
                model, f"t{i}/s0", f"t{i}", budget=7, tuner_seed=5,
                seed=i,
            )
            for i in range(2)
        ]
        manager = SessionManager(
            StubService(), sessions=sessions, log_path=log, resume=True
        )
        manager.run()
        manager.close()
        reference = run_tuner(
            RandomSearchTuner(syr2k_space(), seed=5), model, 7
        )
        for session in sessions:
            assert session.state == DONE
            assert session.history.indices == reference.history.indices
            assert session.history.runtimes == reference.history.runtimes
        # the final log replays to those same histories, exactly once
        final = replay_log(log)
        for session in sessions:
            evals = final[session.session_id]["evals"]
            assert [i for _, i, _ in evals] == list(
                session.history.indices
            )
            assert [r for _, _, r in evals] == list(
                session.history.runtimes
            )


class TestRealService:
    def test_small_run_through_prediction_service(self, model):
        from repro.serve import PredictionService

        sessions = [
            make_session(model, f"t{i}/s0", f"t{i}", budget=4, tuner_seed=2)
            for i in range(2)
        ]
        with PredictionService(max_batch_size=4) as service:
            with SessionManager(service, sessions=sessions) as manager:
                manager.run()
        reference = run_tuner(
            RandomSearchTuner(syr2k_space(), seed=2), model, 4
        )
        for session in sessions:
            assert session.state == DONE
            assert session.history.indices == reference.history.indices
            assert session.history.runtimes == reference.history.runtimes
