"""The session manager: concurrent campaigns over the shared service.

The :class:`SessionManager` replaces N sequential
:func:`~repro.tuning.harness.run_tuner` loops with one event loop that
keeps many campaigns' evaluations in flight against one shared
:class:`~repro.serve.service.ServiceBase` backend:

1. **drain** — harvest finished surrogate responses, measure the ground
   truth, record into each session's history, journal ``eval`` events;
2. **expire** — fail campaigns past their deadline;
3. **dispatch** — repeatedly ask the deficit-round-robin scheduler for
   the next eligible session, pass it through admission control, and
   submit its (cached) proposal asynchronously.

Determinism contract: the surrogate prediction is *advisory* — it is
journaled as metadata, but the runtime recorded into the history is the
ground-truth ``model.measure([index], rep=step+1)``, exactly what
``run_tuner`` records.  Because each session also has at most one
evaluation in flight (tuners are history-dependent), a session's final
:class:`~repro.tuning.base.TuningHistory` is bit-identical to the
sequential loop's regardless of batching, faults, shedding, or
interleaving — which is what makes exact crash-resume (re-propose and
replay the journal) possible at all.

Concurrency therefore comes from *cross-session* parallelism; tenants
that share a tuner seed produce identical prompts and ride one lockstep
batch decode in the service's prefix group, which is where the
throughput win over sequential loops comes from.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import (
    ServiceClosedError,
    ServiceOverloadedError,
    SessionError,
    TuningError,
)
from repro.obs import get_tracer
from repro.serve.request import Request
from repro.serve.service import ServiceBase
from repro.sessions.admission import AdmissionController
from repro.sessions.events import (
    SessionEventLog,
    eval_event,
    register_event,
    replay_log,
    state_event,
)
from repro.sessions.scheduler import DeficitRoundRobin
from repro.sessions.session import (
    DONE,
    FAILED,
    PAUSED,
    PENDING,
    RUNNING,
    SessionRegistry,
    TuningSession,
)
from repro.utils.rng import derive_seed

__all__ = ["SessionManager"]

#: Replay-consistency fields a resumed session must match in its
#: ``register`` event; a mismatch means the log belongs to a different
#: campaign configuration.
_META_FIELDS = (
    ("tenant", "tenant"),
    ("budget", "budget"),
    ("seed", "seed"),
    ("context_examples", "context_examples"),
)

#: Idle-loop sleep while waiting on in-flight work.
TICK_S = 0.0005


class SessionManager:
    """Host and drive many concurrent tuning campaigns.

    Parameters
    ----------
    service:
        The backend every evaluation is submitted to, through
        ``submit_async``.
    sessions:
        Initial campaigns (more can be added with :meth:`add_session`
        before :meth:`run`).
    admission:
        :class:`AdmissionController`; default allows 32 in-flight
        evaluations with unlimited per-tenant quota.
    log_path:
        JSONL event-log path.  ``None`` disables journaling (no resume).
    resume:
        Replay an existing log at ``log_path`` into the given sessions
        before running (see :meth:`TuningSession.replay`).
    eval_max_attempts:
        Consecutive failed evaluation attempts before a session FAILs.
    clock, sleep:
        Injectable time sources (tests drive deadlines without waiting).

    Sessions take turns through a unit-quantum :class:`DeficitRoundRobin`.
    """

    def __init__(
        self,
        service: ServiceBase,
        *,
        sessions: Sequence[TuningSession] = (),
        admission: AdmissionController | None = None,
        log_path: str | Path | None = None,
        resume: bool = False,
        eval_max_attempts: int = 4,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if eval_max_attempts < 1:
            raise SessionError(
                f"eval_max_attempts must be >= 1, got {eval_max_attempts}"
            )
        self.service = service
        self.registry = SessionRegistry()
        self.admission = admission or AdmissionController()
        self.scheduler = DeficitRoundRobin()
        self.eval_max_attempts = int(eval_max_attempts)
        self._clock = clock
        self._sleep = sleep
        self._log = SessionEventLog(log_path) if log_path else None
        self._replayed: dict[str, dict] = {}
        #: :class:`~repro.core.storage.RecoveryReport` of the journal
        #: this manager resumed from (``None`` for a fresh start) — lets
        #: operators distinguish a pristine resume from a recovered one.
        self.resume_report = None
        if resume:
            if self._log is None:
                raise SessionError("resume=True requires a log_path")
            if self._log.path.exists():
                self._replayed = replay_log(self._log.path)
                self.resume_report = self._replayed.report
        #: session_id -> (future, proposal index, dispatch timestamp)
        self._inflight: dict[str, tuple[Future, int, float]] = {}
        #: sessions paused by a stop limit (not by the user); the next
        #: run() restarts exactly these.
        self._stopped: set[str] = set()
        self._start_time: float | None = None
        self._elapsed = 0.0
        self.n_completed = 0
        for session in sessions:
            self.add_session(session)

    # ------------------------------------------------------------------ #
    # Registration / resume
    # ------------------------------------------------------------------ #
    def add_session(self, session: TuningSession) -> None:
        """Register a campaign (replaying its journal when resuming)."""
        replayed = self._replayed.get(session.session_id)
        self.registry.add(session)
        if replayed is not None:
            self._check_meta(session, replayed["meta"])
            session.replay(replayed["evals"])
            if replayed["state"] == FAILED and not session.terminal:
                session.fail(replayed["reason"] or "failed before resume")
        else:
            if self._log is not None:
                self._log.emit(register_event(session))
        if not session.terminal:
            self.scheduler.add(session.session_id, session.priority)

    def _check_meta(self, session: TuningSession, meta: dict | None) -> None:
        if meta is None:
            return
        for field, attr in _META_FIELDS:
            logged = meta.get(field)
            actual = getattr(session, attr)
            if field == "budget":
                actual = session.budget.n_evaluations
            if logged != actual:
                raise SessionError(
                    f"session {session.session_id!r}: log {field} "
                    f"{logged!r} != configured {actual!r}; refusing to "
                    f"resume a different campaign"
                )
        if meta.get("tuner") != session.tuner.name:
            raise SessionError(
                f"session {session.session_id!r}: log tuner "
                f"{meta.get('tuner')!r} != configured "
                f"{session.tuner.name!r}"
            )

    # ------------------------------------------------------------------ #
    # Journal
    # ------------------------------------------------------------------ #
    def _emit(self, event: dict) -> None:
        if self._log is not None:
            self._log.emit(event)

    def _flush(self) -> None:
        if self._log is not None:
            self._log.flush()

    # ------------------------------------------------------------------ #
    # Request construction / dispatch
    # ------------------------------------------------------------------ #
    def _build_request(self, session: TuningSession, index: int) -> Request:
        """The surrogate query for one proposed configuration.

        ICL examples are the session's most recent observations; a fresh
        campaign bootstraps with the dataset-table value of config 0 so
        the request is well-formed (a Request needs >= 1 example).  The
        seed derives from the *session* seed and step, so tenants sharing
        a tuner trajectory (identical prompt) still issue distinct-seed
        requests that ride one lockstep prefix-group decode.  A session
        reads only the predicted value, so the request declines the
        logit evidence (``evidence=False``).
        """
        space = session.model.space
        history = session.history
        pairs = list(zip(history.indices, history.runtimes))
        pairs = pairs[-session.context_examples:]
        if pairs:
            examples = [(space.from_index(i), rt) for i, rt in pairs]
        else:
            examples = [
                (space.from_index(0), float(session.model.runtimes([0])[0]))
            ]
        return Request(
            examples=examples,
            query_config=space.from_index(index),
            seed=derive_seed(session.seed, "request", session.step),
            size=session.model.task.size,
            evidence=False,
        )

    def _fail_session(self, session: TuningSession, reason: str) -> None:
        session.fail(reason)
        self._emit(state_event(session.session_id, FAILED, reason))
        self.scheduler.remove(session.session_id)

    def _dispatch_once(self, eligible: set[str]) -> str | None:
        """One scheduler turn: select, admit, submit.

        Returns the served session id, ``"saturated"`` to stop
        dispatching this tick, or None when nothing could be served.
        Mutates ``eligible`` to drop sessions denied retryably so the
        next turn does not re-select them.
        """
        tracer = get_tracer()
        sid = self.scheduler.select(eligible)
        if sid is None:
            return None
        session = self.registry.get(sid)
        with tracer.span(
            "sessions.admit", session=sid, tenant=session.tenant
        ) as span:
            decision = self.admission.admit(session.tenant)
            span.set(admitted=decision.admitted, reason=decision.reason)
        if not decision.admitted:
            if not decision.retryable:
                self._fail_session(
                    session, f"admission denied: {decision.reason}"
                )
                eligible.discard(sid)
                return None
            session.n_denied += 1
            self.scheduler.refund(sid)
            eligible.discard(sid)
            return "saturated" if decision.reason == "saturated" else None
        try:
            proposal = session.next_proposal()
        except TuningError as exc:
            self.admission.refund(session.tenant)
            self._fail_session(session, str(exc))
            eligible.discard(sid)
            return None
        request = self._build_request(session, proposal)
        try:
            future = self.service.submit_async(request)
        except ServiceOverloadedError:
            # Admitted but the queue filled underneath us: shed.  The
            # proposal stays cached, quota/credit are returned, and the
            # whole dispatch phase backs off this tick.
            session.n_shed += 1
            self.admission.refund(session.tenant)
            self.scheduler.refund(sid)
            eligible.discard(sid)
            return "saturated"
        except ServiceClosedError:
            self.admission.refund(session.tenant)
            self.scheduler.refund(sid)
            raise
        session.inflight = True
        self._inflight[sid] = (future, proposal, self._clock())
        eligible.discard(sid)
        return sid

    # ------------------------------------------------------------------ #
    # Completion drain
    # ------------------------------------------------------------------ #
    def _drain(self, *, wait: bool = False) -> int:
        """Harvest finished futures; returns completions recorded.

        With ``wait=True`` blocks until every in-flight evaluation has
        resolved (shutdown/stop path).
        """
        tracer = get_tracer()
        recorded = 0
        while True:
            done = [
                sid
                for sid, (future, _, _) in self._inflight.items()
                if future.done()
            ]
            for sid in done:
                future, proposal, t0 = self._inflight.pop(sid)
                session = self.registry.get(sid)
                session.inflight = False
                self.admission.complete(session.tenant)
                if session.terminal:
                    # Failed (deadline, admission) while in flight: the
                    # result is discarded, never recorded or journaled.
                    continue
                exc = future.exception()
                if exc is not None:
                    if isinstance(exc, ServiceClosedError):
                        raise exc
                    if session.note_eval_error(self.eval_max_attempts):
                        self._fail_session(
                            session,
                            f"evaluation failed "
                            f"{self.eval_max_attempts}x: {exc}",
                        )
                    # else: proposal stays cached; redispatched next tick
                    continue
                response = future.result()
                step = session.step
                runtime = float(
                    session.model.measure([proposal], rep=step + 1)[0]
                )
                session.record(proposal, runtime)
                self.n_completed += 1
                recorded += 1
                self._emit(
                    eval_event(
                        sid,
                        step,
                        proposal,
                        runtime,
                        predicted=response.value,
                        provenance=response.provenance,
                        degraded=response.degraded,
                    )
                )
                tracer.record_span(
                    "sessions.step",
                    t0,
                    self._clock(),
                    session=sid,
                    tenant=session.tenant,
                    step=step,
                    provenance=response.provenance,
                )
                if session.state == DONE:
                    self._emit(state_event(sid, DONE))
                    self.scheduler.remove(sid)
            if done:
                self._flush()
            if not wait or not self._inflight:
                return recorded
            self._sleep(TICK_S)

    def _expire_deadlines(self) -> None:
        now = self._clock() - (self._start_time or 0.0)
        for session in self.registry.by_state(RUNNING):
            if session.deadline_s is not None and now >= session.deadline_s:
                entry = self._inflight.get(session.session_id)
                if entry is not None:
                    entry[0].cancel()  # drain discards it either way
                self._fail_session(
                    session,
                    f"deadline ({session.deadline_s:g}s) expired",
                )

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self, *, max_evaluations: int | None = None) -> dict:
        """Drive all campaigns to completion (or ``max_evaluations``).

        Returns the final registry snapshot.  On the stop limit, in-flight
        evaluations are drained (recorded, journaled) and still-RUNNING
        sessions are PAUSED with reason ``"stopped"`` — a subsequent
        ``resume`` run picks every campaign up exactly where it stopped.
        """
        tracer = get_tracer()
        self._start_time = self._clock()
        start_completed = self.n_completed
        for session in self.registry.by_state(PENDING):
            session.start()
            self._emit(state_event(session.session_id, RUNNING))
        for session_id in sorted(self._stopped):
            # Sessions paused by a previous run's stop limit restart
            # here; user-paused sessions stay paused.
            session = self.registry.get(session_id)
            if session.state == PAUSED:
                session.unpause()
                self._emit(state_event(session_id, RUNNING, "restarted"))
        self._stopped.clear()
        self._flush()
        try:
            while True:
                with tracer.span("sessions.tick"):
                    progress = self._drain() > 0
                    self._expire_deadlines()
                    stop = (
                        max_evaluations is not None
                        and self.n_completed - start_completed
                        >= max_evaluations
                    )
                    if stop:
                        self._drain(wait=True)
                        for session in self.registry.by_state(RUNNING):
                            session.pause()
                            self._stopped.add(session.session_id)
                            self._emit(
                                state_event(
                                    session.session_id, PAUSED, "stopped"
                                )
                            )
                        break
                    eligible = {
                        s.session_id
                        for s in self.registry.by_state(RUNNING)
                        if not s.inflight and s.remaining > 0
                    }
                    # One tick's dispatches are one burst: holding the
                    # service keeps them in one batch, so campaigns that
                    # share a prompt still decode in lockstep.
                    with self.service.hold():
                        while eligible:
                            # Global saturation is checked before
                            # selecting: charging the scheduler for a
                            # dispatch that can never be admitted would
                            # skew fair shares (the ring parity can then
                            # starve low-weight tenants outright).
                            if (
                                self.admission.total_inflight
                                >= self.admission.max_inflight
                            ):
                                break
                            served = self._dispatch_once(eligible)
                            if served == "saturated":
                                break
                            if served is not None:
                                progress = True
                    if not self._inflight and not self.registry.by_state(
                        RUNNING
                    ):
                        break
                    if not progress:
                        self._sleep(TICK_S)
        finally:
            self._flush()
            self._elapsed = self._clock() - self._start_time
        return self.snapshot()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Registry snapshot + admission/scheduler state (obs source)."""
        snap = self.registry.snapshot(self._elapsed or None)
        snap["completed"] = self.n_completed
        snap["admission"] = self.admission.snapshot()
        snap["scheduler"] = self.scheduler.snapshot()
        return snap

    def close(self) -> None:
        self._flush()

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
