"""Drills against the serving stack: ``repro chaos``, ``repro chaos
--sessions`` and ``repro loadtest``."""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from typing import NamedTuple

from repro.core.storage import load_events_jsonl
from repro.dataset import Syr2kPerformanceModel, Syr2kTask, generate_dataset
from repro.dataset.splits import disjoint_example_sets
from repro.dataset.syr2k import syr2k_space
from repro.drills.harness import DeterminismReport, verify_deterministic
from repro.errors import ServiceError
from repro.faults import DEFAULT_FAULT_PLAN, FaultPlan, fault_counts
from repro.loadgen import LoadDriver, LoadSpec, SLOReport, collect_loadgen_metrics
from repro.obs import (
    BurnRatePolicy, TelemetrySampler, collect_service_metrics,
    deterministic_fields, use_tracer,
)
from repro.serve import (
    PredictionService, Request, ResilientService, RetryPolicy, ServiceStats,
    make_service,
)
from repro.sessions import (
    EVENT_KIND, SessionManager, TuningSession, collect_session_metrics,
)
from repro.tuning import HillClimbTuner, RandomSearchTuner
from repro.utils.rng import derive_seed

SESSION_TUNERS = {"random": RandomSearchTuner, "hill-climb": HillClimbTuner}

#: The chaos drill run, an identical rerun, and a rerun with degraded
#: cache serves interleaved (which must not shift the fault schedule).
CHAOS_VARIANTS = ({}, {}, {"cache_probes": True})


def repeated_workload(
    *, size: str, n_icl: int, unique: int, n_requests: int, seed: int
) -> list[Request]:
    """``n_requests`` requests cycling in waves over ``unique`` probes
    (``repro serve-bench`` replays the same workload).  The drills read
    only values and statuses, so the requests decline ``value_steps``."""
    dataset = generate_dataset(size)
    sets, queries = disjoint_example_sets(dataset, 1, n_icl, seed=seed,
                                          n_queries=unique)
    examples = [(dataset.config(int(r)), float(dataset.runtimes[int(r)]))
                for r in sets[0]]
    # Whole-list repetition interleaves revisits (cache-friendly but not
    # cache-adjacent, like real grid traffic).  Odd repeat waves switch
    # the sampling seed: those requests miss the result cache but reuse
    # the prompt's prefix snapshot, exercising both caches.
    n = len(queries)
    return [
        Request(examples=examples,
                query_config=dataset.config(int(queries[i % n])),
                seed=seed + i % n + (1000 if (i // n) % 2 else 0), size=size,
                evidence=False)
        for i in range(n_requests)
    ]


def _scrape(service):
    """A telemetry collector over ``service``'s metrics."""
    return lambda reg: collect_service_metrics(service, registry=reg)


def _resilient(service, max_attempts: int, seed: int, fallback: bool):
    retry = RetryPolicy(max_attempts=max_attempts, seed=seed)
    return ResilientService(service, retry_policy=retry,
                            fallback=None if fallback else False)


class ChaosRun(NamedTuple):
    stats: ServiceStats
    faults: dict[str, int]  # fault_counts of the service's metrics
    unhandled: int
    values: list[float | None]
    sampler: TelemetrySampler


def service_chaos_slice(run: ChaosRun) -> dict:
    """Resilience counters, request-schedule fault counts, unanswered
    requests, every response value, telemetry's deterministic fields."""
    counters = ("n_retries", "n_breaker_trips", "n_degraded",
                "n_unavailable", "n_logical")
    return {
        "stats": {c: getattr(run.stats, c) for c in counters},
        # Telemetry drop/dup decisions are seeded per sample seq, but how
        # many samples a run takes is wall-clock — only the
        # request-schedule faults are comparable across runs.
        "faults": {k: v for k, v in run.faults.items()
                   if not k.startswith("telemetry")},
        "unhandled": run.unhandled,
        "responses": dict(enumerate(run.values)),
        "telemetry": deterministic_fields(run.sampler.records()),
    }


def run_service_chaos(
    workload: list[Request], plan: FaultPlan, *, shards: int = 0,
    max_attempts: int = 4, fallback: bool = True,
    telemetry_interval: float = 0.25, cache_probes: bool = False,
) -> ChaosRun:
    """Drive ``workload`` through a fresh resilient service under
    ``plan`` (retry jitter seeded by ``plan.seed``), sampling its
    telemetry, breaker state included."""
    unhandled = 0
    values: list[float | None] = []
    # Retries absorb shard kills; give the drill enough respawn budget
    # that repeated kills of one shard don't exhaust it mid-run.  The
    # shard-stats timeout is tuned well under the sampler cadence (one
    # scrape is one shard-stats round-trip) so a mid-respawn shard
    # cannot stall a scrape past the telemetry liveness bound of twice
    # the cadence.
    backend = make_service(
        shards=shards, max_restarts=len(workload), fault_plan=plan,
        stats_timeout_s=min(2.0, max(telemetry_interval / 8, 0.02)),
    )
    with _resilient(backend, max_attempts, plan.seed, fallback) as service:
        sampler = TelemetrySampler(telemetry_interval, policy=BurnRatePolicy(),
                                   injector=backend.faults)
        sampler.add_collector("service", _scrape(service))
        with sampler:
            for request in workload:
                if cache_probes:
                    # Degraded cache serves interleaved with live
                    # traffic: these must not consume admission-ordered
                    # request ids, or the deterministic fault schedule
                    # shifts under them.
                    service.cached_response(request)
                try:
                    response = service.submit(request)
                except ServiceError:
                    unhandled += 1  # already counted as unavailable
                    values.append(None)
                else:
                    values.append(response.prediction.value)
        stats, faults = service.stats(), fault_counts(service.metrics())
    return ChaosRun(stats, faults, unhandled, values, sampler)


def service_chaos_drill(
    workload, plan, *, verify_determinism=False, **options
) -> DeterminismReport:
    """:data:`CHAOS_VARIANTS` (just the first without
    ``verify_determinism``); ``options`` as for :func:`run_service_chaos`."""
    return verify_deterministic(
        lambda variant: run_service_chaos(workload, plan, **options, **variant),
        service_chaos_slice,
        CHAOS_VARIANTS[:3 if verify_determinism else 1],
    )


def campaign(
    sid, tenant, size, budget, *, tuner="random", tuner_seed, **kwargs
) -> TuningSession:
    """One syr2k tuning campaign (``kwargs`` as for :class:`TuningSession`)."""
    return TuningSession(
        sid, tenant, SESSION_TUNERS[tuner](syr2k_space(), seed=tuner_seed),
        Syr2kPerformanceModel(Syr2kTask(size)), budget, **kwargs,
    )


def build_sessions(
    *, tenants: int, budget: int, seed: int, size: str, tuner: str = "random",
    priorities=None, shared_trajectory: bool = True, deadline=None,
) -> list[TuningSession]:
    """Fresh campaigns, one per tenant (``repro sessions run``)."""
    priorities = priorities or [1]
    return [
        campaign(
            f"tenant-{t}/s0", f"tenant-{t}", size, budget, tuner=tuner,
            tuner_seed=derive_seed(seed, "tuner", 0 if shared_trajectory else t),
            priority=priorities[t % len(priorities)], deadline_s=deadline,
            seed=derive_seed(seed, "session", t),
        )
        for t in range(tenants)
    ]


class SessionsChaosRun(NamedTuple):
    histories: dict[str, tuple[tuple, tuple]]  # (indices, runtimes)
    completion: float
    problems: list[str]  # event-log integrity problems
    stats: ServiceStats


def run_sessions_chaos(
    log_path, *, requests: int, seed: int, size: str = "SM",
    max_attempts: int = 4, fallback: bool = True,
) -> SessionsChaosRun:
    """Three tenants' campaigns (``requests // 6`` evaluations each)
    under :data:`DEFAULT_FAULT_PLAN`, journaled to ``log_path``."""
    sessions = build_sessions(tenants=3, budget=max(2, requests // 6),
                              seed=seed, size=size, shared_trajectory=False)
    total_budget = sum(s.budget.n_evaluations for s in sessions)
    backend = PredictionService(fault_plan=DEFAULT_FAULT_PLAN)
    with _resilient(backend, max_attempts, seed, fallback) as service:
        with SessionManager(
            service, sessions=sessions, log_path=log_path
        ) as manager:
            manager.run()
        stats = service.stats()

    completed = sum(len(s.history) for s in manager.registry)
    histories = {
        s.session_id: (tuple(s.history.indices), tuple(s.history.runtimes))
        for s in manager.registry
    }
    # Event-log integrity: the journal's evaluations are exactly the
    # recorded histories, each step once (nothing lost or duplicated).
    journal = Counter((e["session"], e["step"], e["index"], e["runtime"])
                      for e in load_events_jsonl(log_path, kind=EVENT_KIND)
                      if e.get("event") == "eval")
    recorded = Counter((sid, step, index, runtime)
                       for sid, (indices, runtimes) in histories.items()
                       for step, (index, runtime)
                       in enumerate(zip(indices, runtimes)))
    problems = [
        f"{what}: {sorted(diff.elements())}"
        for what, diff in [("lost", recorded - journal),
                           ("duplicated or unrecorded", journal - recorded)]
        if diff
    ]
    completion = completed / total_budget if total_budget else 1.0
    return SessionsChaosRun(histories, completion, problems, stats)


def sessions_chaos_drill(
    directory, *, verify_determinism=False, **options
) -> DeterminismReport:
    """The drill run journaling under ``directory`` (``options`` as for
    :func:`run_sessions_chaos`), and with ``verify_determinism`` a second
    run.  Fault timing may differ between runs; recorded histories must
    not (ground truth is measured, predictions advisory)."""
    names = ["sessions-a.jsonl", "sessions-b.jsonl"]
    return verify_deterministic(
        lambda name: run_sessions_chaos(Path(directory) / name, **options),
        lambda run: {"histories": run.histories,
                     "journal problems": tuple(run.problems)},
        names[:2 if verify_determinism else 1],
    )


def run_loadtest(
    spec: LoadSpec, *, shards: int = 0, batch_size: int = 8, workers=None,
    n_sessions: int = 0, session_budget: int = 8, tracer=None, sampler=None,
) -> SLOReport:
    """One full load test: fresh service (+ ``n_sessions`` campaigns
    riding along, round-robin over the spec's tenants), report."""
    driver = LoadDriver(spec)
    with ExitStack() as stack:
        service = stack.enter_context(make_service(
            shards=shards, max_batch_size=batch_size, workers=workers,
        ))
        if sampler is not None:
            sampler.add_collector("service", _scrape(service))
            sampler.start()
            stack.callback(sampler.stop, final_sample=False)
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        if n_sessions > 0:
            tenants = spec.mix.n_tenants
            sessions = [
                campaign(
                    f"tenant-{i % tenants}/load-{i}", f"tenant-{i % tenants}",
                    spec.mix.size, session_budget,
                    tuner_seed=derive_seed(spec.seed, "loadtest", "tuner", i),
                    seed=derive_seed(spec.seed, "loadtest", "session", i),
                )
                for i in range(n_sessions)
            ]
            with SessionManager(service, sessions=sessions) as manager:
                if sampler is not None:
                    sampler.add_collector("sessions", lambda reg: (
                        collect_session_metrics(manager, registry=reg)
                    ))
                box: dict = {}
                rider = threading.Thread(
                    target=lambda: box.update(manager.run()),
                    name="repro-loadtest-sessions", daemon=True,
                )
                rider.start()
                report = driver.run(service)
                rider.join()
            report = report.with_sessions({
                "n_sessions": n_sessions, "completed": box.get("completed", 0),
                "fairness_jain": box.get("fairness_jain", 1.0),
            })
        else:
            report = driver.run(service)
        if sampler is not None:
            # The final sample lands while the service is still alive, so
            # it carries both the end-state service view and the
            # finished SLO report.
            sampler.add_collector("loadgen", lambda reg: (
                collect_loadgen_metrics(report, registry=reg)
            ))
            sampler.stop(final_sample=True)
    return report


def loadtest_drill(
    spec: LoadSpec, *, check_determinism=False, tracer=None, sampler=None,
    **options,
) -> DeterminismReport:
    """The traced/sampled run (``options`` as for :func:`run_loadtest`)
    and with ``check_determinism`` an identical untraced one."""
    variants = [{"tracer": tracer, "sampler": sampler}, {}]
    return verify_deterministic(
        lambda variant: run_loadtest(spec, **options, **variant),
        SLOReport.deterministic_payload,
        variants[:2 if check_determinism else 1],
    )
