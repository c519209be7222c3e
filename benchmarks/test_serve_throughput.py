"""Serving-layer throughput: requests/sec with caches on vs. off.

The acceptance bar for the serving layer: on a repeated-prompt workload
(the shape paper grids and autotuner loops actually produce), the
result cache must at least double requests/sec.  Result hits skip
generation entirely.  The "caches off" side pays a miss's decode on
every request: prefix reuse stays on, but it holds the decode-state
budget at zero, because an exact replay would otherwise read every
step from the decode states of its first decode, a second result cache
under the first (with the budget left on, the ratio reads ~2.8x instead
of ~6x on a 2-vCPU host).

Run explicitly (deselected from tier-1 by the ``slow`` marker):

    PYTHONPATH=src python -m pytest benchmarks/test_serve_throughput.py -m slow -s
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro.dataset import generate_dataset
from repro.dataset.splits import disjoint_example_sets
from repro.llm import prefix_cache
from repro.llm.prefix_cache import DECODE_STATES
from repro.serve import PredictionService, Request
from repro.utils.tables import Table
from repro.utils.timing import Timer

pytestmark = pytest.mark.slow

#: Workload shape: each unique probe is replayed this many times.
N_UNIQUE = 10
N_REPEATS = 8
N_ICL = 5


def _workload() -> list[Request]:
    dataset = generate_dataset("SM")
    sets, queries = disjoint_example_sets(
        dataset, 1, N_ICL, seed=1, n_queries=N_UNIQUE
    )
    examples = [
        (dataset.config(int(r)), float(dataset.runtimes[int(r)]))
        for r in sets[0]
    ]
    unique = [
        Request(
            examples=examples,
            query_config=dataset.config(int(q)),
            seed=100 + i,
            size="SM",
        )
        for i, q in enumerate(queries)
    ]
    # Interleaved replay: revisits are spread out, not back-to-back.
    return unique * N_REPEATS


def _run(
    workload: list[Request], caches: bool, sampler=None, one_by_one: int = 0
):
    """Serve ``workload``; the first ``one_by_one`` requests are served
    one at a time (each its own batch) before the rest go in bulk.

    Each run starts from an empty process-wide decode-state cache, as
    its new service starts with empty result and prefix caches, so no
    run is served by states an earlier run decoded.  With ``caches``
    off, the decode-state cache keeps nothing either (see the module
    docstring)."""
    DECODE_STATES.clear()
    budget = (
        contextlib.nullcontext() if caches
        else mock.patch.object(prefix_cache, "DECODE_STATE_BUDGET_BYTES", 0)
    )
    with budget, PredictionService(
        max_batch_size=8,
        max_wait_s=0.002,
        enable_result_cache=caches,
    ) as service:
        if sampler is not None:
            from repro.obs import collect_service_metrics

            sampler.add_collector(
                "service",
                lambda reg: collect_service_metrics(service, registry=reg),
            )
            sampler.start()
        try:
            with Timer() as timer:
                responses = [
                    service.submit(r) for r in workload[:one_by_one]
                ]
                responses += service.submit_many(workload[one_by_one:])
            stats = service.stats()
        finally:
            if sampler is not None:
                sampler.stop(final_sample=False)
    rps = len(workload) / max(timer.elapsed, 1e-9)
    return responses, stats, rps


def test_caching_doubles_throughput(emit):
    workload = _workload()
    warm_resps, warm_stats, warm_rps = _run(workload, caches=True)
    cold_resps, cold_stats, cold_rps = _run(workload, caches=False)

    # Caching must not change results (the determinism contract).
    assert [r.value for r in warm_resps] == [r.value for r in cold_resps]
    assert warm_stats.n_completed == cold_stats.n_completed == len(workload)

    # The repeated fraction of the workload hits the result cache.
    expected_hit_rate = 1.0 - 1.0 / N_REPEATS
    assert warm_stats.result_hit_rate == pytest.approx(expected_hit_rate)
    assert cold_stats.result_hit_rate == 0.0
    assert len(DECODE_STATES) == 0  # the off side decoded every request

    speedup = warm_rps / cold_rps
    t = Table(
        ["config", "req/s", "p95 latency (ms)", "result hit rate"],
        title=f"serve throughput ({len(workload)} requests, "
        f"{N_UNIQUE} unique x {N_REPEATS})",
    )
    t.add_row([
        "caches on", round(warm_rps, 1),
        round(warm_stats.p95_latency_s * 1e3, 1),
        f"{warm_stats.result_hit_rate:.0%}",
    ])
    t.add_row([
        "caches off", round(cold_rps, 1),
        round(cold_stats.p95_latency_s * 1e3, 1),
        f"{cold_stats.result_hit_rate:.0%}",
    ])
    emit("serve_throughput", t.render() + f"\nspeedup: {speedup:.1f}x")

    assert speedup >= 2.0, (
        f"caching speedup {speedup:.2f}x below the 2x acceptance bar "
        f"({warm_rps:.0f} vs {cold_rps:.0f} req/s)"
    )


def test_tracing_overhead_under_five_percent(emit):
    """Span tracing + telemetry sampling must cost <5% process CPU.

    The traced side runs the full observability pipeline: a live tracer
    on every instrumented site *and* a :class:`TelemetrySampler` scraping
    service metrics on a 50ms cadence — the configuration a
    ``loadtest --trace --telemetry`` run or the nightly soak actually
    pays for.  ``time.process_time`` charges the sampler thread's scrape
    CPU to the process, so the bar covers both costs.

    Tracing cost is pure CPU work (timestamping, tuple appends), so it is
    measured on the process-CPU clock, not wall time: on shared CI runners
    adjacent-trial wall throughput swings by +/-25%, which cannot
    discriminate a 5% bar no matter how trials are averaged.
    ``time.process_time`` sums CPU across all threads and is blind to the
    scheduling gaps that dominate wall-clock noise.  Per side we take the
    **minimum** CPU over interleaved trials — external interference only
    ever adds CPU (cache eviction, context-switch churn), never removes
    it, so the minimum converges on the intrinsic cost of each
    configuration.  Congestion can outlast a fixed trial budget, so the
    pair loop escalates: it stops as soon as the running minimums prove
    the bound (more trials can only lower a minimum, so early exit is
    sound) and fails only if a generous pair cap expires without either
    side ever getting a clean trial.  Trial order alternates per pair so
    monotone drift cannot systematically penalize one side, and a GC
    collection levels allocator state before every timed trial.  The off
    path is not measured against a bar here because it is structurally
    free (the global tracer stays the disabled singleton and every
    instrumented site short-circuits).

    Both sides must do the same serving work, or the comparison measures
    scheduling luck: a duplicate submitted while its original is still
    queued is a batched decode, one submitted after it is an admission
    hit.  So each trial serves the unique wave first, one request at a
    time (every unique prompt is one singleton batch and one result
    miss), and only then the repeats, which all hit at admission; each
    pair asserts equal batch and miss counts.
    """
    import gc
    import time

    from repro.obs import TelemetrySampler, Tracer, use_tracer

    workload = _workload() * 6  # the first N_UNIQUE are the unique wave
    # Warm the per-size surrogate cache.
    _run(workload, caches=True, one_by_one=N_UNIQUE)

    tracer = Tracer()
    n_telemetry_samples = 0

    def plain_trial():
        gc.collect()
        t0 = time.process_time()
        _, stats, _ = _run(workload, caches=True, one_by_one=N_UNIQUE)
        return time.process_time() - t0, stats

    def traced_trial():
        nonlocal n_telemetry_samples
        tracer.clear()
        # Fresh sampler per trial: collectors close over the trial's
        # service, and its scrape thread must die with the trial.
        sampler = TelemetrySampler(0.05)
        gc.collect()
        with use_tracer(tracer):
            t0 = time.process_time()
            _, stats, _ = _run(
                workload, caches=True, sampler=sampler, one_by_one=N_UNIQUE
            )
            elapsed = time.process_time() - t0
        n_telemetry_samples = len(sampler.records())
        return elapsed, stats

    min_pairs, max_pairs = 4, 40
    plain_cpu = traced_cpu = float("inf")
    for pair in range(max_pairs):
        first, second = (
            (plain_trial, traced_trial) if pair % 2 == 0
            else (traced_trial, plain_trial)
        )
        a, b = first(), second()
        (plain, plain_stats), (traced, traced_stats) = (
            (a, b) if pair % 2 == 0 else (b, a)
        )
        # Identical work on both sides: one decode batch per unique
        # prompt, and every repeat an admission hit.
        work = [
            (s.n_batches, s.result_misses) for s in (plain_stats, traced_stats)
        ]
        assert work == [(N_UNIQUE, N_UNIQUE)] * 2, work
        plain_cpu = min(plain_cpu, plain)
        traced_cpu = min(traced_cpu, traced)
        if pair + 1 >= min_pairs and traced_cpu / plain_cpu - 1.0 < 0.05:
            break

    # The trace and the timeline must actually have been recorded (one
    # request root per submitted request, at least the sampler's start
    # sample), or the comparison measures nothing.
    roots = [s for s in tracer.spans() if s.name == "serve.request"]
    assert len(roots) == len(workload)
    assert n_telemetry_samples >= 1

    overhead = traced_cpu / plain_cpu - 1.0
    emit(
        "serve_tracing_overhead",
        f"obs off: {plain_cpu * 1e3:.1f} ms CPU\n"
        f"obs on:  {traced_cpu * 1e3:.1f} ms CPU\n"
        f"overhead: {overhead:.1%} "
        f"({len(tracer)} spans, {n_telemetry_samples} telemetry samples, "
        f"{pair + 1} pairs)",
    )
    assert overhead < 0.05, (
        f"tracing+sampling overhead {overhead:.1%} exceeds the 5% CPU "
        f"bar ({traced_cpu * 1e3:.1f} vs {plain_cpu * 1e3:.1f} ms CPU)"
    )
