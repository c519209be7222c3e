"""The load driver: replay a seeded schedule against a live service.

Two driving disciplines, selected by :attr:`LoadSpec.mode`:

``open``
    **Open-loop** (arrival-clocked): requests are submitted at their
    scheduled offsets whether or not earlier ones completed, exactly like
    independent users who do not coordinate.  Latency is measured from
    the *scheduled* arrival to completion, so queueing delay during a
    backlog counts against the SLO (no coordinated omission).  Admission
    rejections are recorded as ``shed`` and not retried — shedding under
    offered load is precisely the behaviour being measured.
``closed``
    **Closed-loop** (completion-clocked): ``concurrency`` virtual
    clients each issue their next request only after the previous one
    resolves, the discipline of a fixed worker pool.  Latency is
    submit-to-completion.

Both modes replay the *same* deterministic request stream
(:func:`~repro.loadgen.workload.build_workload`) and publish the same
schedule/workload digests, so a report pins what was offered regardless
of how it was clocked.  The target is any
:class:`~repro.serve.service.ServiceBase` backend — the in-process
service, the sharded multi-process one, or the ``ResilientService``
over either — and the session manager's campaigns can ride along on the
same service (``repro loadtest --sessions``).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import (
    LoadgenError,
    RequestTimeoutError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.loadgen.arrivals import ARRIVAL_KINDS, arrival_schedule, schedule_digest
from repro.loadgen.slo import SLOReport, TenantSlice
from repro.loadgen.workload import (
    LoadItem,
    WorkloadMix,
    build_workload,
    workload_digest,
)
from repro.obs import Histogram, get_tracer
from repro.serve.service import ServiceBase
from repro.utils.rng import derive_seed

__all__ = ["LoadDriver", "LoadSpec"]

_OUTCOMES = ("ok", "errors", "shed", "timeouts", "degraded")


@dataclass(frozen=True)
class LoadSpec:
    """The complete, seed-determined description of one load test."""

    arrival: str = "poisson"
    rps: float = 50.0
    duration_s: float = 5.0
    seed: int = 7
    mode: str = "open"
    #: Closed-loop virtual-client count (ignored open-loop).
    concurrency: int = 8
    mix: WorkloadMix = field(default_factory=WorkloadMix)
    #: ``onoff`` arrival shape (ignored by the other kinds).
    on_fraction: float = 0.5
    period_s: float = 2.0
    #: How long past the last scheduled arrival the open-loop driver
    #: waits for stragglers before declaring them timed out.
    drain_timeout_s: float = 60.0
    #: Serve one request per distinct prompt before the clock starts.
    #: Cold-start costs (shard process spawn, per-shard model warm,
    #: prefix preparation) are real but belong to deployment, not to
    #: steady-state SLO conformance — without warmup a multi-second
    #: shard spawn floods the bounded queues at high offered rates and
    #: the report measures the flood, not the service.
    warmup: bool = True

    def __post_init__(self):
        if self.arrival not in ARRIVAL_KINDS:
            raise LoadgenError(
                f"arrival must be one of {ARRIVAL_KINDS}, got {self.arrival!r}"
            )
        if self.mode not in ("open", "closed"):
            raise LoadgenError(
                f"mode must be 'open' or 'closed', got {self.mode!r}"
            )
        if self.concurrency < 1:
            raise LoadgenError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if self.drain_timeout_s <= 0:
            raise LoadgenError(
                f"drain_timeout_s must be positive, got {self.drain_timeout_s}"
            )


class _Recorder:
    """Lock-protected outcome counters + latency histograms."""

    def __init__(self, tenants: set[str]):
        self._lock = threading.Lock()
        self.counts = {o: 0 for o in _OUTCOMES}
        self.tenant_counts = {
            t: {o: 0 for o in _OUTCOMES} for t in sorted(tenants)
        }
        self.hist = Histogram()
        self.tenant_hist = {t: Histogram() for t in sorted(tenants)}

    def record(
        self, tenant: str, outcome: str, latency_s: float | None
    ) -> None:
        with self._lock:
            self.counts[outcome] += 1
            self.tenant_counts[tenant][outcome] += 1
            if latency_s is not None:
                self.hist.observe(latency_s)
                self.tenant_hist[tenant].observe(latency_s)


class LoadDriver:
    """Bind a :class:`LoadSpec` to its schedule/workload and drive targets.

    The schedule and workload are built once (both pure functions of the
    spec) and reused across :meth:`run` calls, so driving two services —
    or the same service twice — replays bit-identical traffic.
    """

    def __init__(self, spec: LoadSpec):
        self.spec = spec
        self._schedule: np.ndarray | None = None
        self._workload: list[LoadItem] | None = None

    # ------------------------------------------------------------------ #
    def schedule(self) -> np.ndarray:
        """Arrival offsets (cached; pure function of the spec)."""
        if self._schedule is None:
            self._schedule = arrival_schedule(
                self.spec.arrival,
                self.spec.rps,
                self.spec.duration_s,
                self.spec.seed,
                on_fraction=self.spec.on_fraction,
                period_s=self.spec.period_s,
            )
        return self._schedule

    def workload(self) -> list[LoadItem]:
        """One :class:`LoadItem` per arrival (cached; pure function)."""
        if self._workload is None:
            self._workload = build_workload(
                self.spec.mix, len(self.schedule()), self.spec.seed
            )
        return self._workload

    # ------------------------------------------------------------------ #
    def run(self, service: ServiceBase) -> SLOReport:
        """Drive ``service`` through the full schedule; emit the report."""
        items = self.workload()
        recorder = _Recorder({item.tenant for item in items})
        with get_tracer().span(
            "loadgen.run",
            mode=self.spec.mode,
            arrival=self.spec.arrival,
            offered=len(items),
        ):
            if self.spec.warmup:
                self._warmup(service, items)
            start = time.monotonic()
            if self.spec.mode == "open":
                self._run_open(service, items, recorder)
            else:
                self._run_closed(service, items, recorder)
            elapsed = time.monotonic() - start
        return self._report(recorder, elapsed)

    # ------------------------------------------------------------------ #
    def _warmup(self, service, items: list[LoadItem]) -> None:
        """Serve the first occurrence of each distinct prompt, unmeasured.

        One request per ``prompt_key`` touches every shard the measured
        traffic will route to (same routing hash) and populates the
        prepare/prefix caches.  The warmup seed is derived away from the
        measured lanes, so the *result* cache stays cold for every
        measured (prompt, seed) pair — warmup removes deployment costs,
        not the run's own first decodes.  Failures are ignored: a shard
        that cannot even warm will fail the measured window loudly.
        """
        seen: set[str] = set()
        with get_tracer().span("loadgen.warmup"):
            for item in items:
                key = item.request.prompt_key
                if key in seen:
                    continue
                seen.add(key)
                probe = replace(
                    item.request,
                    seed=derive_seed(self.spec.seed, "loadgen", "warmup", key),
                    timeout_s=None,
                )
                try:
                    service.submit(probe)
                except Exception:
                    pass

    def _classify(self, response) -> str:
        return "degraded" if response.degraded else "ok"

    def _run_open(self, service, items: list[LoadItem], recorder: _Recorder):
        schedule = self.schedule()
        t0 = time.monotonic()
        pending: list[tuple[LoadItem, float, Future]] = []
        for item, offset in zip(items, schedule):
            target = t0 + float(offset)
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            try:
                future = service.submit_async(item.request)
            except ServiceOverloadedError:
                recorder.record(item.tenant, "shed", None)
                continue
            except ServiceError:
                recorder.record(item.tenant, "errors", None)
                continue
            # Completion time is captured in the resolving thread, not
            # at drain: latency must not include the driver's own wait
            # over the pending list.
            future._loadgen_done = []
            future.add_done_callback(
                lambda f: f._loadgen_done.append(time.monotonic())
            )
            pending.append((item, target, future))

        deadline = (
            t0 + float(self.spec.duration_s) + self.spec.drain_timeout_s
        )
        with get_tracer().span("loadgen.drain", pending=len(pending)):
            for item, target, future in pending:
                wait = max(deadline - time.monotonic(), 0.0)
                try:
                    response = future.result(timeout=wait)
                except FuturesTimeoutError:
                    future.cancel()
                    recorder.record(item.tenant, "timeouts", None)
                except RequestTimeoutError:
                    recorder.record(item.tenant, "timeouts", None)
                except ServiceOverloadedError:
                    recorder.record(item.tenant, "shed", None)
                except Exception:
                    recorder.record(item.tenant, "errors", None)
                else:
                    recorder.record(
                        item.tenant,
                        self._classify(response),
                        max(self._latency(future, target), 0.0),
                    )

    @staticmethod
    def _latency(future: Future, target: float) -> float:
        """Open-loop latency: completion stamp minus *scheduled* arrival.

        The done-callback stamp fires in the resolving thread before
        ``result()`` unblocks; if it is somehow missing, degrade to the
        drain loop's "now" rather than crash.
        """
        stamps = getattr(future, "_loadgen_done", None)
        done = stamps[0] if stamps else time.monotonic()
        return done - target

    def _run_closed(self, service, items: list[LoadItem], recorder: _Recorder):
        cursor = iter(items)
        cursor_lock = threading.Lock()

        def worker() -> None:
            while True:
                with cursor_lock:
                    item = next(cursor, None)
                if item is None:
                    return
                start = time.monotonic()
                try:
                    response = service.submit(item.request)
                except RequestTimeoutError:
                    recorder.record(item.tenant, "timeouts", None)
                except ServiceOverloadedError:
                    recorder.record(item.tenant, "shed", None)
                except Exception:
                    recorder.record(item.tenant, "errors", None)
                else:
                    recorder.record(
                        item.tenant,
                        self._classify(response),
                        time.monotonic() - start,
                    )

        threads = [
            threading.Thread(
                target=worker, name=f"repro-loadgen-{i}", daemon=True
            )
            for i in range(self.spec.concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    # ------------------------------------------------------------------ #
    def _report(self, recorder: _Recorder, elapsed: float) -> SLOReport:
        counts = recorder.counts
        hist = recorder.hist
        tenants = {}
        for tenant, tcounts in recorder.tenant_counts.items():
            thist = recorder.tenant_hist[tenant]
            tenants[tenant] = TenantSlice(
                offered=sum(tcounts.values()),
                ok=tcounts["ok"],
                errors=tcounts["errors"],
                shed=tcounts["shed"],
                timeouts=tcounts["timeouts"],
                degraded=tcounts["degraded"],
                p50_ms=thist.quantile(0.50) * 1000.0,
                p95_ms=thist.quantile(0.95) * 1000.0,
                p99_ms=thist.quantile(0.99) * 1000.0,
            )
        offered = sum(counts.values())
        return SLOReport(
            mode=self.spec.mode,
            arrival=self.spec.arrival,
            rps=float(self.spec.rps),
            duration_s=float(self.spec.duration_s),
            seed=int(self.spec.seed),
            schedule_digest=schedule_digest(self.schedule()),
            workload_digest=workload_digest(self.workload()),
            offered=offered,
            ok=counts["ok"],
            errors=counts["errors"],
            shed=counts["shed"],
            timeouts=counts["timeouts"],
            degraded=counts["degraded"],
            p50_ms=hist.quantile(0.50) * 1000.0,
            p95_ms=hist.quantile(0.95) * 1000.0,
            p99_ms=hist.quantile(0.99) * 1000.0,
            mean_ms=hist.mean * 1000.0,
            max_ms=(hist.max if hist.n else 0.0) * 1000.0,
            elapsed_s=elapsed,
            achieved_rps=(counts["ok"] + counts["degraded"]) / elapsed
            if elapsed > 0
            else 0.0,
            tenants=tenants,
        )
