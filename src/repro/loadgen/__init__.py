"""repro.loadgen — deterministic load generation + SLO conformance.

The serving stack (micro-batching service, sharded backend, session
manager) is measured here the way production systems are: a **seeded
arrival process** decides *when* requests are offered, a **workload
mix** decides *what* each one asks for, a driver replays the timeline
open- or closed-loop against a live service, and the outcome is an
:class:`~repro.loadgen.slo.SLOReport` checked against a declarative
:class:`~repro.loadgen.slo.SLOPolicy`.

Everything offered is a pure function of the seed (arrival offsets,
prompt choice, tenant attribution, request seeds), fingerprinted by
schedule/workload digests in the report — so the nightly CI soak gates
on SLO conformance knowing the load can never silently drift.

Entry points: ``repro loadtest`` (CLI), :class:`LoadDriver` (library),
:func:`collect_loadgen_metrics` (obs bridge).
"""

from repro.loadgen.arrivals import ARRIVAL_KINDS, arrival_schedule, schedule_digest
from repro.loadgen.driver import LoadDriver, LoadSpec
from repro.loadgen.metrics import collect_loadgen_metrics
from repro.loadgen.slo import (
    DEFAULT_SLO,
    SLOPolicy,
    SLOReport,
    SLOViolation,
    TenantSlice,
)
from repro.loadgen.workload import (
    LoadItem,
    WorkloadMix,
    build_workload,
    workload_digest,
)

__all__ = [
    "ARRIVAL_KINDS",
    "arrival_schedule",
    "schedule_digest",
    "LoadDriver",
    "LoadSpec",
    "collect_loadgen_metrics",
    "DEFAULT_SLO",
    "SLOPolicy",
    "SLOReport",
    "SLOViolation",
    "TenantSlice",
    "LoadItem",
    "WorkloadMix",
    "build_workload",
    "workload_digest",
]
