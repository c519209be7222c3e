"""repro.faults — deterministic fault injection for chaos testing.

Every failure mode the serving stack must survive (transient worker
errors, latency spikes, cache-eviction storms, queue stalls, shard
kills, grid-cell crashes, torn writes, bitflips, full disks, lying
fsyncs) is injectable through a seeded :class:`FaultPlan`, so resilience
behaviour is bit-reproducible instead of flaky.  See
:mod:`repro.serve.resilience` for the policies that absorb the service
faults, :mod:`repro.core.storage` for the durability layer the disk
faults exercise, and ``repro chaos`` / ``repro chaos --disk`` for the
CLI drills.
"""

from repro.faults.plan import (
    DEFAULT_FAULT_PLAN,
    DISK_FAULT_PLAN,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultyFile,
    fault_counts,
    render_fault_counts,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultyFile",
    "FAULT_KINDS",
    "fault_counts",
    "render_fault_counts",
    "DEFAULT_FAULT_PLAN",
    "DISK_FAULT_PLAN",
]
