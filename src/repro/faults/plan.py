"""Deterministic, seedable fault injection for the serving stack.

A :class:`FaultPlan` is a frozen schedule of failure modes — transient
worker exceptions, latency spikes, cache-eviction storms, queue stalls,
and grid-cell faults — whose decisions are *pure functions* of
``(plan seed, site, key)`` via :func:`repro.utils.rng.derive_seed`.  Hook
points in the stack (``MicroBatcher._flush``,
``PredictionService._serve_one``, the sharded dispatch,
:func:`repro.core.runner.run_spec`) pass their natural keys (flush
index, request id, dispatch index, cell key), so a given plan + seed
reproduces the exact same fault sequence run after run: the chaos
drills in ``repro chaos`` and the resilience tests are bit-reproducible,
not flaky.

A :class:`FaultInjector` binds a plan to runtime effects (sleeping,
raising :class:`~repro.errors.InjectedFaultError`, clearing caches,
deciding shard kills) and counts every injected fault as
``faults.injected{kind}`` in a :class:`~repro.obs.MetricsRegistry`;
:func:`fault_counts` reads them back.  ``run_spec`` asks the plan's
:meth:`FaultPlan.cell_fault` itself and raises uncounted.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass

from repro.errors import InjectedFaultError
from repro.obs.metrics import Counter, MetricsRegistry
from repro.utils.rng import derive_seed
from repro.utils.tables import Table

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

#: ``derive_seed`` yields uniform 63-bit ints; dividing by 2**63 maps them
#: onto [0, 1) for rate thresholds.
_SCALE = float(1 << 63)

_RATE_FIELDS = (
    "transient_error_rate",
    "latency_spike_rate",
    "eviction_storm_rate",
    "queue_stall_rate",
    "cell_error_rate",
    "shard_kill_rate",
    "torn_write_rate",
    "bitflip_rate",
    "enospc_rate",
    "fsync_fail_rate",
    "telemetry_drop_rate",
    "telemetry_dup_rate",
)
_DURATION_FIELDS = ("latency_spike_s", "queue_stall_s")
_DISK_RATE_FIELDS = (
    "torn_write_rate",
    "bitflip_rate",
    "enospc_rate",
    "fsync_fail_rate",
)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injectable failure modes.

    Attributes
    ----------
    seed:
        Root of the fault-decision hash; two plans with equal fields make
        identical decisions everywhere.
    transient_error_rate:
        Per-request probability that the batch worker raises
        :class:`~repro.errors.InjectedFaultError` before executing.
    latency_spike_rate, latency_spike_s:
        Per-request probability/duration of an added service delay.
    eviction_storm_rate:
        Per-request probability that both service caches are cleared
        first (a cold-cache storm).
    queue_stall_rate, queue_stall_s:
        Per-flush probability/duration of a scheduler stall before the
        batch is dispatched.
    cell_error_rate:
        Per-cell probability that :func:`repro.core.runner.run_spec`
        fails before running any probes (grid-level crash simulation).
    shard_kill_rate:
        Per-dispatch probability that the sharded backend SIGKILLs the
        target worker process *before* enqueueing the ticket — the
        abrupt-shard-death drill (the ticket and any in-flight peers
        fail with :class:`~repro.errors.ShardCrashError`, then the
        shard respawns).  Ignored by the in-process backend.
    torn_write_rate:
        Per-write probability that a storage write lands only a prefix
        of its payload and then "crashes" (raises
        :class:`~repro.errors.InjectedFaultError` after flushing the
        torn bytes) — the classic kill-9-mid-append signature.
    bitflip_rate:
        Per-write probability that one character of the payload is
        silently corrupted *before* hitting disk while the write still
        reports success — media rot that only a checksum can catch.
    enospc_rate:
        Per-write probability of ``OSError(ENOSPC)`` before any byte
        lands (a full disk).
    fsync_fail_rate:
        Per-fsync probability of ``OSError(EIO)`` — durability was
        requested but the device refused.
    telemetry_drop_rate:
        Per-sample probability that the telemetry sampler loses a sample
        before it reaches the timeline (a scrape thread dying or an
        exporter crash) — downstream loaders must report the gap.
    telemetry_dup_rate:
        Per-sample probability that a sample is recorded twice (an
        at-least-once exporter retry) — loaders must dedupe by payload
        sequence number, not trust the file.
    """

    seed: int = 0
    transient_error_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_s: float = 0.01
    eviction_storm_rate: float = 0.0
    queue_stall_rate: float = 0.0
    queue_stall_s: float = 0.005
    cell_error_rate: float = 0.0
    shard_kill_rate: float = 0.0
    torn_write_rate: float = 0.0
    bitflip_rate: float = 0.0
    enospc_rate: float = 0.0
    fsync_fail_rate: float = 0.0
    telemetry_drop_rate: float = 0.0
    telemetry_dup_rate: float = 0.0

    def __post_init__(self):
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        for name in _DURATION_FIELDS:
            duration = getattr(self, name)
            if duration < 0:
                raise ValueError(f"{name} must be >= 0, got {duration}")

    # ------------------------------------------------------------------ #
    def fires(self, site: str, key: object, rate: float) -> bool:
        """Pure fault decision for ``(site, key)`` at ``rate``."""
        if rate <= 0.0:
            return False
        return derive_seed(self.seed, "fault", site, key) / _SCALE < rate

    def transient_error(self, key: object) -> bool:
        return self.fires("transient-error", key, self.transient_error_rate)

    def latency_spike(self, key: object) -> float:
        """Added latency in seconds for this key (0.0 when no spike)."""
        if self.fires("latency-spike", key, self.latency_spike_rate):
            return self.latency_spike_s
        return 0.0

    def eviction_storm(self, key: object) -> bool:
        return self.fires("eviction-storm", key, self.eviction_storm_rate)

    def queue_stall(self, key: object) -> float:
        """Scheduler stall in seconds for this flush (0.0 when none)."""
        if self.fires("queue-stall", key, self.queue_stall_rate):
            return self.queue_stall_s
        return 0.0

    def cell_fault(self, key: object) -> bool:
        return self.fires("cell-error", key, self.cell_error_rate)

    def shard_kill(self, key: object) -> bool:
        return self.fires("shard-kill", key, self.shard_kill_rate)

    def torn_write(self, key: object) -> bool:
        return self.fires("torn-write", key, self.torn_write_rate)

    def torn_cut(self, key: object, length: int) -> int:
        """How many characters of a torn write land (strict prefix)."""
        if length <= 1:
            return 0
        return derive_seed(self.seed, "fault", "torn-cut", key) % length

    def bitflip(self, key: object) -> bool:
        return self.fires("bitflip", key, self.bitflip_rate)

    def bitflip_site(self, key: object, length: int) -> tuple[int, int]:
        """(character index, bit index) to corrupt in a payload."""
        pos = derive_seed(self.seed, "fault", "bitflip-pos", key) % length
        bit = derive_seed(self.seed, "fault", "bitflip-bit", key) % 6
        return pos, bit

    def enospc(self, key: object) -> bool:
        return self.fires("enospc", key, self.enospc_rate)

    def fsync_fails(self, key: object) -> bool:
        return self.fires("fsync-fail", key, self.fsync_fail_rate)

    def telemetry_drop(self, key: object) -> bool:
        return self.fires("telemetry-drop", key, self.telemetry_drop_rate)

    def telemetry_dup(self, key: object) -> bool:
        return self.fires("telemetry-dup", key, self.telemetry_dup_rate)

    @property
    def active(self) -> bool:
        """Whether any failure mode has a non-zero rate."""
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    @property
    def disk_active(self) -> bool:
        """Whether any *storage* failure mode has a non-zero rate."""
        return any(getattr(self, name) > 0.0 for name in _DISK_RATE_FIELDS)


#: The ``repro chaos`` default: a realistically hostile mix — ~8% of
#: requests fail transiently, 5% see a latency spike, caches are stormed
#: on 2% of requests, and 5% of flushes stall.  Under the default
#: :class:`~repro.serve.resilience.RetryPolicy` this keeps availability
#: >= 99% (pinned by ``benchmarks/test_serve_chaos.py``).
DEFAULT_FAULT_PLAN = FaultPlan(
    seed=20250806,
    transient_error_rate=0.08,
    latency_spike_rate=0.05,
    latency_spike_s=0.01,
    eviction_storm_rate=0.02,
    queue_stall_rate=0.05,
    queue_stall_s=0.005,
)

#: The ``repro chaos --disk`` default: hostile storage.  Roughly a third
#: of writes tear mid-payload, half of the survivors take a silent
#: bitflip, and occasionally the disk is full or fsync lies — every one
#: of which must be caught by the CRC framing and accounted for in the
#: :class:`~repro.core.storage.RecoveryReport` (no silent data loss).
DISK_FAULT_PLAN = FaultPlan(
    seed=20250808,
    torn_write_rate=0.30,
    bitflip_rate=0.50,
    enospc_rate=0.10,
    fsync_fail_rate=0.05,
)


#: Every counted fault kind, mapped to its row label in the report
#: table (in table order).
FAULT_KINDS = {
    "transient_errors": "transient worker errors",
    "latency_spikes": "latency spikes",
    "evictions": "cache-eviction storms",
    "stalls": "queue stalls",
    "shard_kills": "shard kills",
    "torn_writes": "torn writes",
    "bitflips": "bitflips after ack",
    "enospc": "ENOSPC writes",
    "fsync_failures": "fsync failures",
    "telemetry_drops": "telemetry samples dropped",
    "telemetry_dups": "telemetry samples duplicated",
}


def fault_counts(registry: MetricsRegistry) -> dict[str, int]:
    """Injected faults per kind, read off a registry's
    ``faults.injected{kind}`` counters (0 for a kind never counted).

    ``registry`` is an injector's own registry or a service's
    ``metrics()`` snapshot, which for a sharded service includes every
    worker's faults.
    """
    counts = {}
    for kind in FAULT_KINDS:
        inst = registry.get("faults.injected", kind=kind)
        counts[kind] = inst.value if inst is not None else 0
    return counts


def render_fault_counts(
    counts: dict[str, int], title: str = "injected faults"
) -> str:
    """ASCII table of :func:`fault_counts` (the chaos report body)."""
    t = Table(["fault", "count"], title=title)
    for kind, label in FAULT_KINDS.items():
        t.add_row([label, counts.get(kind, 0)])
    return t.render()


class FaultyFile:
    """A write-path double that injects disk faults deterministically.

    Wraps a text-mode file handle on the storage append/snapshot paths
    (installed via :func:`repro.core.storage.set_fault_injector`).  Each
    ``write`` is keyed by ``(name, byte position)`` so the fault
    sequence is a pure function of the plan seed and what was written —
    a crashed-and-resumed run replays identically.

    Fault order per write: ENOSPC (nothing lands), torn write (a strict
    prefix lands, is flushed, then :class:`InjectedFaultError` simulates
    the crash), bitflip (one character corrupted, write still "succeeds")
    — mirroring how a real device fails before, during, and after the
    syscall.  ``fsync`` may raise ``OSError(EIO)`` on its own schedule.
    """

    def __init__(self, fh, plan: FaultPlan, counters: dict[str, Counter],
                 site: str, name: str):
        self._fh = fh
        self._plan = plan
        self._counters = counters
        self._site = site
        self._name = name

    def _key(self, op: str) -> str:
        return f"{self._name}:{self._site}:{op}:{self._fh.tell()}"

    def write(self, data: str) -> int:
        plan = self._plan
        key = self._key("write")
        if plan.enospc(key):
            self._counters["enospc"].inc()
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        if plan.torn_write(key):
            cut = plan.torn_cut(key, len(data))
            self._fh.write(data[:cut])
            self._fh.flush()
            self._counters["torn_writes"].inc()
            raise InjectedFaultError(self._site, key)
        if plan.bitflip(key) and data.strip():
            pos, bit = plan.bitflip_site(key, len(data))
            # Never corrupt a character into a newline: that would split
            # one record into two, which is a different failure mode.
            flipped = chr(ord(data[pos]) ^ (1 << bit))
            if flipped in ("\n", "\r") or data[pos] in ("\n", "\r"):
                flipped = "X" if data[pos] != "X" else "Y"
            data = data[:pos] + flipped + data[pos + 1:]
            self._counters["bitflips"].inc()
        return self._fh.write(data)

    def flush(self) -> None:
        self._fh.flush()

    def fsync(self) -> None:
        if self._plan.fsync_fails(self._key("fsync")):
            self._counters["fsync_failures"].inc()
            raise OSError(errno.EIO, "injected: fsync failed")
        self._fh.flush()
        os.fsync(self._fh.fileno())


class FaultInjector:
    """Binds a :class:`FaultPlan` to runtime effects at the hook points.

    Parameters
    ----------
    plan:
        The fault schedule; decisions stay pure functions of its seed.
    sleep:
        Injectable sleep (tests pass a stub so stalls cost no wall time).
    registry:
        Where each injection counts, as ``faults.injected{kind}`` (one
        counter per :data:`FAULT_KINDS` entry, bound here).  A service
        passes its own registry; by default the injector makes one.
    """

    def __init__(self, plan: FaultPlan, sleep=time.sleep,
                 registry: MetricsRegistry | None = None):
        self.plan = plan
        self.registry = registry if registry is not None else MetricsRegistry()
        self._sleep = sleep
        self._counters = {
            kind: self.registry.counter("faults.injected", kind=kind)
            for kind in FAULT_KINDS
        }

    def before_request(self, key: object, caches=()) -> None:
        """Per-request hook (``PredictionService._serve_one``).

        Order matters: an eviction storm first (so this request sees the
        cold caches), then the latency spike, then the transient error —
        a spiked request can still fail, like a slow worker dying.
        """
        plan = self.plan
        if plan.eviction_storm(key):
            self._counters["evictions"].inc()
            for cache in caches:
                if cache is not None:
                    cache.clear()
        spike = plan.latency_spike(key)
        if spike > 0.0:
            self._counters["latency_spikes"].inc()
            self._sleep(spike)
        if plan.transient_error(key):
            self._counters["transient_errors"].inc()
            raise InjectedFaultError("serve", key)

    def before_flush(self, key: object) -> None:
        """Per-flush hook (``MicroBatcher._flush``): maybe stall."""
        stall = self.plan.queue_stall(key)
        if stall > 0.0:
            self._counters["stalls"].inc()
            self._sleep(stall)

    def before_dispatch(self, key: object) -> bool:
        """Per-dispatch hook of the sharded backend: whether to kill the
        target shard before this ticket is enqueued."""
        if self.plan.shard_kill(key):
            self._counters["shard_kills"].inc()
            return True
        return False

    def on_telemetry_sample(self, key: object) -> str:
        """Telemetry-sampler hook: fate of one sample.

        Returns ``"drop"`` (the sample never reaches the timeline),
        ``"dup"`` (it is recorded twice), or ``"keep"``.  Drop wins when
        both fire — a dropped sample cannot also be duplicated.
        """
        plan = self.plan
        if plan.telemetry_drop(key):
            self._counters["telemetry_drops"].inc()
            return "drop"
        if plan.telemetry_dup(key):
            self._counters["telemetry_dups"].inc()
            return "dup"
        return "keep"

    def wrap_file(self, fh, site: str, name: str):
        """Storage-write hook: wrap a file handle in a :class:`FaultyFile`.

        Returns ``fh`` unwrapped when the plan has no disk faults, so
        the healthy write path costs one attribute check.
        """
        if not self.plan.disk_active:
            return fh
        return FaultyFile(fh, self.plan, self._counters, site, name)
