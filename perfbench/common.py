"""Measurement helpers shared by the perfbench workloads.

Everything here is benchmark-side: clocks, percentiles, digests, the
in-memory span log and the per-request stage table.  Nothing in this
module reaches into the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Where runs leave their artifacts (spans, result records, checkpoints),
#: relative to the checkout root the benchmark is started from.
OUT_DIR = Path(".perfbench_out")


def now() -> float:
    return time.perf_counter()


def stable_seed(*parts: object) -> int:
    """A 31-bit seed derived from ``parts`` (the benchmark's own tree)."""
    h = hashlib.blake2b("/".join(map(repr, parts)).encode(), digest_size=4)
    return int.from_bytes(h.digest(), "little") >> 1


def digest(chunks) -> str:
    """blake2b over an iterable of str/bytes chunks, newline-separated."""
    h = hashlib.blake2b(digest_size=12)
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class Percentile:
    """A percentile with the sample count it rests on."""

    q: float
    value_ms: float
    n: int
    beyond: int

    def describe(self, name: str) -> str:
        return (
            f"{name} = {self.value_ms:.4f} ms "
            f"(p{self.q:g} of n={self.n}, {self.beyond} samples beyond)"
        )


def percentile_ms(samples_s, q: float) -> Percentile:
    arr = np.asarray(samples_s, dtype=np.float64) * 1e3
    value = float(np.percentile(arr, q))
    return Percentile(q, value, int(arr.size), int(np.sum(arr > value)))


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def descendant_pids() -> list[int]:
    """Pids of this process's live descendants, from ``/proc``.

    Shard workers are started by a forkserver, so they are grandchildren
    and never show in ``RUSAGE_CHILDREN``; ``/proc`` sees them.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        children[ppid].append(int(entry))
    out: list[int] = []
    stack = list(children[os.getpid()])
    while stack:
        pid = stack.pop()
        out.append(pid)
        stack.extend(children[pid])
    return out


def descendants_peak_rss_mb() -> float:
    """Sum of the peak resident sets of this process's live descendants."""
    total_kb = 0
    for pid in descendant_pids():
        try:
            with open(f"/proc/{pid}/status") as fh:
                total_kb += next(
                    int(line.split()[1]) for line in fh if line.startswith("VmHWM:")
                )
        except (OSError, StopIteration):
            continue
    return total_kb / 1024.0


def _threads(pid: int) -> list[int]:
    try:
        return [int(tid) for tid in os.listdir(f"/proc/{pid}/task")]
    except OSError:
        return []  # exited


class CoreRotation:
    """Moves work round the allowed CPUs every ``period_s``.

    On a shared VM the virtual CPUs run at different speeds (a fixed loop
    took 0.09 s on one and 0.13 s on the other, and which one was faster
    changed within minutes), so a serial workload's speed depended on
    the CPU the scheduler happened to keep it on.  Rotating it samples
    every CPU evenly within each measured window.

    By default only the calling thread moves.  With ``processes=True``
    every thread of this process moves to CPU ``i`` and every thread of
    its descendants to CPU ``i + 1``, so a client and its shard worker
    keep a CPU each and swap them every period.
    """

    def __init__(self, period_s: float = 0.02, processes: bool = False):
        self.period_s = period_s
        self.processes = processes
        self.cpus = sorted(os.sched_getaffinity(0))
        self.tid = threading.get_native_id()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._rotate, daemon=True)

    def _groups(self) -> list[list[int]]:
        if not self.processes:
            return [[self.tid]]
        return [_threads(os.getpid()),
                [tid for pid in descendant_pids() for tid in _threads(pid)]]

    def _pin(self, i: int) -> None:
        for j, tids in enumerate(self._groups()):
            cpu = {self.cpus[(i + j) % len(self.cpus)]}
            for tid in tids:
                try:
                    os.sched_setaffinity(tid, cpu)
                except OSError:
                    pass  # the thread ended

    def _rotate(self) -> None:
        i = 0
        while not self._stop.wait(self.period_s):
            i += 1
            self._pin(i)

    def __enter__(self) -> "CoreRotation":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        for tids in self._groups():
            for tid in tids:
                try:
                    os.sched_setaffinity(tid, set(self.cpus))
                except OSError:
                    pass


def host_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------- #
# Spans and the stage table
# ---------------------------------------------------------------------- #
@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: int

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class SpanLog:
    """Spans kept in memory during a traced run, written out at the end.

    Roots are requests measured through the program's public entry
    point; children are the same request replayed through single layer
    functions on a private stack, so a child's interval lies outside its
    root's (the replay runs after the request) while its duration is the
    stage cost.
    """

    spans: list[Span] = field(default_factory=list)

    def add(self, name, start, end, parent=None, request_id=-1) -> int:
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, start, end, parent, request_id))
        return span_id

    def timed(self, name: str, parent: int, request_id: int, fn, *args, **kw):
        start = now()
        result = fn(*args, **kw)
        self.add(name, start, now(), parent, request_id)
        return result

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                out[s.parent].append(s)
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [s.ms for s in self.spans if s.name == name]

    def stage_table(self) -> tuple[list[tuple[str, float]], float, float]:
        """Mean per-root ms of each stage, the residual, and the total.

        Only roots that were replayed (have children) enter the table, so
        every row is averaged over the same population and the rows plus
        ``unattributed_ms`` add up to the measured mean exactly.
        """
        kids = self.children()
        roots = [r for r in self.roots() if r.span_id in kids]
        if not roots:
            return [], 0.0, 0.0
        sums: dict[str, float] = defaultdict(float)
        for root in roots:
            for child in kids[root.span_id]:
                sums[child.name] += child.ms
        n = len(roots)
        rows = [(name, total / n) for name, total in sums.items()]
        measured = sum(r.ms for r in roots) / n
        return rows, measured - sum(ms for _, ms in rows), measured

    def render_table(self, unit: str) -> list[str]:
        rows, residual, measured = self.stage_table()
        n = len([r for r in self.roots() if r.span_id in self.children()])
        lines = [
            f"stage table: mean ms per {unit} over {n} traced {unit}s",
            f"  {'stage':<32}{'ms':>12}{'share':>9}",
        ]
        for name, ms in rows + [("unattributed_ms", residual)]:
            share = ms / measured if measured else 0.0
            lines.append(f"  {name:<32}{ms:>12.4f}{share:>8.1%}")
        lines.append(f"  {'measured (sum of rows)':<32}{measured:>12.4f}")
        return lines

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
