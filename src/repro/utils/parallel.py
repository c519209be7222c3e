"""Worker-pool helpers for embarrassingly parallel experiment grids.

The experiment runner fans hundreds of independent experiment cells out
across processes.  Following the HPC guides, we keep the per-task payload
picklable and chunky (one full experiment cell, not one token) so IPC cost
is amortized, and we fall back to serial execution for tiny workloads where
pool startup would dominate.  :func:`parallel_map` yields results in input
order as they complete, so a caller can checkpoint each one as it arrives.

The serving layer's batch scheduler (:mod:`repro.serve.scheduler`) sizes
its thread pool with the same :func:`effective_workers` policy, opting out
of the core-count clamp for its IO-free batch work (oversubscription).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

__all__ = [
    "effective_workers",
    "mp_context",
    "parallel_map",
    "DEFAULT_WORKER_CAP",
]

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

#: Below this many tasks a process pool costs more than it saves.
_SERIAL_THRESHOLD = 4

#: Default ceiling on auto-selected worker counts: beyond this the grid
#: workloads stop scaling (memory-bandwidth bound) on every tested host.
DEFAULT_WORKER_CAP = 16


def effective_workers(
    requested: int | None = None,
    *,
    allow_oversubscription: bool = False,
) -> int:
    """Resolve a worker count against ``min(cpu_count, DEFAULT_WORKER_CAP)``.

    The same clamp applies whether the count was requested explicitly or
    defaulted (``None`` means "all cores"): both are limited to the machine
    core count and then to :data:`DEFAULT_WORKER_CAP`.  A request that gets
    clamped is logged, so a silently-shrunk pool is visible in debug output.

    Parameters
    ----------
    requested:
        Desired worker count, or ``None`` for "all cores (clamped)".
    allow_oversubscription:
        When true, an explicit ``requested`` is returned as-is, bypassing
        both clamps.  This is for schedulers of IO-free or lock-free batch
        work (e.g. the :mod:`repro.serve` microbatcher) that intentionally
        run more workers than cores.  ``None`` still resolves to the
        clamped default.
    """
    cores = os.cpu_count() or 1
    limit = min(cores, DEFAULT_WORKER_CAP)
    if requested is None:
        return limit
    if requested < 1:
        raise ValueError(f"workers must be >= 1, got {requested}")
    if allow_oversubscription or requested <= limit:
        return requested
    logger.debug(
        "clamping requested workers %d to %d (cores=%d, cap=%d)",
        requested, limit, cores, DEFAULT_WORKER_CAP,
    )
    return limit


def mp_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing start method safe to use alongside threads.

    The POSIX default (``fork``) snapshots the parent mid-flight: any lock
    held by another thread — a logging handler, a cache lock, the serve
    collector's queue mutex — is copied locked into the child with no
    owner to release it, and the child deadlocks.  Every pool in this
    package therefore starts workers from a clean interpreter:
    ``forkserver`` where the platform offers it (cheaper after the first
    spawn), plain ``spawn`` otherwise.
    """
    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:
        return multiprocessing.get_context("spawn")


def parallel_map(
    fn: Callable[[T], R], items: Iterable[T], *, workers: int | None = None
) -> Iterator[R]:
    """Map ``fn`` over ``items``, yielding results in input order.

    Runs serially when the workload is small or only one worker is
    available; otherwise a process pool runs the items (``fn`` and every
    item must then be picklable) and each result is yielded as soon as it
    and every earlier one are done.  An exception raised by ``fn``
    surfaces at its item's position.  The pool shuts down when the
    iterator is exhausted or closed: close it (e.g. with
    :func:`contextlib.closing`) when stopping early.
    """
    items = list(items)
    nworkers = effective_workers(workers)
    if nworkers == 1 or len(items) < _SERIAL_THRESHOLD:
        return (fn(item) for item in items)
    return _pooled(fn, items, nworkers)


def _pooled(fn, items, nworkers):
    with ProcessPoolExecutor(
        max_workers=nworkers, mp_context=mp_context()
    ) as pool:
        yield from pool.map(
            fn, items, chunksize=max(1, len(items) // (nworkers * 4))
        )
