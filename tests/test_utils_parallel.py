"""Tests for the worker-pool helpers."""

import os

import pytest

import repro.utils.parallel as parallel_mod
from repro.utils.parallel import (
    _SERIAL_THRESHOLD,
    DEFAULT_WORKER_CAP,
    effective_workers,
    mp_context,
    parallel_map,
)


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three")
    return x * x


class TestEffectiveWorkers:
    def test_default_capped(self):
        w = effective_workers(None)
        assert 1 <= w <= DEFAULT_WORKER_CAP

    def test_explicit_respected(self):
        assert effective_workers(1) == 1

    def test_capped_by_cores(self):
        cores = os.cpu_count() or 1
        assert effective_workers(10_000) <= cores

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            effective_workers(0)

    def test_clamp_is_symmetric(self):
        """Explicit requests and the default hit the *same* ceiling."""
        limit = effective_workers(None)
        assert effective_workers(10_000) == limit

    def test_custom_cap(self, monkeypatch):
        """DEFAULT_WORKER_CAP clamps below the core count."""
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(parallel_mod, "DEFAULT_WORKER_CAP", 2)
        assert effective_workers(None) == 2
        assert effective_workers(8) == 2

    def test_oversubscription_opt_out(self):
        """Explicit counts bypass both clamps when oversubscribing."""
        assert effective_workers(500, allow_oversubscription=True) == 500

    def test_oversubscription_does_not_change_default(self):
        assert effective_workers(
            None, allow_oversubscription=True
        ) == effective_workers(None)

    def test_clamp_logged(self, caplog):
        import logging

        with caplog.at_level(logging.DEBUG, logger="repro.utils.parallel"):
            effective_workers(10_000)
        assert any("clamping" in r.message for r in caplog.records)


class TestParallelMap:
    def test_empty(self):
        assert list(parallel_map(_square, [])) == []

    def test_serial_small(self):
        assert list(parallel_map(_square, [1, 2, 3], workers=1)) == [1, 4, 9]

    def test_parallel_preserves_order(self):
        items = list(range(40))
        out = list(parallel_map(_square, items, workers=2))
        assert out == [x * x for x in items]

    def test_results_match_serial(self):
        items = list(range(25))
        assert list(parallel_map(_square, items, workers=2)) == list(
            parallel_map(_square, items, workers=1)
        )

    def test_pooled_results_arrive_in_order(self, monkeypatch):
        """The pool yields each result in input order, and an error
        surfaces at its item's position, after every earlier result."""
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        out = parallel_map(_fail_on_three, range(6), workers=2)
        assert [next(out) for _ in range(3)] == [0, 1, 4]
        with pytest.raises(ValueError, match="three"):
            next(out)

    def test_invalid_workers_raise_at_call(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1], workers=0)


class TestMpContext:
    def test_never_fork(self):
        """Pools must start workers from a clean interpreter: fork would
        copy locks held by other threads into the child, locked forever."""
        assert mp_context().get_start_method() in {"forkserver", "spawn"}

    def test_stable_across_calls(self):
        assert (
            mp_context().get_start_method()
            == mp_context().get_start_method()
        )

    def test_pool_fans_out_beside_live_service(self, monkeypatch):
        """Regression: a process pool spawned while a threaded
        PredictionService is live must not inherit its held locks.
        Under ``fork`` the scheduler/cache mutexes are copied locked
        into the children and the pool hangs; spawn/forkserver boots
        clean interpreters.  (cpu_count is patched so the pool engages
        even on a single-core host.)"""
        from repro.serve import PredictionService

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        with PredictionService(max_batch_size=2):
            items = list(range(8))
            out = list(parallel_map(_square, items, workers=2))
        assert out == [x * x for x in items]


class TestSerialFastPaths:
    """The no-pool paths must never construct an executor."""

    @pytest.fixture()
    def forbid_pools(self, monkeypatch):
        def _boom(*a, **kw):  # pragma: no cover - only on regression
            raise AssertionError("worker pool constructed on a serial path")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _boom)

    def test_workers_one_never_pools(self, forbid_pools):
        items = list(range(_SERIAL_THRESHOLD * 3))
        assert list(parallel_map(_square, items, workers=1)) == [
            x * x for x in items
        ]

    def test_below_threshold_never_pools(self, forbid_pools):
        items = list(range(_SERIAL_THRESHOLD - 1))
        assert list(parallel_map(_square, items, workers=4)) == [
            x * x for x in items
        ]

    @pytest.fixture()
    def recorded_pool(self, monkeypatch):
        """A process-pool stand-in that records its size and shutdown;
        cpu_count is patched so the pool engages even on 1 core."""
        used = {}

        class Recorder:
            def __init__(self, max_workers=None, **kw):
                used["max_workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                used["closed"] = True
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        return used

    def test_at_threshold_uses_pool(self, recorded_pool):
        """Exactly _SERIAL_THRESHOLD items with >1 workers goes parallel,
        and the pool shuts down once the results are consumed."""
        items = list(range(_SERIAL_THRESHOLD))
        out = list(parallel_map(_square, items, workers=2))
        assert out == [x * x for x in items]
        assert recorded_pool == {"max_workers": 2, "closed": True}

    def test_closing_early_shuts_pool(self, recorded_pool):
        out = parallel_map(_square, range(8), workers=2)
        assert next(out) == 0
        assert "closed" not in recorded_pool
        out.close()
        assert recorded_pool["closed"]
