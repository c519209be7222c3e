"""Crash-resumable grid tests: checkpoint write, resume, kill-and-resume.

The contract under test (ISSUE acceptance): a ``run_grid`` process killed
mid-run resumes from its checkpoint and produces a probe set identical to
an uninterrupted run — same probes, no duplicates — including when the
"kill" is a hard ``os._exit`` in a child process (no finalizers, no
atexit, the closest a test gets to SIGKILL).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import quick_grid, run_grid
from repro.core.storage import load_checkpoint, load_probes_jsonl
from repro.errors import ExperimentError, InjectedFaultError
from repro.faults import FaultPlan


def small_grid():
    return quick_grid(
        sizes=("SM",), icl_counts=(1, 2, 3), n_sets=1, seeds=(1,),
        selections=("random",), n_queries=1,
    )


def probe_key(probe):
    """Identity of a probe for set comparisons (spec cell + query + output)."""
    return (
        probe.spec.cell_key,
        probe.query_index,
        probe.predicted,
        probe.generated_text,
    )


def crashing_plan(specs, crash_index):
    """A FaultPlan that faults exactly ``specs[crash_index]`` and no other.

    Searched rather than hardcoded so the test never silently stops
    crashing when the grid helper changes its specs.
    """
    for seed in range(500):
        plan = FaultPlan(seed=seed, cell_error_rate=0.4)
        hits = [plan.cell_fault(spec.cell_key) for spec in specs]
        if hits == [i == crash_index for i in range(len(specs))]:
            return plan
    raise AssertionError("no suitable crash plan seed in range")


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted run every resume result must reproduce."""
    return run_grid(small_grid(), workers=1)


class TestCheckpointWriting:
    def test_checkpoint_matches_returned_probes(self, tmp_path, baseline):
        path = tmp_path / "grid.jsonl"
        probes = run_grid(small_grid(), workers=1, checkpoint=path)
        assert [probe_key(p) for p in probes] == [
            probe_key(p) for p in baseline
        ]
        on_disk = load_probes_jsonl(path)
        assert [probe_key(p) for p in on_disk] == [
            probe_key(p) for p in probes
        ]

    def test_existing_checkpoint_without_resume_is_an_error(
        self, tmp_path, baseline
    ):
        path = tmp_path / "grid.jsonl"
        run_grid(small_grid(), workers=1, checkpoint=path)
        with pytest.raises(ExperimentError, match="resume"):
            run_grid(small_grid(), workers=1, checkpoint=path)

    def test_duplicate_cells_rejected(self, tmp_path):
        specs = small_grid()
        with pytest.raises(ExperimentError, match="duplicate"):
            run_grid(
                specs + specs[:1], workers=1,
                checkpoint=tmp_path / "dup.jsonl",
            )


class TestResume:
    def test_resume_skips_completed_cells(
        self, tmp_path, baseline, monkeypatch
    ):
        """Resuming a finished checkpoint re-runs nothing at all."""
        path = tmp_path / "grid.jsonl"
        run_grid(small_grid(), workers=1, checkpoint=path)

        def boom(*a, **kw):
            raise AssertionError("completed cell was re-run on resume")

        monkeypatch.setattr("repro.core.runner.run_spec", boom)
        probes = run_grid(
            small_grid(), workers=1, checkpoint=path, resume=True
        )
        assert [probe_key(p) for p in probes] == [
            probe_key(p) for p in baseline
        ]

    def test_crash_then_resume_equals_uninterrupted(self, tmp_path, baseline):
        """Deterministic mid-grid crash (injected cell fault), then resume."""
        specs = small_grid()
        plan = crashing_plan(specs, crash_index=2)
        path = tmp_path / "grid.jsonl"
        with pytest.raises(InjectedFaultError):
            run_grid(specs, workers=1, checkpoint=path, fault_plan=plan)
        # The first two cells made it to disk before the crash.
        assert len(load_checkpoint(path, specs)) == 2
        resumed = run_grid(specs, workers=1, checkpoint=path, resume=True)
        assert [probe_key(p) for p in resumed] == [
            probe_key(p) for p in baseline
        ]
        # No duplicates on disk either.
        keys = [probe_key(p) for p in load_probes_jsonl(path)]
        assert len(keys) == len(set(keys)) == len(baseline)

    def test_truncated_tail_is_discarded_and_rerun(self, tmp_path, baseline):
        """A line cut mid-write (the kill signature) costs one cell, not
        the checkpoint."""
        path = tmp_path / "grid.jsonl"
        run_grid(small_grid(), workers=1, checkpoint=path)
        text = path.read_text()
        path.write_text(text[: len(text) - 30])  # chop into the last record
        specs = small_grid()
        assert len(load_checkpoint(path, specs)) == len(specs) - 1
        resumed = run_grid(specs, workers=1, checkpoint=path, resume=True)
        assert [probe_key(p) for p in resumed] == [
            probe_key(p) for p in baseline
        ]

    def test_foreign_probes_are_ignored(self, tmp_path):
        """A checkpoint from a different grid resumes nothing."""
        path = tmp_path / "grid.jsonl"
        run_grid(small_grid(), workers=1, checkpoint=path)
        other = quick_grid(
            sizes=("SM",), icl_counts=(5,), n_sets=1, seeds=(2,),
            selections=("random",), n_queries=1,
        )
        assert load_checkpoint(path, other) == {}


class TestKillAndResume:
    def test_hard_killed_run_resumes_identically(self, tmp_path, baseline):
        """Child process dies via os._exit mid-grid (no finalizers — the
        closest stand-in for SIGKILL); the parent resumes its checkpoint
        and must reproduce the uninterrupted probe set exactly."""
        path = tmp_path / "grid.jsonl"
        child = f"""
import os
import repro.core.runner as runner
from repro.core import quick_grid, run_grid

specs = quick_grid(
    sizes=("SM",), icl_counts=(1, 2, 3), n_sets=1, seeds=(1,),
    selections=("random",), n_queries=1,
)
real_run_spec = runner.run_spec
calls = []

def dying_run_spec(spec, **kw):
    calls.append(spec.cell_key)
    if len(calls) == 3:
        os._exit(23)  # hard kill: no atexit, no finally, no flush
    return real_run_spec(spec, **kw)

runner.run_spec = dying_run_spec
run_grid(specs, workers=1, checkpoint={str(path)!r})
raise SystemExit("grid finished; the kill never fired")
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 23, proc.stderr
        # Cells 1-2 were checkpointed (fsync before the kill), cell 3 not.
        specs = small_grid()
        done = load_checkpoint(path, specs)
        assert len(done) == 2
        resumed = run_grid(specs, workers=1, checkpoint=path, resume=True)
        assert [probe_key(p) for p in resumed] == [
            probe_key(p) for p in baseline
        ]
        keys = [probe_key(p) for p in load_probes_jsonl(path)]
        assert len(keys) == len(set(keys)) == len(baseline)


def pool_grid():
    """Six cells: enough for parallel_map to engage its pool."""
    return quick_grid(
        sizes=("SM",), icl_counts=(1, 2, 3), n_sets=1, seeds=(1, 2),
        selections=("random",), n_queries=1,
    )


@pytest.fixture(scope="module")
def serial_checkpoint(tmp_path_factory):
    """A ``workers=1`` checkpoint of :func:`pool_grid` and its probes."""
    path = tmp_path_factory.mktemp("serial") / "grid.jsonl"
    probes = run_grid(pool_grid(), workers=1, checkpoint=path)
    return path, probes


@pytest.fixture()
def counted_pools(monkeypatch):
    """Four cores whatever the host, and a log of every pool built."""
    from concurrent.futures import ProcessPoolExecutor

    import repro.utils.parallel as parallel_mod

    built = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", CountingPool)
    return built


class TestPooledCheckpoint:
    def test_pooled_checkpoint_is_byte_identical(
        self, tmp_path, serial_checkpoint, counted_pools
    ):
        """A checkpointed grid fans out across ``workers`` and still
        appends its cells in spec order."""
        serial_path, serial_probes = serial_checkpoint
        path = tmp_path / "grid.jsonl"
        probes = run_grid(pool_grid(), workers=2, checkpoint=path)
        assert counted_pools == [2]
        assert path.read_bytes() == serial_path.read_bytes()
        assert [probe_key(p) for p in probes] == [
            probe_key(p) for p in serial_probes
        ]

    def test_pooled_crash_then_resume_equals_uninterrupted(
        self, tmp_path, serial_checkpoint, counted_pools
    ):
        """A cell fault in a pool worker surfaces at its position, after
        the cells before it are on disk; the pooled resume completes the
        checkpoint to the uninterrupted bytes."""
        serial_path, serial_probes = serial_checkpoint
        specs = pool_grid()
        plan = crashing_plan(specs, crash_index=1)
        path = tmp_path / "grid.jsonl"
        with pytest.raises(InjectedFaultError):
            run_grid(specs, workers=2, checkpoint=path, fault_plan=plan)
        assert list(load_checkpoint(path, specs)) == [specs[0].cell_key]
        resumed = run_grid(specs, workers=2, checkpoint=path, resume=True)
        assert counted_pools == [2, 2]
        assert [probe_key(p) for p in resumed] == [
            probe_key(p) for p in serial_probes
        ]
        assert path.read_bytes() == serial_path.read_bytes()
