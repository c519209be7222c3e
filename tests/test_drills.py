"""repro.drills: the determinism harness and the drills called in-process."""

from __future__ import annotations

import dataclasses
import math

import repro.drills as drills
import repro.drills.service as service_drills
from repro.cli import main
from repro.drills import (
    SessionsChaosRun,
    repeated_workload,
    service_chaos_drill,
    sessions_chaos_drill,
    verify_deterministic,
)
from repro.drills.harness import MISSING
from repro.faults import DEFAULT_FAULT_PLAN, FaultPlan
from repro.obs import render_dashboard
from repro.serve.stats import StatsRecorder, service_stats


def stub_runs(*results):
    """A ``run`` that ignores its variant and returns ``results`` in order."""
    it = iter(results)
    return lambda _variant: next(it)


class TestVerifyDeterministic:
    def test_identical_variants_are_ok(self):
        run = {"a": 1, "nested": {"b": [1, 2]}}
        report = verify_deterministic(
            stub_runs(run, dict(run), dict(run)), dict, ["x", "y", "z"]
        )
        assert report.ok
        assert report.first is run and len(report.results) == 3
        assert report.diffs == ({}, {})
        assert report.render("across runs") == (
            "deterministic across runs: yes\ndeterministic across runs: yes"
        )

    def test_divergence_names_exactly_the_key_with_both_values(self):
        first = {"a": 1, "outcomes": {"ok": 5, "shed": 0}}
        second = {"a": 1, "outcomes": {"ok": 4, "shed": 0}}
        report = verify_deterministic(
            stub_runs(first, second), dict, ["one", "two"]
        )
        assert not report.ok
        assert report.diffs == ({"outcomes.ok": (5, 4)},)
        assert report.render("across runs").splitlines() == [
            "deterministic across runs: NO",
            "  outcomes.ok: 5 vs 4",
        ]

    def test_only_the_diverging_variant_fails(self):
        report = verify_deterministic(
            stub_runs({"v": 1}, {"v": 1}, {"v": 2}), dict, [0, 1, 2]
        )
        assert not report.ok
        assert report.render("plain", 1) == "deterministic plain: yes"
        assert report.render("probed", 2).splitlines() == [
            "deterministic probed: NO", "  v: 1 vs 2",
        ]

    def test_missing_key_is_a_divergence(self):
        report = verify_deterministic(
            stub_runs({"a": 1, "b": 2}, {"a": 1}), dict, [0, 1]
        )
        assert report.diffs == ({"b": (2, MISSING)},)
        assert "  b: 2 vs <missing>" in report.render("x")

    def test_nan_equals_itself(self):
        report = verify_deterministic(
            stub_runs({"r": math.nan}, {"r": math.nan}), dict, [0, 1]
        )
        assert report.ok

    def test_single_variant_compares_nothing(self):
        calls = []
        report = verify_deterministic(
            lambda v: calls.append(v) or v, lambda r: {"v": r}, ["only"]
        )
        assert report.ok and report.diffs == () and calls == ["only"]
        assert report.render("x") == ""

    def test_run_and_slice_see_every_variant_in_order(self):
        sliced = []

        def slice_fn(result):
            sliced.append(result)
            return {"v": result % 10}

        report = verify_deterministic(lambda v: v, slice_fn, [3, 13, 23])
        assert report.ok and report.results == (3, 13, 23)
        assert sliced == [3, 13, 23]

    def test_long_values_are_elided(self):
        report = verify_deterministic(
            stub_runs({"k": "a" * 1000}, {"k": "b" * 1000}), dict, [0, 1]
        )
        line = report.render("x").splitlines()[1]
        assert line.startswith("  k: 'aaa") and len(line) < 400


class TestRepeatedWorkload:
    def test_waves_cycle_and_switch_seed(self):
        workload = repeated_workload(
            size="SM", n_icl=2, unique=3, n_requests=7, seed=5
        )
        assert len(workload) == 7
        keys = [r.prompt_key for r in workload]
        assert keys[:3] == keys[3:6] and keys[6] == keys[0]
        assert [r.seed for r in workload] == [5, 6, 7, 1005, 1006, 1007, 5]
        assert not any(r.evidence for r in workload)


class TestServiceChaosDrill:
    def test_plain_and_cache_probe_variants_equal(self):
        workload = repeated_workload(
            size="SM", n_icl=2, unique=4, n_requests=12, seed=1
        )
        plan = dataclasses.replace(
            DEFAULT_FAULT_PLAN, seed=1, latency_spike_s=0.001,
            queue_stall_s=0.001,
        )
        report = service_chaos_drill(workload, plan, verify_determinism=True)
        assert len(report.results) == 3
        assert report.ok, report.render("chaos")
        run = report.first
        assert len(run.values) == 12 and run.stats.n_logical == 12
        assert report.results[2].faults == run.faults

    def test_tripped_breaker_reaches_timeline_and_top(self):
        """The drill scrapes the resilient service itself, so a breaker
        it trips shows in the telemetry and on the dashboard."""
        workload = repeated_workload(
            size="SM", n_icl=5, unique=6, n_requests=30, seed=1
        )
        plan = FaultPlan(seed=1, transient_error_rate=0.9)
        run = service_drills.run_service_chaos(workload, plan, max_attempts=2)
        assert run.stats.n_breaker_trips >= 1
        records = run.sampler.records()
        final = [r for r in records if r["type"] == "sample"][-1]
        assert final["metrics"]["breaker.trips{route=SM}"] >= 1
        assert "breaker state" in render_dashboard(records)


class TestSessionsChaosDrill:
    def test_two_runs_equal_histories_and_clean_journals(self, tmp_path):
        report = sessions_chaos_drill(
            tmp_path, verify_determinism=True, requests=12, seed=2
        )
        assert report.ok, report.render("sessions")
        first, second = report.results
        assert first.histories == second.histories
        assert len(first.histories) == 3
        assert first.problems == [] and second.problems == []
        assert first.completion == 1.0
        assert (tmp_path / "sessions-a.jsonl").exists()
        assert (tmp_path / "sessions-b.jsonl").exists()

    def test_journal_audit_flags_duplicated_and_lost_steps(
        self, tmp_path, monkeypatch
    ):
        real = service_drills.load_events_jsonl

        def tampered(path, kind):
            evals = [e for e in real(path, kind=kind) if e["event"] == "eval"]
            return evals[1:] + [evals[2]]  # lose step 0, replay another

        monkeypatch.setattr(service_drills, "load_events_jsonl", tampered)
        run = service_drills.run_sessions_chaos(
            tmp_path / "log.jsonl", requests=12, seed=2
        )
        lost, extra = run.problems
        assert lost.startswith("lost: [(") and "duplicated" in extra


class TestCliRendersDiffs:
    """Determinism failures name what diverged, not just "NO"."""

    def test_sessions_chaos_names_the_diverged_session(
        self, monkeypatch, capsys
    ):
        stats = service_stats(StatsRecorder(8).snapshot(), 8)
        good = {"tenant-0/s0": ((1, 2), (0.5, 0.25))}
        bad = {"tenant-0/s0": ((1, 3), (0.5, 0.125))}
        runs = iter([
            SessionsChaosRun(good, 1.0, [], stats),
            SessionsChaosRun(bad, 1.0, [], stats),
        ])
        monkeypatch.setattr(
            service_drills, "run_sessions_chaos",
            lambda path, **kw: next(runs),
        )
        assert main(["chaos", "--sessions", "--verify-determinism"]) == 1
        out = capsys.readouterr().out
        assert "deterministic histories across two chaos runs: NO" in out
        assert (
            "  histories.tenant-0/s0: ((1, 2), (0.5, 0.25)) vs "
            "((1, 3), (0.5, 0.125))" in out
        )

    def test_loadtest_violation_prints_per_key_diff(
        self, monkeypatch, capsys
    ):
        payloads = iter([
            {"seed": 3, "outcomes": {"ok": 5, "shed": 0}},
            {"seed": 3, "outcomes": {"ok": 4, "shed": 0}},
        ])

        def fake_drill(spec, *, check_determinism, **kw):
            assert check_determinism
            return verify_deterministic(
                lambda _: next(payloads), dict, ["first", "rerun"]
            )

        monkeypatch.setattr(drills, "loadtest_drill", fake_drill)
        assert main([
            "loadtest", "--duration", "0.1", "--check-determinism",
        ]) == 1
        err = capsys.readouterr().err
        assert "DETERMINISM VIOLATION between identical runs:" in err
        assert "  outcomes.ok: 5 vs 4" in err
        assert "outcomes.shed" not in err
