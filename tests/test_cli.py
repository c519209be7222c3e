"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: Every subcommand's settable values, recorded from ``parser_surface``.
_GOLDEN = Path(__file__).parent / "data" / "cli_parser.json"


def _describe(action):
    choices = action.choices
    return {
        "option_strings": list(action.option_strings),
        "default": action.default,
        "type": getattr(action.type, "__name__", action.type),
        "choices": None if choices is None else list(choices),
        "nargs": action.nargs,
        "required": action.required,
        "action": type(action).__name__,
    }


def _subparsers(parser):
    """``(name, parser)`` for the top-level parser and each subcommand."""
    (sub,) = (a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction))
    return [("", parser), *sub.choices.items()]


def parser_surface(parser):
    """What a command line can set, per subcommand: positionals in order,
    optionals by ``dest``.  Help text is left out."""
    surface = {}
    for name, p in _subparsers(parser):
        surface[name] = {
            "positionals": [_describe(a) for a in p._actions
                            if not a.option_strings],
            "optionals": {a.dest: _describe(a) for a in p._actions
                          if a.option_strings},
        }
    # A JSON round trip turns tuples into lists, as the golden file has them.
    return json.loads(json.dumps(surface))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_args(self):
        args = build_parser().parse_args(
            ["dataset", "--size", "XL", "--output", "x.csv"]
        )
        assert args.command == "dataset" and args.size == "XL"

    def test_invalid_size_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["dataset", "--size", "HUGE", "--output", "x.csv"]
            )


class TestParserGolden:
    def test_settable_values_match_golden(self):
        def flat(surface):
            return {
                (name, kind, key): action
                for name, groups in surface.items()
                for kind, actions in groups.items()
                for key, action in (
                    enumerate(actions) if kind == "positionals"
                    else actions.items()
                )
            }

        golden = flat(json.loads(_GOLDEN.read_text()))
        surface = flat(parser_surface(build_parser()))
        assert sorted(surface) == sorted(golden)
        changed = {k: (golden[k], v) for k, v in surface.items()
                   if v != golden[k]}
        assert changed == {}

    @pytest.mark.parametrize(
        "name", [name for name, _ in _subparsers(build_parser())]
    )
    def test_help_renders(self, name):
        parser = dict(_subparsers(build_parser()))[name]
        assert parser.format_help().startswith("usage:")


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["serve-bench", "--shards", "-1"],
        ["sessions", "run", "--shards", "-2"],
        ["grid", "--workers", "0"],
        ["loadtest", "--workers", "-1"],
        ["loadtest", "--rps", "-5"],
        ["loadtest", "--rps", "nan"],
        ["loadtest", "--duration", "0"],
        ["loadtest", "--duration", "inf"],
        ["predict", "--n-icl", "0"],
    ], ids=" ".join)
    def test_bad_value_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro ")
        assert f"argument {argv[-2]}" in err

    @pytest.mark.parametrize("argv", [
        ["report", "{missing}"],
        ["trace", "summarize", "{missing}"],
        ["trace", "flame", "{missing}"],
        ["top", "{missing}", "--once"],
        ["sessions", "status", "--log", "{missing}"],
        ["sessions", "resume", "--log", "{missing}"],
        ["loadtest", "--slo", "{missing}"],
    ], ids=" ".join)
    def test_missing_file_is_one_line(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "missing.jsonl")
        assert main([a.format(missing=missing) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert err == f"{missing}: unrecoverable: {missing} does not exist\n"


class TestCommands:
    def test_dataset_roundtrip(self, tmp_path, capsys, space):
        out = tmp_path / "sm.csv"
        assert main(["dataset", "--size", "SM", "--output", str(out)]) == 0
        assert out.exists()
        assert "10648 rows" in capsys.readouterr().out
        from repro.dataset.io import load_dataset_csv

        loaded = load_dataset_csv(out, space)
        assert len(loaded) == 10648

    def test_predict(self, capsys):
        assert main(["predict", "--size", "SM", "--n-icl", "5",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "parsed" in out and "truth" in out

    def test_grid_small(self, capsys):
        assert main([
            "grid", "--sizes", "SM", "--icl", "2", "5", "--sets", "1",
            "--seeds", "1", "--queries", "2", "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "best R2" in out
        assert "error vs ICL count" in out

    def test_tune(self, capsys):
        assert main([
            "tune", "--size", "SM", "--budget", "10", "--repetitions", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "gp-bo" in out and "random" in out

    def test_table1(self, capsys):
        assert main(["table1", "--sizes", "SM", "--train", "100"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "SM" in out

    def test_grid_save_then_report(self, tmp_path, capsys):
        path = tmp_path / "probes.jsonl"
        assert main([
            "grid", "--sizes", "SM", "--icl", "3", "--sets", "1",
            "--seeds", "1", "--queries", "2", "--workers", "1",
            "--save", str(path),
        ]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Prediction quality (IV-A)" in out
        assert "Needles in a haystack" in out


class TestServeCommands:
    def test_grid_through_service(self, capsys):
        assert main([
            "grid", "--sizes", "SM", "--icl", "2", "--sets", "1",
            "--seeds", "1", "--queries", "2", "--serve",
        ]) == 0
        captured = capsys.readouterr()
        assert "best R2" in captured.out
        assert "served" in captured.err and "req/s" in captured.err

    def test_serve_bench(self, capsys):
        assert main([
            "serve-bench", "--size", "SM", "--n-icl", "2", "--unique", "2",
            "--repeats", "2", "--batch-size", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "caches on" in out and "caches off" in out
        assert "p95 latency" in out
        assert "result-cache hit rate" in out
        assert "caching speedup" in out

    def test_serve_bench_no_baseline(self, capsys):
        assert main([
            "serve-bench", "--size", "SM", "--n-icl", "2", "--unique", "2",
            "--repeats", "2", "--no-baseline",
        ]) == 0
        out = capsys.readouterr().out
        assert "caches on" in out and "caches off" not in out


class TestObservabilityCommands:
    def test_serve_bench_trace_then_summarize(self, tmp_path, capsys):
        """The acceptance path: bench with --trace, then reconstruct."""
        trace = tmp_path / "out.jsonl"
        assert main([
            "serve-bench", "--size", "SM", "--n-icl", "2", "--unique", "2",
            "--repeats", "2", "--no-baseline", "--trace", str(trace),
        ]) == 0
        captured = capsys.readouterr()
        assert trace.exists()
        assert "exported" in captured.err and "spans" in captured.err

        assert main(["trace", "summarize", str(trace), "--tree", "1"]) == 0
        out = capsys.readouterr().out
        # The per-stage breakdown covers the wired span taxonomy...
        for stage in ("serve.request", "serve.queue_wait",
                      "serve.cache_lookup", "serve.generate"):
            assert stage in out
        # ...and the sample tree shows one request's nested spans.
        assert "request_id=" in out

    def test_serve_bench_untraced_writes_no_file(self, tmp_path, capsys):
        assert main([
            "serve-bench", "--size", "SM", "--n-icl", "2", "--unique", "2",
            "--repeats", "2", "--no-baseline",
        ]) == 0
        capsys.readouterr()
        assert not list(tmp_path.iterdir())

    def test_serve_bench_metrics_table(self, capsys):
        assert main([
            "serve-bench", "--size", "SM", "--n-icl", "2", "--unique", "2",
            "--repeats", "2", "--no-baseline", "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "metrics registry" in out
        assert "serve.requests{event=completed}" in out
        assert "cache.lookups{level=result,outcome=hit}" in out

    def test_trace_summarize_empty_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summarize", str(empty)]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_chaos_verify_determinism(self, capsys):
        """Chaos determinism holds with degraded serves interleaved."""
        assert main([
            "chaos", "--size", "SM", "--n-icl", "2", "--requests", "16",
            "--unique", "4", "--latency-s", "0.001", "--stall-s", "0.001",
            "--verify-determinism",
        ]) == 0
        out = capsys.readouterr().out
        assert "deterministic across two identical runs: yes" in out
        assert (
            "deterministic with degraded cache serves interleaved: yes"
            in out
        )


class TestSessionsCommand:
    def test_parser_accepts_actions(self):
        args = build_parser().parse_args(
            ["sessions", "run", "--tenants", "2", "--budget", "4"]
        )
        assert args.command == "sessions" and args.action == "run"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sessions", "restart"])

    def test_status_and_resume_require_log(self, capsys):
        assert main(["sessions", "status"]) == 2
        assert main(["sessions", "resume"]) == 2

    def test_run_status_resume_cycle(self, tmp_path, capsys):
        log = str(tmp_path / "sessions.jsonl")
        assert main([
            "sessions", "run", "--tenants", "2", "--budget", "4",
            "--log", log, "--max-evaluations", "3",
            "--min-fairness", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "fairness (Jain)" in out

        assert main(["sessions", "status", "--log", log]) == 0
        out = capsys.readouterr().out
        assert "PAUSED" in out

        assert main(["sessions", "resume", "--log", log]) == 0
        out = capsys.readouterr().out
        assert out.count("DONE") == 2

    def test_run_fairness_gate_fails(self, capsys):
        # an impossible fairness bar (> 1.0) must exit nonzero
        assert main([
            "sessions", "run", "--tenants", "2", "--budget", "2",
            "--min-fairness", "1.5",
        ]) == 1

    def test_run_resilient_and_metrics(self, capsys):
        assert main([
            "sessions", "run", "--tenants", "2", "--budget", "2",
            "--resilient", "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "sessions.fairness_jain" in out

    def test_chaos_sessions_smoke(self, capsys):
        assert main([
            "chaos", "--sessions", "--requests", "12", "--seed", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign completion: 100.00%" in out
        assert "no lost or duplicated evaluations" in out


class TestFsckCommand:
    def events_file(self, tmp_path, n=4):
        from repro.core.storage import append_events_jsonl

        path = tmp_path / "events.jsonl"
        append_events_jsonl(
            [{"event": "eval", "step": i} for i in range(n)],
            path, kind="fsck-test",
        )
        return path

    def test_parser_accepts_fsck(self):
        args = build_parser().parse_args(
            ["fsck", "--repair", "--strict", "--kind", "events", "x.jsonl"]
        )
        assert args.command == "fsck"
        assert args.repair and args.strict
        assert args.paths == ["x.jsonl"]

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = self.events_file(tmp_path)
        assert main(["fsck", str(path)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_damaged_file_exits_one(self, tmp_path, capsys):
        path = self.events_file(tmp_path)
        with path.open("a") as fh:
            fh.write("garbage\n")
        assert main(["fsck", str(path)]) == 1
        assert "CORRUPTION FOUND" in capsys.readouterr().out

    def test_repair_fixes_and_exits_zero(self, tmp_path, capsys):
        path = self.events_file(tmp_path)
        with path.open("a") as fh:
            fh.write("garbage\n")
        assert main(["fsck", "--repair", str(path)]) == 0
        assert "repaired" in capsys.readouterr().out
        assert main(["fsck", str(path)]) == 0
        assert (tmp_path / "events.jsonl.quarantine").exists()

    def test_repair_strict_reports_damage(self, tmp_path):
        path = self.events_file(tmp_path)
        with path.open("a") as fh:
            fh.write("garbage\n")
        assert main(["fsck", "--repair", "--strict", str(path)]) == 1

    def test_unrecoverable_exits_two(self, tmp_path, capsys):
        path = tmp_path / "junk.jsonl"
        path.write_text("????\n")
        assert main(["fsck", str(path)]) == 2
        assert "unrecoverable" in capsys.readouterr().out

    def test_multiple_paths_worst_exit_wins(self, tmp_path):
        good = self.events_file(tmp_path)
        bad = tmp_path / "junk.jsonl"
        bad.write_text("????\n")
        assert main(["fsck", str(good), str(bad)]) == 2

    def test_parser_accepts_chaos_disk(self):
        args = build_parser().parse_args(["chaos", "--disk"])
        assert args.disk


class TestLoadtestCommand:
    FAST = [
        "loadtest", "--arrival", "constant", "--rps", "30",
        "--duration", "0.5", "--seed", "3", "--unique", "2",
        "--seed-lanes", "1", "--no-warmup",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["loadtest"])
        assert args.arrival == "poisson"
        assert args.mode == "open"
        assert args.slo == "default"
        assert args.warmup is True

    def test_parser_rejects_unknown_arrival(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadtest", "--arrival", "uniform"])

    def test_open_loop_passes_default_slo(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "schedule digest" in out

    def test_report_json_round_trips(self, tmp_path, capsys):
        from repro.loadgen import SLOReport

        path = tmp_path / "report.json"
        assert main(self.FAST + ["--report-json", str(path)]) == 0
        report = SLOReport.from_json(path.read_text())
        assert report.offered == 15
        assert report.ok == 15
        assert report.goodput == 1.0

    def test_closed_loop_and_metrics(self, capsys):
        assert main(self.FAST + ["--mode", "closed", "--concurrency", "2",
                                 "--metrics"]) == 0
        assert "loadgen.goodput" in capsys.readouterr().out

    def test_check_determinism_passes(self, capsys):
        assert main(self.FAST + ["--check-determinism"]) == 0
        assert "determinism check passed" in capsys.readouterr().err

    def test_slo_violation_exits_one(self, tmp_path, capsys):
        policy = tmp_path / "strict.json"
        policy.write_text('{"max_p50_ms": 0.0001}')
        assert main(self.FAST + ["--slo", str(policy)]) == 1
        assert "SLO VIOLATION" in capsys.readouterr().err

    def test_slo_off_never_gates(self, tmp_path, capsys):
        assert main(self.FAST + ["--slo", "off"]) == 0
        assert "SLO check" not in capsys.readouterr().err

    def test_sessions_ride_along(self, capsys):
        assert main(self.FAST + ["--sessions", "2",
                                 "--session-budget", "2"]) == 0
        assert "campaigns" in capsys.readouterr().out

    def test_trace_export(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(self.FAST + ["--trace", str(trace)]) == 0
        body = trace.read_text()
        assert "loadgen.run" in body


class TestTelemetryCommands:
    FAST = TestLoadtestCommand.FAST

    def test_loadtest_telemetry_export_then_top(self, tmp_path, capsys):
        """The pipeline path: sampled load → framed timeline → dashboard."""
        timeline = tmp_path / "telemetry.jsonl"
        assert main(self.FAST + [
            "--telemetry", str(timeline), "--telemetry-interval", "0.1",
        ]) == 0
        captured = capsys.readouterr()
        assert "telemetry records" in captured.err
        assert timeline.exists()

        assert main(["top", str(timeline), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "qps (completed)" in out
        assert "timeline:" in out and "max gap" in out

    def test_top_live_mode_honors_refresh_limit(self, tmp_path, capsys):
        timeline = tmp_path / "telemetry.jsonl"
        assert main(self.FAST + [
            "--telemetry", str(timeline), "--telemetry-interval", "0.1",
        ]) == 0
        capsys.readouterr()
        assert main(["top", str(timeline), "--interval", "0.01",
                     "--refresh-limit", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("\x1b[2J") == 2

    def test_telemetry_file_is_fsck_clean(self, tmp_path, capsys):
        timeline = tmp_path / "telemetry.jsonl"
        assert main(self.FAST + ["--telemetry", str(timeline)]) == 0
        capsys.readouterr()
        assert main(["fsck", "--strict", str(timeline)]) == 0
        out = capsys.readouterr().out
        assert "events:telemetry" in out and "clean" in out

    def test_trace_flame_writes_both_formats(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(self.FAST + ["--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "flame", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "folded call paths" in out
        assert "speedscope profiles" in out
        folded = tmp_path / "trace.jsonl.folded"
        speedscope = tmp_path / "trace.jsonl.speedscope.json"
        assert folded.exists() and speedscope.exists()
        assert "loadgen.run" in folded.read_text()
        import json as _json

        doc = _json.loads(speedscope.read_text())
        assert doc["profiles"]

    def test_trace_flame_explicit_output_paths(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(self.FAST + ["--trace", str(trace)]) == 0
        capsys.readouterr()
        folded = tmp_path / "out.folded"
        speedscope = tmp_path / "out.json"
        assert main(["trace", "flame", str(trace),
                     "--folded", str(folded),
                     "--speedscope", str(speedscope)]) == 0
        capsys.readouterr()
        assert folded.exists() and speedscope.exists()

    def test_chaos_reports_telemetry_liveness(self, capsys):
        assert main([
            "chaos", "--size", "SM", "--n-icl", "2", "--requests", "12",
            "--unique", "4", "--latency-s", "0.001", "--stall-s", "0.001",
            "--telemetry-drop-rate", "0.15", "--telemetry-dup-rate", "0.1",
            "--verify-determinism",
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry liveness" in out
        assert "VIOLATED" not in out
        assert "deterministic across two identical runs: yes" in out
