"""Tests for probe persistence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import quick_grid, run_grid
from repro.core.storage import load_probes_jsonl, save_probes_jsonl
from repro.errors import ExperimentError


@pytest.fixture(scope="module")
def probes():
    return run_grid(
        quick_grid(
            sizes=("SM",), icl_counts=(3,), n_sets=1, seeds=(1,), n_queries=3
        ),
        workers=1,
    )


class TestRoundtrip:
    def test_full_roundtrip(self, probes, tmp_path):
        path = tmp_path / "probes.jsonl"
        save_probes_jsonl(probes, path)
        loaded = load_probes_jsonl(path)
        assert len(loaded) == len(probes)
        for a, b in zip(probes, loaded):
            assert a.spec == b.spec
            assert a.generated_text == b.generated_text
            assert a.truth == pytest.approx(b.truth)
            assert a.exact_copy == b.exact_copy
            assert len(a.value_steps) == len(b.value_steps)
            for sa, sb in zip(a.value_steps, b.value_steps):
                assert sa.tokens == sb.tokens
                assert sa.chosen == sb.chosen
                np.testing.assert_allclose(sa.logits, sb.logits, atol=1e-5)

    def test_analyses_survive_roundtrip(self, probes, tmp_path):
        """The reloaded probes feed the report pipeline unchanged."""
        from repro.core import build_report

        path = tmp_path / "probes.jsonl"
        save_probes_jsonl(probes, path)
        loaded = load_probes_jsonl(path)
        a = build_report(probes)
        b = build_report(loaded)
        assert a.copy_rate == b.copy_rate
        assert a.parse_rate == b.parse_rate

    def test_unparsed_prediction_roundtrip(self, probes, tmp_path):
        import dataclasses

        broken = [dataclasses.replace(probes[0], predicted=None)]
        path = tmp_path / "one.jsonl"
        save_probes_jsonl(broken, path)
        assert load_probes_jsonl(path)[0].predicted is None


class TestErrors:
    def test_not_jsonl(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ExperimentError):
            load_probes_jsonl(path)

    def test_wrong_format_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "other"}\n')
        with pytest.raises(ExperimentError):
            load_probes_jsonl(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "repro-probes", "version": 99}\n')
        with pytest.raises(ExperimentError):
            load_probes_jsonl(path)

    def test_corrupt_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "repro-probes", "version": 1}\n{"nope": 1}\n'
        )
        with pytest.raises(ExperimentError, match="corrupt"):
            load_probes_jsonl(path)


class TestDurability:
    """Format v2 framing, recovery reports, and crash-safe writes."""

    def test_v2_frames_on_disk(self, probes, tmp_path):
        import json

        path = tmp_path / "probes.jsonl"
        save_probes_jsonl(probes, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["version"] == 2
        for seq, line in enumerate(lines[1:]):
            frame = json.loads(line)
            assert set(frame) == {"crc", "rec", "seq"}
            assert frame["seq"] == seq

    def test_clean_load_reports_clean(self, probes, tmp_path):
        path = tmp_path / "probes.jsonl"
        save_probes_jsonl(probes, path)
        loaded = load_probes_jsonl(path)
        assert loaded.report.clean
        assert loaded.report.records_ok == len(probes)
        assert loaded.report.version == 2

    def test_v1_probe_file_still_loads(self, probes, tmp_path):
        """Artifacts written by earlier releases (unframed v1) still read."""
        import json

        from repro.core.storage import _encode_probe

        path = tmp_path / "v1.jsonl"
        with path.open("w") as fh:
            fh.write('{"format": "repro-probes", "version": 1}\n')
            for p in probes:
                fh.write(json.dumps(_encode_probe(p)) + "\n")
        loaded = load_probes_jsonl(path)
        assert len(loaded) == len(probes)
        assert loaded.report.version == 1
        assert loaded.report.clean
        assert [p.spec for p in loaded] == [p.spec for p in probes]

    def test_salvage_past_corrupt_span(self, probes, tmp_path):
        """Probe loads keep verified records beyond damage (cell dedupe
        makes them safe), and the report accounts for the loss."""
        path = tmp_path / "probes.jsonl"
        save_probes_jsonl(probes, path)
        lines = path.read_text().splitlines(keepends=True)
        corrupted = lines[:2] + ["garbage not json\n"] + lines[3:]
        path.write_text("".join(corrupted))
        loaded = load_probes_jsonl(path, tolerate_partial=True)
        assert len(loaded) == len(probes) - 1
        rep = loaded.report
        assert rep.records_ok == 1
        assert rep.records_salvaged_after_gap == len(probes) - 2
        assert rep.records_quarantined == 1
        assert rep.bytes_dropped > 0
        assert rep.first_bad_offset is not None
        assert not rep.clean
        qpath = tmp_path / "probes.jsonl.quarantine"
        assert qpath.exists()
        assert b"garbage not json" in qpath.read_bytes()

    def test_event_journal_truncates_at_gap(self, tmp_path):
        """Deleting a mid-journal line (seq gap) truncates the replayable
        prefix — records past the hole are quarantined, not replayed."""
        from repro.core.storage import append_events_jsonl, load_events_jsonl

        path = tmp_path / "events.jsonl"
        events = [{"event": "eval", "step": i} for i in range(5)]
        append_events_jsonl(events, path, kind="k")
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3] + lines[4:]))  # drop seq 2
        loaded = load_events_jsonl(path, kind="k", tolerate_partial=True)
        assert loaded == events[:2]
        assert loaded.report.truncated_at_seq == 2
        assert loaded.report.records_quarantined == 2
        with pytest.raises(ExperimentError, match="gap"):
            load_events_jsonl(path, kind="k")

    def test_save_is_atomic_no_tmp_left(self, probes, tmp_path):
        path = tmp_path / "probes.jsonl"
        save_probes_jsonl(probes, path)
        save_probes_jsonl(probes, path)  # overwrite goes through replace
        assert not (tmp_path / "probes.jsonl.tmp").exists()
        assert load_probes_jsonl(path).report.clean

    def test_torn_header_repaired_on_append(self, tmp_path):
        """Crash between create and header write leaves a headerless
        file; the next append repairs it instead of rejecting forever."""
        from repro.core.storage import append_events_jsonl, load_events_jsonl

        path = tmp_path / "events.jsonl"
        path.write_text('{"form')  # torn header, no newline
        events = [{"event": "eval", "step": 0}]
        append_events_jsonl(events, path, kind="k")
        assert load_events_jsonl(path, kind="k") == events

    def test_torn_header_with_tail_refuses_append(self, tmp_path):
        from repro.core.storage import append_events_jsonl

        path = tmp_path / "events.jsonl"
        path.write_text('not a header\n{"x": 1}\n')
        with pytest.raises(ExperimentError, match="fsck"):
            append_events_jsonl([{"e": 1}], path, kind="k")

    def test_append_to_v1_file_stays_v1(self, tmp_path):
        """One file, one framing: appends honor the existing version."""
        import json

        from repro.core.storage import append_events_jsonl, load_events_jsonl

        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"format": "repro-events", "kind": "k", "version": 1}\n'
            '{"event": "eval", "step": 0}\n'
        )
        append_events_jsonl([{"event": "eval", "step": 1}], path, kind="k")
        loaded = load_events_jsonl(path, kind="k")
        assert [e["step"] for e in loaded] == [0, 1]
        last = json.loads(path.read_text().splitlines()[-1])
        assert "crc" not in last  # still a bare v1 record

    def test_integrity_counters_tick(self, tmp_path):
        from repro.core.storage import (
            append_events_jsonl,
            integrity_counters,
            load_events_jsonl,
            reset_integrity_counters,
        )

        reset_integrity_counters()
        path = tmp_path / "events.jsonl"
        append_events_jsonl([{"s": i} for i in range(3)], path, kind="k")
        with path.open("a") as fh:
            fh.write('{"crc": 1, "rec": {}, "seq": 3}\n')  # bad crc
        load_events_jsonl(path, kind="k", tolerate_partial=True)
        counts = integrity_counters()
        assert counts["crc_failures"] >= 1
        assert counts["records_quarantined"] >= 1
        assert counts["recoveries"] >= 1

    def test_storage_metrics_scrape_without_compounding(self, tmp_path):
        from repro.core.storage import (
            integrity_counters,
            load_events_jsonl,
            reset_integrity_counters,
        )
        from repro.obs import MetricsRegistry
        from repro.obs.metrics import collect_storage_metrics

        reset_integrity_counters()
        assert set(integrity_counters().values()) == {0}
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"format": "repro-events", "kind": "k", "version": 2}\n'
            '{"crc": 1, "rec": {}, "seq": 0}\n'
        )
        load_events_jsonl(path, kind="k", tolerate_partial=True)
        registry = MetricsRegistry()
        collect_storage_metrics(registry)
        first = registry.snapshot()
        collect_storage_metrics(registry)
        assert registry.snapshot() == first == {
            f"storage.{name}": count
            for name, count in integrity_counters().items()
        }
        assert first["storage.crc_failures"] == 1
        reset_integrity_counters()
        assert set(integrity_counters().values()) == {0}


class TestFsck:
    def test_verify_clean(self, probes, tmp_path):
        from repro.core.storage import verify_artifact

        path = tmp_path / "probes.jsonl"
        save_probes_jsonl(probes, path)
        report = verify_artifact(path)
        assert report.clean
        assert report.kind == "probes"
        assert "clean" in report.summary()

    def test_verify_is_read_only(self, probes, tmp_path):
        from repro.core.storage import verify_artifact

        path = tmp_path / "probes.jsonl"
        save_probes_jsonl(probes, path)
        with path.open("a") as fh:
            fh.write("garbage\n")
        before = path.read_bytes()
        report = verify_artifact(path)
        assert not report.clean
        assert path.read_bytes() == before
        assert not (tmp_path / "probes.jsonl.quarantine").exists()

    def test_repair_roundtrip(self, probes, tmp_path):
        from repro.core.storage import repair_artifact, verify_artifact

        path = tmp_path / "probes.jsonl"
        save_probes_jsonl(probes, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]) + "XXXX\n" + "".join(lines[3:]))
        report = repair_artifact(path)
        assert report.records_quarantined == 1
        after = verify_artifact(path)
        assert after.clean
        assert after.records_ok == len(probes) - 1

    def test_repair_upgrades_v1(self, tmp_path):
        from repro.core.storage import repair_artifact, verify_artifact

        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"format": "repro-events", "kind": "k", "version": 1}\n'
            '{"event": "eval", "step": 0}\n'
        )
        repair_artifact(path)
        report = verify_artifact(path)
        assert report.clean
        assert report.version == 2

    def test_destroyed_header_salvaged_with_asserted_kind(
        self, probes, tmp_path
    ):
        """A bitflip in the (CRC-less) header must not forfeit the
        self-verifying records below it: fsck with an explicit kind
        quarantines the header and salvages every intact frame."""
        from repro.core.storage import repair_artifact, verify_artifact

        path = tmp_path / "probes.jsonl"
        save_probes_jsonl(probes, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("!garbage header!\n" + "".join(lines[1:]))
        # Without an asserted kind, the artifact is unidentifiable.
        with pytest.raises(ExperimentError, match="kind"):
            verify_artifact(path)
        report = verify_artifact(path, kind="probes")
        assert not report.clean
        assert report.header_repaired
        assert report.records_recovered == len(probes)
        repaired = repair_artifact(path, kind="probes")
        assert repaired.header_repaired
        assert verify_artifact(path).clean
        assert len(load_probes_jsonl(path)) == len(probes)

    def test_destroyed_event_header_keeps_asserted_kind(self, tmp_path):
        from repro.core.storage import (
            append_events_jsonl,
            load_events_jsonl,
            repair_artifact,
        )

        path = tmp_path / "events.jsonl"
        events = [{"event": "eval", "step": i} for i in range(3)]
        append_events_jsonl(events, path, kind="journal")
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("{corrupt\n" + "".join(lines[1:]))
        report = repair_artifact(path, kind="events", event_kind="journal")
        assert report.header_repaired
        assert list(load_events_jsonl(path, kind="journal")) == events

    def test_verify_missing_file(self, tmp_path):
        from repro.core.storage import verify_artifact

        with pytest.raises(ExperimentError, match="does not exist"):
            verify_artifact(tmp_path / "nope.jsonl")

    def test_verify_unknown_kind(self, tmp_path):
        from repro.core.storage import verify_artifact

        path = tmp_path / "junk.jsonl"
        path.write_text("????\n")
        with pytest.raises(ExperimentError, match="kind"):
            verify_artifact(path)


class TestEventLog:
    """Generic kind-tagged event JSONL (the session-journal substrate)."""

    def events(self, n, start=0):
        return [{"event": "eval", "step": i} for i in range(start, start + n)]

    def test_roundtrip(self, tmp_path):
        from repro.core.storage import append_events_jsonl, load_events_jsonl

        path = tmp_path / "events.jsonl"
        append_events_jsonl(self.events(3), path, kind="session-events")
        loaded = load_events_jsonl(path, kind="session-events")
        assert loaded == self.events(3)

    def test_append_accumulates_single_header(self, tmp_path):
        from repro.core.storage import append_events_jsonl, load_events_jsonl

        path = tmp_path / "events.jsonl"
        append_events_jsonl(self.events(2), path, kind="k")
        append_events_jsonl(self.events(2, start=2), path, kind="k")
        assert load_events_jsonl(path, kind="k") == self.events(4)
        assert len(path.read_text().splitlines()) == 5  # 1 header + 4

    def test_kind_mismatch_always_raises(self, tmp_path):
        from repro.core.storage import append_events_jsonl, load_events_jsonl

        path = tmp_path / "events.jsonl"
        append_events_jsonl(self.events(1), path, kind="session-events")
        with pytest.raises(ExperimentError, match="session-events"):
            load_events_jsonl(path, kind="other")
        with pytest.raises(ExperimentError, match="session-events"):
            load_events_jsonl(path, kind="other", tolerate_partial=True)

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"format": "repro-events", "kind": "k", "version": 99}\n'
        )
        from repro.core.storage import load_events_jsonl

        with pytest.raises(ExperimentError, match="version"):
            load_events_jsonl(path, kind="k")

    def test_tolerant_tail_discards_torn_write(self, tmp_path):
        from repro.core.storage import append_events_jsonl, load_events_jsonl

        path = tmp_path / "events.jsonl"
        append_events_jsonl(self.events(2), path, kind="k")
        with path.open("a") as fh:
            fh.write('{"event": "eval", "ste')  # killed mid-write
        assert load_events_jsonl(
            path, kind="k", tolerate_partial=True
        ) == self.events(2)
        with pytest.raises(ExperimentError, match="corrupt"):
            load_events_jsonl(path, kind="k")

    def test_unreadable_header_tolerant_is_empty(self, tmp_path):
        from repro.core.storage import load_events_jsonl

        path = tmp_path / "events.jsonl"
        path.write_text('{"form')
        assert load_events_jsonl(path, kind="k", tolerate_partial=True) == []
        with pytest.raises(ExperimentError):
            load_events_jsonl(path, kind="k")

    def test_non_object_record_rejected(self, tmp_path):
        """A v1 record line that parses but is not an object is corrupt."""
        from repro.core.storage import load_events_jsonl

        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"format": "repro-events", "kind": "k", "version": 1}\n'
            "[1, 2, 3]\n"
        )
        with pytest.raises(ExperimentError, match="not an object"):
            load_events_jsonl(path, kind="k")

    def test_unframed_line_in_v2_rejected(self, tmp_path):
        """A raw (unframed) line inside a v2 journal fails verification."""
        from repro.core.storage import append_events_jsonl, load_events_jsonl

        path = tmp_path / "events.jsonl"
        append_events_jsonl(self.events(1), path, kind="k")
        with path.open("a") as fh:
            fh.write("[1, 2, 3]\n")
        with pytest.raises(ExperimentError, match="corrupt"):
            load_events_jsonl(path, kind="k")
        loaded = load_events_jsonl(path, kind="k", tolerate_partial=True)
        assert loaded == self.events(1)
        assert loaded.report.records_quarantined == 1


class TestRound6:
    """Checkpoint logits round without a Python call per float, exactly."""

    @staticmethod
    def _check(values):
        from repro.core.storage import _round6

        got = _round6(np.asarray(values, dtype=float))
        assert [repr(g) for g in got] == [repr(round(float(v), 6)) for v in values]

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True)
            | st.floats(-1000, 1000)
            | st.integers(-(10**9), 10**9).map(lambda k: (k + 0.5) / 10**6)
            | st.integers(-(2**40), 2**40).map(lambda k: k / 2**7),
            max_size=50,
        )
    )
    def test_equals_builtin_round(self, values):
        self._check(values)

    def test_edge_values(self):
        self._check([
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-320,
            4e-7, -4e-7, 5e-7, -5e-7, 1 / 128, -1 / 128, 0.0078125,
            2.5e-6, 3.5e-6, 2**31 / 1e6, -(2**31) / 1e6, 2**52 / 1e6,
            1e300, -1e300, float("inf"), float("-inf"), float("nan"),
            -690.7755278982137, 123456.7890125,
        ])
