"""Exhaustive durability properties of the v2 storage format.

The contract (ISSUE 7 acceptance): for a v2 journal truncated at *every*
byte offset, and for *every* single-bit flip inside one record, a
tolerant load must yield either full recovery or a precise
:class:`RecoveryReport` — never an exception, never silently wrong data.
Strict mode may raise, but whatever it returns must be a verbatim prefix
of the true history.  These are plain exhaustive loops rather than
sampled property tests: the files are small enough to try every case.
"""

import json
import zlib

import pytest

from repro.core import quick_grid, run_grid
from repro.core.storage import (
    append_events_jsonl,
    load_events_jsonl,
    load_probes_jsonl,
    repair_artifact,
    save_probes_jsonl,
    verify_artifact,
)
from repro.errors import ExperimentError


@pytest.fixture(scope="module")
def probes():
    return run_grid(
        quick_grid(
            sizes=("SM",), icl_counts=(3,), n_sets=1, seeds=(1,),
            n_queries=3,
        ),
        workers=1,
    )


EVENTS = [{"event": "eval", "step": i, "runtime": i / 3.0} for i in range(4)]


def write_events(path):
    append_events_jsonl(EVENTS, path, kind="recovery-test")
    return path.read_bytes()


class TestTruncationEveryOffset:
    def test_events_truncated_at_every_byte(self, tmp_path):
        """Cutting the journal anywhere yields a verbatim prefix and a
        report that accounts for whatever was cut mid-line."""
        path = tmp_path / "events.jsonl"
        blob = write_events(path)
        header_len = blob.index(b"\n") + 1
        # Byte offsets where a cut is indistinguishable from "fewer
        # appends": exactly at a line boundary.
        boundaries = {i + 1 for i, b in enumerate(blob) if b == 0x0A}
        for cut in range(len(blob) + 1):
            path.write_bytes(blob[:cut])
            loaded = load_events_jsonl(
                path, kind="recovery-test", tolerate_partial=True,
                quarantine=False,
            )
            assert list(loaded) == EVENTS[: len(loaded)], f"cut={cut}"
            rep = loaded.report
            if cut < header_len:
                # Header itself torn: nothing trustworthy, all bytes
                # accounted as dropped.
                assert loaded == []
                assert rep.bytes_dropped == cut, f"cut={cut}"
            elif cut in boundaries or cut + 1 in boundaries:
                # At a line boundary — or one byte short of one, which
                # drops only the trailing newline of a frame whose JSON
                # is complete and CRC-verified.  Either way no data was
                # lost.
                assert rep.clean, f"cut={cut}"
            else:
                # Mid-record cut: the partial line is reported.
                assert not rep.clean, f"cut={cut}"
                assert rep.records_quarantined == 1, f"cut={cut}"
                assert rep.bytes_dropped > 0, f"cut={cut}"
            assert len(loaded) + rep.records_quarantined <= len(EVENTS) + 1

    def test_events_truncated_strict_never_wrong(self, tmp_path):
        """Strict mode may raise on a torn file but must never return
        anything other than the verbatim full history."""
        path = tmp_path / "events.jsonl"
        blob = write_events(path)
        for cut in range(len(blob) + 1):
            path.write_bytes(blob[:cut])
            try:
                loaded = load_events_jsonl(path, kind="recovery-test")
            except ExperimentError:
                continue
            assert list(loaded) == EVENTS[: len(loaded)], f"cut={cut}"

    def test_probes_truncated_at_every_line(self, probes, tmp_path):
        """Probe snapshots: same property, per line (the probe file is
        too large for per-byte, and the framing is shared)."""
        path = tmp_path / "probes.jsonl"
        save_probes_jsonl(probes, path)
        blob = path.read_bytes()
        offsets = [i + 1 for i, b in enumerate(blob) if b == 0x0A]
        for keep, boundary in enumerate(offsets):
            for cut in (boundary, boundary + 10):
                path.write_bytes(blob[: min(cut, len(blob))])
                loaded = load_probes_jsonl(
                    path, tolerate_partial=True, quarantine=False
                )
                n = min(keep, len(probes))
                got = min(len(loaded), n)
                assert [p.spec for p in loaded][:got] == [
                    p.spec for p in probes
                ][:got]
                assert len(loaded) <= len(probes)


class TestBitflipEveryByteOfOneRecord:
    def test_events_record_flip_always_detected(self, tmp_path):
        """Flip each bit position of every byte of record #1: the CRC
        must catch every flip; the journal truncates at the damage."""
        path = tmp_path / "events.jsonl"
        blob = write_events(path)
        lines = blob.split(b"\n")
        start = len(lines[0]) + 1 + len(lines[1]) + 1  # header + record 0
        end = start + len(lines[2]) + 1  # record 1 incl newline
        for pos in range(start, end):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[pos] ^= 1 << bit
                if bytes(flipped) == blob:
                    continue
                path.write_bytes(bytes(flipped))
                loaded = load_events_jsonl(
                    path, kind="recovery-test", tolerate_partial=True,
                    quarantine=False,
                )
                rep = loaded.report
                where = f"pos={pos} bit={bit}"
                # Never silently wrong: whatever loads is a verbatim
                # prefix that excludes the damaged record.
                assert list(loaded) == EVENTS[: len(loaded)], where
                assert len(loaded) <= 1, where
                assert not rep.clean, where
                assert rep.records_quarantined >= 1, where
                # Strict mode must refuse the file outright.
                with pytest.raises(ExperimentError):
                    load_events_jsonl(path, kind="recovery-test")

    def test_probes_record_flip_salvages_rest(self, probes, tmp_path):
        """Probe files salvage verified records *past* the flipped one
        (cell-completeness dedupe makes that safe); sample every byte,
        one bit each, of the middle record."""
        path = tmp_path / "probes.jsonl"
        save_probes_jsonl(probes, path)
        blob = path.read_bytes()
        lines = blob.split(b"\n")
        start = len(lines[0]) + 1 + len(lines[1]) + 1
        end = start + len(lines[2]) + 1
        for pos in range(start, end, 7):  # stride: record is ~1KB
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << (pos % 8)
            if bytes(flipped) == blob:
                continue
            path.write_bytes(bytes(flipped))
            loaded = load_probes_jsonl(
                path, tolerate_partial=True, quarantine=False
            )
            rep = loaded.report
            where = f"pos={pos}"
            assert len(loaded) == len(probes) - 1, where
            assert rep.records_quarantined == 1, where
            assert rep.records_salvaged_after_gap == len(probes) - 2, where
            specs = [p.spec for p in loaded]
            expect = [p.spec for p in probes]
            assert specs == expect[:1] + expect[2:], where

    def test_crc_catches_semantically_valid_tamper(self, tmp_path):
        """A record edited into *valid JSON with plausible content* still
        fails the checksum — corruption detection does not depend on the
        damage being syntactically visible."""
        path = tmp_path / "events.jsonl"
        write_events(path)
        lines = path.read_text().splitlines()
        frame = json.loads(lines[2])
        frame["rec"]["runtime"] = 99.0  # tampered value, crc untouched
        lines[2] = json.dumps(frame, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        loaded = load_events_jsonl(
            path, kind="recovery-test", tolerate_partial=True,
            quarantine=False,
        )
        assert list(loaded) == EVENTS[:1]
        assert loaded.report.records_quarantined >= 1


class TestRepairConvergence:
    def test_repair_then_verify_clean_for_any_single_flip(self, tmp_path):
        """fsck --repair after any one-byte flip leaves a file that
        verifies clean and holds exactly the undamaged prefix."""
        path = tmp_path / "events.jsonl"
        blob = write_events(path)
        header_len = blob.index(b"\n") + 1
        for pos in range(header_len, len(blob), 3):
            flipped = bytearray(blob)
            flipped[pos] ^= 0x10
            path.write_bytes(bytes(flipped))
            repair_artifact(path, kind="events", event_kind="recovery-test")
            report = verify_artifact(path, kind="events")
            assert report.clean, f"pos={pos}"
            loaded = load_events_jsonl(path, kind="recovery-test")
            assert list(loaded) == EVENTS[: len(loaded)], f"pos={pos}"

    def test_repair_is_idempotent(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events(path)
        repair_artifact(path, kind="events", event_kind="recovery-test")
        first = path.read_bytes()
        repair_artifact(path, kind="events", event_kind="recovery-test")
        assert path.read_bytes() == first


class TestV1BackwardCompat:
    def test_v1_events_roundtrip_and_recovery(self, tmp_path):
        """Journals written before the CRC framing still load, tolerate
        torn tails, and report recovery the same way."""
        path = tmp_path / "v1.jsonl"
        with path.open("w") as fh:
            fh.write(
                '{"format": "repro-events", "kind": "recovery-test", '
                '"version": 1}\n'
            )
            for event in EVENTS:
                fh.write(json.dumps(event) + "\n")
        loaded = load_events_jsonl(path, kind="recovery-test")
        assert list(loaded) == EVENTS
        assert loaded.report.version == 1
        with path.open("a") as fh:
            fh.write('{"event": "eval", "st')  # torn tail
        partial = load_events_jsonl(
            path, kind="recovery-test", tolerate_partial=True,
            quarantine=False,
        )
        assert list(partial) == EVENTS
        assert partial.report.records_quarantined == 1

    def test_frame_crc_is_the_documented_construction(self, tmp_path):
        """Pin the on-disk frame layout: crc32 over the canonical JSON
        of {"rec", "seq"} with sorted keys and no whitespace."""
        path = tmp_path / "events.jsonl"
        append_events_jsonl([{"a": 1}], path, kind="k")
        frame = json.loads(path.read_text().splitlines()[1])
        payload = json.dumps(
            {"rec": frame["rec"], "seq": frame["seq"]},
            sort_keys=True, separators=(",", ":"),
        )
        assert frame["crc"] == zlib.crc32(payload.encode("utf-8"))


class TestTailNextSeq:
    """Appends read the next sequence number off the raw tail bytes,
    checking each frame's CRC without parsing it; that must agree with
    parsing and verifying every frame."""

    @staticmethod
    def _parsed_next_seq(blob: bytes) -> int:
        from repro.core.storage import _verify_frame

        for raw in reversed(blob.split(b"\n")[1:]):
            try:
                obj = json.loads(raw.decode("utf-8"))
            except ValueError:
                continue
            verified = _verify_frame(obj)
            if verified is not None:
                return verified[0] + 1
        return 0

    def test_agrees_with_parse_at_every_truncation(self, tmp_path):
        from repro.core.storage import _tail_next_seq

        path = tmp_path / "events.jsonl"
        append_events_jsonl(EVENTS[:3], path, kind="recovery-test")
        blob = path.read_bytes()
        seen = set()
        for cut in range(len(blob) + 1):
            path.write_bytes(blob[:cut])
            want = self._parsed_next_seq(blob[:cut])
            assert _tail_next_seq(path) == want, f"cut={cut}"
            seen.add(want)
        assert seen == {0, 1, 2, 3}

    def test_agrees_with_parse_for_every_bitflip_of_the_last_frame(
        self, tmp_path
    ):
        from repro.core.storage import _tail_next_seq

        path = tmp_path / "events.jsonl"
        append_events_jsonl(EVENTS[:3], path, kind="recovery-test")
        blob = path.read_bytes()
        start = blob.rindex(b"\n", 0, len(blob) - 1) + 1
        for pos in range(start, len(blob)):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[pos] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                want = self._parsed_next_seq(bytes(flipped))
                assert _tail_next_seq(path) == want, f"pos={pos} bit={bit}"

    def test_canonical_tail_is_not_parsed(self, tmp_path, monkeypatch):
        from repro.core import storage

        path = tmp_path / "events.jsonl"
        append_events_jsonl(EVENTS[:3], path, kind="recovery-test")

        def fail(obj):
            raise AssertionError("canonical frame re-encoded")

        monkeypatch.setattr(storage, "_verify_frame", fail)
        assert storage._tail_next_seq(path) == 3

    def test_respaced_frame_verifies_through_its_parsed_form(self, tmp_path):
        from repro.core.storage import _tail_next_seq

        path = tmp_path / "events.jsonl"
        append_events_jsonl(EVENTS[:3], path, kind="recovery-test")
        lines = path.read_bytes().splitlines(keepends=True)
        lines[-1] = (json.dumps(json.loads(lines[-1]), indent=None) + "\n").encode()
        assert b'{"crc": ' in lines[-1]  # valid JSON, not byte-canonical
        path.write_bytes(b"".join(lines))
        assert _tail_next_seq(path) == self._parsed_next_seq(path.read_bytes()) == 3
        append_events_jsonl(EVENTS[3:], path, kind="recovery-test")
        loaded = load_events_jsonl(path, kind="recovery-test")
        assert list(loaded) == EVENTS
