"""Persistence of grid runs and journals: checksummed, crash-safe JSONL.

A full Section III-B grid takes minutes to generate; analyses are cheap.
This module serializes :class:`ProbeResult` lists — including the sparse
value-region logits — to a JSON-lines file and back, and provides the
generic event-journal substrate the session manager logs through.  Both
are the ground truth the paper's analyses replay from, so integrity is
not assumed, it is engineered:

**Format v2 (CRC framing).**  Every record line is a frame
``{"crc": C, "rec": {...}, "seq": N}`` where ``C`` is the CRC32 of the
canonical JSON of ``{"rec", "seq"}`` and ``seq`` increases by one per
record across appends.  Loaders verify both; v1 files (plain record
lines) are still read, and writers always emit v2.

**Recovery, not truncation.**  Tolerant loads scan the *whole* file
instead of stopping at the first bad line.  Corrupt spans are copied to
a ``<path>.quarantine`` sidecar and counted in a :class:`RecoveryReport`
attached to every loaded artifact (``loaded.report``).  Probe files may
salvage records past a damaged span (``run_grid(resume=...)`` dedupes by
complete cell, so out-of-gap records are safe); event journals truncate
at the first sequence gap instead (session replay needs the exact
contiguous prefix) and report what was dropped.  A tolerant load never
raises on damage and never silently drops data.

**Atomic snapshots, crash-safe appends.**  Full-file writes go through
tmp file + flush + fsync + ``os.replace`` + directory fsync, so a crash
mid-save leaves the previous file intact, never a torn one.  Appends
fsync every batch, and a file whose header write itself was torn
(created, killed before the newline) is recognized and repaired on the
next append rather than rejected forever.

**Testable.**  :func:`set_fault_injector` threads a
:class:`repro.faults.FaultInjector` through every write path (torn
writes, bitflips-after-ack, ENOSPC, fsync failures), which is what
``repro chaos --disk`` and the durability tests drive.  ``repro fsck``
exposes :func:`verify_artifact` / :func:`repair_artifact` on the CLI.
"""

from __future__ import annotations

import json
import logging
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis.decoding import StepCandidates
from repro.core.grid import ExperimentSpec
from repro.core.runner import ProbeResult
from repro.errors import ExperimentError
from repro.obs import MetricsRegistry, get_tracer
from repro.utils.tables import Table

__all__ = [
    "RecoveryReport",
    "RecoveredList",
    "CheckpointState",
    "save_probes_jsonl",
    "append_probes_jsonl",
    "load_probes_jsonl",
    "load_checkpoint",
    "append_events_jsonl",
    "save_events_jsonl",
    "load_events_jsonl",
    "verify_artifact",
    "repair_artifact",
    "set_fault_injector",
    "INTEGRITY_METRICS",
    "integrity_counters",
    "reset_integrity_counters",
]

logger = logging.getLogger("repro.storage")

_PROBES_FORMAT = "repro-probes"
_EVENTS_FORMAT = "repro-events"
#: Version written by all writers; version 1 (unframed records) stays
#: readable so artifacts from earlier releases load unchanged.
_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)


# ---------------------------------------------------------------------- #
# Integrity counters (surfaced by repro.obs.collect_storage_metrics)
# ---------------------------------------------------------------------- #
#: Process-wide storage-integrity counters: ``storage.crc_failures``
#: (v2 frames whose checksum did not verify),
#: ``storage.records_quarantined`` (lines copied to quarantine sidecars)
#: and ``storage.recoveries`` (tolerant loads/repairs that found damage).
INTEGRITY_METRICS = MetricsRegistry()
_CRC_FAILURES = INTEGRITY_METRICS.counter("storage.crc_failures")
_QUARANTINED = INTEGRITY_METRICS.counter("storage.records_quarantined")
_RECOVERIES = INTEGRITY_METRICS.counter("storage.recoveries")


def integrity_counters() -> dict[str, int]:
    """Snapshot of the process-wide storage-integrity counters."""
    return {
        inst.name.removeprefix("storage."): inst.value
        for inst in INTEGRITY_METRICS.instruments()
    }


def reset_integrity_counters() -> None:
    """Zero the integrity counters (test isolation)."""
    for inst in INTEGRITY_METRICS.instruments():
        inst.set_absolute(0)


# ---------------------------------------------------------------------- #
# Fault-injection hook (repro chaos --disk, durability tests)
# ---------------------------------------------------------------------- #
_FAULT_INJECTOR = None


def set_fault_injector(injector) -> None:
    """Install a :class:`repro.faults.FaultInjector` on every write path.

    With a plan whose disk rates are non-zero, appends and snapshot
    writes go through a :class:`repro.faults.FaultyFile` wrapper that can
    tear writes, flip bits after the ack, run out of space, or fail
    fsync — all deterministically.  Pass ``None`` to uninstall.
    """
    global _FAULT_INJECTOR
    _FAULT_INJECTOR = injector


def _sink(fh, site: str, name: str):
    """The write target: the raw file, or its fault-wrapped double."""
    if _FAULT_INJECTOR is not None:
        return _FAULT_INJECTOR.wrap_file(fh, site, name)
    return fh


def _fsync(sink, fh) -> None:
    """fsync through the wrapper when present (so it can fail on cue)."""
    injected = getattr(sink, "fsync", None)
    if injected is not None:
        injected()
    else:
        os.fsync(fh.fileno())


# ---------------------------------------------------------------------- #
# Probe record codec (unchanged payload schema)
# ---------------------------------------------------------------------- #
def _round6(values: np.ndarray) -> list[float]:
    """``[round(float(v), 6) for v in values]`` without a call per value.

    ``round`` returns the double nearest ``k / 10**6``, where ``k`` is the
    integer nearest the exact ``v * 10**6``; ``rint(v * 1e6) / 1e6`` is
    that double whenever the rounded product lands on the same ``k``.
    Below ``2**31`` the product is off by at most ``2**-23``, so a
    fraction at least ``1e-6`` from one half cannot cross a rounding
    boundary.  Near-ties (exact ones included), huge and non-finite
    values take ``round`` itself.
    """
    x = np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):
        scaled = x * 1e6
        out = (np.rint(scaled) / 1e6).tolist()
        safe = (np.abs(scaled) < 2**31) & (
            np.abs(scaled - np.floor(scaled) - 0.5) >= 1e-6
        )
    for i in np.flatnonzero(~safe).tolist():
        out[i] = round(float(x[i]), 6)
    return out


def _encode_probe(probe: ProbeResult) -> dict:
    spec = probe.spec
    return {
        "spec": {
            "size": spec.size,
            "selection": spec.selection,
            "n_icl": spec.n_icl,
            "set_id": spec.set_id,
            "seed": spec.seed,
            "n_queries": spec.n_queries,
            "root_seed": spec.root_seed,
        },
        "query_index": probe.query_index,
        "truth": probe.truth,
        "predicted": probe.predicted,
        "predicted_text": probe.predicted_text,
        "generated_text": probe.generated_text,
        "exact_copy": probe.exact_copy,
        "icl_value_strings": probe.icl_value_strings,
        "n_prompt_tokens": probe.n_prompt_tokens,
        "value_steps": [
            {
                "tokens": list(s.tokens),
                "logits": _round6(s.logits),
                "chosen": s.chosen,
            }
            for s in probe.value_steps
        ],
    }


def _decode_probe(record: dict) -> ProbeResult:
    try:
        spec = ExperimentSpec(**record["spec"])
        steps = [
            StepCandidates(
                tokens=tuple(s["tokens"]),
                logits=np.asarray(s["logits"], dtype=float),
                chosen=int(s["chosen"]),
            )
            for s in record["value_steps"]
        ]
        return ProbeResult(
            spec=spec,
            query_index=int(record["query_index"]),
            truth=float(record["truth"]),
            predicted=(
                None
                if record["predicted"] is None
                else float(record["predicted"])
            ),
            predicted_text=record["predicted_text"],
            generated_text=record["generated_text"],
            exact_copy=bool(record["exact_copy"]),
            icl_value_strings=list(record["icl_value_strings"]),
            value_steps=steps,
            n_prompt_tokens=int(record["n_prompt_tokens"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ExperimentError(f"corrupt probe record: {exc}") from exc


# ---------------------------------------------------------------------- #
# v2 frame codec
# ---------------------------------------------------------------------- #
def _canonical(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace, ASCII escapes.

    ``json.loads`` followed by this dump is a fixed point (float repr
    round-trips exactly), so a reader can recompute the writer's CRC
    from the parsed frame alone.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _frame_line(rec: dict, seq: int) -> str:
    payload = _canonical({"rec": rec, "seq": seq})
    crc = zlib.crc32(payload.encode("utf-8"))
    # Splice the crc in front of the payload's own keys: the line parses
    # as one object {"crc": C, "rec": ..., "seq": N}.
    return '{"crc":%d,%s\n' % (crc, payload[1:])


def _verify_frame(obj) -> tuple[int, dict] | None:
    """Return ``(seq, rec)`` when the frame's CRC verifies, else None."""
    if not (
        isinstance(obj, dict)
        and isinstance(obj.get("crc"), int)
        and isinstance(obj.get("seq"), int)
        and not isinstance(obj.get("seq"), bool)
        and isinstance(obj.get("rec"), dict)
    ):
        return None
    payload = _canonical({"rec": obj["rec"], "seq": obj["seq"]})
    if zlib.crc32(payload.encode("utf-8")) != obj["crc"]:
        return None
    return obj["seq"], obj["rec"]


_CRC_HEAD = b'{"crc":'
_SEQ_KEY = b',"seq":'


def _raw_frame_seq(raw: bytes) -> int | None:
    """``seq`` of a frame line written byte-canonically whose CRC
    verifies, without parsing it; ``None`` otherwise.

    :func:`_frame_line` splices ``{"crc":C,`` before the payload's own
    keys, so the payload is ``{`` plus the rest of the line, and its last
    key (keys sort) is ``seq``.
    """
    if not raw.startswith(_CRC_HEAD):
        return None
    comma = raw.find(b",", len(_CRC_HEAD))
    crc = raw[len(_CRC_HEAD):comma]
    if comma < 0 or not crc.isdigit():
        return None
    payload = b"{" + raw[comma + 1:]
    if zlib.crc32(payload) != int(crc):
        return None
    _, key, seq = payload.rpartition(_SEQ_KEY)
    if not key or seq[-1:] != b"}" or not seq[:-1].isdigit():
        return None
    return int(seq[:-1])


def _header_line(fmt: str, kind: str | None = None, version: int = _FORMAT_VERSION) -> str:
    header: dict = {"format": fmt}
    if kind is not None:
        header["kind"] = kind
    header["version"] = version
    return json.dumps(header) + "\n"


# ---------------------------------------------------------------------- #
# Recovery report
# ---------------------------------------------------------------------- #
@dataclass
class RecoveryReport:
    """What a tolerant scan (or fsck) found in one artifact file.

    ``records_ok`` verified records on the undamaged contiguous prefix;
    ``records_salvaged_after_gap`` verified records recovered beyond the
    first damaged span (probe files only — event journals truncate
    instead); ``records_quarantined`` lines copied to the
    ``.quarantine`` sidecar; ``bytes_dropped`` bytes not represented in
    the returned records.  ``truncated_at_seq`` is the first missing
    sequence number when an event journal was cut at a gap.
    """

    path: str
    kind: str = "unknown"
    version: int = 0
    records_ok: int = 0
    records_salvaged_after_gap: int = 0
    records_quarantined: int = 0
    bytes_dropped: int = 0
    first_bad_offset: int | None = None
    last_bad_offset: int | None = None
    truncated_at_seq: int | None = None
    header_repaired: bool = False
    quarantine_path: str | None = None

    @property
    def records_recovered(self) -> int:
        return self.records_ok + self.records_salvaged_after_gap

    @property
    def clean(self) -> bool:
        """True when the file verified end to end with nothing dropped."""
        return (
            self.records_quarantined == 0
            and self.bytes_dropped == 0
            and not self.header_repaired
            and self.truncated_at_seq is None
        )

    def summary(self) -> str:
        if self.clean:
            return (
                f"{self.path}: clean ({self.records_ok} records, "
                f"format v{self.version}, {self.kind})"
            )
        parts = [
            f"{self.path}: recovered {self.records_recovered} records "
            f"({self.records_ok} intact"
        ]
        if self.records_salvaged_after_gap:
            parts.append(
                f", {self.records_salvaged_after_gap} salvaged past damage"
            )
        parts.append(")")
        parts.append(
            f"; {self.records_quarantined} quarantined, "
            f"{self.bytes_dropped} bytes dropped"
        )
        if self.first_bad_offset is not None:
            parts.append(
                f" (offsets {self.first_bad_offset}"
                f"..{self.last_bad_offset})"
            )
        if self.truncated_at_seq is not None:
            parts.append(f"; journal truncated at seq {self.truncated_at_seq}")
        if self.header_repaired:
            parts.append("; header repaired")
        return "".join(parts)

    def render(self, title: str = "fsck report") -> str:
        t = Table(["field", "value"], title=title)
        t.add_row(["path", self.path])
        t.add_row(["kind", self.kind])
        t.add_row(["format version", self.version])
        t.add_row(["verdict", "clean" if self.clean else "CORRUPTION FOUND"])
        t.add_row(["records ok", self.records_ok])
        t.add_row(["records salvaged after gap", self.records_salvaged_after_gap])
        t.add_row(["records quarantined", self.records_quarantined])
        t.add_row(["bytes dropped", self.bytes_dropped])
        t.add_row([
            "bad span",
            "-"
            if self.first_bad_offset is None
            else f"{self.first_bad_offset}..{self.last_bad_offset}",
        ])
        t.add_row([
            "truncated at seq",
            "-" if self.truncated_at_seq is None else self.truncated_at_seq,
        ])
        t.add_row(["header repaired", self.header_repaired])
        t.add_row(["quarantine sidecar", self.quarantine_path or "-"])
        return t.render()


class RecoveredList(list):
    """A plain list of records that also carries its :class:`RecoveryReport`
    as ``.report`` — loaders stay drop-in list-compatible while always
    surfacing what (if anything) was dropped."""

    report: RecoveryReport


class CheckpointState(dict):
    """``{cell_key: [ProbeResult]}`` plus the underlying ``.report``."""

    report: RecoveryReport


# ---------------------------------------------------------------------- #
# The scanning core
# ---------------------------------------------------------------------- #
def _quarantine_write(qpath: Path, source: Path, spans: list[tuple[int, bytes]]) -> bool:
    """Append corrupt raw spans to the quarantine sidecar (best effort)."""
    if not spans:
        return False
    try:
        with qpath.open("ab") as fh:
            for offset, raw in spans:
                marker = (
                    f"# quarantined {len(raw)} bytes from {source.name} "
                    f"at offset {offset}\n"
                )
                fh.write(marker.encode("utf-8"))
                fh.write(raw)
                if not raw.endswith(b"\n"):
                    fh.write(b"\n")
        return True
    except OSError:  # read-only media: the report still accounts for it
        return False


def _parse_header(raw: bytes):
    """Parse a header line; returns the dict or None (torn/corrupt)."""
    if not raw.endswith(b"\n"):
        return None
    try:
        header = json.loads(raw.decode("utf-8", errors="strict"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    return header if isinstance(header, dict) else None


def _scan_jsonl(
    path: str | Path,
    *,
    fmt: str,
    label: str,
    kind: str | None = None,
    check_kind: bool = True,
    tolerate: bool = False,
    salvage_past_gaps: bool = False,
    salvage_headerless: bool = False,
    quarantine: bool = True,
    decode=None,
) -> tuple[list, RecoveryReport]:
    """Scan one artifact file; the single engine behind every loader.

    Strict mode (``tolerate=False``) raises :class:`ExperimentError` on
    the first integrity problem.  Tolerant mode classifies every line:
    verified records on the contiguous prefix count as ``records_ok``;
    with ``salvage_past_gaps`` verified records beyond damage are kept
    as salvaged, otherwise the scan truncates at the first problem and
    quarantines the remainder.  ``decode`` (record dict -> object) is
    applied to surviving records; a record failing it is damage too.

    ``salvage_headerless`` (fsck only, requires the caller to assert the
    artifact kind): when the header line itself is corrupt — it carries
    no CRC — quarantine it and still scan for v2 frames, which are
    self-verifying; everything kept counts as salvaged and the report is
    never clean.  Without it, an unreadable header drops the whole file.
    """
    path = Path(path)
    report = RecoveryReport(path=str(path), kind=label)
    records: list = []
    bad_spans: list[tuple[int, bytes]] = []
    crc_failures = 0

    def note_bad(offset: int, raw: bytes) -> None:
        report.records_quarantined += 1
        report.bytes_dropped += len(raw)
        if report.first_bad_offset is None:
            report.first_bad_offset = offset
        report.last_bad_offset = offset + len(raw)
        bad_spans.append((offset, raw))

    with get_tracer().span(
        "storage.recover", path=path.name, kind=label, tolerant=tolerate
    ) as span, path.open("rb") as fh:
        header_raw = fh.readline()
        offset = len(header_raw)
        header = _parse_header(header_raw)
        headerless = False
        bad_header = header is None or header.get("format") != fmt
        if not bad_header and tolerate and salvage_headerless:
            # With licence to salvage, an unreadable version field — or a
            # kind that contradicts the caller's assertion — is header
            # damage too (the header line carries no CRC).
            bad_header = header.get("version") not in _READABLE_VERSIONS or (
                kind is not None
                and check_kind
                and header.get("kind") != kind
            )
        if bad_header:
            if not tolerate:
                raise ExperimentError(f"{path} is not a {label} JSONL file")
            if not salvage_headerless or path.stat().st_size == 0:
                # Unreadable or foreign header and no licence to dig:
                # nothing trustworthy follows.
                size = path.stat().st_size
                report.bytes_dropped = size
                if size:
                    report.first_bad_offset = 0
                    report.last_bad_offset = size
                _finish_report(report, path, [], crc_failures, quarantine)
                span.set(recovered=0, clean=report.clean)
                return records, report
            # The header (which carries no CRC) is damaged, but the
            # caller asserted the artifact kind and v2 frames are
            # self-verifying: quarantine the header line and salvage.
            headerless = True
            report.header_repaired = True
            report.version = 2
            version = 2
            note_bad(0, header_raw)
        else:
            if kind is not None and check_kind and header.get("kind") != kind:
                raise ExperimentError(
                    f"{path} holds {header.get('kind')!r} events, "
                    f"expected {kind!r}"
                )
            version = header.get("version")
            if version not in _READABLE_VERSIONS:
                raise ExperimentError(
                    f"{path} has format version {version}, "
                    f"expected one of {_READABLE_VERSIONS}"
                )
            report.version = version
            if kind is None and "kind" in header:
                report.kind = f"{label}:{header['kind']}"

        prev_seq = -1
        damaged = headerless  # any quarantined line so far
        gapped = False        # a seq discontinuity was crossed (v2)
        truncating = False
        for raw in fh:
            line_offset = offset
            offset += len(raw)
            text = raw.decode("utf-8", errors="replace")
            if not text.strip():
                continue
            if truncating:
                note_bad(line_offset, raw)
                continue
            rec = None
            problem = None
            seq = None
            try:
                obj = json.loads(text)
            except json.JSONDecodeError:
                problem = "invalid JSON"
                obj = None
            if obj is not None:
                if version == 1:
                    rec = obj
                else:
                    verified = _verify_frame(obj)
                    if verified is None:
                        problem = "frame checksum mismatch"
                        crc_failures += 1
                    else:
                        seq, rec = verified
                        if seq <= prev_seq:
                            problem = (
                                f"non-monotone sequence ({seq} after "
                                f"{prev_seq})"
                            )
                            rec = None
            if rec is not None and decode is not None:
                try:
                    rec_obj = decode(rec)
                except ExperimentError as exc:
                    problem = str(exc)
                    rec_obj = None
            else:
                rec_obj = rec
            if problem is not None:
                if not tolerate:
                    raise ExperimentError(
                        f"corrupt {label} record in {path}: {problem}"
                    )
                note_bad(line_offset, raw)
                if salvage_past_gaps:
                    damaged = True
                    continue
                truncating = True
                if report.truncated_at_seq is None:
                    # == the damaged record's expected seq (v1 has no
                    # frame seq, so count records kept instead).
                    report.truncated_at_seq = len(records)
                continue
            if version == 2 and seq is not None:
                if seq != prev_seq + 1:
                    # A hole in the journal: records were lost between
                    # prev_seq and seq even though this line verifies.
                    if not tolerate:
                        raise ExperimentError(
                            f"corrupt {label} record in {path}: sequence "
                            f"gap ({prev_seq + 1}..{seq - 1} missing)"
                        )
                    if not salvage_past_gaps:
                        report.truncated_at_seq = prev_seq + 1
                        truncating = True
                        note_bad(line_offset, raw)
                        continue
                    gapped = True
                prev_seq = seq
            if damaged or gapped:
                report.records_salvaged_after_gap += 1
            else:
                report.records_ok += 1
            records.append(rec_obj)
        span.set(recovered=len(records), clean=report.clean)

    _finish_report(report, path, bad_spans, crc_failures, quarantine)
    return records, report


def _finish_report(
    report: RecoveryReport,
    path: Path,
    bad_spans: list[tuple[int, bytes]],
    crc_failures: int,
    quarantine: bool,
) -> None:
    """Book-keeping shared by every scan exit: sidecar, counters, log."""
    if quarantine and bad_spans:
        qpath = path.with_name(path.name + ".quarantine")
        if _quarantine_write(qpath, path, bad_spans):
            report.quarantine_path = str(qpath)
    if crc_failures:
        _CRC_FAILURES.inc(crc_failures)
    if report.records_quarantined:
        _QUARANTINED.inc(report.records_quarantined)
    if not report.clean:
        _RECOVERIES.inc()
        logger.warning("storage recovery: %s", report.summary())


# ---------------------------------------------------------------------- #
# Atomic full-file writes
# ---------------------------------------------------------------------- #
def _dir_fsync(path: Path) -> None:
    """fsync the containing directory so the rename itself is durable."""
    try:
        fd = os.open(str(path.parent) or ".", os.O_RDONLY)
    except OSError:  # platforms without directory opens
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write_text(path: Path, text: str, *, site: str) -> None:
    """tmp + flush + fsync + ``os.replace`` + dir fsync.

    A crash (or injected fault) at any point leaves either the old file
    or the new one — never a torn hybrid.  The tmp file is cleaned up on
    a failed write so retries start clean.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as fh:
            out = _sink(fh, site, path.name)
            out.write(text)
            out.flush()
            _fsync(out, fh)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    os.replace(tmp, path)
    _dir_fsync(path)


# ---------------------------------------------------------------------- #
# Append-path header handling (crash-safe creation)
# ---------------------------------------------------------------------- #
def _prepare_append(
    path: Path, *, fmt: str, label: str, kind: str | None = None
) -> tuple[int | None, int]:
    """Classify the append target; returns ``(version, next_seq)``.

    ``version=None`` means the file needs a fresh header (missing,
    empty, or a torn header that was recognized and repaired).  An
    existing v1 file keeps accepting v1 records so the artifact stays
    internally consistent; v2 files report the next sequence number.
    """
    if not path.exists() or path.stat().st_size == 0:
        return None, 0
    with path.open("rb") as fh:
        first = fh.readline()
        has_more = bool(fh.readline())
    header = _parse_header(first)
    if header is None:
        if has_more:
            # Damage beyond the torn-header crash signature: a repair
            # here could destroy real records — that is fsck's job.
            raise ExperimentError(
                f"{path} has an unreadable header but further content; "
                f"run `repro fsck --repair` before appending"
            )
        # Crash between file creation and the header landing: quarantine
        # the torn bytes and start the file over.
        _RECOVERIES.inc()
        logger.warning(
            "storage: repairing torn header in %s (%d bytes quarantined)",
            path, len(first),
        )
        if first:
            _QUARANTINED.inc()
            _quarantine_write(
                path.with_name(path.name + ".quarantine"), path,
                [(0, first)],
            )
        with path.open("wb"):
            pass  # truncate
        return None, 0
    if header.get("format") != fmt:
        raise ExperimentError(f"{path} is not a {label} JSONL file")
    if kind is not None and header.get("kind") != kind:
        raise ExperimentError(
            f"{path} holds {header.get('kind')!r} events, expected {kind!r}"
        )
    version = header.get("version")
    if version not in _READABLE_VERSIONS:
        raise ExperimentError(
            f"{path} has format version {version}, "
            f"expected one of {_READABLE_VERSIONS}"
        )
    if version == 1:
        return 1, 0
    return 2, _tail_next_seq(path)


def _tail_next_seq(path: Path) -> int:
    """Next sequence number for a v2 file: last verified frame + 1.

    Reads a bounded tail (doubling backwards on demand) rather than the
    whole file, so appending to a large checkpoint stays O(tail), and
    checks a frame's CRC on its raw bytes, so it never re-encodes the
    frame.  A torn or corrupt trailing line simply falls through to the
    previous verifiable frame — exactly the record recovery would keep.
    """
    size = path.stat().st_size
    block = 1 << 16
    with path.open("rb") as fh:
        while True:
            start = max(0, size - block)
            fh.seek(start)
            data = fh.read(size - start)
            # lines[0] is either a partial line (mid-file seek) or the
            # header (start == 0) — never a candidate frame.
            for raw in reversed(data.split(b"\n")[1:]):
                if not raw.strip():
                    continue
                seq = _raw_frame_seq(raw)
                if seq is not None:
                    return seq + 1
                # A frame that parses but is not byte-canonical (say,
                # re-spaced) still verifies through its parsed form.
                try:
                    obj = json.loads(raw.decode("utf-8", errors="strict"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    continue
                verified = _verify_frame(obj)
                if verified is not None:
                    return verified[0] + 1
            if start == 0:
                return 0
            block *= 2


def _append_records(
    records: list[dict],
    path: str | Path,
    *,
    fmt: str,
    label: str,
    site: str,
    kind: str | None = None,
) -> None:
    path = Path(path)
    version, next_seq = _prepare_append(path, fmt=fmt, label=label, kind=kind)
    lines: list[str] = []
    if version is None:
        lines.append(_header_line(fmt, kind))
        version = _FORMAT_VERSION
    for rec in records:
        if version == 1:
            lines.append(json.dumps(rec) + "\n")
        else:
            lines.append(_frame_line(rec, next_seq))
            next_seq += 1
    with path.open("a") as fh:
        out = _sink(fh, site, path.name)
        out.write("".join(lines))
        out.flush()
        _fsync(out, fh)


# ---------------------------------------------------------------------- #
# Probe artifacts
# ---------------------------------------------------------------------- #
def save_probes_jsonl(probes: list[ProbeResult], path: str | Path) -> None:
    """Write probes as a v2 JSONL snapshot (header + one frame per probe).

    The write is atomic: tmp file, fsync, ``os.replace``, directory
    fsync.  A crash mid-save leaves the previous snapshot intact instead
    of a torn file.
    """
    path = Path(path)
    lines = [_header_line(_PROBES_FORMAT)]
    lines.extend(
        _frame_line(_encode_probe(probe), seq)
        for seq, probe in enumerate(probes)
    )
    _atomic_write_text(path, "".join(lines), site="storage.save_probes")


def append_probes_jsonl(probes: list[ProbeResult], path: str | Path) -> None:
    """Append probes, creating the file (with header) when needed.

    This is the checkpoint write path of :func:`repro.core.runner.run_grid`:
    the buffer is flushed and fsynced so a killed process loses at most
    the line being written (which :func:`load_checkpoint` discards).
    Creation is crash-safe: an empty or torn-header file left by an
    earlier kill is repaired, not rejected.  Appends to a v1 file stay
    v1 (one file, one framing); fresh files are v2.
    """
    _append_records(
        [_encode_probe(p) for p in probes],
        path,
        fmt=_PROBES_FORMAT,
        label="probe",
        site="storage.append_probes",
    )


def load_probes_jsonl(
    path: str | Path,
    *,
    tolerate_partial: bool = False,
    quarantine: bool = True,
) -> RecoveredList:
    """Read probes written by :func:`save_probes_jsonl` (v1 or v2).

    Returns a list that also carries a :class:`RecoveryReport` as
    ``.report``.  With ``tolerate_partial=True`` (crash/corruption
    recovery) the whole file is scanned: damaged lines are counted,
    quarantined (to ``<path>.quarantine``, disable with
    ``quarantine=False``) and logged, and verified records past the
    damage are salvaged — safe for probes because checkpoint resume
    dedupes by complete cell.  A tolerant load never raises on damage;
    an unreadable header yields an empty list whose report accounts for
    every dropped byte.

    Raises
    ------
    ExperimentError
        On a missing/incompatible header or corrupt records (strict mode).
    """
    records, report = _scan_jsonl(
        path,
        fmt=_PROBES_FORMAT,
        label="probe",
        tolerate=tolerate_partial,
        salvage_past_gaps=True,
        quarantine=quarantine,
        decode=_decode_probe,
    )
    out = RecoveredList(records)
    out.report = report
    return out


def load_checkpoint(
    path: str | Path, specs: list[ExperimentSpec]
) -> CheckpointState:
    """Load a ``run_grid`` checkpoint: completed cells of ``specs`` only.

    Returns ``{spec.cell_key: probes}`` (with the underlying
    :class:`RecoveryReport` as ``.report``) for every cell whose full
    ``n_queries`` probes are present.  Partial cells (the run died
    mid-cell), damaged spans, and probes from foreign specs are dropped —
    their cells simply re-run on resume.  Because cells are only counted
    when complete, records salvaged past a corrupt span are safe to use.
    """
    by_key = {spec.cell_key: spec for spec in specs}
    groups: dict[tuple, list[ProbeResult]] = {}
    loaded = load_probes_jsonl(path, tolerate_partial=True)
    for probe in loaded:
        spec = by_key.get(probe.spec.cell_key)
        if spec is None or probe.spec != spec:
            continue
        groups.setdefault(spec.cell_key, []).append(probe)
    done = CheckpointState(
        (key, cell)
        for key, cell in groups.items()
        if len(cell) == by_key[key].n_queries
    )
    done.report = loaded.report
    return done


# ---------------------------------------------------------------------- #
# Event journals
# ---------------------------------------------------------------------- #
def append_events_jsonl(
    events: list[dict], path: str | Path, *, kind: str
) -> None:
    """Append generic event records to a kind-tagged JSONL journal.

    The write discipline matches :func:`append_probes_jsonl` — header on
    (crash-safe) creation, flush + fsync per batch, v2 CRC frames with a
    per-record sequence number continuing across appends.  ``kind``
    names the journal's schema (e.g. ``"session-events"``) so unrelated
    logs cannot be silently confused for each other.
    """
    _append_records(
        events,
        path,
        fmt=_EVENTS_FORMAT,
        label="event",
        site="storage.append_events",
        kind=kind,
    )


def save_events_jsonl(
    events: list[dict], path: str | Path, *, kind: str
) -> None:
    """Write events as an atomic v2 JSONL snapshot (header + frames).

    The snapshot discipline matches :func:`save_probes_jsonl` — tmp file,
    fsync, ``os.replace``, directory fsync — so a crash mid-save leaves
    the previous file intact.  This is the export path for whole-run
    artifacts produced in memory (trace files, telemetry timelines),
    which are rewritten rather than appended to.
    """
    path = Path(path)
    lines = [_header_line(_EVENTS_FORMAT, kind)]
    lines.extend(_frame_line(rec, seq) for seq, rec in enumerate(events))
    _atomic_write_text(path, "".join(lines), site="storage.save_events")


def _decode_event(rec):
    if not isinstance(rec, dict):
        raise ExperimentError("not an object")
    return rec


def load_events_jsonl(
    path: str | Path,
    *,
    kind: str,
    tolerate_partial: bool = False,
    quarantine: bool = True,
) -> RecoveredList:
    """Read events written by :func:`append_events_jsonl` (v1 or v2).

    Returns a list carrying its :class:`RecoveryReport` as ``.report``.
    With ``tolerate_partial=True`` the journal is recovered rather than
    rejected — but unlike probe files, an event journal is **truncated
    at the first damaged or missing record**: session replay depends on
    the exact contiguous prefix, so records beyond a gap are quarantined
    and reported (``truncated_at_seq``), never silently replayed.  A
    header of the wrong ``kind`` or version always raises — resuming one
    log type from another is a caller bug, not crash damage.

    Raises
    ------
    ExperimentError
        On a missing/incompatible header or corrupt records (strict mode).
    """
    records, report = _scan_jsonl(
        path,
        fmt=_EVENTS_FORMAT,
        label="event",
        kind=kind,
        tolerate=tolerate_partial,
        salvage_past_gaps=False,
        quarantine=quarantine,
        decode=_decode_event,
    )
    out = RecoveredList(records)
    out.report = report
    return out


# ---------------------------------------------------------------------- #
# fsck: verify / repair any artifact
# ---------------------------------------------------------------------- #
def _detect_kind(path: Path) -> tuple[str | None, str | None]:
    """Best-effort artifact detection from the header line."""
    try:
        with path.open("rb") as fh:
            header = _parse_header(fh.readline())
    except OSError:
        return None, None
    if header is None:
        return None, None
    fmt = header.get("format")
    if fmt == _PROBES_FORMAT:
        return "probes", None
    if fmt == _EVENTS_FORMAT:
        return "events", header.get("kind")
    return None, None


def verify_artifact(
    path: str | Path,
    *,
    kind: str | None = None,
    event_kind: str | None = None,
    quarantine: bool = False,
) -> RecoveryReport:
    """Integrity-check one artifact and return its :class:`RecoveryReport`.

    ``kind`` is ``"probes"``, ``"events"``, or ``None`` to detect from
    the header.  Verification is read-only by default (``quarantine=False``
    suppresses the sidecar); it never modifies the artifact itself.

    Raises
    ------
    ExperimentError
        When the artifact kind cannot be determined (unreadable or
        foreign header and no explicit ``kind``), or the file is missing.
    """
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"{path} does not exist")
    detected, detected_event_kind = _detect_kind(path)
    kind = kind or detected
    if kind not in ("probes", "events"):
        raise ExperimentError(
            f"{path}: cannot determine artifact kind (unreadable or "
            f"unknown header); pass kind='probes' or 'events'"
        )
    if kind == "probes":
        _, report = _scan_jsonl(
            path,
            fmt=_PROBES_FORMAT,
            label="probe",
            tolerate=True,
            salvage_past_gaps=True,
            salvage_headerless=True,
            quarantine=quarantine,
            decode=_decode_probe,
        )
        report.kind = "probes"
    else:
        expect = event_kind or detected_event_kind
        _, report = _scan_jsonl(
            path,
            fmt=_EVENTS_FORMAT,
            label="event",
            kind=expect,
            check_kind=expect is not None and event_kind is not None,
            tolerate=True,
            salvage_past_gaps=False,
            salvage_headerless=True,
            quarantine=quarantine,
        )
        report.kind = f"events:{detected_event_kind or event_kind}"
    return report


def repair_artifact(
    path: str | Path,
    *,
    kind: str | None = None,
    event_kind: str | None = None,
) -> RecoveryReport:
    """Recover an artifact in place: quarantine damage, rewrite verified
    records as a fresh v2 file (atomic tmp + replace), resequencing from
    zero.  v1 files are upgraded to v2 in the process.  Returns the
    :class:`RecoveryReport` of what was found (the rewritten file is
    clean by construction).
    """
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"{path} does not exist")
    detected, detected_event_kind = _detect_kind(path)
    kind = kind or detected
    if kind == "probes":
        probes, report = _scan_jsonl(
            path,
            fmt=_PROBES_FORMAT,
            label="probe",
            tolerate=True,
            salvage_past_gaps=True,
            salvage_headerless=True,
            decode=_decode_probe,
        )
        save_probes_jsonl(probes, path)
        report.kind = "probes"
    elif kind == "events":
        expect = event_kind or detected_event_kind or "unknown"
        events, report = _scan_jsonl(
            path,
            fmt=_EVENTS_FORMAT,
            label="event",
            kind=expect,
            check_kind=event_kind is not None,
            tolerate=True,
            salvage_past_gaps=False,
            salvage_headerless=True,
            decode=_decode_event,
        )
        save_events_jsonl(events, path, kind=expect)
        report.kind = f"events:{expect}"
    else:
        raise ExperimentError(
            f"{path}: cannot determine artifact kind (unreadable or "
            f"unknown header); pass kind='probes' or 'events'"
        )
    return report
