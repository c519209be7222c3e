"""Trace-file analysis: reconstruct the span tree, break down latency.

``repro trace summarize out.jsonl`` is built on this module: it loads the
spans exported by :meth:`~repro.obs.tracer.Tracer.export_jsonl`,
reconstructs parent/child structure, and aggregates per stage (span name)
— count, total, mean, p50/p95, and share of the traced wall time.  Stage
rows are indented by their depth in the reconstructed tree, so the table
reads as the span taxonomy itself::

    stage                  | count | total | mean | p50 | p95 | share
    serve.request          |    48 | ...
      serve.queue_wait     |    48 | ...
      serve.cache_lookup   |    48 | ...
      serve.generate       |    10 | ...
        llm.generate       |    10 | ...
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.obs.tracer import Span
from repro.utils.tables import Table
from repro.utils.timing import format_duration

__all__ = ["load_spans", "span_children", "span_depths", "TraceSummary",
           "summarize_spans", "render_span_tree"]


def _is_framed_trace(path) -> bool:
    """True when the file opens with a storage-v2 events header."""
    try:
        with open(Path(path), "rb") as fh:
            first = fh.readline(4096)
        header = json.loads(first.decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return False
    return isinstance(header, dict) and "format" in header and "version" in header


def load_spans(path) -> list[Span]:
    """Read a trace file back into :class:`Span` records.

    Current exports are CRC-framed storage-v2 event snapshots (kind
    ``"trace"``, detected from the header line and verified frame by
    frame); legacy bare-line JSONL traces from earlier releases are
    still read.  Blank lines are skipped; a malformed legacy line raises
    ``ValueError`` with its line number (trace files are written
    atomically per line, so damage means the file is not a trace, not a
    crashed run).
    """
    if _is_framed_trace(path):
        # Lazy import: repro.core.storage imports repro.obs at module
        # level, so the obs side must not import it back at import time.
        from repro.core.storage import load_events_jsonl

        from repro.obs.tracer import TRACE_EVENT_KIND

        records = load_events_jsonl(Path(path), kind=TRACE_EVENT_KIND)
        try:
            return [Span.from_dict(rec) for rec in records]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a span record ({exc})") from None
    spans: list[Span] = []
    with open(Path(path), "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(Span.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: not a span record ({exc})"
                ) from None
    return spans


def span_children(spans: list[Span]) -> dict[int | None, list[Span]]:
    """Parent-id → children map (roots and orphans under ``None``).

    An orphan — a span whose parent id never appears, e.g. when a trace
    was truncated — is treated as a root rather than dropped.
    """
    known = {span.span_id for span in spans}
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in known else None
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start_s, s.span_id))
    return children


def span_depths(spans: list[Span]) -> dict[int, int]:
    """span_id → depth in the reconstructed tree (roots at 0)."""
    known = {span.span_id: span for span in spans}
    depths: dict[int, int] = {}

    def depth(span: Span) -> int:
        got = depths.get(span.span_id)
        if got is not None:
            return got
        parent = known.get(span.parent_id)
        d = 0 if parent is None else depth(parent) + 1
        depths[span.span_id] = d
        return d

    for span in spans:
        depth(span)
    return depths


class TraceSummary:
    """Per-stage aggregation of one trace, renderable as a table."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children = span_children(spans)
        depths = span_depths(spans)
        roots = self.children.get(None, [])
        self.n_roots = len(roots)
        #: Wall time actually covered by roots: the denominator of shares.
        self.wall_s = float(sum(span.duration_s for span in roots))

        stages: dict[str, dict] = {}
        for span in spans:
            stage = stages.setdefault(
                span.name,
                {"durations": [], "depth": depths[span.span_id],
                 "first": span.start_s},
            )
            stage["durations"].append(span.duration_s)
            stage["depth"] = min(stage["depth"], depths[span.span_id])
            stage["first"] = min(stage["first"], span.start_s)
        self.stages = stages

    def rows(self) -> list[dict]:
        """One aggregate row per stage, in (depth, first-seen) order."""
        out = []
        for name, stage in sorted(
            self.stages.items(),
            key=lambda kv: (kv[1]["depth"], kv[1]["first"], kv[0]),
        ):
            d = np.asarray(stage["durations"], dtype=float)
            total = float(d.sum())
            out.append({
                "stage": name,
                "depth": stage["depth"],
                "count": int(d.size),
                "total_s": total,
                "mean_s": float(d.mean()),
                "p50_s": float(np.percentile(d, 50)),
                "p95_s": float(np.percentile(d, 95)),
                "share": (total / self.wall_s) if self.wall_s > 0 else 0.0,
            })
        return out

    def render(self, title: str = "") -> str:
        """The per-stage latency breakdown table."""
        if not title:
            title = (
                f"trace summary ({len(self.spans)} spans, "
                f"{self.n_roots} roots, "
                f"wall {format_duration(self.wall_s)})"
            )
        t = Table(
            ["stage", "count", "total", "mean", "p50", "p95", "share"],
            title=title,
        )
        for row in self.rows():
            t.add_row([
                "  " * row["depth"] + row["stage"],
                row["count"],
                format_duration(row["total_s"]),
                format_duration(row["mean_s"]),
                format_duration(row["p50_s"]),
                format_duration(row["p95_s"]),
                f"{row['share']:.0%}",
            ])
        return t.render()


def summarize_spans(spans: list[Span]) -> TraceSummary:
    """Aggregate loaded spans into a :class:`TraceSummary`."""
    return TraceSummary(spans)


def render_span_tree(spans: list[Span], max_roots: int = 1) -> str:
    """Render the first ``max_roots`` reconstructed trees, one span per line.

    A concrete sample to read alongside the aggregate table — e.g. one
    request's ``serve.request → queue_wait/cache_lookup/generate`` breakdown.
    An orphaned subtree — spans whose parent id never arrived, e.g. when
    a SIGKILLed shard lost its buffered spans — still renders, rooted at
    the orphan and marked ``!orphan(parent=N lost)`` instead of being
    dropped or crashing the walk.
    """
    children = span_children(spans)
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        attrs = ""
        if span.attributes:
            attrs = " " + " ".join(
                f"{k}={v}" for k, v in sorted(span.attributes.items())
            )
        mark = ""
        if depth == 0 and span.parent_id is not None:
            mark = f" !orphan(parent={span.parent_id} lost)"
        lines.append(
            f"{'  ' * depth}{span.name} "
            f"[{format_duration(span.duration_s)}]{mark}{attrs}"
        )
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    for root in children.get(None, [])[:max_roots]:
        walk(root, 0)
    return "\n".join(lines)
