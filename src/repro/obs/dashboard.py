"""The ``repro top`` dashboard: one screen of truth from a timeline.

Renders the operator view of a telemetry timeline (the ring exported by
:class:`~repro.obs.telemetry.TelemetrySampler`): current qps and latency
percentiles, queue wait, cache and prefix hit rates, circuit-breaker
state, shard health, tenant fairness, storage integrity, and the most
recent SLO burn alerts.  Pure rendering — the CLI owns the read/refresh
loop, this module turns ``records -> str`` so tests can pin the output
without a terminal.

Rates are computed two ways on purpose: *qps* is a windowed delta of the
completed-requests counter (what is happening **now**), while hit rates
are ratios of the cumulative counters (what the run has done so far) —
a windowed hit rate on a quiet cache is just noise.
"""

from __future__ import annotations

import re

from repro.utils.tables import Table
from repro.utils.timing import format_duration

__all__ = ["render_dashboard"]

_LABELLED = re.compile(r"^(?P<name>[^{]+)\{(?P<labels>.*)\}$")


def _labelled(metrics: dict, name: str) -> dict[str, float]:
    """All entries of ``name{...}`` keyed by their label suffix."""
    out: dict[str, float] = {}
    for key, value in metrics.items():
        m = _LABELLED.match(key)
        if m and m.group("name") == name and isinstance(value, (int, float)):
            out[m.group("labels")] = float(value)
    return out


def _num(metrics: dict, key: str, default: float = 0.0) -> float:
    value = metrics.get(key, default)
    return float(value) if isinstance(value, (int, float)) else default


def _window_rate(records: list[dict], key: str, window_s: float) -> float:
    """Delta of a cumulative counter over the trailing window, per second."""
    samples = [r for r in records if r.get("type") == "sample"]
    if len(samples) < 2:
        return 0.0
    newest = samples[-1]
    cutoff = float(newest["t_mono"]) - window_s
    oldest = next(
        (r for r in samples if float(r["t_mono"]) >= cutoff), samples[0]
    )
    dt = float(newest["t_mono"]) - float(oldest["t_mono"])
    if oldest is newest or dt <= 0:
        return 0.0
    delta = _num(newest["metrics"], key) - _num(oldest["metrics"], key)
    return max(delta, 0.0) / dt


def _hit_rate(metrics: dict, level: str) -> float | None:
    hits = _num(metrics, f"cache.lookups{{level={level},outcome=hit}}")
    misses = _num(metrics, f"cache.lookups{{level={level},outcome=miss}}")
    total = hits + misses
    return (hits / total) if total else None


def render_dashboard(
    records: list[dict],
    *,
    window_s: float = 10.0,
    title: str = "repro top",
) -> str:
    """Render the dashboard for a timeline (most recent sample wins)."""
    samples = [r for r in records if r.get("type") == "sample"]
    if not samples:
        return f"{title}: no samples yet"
    last = samples[-1]
    m = last["metrics"]

    t = Table(["signal", "value"], title=(
        f"{title} — sample #{last['seq']} "
        f"({len(samples)} samples in window)"
    ))
    t.add_row([
        "qps (completed)",
        f"{_window_rate(records, 'serve.requests{event=completed}', window_s):.1f}",
    ])
    t.add_row([
        "latency p50 / p95",
        f"{format_duration(_num(m, 'serve.latency_s{quantile=p50}'))} / "
        f"{format_duration(_num(m, 'serve.latency_s{quantile=p95}'))}",
    ])
    t.add_row([
        "queue wait p50 / p95",
        f"{format_duration(_num(m, 'serve.queue_wait_s{quantile=p50}'))} / "
        f"{format_duration(_num(m, 'serve.queue_wait_s{quantile=p95}'))}",
    ])
    for level in ("result", "prefix"):
        rate = _hit_rate(m, level)
        if rate is not None:
            t.add_row([f"{level}-cache hit rate", f"{rate:.0%}"])

    open_routes = [
        labels for labels, value in _labelled(m, "breaker.open").items()
        if value >= 1.0
    ]
    trips = sum(_labelled(m, "breaker.trips").values())
    if open_routes:
        t.add_row(["breaker state", "OPEN: " + ", ".join(sorted(open_routes))])
    elif trips or _labelled(m, "breaker.open"):
        t.add_row(["breaker state", f"closed ({int(trips)} trips)"])

    if "serve.shards" in m:
        n = int(_num(m, "serve.shards"))
        failed = int(_num(m, "serve.shards_failed"))
        respawns = int(_num(m, "serve.shard_respawns"))
        t.add_row([
            "shards healthy",
            f"{n - failed}/{n} ({respawns} respawns)",
        ])

    if "sessions.fairness_jain" in m:
        t.add_row([
            "tenant fairness (Jain)",
            f"{_num(m, 'sessions.fairness_jain'):.3f}",
        ])
    unavailable = _num(m, "resilience.unavailable")
    logical = _num(m, "resilience.logical")
    if logical:
        t.add_row([
            "availability",
            f"{1.0 - unavailable / logical:.2%}",
        ])

    integrity = sum(
        _num(m, f"storage.{name}")
        for name in ("crc_failures", "records_quarantined", "recoveries")
    )
    t.add_row([
        "storage integrity",
        "clean" if integrity == 0 else f"DAMAGE ({int(integrity)} events)",
    ])

    alerts = [r for r in records if r.get("type") == "alert"]
    for alert in alerts[-3:]:
        t.add_row([
            f"alert #{alert['seq']}",
            f"{alert.get('alert', '?')} "
            f"short={alert.get('short_burn', 0.0):.1f}x "
            f"long={alert.get('long_burn', 0.0):.1f}x",
        ])
    if not alerts:
        t.add_row(["alerts", "none"])
    return t.render()
