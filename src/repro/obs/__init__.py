"""repro.obs — zero-dependency observability for the serving stack.

Five pieces, all in-process and stdlib+numpy only:

* :class:`Tracer` / :class:`Span` (:mod:`repro.obs.tracer`) — nested
  spans with monotonic start/duration, span/parent ids, and structured
  attributes; thread-safe collection; CRC-framed JSONL export.  Spans
  cross process boundaries: shard workers run their own tracer in a
  namespaced id block (:func:`~repro.obs.tracer.worker_id_start`) and
  ship buffered spans back over the result pipe, where the parent
  :meth:`~repro.obs.tracer.Tracer.absorb`\\ s them into one coherent
  tree.  **Off by default**: the global tracer is a disabled singleton
  until :func:`set_tracer` / :func:`use_tracer` installs a live one, so
  instrumented hot paths cost one attribute check when tracing is off.
* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — named counters /
  gauges / log-bucket :class:`Histogram`\\ s (bounded and mergeable)
  with label sets, one ``snapshot()``/``render()``; registries pickle
  and merge.  It is where the serving stack counts (each backend's
  ``StatsRecorder`` records into one) and what the load generator's SLO
  reports use; :func:`collect_service_metrics` copies a service's
  registry into an export registry, idempotently.
* continuous telemetry (:mod:`repro.obs.telemetry`) — a background
  :class:`TelemetrySampler` scraping every registered collector on a
  cadence into a ring-buffer timeline with multi-window SLO burn-rate
  alerts, exported as a CRC-framed, fsck-able artifact.
* trace analysis (:mod:`repro.obs.summary`) — reload an exported trace,
  reconstruct the span tree, and print a per-stage latency breakdown
  (``repro trace summarize``); flame export (:mod:`repro.obs.flame`)
  turns the same trace into folded stacks and speedscope JSON
  (``repro trace flame``).
* the live dashboard (:mod:`repro.obs.dashboard`) — ``repro top``
  renders a timeline into one screen of qps, latency/queue-wait
  percentiles, hit rates, breaker/shard health, fairness, and alerts.

The span taxonomy wired through the stack is documented in DESIGN.md
§Observability and §14 (cross-process propagation); ``repro serve-bench
--trace out.jsonl`` produces a stitched trace end to end.
"""

from repro.obs.dashboard import render_dashboard
from repro.obs.flame import (
    folded_stacks,
    speedscope_document,
    write_folded,
    write_speedscope,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_service_metrics,
    collect_storage_metrics,
)
from repro.obs.summary import (
    TraceSummary,
    load_spans,
    render_span_tree,
    span_children,
    span_depths,
    summarize_spans,
)
from repro.obs.telemetry import (
    TELEMETRY_EVENT_KIND,
    BurnRatePolicy,
    TelemetrySampler,
    deterministic_fields,
    load_telemetry,
    max_sample_gap_s,
)
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_EVENT_KIND,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
    worker_id_start,
)

__all__ = [
    "Span",
    "Tracer",
    "NULL_TRACER",
    "TRACE_EVENT_KIND",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "worker_id_start",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collect_service_metrics",
    "collect_storage_metrics",
    "TraceSummary",
    "load_spans",
    "summarize_spans",
    "render_span_tree",
    "span_children",
    "span_depths",
    "TELEMETRY_EVENT_KIND",
    "BurnRatePolicy",
    "TelemetrySampler",
    "deterministic_fields",
    "load_telemetry",
    "max_sample_gap_s",
    "render_dashboard",
    "folded_stacks",
    "speedscope_document",
    "write_folded",
    "write_speedscope",
]
