"""repro.serve — batched, cached surrogate-inference serving.

The paper's experiments issue thousands of independent surrogate
predictions; this package turns those probes into *traffic* against a
proper inference service (SURGE's "LLM as surrogate executor" framing):

* :class:`Request` / :class:`Response` — the service envelope;
* :class:`~repro.serve.service.ServiceBase` — the serving contract
  (``submit``, ``submit_async``, ``submit_many``, ``cached_response``,
  ``hold``, ``stats``, ``metrics``, ``close``) that every backend
  below implements and every driver types against;
* :class:`PredictionService` — submit / submit_many façade over a bounded
  admission queue, a flush-on-size-or-wait microbatching scheduler, and a
  two-level cache (prompt-analysis memoization + full-result memoization);
* :class:`ServiceStats` — p50/p95 latency, throughput, batch occupancy,
  and cache hit rates, rendered by ``repro serve-bench``: a view of the
  metrics registry a service counts in (``service.metrics()``);
* typed failure modes in :mod:`repro.errors` —
  :class:`~repro.errors.ServiceOverloadedError` (backpressure),
  :class:`~repro.errors.RequestTimeoutError` (per-request deadline),
  :class:`~repro.errors.ServiceClosedError` (submit after shutdown).

The experiment runner (:func:`repro.core.runner.run_grid`) can execute
grids through a service, making the paper reproduction itself the first
traffic generator.

Robustness beyond typed errors lives in :mod:`repro.serve.resilience`:
:class:`RetryPolicy` (deterministic backoff), per-route
:class:`CircuitBreaker`, and the :class:`FallbackChain` degradation
ladder behind :class:`ResilientService` — a backend in its own right,
wrapping the in-process or sharded one — all testable under seeded
fault injection from :mod:`repro.faults` (see ``repro chaos``).
"""

from repro.serve.cache import LRUCache, prompt_fingerprint
from repro.serve.fallback import FallbackChain
from repro.serve.request import Request, Response
from repro.serve.resilience import CircuitBreaker, ResilientService, RetryPolicy
from repro.serve.scheduler import MicroBatcher
from repro.serve.service import PredictionService, ServiceBase
from repro.serve.shard import ShardedPredictionService, make_service, route_shard
from repro.serve.stats import ServiceStats, StatsRecorder

__all__ = [
    "Request",
    "Response",
    "ServiceBase",
    "PredictionService",
    "ShardedPredictionService",
    "make_service",
    "route_shard",
    "MicroBatcher",
    "LRUCache",
    "prompt_fingerprint",
    "ServiceStats",
    "StatsRecorder",
    "RetryPolicy",
    "CircuitBreaker",
    "ResilientService",
    "FallbackChain",
]
