"""Resilience policies for the serving stack: retry, break, degrade.

The :class:`ResilientService` wrapper turns the typed failures that
:class:`~repro.serve.service.PredictionService` *surfaces*
(:class:`~repro.errors.ServiceOverloadedError`,
:class:`~repro.errors.RequestTimeoutError`, injected
:class:`~repro.errors.InjectedFaultError`) into behaviour:

* a :class:`RetryPolicy` — exponential backoff with *deterministic*
  seeded jitter (two identical runs back off identically, so chaos
  drills reproduce bit-for-bit) and an optional per-service retry
  budget that stops retry storms under sustained failure;
* a per-route :class:`CircuitBreaker` (closed → open → half-open),
  keyed on the request's surrogate size, so one broken route cannot
  drag down the rest of the service with doomed attempts;
* the :class:`~repro.serve.fallback.FallbackChain` — result cache →
  GBT surrogate → magnitude prior — returning a ``Response`` flagged
  ``degraded=True`` with provenance instead of raising.

All of it is recorded in the wrapped service's
:class:`~repro.serve.stats.ServiceStats`: retries, breaker trips,
degraded-serve rate, and availability.  The wrapper is itself a
:class:`~repro.serve.service.ServiceBase` backend, and its
:meth:`~ResilientService.metrics` carries each route's breaker state.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.errors import (
    CircuitOpenError,
    InjectedFaultError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardCrashError,
)
from repro.obs import MetricsRegistry, get_tracer
from repro.serve.fallback import FallbackChain
from repro.serve.request import Request, Response
from repro.serve.service import ServiceBase
from repro.utils.rng import derive_seed

__all__ = ["RetryPolicy", "CircuitBreaker", "ResilientService"]

_SCALE = float(1 << 63)

#: Threads running :meth:`ResilientService.submit_async` (retries and
#: backoff sleep on them, so a few keep a sessions tick's burst moving).
ASYNC_WORKERS = 4

#: Failure classes worth another attempt: transient by construction
#: (injected faults), by backpressure semantics (overload), by deadline
#: (timeout — the retry may hit the result cache the late completion
#: just filled), or by shard death (the crashed shard respawns, so the
#: retry lands on a fresh replica).  ShardFailedError is deliberately
#: absent: a shard past its restart budget stays down.
_RETRYABLE = (
    InjectedFaultError,
    ServiceOverloadedError,
    RequestTimeoutError,
    ShardCrashError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic seeded jitter.

    Attributes
    ----------
    max_attempts:
        Total attempts per logical request, including the first.
    base_delay_s, multiplier, max_delay_s:
        Backoff ladder: attempt ``k`` (1-based) waits
        ``min(base * multiplier**(k-1), max_delay_s)`` before retrying.
    jitter:
        Fraction of the backoff randomized *downward* (decorrelates
        retry herds without ever exceeding the ladder).  The draw is a
        pure function of ``(seed, key, attempt)``, so runs reproduce.
    seed:
        Jitter seed.
    retry_budget:
        Optional cap on total retries across the policy's service (a
        stop-loss under sustained failure); ``None`` is unbounded.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.002
    multiplier: float = 2.0
    max_delay_s: float = 0.05
    jitter: float = 0.5
    seed: int = 0
    retry_budget: int | None = None
    retryable_errors: tuple = field(default=_RETRYABLE)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )

    def retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` merits another attempt."""
        return isinstance(exc, self.retryable_errors)

    def delay_s(self, key: object, attempt: int) -> float:
        """Deterministic backoff before retrying after ``attempt`` (1-based)."""
        base = min(
            self.base_delay_s * self.multiplier ** (attempt - 1),
            self.max_delay_s,
        )
        if self.jitter == 0.0 or base == 0.0:
            return base
        u = derive_seed(self.seed, "retry-jitter", key, attempt) / _SCALE
        return base * (1.0 - self.jitter * u)


class CircuitBreaker:
    """A closed → open → half-open breaker for one route.

    Closed: traffic flows; ``failure_threshold`` consecutive failures
    trip it open.  Open: ``allow`` refuses everything until
    ``reset_timeout_s`` has elapsed, then the breaker turns half-open.
    Half-open: at most ``half_open_successes`` probes may be in flight
    at once — ``allow`` hands out that many admission tokens and refuses
    further callers until a probe reports back, so a thundering herd
    cannot pile onto a barely-recovered route.  That many consecutive
    probe successes close the breaker again; any probe failure re-trips
    it.  A caller that abandons an admitted probe without an outcome
    (e.g. the service closed underneath it) must call :meth:`release`
    to return its token.

    ``clock`` is injectable so tests drive state transitions without
    sleeping.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_s: float = 0.25,
        half_open_successes: int = 1,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s < 0:
            raise ValueError(
                f"reset_timeout_s must be >= 0, got {reset_timeout_s}"
            )
        if half_open_successes < 1:
            raise ValueError(
                f"half_open_successes must be >= 1, got {half_open_successes}"
            )
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self.half_open_successes = int(half_open_successes)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._half_open_ok = 0
        self._half_open_inflight = 0
        self._opened_at: float | None = None
        self.trips = 0

    # -- internal: callers hold the lock ------------------------------- #
    def _tick(self) -> None:
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.reset_timeout_s
        ):
            self._state = "half-open"
            self._half_open_ok = 0
            self._half_open_inflight = 0

    def _trip(self) -> None:
        self._state = "open"
        self._opened_at = self._clock()
        self._failures = 0
        self._half_open_inflight = 0
        self.trips += 1

    def _release_probe(self) -> None:
        if self._half_open_inflight > 0:
            self._half_open_inflight -= 1

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        with self._lock:
            self._tick()
            return self._state

    def allow(self) -> bool:
        """Whether a request may be attempted right now.

        In the half-open state a ``True`` return *admits a probe*: the
        caller owns an admission token until it reports
        :meth:`record_success` / :meth:`record_failure` (or abandons via
        :meth:`release`).  At most ``half_open_successes`` tokens exist,
        so concurrent callers racing a recovering route are bounded
        instead of stampeding it.
        """
        with self._lock:
            self._tick()
            if self._state == "open":
                return False
            if self._state == "half-open":
                if self._half_open_inflight >= self.half_open_successes:
                    return False
                self._half_open_inflight += 1
            return True

    def release(self) -> None:
        """Return an admission token without recording an outcome."""
        with self._lock:
            self._tick()
            if self._state == "half-open":
                self._release_probe()

    def record_success(self) -> None:
        with self._lock:
            self._tick()
            if self._state == "half-open":
                self._release_probe()
                self._half_open_ok += 1
                if self._half_open_ok >= self.half_open_successes:
                    self._state = "closed"
                    self._failures = 0
            else:
                self._failures = 0

    def record_failure(self) -> bool:
        """Record one failure; returns True when this one tripped the breaker."""
        with self._lock:
            self._tick()
            if self._state == "half-open":
                self._trip()  # a failed probe re-opens immediately
                return True
            self._failures += 1
            if self._state == "closed" and self._failures >= self.failure_threshold:
                self._trip()
                return True
            return False


class ResilientService(ServiceBase):
    """Retry + circuit-break + degrade backend over another backend.

    A :class:`~repro.serve.service.ServiceBase` like the service it
    wraps, so every driver takes either.  Its :meth:`submit` and
    :meth:`submit_many` run sequentially (the chaos fault schedule
    depends on that order); :meth:`submit_async` runs :meth:`submit` on
    a pool of :data:`ASYNC_WORKERS` threads, created on first use.  It
    counts in the wrapped service's recorder, so :meth:`stats` is the
    wrapped service's view; :meth:`metrics` adds per-route breaker
    state.

    Parameters
    ----------
    service:
        The wrapped backend (in-process or sharded).
    retry_policy:
        Backoff policy (defaults to :class:`RetryPolicy()`).
    breaker_factory:
        Zero-arg callable building the per-route breaker (one breaker
        per distinct ``Request.size``).
    fallback:
        ``None`` builds the default
        :class:`~repro.serve.fallback.FallbackChain` over the service;
        ``False`` disables degradation (final failures then raise);
        otherwise the given chain is used as-is.
    sleep:
        Injectable backoff sleep (tests stub it out).
    """

    def __init__(
        self,
        service: ServiceBase,
        *,
        retry_policy: RetryPolicy | None = None,
        breaker_factory=None,
        fallback=None,
        sleep=time.sleep,
    ):
        self.service = service
        self.retry_policy = retry_policy or RetryPolicy()
        self._breaker_factory = breaker_factory or CircuitBreaker
        if fallback is None:
            fallback = FallbackChain(service)
        self.fallback = fallback if fallback is not False else None
        self._sleep = sleep
        self._stats = service.stats_recorder
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()
        self._retries_spent = 0
        self._keys = itertools.count()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    def breaker(self, route: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker for one route."""
        with self._lock:
            breaker = self._breakers.get(route)
            if breaker is None:
                breaker = self._breaker_factory()
                self._breakers[route] = breaker
            return breaker

    def _spend_retry(self) -> bool:
        budget = self.retry_policy.retry_budget
        if budget is None:
            return True
        with self._lock:
            if self._retries_spent >= budget:
                return False
            self._retries_spent += 1
            return True

    # ------------------------------------------------------------------ #
    def submit(self, request: Request) -> Response:
        """Serve one logical request, absorbing transient failure.

        Never raises for retryable faults while a fallback rung is
        enabled — it degrades instead.  :class:`ServiceClosedError`
        always propagates (a closed service is operator intent, not an
        outage to paper over).
        """
        self._stats.logical.inc()
        tracer = get_tracer()
        key = next(self._keys)
        breaker = self.breaker(request.size)
        last_exc: BaseException | None = None
        attempt = 1
        with tracer.span(
            "resilience.submit", route=request.size, key=key
        ) as root:
            while breaker.allow():
                try:
                    with tracer.span("resilience.attempt", attempt=attempt):
                        response = self.service.submit(request)
                except ServiceClosedError:
                    # Operator intent, not an outage: return the half-open
                    # admission token (no outcome to record) and re-raise.
                    breaker.release()
                    self._stats.unavailable.inc()
                    raise
                except Exception as exc:
                    if breaker.record_failure():
                        self._stats.breaker_trips.inc()
                    last_exc = exc
                    if not self.retry_policy.retryable(exc):
                        break
                    if (
                        attempt >= self.retry_policy.max_attempts
                        or not self._spend_retry()
                    ):
                        break
                    self._stats.retries.inc()
                    delay = self.retry_policy.delay_s(key, attempt)
                    with tracer.span(
                        "resilience.backoff", attempt=attempt, delay_s=delay
                    ):
                        self._sleep(delay)
                    attempt += 1
                else:
                    breaker.record_success()
                    root.set(outcome="served", attempts=attempt)
                    return response
            if self.fallback is not None:
                response = self.fallback.degraded_response(
                    request, request_id=key
                )
                if response is not None:
                    self._stats.degraded.inc()
                    root.set(outcome="degraded", rung=response.provenance,
                             attempts=attempt)
                    return response
            self._stats.unavailable.inc()
            root.set(outcome="unavailable", attempts=attempt)
            if last_exc is not None:
                raise last_exc
            raise CircuitOpenError(request.size)

    def submit_many(self, requests) -> list[Response]:
        """Serve a workload sequentially (deterministic fault/retry order)."""
        return [self.submit(request) for request in requests]

    def submit_async(self, request: Request, *, block: bool = False) -> Future:
        """Run :meth:`submit` on the wrapper's thread pool.

        Retries and backoff then run on a pool thread.  The pool's queue
        is unbounded, so ``block`` has nothing to wait for: the wrapped
        service's backpressure surfaces inside :meth:`submit`, as
        retries.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=ASYNC_WORKERS,
                    thread_name_prefix="repro-resilient",
                )
            return self._pool.submit(self.submit, request)

    def cached_response(self, request: Request) -> Response | None:
        """The wrapped service's result-cache answer, if any."""
        return self.service.cached_response(request)

    def hold(self):
        """The wrapped service's
        :meth:`~repro.serve.service.ServiceBase.hold`."""
        return self.service.hold()

    def metrics(self) -> MetricsRegistry:
        """The wrapped service's registry snapshot plus, per route,
        ``breaker.trips{route}`` and ``breaker.open{route}`` (1 while
        the breaker is open)."""
        snap = self.service.metrics()
        with self._lock:
            breakers = dict(self._breakers)
        for route, breaker in breakers.items():
            snap.counter("breaker.trips", route=route).inc(breaker.trips)
            snap.gauge("breaker.open", route=route).set(
                1.0 if breaker.state == "open" else 0.0
            )
        return snap

    def close(self, drain: bool = True) -> None:
        """Shut the pool down, then the wrapped service (both draining
        by default; without ``drain`` queued async submits are
        cancelled)."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=drain, cancel_futures=not drain)
        self.service.close(drain=drain)
