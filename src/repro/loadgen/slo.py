"""Declarative SLO policies and SLO reports over streaming histograms.

The driver records every request outcome into a
:class:`~repro.obs.metrics.Histogram` — fixed log-spaced buckets, O(1)
per observation, mergeable — rather than keeping raw samples: a nightly
soak at hundreds of requests per second would otherwise accumulate
millions of floats for no benefit, and fixed bucket *edges* make
quantile estimates deterministic functions of the counts (pinned by
``tests/test_obs_metrics.py``).

An :class:`SLOPolicy` is the declarative conformance contract: latency
ceilings per quantile, a goodput floor, and ceilings on the error /
shed / degraded fractions.  :meth:`SLOReport.check` evaluates a report
against a policy and returns typed :class:`SLOViolation`\\ s — the CI
soak gate is exactly "``check`` returned an empty list".

Accounting vocabulary (used consistently everywhere):

``offered``
    Arrivals the schedule produced (the denominator of every rate).
``ok``
    Requests answered by the live path, un-degraded.
``degraded``
    Answered, but by the resilience layer's fallback chain.
``shed``
    Rejected at admission (:class:`~repro.errors.ServiceOverloadedError`)
    — the open-loop driver does *not* retry them; shedding under load is
    the signal being measured.
``errors`` / ``timeouts``
    Failed with any other service error / missed their deadline.
``goodput``
    ``ok / offered`` — degraded and shed responses explicitly do **not**
    count toward goodput, so a service cannot hit its SLO by degrading
    or refusing traffic.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.errors import LoadgenError
from repro.utils.tables import Table

__all__ = [
    "DEFAULT_SLO",
    "SLOPolicy",
    "SLOReport",
    "SLOViolation",
    "TenantSlice",
]


@dataclass(frozen=True)
class SLOPolicy:
    """Declarative conformance thresholds for one load test.

    Latency ceilings are milliseconds over the *client-observed* latency
    distribution (open loop: completion minus scheduled arrival, so
    coordinated omission cannot flatter a backlogged service).  A
    ``None`` ceiling leaves that quantile ungated.  Rates are fractions
    of offered requests.
    """

    max_p50_ms: float | None = 50.0
    max_p95_ms: float | None = 500.0
    max_p99_ms: float | None = 2000.0
    min_goodput: float = 0.98
    max_error_rate: float = 0.0
    max_shed_rate: float = 0.01
    max_degraded_rate: float = 0.05

    def __post_init__(self):
        for name in ("max_p50_ms", "max_p95_ms", "max_p99_ms"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise LoadgenError(f"{name} must be positive, got {value}")
        for name in (
            "min_goodput",
            "max_error_rate",
            "max_shed_rate",
            "max_degraded_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise LoadgenError(f"{name} must be in [0, 1], got {value}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SLOPolicy":
        known = set(cls.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise LoadgenError(
                f"unknown SLO policy fields: {sorted(unknown)}"
            )
        return cls(**obj)

    @classmethod
    def from_file(cls, path: str | Path) -> "SLOPolicy":
        try:
            obj = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise LoadgenError(f"cannot load SLO policy {path}: {exc}")
        return cls.from_json(obj)


#: The committed default gate (what ``repro loadtest --slo default`` and
#: the nightly soak check against).
DEFAULT_SLO = SLOPolicy()


@dataclass(frozen=True)
class SLOViolation:
    """One threshold the measured report crossed."""

    name: str
    limit: float
    actual: float

    def describe(self) -> str:
        return f"{self.name}: {self.actual:.6g} violates limit {self.limit:.6g}"


@dataclass(frozen=True)
class TenantSlice:
    """Per-tenant outcome counts plus that tenant's latency quantiles."""

    offered: int
    ok: int
    errors: int
    shed: int
    timeouts: int
    degraded: int
    p50_ms: float
    p95_ms: float
    p99_ms: float

    def counts(self) -> dict:
        """The deterministic (wall-clock-free) part of the slice."""
        return {
            "offered": self.offered,
            "ok": self.ok,
            "errors": self.errors,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "degraded": self.degraded,
        }


@dataclass(frozen=True)
class SLOReport:
    """The complete result of one load test.

    Two layers with different determinism guarantees:

    * the **schedule layer** (spec echo, digests, outcome counts,
      per-tenant counts, goodput) is a pure function of the seed on a
      healthy run — :meth:`deterministic_payload` extracts exactly this
      slice, which ``repro loadtest --check-determinism`` diffs key by
      key (:func:`repro.drills.verify_deterministic`);
    * the **measured layer** (latency quantiles, achieved rps, elapsed
      wall time) reflects the actual execution and differs run to run.
    """

    mode: str
    arrival: str
    rps: float
    duration_s: float
    seed: int
    schedule_digest: str
    workload_digest: str
    offered: int
    ok: int
    errors: int
    shed: int
    timeouts: int
    degraded: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    elapsed_s: float
    achieved_rps: float
    tenants: dict[str, TenantSlice] = field(default_factory=dict)
    #: Optional ride-along campaign summary (``repro loadtest
    #: --sessions``): completed evaluations + fairness, or ``None``.
    sessions: dict | None = None

    # ------------------------------------------------------------------ #
    @property
    def completed(self) -> int:
        """Requests that received *some* answer (live or degraded)."""
        return self.ok + self.degraded

    @property
    def goodput(self) -> float:
        """Fraction of offered requests answered live and un-degraded."""
        return self.ok / self.offered if self.offered else 1.0

    @property
    def error_rate(self) -> float:
        return (
            (self.errors + self.timeouts) / self.offered
            if self.offered
            else 0.0
        )

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def degraded_rate(self) -> float:
        return self.degraded / self.offered if self.offered else 0.0

    # ------------------------------------------------------------------ #
    def check(self, policy: SLOPolicy) -> list[SLOViolation]:
        """Evaluate this report against ``policy`` (empty list = pass)."""
        violations: list[SLOViolation] = []

        def over(name: str, actual: float, limit: float | None) -> None:
            if limit is not None and actual > limit:
                violations.append(SLOViolation(name, limit, actual))

        over("p50_ms", self.p50_ms, policy.max_p50_ms)
        over("p95_ms", self.p95_ms, policy.max_p95_ms)
        over("p99_ms", self.p99_ms, policy.max_p99_ms)
        if self.goodput < policy.min_goodput:
            violations.append(
                SLOViolation("goodput", policy.min_goodput, self.goodput)
            )
        over("error_rate", self.error_rate, policy.max_error_rate)
        over("shed_rate", self.shed_rate, policy.max_shed_rate)
        over("degraded_rate", self.degraded_rate, policy.max_degraded_rate)
        return violations

    # ------------------------------------------------------------------ #
    def deterministic_payload(self) -> dict:
        """The seed-determined slice: spec, digests, and outcome counts
        (all wall-clock-derived fields dropped, including per-tenant
        latency quantiles)."""
        return {
            "mode": self.mode,
            "arrival": self.arrival,
            "rps": self.rps,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "schedule_digest": self.schedule_digest,
            "workload_digest": self.workload_digest,
            "outcomes": {
                "offered": self.offered,
                "ok": self.ok,
                "errors": self.errors,
                "shed": self.shed,
                "timeouts": self.timeouts,
                "degraded": self.degraded,
            },
            "goodput": self.goodput,
            "tenants": {
                tenant: slice_.counts()
                for tenant, slice_ in sorted(self.tenants.items())
            },
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, trailing newline) for
        ``--report-json`` and the bench report-source mechanism."""
        payload = self.deterministic_payload()
        payload["latency_ms"] = {
            "p50": self.p50_ms,
            "p95": self.p95_ms,
            "p99": self.p99_ms,
            "mean": self.mean_ms,
            "max": self.max_ms,
        }
        payload["measured"] = {
            "elapsed_s": self.elapsed_s,
            "achieved_rps": self.achieved_rps,
        }
        payload["tenant_latency_ms"] = {
            tenant: {
                "p50": s.p50_ms, "p95": s.p95_ms, "p99": s.p99_ms,
            }
            for tenant, s in sorted(self.tenants.items())
        }
        payload["sessions"] = self.sessions
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def with_sessions(self, summary: dict) -> "SLOReport":
        return replace(self, sessions=dict(summary))

    def render(self, title: str = "load test") -> str:
        """ASCII report body (the ``repro loadtest`` stdout)."""
        t = Table(["metric", "value"], title=title)
        t.add_row(["mode / arrival", f"{self.mode} / {self.arrival}"])
        t.add_row(["target rate", f"{self.rps:g} req/s"])
        t.add_row(["duration", f"{self.duration_s:g} s"])
        t.add_row(["offered", self.offered])
        t.add_row(["ok", self.ok])
        t.add_row(["degraded", self.degraded])
        t.add_row(["shed (overload)", self.shed])
        t.add_row(["errors", self.errors])
        t.add_row(["timeouts", self.timeouts])
        t.add_row(["goodput", f"{self.goodput:.2%}"])
        t.add_row(["p50 latency", f"{self.p50_ms:.2f} ms"])
        t.add_row(["p95 latency", f"{self.p95_ms:.2f} ms"])
        t.add_row(["p99 latency", f"{self.p99_ms:.2f} ms"])
        t.add_row(["achieved rate", f"{self.achieved_rps:.1f} req/s"])
        t.add_row(["schedule digest", self.schedule_digest])
        t.add_row(["workload digest", self.workload_digest])
        lines = [t.render()]
        if self.tenants:
            tt = Table(
                ["tenant", "offered", "ok", "shed", "err", "p95 ms"],
                title="per-tenant breakdown",
            )
            for tenant, s in sorted(self.tenants.items()):
                tt.add_row([
                    tenant, s.offered, s.ok, s.shed,
                    s.errors + s.timeouts, round(s.p95_ms, 2),
                ])
            lines.append("")
            lines.append(tt.render())
        if self.sessions is not None:
            lines.append("")
            lines.append(
                f"sessions: {self.sessions.get('completed', 0)} evaluations "
                f"across {self.sessions.get('n_sessions', 0)} campaigns, "
                f"fairness (Jain) {self.sessions.get('fairness_jain', 1.0):.3f}"
            )
        return "\n".join(lines)

    @classmethod
    def from_json(cls, text: str) -> "SLOReport":
        """Rebuild a report from :meth:`to_json` output."""
        obj = json.loads(text)
        out = obj["outcomes"]
        lat = obj["latency_ms"]
        tenants = {}
        for tenant, counts in obj.get("tenants", {}).items():
            tlat = obj.get("tenant_latency_ms", {}).get(tenant, {})
            tenants[tenant] = TenantSlice(
                p50_ms=float(tlat.get("p50", 0.0)),
                p95_ms=float(tlat.get("p95", 0.0)),
                p99_ms=float(tlat.get("p99", 0.0)),
                **{k: int(v) for k, v in counts.items()},
            )
        return cls(
            mode=obj["mode"],
            arrival=obj["arrival"],
            rps=float(obj["rps"]),
            duration_s=float(obj["duration_s"]),
            seed=int(obj["seed"]),
            schedule_digest=obj["schedule_digest"],
            workload_digest=obj["workload_digest"],
            offered=int(out["offered"]),
            ok=int(out["ok"]),
            errors=int(out["errors"]),
            shed=int(out["shed"]),
            timeouts=int(out["timeouts"]),
            degraded=int(out["degraded"]),
            p50_ms=float(lat["p50"]),
            p95_ms=float(lat["p95"]),
            p99_ms=float(lat["p99"]),
            mean_ms=float(lat["mean"]),
            max_ms=float(lat["max"]),
            elapsed_s=float(obj["measured"]["elapsed_s"]),
            achieved_rps=float(obj["measured"]["achieved_rps"]),
            tenants=tenants,
            sessions=obj.get("sessions"),
        )
