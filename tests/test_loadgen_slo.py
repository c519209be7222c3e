"""SLO policy gating, goodput accounting, report round-trips."""

from __future__ import annotations

import pytest

from repro.errors import LoadgenError
from repro.loadgen import (
    DEFAULT_SLO,
    SLOPolicy,
    SLOReport,
    TenantSlice,
)


def _report(**overrides) -> SLOReport:
    base = dict(
        mode="open",
        arrival="poisson",
        rps=100.0,
        duration_s=1.0,
        seed=7,
        schedule_digest="a" * 24,
        workload_digest="b" * 24,
        offered=100,
        ok=100,
        errors=0,
        shed=0,
        timeouts=0,
        degraded=0,
        p50_ms=5.0,
        p95_ms=20.0,
        p99_ms=40.0,
        mean_ms=8.0,
        max_ms=50.0,
        elapsed_s=1.01,
        achieved_rps=99.0,
        tenants={},
    )
    base.update(overrides)
    return SLOReport(**base)


class TestGoodputAccounting:
    def test_degraded_and_shed_do_not_count_as_goodput(self):
        r = _report(
            offered=100, ok=90, shed=4, degraded=3, errors=2, timeouts=1
        )
        assert r.goodput == pytest.approx(0.90)
        assert r.completed == 93
        assert r.error_rate == pytest.approx(0.03)
        assert r.shed_rate == pytest.approx(0.04)
        assert r.degraded_rate == pytest.approx(0.03)

    def test_empty_offered_is_vacuously_conformant(self):
        r = _report(offered=0, ok=0)
        assert r.goodput == 1.0
        assert r.error_rate == 0.0
        assert r.check(DEFAULT_SLO) == []


class TestSLOPolicy:
    def test_default_passes_healthy_report(self):
        assert _report().check(DEFAULT_SLO) == []

    def test_each_threshold_fires(self):
        policy = SLOPolicy()
        cases = {
            "p50_ms": _report(p50_ms=60.0),
            "p95_ms": _report(p95_ms=600.0),
            "p99_ms": _report(p99_ms=2500.0),
            "goodput": _report(ok=50, shed=50),
            "error_rate": _report(ok=99, errors=1),
            "shed_rate": _report(ok=97, shed=3),
            "degraded_rate": _report(ok=90, degraded=10),
        }
        for name, report in cases.items():
            names = [v.name for v in report.check(policy)]
            assert name in names, (name, names)

    def test_none_ceiling_ungates_latency(self):
        lax = SLOPolicy(max_p50_ms=None, max_p95_ms=None, max_p99_ms=None)
        assert _report(p50_ms=1e6, p95_ms=1e6, p99_ms=1e6).check(lax) == []

    def test_json_round_trip_and_unknown_fields(self):
        policy = SLOPolicy(min_goodput=0.9, max_shed_rate=0.1)
        assert SLOPolicy.from_json(policy.to_json()) == policy
        with pytest.raises(LoadgenError):
            SLOPolicy.from_json({"max_p42_ms": 1.0})

    def test_from_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text('{"min_goodput": 0.5}')
        assert SLOPolicy.from_file(path).min_goodput == 0.5
        with pytest.raises(LoadgenError):
            SLOPolicy.from_file(tmp_path / "missing.json")

    def test_invalid_thresholds(self):
        with pytest.raises(LoadgenError):
            SLOPolicy(max_p50_ms=0.0)
        with pytest.raises(LoadgenError):
            SLOPolicy(min_goodput=1.5)


class TestSLOReport:
    def test_json_round_trip_is_exact(self):
        r = _report(
            tenants={
                "tenant-0": TenantSlice(
                    offered=50, ok=48, errors=1, shed=1, timeouts=0,
                    degraded=0, p50_ms=4.0, p95_ms=18.0, p99_ms=30.0,
                ),
            },
            sessions={"n_sessions": 2, "completed": 10, "fairness_jain": 1.0},
        )
        assert SLOReport.from_json(r.to_json()).to_json() == r.to_json()

    def test_deterministic_payload_excludes_wall_clock(self):
        a = _report(elapsed_s=1.0, achieved_rps=100.0, p95_ms=10.0)
        b = _report(elapsed_s=9.9, achieved_rps=11.0, p95_ms=999.0)
        assert a.deterministic_payload() == b.deterministic_payload()

    def test_render_mentions_the_verdict_inputs(self):
        text = _report().render()
        for needle in ("goodput", "p95", "schedule digest", "workload digest"):
            assert needle in text
