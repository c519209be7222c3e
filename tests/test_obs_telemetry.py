"""Tests for :mod:`repro.obs.telemetry`: sampler, alerts, timeline I/O.

Pins the contracts the chaos drill and the nightly soak lean on: the
payload ``seq`` proves completeness independent of the storage framing,
injected drops/dups are detected on reload, burn-rate alerts fire on the
rising edge only, and the liveness metric (:func:`max_sample_gap_s`)
charges sampler stalls but not injector-dropped exports.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, fault_counts
from repro.obs import (
    BurnRatePolicy,
    TelemetrySampler,
    deterministic_fields,
    load_telemetry,
    max_sample_gap_s,
)


def _counting_collector(values):
    """A collector replaying scripted (error, total) pairs per scrape."""
    it = iter(values)

    def collect(registry):
        err, total = next(it)
        registry.counter("resilience.unavailable").set_absolute(err)
        registry.counter(
            "serve.requests", event="submitted"
        ).set_absolute(total)

    return collect


class TestSampler:
    def test_manual_samples_are_sequenced(self):
        sampler = TelemetrySampler(1.0)
        sampler.add_collector(
            "const", lambda reg: reg.gauge("x").set(1.0)
        )
        first = sampler.sample()
        second = sampler.sample()
        assert first["seq"] == 0 and second["seq"] == 1
        assert first["metrics"]["x"] == 1.0
        assert first["t_mono"] <= second["t_mono"]

    def test_ring_capacity_drops_oldest(self):
        sampler = TelemetrySampler(1.0, capacity=3)
        for _ in range(5):
            sampler.sample()
        records = sampler.records()
        assert len(records) == 3
        assert [r["seq"] for r in records] == [2, 3, 4]

    def test_sick_collector_is_counted_not_fatal(self):
        sampler = TelemetrySampler(1.0)

        def sick(registry):
            raise RuntimeError("scrape failed")

        sampler.add_collector("sick", sick)
        sampler.add_collector("ok", lambda reg: reg.gauge("x").set(2.0))
        record = sampler.sample()
        assert record["metrics"]["x"] == 2.0
        assert sampler.scrape_errors == 1

    def test_background_thread_samples_on_cadence(self):
        import time

        sampler = TelemetrySampler(0.02)
        sampler.add_collector("t", lambda reg: reg.gauge("x").set(1.0))
        with sampler:
            time.sleep(0.12)
        records = sampler.records()
        # start + ~6 periodic + final; generous bounds for CI jitter.
        assert 3 <= len(records) <= 12
        assert max_sample_gap_s(records) < 0.5

    def test_stop_is_idempotent(self):
        sampler = TelemetrySampler(0.02)
        sampler.start()
        sampler.stop(final_sample=True)
        before = len(sampler.records())
        sampler.stop(final_sample=False)
        assert len(sampler.records()) == before

    def test_interval_and_capacity_validation(self):
        with pytest.raises(ValueError, match="interval_s"):
            TelemetrySampler(0.0)
        with pytest.raises(ValueError, match="capacity"):
            TelemetrySampler(1.0, capacity=1)


class TestBurnRateAlerts:
    def test_alert_on_rising_edge_only(self):
        # Error rate jumps from 0 to 50% against a 1% objective: both
        # windows burn hot from the second sample on, but only the
        # transition emits an alert record.
        sampler = TelemetrySampler(1.0, policy=BurnRatePolicy())
        sampler.add_collector(
            "slo",
            _counting_collector(
                [(0, 100), (50, 200), (100, 300), (150, 400)]
            ),
        )
        for _ in range(4):
            sampler.sample()
        records = sampler.records()
        alerts = [r for r in records if r["type"] == "alert"]
        assert len(alerts) == 1
        assert alerts[0]["alert"] == "slo-burn"
        assert alerts[0]["short_burn"] > 2.0
        assert alerts[0]["long_burn"] > 2.0

    def test_no_alert_within_budget(self):
        sampler = TelemetrySampler(1.0, policy=BurnRatePolicy())
        sampler.add_collector(
            "slo", _counting_collector([(0, 100), (0, 200), (1, 400)])
        )
        for _ in range(3):
            sampler.sample()
        assert not [
            r for r in sampler.records() if r["type"] == "alert"
        ]

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="objective"):
            BurnRatePolicy(objective=0.0)
        with pytest.raises(ValueError, match="short_window_s"):
            BurnRatePolicy(short_window_s=10.0, long_window_s=5.0)
        with pytest.raises(ValueError, match="threshold"):
            BurnRatePolicy(threshold=0.0)


class TestInjectedFates:
    def _sampler(self, **rates):
        injector = FaultInjector(FaultPlan(seed=3, **rates))
        sampler = TelemetrySampler(1.0, injector=injector)
        sampler.add_collector("t", lambda reg: reg.gauge("x").set(1.0))
        return sampler, injector

    def test_drop_consumes_seq(self):
        sampler, injector = self._sampler(telemetry_drop_rate=0.3)
        results = [sampler.sample() for _ in range(20)]
        drops = sum(1 for r in results if r is None)
        assert drops == fault_counts(injector.registry)["telemetry_drops"] > 0
        seqs = [r["seq"] for r in sampler.records()]
        # Dropped seqs are holes, never reused.
        assert len(set(seqs)) == len(seqs) == 20 - drops

    def test_dup_records_twice(self):
        sampler, injector = self._sampler(telemetry_dup_rate=0.3)
        for _ in range(20):
            sampler.sample()
        dups = fault_counts(injector.registry)["telemetry_dups"]
        assert dups > 0
        assert len(sampler.records()) == 20 + dups

    def test_fates_follow_the_plan_seed(self):
        plan = FaultPlan(seed=5, telemetry_drop_rate=0.2,
                         telemetry_dup_rate=0.2)
        fates = [FaultInjector(plan).on_telemetry_sample(i)
                 for i in range(50)]
        again = [FaultInjector(plan).on_telemetry_sample(i)
                 for i in range(50)]
        assert fates == again
        assert {"drop", "dup", "keep"} >= set(fates)


class TestTimelineIO:
    def test_framed_round_trip_and_fsck(self, tmp_path):
        from repro.core.storage import verify_artifact

        sampler = TelemetrySampler(1.0, policy=BurnRatePolicy())
        sampler.add_collector(
            "slo", _counting_collector([(0, 100), (50, 200), (99, 300)])
        )
        for _ in range(3):
            sampler.sample()
        path = tmp_path / "telemetry.jsonl"
        n = sampler.export_jsonl(path)
        timeline = load_telemetry(path)
        assert len(timeline) == n
        assert timeline.report.n_samples == 3
        assert timeline.report.n_alerts == 1
        assert timeline.report.n_dropped == 0
        assert timeline.report.n_duplicates == 0
        report = verify_artifact(path)
        assert report.clean
        assert report.kind == "events:telemetry"

    def test_load_accounts_for_drops_and_dups(self, tmp_path):
        injector = FaultInjector(
            FaultPlan(seed=3, telemetry_drop_rate=0.25,
                      telemetry_dup_rate=0.25)
        )
        sampler = TelemetrySampler(1.0, injector=injector)
        sampler.add_collector("t", lambda reg: reg.gauge("x").set(1.0))
        for _ in range(30):
            sampler.sample()
        path = tmp_path / "lossy.jsonl"
        sampler.export_jsonl(path)
        timeline = load_telemetry(path)
        snap = fault_counts(injector.registry)
        assert timeline.report.n_duplicates == snap["telemetry_dups"] > 0
        # Range-based accounting cannot see a drop at the seq boundary,
        # so the detected count is a lower bound on the injected one.
        assert 0 < timeline.report.n_dropped <= snap["telemetry_drops"]
        seqs = [r["seq"] for r in timeline]
        assert seqs == sorted(set(seqs))


class TestLiveness:
    @staticmethod
    def _sample(seq, t):
        return {"type": "sample", "seq": seq, "t_mono": t, "metrics": {}}

    def test_plain_gap(self):
        records = [self._sample(0, 0.0), self._sample(1, 0.25),
                   self._sample(2, 0.8)]
        assert max_sample_gap_s(records) == pytest.approx(0.55)

    def test_injected_drop_normalizes_by_seq_distance(self):
        # seq 1 was dropped: 0.5s across two ticks is a healthy 0.25s/tick.
        records = [self._sample(0, 0.0), self._sample(2, 0.5),
                   self._sample(3, 0.75)]
        assert max_sample_gap_s(records) == pytest.approx(0.25)

    def test_alert_seqs_do_not_dilute_the_gap(self):
        # seq 1 is an alert (same instant as sample 0), not a sampler tick.
        records = [
            self._sample(0, 0.0),
            {"type": "alert", "seq": 1, "t_mono": 0.0},
            self._sample(2, 0.6),
        ]
        assert max_sample_gap_s(records) == pytest.approx(0.6)

    def test_duplicates_and_short_timelines(self):
        assert max_sample_gap_s([]) == 0.0
        assert max_sample_gap_s([self._sample(0, 0.0)]) == 0.0
        dup = [self._sample(0, 0.0), self._sample(0, 0.0),
               self._sample(1, 0.3)]
        assert max_sample_gap_s(dup) == pytest.approx(0.3)


class TestDeterministicFields:
    def test_selects_fault_and_resilience_keys_only(self):
        records = [{
            "type": "sample", "seq": 0, "t_mono": 0.0,
            "metrics": {
                "faults.injected{kind=shard_kills}": 2,
                "faults.injected{kind=telemetry_drops}": 3,
                "resilience.unavailable": 1,
                "resilience.availability": 0.97,
                "serve.requests{event=completed}": 41,
                "loadgen.goodput": 0.9,
            },
        }]
        fields = deterministic_fields(records)
        assert fields == {
            "faults.injected{kind=shard_kills}": 2,
            "resilience.unavailable": 1,
        }

    def test_empty_without_samples(self):
        assert deterministic_fields([]) == {}
        assert deterministic_fields(
            [{"type": "alert", "seq": 0, "t_mono": 0.0}]
        ) == {}
