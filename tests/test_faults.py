"""Tests for :mod:`repro.faults`: deterministic, seedable fault injection.

The load-bearing property is purity: every fault decision is a function
of ``(plan seed, site, key)`` alone, which is what makes chaos drills
bit-reproducible instead of flaky.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InjectedFaultError
from repro.faults import (
    DEFAULT_FAULT_PLAN, FAULT_KINDS, FaultInjector, FaultPlan, fault_counts,
    render_fault_counts,
)
from repro.obs import MetricsRegistry
from repro.serve.cache import MISS, LRUCache


class TestFaultPlanValidation:
    @pytest.mark.parametrize("field", [
        "transient_error_rate", "latency_spike_rate", "eviction_storm_rate",
        "queue_stall_rate", "cell_error_rate",
    ])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ValueError):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ValueError):
            FaultPlan(**{field: -0.1})

    @pytest.mark.parametrize("field", ["latency_spike_s", "queue_stall_s"])
    def test_durations_must_be_nonnegative(self, field):
        with pytest.raises(ValueError):
            FaultPlan(**{field: -0.01})

    def test_active_flag(self):
        assert not FaultPlan().active
        assert FaultPlan(transient_error_rate=0.1).active
        assert DEFAULT_FAULT_PLAN.active


class TestFaultPlanDeterminism:
    def test_decisions_are_pure(self):
        a = FaultPlan(seed=11, transient_error_rate=0.5)
        b = FaultPlan(seed=11, transient_error_rate=0.5)
        assert [a.transient_error(k) for k in range(200)] == [
            b.transient_error(k) for k in range(200)
        ]

    def test_seed_changes_decisions(self):
        a = FaultPlan(seed=1, transient_error_rate=0.5)
        b = FaultPlan(seed=2, transient_error_rate=0.5)
        assert [a.transient_error(k) for k in range(200)] != [
            b.transient_error(k) for k in range(200)
        ]

    def test_sites_are_independent(self):
        plan = FaultPlan(
            seed=5, transient_error_rate=0.5, latency_spike_rate=0.5
        )
        errors = [plan.transient_error(k) for k in range(200)]
        spikes = [plan.latency_spike(k) > 0 for k in range(200)]
        assert errors != spikes

    def test_rate_extremes(self):
        never = FaultPlan(seed=1)
        always = FaultPlan(
            seed=1, transient_error_rate=1.0, latency_spike_rate=1.0,
            eviction_storm_rate=1.0, queue_stall_rate=1.0,
            cell_error_rate=1.0,
        )
        for key in range(50):
            assert not never.transient_error(key)
            assert never.latency_spike(key) == 0.0
            assert never.queue_stall(key) == 0.0
            assert always.transient_error(key)
            assert always.latency_spike(key) == always.latency_spike_s
            assert always.eviction_storm(key)
            assert always.queue_stall(key) == always.queue_stall_s
            assert always.cell_fault(key)

    def test_empirical_rate_matches_nominal(self):
        plan = FaultPlan(seed=9, transient_error_rate=0.3)
        hits = sum(plan.transient_error(k) for k in range(4000))
        assert 0.25 < hits / 4000 < 0.35


class TestFaultInjector:
    def test_transient_error_raises_and_counts(self):
        injector = FaultInjector(FaultPlan(seed=1, transient_error_rate=1.0))
        with pytest.raises(InjectedFaultError) as excinfo:
            injector.before_request(7)
        assert excinfo.value.site == "serve"
        assert excinfo.value.key == 7
        assert fault_counts(injector.registry)["transient_errors"] == 1

    def test_eviction_storm_clears_caches(self):
        cache = LRUCache(8)
        cache.put("k", "v")
        injector = FaultInjector(FaultPlan(seed=1, eviction_storm_rate=1.0))
        injector.before_request(0, caches=(cache, None))
        assert cache.peek("k") is MISS
        assert fault_counts(injector.registry)["evictions"] == 1

    def test_latency_spike_sleeps(self):
        slept = []
        injector = FaultInjector(
            FaultPlan(seed=1, latency_spike_rate=1.0, latency_spike_s=0.25),
            sleep=slept.append,
        )
        injector.before_request(0)
        assert slept == [0.25]
        assert fault_counts(injector.registry)["latency_spikes"] == 1

    def test_queue_stall_sleeps(self):
        slept = []
        injector = FaultInjector(
            FaultPlan(seed=1, queue_stall_rate=1.0, queue_stall_s=0.125),
            sleep=slept.append,
        )
        injector.before_flush(1)
        assert slept == [0.125]
        assert fault_counts(injector.registry)["stalls"] == 1

    def test_cell_fault_raises(self):
        """Grid-cell faults are the plan's decision, which ``run_spec``
        asks before running any probe (uncounted; the checkpoint/resume
        tests crash whole grids on it)."""
        from repro.core import quick_grid, run_spec

        spec = quick_grid(sizes=("SM",), icl_counts=(1,), n_sets=1,
                          seeds=(1,), selections=("random",))[0]
        assert FaultPlan(seed=1, cell_error_rate=1.0).cell_fault(spec.cell_key)
        assert not FaultPlan(seed=1).cell_fault(spec.cell_key)
        with pytest.raises(InjectedFaultError) as excinfo:
            run_spec(spec, fault_plan=FaultPlan(seed=1, cell_error_rate=1.0))
        assert excinfo.value.site == "run_spec"
        assert excinfo.value.key == spec.cell_key

    def test_quiet_plan_is_a_no_op(self):
        injector = FaultInjector(FaultPlan(seed=1))
        injector.before_request(0)
        injector.before_flush(0)
        assert not injector.before_dispatch(0)
        assert injector.on_telemetry_sample(0) == "keep"
        assert sum(fault_counts(injector.registry).values()) == 0

    def test_counts_into_the_given_registry(self):
        registry = MetricsRegistry()
        injector = FaultInjector(
            FaultPlan(seed=1, shard_kill_rate=1.0), registry=registry
        )
        assert injector.registry is registry
        assert injector.before_dispatch(3)
        snap = registry.snapshot()
        assert snap["faults.injected{kind=shard_kills}"] == 1
        # Every kind is bound up front, so a quiet kind reads 0.
        assert snap["faults.injected{kind=stalls}"] == 0
        assert fault_counts(MetricsRegistry()) == dict.fromkeys(FAULT_KINDS, 0)

    def test_stats_render(self):
        injector = FaultInjector(FaultPlan(seed=1, transient_error_rate=1.0))
        with pytest.raises(InjectedFaultError):
            injector.before_request(0)
        out = render_fault_counts(fault_counts(injector.registry))
        assert "transient worker errors" in out
        assert "queue stalls" in out
        assert "grid-cell faults" not in out


class TestDiskFaults:
    """FaultyFile: torn writes, bitflips-after-ack, ENOSPC, fsync failure."""

    @pytest.mark.parametrize("field", [
        "torn_write_rate", "bitflip_rate", "enospc_rate", "fsync_fail_rate",
    ])
    def test_disk_rates_must_be_probabilities(self, field):
        with pytest.raises(ValueError):
            FaultPlan(**{field: 1.5})

    def test_disk_active_is_disk_specific(self):
        from repro.faults import DISK_FAULT_PLAN

        assert DISK_FAULT_PLAN.disk_active
        assert DISK_FAULT_PLAN.active
        assert not DEFAULT_FAULT_PLAN.disk_active
        assert not FaultPlan(seed=1, transient_error_rate=0.5).disk_active

    def test_wrap_file_passthrough_without_disk_faults(self, tmp_path):
        injector = FaultInjector(DEFAULT_FAULT_PLAN)
        with (tmp_path / "f.txt").open("w") as fh:
            assert injector.wrap_file(fh, "site", "f.txt") is fh

    def test_torn_write_lands_prefix_then_raises(self, tmp_path):
        injector = FaultInjector(FaultPlan(seed=3, torn_write_rate=1.0))
        path = tmp_path / "f.txt"
        with path.open("w") as fh:
            wrapped = injector.wrap_file(fh, "site", "f.txt")
            with pytest.raises(InjectedFaultError):
                wrapped.write("0123456789\n")
        text = path.read_text()
        assert "0123456789\n".startswith(text)
        assert len(text) < 11  # a strict prefix: the write really tore
        assert fault_counts(injector.registry)["torn_writes"] == 1

    def test_enospc_lands_nothing(self, tmp_path):
        import errno

        injector = FaultInjector(FaultPlan(seed=3, enospc_rate=1.0))
        path = tmp_path / "f.txt"
        with path.open("w") as fh:
            wrapped = injector.wrap_file(fh, "site", "f.txt")
            with pytest.raises(OSError) as err:
                wrapped.write("payload\n")
        assert err.value.errno == errno.ENOSPC
        assert path.read_text() == ""
        assert fault_counts(injector.registry)["enospc"] == 1

    def test_bitflip_corrupts_one_char_but_write_succeeds(self, tmp_path):
        injector = FaultInjector(FaultPlan(seed=3, bitflip_rate=1.0))
        path = tmp_path / "f.txt"
        payload = "abcdefghij\n"
        with path.open("w") as fh:
            wrapped = injector.wrap_file(fh, "site", "f.txt")
            wrapped.write(payload)  # no exception: fault is silent
        text = path.read_text()
        assert len(text) == len(payload)
        diffs = [i for i, (a, b) in enumerate(zip(payload, text)) if a != b]
        assert len(diffs) == 1
        assert "\n" not in text[:-1]  # never splits the record
        assert fault_counts(injector.registry)["bitflips"] == 1

    def test_fsync_failure_raises_eio(self, tmp_path):
        import errno

        injector = FaultInjector(FaultPlan(seed=3, fsync_fail_rate=1.0))
        with (tmp_path / "f.txt").open("w") as fh:
            wrapped = injector.wrap_file(fh, "site", "f.txt")
            wrapped.write("safe\n")
            with pytest.raises(OSError) as err:
                wrapped.fsync()
        assert err.value.errno == errno.EIO
        assert fault_counts(injector.registry)["fsync_failures"] == 1

    def test_fsync_passes_through_when_quiet(self, tmp_path):
        injector = FaultInjector(FaultPlan(seed=3, torn_write_rate=0.001))
        path = tmp_path / "f.txt"
        with path.open("w") as fh:
            wrapped = injector.wrap_file(fh, "site", "f.txt")
            wrapped.write("durable\n")
            wrapped.flush()
            wrapped.fsync()
        assert path.read_text() == "durable\n"

    def test_disk_fault_sequence_is_deterministic(self, tmp_path):
        """Same plan + same write sequence -> identical fault schedule."""
        def run():
            injector = FaultInjector(FaultPlan(
                seed=7, torn_write_rate=0.3, bitflip_rate=0.3,
                enospc_rate=0.1,
            ))
            path = tmp_path / "det.txt"
            outcomes = []
            with path.open("w") as fh:
                wrapped = injector.wrap_file(fh, "site", "det.txt")
                for i in range(30):
                    try:
                        wrapped.write(f"record-{i:04d}\n")
                        outcomes.append("ok")
                    except InjectedFaultError:
                        outcomes.append("torn")
                    except OSError:
                        outcomes.append("enospc")
            path.unlink()
            return outcomes, fault_counts(injector.registry)

        assert run() == run()

    def test_default_plan_unchanged_by_disk_fields(self):
        """DEFAULT_FAULT_PLAN keeps its pre-disk-fault decisions: the
        chaos availability baselines must not shift."""
        assert DEFAULT_FAULT_PLAN.torn_write_rate == 0.0
        assert DEFAULT_FAULT_PLAN.seed == 20250806
        assert DEFAULT_FAULT_PLAN.transient_error(("probe", 3)) == FaultPlan(
            seed=20250806, transient_error_rate=0.08
        ).transient_error(("probe", 3))


class TestCountsMatchDecisions:
    """Every hook counts exactly the faults its plan decided."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        rates=st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]),
                       min_size=10, max_size=10),
        keys=st.lists(st.integers(-50, 10_000), max_size=30),
    )
    def test_counts_equal_pure_decisions(self, tmp_path_factory, seed,
                                         rates, keys):
        import errno

        plan = FaultPlan(
            seed=seed,
            transient_error_rate=rates[0], latency_spike_rate=rates[1],
            eviction_storm_rate=rates[2], queue_stall_rate=rates[3],
            shard_kill_rate=rates[4], telemetry_drop_rate=rates[5],
            telemetry_dup_rate=rates[6], torn_write_rate=rates[7],
            bitflip_rate=rates[8], enospc_rate=rates[9],
        )
        injector = FaultInjector(plan, sleep=lambda s: None)
        expected = dict.fromkeys(FAULT_KINDS, 0)
        for key in keys:
            expected["evictions"] += plan.eviction_storm(key)
            expected["latency_spikes"] += plan.latency_spike(key) > 0
            expected["transient_errors"] += plan.transient_error(key)
            try:
                injector.before_request(key, caches=(LRUCache(2),))
            except InjectedFaultError:
                pass
            expected["stalls"] += plan.queue_stall(key) > 0
            injector.before_flush(key)
            expected["shard_kills"] += plan.shard_kill(key)
            injector.before_dispatch(key)
            drop = plan.telemetry_drop(key)
            expected["telemetry_drops"] += drop
            expected["telemetry_dups"] += not drop and plan.telemetry_dup(key)
            injector.on_telemetry_sample(key)

        # Storage writes, keyed on (name, site, op, byte position).
        path = tmp_path_factory.mktemp("writes") / "f.txt"
        with path.open("w") as fh:
            wrapped = injector.wrap_file(fh, "site", "f.txt")
            for key in keys:
                data = f"record-{key}\n"
                wkey = f"f.txt:site:write:{fh.tell()}"
                if plan.enospc(wkey):
                    expected["enospc"] += 1
                elif plan.torn_write(wkey):
                    expected["torn_writes"] += 1
                elif plan.bitflip(wkey):
                    expected["bitflips"] += 1
                try:
                    wrapped.write(data)
                except InjectedFaultError:
                    pass
                except OSError as exc:
                    assert exc.errno == errno.ENOSPC

        assert fault_counts(injector.registry) == expected
