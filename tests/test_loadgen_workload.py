"""Workload-mix determinism, skew, and attribution pins."""

from __future__ import annotations

import collections

import pytest

from repro.errors import LoadgenError
from repro.loadgen import WorkloadMix, build_workload, workload_digest


MIX = WorkloadMix(n_unique=6, n_tenants=3, seed_lanes=2)


def test_bit_identical_across_builds():
    a = build_workload(MIX, 200, seed=7)
    b = build_workload(MIX, 200, seed=7)
    assert workload_digest(a) == workload_digest(b)
    assert [i.request.seed for i in a] == [i.request.seed for i in b]


def test_requests_decline_evidence():
    """A load run reads only values and statuses."""
    assert not any(i.request.evidence for i in build_workload(MIX, 50, seed=7))


def test_seed_sensitivity():
    a = build_workload(MIX, 100, seed=7)
    b = build_workload(MIX, 100, seed=8)
    assert workload_digest(a) != workload_digest(b)


def test_zipf_skew_orders_prompt_popularity():
    items = build_workload(MIX, 2000, seed=3)
    counts = collections.Counter(i.prompt_index for i in items)
    # Rank 0 is the hot head; the tail prompt is markedly colder.
    assert counts[0] > counts[MIX.n_unique - 1] * 2


def test_uniform_when_skew_zero():
    flat = WorkloadMix(n_unique=4, skew=0.0, n_tenants=1, seed_lanes=1)
    items = build_workload(flat, 4000, seed=5)
    counts = collections.Counter(i.prompt_index for i in items)
    assert max(counts.values()) < 1.5 * min(counts.values())


def test_same_prompt_index_shares_prompt_key():
    items = build_workload(MIX, 300, seed=11)
    keys = {}
    for item in items:
        keys.setdefault(item.prompt_index, set()).add(item.request.prompt_key)
    assert all(len(k) == 1 for k in keys.values())
    assert len({next(iter(k)) for k in keys.values()}) == len(keys)


def test_seed_lanes_bound_distinct_request_seeds():
    items = build_workload(MIX, 500, seed=13)
    per_prompt = {}
    for item in items:
        per_prompt.setdefault(item.prompt_index, set()).add(item.request.seed)
    assert all(len(s) <= MIX.seed_lanes for s in per_prompt.values())


def test_tenant_attribution_in_range_and_deterministic():
    items = build_workload(MIX, 150, seed=17)
    tenants = {i.tenant for i in items}
    assert tenants <= {f"tenant-{t}" for t in range(MIX.n_tenants)}
    again = build_workload(MIX, 150, seed=17)
    assert [i.tenant for i in items] == [i.tenant for i in again]


def test_timeout_stamped_on_requests():
    mix = WorkloadMix(n_unique=2, n_tenants=1, seed_lanes=1, timeout_s=1.5)
    items = build_workload(mix, 10, seed=1)
    assert all(i.request.timeout_s == 1.5 for i in items)


def test_empty_workload():
    assert build_workload(MIX, 0, seed=1) == []
    with pytest.raises(LoadgenError):
        build_workload(MIX, -1, seed=1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"size": "nope"},
        {"n_unique": 0},
        {"n_tenants": 0},
        {"seed_lanes": 0},
        {"skew": -0.1},
        {"timeout_s": 0.0},
    ],
)
def test_invalid_mix_rejected(kwargs):
    with pytest.raises(LoadgenError):
        WorkloadMix(**kwargs)
