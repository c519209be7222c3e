"""Chaos drill for sessions: campaign completion under the fault plan.

The resilience acceptance bar for the sessions layer (ISSUE 6): with the
default seeded :class:`~repro.faults.FaultPlan` injecting latency
spikes, transient worker errors, eviction storms, and queue stalls
underneath a :class:`~repro.serve.resilience.ResilientService`, the
session manager must complete **>= 99%** of every tenant's evaluation
budget, the journal must record each evaluation exactly once (no lost or
duplicated steps), and the recorded histories must be identical across
two runs — faults may shift *when* an evaluation lands, never *what* is
recorded, because the surrogate prediction is advisory and the ground
truth is measured.

This calls the library drill behind ``repro chaos --sessions``
(:func:`repro.drills.run_sessions_chaos`) so the benchmark and the
operator command cannot drift apart.

Run explicitly (deselected from tier-1 by the ``chaos`` marker):

    PYTHONPATH=src python -m pytest benchmarks/test_sessions_chaos.py -m chaos -s
"""

from __future__ import annotations

import pytest

from repro.drills import run_sessions_chaos
from repro.utils.tables import Table

pytestmark = pytest.mark.chaos

N_REQUESTS = 54  # -> 3 tenants x 9-evaluation budgets


def _drill(log_path):
    return run_sessions_chaos(
        log_path, requests=N_REQUESTS, seed=7, size="SM", max_attempts=4,
    )


def test_campaigns_complete_under_default_fault_plan(emit, tmp_path):
    histories, completion, problems, stats = _drill(
        tmp_path / "sessions-a.jsonl"
    )

    # -- acceptance: >= 99% campaign completion ------------------------- #
    assert completion >= 0.99, (
        f"campaign completion {completion:.2%} under the default fault "
        "plan is below the 99% acceptance bar"
    )

    # -- journal integrity: no lost or duplicated evaluations ----------- #
    assert not problems, f"event-log integrity: {problems[:3]}"

    # -- determinism: faults never change what is recorded -------------- #
    histories2, completion2, problems2, _ = _drill(
        tmp_path / "sessions-b.jsonl"
    )
    assert not problems2
    assert completion2 >= 0.99
    assert histories == histories2, (
        "recorded histories differ across two identical chaos runs"
    )

    n_evals = sum(len(indices) for indices, _ in histories.values())
    t = Table(
        ["metric", "value"],
        title=f"sessions chaos ({len(histories)} campaigns under "
        "DEFAULT_FAULT_PLAN)",
    )
    t.add_row(["campaign completion", f"{completion:.2%}"])
    t.add_row(["evaluations recorded", n_evals])
    t.add_row(["service availability", f"{stats.availability:.2%}"])
    t.add_row(["degraded responses", stats.n_degraded])
    t.add_row(["journal integrity problems", len(problems)])
    t.add_row(["deterministic across runs", "yes"])
    emit("sessions_chaos", t.render())
