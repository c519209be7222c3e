"""Prefix-reuse speedup: a grid-style sweep must run >=2x faster warm.

The workload mirrors what :func:`repro.core.runner.run_grid` produces: a
block of queries sharing one long ICL prefix (30 examples), each scored
under several sampling seeds.  The warm configuration decodes through the
prepared-prefix snapshot and decodes each query's seeds in one lockstep
batch; the cold configuration is the pre-reuse path (``prefix_cache=False``,
one ``predict_parts`` — a group of one — per seed).  Predictions must be identical between the
two — the speedup may not cost a single bit.

Run explicitly (deselected from tier-1 by the ``slow`` marker):

    PYTHONPATH=src python -m pytest benchmarks/test_llm_prefix_cache.py -m slow -s
"""

from __future__ import annotations

import pytest

from repro.core.surrogate import DiscriminativeSurrogate
from repro.dataset import Syr2kTask, generate_dataset
from repro.dataset.splits import disjoint_example_sets
from repro.llm.prefix_cache import DECODE_STATES
from repro.utils.tables import Table
from repro.utils.timing import Timer

pytestmark = pytest.mark.slow

N_ICL = 30
N_QUERIES = 16
SEEDS = tuple(range(5))


def _workload():
    dataset = generate_dataset("SM")
    sets, queries = disjoint_example_sets(
        dataset, 1, N_ICL, seed=3, n_queries=N_QUERIES
    )
    examples = [
        (dataset.config(int(r)), float(dataset.runtimes[int(r)]))
        for r in sets[0]
    ]
    query_configs = [dataset.config(int(q)) for q in queries]
    return examples, query_configs


def _sweep(surrogate: DiscriminativeSurrogate, examples, query_configs,
           batched: bool):
    """One grid sweep; returns (predictions keyed by (query, seed), secs)."""
    preds = {}
    with Timer() as timer:
        for qi, query_config in enumerate(query_configs):
            parts = surrogate.build_parts(examples, query_config)
            if batched:
                for pred in surrogate.predict_parts_batch(parts, list(SEEDS)):
                    preds[(qi, pred.seed)] = pred
            else:
                for seed in SEEDS:
                    preds[(qi, seed)] = surrogate.predict_parts(
                        parts, seed=seed
                    )
    return preds, timer.elapsed


def test_prefix_reuse_doubles_sweep_throughput(emit):
    examples, query_configs = _workload()
    warm = DiscriminativeSurrogate(Syr2kTask("SM"), prefix_cache=True)
    cold = DiscriminativeSurrogate(Syr2kTask("SM"), prefix_cache=False)

    # One untimed pass each: populates the prefix cache and warms numpy
    # internals so the timing compares steady states.
    _sweep(warm, examples, query_configs[:2], batched=True)
    _sweep(cold, examples, query_configs[:2], batched=False)

    warm_secs = cold_secs = float("inf")
    warm_preds = cold_preds = None
    # Best of 5 interleaved warm/cold sweeps per configuration: a single
    # ~0.3 s warm sweep is short enough for host noise to rank it, and
    # interleaving exposes both configurations to the same load.
    for _ in range(5):
        # Each timed warm sweep starts from an empty decode-state cache:
        # otherwise it would replay the previous identical sweep's decode
        # states and time the replay, not the sweep.
        DECODE_STATES.clear()
        preds, secs = _sweep(warm, examples, query_configs, batched=True)
        if secs < warm_secs:
            warm_preds, warm_secs = preds, secs
        preds, secs = _sweep(cold, examples, query_configs, batched=False)
        if secs < cold_secs:
            cold_preds, cold_secs = preds, secs

    # Identical predictions, key by key: the determinism contract.
    assert warm_preds.keys() == cold_preds.keys()
    for key, wp in warm_preds.items():
        cp = cold_preds[key]
        assert wp.generated_text == cp.generated_text, key
        assert wp.value == cp.value, key
        assert wp.value_text == cp.value_text, key

    # The warm path actually exercised the snapshot cache.
    assert warm.prefix_cache.hits > 0

    n = len(query_configs) * len(SEEDS)
    speedup = cold_secs / warm_secs
    t = Table(
        ["config", "probes/s", "total (s)"],
        title=f"prefix-cache sweep ({N_QUERIES} queries x {len(SEEDS)} "
        f"seeds, {N_ICL} ICL examples)",
    )
    t.add_row(["prefix cache on", round(n / warm_secs, 1),
               round(warm_secs, 2)])
    t.add_row(["prefix cache off", round(n / cold_secs, 1),
               round(cold_secs, 2)])
    emit("llm_prefix_cache", t.render() + f"\nspeedup: {speedup:.2f}x")

    assert speedup >= 2.0, (
        f"prefix-reuse speedup {speedup:.2f}x below the 2x acceptance bar "
        f"({warm_secs:.2f}s warm vs {cold_secs:.2f}s cold)"
    )
