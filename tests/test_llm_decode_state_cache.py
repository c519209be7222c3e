"""Decode-state reuse: bit identity, the byte budget, threads, metrics.

:class:`~repro.llm.prefix_cache.DecodeStateCache` shares the model's
seed-independent content pass between every request and seed that
reaches the same decode state (prompt plus generated tokens).  The hard
constraint is the prefix cache's: decoding through it is bit-identical
to the cold ``prefix=None`` decode, whatever the cache held before and
whatever it evicts on the way.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.surrogate import DiscriminativeSurrogate
from repro.llm import prefix_cache
from repro.llm.prefix_cache import DECODE_STATES, DecodeStateCache
from repro.obs import Tracer, use_tracer
from repro.serve import PredictionService, Request

from tests.test_llm_prefix_cache import (
    _PIECES,
    _assert_traces_identical,
    _examples,
)


@pytest.fixture(scope="module")
def prompts(sm_task, tokenizer, lm, engine, sm_dataset):
    """Four served-shape prompts over two ICL prefixes, with snapshots."""
    surrogate = DiscriminativeSurrogate(
        sm_task, tokenizer=tokenizer, model=lm, engine=engine
    )
    out = []
    for rows, query in ((range(6), 150), (range(6), 151),
                        (range(3, 9), 152), (range(3, 9), 153)):
        parts = surrogate.build_parts(
            _examples(sm_dataset, rows), sm_dataset.config(query)
        )
        out.append((parts.ids, surrogate.prepared_prefix(parts)))
    return out


def _generate_spans(tracer):
    return [s for s in tracer.spans() if s.name == "llm.generate"]


class TestBitIdentity:
    @settings(max_examples=20, deadline=None)
    @given(pieces=st.lists(_PIECES, min_size=3, max_size=20),
           warm_seeds=st.lists(st.integers(0, 6), min_size=1, max_size=4),
           seeds=st.lists(st.integers(0, 6), min_size=1, max_size=4),
           cut_frac=st.floats(0.05, 0.95),
           budget=st.sampled_from([1, 4_000, 20_000, 1 << 22]))
    def test_cached_decode_equals_cold_decode(
        self, tokenizer, engine, prompts, pieces, warm_seeds, seeds,
        cut_frac, budget,
    ):
        """Warmed by other seeds and other prompts, under a budget small
        enough to evict mid-decode, every step equals the cold decode's."""
        DECODE_STATES.clear()
        ids = np.asarray(
            tokenizer.encode("".join(pieces) + " Answer:\n"), dtype=np.int64
        )
        cut = min(max(1, int(ids.size * cut_frac)), ids.size - 1)
        prefix = engine.model.prepare_prefix(ids[:cut])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prefix_cache, "DECODE_STATE_BUDGET_BYTES", budget)
            other_ids, other_prefix = prompts[len(pieces) % len(prompts)]
            engine.generate_batch(other_ids, warm_seeds, prefix=other_prefix)
            engine.generate_batch(ids, warm_seeds, prefix=prefix)
            warm = engine.generate_batch(ids, seeds, prefix=prefix)
            assert DECODE_STATES.nbytes <= budget
        for trace, seed in zip(warm, seeds):
            _assert_traces_identical(engine.generate(ids, seed=seed), trace)

    def test_served_prompt_hits_and_matches_cold(self, engine, prompts):
        ids, prefix = prompts[0]
        engine.generate_batch(ids, [100, 101], prefix=prefix)
        tracer = Tracer()
        with use_tracer(tracer):
            warm = engine.generate_batch(ids, [0, 1, 2], prefix=prefix)
        (span,) = _generate_spans(tracer)
        assert span.attributes["n_state_hits"] >= 1
        for trace, seed in zip(warm, (0, 1, 2)):
            _assert_traces_identical(engine.generate(ids, seed=seed), trace)

    def test_cold_path_never_touches_the_cache(self, engine, prompts):
        ids, _ = prompts[1]
        tracer = Tracer()
        with use_tracer(tracer):
            engine.generate_batch(ids, [0, 1])
            engine.generate_batch(ids, [0, 1])
        assert len(DECODE_STATES) == 0
        assert [s.attributes["n_state_hits"] for s in _generate_spans(tracer)] \
            == [0, 0]


class TestBudget:
    def test_bytes_never_exceed_budget_and_arrays_are_read_only(
        self, monkeypatch, engine, prompts
    ):
        budget = 60_000
        monkeypatch.setattr(prefix_cache, "DECODE_STATE_BUDGET_BYTES", budget)
        for seed in range(6):
            for ids, prefix in prompts:
                engine.generate_batch(ids, [seed], prefix=prefix)
                assert 0 < DECODE_STATES.nbytes <= budget
        entries = list(DECODE_STATES._entries.values())
        assert sum(size for _, _, size in entries) == DECODE_STATES.nbytes
        for ids, probs, _ in entries:
            assert ids.dtype == np.uint16 and not ids.flags.writeable
            assert probs.dtype == np.float64 and not probs.flags.writeable

    def test_lru_eviction_and_oversized_entries(self, monkeypatch):
        cache = DecodeStateCache()
        ids = np.arange(10, dtype=np.int64)
        probs = np.full(10, 0.1)
        entry = ids.astype(np.uint8).nbytes + probs.nbytes  # 90 bytes
        monkeypatch.setattr(prefix_cache, "DECODE_STATE_BUDGET_BYTES", 2 * entry)
        cache.put("a", ids, probs)
        cache.put("b", ids, probs)
        assert cache.get("a") is not None  # "b" is now least recent
        cache.put("c", ids, probs)
        assert cache.get("b") is None and len(cache) == 2
        got_ids, got_probs = cache.get("c")
        assert got_ids.dtype == np.int64 and np.array_equal(got_ids, ids)
        assert np.array_equal(got_probs, probs)
        monkeypatch.setattr(prefix_cache, "DECODE_STATE_BUDGET_BYTES", entry - 1)
        cache.put("d", ids, probs)
        assert cache.get("d") is None
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0

    def test_stored_arrays_are_copies(self):
        cache = DecodeStateCache()
        ids, probs = np.array([3, 5]), np.array([0.25, 0.75])
        cache.put("k", ids, probs)
        probs[0] = 1.0
        assert cache.get("k")[1][0] == 0.25


class TestThreads:
    def test_four_threads_equal_a_serial_run(self, monkeypatch, engine, prompts):
        """More threads than cores, frequent switches and a budget that
        evicts all the time: the traces equal a serial run's, no lookup
        count is lost and the byte tally matches the entries held."""
        monkeypatch.setattr(prefix_cache, "DECODE_STATE_BUDGET_BYTES", 100_000)
        jobs = [(i, seed) for seed in range(3) for i in range(len(prompts))]

        def run(job):
            i, seed = job
            ids, prefix = prompts[i]
            return engine.generate_batch(ids, [seed, seed + 10], prefix=prefix)

        before = sum(engine.state_lookups())
        serial = [run(job) for job in jobs]
        n_lookups = sum(engine.state_lookups()) - before
        DECODE_STATES.clear()
        threaded: dict[int, list] = {}
        barrier = threading.Barrier(4)

        def worker(k):
            barrier.wait()
            for n in range(k, len(jobs), 4):
                threaded[n] = run(jobs[n])

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sum(engine.state_lookups()) - before == 2 * n_lookups
        entries = list(DECODE_STATES._entries.values())
        assert sum(size for _, _, size in entries) == DECODE_STATES.nbytes
        assert DECODE_STATES.nbytes <= 100_000
        for n, traces in enumerate(serial):
            for a, b in zip(traces, threaded[n]):
                _assert_traces_identical(a, b)


class TestServiceMetrics:
    def test_decode_lookups_and_bytes_reported(self, sm_dataset):
        examples = _examples(sm_dataset, range(4))
        requests = [
            Request(examples=examples, query_config=sm_dataset.config(200),
                    seed=seed, size="SM")
            for seed in range(4)
        ]
        with PredictionService() as svc:
            for request in requests:
                svc.submit(request)
            snap = svc.metrics().snapshot()
        assert snap["cache.lookups{level=decode,outcome=hit}"] > 0
        assert snap["cache.lookups{level=decode,outcome=miss}"] > 0
        assert snap["cache.bytes{level=decode}"] == DECODE_STATES.nbytes > 0

    def test_no_decode_lookups_without_prefix_cache(self, sm_dataset):
        request = Request(examples=_examples(sm_dataset, range(4)),
                          query_config=sm_dataset.config(200), seed=1,
                          size="SM")
        with PredictionService(enable_prefix_cache=False) as svc:
            svc.submit(request)
            snap = svc.metrics().snapshot()
        assert not any("level=decode" in name for name in snap)
