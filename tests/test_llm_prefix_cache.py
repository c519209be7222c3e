"""Prefix-reuse layer: bit-identity contract, cache behavior, serve grouping.

The hard constraint of :mod:`repro.llm.prefix_cache` is that scoring
through a :class:`PreparedPrefix` snapshot is **bit-identical** to the
cold path for every sampling seed — same candidate ids, same logits (no
tolerance), same sampled tokens.  These tests pin that contract end to
end: engine traces, batch decoding, surrogate predictions, the prompt
builder's splice fast path, the serving layer's shared-prompt decode
groups, and a hypothesis property sweep over random prompts and random
prefix cut points.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.runner import run_spec
from repro.core.grid import ExperimentSpec
from repro.core.surrogate import DiscriminativeSurrogate
from repro.llm import GenerationEngine, LMConfig, SurrogateLM
from repro.llm.prefix_cache import PrefixCache, token_fingerprint
from repro.prompts.builder import PromptBuilder
from repro.serve import PredictionService, Request

from tests.test_llm_model import next_token_logits

SEEDS = (0, 1, 7, 123)


def _examples(dataset, rows):
    return [
        (dataset.config(int(r)), float(dataset.runtimes[int(r)]))
        for r in rows
    ]


def _assert_traces_identical(a, b):
    assert len(a.steps) == len(b.steps)
    for sa, sb in zip(a.steps, b.steps):
        assert np.array_equal(sa.candidate_ids, sb.candidate_ids)
        # Bit-for-bit: np.array_equal on float logits, no tolerance.
        assert np.array_equal(sa.logits, sb.logits)
        assert sa.chosen_position == sb.chosen_position


@pytest.fixture(scope="module")
def warm_cold(sm_task, tokenizer, lm, engine):
    """(warm, cold) surrogates sharing one LM stack.

    ``warm`` owns a prefix cache; ``cold`` is the reference path with
    prefix reuse disabled.
    """
    warm = DiscriminativeSurrogate(
        sm_task, tokenizer=tokenizer, model=lm, engine=engine,
        prefix_cache=True,
    )
    cold = DiscriminativeSurrogate(
        sm_task, tokenizer=tokenizer, model=lm, engine=engine,
        prefix_cache=False,
    )
    return warm, cold


class TestBitIdentity:
    """Cached-prefix scoring equals the cold path, bit for bit."""

    def test_prefixed_trace_matches_cold_trace(
        self, warm_cold, sm_dataset, engine
    ):
        warm, cold = warm_cold
        parts = warm.build_parts(
            _examples(sm_dataset, range(8)), sm_dataset.config(150)
        )
        prefix = warm.prepared_prefix(parts)
        assert prefix is not None and prefix.extends(parts.ids)
        for seed in SEEDS:
            cold_trace = engine.generate(parts.ids, seed=seed)
            warm_trace = engine.generate(parts.ids, seed=seed, prefix=prefix)
            _assert_traces_identical(cold_trace, warm_trace)

    def test_shared_prefix_across_queries(self, warm_cold, sm_dataset, engine):
        """A second query reusing the snapshot still matches its cold run."""
        warm, _ = warm_cold
        examples = _examples(sm_dataset, range(8))
        hits_before = warm.prefix_cache.hits
        for query_row in (150, 151, 152):
            parts = warm.build_parts(examples, sm_dataset.config(query_row))
            prefix = warm.prepared_prefix(parts)
            for seed in SEEDS[:2]:
                _assert_traces_identical(
                    engine.generate(parts.ids, seed=seed),
                    engine.generate(parts.ids, seed=seed, prefix=prefix),
                )
        # Same examples -> same tokenized prefix -> cache hits after the
        # first build.
        assert warm.prefix_cache.hits >= hits_before + 2

    def test_generate_batch_matches_scalar_cold(
        self, warm_cold, sm_dataset, engine
    ):
        """Lockstep batch decode == N independent cold generations."""
        warm, _ = warm_cold
        parts = warm.build_parts(
            _examples(sm_dataset, range(6)), sm_dataset.config(140)
        )
        prefix = warm.prepared_prefix(parts)
        seeds = list(SEEDS)
        batch = engine.generate_batch(parts.ids, seeds, prefix=prefix)
        assert len(batch) == len(seeds)
        for trace, seed in zip(batch, seeds):
            _assert_traces_identical(
                engine.generate(parts.ids, seed=seed), trace
            )

    def test_predictions_identical_warm_vs_cold(self, warm_cold, sm_dataset):
        warm, cold = warm_cold
        parts = warm.build_parts(
            _examples(sm_dataset, range(6)), sm_dataset.config(141)
        )
        seeds = list(SEEDS)
        warm_preds = warm.predict_parts_batch(parts, seeds)
        for pred, seed in zip(warm_preds, seeds):
            ref = cold.predict_parts(parts, seed=seed)
            assert pred.generated_text == ref.generated_text
            assert pred.value == ref.value
            assert pred.value_text == ref.value_text

    def test_run_spec_identical_with_and_without_prefix_cache(self):
        spec = ExperimentSpec("SM", "random", 5, 0, 1, n_queries=3)
        on = run_spec(spec, prefix_cache=True)
        off = run_spec(spec, prefix_cache=False)
        assert [p.generated_text for p in on] == [
            p.generated_text for p in off
        ]
        assert [p.predicted for p in on] == [p.predicted for p in off]


class TestPrefixCache:
    """LRU semantics and counters of :class:`PrefixCache`."""

    def _ids(self, tokenizer, text):
        return np.asarray(tokenizer.encode(text), dtype=np.int64)

    def test_hit_miss_counters(self, lm, tokenizer):
        cache = PrefixCache(lm, capacity=4)
        ids = self._ids(tokenizer, "The loop tile factor is 12.\nAnswer:\n4")
        assert cache.prepared(ids, 5) is not None
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
        again = cache.prepared(ids, 5)
        assert again is cache.prepared(ids, 5)
        assert (cache.hits, cache.misses, len(cache)) == (2, 1, 1)

    def test_lru_eviction_with_recency_update(self, lm, tokenizer):
        cache = PrefixCache(lm, capacity=2)
        a = self._ids(tokenizer, "alpha loop tile 1\n2")
        b = self._ids(tokenizer, "beta loop tile 3\n4")
        c = self._ids(tokenizer, "gamma loop tile 5\n6")
        cache.prepared(a, 3)
        cache.prepared(b, 3)
        cache.prepared(a, 3)  # refresh A: B is now least-recent
        cache.prepared(c, 3)  # evicts B
        assert len(cache) == 2
        misses = cache.misses
        cache.prepared(a, 3)
        assert cache.misses == misses  # A survived
        cache.prepared(b, 3)
        assert cache.misses == misses + 1  # B was evicted

    def test_degenerate_splits_return_none(self, lm, tokenizer):
        cache = PrefixCache(lm)
        ids = self._ids(tokenizer, "loop tile 12\n34")
        for bad_len in (0, -1, ids.size + 1):
            assert cache.prepared(ids, bad_len) is None
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_clear_resets_entries_and_counters(self, lm, tokenizer):
        cache = PrefixCache(lm)
        ids = self._ids(tokenizer, "loop tile 12\n34")
        cache.prepared(ids, 3)
        cache.prepared(ids, 3)
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_capacity_validation(self, lm):
        with pytest.raises(ValueError):
            PrefixCache(lm, capacity=0)

    def test_token_fingerprint_keys_on_content(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        assert token_fingerprint(a) == token_fingerprint(a.copy())
        assert token_fingerprint(a) == token_fingerprint(
            np.array([1, 2, 3], dtype=np.int32)
        )
        assert token_fingerprint(a) != token_fingerprint(a[::-1].copy())
        assert token_fingerprint(a[:2]) != token_fingerprint(a)

    def test_extends(self, lm, tokenizer):
        cache = PrefixCache(lm)
        ids = self._ids(tokenizer, "The answer is 12\n34")
        snap = cache.prepared(ids, 4)
        assert snap.length == 4
        assert snap.extends(ids)
        assert snap.extends(ids[:4])
        assert not snap.extends(ids[:3])
        other = ids.copy()
        other[0] = other[0] + 1
        assert not snap.extends(other)

    def test_disabled_prefix_cache_prepares_nothing(
        self, warm_cold, sm_dataset
    ):
        _, cold = warm_cold
        parts = cold.build_parts(
            _examples(sm_dataset, range(4)), sm_dataset.config(132)
        )
        assert cold.prefix_cache is None
        assert cold.prepared_prefix(parts) is None


class TestBuilderSplice:
    """The builder's prefix/tail splice equals a full-text encode."""

    @pytest.fixture(scope="class")
    def builder(self, sm_task, tokenizer):
        return PromptBuilder(sm_task, tokenizer)

    def _check(self, parts, tokenizer):
        full = np.asarray(tokenizer.encode(parts.text), dtype=np.int64)
        assert np.array_equal(parts.ids, full)
        assert 0 < parts.prefix_len <= parts.ids.size

    def test_discriminative(self, builder, tokenizer, sm_dataset):
        parts = builder.discriminative(
            _examples(sm_dataset, range(5)), sm_dataset.config(120)
        )
        self._check(parts, tokenizer)

    def test_generative(self, builder, tokenizer, sm_dataset):
        examples = [
            (cfg, i % 4)
            for i, (cfg, _) in enumerate(_examples(sm_dataset, range(5)))
        ]
        parts = builder.generative(examples, sm_dataset.config(120), 4)
        self._check(parts, tokenizer)

    def test_candidate_sampling(self, builder, tokenizer, sm_dataset):
        examples = _examples(sm_dataset, range(5))
        parts = builder.candidate_sampling(examples, examples[0][1])
        self._check(parts, tokenizer)

    def test_same_examples_share_tokenized_prefix(self, builder, sm_dataset):
        examples = _examples(sm_dataset, range(5))
        a = builder.discriminative(examples, sm_dataset.config(120))
        b = builder.discriminative(examples, sm_dataset.config(121))
        assert a.prefix_len == b.prefix_len > 0
        assert np.array_equal(a.ids[: a.prefix_len], b.ids[: b.prefix_len])


def _grid_requests(dataset, n=4, query_row=150):
    examples = _examples(dataset, range(5))
    return [
        Request(
            examples=examples,
            query_config=dataset.config(query_row),
            seed=100 + i,
            size="SM",
        )
        for i in range(n)
    ]


class TestServeGrouping:
    """Same-prompt tickets in one batch share a lockstep decode group."""

    def test_shared_prompt_batch_forms_one_group(self, sm_dataset):
        reqs = _grid_requests(sm_dataset, n=4)
        with PredictionService(max_batch_size=4, max_wait_s=0.5) as svc:
            resps = svc.submit_many(reqs)
            stats = svc.stats()
        assert [r.group_width for r in resps] == [4, 4, 4, 4]
        assert stats.n_groups == 1
        assert stats.n_group_served == 4
        assert stats.mean_group_width == pytest.approx(4.0)
        assert stats.prefix_misses >= 1
        assert stats.prefix_hit_rate <= 1.0

    def test_grouped_results_match_prefix_disabled(self, sm_dataset):
        reqs = _grid_requests(sm_dataset, n=4)
        with PredictionService(max_batch_size=4, max_wait_s=0.5) as on_svc:
            on = on_svc.submit_many(reqs)
        with PredictionService(
            max_batch_size=4, max_wait_s=0.5, enable_prefix_cache=False
        ) as off_svc:
            off = off_svc.submit_many(reqs)
            off_stats = off_svc.stats()
        assert [r.value for r in on] == [r.value for r in off]
        assert [r.prediction.generated_text for r in on] == [
            r.prediction.generated_text for r in off
        ]
        # The disabled path records no prefix or group activity.
        assert off_stats.n_groups == 0
        assert (off_stats.prefix_hits, off_stats.prefix_misses) == (0, 0)
        assert all(r.group_width == 1 for r in off)

    def test_singleton_batch_short_circuits_to_scalar_path(self, sm_dataset):
        """A batch of one never plans groups (the MicroBatcher singleton
        flush regression: grouping machinery must not activate for it)."""
        req = _grid_requests(sm_dataset, n=1)[0]
        with PredictionService(max_batch_size=8, max_wait_s=0.001) as svc:
            first = svc.submit(req)
            second = svc.submit(req)  # sequential: result-cache hit
            stats = svc.stats()
        assert first.group_width == 1
        assert second.group_width == 1
        assert first.value == second.value
        assert stats.n_groups == 0
        assert stats.n_group_served == 0
        assert stats.result_hits == 1
        assert stats.result_misses == 1

    def test_distinct_prompts_do_not_group(self, sm_dataset):
        examples = _examples(sm_dataset, range(5))
        reqs = [
            Request(
                examples=examples,
                query_config=sm_dataset.config(150 + i),
                seed=7,
                size="SM",
            )
            for i in range(4)
        ]
        with PredictionService(max_batch_size=4, max_wait_s=0.5) as svc:
            resps = svc.submit_many(reqs)
            stats = svc.stats()
        assert all(r.group_width == 1 for r in resps)
        assert stats.n_groups == 0


# Text pieces the property sweep assembles prompts from: lexicon words,
# digit runs, punctuation, newlines — enough variety to hit the induction
# windows, the unigram stats, and the format FSM's cue patterns.
_PIECES = st.sampled_from([
    " loop", " tile", " factor", " performance", " configuration",
    " Performance", "\n", "\n\n", ":", ".", ",", " 12", " 3", " 456",
    " 0", "7", "89", " the", " is", " lower", " better", " Answer",
])


class TestPrefixEqualityProperty:
    """Hypothesis sweep: any prompt, any prefix cut, any seed — equal bits."""

    @settings(max_examples=25, deadline=None)
    @given(pieces=st.lists(_PIECES, min_size=3, max_size=30),
           cut_frac=st.floats(0.05, 0.95))
    def test_random_cut_prefix_logits_bit_identical(
        self, tokenizer, lm, pieces, cut_frac
    ):
        text = "".join(pieces)
        ids = np.asarray(tokenizer.encode(text), dtype=np.int64)
        if ids.size < 2:
            return
        cut = min(max(1, int(ids.size * cut_frac)), ids.size - 1)
        snap = lm.prepare_prefix(ids[:cut])
        assert snap.length == cut and snap.extends(ids)
        cold_analysis = lm.prepare(ids)
        warm_analysis = lm.prepare(ids, prefix=snap)
        for seed in (0, 1, 2):
            cold_ids, cold_logits = next_token_logits(
                lm, ids, [], [seed], step=0, analysis=cold_analysis
            )[0]
            warm_ids, warm_logits = next_token_logits(
                lm, ids, [], [seed], step=0,
                analysis=warm_analysis, prefix=snap,
            )[0]
            assert np.array_equal(cold_ids, warm_ids)
            assert np.array_equal(cold_logits, warm_logits)

    @settings(max_examples=10, deadline=None)
    @given(pieces=st.lists(_PIECES, min_size=4, max_size=20),
           tail_pieces=st.lists(_PIECES, min_size=1, max_size=8))
    def test_shared_prefix_pair_generations_identical(
        self, tokenizer, lm, engine, pieces, tail_pieces
    ):
        """Two prompts sharing a prefix: cached generations match cold."""
        shared = "".join(pieces)
        shared_ids = np.asarray(tokenizer.encode(shared), dtype=np.int64)
        if shared_ids.size < 1:
            return
        snap = lm.prepare_prefix(shared_ids)
        for tail in ("".join(tail_pieces), " Answer: 42"):
            ids = np.asarray(tokenizer.encode(shared + tail), dtype=np.int64)
            if not snap.extends(ids):
                # Tokenizer merged across the boundary; the snapshot does
                # not apply to this prompt (callers check extends()).
                continue
            for seed in (0, 1, 2):
                _assert_traces_identical(
                    engine.generate(ids, seed=seed),
                    engine.generate(ids, seed=seed, prefix=snap),
                )


@pytest.fixture(scope="module")
def engines(tokenizer, engine):
    """The default engine and one whose seeds share identical logits."""
    flat = SurrogateLM(tokenizer.vocab, LMConfig(seed_jitter=0.0))
    return {"default": engine, "no-jitter": GenerationEngine(flat)}


class TestBatchRowProperty:
    """Hypothesis sweep: each lockstep row equals a solo cold decode."""

    @settings(max_examples=25, deadline=None)
    @given(pieces=st.lists(_PIECES, min_size=3, max_size=20),
           seeds=st.lists(st.integers(0, 4), min_size=1, max_size=6),
           config=st.sampled_from(["default", "no-jitter"]),
           cut_frac=st.one_of(st.none(), st.floats(0.05, 0.95)))
    def test_batch_rows_match_single_seed_cold_decodes(
        self, tokenizer, engines, pieces, seeds, config, cut_frac
    ):
        """Repeated seeds, zero jitter, prefix on (a random cut) or off:
        row k of ``generate_batch`` is ``generate(seed=seeds[k])`` run
        alone and cold, step by step."""
        engine = engines[config]
        ids = np.asarray(
            tokenizer.encode("".join(pieces) + " Answer:\n"), dtype=np.int64
        )
        prefix = None
        if cut_frac is not None and ids.size >= 2:
            cut = min(max(1, int(ids.size * cut_frac)), ids.size - 1)
            prefix = engine.model.prepare_prefix(ids[:cut])
        batch = engine.generate_batch(ids, seeds, prefix=prefix)
        assert len(batch) == len(seeds)
        for trace, seed in zip(batch, seeds):
            assert trace.seed == seed
            _assert_traces_identical(engine.generate(ids, seed=seed), trace)
