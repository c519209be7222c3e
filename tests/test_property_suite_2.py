"""Second property-test round: learner, space, and sampler invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset import syr2k_space
from repro.gbt.boosting import BoostingParams, GradientBoostingRegressor
from repro.llm.sampling import SamplingParams, sample_token
from repro.utils.rng import rng_from

_SPACE = syr2k_space()


class TestGBTProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_predictions_within_target_range(self, seed):
        """Tree ensembles interpolate: with a modest learning rate the
        predictions stay inside (min(y), max(y)) padded by the residual
        overshoot bound."""
        rng = np.random.default_rng(seed)
        x = rng.random((120, 3))
        y = rng.random(120) * 4.0 + 1.0
        model = GradientBoostingRegressor(
            BoostingParams(n_estimators=40, learning_rate=0.2, max_depth=3)
        ).fit(x, y)
        pred = model.predict(rng.random((60, 3)))
        span = y.max() - y.min()
        assert pred.min() > y.min() - 0.5 * span
        assert pred.max() < y.max() + 0.5 * span

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_constant_target_learned_exactly(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((50, 2))
        y = np.full(50, 3.25)
        model = GradientBoostingRegressor(
            BoostingParams(n_estimators=5)
        ).fit(x, y)
        np.testing.assert_allclose(model.predict(x), 3.25, atol=1e-9)


class TestSpaceProperties:
    @given(
        st.integers(min_value=0, max_value=_SPACE.size - 1),
        st.integers(min_value=0, max_value=_SPACE.size - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_distance_symmetry_and_identity(self, i, j):
        a, b = _SPACE.from_index(i), _SPACE.from_index(j)
        dij = _SPACE.weighted_distance(a, b)
        dji = _SPACE.weighted_distance(b, a)
        assert dij == pytest.approx(dji)
        assert (dij == 0) == (i == j)
        assert _SPACE.hamming_distance(a, b) == _SPACE.hamming_distance(b, a)

    @given(st.integers(min_value=0, max_value=_SPACE.size - 1))
    @settings(max_examples=20, deadline=None)
    def test_hamming_bounds_weighted(self, i):
        """Weighted distance never exceeds Hamming distance (each term is
        normalized to [0, 1])."""
        center = _SPACE.from_index(i)
        for j in (0, _SPACE.size // 2, _SPACE.size - 1):
            other = _SPACE.from_index(j)
            assert _SPACE.weighted_distance(center, other) <= (
                _SPACE.hamming_distance(center, other) + 1e-12
            )


class TestSamplingProperties:
    @given(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_sample_always_valid_position(self, logits, seed):
        ids = np.arange(len(logits))
        rng = rng_from(seed, "prop")
        pos = sample_token(
            ids, np.asarray(logits), SamplingParams(), rng
        )
        assert 0 <= pos < len(logits)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_greedy_never_random(self, seed):
        logits = np.asarray([0.0, 2.0, 1.0])
        rng = rng_from(seed, "greedy")
        pos = sample_token(
            np.arange(3), logits, SamplingParams(greedy=True), rng
        )
        assert pos == 1


def _numpy_scalar(value):
    return np.bool_(value) if isinstance(value, bool) else np.int64(value)


#: Ways a configuration value reaches a request: as the space holds it
#: (``int``/``bool``), as a numpy scalar, or as the text a caller parsed.
_VALUE_FORMS = (lambda value: value, _numpy_scalar, str)

_DOMAINS = {p.name: p.values for p in _SPACE.parameters}

_runtimes = st.floats(
    min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def _configs(draw):
    """A syr2k configuration with its parameters in a drawn order."""
    names = draw(st.permutations(list(_DOMAINS)))
    return {
        name: draw(st.sampled_from(_VALUE_FORMS))(
            draw(st.sampled_from(_DOMAINS[name]))
        )
        for name in names
    }


@st.composite
def _variants(draw, config, reorder=True):
    """``config``'s items, each value maybe re-typed, in a drawn order
    (or in place with ``reorder=False``)."""
    items = list(config.items())
    variant = {}
    for name, value in draw(st.permutations(items)) if reorder else items:
        if draw(st.booleans()):
            (value,) = [v for v in _DOMAINS[name] if str(v) == str(value)]
            value = draw(st.sampled_from(_VALUE_FORMS))(value)
        variant[name] = value
    return variant


class TestPromptKeyFingerprint:
    """``Request.prompt_key`` partitions requests exactly as the prompt does.

    Equal keys must build token-identical prompts, which is what would
    let the result cache be keyed by ``prompt_key`` without building the
    prompt first, and what lets same-key requests share one lockstep
    decode.  Conversely, token-identical prompts must get equal keys
    however each config value is typed, or such a cache would miss
    where the fingerprint hits.
    """

    _surrogates: dict = {}

    @given(
        data=st.data(),
        size=st.sampled_from(["SM", "XL"]),
        n_icl=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_equal_prompt_key_implies_equal_fingerprint(
        self, data, size, n_icl
    ):
        from repro.core.surrogate import DiscriminativeSurrogate
        from repro.dataset.syr2k import Syr2kTask
        from repro.serve import Request
        from repro.serve.cache import prompt_fingerprint

        surrogate = self._surrogates.get(size)
        if surrogate is None:
            surrogate = self._surrogates[size] = DiscriminativeSurrogate(
                Syr2kTask(size)
            )
        examples = [
            (data.draw(_configs()), data.draw(_runtimes))
            for _ in range(n_icl)
        ]
        query = data.draw(_configs())
        requests = [
            Request(examples=examples, query_config=query, size=size),
            # The same items, each config rebuilt: the key must not
            # depend on object identity.
            Request(
                examples=[(dict(cfg), float(rt)) for cfg, rt in examples],
                query_config=dict(query), seed=1, size=size,
            ),
            # Reordered and re-typed items: a new key unless the
            # prompt renders the same.
            Request(
                examples=[
                    (data.draw(_variants(cfg)), rt) for cfg, rt in examples
                ],
                query_config=data.draw(_variants(query)), seed=2, size=size,
            ),
            # Re-typed in place (Python, numpy or ``str`` scalars): the
            # same prompt, so the same key.
            Request(
                examples=[
                    (data.draw(_variants(cfg, reorder=False)), rt)
                    for cfg, rt in examples
                ],
                query_config=data.draw(_variants(query, reorder=False)),
                seed=3, size=size,
            ),
        ]
        assert requests[0].prompt_key == requests[1].prompt_key
        assert requests[0].prompt_key == requests[3].prompt_key
        fingerprints: dict[str, set[str]] = {}
        keys: dict[str, set[str]] = {}
        for request in requests:
            parts = surrogate.build_parts(
                request.examples, request.query_config
            )
            fingerprint = prompt_fingerprint(parts.ids)
            fingerprints.setdefault(request.prompt_key, set()).add(
                fingerprint
            )
            keys.setdefault(fingerprint, set()).add(request.prompt_key)
        assert all(len(fps) == 1 for fps in fingerprints.values())
        assert all(len(ks) == 1 for ks in keys.values())


#: Text a caller might pass as a value: spaces, punctuation, newlines and
#: marker fragments, so some clauses end where the splice rule cannot
#: prove a piece boundary and their line falls back to a full encode.
_odd_strings = st.text(
    alphabet=st.sampled_from(list("aZ09 ,.:-_|<>\n\té")), max_size=6
)


@st.composite
def _loose_configs(draw):
    """A syr2k configuration whose values may be any text."""
    config = draw(_configs())
    for name in list(config):
        if draw(st.integers(0, 4)) == 0:
            config[name] = draw(_odd_strings)
    return config


#: Runtimes from sub-microsecond to long integer digit runs.
_wide_runtimes = st.one_of(
    _runtimes,
    st.floats(min_value=1.0, max_value=1e15, allow_nan=False,
              allow_infinity=False),
)


class TestCompiledPromptIds:
    """The builder compiles a prompt's ids from its template pieces;
    they must equal the tokenizer's encoding of the rendered text, with
    the text and the shared-prefix split unchanged."""

    _builders: dict = {}

    def _builder(self, size, style):
        from repro.dataset.syr2k import Syr2kTask
        from repro.prompts.builder import PromptBuilder

        key = (size, style)
        if key not in self._builders:
            self._builders[key] = PromptBuilder(
                Syr2kTask(size), value_style=style
            )
        return self._builders[key]

    @staticmethod
    def _reference_text(builder, mode, examples, query, n_buckets):
        """The prompt text as rendered from the serialize helpers."""
        from repro.prompts import templates
        from repro.prompts.serialize import (
            example_block,
            format_runtime,
            query_block,
            serialize_config,
        )

        size, style = builder.task.size, builder.value_style
        description = templates.problem_description(builder.task)
        if mode == "generative":
            system = templates.SYSTEM_INSTRUCTIONS_GENERATIVE
            blocks = [
                f"Hyperparameter configuration: {serialize_config(cfg, size)}\n"
                f"Performance bucket: {bucket}\n"
                for cfg, bucket in examples
            ]
            head = (
                f"{description}\n\nPerformance is discretized into "
                f"{n_buckets} buckets numbered 0 (fastest) through "
                f"{n_buckets - 1} (slowest).\n\nHere are the examples:\n"
            )
            close = "\nPlease complete the following:\n"
            tail = (
                f"Hyperparameter configuration: {serialize_config(query, size)}"
                "\nPerformance bucket:"
            )
        else:
            blocks = [example_block(cfg, size, rt, style) for cfg, rt in examples]
            head = f"{description}\n\nHere are the examples:\n"
            if mode == "discriminative":
                system = templates.SYSTEM_INSTRUCTIONS
                close = "\nPlease complete the following:\n"
                tail = query_block(query, size)
            else:
                system = templates.SYSTEM_INSTRUCTIONS_CANDIDATE
                close = (
                    "\nPlease propose one hyperparameter configuration that "
                    "achieves the following performance:\n"
                )
                tail = (
                    f"Performance: {format_runtime(query, style)}\n"
                    "Hyperparameter configuration:"
                )
        prefix = (
            "<|begin_of_text|><|start_header_id|>system<|end_header_id|>\n\n"
            f"{system}<|eot_id|><|start_header_id|>user<|end_header_id|>\n\n"
            + head + "\n".join(blocks) + close
        )
        return prefix, prefix + tail + (
            "<|eot_id|><|start_header_id|>assistant<|end_header_id|>\n\n"
        )

    @given(
        data=st.data(),
        size=st.sampled_from(["SM", "XL"]),
        style=st.sampled_from(["decimal", "scientific"]),
        mode=st.sampled_from(["discriminative", "generative", "candidate"]),
        n_examples=st.one_of(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=9, max_value=100),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_ids_equal_encode_of_text(
        self, data, size, style, mode, n_examples
    ):
        builder = self._builder(size, style)
        configs = [data.draw(_loose_configs()) for _ in range(n_examples)]
        n_buckets = 0
        if mode == "generative":
            n_buckets = data.draw(st.integers(min_value=2, max_value=1200))
            examples = [
                (cfg, data.draw(st.integers(0, n_buckets - 1)))
                for cfg in configs
            ]
            query = data.draw(_loose_configs())
            parts = builder.generative(examples, query, n_buckets)
        else:
            examples = [(cfg, data.draw(_wide_runtimes)) for cfg in configs]
            if mode == "discriminative":
                query = data.draw(_loose_configs())
                parts = builder.discriminative(examples, query)
            else:
                query = data.draw(_wide_runtimes)
                parts = builder.candidate_sampling(examples, query)
        prefix, text = self._reference_text(
            builder, mode, examples, query, n_buckets
        )
        assert parts.text == text
        encode = builder.tokenizer.encode
        assert parts.ids.dtype == np.int64
        assert parts.ids.tolist() == encode(text)
        assert parts.prefix_len == len(encode(prefix))
        assert parts.n_examples == n_examples

    def test_unprovable_joins_fall_back_exactly(self, sm_task):
        """Values the splice rule cannot split from what follows (a
        trailing space or newline, marker fragments, a non-numeric
        runtime) encode their line whole, and still match."""
        from repro.prompts.builder import PromptBuilder

        builder = PromptBuilder(sm_task)
        config = dict(_SPACE.from_index(7))
        odd = [
            ("packed ", 0.5), ("x\n", 2.0), ("<|eot", 1e300),
            (" ", float("inf")), ("|>", 3.0),
        ]
        examples = [
            ({**config, "first_array_packed": value}, rt) for value, rt in odd
        ]
        parts = builder.discriminative(examples, {**config, "inner_loop_tiling_factor": "4 "})
        assert parts.ids.tolist() == builder.tokenizer.encode(parts.text)
        assert builder._clauses[", first_array_packed is packed "] is None


class TestHistogramMerge:
    """Merging per-part histograms gives the histogram of the union,
    which is what lets shards ship bucket counts instead of samples."""

    @given(
        st.lists(
            st.tuples(
                # Spans below lo and above hi, so clamping is covered.
                st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                st.integers(min_value=0, max_value=4),
            ),
            max_size=200,
        ),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_of_parts_equals_union(self, tagged, k):
        from repro.obs import Histogram

        parts = [Histogram() for _ in range(k)]
        union = Histogram()
        for value, part in tagged:
            parts[part % k].observe(value)
            union.observe(value)
        merged = Histogram()
        for part in parts:
            merged.merge(part)
        assert merged.counts == union.counts
        assert (merged.n, merged.min, merged.max) == (
            union.n, union.min, union.max,
        )
        assert merged.total == pytest.approx(union.total, rel=1e-12)
        for q in (0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert merged.quantile(q) == union.quantile(q)


_PARENT_EVENTS = {
    "rejected": "rejected", "closed_reject": "closed_rejects",
    "timeout": "timeouts", "late_discard": "late_discards",
    "logical": "logical", "retry": "retries",
    "breaker_trip": "breaker_trips", "degraded": "degraded",
    "unavailable": "unavailable",
}
_EVENTS = (
    # Counted by the parent of a sharded service.
    "submit", "done", "failed", *_PARENT_EVENTS,
    # Counted by the worker replicas.
    "batch", "queue_wait", "group", "lookup", "fault",
    # A worker dies: its last snapshot is retired, a fresh one starts.
    "retire",
)


def _record(recorder, kind, value, size):
    if kind == "submit":
        recorder.record_submit()
    elif kind == "done":
        recorder.record_done(value)
    elif kind == "failed":
        recorder.record_failed()
    elif kind == "batch":
        recorder.record_batch(size)
    elif kind == "group":
        recorder.record_group(size)
    elif kind == "queue_wait":
        recorder.queue_wait.observe(value)
    elif kind == "lookup":
        # What a replica's snapshot carries from its caches.
        recorder.registry.counter(
            "cache.lookups",
            level=("prepare", "result", "prefix")[size % 3],
            outcome=("hit", "miss")[size % 2],
        ).inc()
    elif kind == "fault":
        recorder.registry.counter(
            "faults.injected", kind=("transient_errors", "stalls")[size % 2]
        ).inc()
    else:
        getattr(recorder, _PARENT_EVENTS[kind]).inc()


class TestShardMergeEqualsOneRecorder:
    """The sharded parent's view — its own counts plus every worker
    incarnation's worker-owned metrics — equals the view of one recorder
    that saw every event."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(_EVENTS),
                st.integers(min_value=0, max_value=3),  # worker
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                st.integers(min_value=1, max_value=8),  # batch/group size
            ),
            max_size=150,
        ),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_merged_view_equals_union(self, events, k):
        import dataclasses
        import pickle

        from repro.obs import MetricsRegistry
        from repro.serve.stats import (
            WORKER_METRICS,
            StatsRecorder,
            service_stats,
        )

        def ship(recorder):  # a snapshot crosses the pipe pickled
            return pickle.loads(pickle.dumps(recorder.snapshot()))

        single, parent = StatsRecorder(8), StatsRecorder(8)
        workers = [StatsRecorder(8) for _ in range(k)]
        retired = MetricsRegistry()
        for kind, worker, value, size in events:
            worker %= k
            if kind == "retire":
                retired.merge(ship(workers[worker]), WORKER_METRICS)
                workers[worker] = StatsRecorder(8)
                continue
            _record(single, kind, value, size)
            if kind in ("submit", "done", "failed", *_PARENT_EVENTS):
                _record(parent, kind, value, size)
            # Every replica also counts its own admissions; the merge
            # must take only what the workers own.
            _record(workers[worker], kind, value, size)

        merged = parent.snapshot()
        merged.merge(retired, WORKER_METRICS)
        for recorder in workers:
            merged.merge(ship(recorder), WORKER_METRICS)
        got = service_stats(merged, 8)
        want = service_stats(single.snapshot(), 8)
        # Every count, the exact means and both percentiles; only the
        # wall-clock throughput differs between the two recorders.
        assert dataclasses.replace(got, throughput_rps=0.0) == (
            dataclasses.replace(want, throughput_rps=0.0)
        )
        assert got.queue_wait_hist.counts == want.queue_wait_hist.counts
