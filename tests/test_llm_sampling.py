"""Tests for sampling over sparse logits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GenerationError
from repro.llm.sampling import SamplingParams, sample_token


class TestParams:
    def test_invalid(self):
        with pytest.raises(ValueError):
            SamplingParams(temperature=-1)
        with pytest.raises(ValueError):
            SamplingParams(top_p=0.0)
        with pytest.raises(ValueError):
            SamplingParams(top_k=-1)


class TestSampleToken:
    def test_greedy_argmax(self, rng):
        ids = np.array([10, 20, 30])
        logits = np.array([0.0, 5.0, 1.0])
        pos = sample_token(ids, logits, SamplingParams(greedy=True), rng)
        assert pos == 1

    def test_zero_temperature_greedy(self, rng):
        ids = np.array([10, 20])
        logits = np.array([1.0, 3.0])
        pos = sample_token(ids, logits, SamplingParams(temperature=0.0), rng)
        assert pos == 1

    def test_returns_position_not_id(self, rng):
        ids = np.array([99])
        pos = sample_token(ids, np.array([0.0]), SamplingParams(), rng)
        assert pos == 0

    def test_top_p_excludes_tail(self, rng):
        """A token with negligible mass below the nucleus is never drawn."""
        ids = np.array([1, 2, 3])
        logits = np.array([10.0, 9.5, -20.0])
        params = SamplingParams(top_p=0.9)
        draws = {sample_token(ids, logits, params, rng) for _ in range(200)}
        assert 2 not in draws

    def test_top_k_limits(self, rng):
        ids = np.arange(5)
        logits = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        params = SamplingParams(top_k=2, top_p=1.0, temperature=2.0)
        draws = {sample_token(ids, logits, params, rng) for _ in range(300)}
        assert draws <= {0, 1}

    def test_distribution_roughly_matches(self, rng):
        """Sampling frequencies track softmax probabilities."""
        ids = np.array([0, 1])
        logits = np.array([np.log(3.0), 0.0])  # p = 0.75 / 0.25
        params = SamplingParams(temperature=1.0, top_p=1.0)
        n = 4000
        ones = sum(
            sample_token(ids, logits, params, rng) for _ in range(n)
        )
        assert abs(ones / n - 0.25) < 0.03

    def test_temperature_sharpens(self, rng):
        ids = np.array([0, 1])
        logits = np.array([1.0, 0.0])
        cold = SamplingParams(temperature=0.2, top_p=1.0)
        hot = SamplingParams(temperature=5.0, top_p=1.0)
        n = 2000
        cold_ones = sum(sample_token(ids, logits, cold, rng) for _ in range(n))
        hot_ones = sum(sample_token(ids, logits, hot, rng) for _ in range(n))
        assert cold_ones < hot_ones

    def test_empty_raises(self, rng):
        with pytest.raises(GenerationError):
            sample_token(np.array([]), np.array([]), SamplingParams(), rng)

    def test_mismatched_raises(self, rng):
        with pytest.raises(GenerationError):
            sample_token(np.array([1]), np.array([1.0, 2.0]), SamplingParams(), rng)


def _choice_reference(ids, logits, params, rng):
    """``sample_token`` as it drew before: ``Generator.choice`` over the
    kept nucleus."""
    z = np.asarray(logits, dtype=float) / params.temperature
    probs = np.exp(z - z.max())
    probs /= probs.sum()
    order = np.argsort(probs)[::-1]
    if params.top_k > 0:
        order = order[: params.top_k]
    cum = np.cumsum(probs[order])
    kept = order[: int(np.searchsorted(cum, params.top_p, side="left")) + 1]
    p = probs[kept]
    return int(kept[rng.choice(kept.size, p=p / p.sum())])


class TestInverseCdfDraw:
    @settings(max_examples=200, deadline=None)
    # One candidate (a support floor can leave just one) takes its own
    # shortcut, so it is drawn as often as any wider support.
    @given(n=st.one_of(st.just(1), st.integers(2, 1300)),
           logit_seed=st.integers(0, 2**32 - 1),
           seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.1, 20.0),
           temperature=st.floats(0.05, 2.0),
           top_p=st.floats(0.01, 1.0),
           top_k=st.integers(0, 50))
    def test_matches_generator_choice(
        self, n, logit_seed, seed, scale, temperature, top_p, top_k
    ):
        """Same position and same generator state afterwards as
        ``Generator.choice``: a numpy whose ``choice`` draws differently
        fails here, not in a digest."""
        logits = scale * np.random.default_rng(logit_seed).standard_normal(n)
        ids = np.arange(n) + 7
        params = SamplingParams(temperature=temperature, top_p=top_p,
                                top_k=top_k)
        mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample_token(ids, logits, params, mine) == \
            _choice_reference(ids, logits, params, ref)
        assert mine.random() == ref.random()
