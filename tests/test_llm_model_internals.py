"""Unit tests for surrogate-LM internals: noise scheduling, analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.llm.model import LMConfig, SurrogateLM
from repro.llm.scorers import FormatAnalysis

from tests.test_llm_model import next_token_logits


@pytest.fixture(scope="module")
def model(tokenizer):
    return SurrogateLM(tokenizer.vocab)


def _analysis(decimals: int | None, integer: bool = False) -> FormatAnalysis:
    return FormatAnalysis(
        start_votes={},
        expected_decimals=decimals,
        integer_valued=integer,
    )


class TestNoiseSchedule:
    def test_zero_outside_value(self, model):
        assert model._noise_eps([], _analysis(7)) == 0.0
        assert model._noise_eps(["Performance", ":"], _analysis(7)) == 0.0

    def test_zero_before_dot(self, model):
        assert model._noise_eps(["0"], _analysis(7)) == 0.0

    def test_first_fraction_position(self, model):
        eps = model._noise_eps(["0", "."], _analysis(7))
        assert eps == model.config.noise_eps_first

    def test_mid_fraction_position(self, model):
        eps = model._noise_eps(["0", ".", "002"], _analysis(7))
        assert eps == model.config.noise_eps_mid

    def test_last_digit_position(self, model):
        eps = model._noise_eps(["0", ".", "002", "215"], _analysis(7))
        assert eps == model.config.noise_eps_last

    def test_zero_when_complete(self, model):
        eps = model._noise_eps(["0", ".", "002", "215", "5"], _analysis(7))
        assert eps == 0.0

    def test_schedule_ordering(self, model):
        """The schedule is the calibrated first < mid < last ramp."""
        cfg = model.config
        assert cfg.noise_eps_first < cfg.noise_eps_mid < cfg.noise_eps_last


class TestPrepare:
    def test_prepare_equivalent_to_inline(self, model, tokenizer):
        text = "Performance: 0.0022155\nPerformance:"
        ids = np.asarray(tokenizer.encode(text))
        pre = model.prepare(ids)
        ids_a, logits_a = next_token_logits(
            model, ids, [], [1], 0, analysis=pre
        )[0]
        ids_b, logits_b = next_token_logits(model, ids, [], [1], 0)[0]
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_allclose(logits_a, logits_b)

    def test_integer_analysis_stops_after_digits(self, model, tokenizer):
        """With integer-valued demonstrations the top continuation after a
        digit is termination, not '.'."""
        text = "Performance bucket: 3\nPerformance bucket: 1\nPerformance bucket:"
        ids = np.asarray(tokenizer.encode(text))
        analysis = model.prepare(ids)
        assert analysis.integer_valued
        cand, logits = next_token_logits(
            model, ids, ["2"], [1], 1, analysis=analysis
        )[0]
        top = int(cand[np.argmax(logits)])
        top_str = tokenizer.vocab.string_of(top)
        assert top_str in ("\n", "<|eot_id|>")


class TestSupportShape:
    def test_support_never_empty(self, model, tokenizer):
        ids = np.asarray(tokenizer.encode("Performance: 1.5\nPerformance:"))
        for step, gen in enumerate(([], ["1"], ["1", "."])):
            cand, logits = next_token_logits(
                model, ids, list(gen), [1], step
            )[0]
            assert cand.size >= 1

    def test_all_logits_finite(self, model, tokenizer):
        ids = np.asarray(tokenizer.encode("Performance: 1.5\nPerformance:"))
        _, logits = next_token_logits(model, ids, ["1", "."], [1], 2)[0]
        assert np.isfinite(logits).all()

    @settings(max_examples=200, deadline=None)
    @given(
        support=st.lists(st.integers(0, 2081), min_size=1, max_size=60, unique=True),
        data=st.data(),
        cap=st.integers(1, 70),
    )
    def test_select_support_equals_sorted_reselection(
        self, tokenizer, support, data, cap
    ):
        """Ascending ids skip the final ``argsort(ids)``; the result equals
        the former select-then-sort form, with and without the cap."""
        model = SurrogateLM(tokenizer.vocab, LMConfig(max_support=cap))
        ids = np.asarray(sorted(support), dtype=np.int64)
        logits = np.asarray(
            data.draw(
                st.lists(
                    st.sampled_from([-3.0, -1.0, 0.0, -2.5]) | st.floats(-20, 0),
                    min_size=ids.size, max_size=ids.size,
                )
            )
        )
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        got = model._select_support(ids, logits, probs)
        keep = probs >= model.config.support_floor
        if not keep.any():
            keep[np.argmax(probs)] = True
        ref_ids, ref_logits = ids[keep], logits[keep]
        if ref_ids.size > cap:
            top = np.argsort(ref_logits)[-cap:]
            ref_ids, ref_logits = ref_ids[top], ref_logits[top]
        order = np.argsort(ref_ids)
        assert np.array_equal(got[0], ref_ids[order])
        assert np.array_equal(got[1], ref_logits[order])
