"""Tests for the surrogate LM's logit computation."""

import numpy as np
import pytest

from repro.errors import GenerationError
from repro.llm.model import LMConfig, SurrogateLM


def next_token_logits(lm, context, generated_strings, sample_seeds, step,
                      analysis=None, prefix=None):
    """One decode step's sparse logits per seed: the content pass, then
    each seed's finalize (the two calls the engine makes)."""
    ids, probs = lm.content_pass(context, generated_strings, analysis, prefix)
    return lm.finalize_batch(ids, probs, sample_seeds, step)


@pytest.fixture(scope="module")
def sm_prompt_ids(tokenizer):
    text = (
        "size is SM, outer_loop_tiling_factor is 80\n"
        "Performance: 0.0022155\n\n"
        "size is SM, outer_loop_tiling_factor is 64\n"
        "Performance: 0.0031921\n\n"
        "size is SM, outer_loop_tiling_factor is 128\n"
        "Performance:"
    )
    return np.asarray(tokenizer.encode(text), dtype=np.int64)


# module-scoped tokenizer/lm come from conftest (session-scoped)


class TestConfig:
    def test_invalid_floor(self):
        with pytest.raises(ValueError):
            LMConfig(support_floor=0.0)

    def test_invalid_support(self):
        with pytest.raises(ValueError):
            LMConfig(max_support=0)


class TestDetectSize:
    def test_sm_detected(self, lm, sm_prompt_ids):
        assert lm.detect_size(sm_prompt_ids) == "SM"

    def test_xl_detected(self, lm, tokenizer):
        ids = tokenizer.encode("size is XL, size is XL, sizes: S, SM, XL")
        assert lm.detect_size(np.asarray(ids)) == "XL"

    def test_no_size_none(self, lm, tokenizer):
        ids = tokenizer.encode("nothing relevant here")
        assert lm.detect_size(np.asarray(ids)) is None

    def test_empty_none(self, lm):
        assert lm.detect_size(np.array([], dtype=np.int64)) is None


class TestLogits:
    def test_sorted_support(self, lm, sm_prompt_ids):
        ids, logits = next_token_logits(lm, sm_prompt_ids, [], [1], 0)[0]
        assert (np.diff(ids) > 0).all()
        assert ids.shape == logits.shape

    def test_empty_context_raises(self, lm):
        with pytest.raises(GenerationError):
            next_token_logits(
                lm, np.array([], dtype=np.int64), [], [1], 0
            )[0]

    def test_support_cap(self, lm, sm_prompt_ids):
        ids, _ = next_token_logits(
            lm, sm_prompt_ids, ["0", "."], [1], 2
        )[0]
        assert ids.size <= lm.config.max_support

    def test_seed_changes_logits_not_support(self, lm, sm_prompt_ids):
        """Section IV-A: identical token sets, slightly altered logits."""
        ids1, lg1 = next_token_logits(lm, sm_prompt_ids, ["0"], [1], 1)[0]
        ids2, lg2 = next_token_logits(lm, sm_prompt_ids, ["0"], [2], 1)[0]
        assert np.array_equal(ids1, ids2)
        assert not np.array_equal(lg1, lg2)
        # ...and the perturbation is small.
        assert np.abs(lg1 - lg2).max() < 1.0

    def test_deterministic_per_seed(self, lm, sm_prompt_ids):
        a = next_token_logits(lm, sm_prompt_ids, ["0"], [5], 1)[0]
        b = next_token_logits(lm, sm_prompt_ids, ["0"], [5], 1)[0]
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_first_token_is_demonstrated_start(self, lm, tokenizer, sm_prompt_ids):
        """The top candidate at the first position starts like the ICL
        values (here all SM values start '0')."""
        ids, logits = next_token_logits(lm, sm_prompt_ids, [], [1], 0)[0]
        top = int(ids[np.argmax(logits)])
        assert tokenizer.vocab.string_of(top) == "0"

    def test_dot_follows_integer(self, lm, tokenizer, sm_prompt_ids):
        ids, logits = next_token_logits(
            lm, sm_prompt_ids, ["0"], [1], 1
        )[0]
        top = int(ids[np.argmax(logits)])
        assert tokenizer.vocab.string_of(top) == "."

    def test_fraction_support_is_broad(self, lm, sm_prompt_ids):
        """Hundreds of digit chunks are 'selectable' at fraction positions
        (Table II)."""
        ids, _ = next_token_logits(
            lm, sm_prompt_ids, ["0", "."], [1], 2
        )[0]
        assert ids.size > 50


class TestAblation:
    def test_no_format_changes_behavior(self, tokenizer, sm_prompt_ids):
        full = SurrogateLM(tokenizer.vocab)
        bare = SurrogateLM(tokenizer.vocab, LMConfig(use_format=False))
        f_ids, _ = next_token_logits(
            full, sm_prompt_ids, ["0"], [1], 1
        )[0]
        b_ids, _ = next_token_logits(
            bare, sm_prompt_ids, ["0"], [1], 1
        )[0]
        assert not np.array_equal(f_ids, b_ids)

    def test_induction_only_still_works(self, tokenizer, sm_prompt_ids):
        lm = SurrogateLM(
            tokenizer.vocab,
            LMConfig(use_format=False, use_unigram=False, use_prior=False),
        )
        ids, logits = next_token_logits(lm, sm_prompt_ids, [], [1], 0)[0]
        assert ids.size >= 1

    def test_all_off_falls_back_to_eot(self, tokenizer):
        lm = SurrogateLM(
            tokenizer.vocab,
            LMConfig(
                use_format=False,
                use_unigram=False,
                use_prior=False,
                use_induction=False,
            ),
        )
        ids, logits = next_token_logits(lm, np.array([5]), [], [1], 0)[0]
        assert ids.tolist() == [tokenizer.vocab.specials.eot]

    def test_model_seed_changes_prior(self, tokenizer, sm_prompt_ids):
        a = SurrogateLM(tokenizer.vocab, model_seed=0)
        b = SurrogateLM(tokenizer.vocab, model_seed=1)
        _, la = next_token_logits(a, sm_prompt_ids, ["0", "."], [1], 2)[0]
        _, lb = next_token_logits(b, sm_prompt_ids, ["0", "."], [1], 2)[0]
        assert la.shape != lb.shape or not np.allclose(la, lb)
