"""Tests for generation traces."""

import numpy as np
import pytest

from repro.errors import GenerationError
from repro.llm.trace import GenerationStep, GenerationTrace


def _step(ids, chosen):
    return GenerationStep(
        candidate_ids=np.asarray(ids),
        logits=np.zeros(len(ids)),
        chosen_position=chosen,
    )


class TestGenerationStep:
    def test_chosen_id(self):
        s = _step([5, 6, 7], 1)
        assert s.chosen_id == 6
        assert s.n_candidates == 3

    def test_out_of_range_chosen(self):
        with pytest.raises(GenerationError):
            _step([5], 1)

    def test_shape_mismatch(self):
        with pytest.raises(GenerationError):
            GenerationStep(np.array([1, 2]), np.zeros(3), 0)


class TestGenerationTrace:
    def _trace_for(self, tokenizer, token_strings):
        vocab = tokenizer.vocab
        trace = GenerationTrace(prompt_ids=np.array([1, 2, 3]), seed=7)
        for s in token_strings:
            tid = vocab.id_of(s)
            trace.steps.append(_step([tid, vocab.specials.eot], 0))
        return trace

    def test_generated_text(self, tokenizer):
        trace = self._trace_for(tokenizer, ["0", ".", "002"])
        assert trace.generated_text(tokenizer.vocab) == "0.002"

    def test_specials_skipped_in_text(self, tokenizer):
        vocab = tokenizer.vocab
        trace = GenerationTrace(prompt_ids=np.array([1]))
        trace.steps.append(_step([vocab.id_of("0")], 0))
        trace.steps.append(_step([vocab.specials.eot], 0))
        assert trace.generated_text(vocab) == "0"

    def test_value_region_starts_at_first_digit(self, tokenizer):
        trace = self._trace_for(tokenizer, ["Performance", ":", "0", "."])
        region = trace.value_region(tokenizer.vocab)
        assert len(region) == 2
        assert region[0].chosen_token == "0"

    def test_value_region_empty_without_digits(self, tokenizer):
        trace = self._trace_for(tokenizer, ["The", " answer"])
        assert trace.value_region(tokenizer.vocab) == []

    def test_len_and_generated_ids(self, tokenizer):
        trace = self._trace_for(tokenizer, ["0", "."])
        assert len(trace) == 2
        assert len(trace.generated_ids) == 2
