"""Tests for prompt assembly."""

import numpy as np
import pytest

from repro.errors import PromptError
from repro.prompts.builder import PromptBuilder


@pytest.fixture(scope="module")
def builder(sm_task, tokenizer):
    return PromptBuilder(sm_task, tokenizer)


@pytest.fixture(scope="module")
def examples(sm_dataset):
    return [
        (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
        for i in range(5)
    ]


class TestDiscriminative:
    def test_structure(self, builder, examples, sm_dataset):
        parts = builder.discriminative(examples, sm_dataset.config(100))
        text = parts.text
        assert text.startswith("<|begin_of_text|>")
        assert "<|start_header_id|>system<|end_header_id|>" in text
        assert "Here are the examples:" in text
        assert "Please complete the following:" in text
        assert text.endswith("<|start_header_id|>assistant<|end_header_id|>\n\n")
        # The query block is open-ended.
        assert text.rstrip().split("Performance:")[-1].startswith("<|eot_id|>")

    def test_icl_values_tracked(self, builder, examples, sm_dataset):
        parts = builder.discriminative(examples, sm_dataset.config(100))
        assert len(parts.icl_value_strings) == 5
        assert parts.n_examples == 5
        for v in parts.icl_value_strings:
            assert v in parts.text

    def test_ids_decode_to_text(self, builder, examples, sm_dataset, tokenizer):
        parts = builder.discriminative(examples, sm_dataset.config(100))
        assert tokenizer.decode(parts.ids) == parts.text

    def test_empty_examples_rejected(self, builder, sm_dataset):
        with pytest.raises(PromptError):
            builder.discriminative([], sm_dataset.config(0))

    def test_prompt_grows_with_examples(self, builder, sm_dataset):
        ex = [
            (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
            for i in range(50)
        ]
        small = builder.discriminative(ex[:5], sm_dataset.config(100))
        large = builder.discriminative(ex, sm_dataset.config(100))
        assert large.ids.size > small.ids.size


class TestGenerative:
    def test_bucket_labels(self, builder, sm_dataset):
        ex = [(sm_dataset.config(i), i % 5) for i in range(5)]
        parts = builder.generative(ex, sm_dataset.config(100), n_buckets=5)
        assert "Performance bucket:" in parts.text
        assert "discretized into 5 buckets" in parts.text
        assert parts.icl_value_strings == ["0", "1", "2", "3", "4"]

    def test_bucket_range_checked(self, builder, sm_dataset):
        with pytest.raises(PromptError):
            builder.generative(
                [(sm_dataset.config(0), 9)], sm_dataset.config(1), n_buckets=5
            )

    def test_needs_two_buckets(self, builder, sm_dataset):
        with pytest.raises(PromptError):
            builder.generative(
                [(sm_dataset.config(0), 0)], sm_dataset.config(1), n_buckets=1
            )


class TestCandidateSampling:
    def test_target_in_prompt(self, builder, examples):
        parts = builder.candidate_sampling(examples, 0.002)
        assert "Performance: 0.0020000" in parts.text
        assert parts.text.rstrip().split("\n")[-1].startswith(
            "Hyperparameter configuration:"
        ) or "Hyperparameter configuration:<|eot_id|>" in parts.text

    def test_empty_examples_rejected(self, builder):
        with pytest.raises(PromptError):
            builder.candidate_sampling([], 0.002)


class TestSharedBuilder:
    def test_concurrent_builds_under_memo_turnover(
        self, sm_task, tokenizer, sm_dataset, monkeypatch
    ):
        """A service builds prompts on several threads through one
        builder.  With a memo limit small enough that the memo is
        cleared while other threads read it, every prompt's ids still
        equal the encoding of its text."""
        import sys
        import threading

        from repro.prompts import builder as builder_module

        monkeypatch.setattr(builder_module, "_MEMO_LIMIT", 5)
        shared = PromptBuilder(sm_task, tokenizer)
        errors = []

        def work(offset):
            try:
                for k in range(12):
                    rows = range(offset + k, offset + k + 6)
                    examples = [
                        (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
                        for i in rows
                    ]
                    parts = shared.discriminative(
                        examples, sm_dataset.config(200 + k)
                    )
                    if parts.ids.tolist() != tokenizer.encode(parts.text):
                        errors.append((offset, k))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(17 * t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
