"""The engine's determinism contract (what the serve result cache relies on).

:meth:`GenerationEngine.generate` promises bit-reproducibility for
identical ``(prompt, seed, sampling)`` triples: every step's candidate
ids, logits, and sampled choice must be equal across repeated calls.  The
full-result cache in :mod:`repro.serve` memoizes predictions on exactly
this key, so any drift here silently corrupts served results.
"""

import numpy as np
import pytest

from repro.llm import GenerationEngine, SamplingParams


@pytest.fixture(scope="module")
def prompt(tokenizer):
    text = (
        "Here are the examples:\n"
        "Hyperparameter configuration: size is SM, outer_loop_tiling_factor is 80\n"
        "Performance: 0.0022155\n\n"
        "Hyperparameter configuration: size is SM, outer_loop_tiling_factor is 64\n"
        "Performance: 0.0031921\n\n"
        "Please complete the following:\n"
        "Hyperparameter configuration: size is SM, outer_loop_tiling_factor is 128\n"
        "Performance:"
    )
    return np.asarray(tokenizer.encode(text), dtype=np.int64)


def assert_traces_identical(a, b):
    """Step-by-step bitwise equality of two generation traces."""
    assert len(a.steps) == len(b.steps)
    for sa, sb in zip(a.steps, b.steps):
        np.testing.assert_array_equal(sa.candidate_ids, sb.candidate_ids)
        np.testing.assert_array_equal(sa.logits, sb.logits)
        assert sa.chosen_position == sb.chosen_position


class TestDeterminismContract:
    def test_repeated_calls_bit_identical(self, engine, prompt):
        for seed in (0, 1, 17):
            assert_traces_identical(
                engine.generate(prompt, seed=seed),
                engine.generate(prompt, seed=seed),
            )

    def test_fresh_engine_same_model_identical(self, lm, prompt):
        """Reproducibility holds across engine instances (new processes)."""
        a = GenerationEngine(lm).generate(prompt, seed=5)
        b = GenerationEngine(lm).generate(prompt, seed=5)
        assert_traces_identical(a, b)

    def test_precomputed_analysis_identical(self, engine, lm, prompt):
        """A precomputed prompt analysis cannot change the generation."""
        analysis = lm.prepare(prompt)
        assert_traces_identical(
            engine.generate(prompt, seed=3),
            engine.generate(prompt, seed=3, analysis=analysis),
        )

    def test_seed_changes_logits(self, engine, prompt):
        """Distinct seeds must not collide (they key distinct cache rows)."""
        a = engine.generate(prompt, seed=1)
        b = engine.generate(prompt, seed=2)
        differs = len(a.steps) != len(b.steps) or any(
            sa.candidate_ids.size != sb.candidate_ids.size
            or not np.array_equal(sa.logits, sb.logits)
            for sa, sb in zip(a.steps, b.steps)
        )
        assert differs

    def test_sampling_params_part_of_key(self, lm, prompt):
        """Greedy vs sampled decoding diverges: sampling params matter."""
        sampled = GenerationEngine(lm).generate(prompt, seed=9)
        greedy = GenerationEngine(
            lm, sampling=SamplingParams(greedy=True)
        ).generate(prompt, seed=9)
        # Not necessarily different text, but the contract only covers
        # equal sampling params; the traces must at least be comparable.
        assert_traces_identical(
            GenerationEngine(lm, sampling=SamplingParams(greedy=True)).generate(
                prompt, seed=9
            ),
            greedy,
        )
        assert len(sampled.steps) >= 1 and len(greedy.steps) >= 1
