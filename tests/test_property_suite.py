"""Cross-module property-based tests (hypothesis).

These check invariants that span subsystem boundaries — the places unit
tests of single modules cannot reach.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.decoding import StepCandidates, enumerate_value_decodings
from repro.analysis.metrics import mare, msre, r2_score
from repro.dataset import generate_dataset, syr2k_space
from repro.llm.tokenizer import Tokenizer, chunk_digits
from repro.prompts.parser import extract_prediction
from repro.prompts.serialize import format_runtime
from repro.utils.rng import derive_seed

_SPACE = syr2k_space()
_TOK = Tokenizer()

index_strategy = st.integers(min_value=0, max_value=_SPACE.size - 1)
runtime_strategy = st.floats(
    min_value=1e-4, max_value=9.99, allow_nan=False, allow_infinity=False
)


class TestSpaceSerializationRoundtrip:
    @given(index_strategy)
    @settings(max_examples=50, deadline=None)
    def test_index_config_serialize_parse_roundtrip(self, idx):
        """space index -> config -> prompt text -> parsed config -> index."""
        from repro.prompts.serialize import deserialize_config, serialize_config

        cfg = _SPACE.from_index(idx)
        text = serialize_config(cfg, "SM")
        parsed, size = deserialize_config(text, _SPACE)
        assert size == "SM"
        assert _SPACE.to_index(parsed) == idx


class TestValueStringPipeline:
    @given(runtime_strategy)
    @settings(max_examples=60, deadline=None)
    def test_serialize_tokenize_parse_roundtrip(self, value):
        """runtime -> formatted string -> tokens -> decoded -> parsed value
        agrees with the original within formatting precision."""
        text = format_runtime(value)
        ids = _TOK.encode(text)
        decoded = _TOK.decode(ids)
        assert decoded == text
        parsed, matched = extract_prediction(decoded)
        assert matched == text
        assert parsed == pytest.approx(float(text))

    @given(runtime_strategy)
    @settings(max_examples=40, deadline=None)
    def test_value_token_shape(self, value):
        """Every serialized runtime begins digit-chunk, then '.', and every
        later token is a digit chunk (Section IV-B's premise)."""
        strs = _TOK.vocab.strings_of(_TOK.encode(format_runtime(value)))
        assert strs[0].isdigit()
        assert strs[1] == "."
        assert all(s.isdigit() for s in strs[2:])

    @given(st.text(alphabet="0123456789", min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_chunking_partitions(self, digits):
        chunks = chunk_digits(digits)
        assert "".join(chunks) == digits
        assert all(1 <= len(c) <= 3 for c in chunks)
        assert all(len(c) == 3 for c in chunks[:-1])


class TestDecodingInvariants:
    @given(
        st.lists(
            st.lists(
                st.sampled_from(["0", "1", "27", "003", ".", "\n"]),
                min_size=1,
                max_size=4,
                unique=True,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_enumeration_sound(self, token_lists):
        """Every enumerated candidate is a parsable decimal whose tokens
        come from the per-step candidate sets."""
        steps = [
            StepCandidates(tuple(toks), np.zeros(len(toks)), 0)
            for toks in token_lists
        ]
        alts = enumerate_value_decodings(steps, max_candidates=200)
        for cand in alts.candidates:
            assert cand.value == float(cand.text)
            assert cand.text.count(".") <= 1
        # Probabilities are a distribution when any candidate exists.
        if alts.candidates:
            assert abs(alts.probs.sum() - 1.0) < 1e-9

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_seed_derivation_stable_and_spread(self, seed):
        children = {derive_seed(seed, "x", i) for i in range(16)}
        assert len(children) == 16


class TestMetricRelations:
    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=100, allow_nan=False),
            min_size=2,
            max_size=12,
        ),
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_msre_at_most_mare_squared_bound(self, truths, shift):
        """For a constant *relative* shift r, MARE = |r| and MSRE = r^2."""
        y = np.asarray(truths)
        pred = y * (1 + shift)
        assert mare(y, pred) == pytest.approx(abs(shift))
        assert msre(y, pred) == pytest.approx(shift**2)

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=3,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_r2_shift_invariance(self, values):
        """R^2 is invariant under adding a constant to both vectors."""
        y = np.asarray(values)
        if np.allclose(y, y[0]):
            return
        pred = y * 0.9 + 0.3
        a = r2_score(y, pred)
        b = r2_score(y + 5.0, pred + 5.0)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


class TestDatasetPipelineInvariants:
    def test_every_size_generates_positive_runtimes(self):
        for size in ("S", "M", "ML", "L"):
            ds = generate_dataset(size, indices=range(500))
            assert (ds.runtimes > 0).all()
            assert np.isfinite(ds.runtimes).all()

    def test_size_ordering_of_runtimes(self):
        """Bigger problems run longer (median over a fixed config subset)."""
        medians = []
        for size in ("S", "SM", "M", "ML", "L", "XL"):
            ds = generate_dataset(size, indices=range(300))
            medians.append(float(np.median(ds.runtimes)))
        assert medians == sorted(medians)
