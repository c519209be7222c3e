"""Tests for the surrogate-LM scorers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.llm.scorers import (
    FormatAnalysis,
    FormatScorer,
    InductionScorer,
    PriorScorer,
    RecencyUnigramScorer,
    SparseScores,
)
from repro.llm.tokenizer import Tokenizer


@pytest.fixture(scope="module")
def tok():
    return Tokenizer()


def _reference_sum_by_id(ids, values):
    """The ``np.unique`` + ``np.add.at`` accumulation the kernels replaced."""
    uniq, inverse = np.unique(ids, return_inverse=True)
    summed = np.zeros(uniq.size)
    np.add.at(summed, inverse, values)
    return uniq, summed


#: Score values that repeat, cancel to exactly zero and carry -0.0, so a
#: kernel that changes summation order or drops zero sums shows.
_scores = st.one_of(
    st.sampled_from([1.0, -1.0, 0.1, 0.2, 0.3, -0.0, 1e-17, -7.25]),
    st.floats(-50, 50, allow_nan=False),
)


class TestSparseScores:
    def test_accumulate_sums_overlap(self):
        a = SparseScores(np.array([1, 2]), np.array([1.0, 2.0]))
        b = SparseScores(np.array([2, 3]), np.array([5.0, 7.0]))
        merged = SparseScores.accumulate([a, b])
        by_id = dict(zip(merged.ids.tolist(), merged.scores.tolist()))
        assert by_id == {1: 1.0, 2: 7.0, 3: 7.0}

    def test_accumulate_empty(self):
        assert SparseScores.accumulate([]).ids.size == 0
        assert SparseScores.accumulate([SparseScores.empty()]).ids.size == 0

    @settings(max_examples=300, deadline=None)
    @given(
        parts=st.lists(
            st.lists(st.tuples(st.integers(0, 12), _scores), max_size=15),
            max_size=4,
        )
    )
    def test_accumulate_equals_unique_add_at(self, parts):
        sparse = [
            SparseScores(
                np.array([i for i, _ in p], dtype=np.int64),
                np.array([v for _, v in p], dtype=float),
            )
            for p in parts
        ]
        got = SparseScores.accumulate(sparse)
        nonempty = [p for p in sparse if p.ids.size]
        if not nonempty:
            assert got.ids.size == 0
            return
        ids, summed = _reference_sum_by_id(
            np.concatenate([p.ids for p in nonempty]),
            np.concatenate([p.scores for p in nonempty]),
        )
        assert np.array_equal(got.ids, ids)
        assert got.scores.tobytes() == summed.tobytes()  # -0.0 included

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SparseScores(np.array([1]), np.array([1.0, 2.0]))


class TestInductionScorer:
    def test_single_continuation_dominates(self):
        """Context 'A B A B A' -> suffix ...'A' was always followed by 'B'."""
        ctx = np.array([10, 20, 10, 20, 10])
        scores = InductionScorer().score(ctx)
        by_id = dict(zip(scores.ids.tolist(), scores.scores.tolist()))
        assert max(by_id, key=by_id.get) == 20

    def test_longer_match_wins(self):
        """'X Y Z ... Q Y Z' — the length-2 match (-> after 'Y Z') should
        out-vote length-1 matches of 'Z' elsewhere."""
        # tokens: 1 2 3 | 9 5 3 7 | 1 2 3 -> suffix [2,3]; after [2,3] came 4
        ctx = np.array([1, 2, 3, 4, 9, 5, 3, 7, 1, 2, 3])
        scores = InductionScorer().score(ctx)
        by_id = dict(zip(scores.ids.tolist(), scores.scores.tolist()))
        assert by_id[4] > by_id[7]  # 7 only follows a length-1 '3' match

    def test_no_match_empty(self):
        scores = InductionScorer().score(np.array([1, 2, 3]))
        # suffix token 3 never occurred before -> only weaker L=... nothing
        assert scores.ids.size == 0

    def test_recency_bias(self):
        """Matches near the end vote more strongly."""
        far = [5, 77] + [9] * 50
        near = [9] * 50 + [5, 88]
        ctx = np.array(far + near + [5])
        scorer = InductionScorer(recency_halflife=30.0)
        scores = scorer.score(ctx)
        by_id = dict(zip(scores.ids.tolist(), scores.scores.tolist()))
        assert by_id[88] > by_id[77]

    def test_offset_shift(self):
        ctx = np.array([1, 2, 1, 2, 1])
        plain = InductionScorer().score(ctx)
        shifted = InductionScorer().score(ctx, offset_shift=-3.0)
        np.testing.assert_allclose(shifted.scores, plain.scores - 3.0)

    def test_short_context_empty(self):
        assert InductionScorer().score(np.array([1])).ids.size == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            InductionScorer(max_ngram=0)
        with pytest.raises(ValueError):
            InductionScorer(match_base=0.5)

    def test_index_rejects_keys_that_overflow_int64(self):
        # 2**16 + 1 ids: a 4-gram key needs more than 64 bits.
        with pytest.raises(ValueError, match="overflow int64"):
            InductionScorer(max_ngram=4).build_index(np.array([0, 2**16]))
        InductionScorer(max_ngram=3).build_index(np.array([0, 2**16]))


@st.composite
def _split_context(draw):
    """A highly repetitive context and a prefix cut point ``p``.

    Prefix ids come from a tiny alphabet.  Suffix ids may exceed every
    prefix id, by a little or far past the index's radix.  Prefixes and
    suffixes are often shorter than ``max_ngram``: a match then
    straddles the cut, needs more tokens than the tail holds, or would
    start before the context does.  ``p`` covers ``0..n``.
    """
    alphabet = draw(st.integers(1, 4))
    prefix_id = st.integers(0, alphabet - 1)
    prefix = draw(
        st.one_of(
            st.lists(prefix_id, max_size=4), st.lists(prefix_id, max_size=40)
        )
    )
    suffix_id = st.one_of(
        st.integers(0, alphabet + 2), st.integers(alphabet, 5000)
    )
    suffix = draw(
        st.one_of(
            st.lists(suffix_id, max_size=3), st.lists(suffix_id, max_size=12)
        )
    )
    return np.asarray(prefix + suffix, dtype=np.int64), len(prefix)


class TestInductionIndexProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        split=_split_context(),
        max_ngram=st.integers(1, 5),
        shift=st.sampled_from([0.0, -1.5]),
    )
    def test_indexed_equals_reference(self, split, max_ngram, shift):
        ctx, p = split
        scorer = InductionScorer(max_ngram=max_ngram, recency_halflife=7.0)
        ref = scorer.score(ctx, offset_shift=shift)
        got = scorer.score_indexed(
            ctx, scorer.build_index(ctx[:p]), p, offset_shift=shift
        )
        assert np.array_equal(got.ids, ref.ids)
        assert np.array_equal(got.scores, ref.scores)


class TestRecencyUnigram:
    def test_frequency_order(self):
        ctx = np.array([7, 7, 7, 8])
        scores = RecencyUnigramScorer(halflife=1e9).score(ctx)
        by_id = dict(zip(scores.ids.tolist(), scores.scores.tolist()))
        assert by_id[7] > by_id[8]

    def test_recency_tilts(self):
        """With a short halflife, the most recent token beats an older,
        slightly more frequent one."""
        ctx = np.array([7, 7] + [0] * 30 + [8])
        scores = RecencyUnigramScorer(halflife=3.0).score(ctx)
        by_id = dict(zip(scores.ids.tolist(), scores.scores.tolist()))
        assert by_id[8] > by_id[7]

    def test_empty(self):
        assert RecencyUnigramScorer().score(np.array([])).ids.size == 0

    def test_invalid_halflife(self):
        with pytest.raises(ValueError):
            RecencyUnigramScorer(halflife=0)

    @settings(max_examples=300, deadline=None)
    @given(
        ctx=st.lists(
            st.one_of(st.integers(0, 5), st.integers(0, 3000)), max_size=300
        ),
        halflife=st.sampled_from([1.0, 7.0, 1500.0]),
    )
    def test_bincount_equals_unique_add_at(self, ctx, halflife):
        """The ``bincount`` kernel against the ``np.unique`` + ``add.at``
        formulation it replaced, bit for bit."""
        ctx = np.asarray(ctx, dtype=np.int64)
        scorer = RecencyUnigramScorer(halflife=halflife)
        got = scorer.score(ctx)
        if ctx.size == 0:
            assert got.ids.size == 0
            return
        n = ctx.size
        weights = np.exp(-(np.log(2.0) / halflife) * (n - 1 - np.arange(n)))
        uniq, mass = _reference_sum_by_id(ctx, weights)
        p = mass / mass.sum()
        assert np.array_equal(got.ids, uniq)
        assert np.array_equal(got.scores, scorer.scale * np.log(p + 1e-12))


class TestFormatScorer:
    def _analysis(self, tok, text):
        fs = FormatScorer(tok.vocab)
        return fs, fs.analyze_prompt(np.asarray(tok.encode(text)))

    def test_analyze_finds_start_votes(self, tok):
        fs, analysis = self._analysis(
            tok, "Performance: 0.0022155\nPerformance: 0.0031921\n"
        )
        zero = tok.vocab.id_of("0")
        assert set(analysis.start_votes) == {zero}
        assert analysis.expected_decimals == 7

    def test_analyze_collects_fraction_prefixes(self, tok):
        fs, analysis = self._analysis(
            tok, "Performance: 0.0022155\nPerformance: 0.0031921\n"
        )
        assert sorted(analysis.fraction_prefixes) == ["002", "003"]

    def test_analyze_xl_decimals(self, tok):
        fs, analysis = self._analysis(tok, "Performance: 2.2767\n")
        assert analysis.expected_decimals == 4

    def test_analyze_no_cue(self, tok):
        fs, analysis = self._analysis(tok, "no values here at all")
        assert analysis.start_votes == {}
        assert analysis.expected_decimals is None

    def test_value_state_phases(self, tok):
        fs = FormatScorer(tok.vocab)
        assert fs.value_state([]).phase == "preamble"
        assert fs.value_state(["Performance", ":"]).phase == "preamble"
        assert fs.value_state(["0"]).phase == "value"
        s = fs.value_state(["0", ".", "002"])
        assert s.phase == "value" and s.seen_dot and s.digits_after_dot == 3
        assert fs.value_state(["0", ".", "002", "\n"]).phase == "done"

    def test_dot_boost_only_after_integer(self, tok):
        fs, analysis = self._analysis(tok, "Performance: 0.0022155\n")
        scores = fs.score(["0"], analysis)
        by_id = dict(zip(scores.ids.tolist(), scores.scores.tolist()))
        assert by_id[tok.vocab.dot_id] == pytest.approx(fs.dot_boost)

    def test_termination_after_expected_decimals(self, tok):
        fs, analysis = self._analysis(tok, "Performance: 0.0022155\n")
        done = fs.score(["0", ".", "002", "215", "5"], analysis)
        by_id = dict(zip(done.ids.tolist(), done.scores.tolist()))
        assert by_id[tok.vocab.newline_id] > 0

    def test_premature_stop_penalized(self, tok):
        fs, analysis = self._analysis(tok, "Performance: 0.0022155\n")
        early = fs.score(["0", ".", "002"], analysis)
        by_id = dict(zip(early.ids.tolist(), early.scores.tolist()))
        assert by_id[tok.vocab.newline_id] < 0

    def test_digit_noise_restricted_to_remaining(self, tok):
        fs, analysis = self._analysis(tok, "Performance: 2.2767\n")
        # after "2", ".", "276": one decimal remains -> only 1-digit tokens
        noise = fs.digit_noise(["2", ".", "276"], analysis)
        strings = [tok.vocab.string_of(int(i)) for i in noise.ids]
        assert all(len(s) == 1 for s in strings)
        assert noise.scores.sum() == pytest.approx(1.0)

    def test_digit_noise_empty_when_complete(self, tok):
        fs, analysis = self._analysis(tok, "Performance: 2.2767\n")
        assert fs.digit_noise(["2", ".", "276", "7"], analysis).ids.size == 0

    def test_digit_noise_prefix_affinity(self, tok):
        """First-chunk noise concentrates on demonstrated prefixes."""
        fs, analysis = self._analysis(
            tok, "Performance: 0.0022155\nPerformance: 0.0021042\n"
        )
        noise = fs.digit_noise(["0", "."], analysis)
        by_str = {
            tok.vocab.string_of(int(i)): float(s)
            for i, s in zip(noise.ids, noise.scores)
        }
        affine_mass = sum(v for k, v in by_str.items() if k.startswith("00"))
        loose_mass = sum(v for k, v in by_str.items() if k.startswith("0"))
        assert affine_mass > 0.7
        assert loose_mass > 0.85

    @settings(max_examples=150, deadline=None)
    @given(
        # "٣" is a digit to ``str.isdigit`` but heads no vocabulary chunk.
        fraction_prefixes=st.lists(
            st.text(alphabet="0123456789٣", max_size=3), max_size=6
        ),
        expected=st.integers(1, 8),
        generated=st.sampled_from([["0", "."], ["2", "."], ["0", ".", "01"]]),
    )
    def test_digit_noise_matches_per_string_loop(
        self, tok, fraction_prefixes, expected, generated
    ):
        fs = FormatScorer(tok.vocab)
        analysis = FormatAnalysis(
            expected_decimals=expected, fraction_prefixes=fraction_prefixes
        )
        got = fs.digit_noise(generated, analysis)
        ref = _reference_digit_noise(fs, generated, analysis)
        assert np.array_equal(got.ids, ref.ids)
        assert np.array_equal(got.scores, ref.scores)

    def test_done_state_boosts_eot(self, tok):
        fs = FormatScorer(tok.vocab)
        scores = fs.score(["0", ".", "1", " "], None)
        assert scores.ids.tolist() == [tok.vocab.specials.eot]


def _reference_digit_noise(fs, generated_strings, analysis):
    """``FormatScorer.digit_noise`` with its prefix affinity computed by
    the original per-string loop (the vectorised form must match it)."""
    state = fs.value_state(generated_strings)
    if state.phase != "value" or not state.seen_dot:
        return SparseScores.empty()
    remaining = fs.expected_decimals(analysis) - state.digits_after_dot
    if remaining <= 0:
        return SparseScores.empty()
    lengths = fs._digit_lengths
    preferred = min(3, remaining)
    fit = lengths <= remaining
    if not fit.any():
        return SparseScores.empty()
    fit_ids = fs._digit_ids[fit]
    logits = fs.digit_jitter * fs._jitter[fit].copy()
    logits -= 3.5 * (lengths[fit] != preferred)
    if state.digits_after_dot == 0 and analysis:
        prefixes = {p[:2] for p in analysis.fraction_prefixes if p}
        singles = {p[0] for p in analysis.fraction_prefixes if p}
        if prefixes or singles:
            strings = [fs.vocab.string_of(int(i)) for i in fit_ids]
            affinity = np.zeros(fit_ids.size)
            for k, s in enumerate(strings):
                if s[:2] in prefixes:
                    affinity[k] = 8.0
                elif s[0] in singles:
                    affinity[k] = 4.0
            logits = logits + affinity
    z = logits - logits.max()
    q = np.exp(z)
    q /= q.sum()
    return SparseScores(fit_ids, q)


class TestPriorScorer:
    def test_magnitude_sm_prefers_zero(self, tok):
        ps = PriorScorer(tok.vocab)
        scores = ps.first_token_magnitude("SM")
        assert scores.ids.tolist() == [tok.vocab.id_of("0")]

    def test_magnitude_xl_prefers_nonzero(self, tok):
        ps = PriorScorer(tok.vocab)
        scores = ps.first_token_magnitude("XL")
        strings = {tok.vocab.string_of(int(i)) for i in scores.ids}
        assert strings == {str(d) for d in range(1, 10)}

    def test_unknown_size_empty(self, tok):
        assert PriorScorer(tok.vocab).first_token_magnitude(None).ids.size == 0

    def test_bias_deterministic(self, tok):
        a = PriorScorer(tok.vocab, prior_seed=3)
        b = PriorScorer(tok.vocab, prior_seed=3)
        ids = np.array([1, 2, 3])
        np.testing.assert_array_equal(a.bias_for(ids), b.bias_for(ids))

    def test_bias_seed_sensitive(self, tok):
        a = PriorScorer(tok.vocab, prior_seed=3)
        b = PriorScorer(tok.vocab, prior_seed=4)
        ids = np.array([1, 2, 3])
        assert not np.array_equal(a.bias_for(ids), b.bias_for(ids))
