"""Tests for the tokenizer (digit chunking, round-trip, fallbacks)."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TokenizationError
from repro.llm.tokenizer import _PIECE_RE, Tokenizer, chunk_digits


def _pieces(tokenizer, text):
    """The surface string of each token ``text`` encodes to."""
    return list(tokenizer.vocab.strings_of(tokenizer.encode(text)))


class TestChunkDigits:
    def test_left_to_right_groups_of_three(self):
        assert chunk_digits("1234567") == ["123", "456", "7"]
        assert chunk_digits("0022155") == ["002", "215", "5"]

    def test_short_runs(self):
        assert chunk_digits("7") == ["7"]
        assert chunk_digits("42") == ["42"]
        assert chunk_digits("123") == ["123"]

    def test_non_digits_rejected(self):
        with pytest.raises(TokenizationError):
            chunk_digits("12a")


class TestValueTokenization:
    def test_paper_example_shape(self, tokenizer):
        """0.0022155 must tokenize as 0 | . | 002 | 215 | 5 (Section IV-B:
        every value string is at least three tokens with '.' second)."""
        strs = _pieces(tokenizer, "0.0022155")
        assert strs == ["0", ".", "002", "215", "5"]

    def test_xl_value_shape(self, tokenizer):
        strs = _pieces(tokenizer, "2.2767")
        assert strs == ["2", ".", "276", "7"]


class TestRoundTrip:
    CASES = [
        "Performance: 0.0022155\n",
        "Hyperparameter configuration: size is SM, first_array_packed is True",
        "for i=0 to N in tiles of size outer_loop_tiling_factor",
        "<|begin_of_text|><|start_header_id|>system<|end_header_id|>\n\nHi<|eot_id|>",
        "weird ünïcode ☃ text",
        "tabs\tand\rcarriage",
        "",
        "  leading and trailing  ",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_roundtrip(self, tokenizer, text):
        assert tokenizer.decode(tokenizer.encode(text)) == text

    @given(st.text(max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, text):
        tok = Tokenizer()
        assert tok.decode(tok.encode(text)) == text

    @given(
        st.floats(
            min_value=1e-6, max_value=1e4, allow_nan=False, allow_infinity=False
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_value_roundtrip_property(self, value):
        tok = Tokenizer()
        text = f"{value:.7f}"
        assert tok.decode(tok.encode(text)) == text


class TestSegmentation:
    def test_words_single_tokens(self, tokenizer):
        strs = _pieces(tokenizer, "the configuration")
        assert strs == ["the", " configuration"]

    def test_special_tokens_atomic(self, tokenizer):
        ids = tokenizer.encode("<|eot_id|>")
        assert ids == [tokenizer.vocab.specials.eot]

    def test_unknown_word_falls_back_to_chars(self, tokenizer):
        strs = _pieces(tokenizer, "qzxv")
        assert "".join(strs) == "qzxv"
        assert all(len(s) == 1 for s in strs)

    def test_number_after_space(self, tokenizer):
        strs = _pieces(tokenizer, "is 80")
        assert strs == ["is", " ", "80"]

    def test_double_newline_single_token(self, tokenizer):
        assert _pieces(tokenizer, "\n\n") == ["\n\n"]

    def test_unicode_via_bytes(self, tokenizer):
        ids = tokenizer.encode("é")
        assert all(tokenizer.vocab.is_byte(i) for i in ids)
        assert tokenizer.decode(ids) == "é"


# Digit-heavy text: digit runs of every length, decimals, space-prefixed
# numbers, Unicode digits the ASCII check must reject, and vocabulary words.
_DIGIT_HEAVY = st.lists(
    st.one_of(
        st.text(alphabet="0123456789 .\n:²٣é-", max_size=12),
        st.sampled_from(
            ["Performance: ", " 0.0022155", "1234567", " size", "SM", "  "]
        ),
    ),
    max_size=8,
).map("".join)


class TestDictFirstLookup:
    """``encode`` looks a whole piece up before chunking it; exact only
    while no vocabulary entry is a digit run ``_encode_piece`` would split."""

    def test_no_entry_is_a_long_or_space_prefixed_digit_run(self, tokenizer):
        vocab = tokenizer.vocab
        tokens = [vocab.string_of(i) for i in range(len(vocab))]
        bad = [t for t in tokens if re.fullmatch(r"[0-9]{4,}| [0-9]+", t)]
        assert bad == []

    @given(_DIGIT_HEAVY)
    @settings(max_examples=200, deadline=None)
    def test_encode_equals_piecewise_encode_piece(self, text):
        tok = Tokenizer()
        pieces = [m.group(0) for m in _PIECE_RE.finditer(text)]
        assert "".join(pieces) == text  # no gaps for the fallback path
        expected: list[int] = []
        for piece in pieces:
            tok._encode_piece(piece, expected)
        assert tok.encode(text) == expected
