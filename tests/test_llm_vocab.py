"""Tests for the vocabulary."""

import pytest

from repro.errors import VocabularyError
from repro.llm.vocab import TokenStrings, Vocabulary, build_default_vocabulary


@pytest.fixture(scope="module")
def vocab():
    return build_default_vocabulary()


class TestConstruction:
    def test_specials_present(self, vocab):
        sp = vocab.specials
        assert vocab.string_of(sp.begin_of_text) == "<|begin_of_text|>"
        assert vocab.string_of(sp.eot) == "<|eot_id|>"

    def test_digit_tokens_complete(self, vocab):
        """All 1-, 2- and 3-digit strings exist (1110 total)."""
        assert len(vocab.digit_token_ids) == 10 + 100 + 1000
        for s in ("0", "07", "002", "999"):
            assert s in vocab

    def test_byte_fallback_complete(self, vocab):
        for b in (0, 127, 255):
            tid = vocab.byte_id(b)
            assert vocab.is_byte(tid)
            assert vocab.decode_bytes(tid) == bytes([b])

    def test_duplicate_rejected(self):
        tokens = ["<|begin_of_text|>"] * 2
        with pytest.raises(VocabularyError, match="duplicate"):
            Vocabulary(tokens)

    def test_missing_special_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary(["a", "b"])

    def test_deterministic_order(self):
        a = build_default_vocabulary()
        b = build_default_vocabulary()
        assert len(a) == len(b)
        assert a.id_of("Performance") == b.id_of("Performance")


class TestLookup:
    def test_roundtrip(self, vocab):
        tid = vocab.id_of("configuration")
        assert vocab.string_of(tid) == "configuration"

    def test_unknown_token(self, vocab):
        with pytest.raises(VocabularyError):
            vocab.id_of("zzzzzz_not_here")

    def test_out_of_range_id(self, vocab):
        with pytest.raises(VocabularyError):
            vocab.string_of(len(vocab))

    def test_bad_byte(self, vocab):
        with pytest.raises(VocabularyError):
            vocab.byte_id(256)

    def test_is_special(self, vocab):
        assert vocab.is_special(vocab.specials.eot)
        assert not vocab.is_special(vocab.id_of("0"))

    def test_decode_bytes_on_regular_token(self, vocab):
        with pytest.raises(VocabularyError):
            vocab.decode_bytes(vocab.id_of("0"))

    def test_dot_and_newline(self, vocab):
        assert vocab.string_of(vocab.dot_id) == "."
        assert vocab.string_of(vocab.newline_id) == "\n"

    def test_domain_words_present(self, vocab):
        """Every word the Figure-1 prompt uses tokenizes as one piece."""
        for w in ("Hyperparameter", "Performance", "configuration",
                  "interchange", "tiling", "packed", "SM", "XL"):
            assert w in vocab
            assert " " + w in vocab


class TestTokenStrings:
    """The compact candidate-string view reads like ``strings_of``'s tuple."""

    def test_reads_like_the_tuple(self, vocab):
        import pickle

        import numpy as np

        ids = np.array([5, 0, len(vocab) - 1, 5, 1500])
        ref = vocab.strings_of(ids)
        view = TokenStrings(vocab, ids)
        assert len(view) == len(ref)
        assert list(view) == list(ref)
        assert [view[i] for i in range(-len(ref), len(ref))] == [
            ref[i] for i in range(-len(ref), len(ref))
        ]
        assert view[1:4] == ref[1:4]
        assert view == ref and ref == view and view == TokenStrings(vocab, ids)
        assert view != ref[:-1] and view != list(ref)
        assert hash(view) == hash(ref) and repr(view) == repr(ref)
        assert ref[0] in view and view.index(ref[2]) == 2
        assert pickle.loads(pickle.dumps(view)) == ref
        assert view._ids.itemsize == 2  # the default vocabulary fits uint16

    def test_default_vocabulary_pickles_ids(self, vocab):
        """Over the default vocabulary a view crosses a pickle as its ids:
        equal, equally hashed, and smaller than the tuple of strings."""
        import pickle

        import numpy as np

        ids = np.random.default_rng(3).integers(0, len(vocab), 1500)
        view = TokenStrings(vocab, ids)
        data = pickle.dumps(view)
        back = pickle.loads(data)
        assert type(back) is TokenStrings and back._vocab is vocab
        assert back == view and tuple(back) == vocab.strings_of(ids)
        assert hash(back) == hash(view)
        assert len(data) < len(pickle.dumps(tuple(view))) / 2
        # The receiver checks the ids' range again.
        load, _ = view.__reduce__()
        with pytest.raises(VocabularyError):
            load(np.array([0, len(vocab)], dtype="<u2").tobytes())

    def test_other_vocabulary_pickles_the_tuple(self, vocab):
        import pickle

        other = Vocabulary(list(vocab.strings_of(range(len(vocab)))) + ["zzz"])
        view = TokenStrings(other, [5, len(other) - 1])
        back = pickle.loads(pickle.dumps(view))
        assert type(back) is tuple and back == ("0", "zzz") == view

    def test_out_of_range_rejected(self, vocab):
        with pytest.raises(VocabularyError):
            TokenStrings(vocab, [0, len(vocab)])
        with pytest.raises(VocabularyError):
            TokenStrings(vocab, [-1])
