"""Greedy tokenizer with Llama-3-style digit chunking.

Segmentation rules (mirroring the properties of modern BPE tokenizers that
matter for the paper's analysis):

* text is pre-split into *pieces*: runs of letters (optionally preceded by
  one space), runs of digits, and individual other characters (optionally
  space-prefixed for punctuation that has a space variant);
* digit runs are chunked **left-to-right into groups of three** — Llama 3
  tokenizes ``0022155`` as ``002 | 215 | 5`` — so every decimal value
  string becomes ``<int chunks> . <fraction chunks>``;
* each piece is looked up in the vocabulary; misses fall back to single
  characters and finally UTF-8 byte tokens, so encoding never fails and
  ``decode(encode(text)) == text`` for all text.
"""

from __future__ import annotations

import re

from repro.errors import TokenizationError
from repro.llm.vocab import Vocabulary, build_default_vocabulary

__all__ = ["chunk_digits", "splice_is_exact", "Tokenizer"]

# Pieces: special markers | space?+letters | digits | space?+single other char.
_PIECE_RE = re.compile(
    r"<\|[a-z_]+\|>"  # special tokens pass through whole
    r"|\n\n|\n"
    r"| ?[A-Za-z]+"
    r"|[0-9]+"
    r"| ?[^\sA-Za-z0-9]"
    r"| +"
)


_ASCII_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_DIGITS = frozenset("0123456789")
#: Characters that may sit inside a ``<|special|>`` marker's name.
_MARKER = frozenset("abcdefghijklmnopqrstuvwxyz_")


def splice_is_exact(left: str, right: str) -> bool:
    """Whether ``encode(left) + encode(right) == encode(left + right)``.

    The piece regex has no lookbehind, so per-piece encoding is
    position-local: the pieces of either side change only if one piece
    of the joined text straddles the join, and such a piece holds the
    last character of ``left`` immediately followed by the first of
    ``right``.  The pairs a piece can hold are a run continuing
    (letters, digits, spaces, ``\\n\\n``), a space prefixing a word or
    punctuation, and the inside of a ``<|special|>`` marker; any other
    pair splits.  ``False`` means only that the rule cannot prove it.
    """
    if not left or not right:
        return True
    x, y = left[-1], right[0]
    if x == "\n":
        return y != "\n"
    if x == " ":
        return y in _DIGITS or (y != " " and y.isspace())
    if x in _ASCII_LETTERS and y in _ASCII_LETTERS:
        return False
    if x in _DIGITS and y in _DIGITS:
        return False
    return not (
        (x in _MARKER or x in "<|") and (y in _MARKER or y in "|>")
    )


def _is_ascii_digits(s: str) -> bool:
    """ASCII-only digit check (``str.isdigit`` accepts Unicode digits
    like '²' which are not in the vocabulary's digit-chunk set)."""
    return s.isascii() and s.isdigit()


def chunk_digits(digits: str) -> list[str]:
    """Split a digit run into Llama-3-style chunks of up to three digits.

    Chunking is left-to-right: ``"1234567" -> ["123", "456", "7"]``.
    """
    if not _is_ascii_digits(digits):
        raise TokenizationError(f"not a digit run: {digits!r}")
    return [digits[i : i + 3] for i in range(0, len(digits), 3)]


class Tokenizer:
    """Encode/decode text against a :class:`Vocabulary`."""

    def __init__(self, vocab: Vocabulary | None = None):
        self.vocab = vocab or build_default_vocabulary()
        # The non-digit pieces of a plain number (see encode_number).
        self._number_marks = {m: self.encode(m) for m in (".", "e+", "e-")}

    # ------------------------------------------------------------------ #
    def encode(self, text: str) -> list[int]:
        """Encode ``text`` into token ids (never fails; byte fallback)."""
        ids: list[int] = []
        lookup = self.vocab.get
        pos = 0
        for match in _PIECE_RE.finditer(text):
            if match.start() != pos:
                # Characters the piece regex skipped (exotic whitespace).
                self._encode_fallback(text[pos : match.start()], ids)
            piece = match.group(0)
            # Whole-piece hit first: exact, since no vocabulary entry is a
            # digit run _encode_piece would chunk differently (> 3 digits).
            if (tid := lookup(piece)) is not None:
                ids.append(tid)
            else:
                self._encode_piece(piece, ids)
            pos = match.end()
        if pos != len(text):
            self._encode_fallback(text[pos:], ids)
        return ids

    def _digit_ids(self, digits: str) -> list[int]:
        """Ids of an ASCII digit run: a whole-run hit, else its chunks."""
        if (tid := self.vocab.get(digits)) is not None:
            return [tid]
        id_of = self.vocab.id_of
        return [id_of(digits[i : i + 3]) for i in range(0, len(digits), 3)]

    def encode_number(self, text: str) -> list[int] | None:
        """Encode a plain number without the piece regex.

        ``text`` is digits, optionally with a fraction and a signed
        exponent (``"12"``, ``"0.0022155"``, ``"2.2155e-03"``): the digit
        runs chunk directly, and ``.``, ``e+`` and ``e-`` are pieces of
        their own.  Returns ``encode(text)``, or ``None`` for any other
        text.
        """
        mantissa, e, exponent = text.partition("e")
        whole, dot, fraction = mantissa.partition(".")
        if not (whole.isdigit() and whole.isascii()):
            return None
        ids = self._digit_ids(whole)
        if dot:
            if not (fraction.isdigit() and fraction.isascii()):
                return None
            ids += self._number_marks["."]
            ids += self._digit_ids(fraction)
        if e:
            mark, digits = "e" + exponent[:1], exponent[1:]
            if mark not in self._number_marks or not _is_ascii_digits(digits):
                return None
            ids += self._number_marks[mark]
            ids += self._digit_ids(digits)
        return ids

    def _encode_piece(self, piece: str, ids: list[int]) -> None:
        if _is_ascii_digits(piece):
            ids.extend(self._digit_ids(piece))
        elif piece in self.vocab:
            ids.append(self.vocab.id_of(piece))
        elif piece.startswith(" ") and len(piece) > 1:
            # Space-prefixed word not in lexicon: emit the space
            # separately, then the bare word.
            ids.append(self.vocab.id_of(" "))
            bare = piece[1:]
            if _is_ascii_digits(bare) or bare in self.vocab:
                self._encode_piece(bare, ids)
            else:
                self._encode_fallback(bare, ids)
        else:
            self._encode_fallback(piece, ids)

    def _encode_fallback(self, text: str, ids: list[int]) -> None:
        """Character-then-byte fallback for out-of-lexicon text."""
        for ch in text:
            if ch in self.vocab:
                ids.append(self.vocab.id_of(ch))
            else:
                for b in ch.encode("utf-8"):
                    ids.append(self.vocab.byte_id(b))

    # ------------------------------------------------------------------ #
    def decode(self, ids) -> str:
        """Decode token ids back to text (inverse of :meth:`encode`)."""
        out: list[str] = []
        pending_bytes = bytearray()

        def flush() -> None:
            if pending_bytes:
                out.append(pending_bytes.decode("utf-8", errors="replace"))
                pending_bytes.clear()

        for token_id in ids:
            tid = int(token_id)
            if self.vocab.is_byte(tid):
                pending_bytes.extend(self.vocab.decode_bytes(tid))
            else:
                flush()
                out.append(self.vocab.string_of(tid))
        flush()
        return "".join(out)

