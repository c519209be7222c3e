"""Deterministic vocabulary for the surrogate LM.

The vocabulary is built once, in a fixed order, so token ids are stable
across runs and machines:

1. special tokens (Llama-3-style chat markers);
2. all 1-, 2- and 3-digit strings (1110 tokens) — the number pieces whose
   combinatorics Table II analyses;
3. punctuation/whitespace pieces;
4. a fixed English + HPC-domain word lexicon, each word in bare and
   leading-space form (GPT/Llama tokenizers mark word starts with a space);
5. 256 byte-fallback tokens ``<0xNN>`` guaranteeing any text round-trips.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import VocabularyError

__all__ = [
    "SpecialTokens",
    "TokenStrings",
    "Vocabulary",
    "build_default_vocabulary",
    "WORD_LEXICON",
]


@dataclass(frozen=True)
class SpecialTokens:
    """Ids of the structural chat tokens."""

    begin_of_text: int
    end_of_text: int
    start_header: int
    end_header: int
    eot: int  # end of turn


_SPECIAL_STRINGS = (
    "<|begin_of_text|>",
    "<|end_of_text|>",
    "<|start_header_id|>",
    "<|end_header_id|>",
    "<|eot_id|>",
)

_PUNCTUATION = (
    "\n", "\n\n", " ", "  ", ".", ",", ":", ";", "'", '"', "!", "?",
    "(", ")", "[", "]", "{", "}", "-", "--", "_", "*", "**", "/", "\\",
    "=", "+", "<", ">", "#", "%", "&", "|", "~", "`",
    ". ", ", ", ": ", " .", " ,", " :",
)

#: Words common in English plus every domain word the prompt templates use.
#: Extending this list only *improves* tokenization compactness — anything
#: missing falls back to characters/bytes and still round-trips.
WORD_LEXICON: tuple[str, ...] = tuple(
    sorted(
        set(
            """
            a an the is are was were be been being and or not no yes of to in
            for on with by as at from into over under between without within
            this that these those it its they them their there here you your
            yours we our i me my he she his her will would can could may might
            must shall should do does did done have has had having if then
            else when where which what who whom whose why how all any each
            every some few more most other another such only own same so than
            too very just also but because while after before during about
            against again further once both number numbers value values lower
            higher better worse best worst smallest largest small large
            provide provided provides following follow follows followed
            example examples demonstrate demonstrated demonstrates answer
            answers respond response format formats formatted infer inferred
            based need needs needed given problem problems consider considers
            considered user users describe described describes description
            specific context contexts alter altered propose proposed
            configuration configurations hyperparameter hyperparameters
            performance objective objectives runtime runtimes program
            programs compiled compiler source code segment optimization
            optimizations optimize optimized loop loops nest nests tile tiles
            tiled tiling factor factors size sizes input inputs output
            outputs array arrays scalar constant alpha data dataset datasets
            regression feature features rich text based csv represent
            represented representation representing measure measures relative
            relativistic invariant denotes denote sorted smallest largest
            packed packing pack interchange interchanged interchangeable
            outer middle inner outermost innermost first second third two
            three independently independent optional optionally component
            bucket buckets discretized numbered fastest slowest label
            labeled labels index achieve achieves proposing target
            classification Performance

            components tunable options option space spaces parameter
            parameters please complete completion thought process explain
            explanation True False S SM M ML L XL System Instructions
            The Performance Hyperparameter Here Please Do NOT ONLY Tunable
            Sizes Size A B C N code pseudocode
            """.split()
        )
    )
)


class Vocabulary:
    """An immutable bidirectional token-string/id mapping."""

    def __init__(self, tokens: list[str]):
        if len(set(tokens)) != len(tokens):
            dupes = sorted({t for t in tokens if tokens.count(t) > 1})
            raise VocabularyError(f"duplicate token strings: {dupes[:5]}")
        self._tokens = tuple(tokens)
        self._ids = {t: i for i, t in enumerate(self._tokens)}
        #: ``get(token)``: its id, or None if absent (the encoder's lookup).
        self.get = self._ids.get
        try:
            self.specials = SpecialTokens(
                begin_of_text=self._ids["<|begin_of_text|>"],
                end_of_text=self._ids["<|end_of_text|>"],
                start_header=self._ids["<|start_header_id|>"],
                end_header=self._ids["<|end_header_id|>"],
                eot=self._ids["<|eot_id|>"],
            )
        except KeyError as exc:
            raise VocabularyError(f"missing special token: {exc}") from None
        self._byte_ids = {}
        for b in range(256):
            tok = f"<0x{b:02X}>"
            if tok not in self._ids:
                raise VocabularyError(f"missing byte-fallback token {tok}")
            self._byte_ids[b] = self._ids[tok]
        self._digit_ids = tuple(
            i
            for i, t in enumerate(self._tokens)
            if t.isdigit() and len(t) <= 3
        )

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str) -> int:
        """Id of an exact token string."""
        try:
            return self._ids[token]
        except KeyError:
            raise VocabularyError(f"token {token!r} not in vocabulary") from None

    def string_of(self, token_id: int) -> str:
        """Token string for an id (byte tokens render as ``<0xNN>``)."""
        if not 0 <= token_id < len(self._tokens):
            raise VocabularyError(
                f"token id {token_id} out of range ({len(self._tokens)})"
            )
        return self._tokens[token_id]

    def strings_of(self, token_ids) -> tuple[str, ...]:
        """Token strings for a sequence of ids (bulk :meth:`string_of`).

        One bounds check for the whole batch instead of per id; the trace
        post-processing layer converts every recorded candidate set and is
        by far the heaviest ``string_of`` caller.
        """
        ids = self._checked(token_ids)
        tokens = self._tokens
        return tuple(tokens[i] for i in ids.tolist())

    def _checked(self, token_ids) -> np.ndarray:
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.size and not (0 <= int(ids.min()) and int(ids.max()) < len(self._tokens)):
            raise VocabularyError(
                f"token id out of range ({len(self._tokens)})"
            )
        return ids

    def byte_id(self, byte: int) -> int:
        """Id of the byte-fallback token for ``byte``."""
        if not 0 <= byte < 256:
            raise VocabularyError(f"byte must be in [0, 256), got {byte}")
        return self._byte_ids[byte]

    def is_byte(self, token_id: int) -> bool:
        """Whether an id is a byte-fallback token."""
        s = self.string_of(token_id)
        return len(s) == 6 and s.startswith("<0x") and s.endswith(">")

    def is_special(self, token_id: int) -> bool:
        """Whether an id is a structural special token."""
        sp = self.specials
        return token_id in (
            sp.begin_of_text,
            sp.end_of_text,
            sp.start_header,
            sp.end_header,
            sp.eot,
        )

    def decode_bytes(self, token_id: int) -> bytes:
        """The raw byte of a byte-fallback token."""
        s = self.string_of(token_id)
        if not self.is_byte(token_id):
            raise VocabularyError(f"token {s!r} is not a byte token")
        return bytes([int(s[3:5], 16)])

    @property
    def digit_token_ids(self) -> tuple[int, ...]:
        """Ids of all pure-digit tokens (1, 2, and 3 digit strings)."""
        return self._digit_ids

    @property
    def dot_id(self) -> int:
        """Id of the ``"."`` token."""
        return self.id_of(".")

    @property
    def newline_id(self) -> int:
        """Id of the ``"\\n"`` token."""
        return self.id_of("\n")


@functools.cache
def build_default_vocabulary() -> Vocabulary:
    """The library's canonical vocabulary (deterministic order).

    Built once per process and shared: a vocabulary is immutable, and
    :class:`TokenStrings` pickles against this instance.
    """
    tokens: list[str] = list(_SPECIAL_STRINGS)
    # 1-, 2-, 3-digit strings, shortest first, numeric order.
    for width in (1, 2, 3):
        tokens.extend(str(i).zfill(width) for i in range(10**width))
    seen = set(tokens)
    for p in _PUNCTUATION:
        if p not in seen:
            tokens.append(p)
            seen.add(p)
    for word in WORD_LEXICON:
        for variant in (word, " " + word):
            if variant not in seen:
                tokens.append(variant)
                seen.add(variant)
    # Single printable ASCII characters (bare and space-prefixed letters)
    # give a graceful char-level fallback before bytes.
    for code in range(33, 127):
        ch = chr(code)
        if ch not in seen:
            tokens.append(ch)
            seen.add(ch)
    for b in range(256):
        tok = f"<0x{b:02X}>"
        if tok not in seen:
            tokens.append(tok)
            seen.add(tok)
    return Vocabulary(tokens)


#: Byte layout of pickled default-vocabulary ids (it has < 65,536 tokens).
_WIRE_IDS = np.dtype("<u2")


class TokenStrings(Sequence):
    """The token strings of an id array, looked up when read.

    Reads like the tuple :meth:`Vocabulary.strings_of` returns (``len``,
    indexing, iteration, hashing, equality with tuples) but keeps the ids
    in the narrowest unsigned dtype, 2 bytes each for the default
    vocabulary, instead of an 8-byte pointer per string.  A recorded
    candidate set runs to ~1,200 tokens, and those pointers were a third
    of what a cached prediction held.  Over the default vocabulary it
    pickles as its ids, which the receiver reads against its own copy of
    that deterministic vocabulary (checking their range again); over
    any other it pickles as the plain tuple.
    """

    __slots__ = ("_vocab", "_ids")

    def __init__(self, vocab: Vocabulary, token_ids):
        self._vocab = vocab
        self._ids = vocab._checked(token_ids).astype(
            np.min_scalar_type(len(vocab) - 1)
        )

    def __len__(self) -> int:
        return self._ids.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        return self._vocab._tokens[self._ids[index]]

    def __iter__(self):
        # The ids were range-checked once, on construction.
        return map(self._vocab._tokens.__getitem__, self._ids.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, TokenStrings)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        if self._vocab is build_default_vocabulary():
            data = self._ids.astype(_WIRE_IDS, copy=False).tobytes()
            return (_default_token_strings, (data,))
        return (tuple, (tuple(self),))


def _default_token_strings(data: bytes) -> TokenStrings:
    """Unpickle :class:`TokenStrings` over the default vocabulary."""
    return TokenStrings(build_default_vocabulary(), np.frombuffer(data, _WIRE_IDS))
