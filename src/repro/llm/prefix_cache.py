"""Immutable prepared-state snapshots for shared prompt prefixes.

Every prompt a grid sweep (or the serving layer) scores shares one long
ICL few-shot prefix and differs only in a short query suffix, yet the
surrogate LM's hot path — suffix-match window scans, format-cue
analysis, size detection — would rebuild its prepared state from the
full prompt on every call.  This module snapshots that state once per
*tokenized prefix* and lets every extending prompt process only the
suffix delta:

* :class:`PreparedPrefix` — a frozen bundle of the prefix ids, their
  fingerprint (the cache key), the induction index
  (:meth:`InductionScorer.build_index`), the format-cue records
  (:meth:`FormatScorer.build_prefix`) and the prefix's size-token
  counts.  The recency-unigram scorer has no entry: one ``bincount``
  over the whole context per step costs less than merging a prefix
  factorization would.
* :class:`PrefixCache` — a small thread-safe LRU from fingerprint to
  snapshot, owned by each :class:`~repro.core.surrogate
  .DiscriminativeSurrogate` (and shareable across surrogates that wrap
  the same model).
* :class:`DecodeStateCache` — reuse past the prompt: the model's
  seed-independent content pass at one decode state (prompt plus the
  tokens generated so far), shared by every request and seed that
  reaches that state.  There is one per process
  (:data:`DECODE_STATES`) under one byte budget
  (:data:`DECODE_STATE_BUDGET_BYTES`), because a grid holds one model
  per problem size; :class:`~repro.llm.engine.GenerationEngine` reads it
  only when it decodes through a prefix snapshot, so the cold path
  (prefix reuse off) never touches it.

The induction index (:class:`~repro.llm.scorers.InductionIndex`) packs
each prefix n-gram into one int64 key and keeps, per n-gram length, two
flat arrays: the stable-sorted keys and the window starts in that order.

Determinism contract (the hard constraint, pinned by
``tests/test_llm_prefix_cache.py`` and the hypothesis property test):
scoring through a snapshot is **bit-identical** to the cold path for
every sampling seed.  The indexed induction path visits the cold scan's
matches in the cold scan's order — index-listed prefix matches, then a
scan of the tail past the prefix — and adds the votes through the cold
path's own dict loop; nothing downstream of the scorers can tell the two
paths apart.  A decode-state hit returns the very arrays the content
pass computed (ids narrowed losslessly, probabilities as float64), so
it is bit-identical too.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.llm.scorers import FormatPrefixIndex, InductionIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (model -> cache)
    from repro.llm.model import SurrogateLM

__all__ = [
    "DECODE_STATES",
    "DECODE_STATE_BUDGET_BYTES",
    "DecodeStateCache",
    "PreparedPrefix",
    "PrefixCache",
    "token_fingerprint",
]

#: Bytes of content-pass arrays :data:`DECODE_STATES` may hold.  A served
#: entry is ~15 KB (~1,500 candidates: 2-byte ids, 8-byte probabilities),
#: so this keeps ~200 decode states, a process's hottest ones.  At 4 MiB
#: the serial grid's peak RSS rose 6.3% (it keeps ~800 smaller entries,
#: and the heap grows by more than the bytes held).
DECODE_STATE_BUDGET_BYTES = 3 * 1024 * 1024


def token_fingerprint(token_ids: np.ndarray) -> str:
    """Collision-resistant digest of a token-id sequence.

    The snapshot key here and the serving caches' prompt fingerprint:
    token ids fully determine the prompt, so hashing the raw int64 id
    bytes keys both without retaining the prompt itself.
    """
    ids = np.ascontiguousarray(token_ids, dtype=np.int64)
    return hashlib.blake2b(ids.tobytes(), digest_size=16).hexdigest()


@dataclass(frozen=True)
class PreparedPrefix:
    """Frozen prepared state of one tokenized prompt prefix.

    Attributes
    ----------
    ids:
        The prefix token ids (read-only copy; :meth:`extends` validates
        candidate prompts against it).
    fingerprint:
        :func:`token_fingerprint` of ``ids`` (the cache key).
    induction:
        Suffix-match window index: per n-gram length, the packed window
        keys sorted ascending and the window starts in that order.
    format_index:
        Parsed format-cue records (the FSM's prepared state).
    size_counts:
        Problem-size keyword frequencies inside the prefix.
    """

    ids: np.ndarray
    fingerprint: str
    induction: InductionIndex
    format_index: FormatPrefixIndex
    size_counts: Mapping[str, int]

    @property
    def length(self) -> int:
        """Prefix length in tokens."""
        return int(self.ids.size)

    def extends(self, prompt_ids: np.ndarray) -> bool:
        """Whether ``prompt_ids`` starts with this snapshot's prefix."""
        prompt = np.asarray(prompt_ids, dtype=np.int64)
        return prompt.size >= self.length and bool(
            np.array_equal(prompt[: self.length], self.ids)
        )


class PrefixCache:
    """Thread-safe LRU of :class:`PreparedPrefix` snapshots for one model.

    Deliberately not :class:`repro.serve.cache.LRUCache`: the llm layer
    must stay importable without the serving stack, and the eviction unit
    here (a multi-index snapshot) is worth its own hit/miss accounting in
    ``obs`` metrics.
    """

    def __init__(self, model: "SurrogateLM", capacity: int = 32):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.model = model
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, PreparedPrefix] = OrderedDict()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------ #
    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    def snapshot(self) -> tuple[int, int]:
        """Consistent ``(hits, misses)`` pair taken under one lock.

        The separate ``hits``/``misses`` properties each lock, but reading
        them back-to-back can tear around a concurrent lookup; stats
        snapshots use this to keep hit totals internally consistent.
        """
        with self._lock:
            return (self._hits, self._misses)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    # ------------------------------------------------------------------ #
    def prepared(
        self, prompt_ids: np.ndarray, prefix_len: int
    ) -> PreparedPrefix | None:
        """Snapshot for the first ``prefix_len`` tokens of ``prompt_ids``.

        Returns ``None`` for degenerate splits (``prefix_len <= 0`` or
        beyond the prompt).  On a miss the snapshot is built through
        :meth:`SurrogateLM.prepare_prefix` and cached.
        """
        prompt = np.asarray(prompt_ids, dtype=np.int64)
        prefix_len = int(prefix_len)
        if prefix_len <= 0 or prefix_len > prompt.size:
            return None
        prefix_ids = prompt[:prefix_len]
        key = token_fingerprint(prefix_ids)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return entry
            self._misses += 1
        # Build outside the lock: snapshots are pure functions of the
        # prefix, so a racing duplicate build is wasted work, not a
        # correctness problem.
        entry = self.model.prepare_prefix(prefix_ids)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return entry


class DecodeStateCache:
    """Thread-safe LRU of content passes, bounded in bytes.

    Maps a decode-state key — the model's
    :attr:`~repro.llm.model.SurrogateLM.identity`, the prefix
    fingerprint, the suffix ids (as bytes in the vocabulary's narrowest
    unsigned dtype) and the generated ids — to the content pass's
    ``(ids, probs)`` there.  Stored arrays are read-only copies: ids in
    the narrowest unsigned dtype (as
    :class:`~repro.llm.vocab.TokenStrings` keeps them), probs as
    float64.  The bytes held — these arrays; the keys, which share one
    suffix per decode call, are not counted — never exceed
    :data:`DECODE_STATE_BUDGET_BYTES`, read on every store; an entry
    larger than the whole budget is not kept.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._nbytes = 0

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays held."""
        with self._lock:
            return self._nbytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0

    def get(self, key: tuple) -> tuple[np.ndarray, np.ndarray | None] | None:
        """The stored ``(ids, probs)`` for ``key`` (ids widened back to
        int64), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
        ids, probs, _ = entry
        return ids.astype(np.int64), probs

    def put(self, key: tuple, ids: np.ndarray, probs: np.ndarray | None) -> None:
        """Store read-only copies of one content pass, evicting the least
        recently used entries down to the budget."""
        ids = ids.astype(np.min_scalar_type(int(ids.max())))
        ids.setflags(write=False)
        if probs is not None:
            probs = np.array(probs, dtype=np.float64)
            probs.setflags(write=False)
        size = ids.nbytes + (0 if probs is None else probs.nbytes)
        budget = DECODE_STATE_BUDGET_BYTES
        if size > budget:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._nbytes -= old[2]
            self._entries[key] = (ids, probs, size)
            self._nbytes += size
            while self._nbytes > budget:
                _, (_, _, evicted) = self._entries.popitem(last=False)
                self._nbytes -= evicted


#: The process's decode-state cache (see :class:`DecodeStateCache`).
DECODE_STATES = DecodeStateCache()
