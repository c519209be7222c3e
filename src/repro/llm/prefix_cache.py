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
paths apart.
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

__all__ = ["PreparedPrefix", "PrefixCache", "token_fingerprint"]


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
