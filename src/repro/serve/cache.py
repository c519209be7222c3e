"""Thread-safe LRU caching for the inference service.

Two cache levels share this implementation (see DESIGN.md §Serving layer):

* the **prepare cache** memoizes :meth:`SurrogateLM.prepare` — the one-time
  prompt analysis — keyed on the prompt fingerprint alone, so repeated
  prompts skip the analysis pass even when the seed differs;
* the **result cache** memoizes the full
  :class:`~repro.core.surrogate.SurrogatePrediction`, keyed on
  ``(prompt fingerprint, seed, sampling params, max_new_tokens)`` — valid
  because generation is bit-reproducible on exactly that key (the engine's
  determinism contract).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

# The cache key's fingerprint is the prefix cache's token fingerprint;
# this name stays for callers that import it from here.
from repro.llm.prefix_cache import token_fingerprint as prompt_fingerprint

__all__ = ["MISS", "LRUCache", "prompt_fingerprint"]


class _Miss:
    """Sentinel distinguishing "not cached" from a cached ``None``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<MISS>"

    def __bool__(self) -> bool:
        return False


MISS = _Miss()


class LRUCache:
    """A bounded least-recently-used map.

    All operations are O(1) and thread-safe; the service's batch workers
    share one instance per cache level.  Lookups are counted by the
    service, in its metrics registry, not here.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> object:
        """Return the cached value or :data:`MISS`, updating recency."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
            return MISS

    def put(self, key: Hashable, value: object) -> None:
        """Insert/refresh ``key``, evicting the least recent on overflow."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def peek(self, key: Hashable) -> object:
        """Return the cached value or :data:`MISS` without touching
        recency (the degradation fallback probes with this, so its probes
        do not reorder evictions)."""
        with self._lock:
            return self._data.get(key, MISS)

    def clear(self) -> None:
        """Drop all entries."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data
