"""Tests for the serving layer's LRU cache and prompt fingerprinting."""

import threading

import numpy as np
import pytest

from repro.serve.cache import MISS, LRUCache, prompt_fingerprint


class TestPromptFingerprint:
    def test_deterministic(self):
        ids = np.arange(50, dtype=np.int64)
        assert prompt_fingerprint(ids) == prompt_fingerprint(ids.copy())

    def test_distinguishes_content(self):
        a = np.asarray([1, 2, 3], dtype=np.int64)
        b = np.asarray([1, 2, 4], dtype=np.int64)
        assert prompt_fingerprint(a) != prompt_fingerprint(b)

    def test_distinguishes_order(self):
        a = np.asarray([1, 2, 3], dtype=np.int64)
        b = np.asarray([3, 2, 1], dtype=np.int64)
        assert prompt_fingerprint(a) != prompt_fingerprint(b)

    def test_accepts_lists(self):
        assert prompt_fingerprint([1, 2, 3]) == prompt_fingerprint(
            np.asarray([1, 2, 3], dtype=np.int64)
        )


class TestLRUCache:
    def test_miss_then_hit(self):
        c = LRUCache(4)
        assert c.get("k") is MISS
        c.put("k", 42)
        assert c.get("k") == 42

    def test_capacity_evicts_least_recent(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")           # refresh "a": "b" is now least recent
        c.put("c", 3)
        assert "a" in c and "c" in c and "b" not in c

    def test_put_refreshes_recency(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)       # rewrite refreshes
        c.put("c", 3)
        assert c.get("a") == 10
        assert c.get("b") is MISS

    def test_cached_none_is_not_a_miss(self):
        c = LRUCache(2)
        c.put("k", None)
        assert c.get("k") is None
        assert c.get("other") is MISS

    def test_len_and_clear(self):
        c = LRUCache(8)
        for i in range(5):
            c.put(i, i)
        assert len(c) == 5
        c.clear()
        assert len(c) == 0
        assert c.get(0) is MISS

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_peek_has_no_side_effects(self):
        c = LRUCache(2)
        assert c.peek("k") is MISS
        c.put("a", 1)
        c.put("b", 2)
        assert c.peek("a") == 1
        # peek did not refresh recency: "a" is still the least recent
        # entry and gets evicted next.
        c.put("c", 3)
        assert c.peek("a") is MISS

    def test_thread_safety_smoke(self):
        c = LRUCache(64)
        errors = []

        def worker(base):
            try:
                for i in range(500):
                    c.put((base, i % 80), i)
                    c.get((base, (i * 7) % 80))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(c) <= 64

    def test_thread_safety_hammer(self):
        """Concurrency audit: invariants under a seeded multi-thread storm.

        Every value stored is a pure function of its key, so any read
        returning something else is a lost/torn update, and the size
        bound must hold at the end — a racy eviction loop is what would
        break it.
        """
        import numpy as np

        capacity, n_threads, n_ops = 32, 8, 3000
        c = LRUCache(capacity)
        errors = []
        start = threading.Barrier(n_threads)

        def value_of(key):
            return key * 31 + 7

        def worker(t):
            rng = np.random.default_rng(1000 + t)
            keys = rng.integers(0, 64, size=n_ops)
            ops = rng.integers(0, 4, size=n_ops)
            try:
                start.wait()
                for key, op in zip(keys, ops):
                    key = int(key)
                    if op == 0:
                        c.put(key, value_of(key))
                    elif op == 3:
                        got = c.peek(key)
                        if got is not MISS and got != value_of(key):
                            raise AssertionError(
                                f"lost update: peek({key}) -> {got}"
                            )
                    else:
                        got = c.get(key)
                        if got is not MISS and got != value_of(key):
                            raise AssertionError(
                                f"lost update: get({key}) -> {got}"
                            )
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert 0 < len(c) <= capacity
