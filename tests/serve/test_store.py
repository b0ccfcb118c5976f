import threading

import pytest

from repro.serve.store import ResultStore
from repro.util.errors import ServeError


class TestResultStore:
    def test_miss_then_hit(self):
        store = ResultStore(4)
        assert store.get("k1") is None
        store.put("k1", {"x": 1}, "rendered-text")
        entry = store.get("k1")
        assert entry is not None
        assert entry.rendered == "rendered-text"
        assert entry.result == {"x": 1}
        assert store.hits == 1 and store.misses == 1

    def test_hit_returns_stored_bytes_verbatim(self):
        store = ResultStore(4)
        text = "line one\nline two\n"
        store.put("k", object(), text)
        assert store.get("k").rendered == text
        assert store.get("k").rendered == text  # repeats identical

    def test_lru_eviction_order(self):
        store = ResultStore(2)
        store.put("a", 1, "a")
        store.put("b", 2, "b")
        store.get("a")  # refresh a: b is now LRU
        store.put("c", 3, "c")
        assert "a" in store and "c" in store
        assert "b" not in store
        assert store.evictions == 1

    def test_replace_does_not_evict(self):
        store = ResultStore(2)
        store.put("a", 1, "old")
        store.put("b", 2, "b")
        store.put("a", 1, "new")
        assert len(store) == 2
        assert store.evictions == 0
        assert store.peek("a").rendered == "new"

    def test_peek_does_not_touch_counters(self):
        store = ResultStore(2)
        store.put("a", 1, "a")
        store.peek("a")
        store.peek("zzz")
        assert store.hits == 0 and store.misses == 0

    def test_hit_rate_and_stats(self):
        store = ResultStore(8)
        store.put("a", 1, "a")
        store.get("a")
        store.get("nope")
        assert store.hit_rate == pytest.approx(0.5)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["capacity"] == 8
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_clear(self):
        store = ResultStore(2)
        store.put("a", 1, "a")
        store.clear()
        assert len(store) == 0

    def test_capacity_validated(self):
        with pytest.raises(ServeError, match="capacity"):
            ResultStore(0)

    def test_concurrent_puts_respect_capacity(self):
        store = ResultStore(16)

        def worker(tag):
            for i in range(50):
                store.put(f"{tag}-{i}", i, str(i))
                store.get(f"{tag}-{i}")

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(store) <= 16
        assert store.evictions == 4 * 50 - 16
