"""SharedCacheStore: namespacing, dedup, persistence, quarantine."""

import os

import numpy as np
import pytest

from repro.core.cache_store import (
    QUARANTINE_SUFFIX,
    SHARD_SUFFIX,
    CacheSnapshot,
    SharedCacheStore,
    entry_signature,
    valid_namespace,
)
from repro.core.trajectory_cache import CacheEntry
from repro.errors import EngineError

NS_A = "a1" * 16
NS_B = "b2" * 16


def make_entry(rip=0x40, seed=0, length=100, halted=False):
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(64, size=4, replace=False)).astype(np.int64)
    return CacheEntry(
        rip,
        indices,
        rng.integers(0, 256, size=4, dtype=np.uint8),
        indices.copy(),
        rng.integers(0, 256, size=4, dtype=np.uint8),
        length,
        halted=halted,
    )


class TestNamespaces:
    def test_valid_namespace(self):
        assert valid_namespace(NS_A)
        assert valid_namespace("deadbeef")
        assert not valid_namespace("short")
        assert not valid_namespace("../../etc/passwd")
        assert not valid_namespace("ABCDEF0123456789")  # uppercase
        assert not valid_namespace("")
        assert not valid_namespace(None)

    def test_invalid_namespace_rejected(self):
        store = SharedCacheStore()
        with pytest.raises(EngineError):
            store.snapshot("../evil")
        with pytest.raises(EngineError):
            store.merge("../evil", [make_entry()])

    def test_namespaces_do_not_cross_pollinate(self):
        store = SharedCacheStore()
        store.merge(NS_A, [make_entry(seed=1)])
        store.merge(NS_B, [make_entry(seed=2)])
        assert len(store.snapshot(NS_A)) == 1
        assert len(store.snapshot(NS_B)) == 1
        assert store.entry_count(NS_A) == 1
        sig_a = {entry_signature(e) for e in store.snapshot(NS_A).entries()}
        sig_b = {entry_signature(e) for e in store.snapshot(NS_B).entries()}
        assert sig_a != sig_b


class TestMergeDedup:
    def test_merge_counts_new_entries(self):
        store = SharedCacheStore()
        added = store.merge(NS_A, [make_entry(seed=i) for i in range(3)])
        assert added == 3
        assert store.entry_count(NS_A) == 3

    def test_duplicate_content_is_deduped(self):
        store = SharedCacheStore()
        store.merge(NS_A, [make_entry(seed=1)])
        # A different object with identical content — exactly what the
        # engine produces when it copies entries via with_ready_time.
        copy = make_entry(seed=1).with_ready_time(123.0)
        assert store.merge(NS_A, [copy]) == 0
        assert store.entry_count(NS_A) == 1
        assert store.entries_deduped == 1

    def test_snapshot_is_immutable_view(self):
        store = SharedCacheStore()
        store.merge(NS_A, [make_entry(seed=1)])
        snapshot = store.snapshot(NS_A)
        assert isinstance(snapshot, CacheSnapshot)
        store.merge(NS_A, [make_entry(seed=2)])
        assert len(snapshot) == 1  # taken before the second merge
        assert len(store.snapshot(NS_A)) == 2


class TestPersistence:
    def test_flush_and_reload_round_trip(self, tmp_path):
        directory = str(tmp_path / "cache")
        store = SharedCacheStore(directory)
        entries = [make_entry(seed=i, halted=(i == 2)) for i in range(3)]
        store.merge(NS_A, entries)
        assert store.flush() == 1
        assert os.path.exists(os.path.join(directory, NS_A + SHARD_SUFFIX))

        reloaded = SharedCacheStore(directory)
        assert reloaded.shards_loaded == 1
        assert reloaded.entry_count(NS_A) == 3
        original = {entry_signature(e) for e in entries}
        loaded = {entry_signature(e)
                  for e in reloaded.snapshot(NS_A).entries()}
        assert loaded == original

    def test_flush_skips_clean_shards(self, tmp_path):
        store = SharedCacheStore(str(tmp_path))
        store.merge(NS_A, [make_entry()])
        assert store.flush() == 1
        assert store.flush() == 0  # nothing dirty
        assert store.flush(force=True) == 1

    def test_memory_only_store_never_writes(self):
        store = SharedCacheStore()
        store.merge(NS_A, [make_entry()])
        assert store.flush(force=True) == 0

    def test_structurally_damaged_shard_quarantined(self, tmp_path):
        directory = str(tmp_path / "cache")
        store = SharedCacheStore(directory)
        store.merge(NS_A, [make_entry(seed=1)])
        store.merge(NS_B, [make_entry(seed=2)])
        store.flush()
        path = os.path.join(directory, NS_A + SHARD_SUFFIX)
        with open(path, "r+b") as handle:  # destroy the magic/header
            handle.write(b"\x00" * 16)

        reloaded = SharedCacheStore(directory)
        # The tainted shard was renamed aside, never loaded...
        assert reloaded.shards_quarantined == 1
        assert reloaded.entry_count(NS_A) == 0
        assert not os.path.exists(path)
        assert os.path.exists(path + QUARANTINE_SUFFIX)
        # ...and the healthy shard loaded normally.
        assert reloaded.entry_count(NS_B) == 1

    def test_quarantined_namespace_starts_over(self, tmp_path):
        directory = str(tmp_path / "cache")
        store = SharedCacheStore(directory)
        store.merge(NS_A, [make_entry(seed=1)])
        store.flush()
        path = os.path.join(directory, NS_A + SHARD_SUFFIX)
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        reloaded = SharedCacheStore(directory)
        assert reloaded.entry_count(NS_A) == 0
        # The namespace is usable again and re-persists cleanly.
        reloaded.merge(NS_A, [make_entry(seed=3)])
        assert reloaded.flush() == 1
        third = SharedCacheStore(directory)
        assert third.entry_count(NS_A) == 1

    def test_version1_shard_quarantined(self, tmp_path):
        """A version-1 shard (entries with no CRC) is not read as
        trusted facts: it fails the header check like any foreign
        blob, and the namespace starts empty."""
        import struct
        from repro.core.cache_io import encode_entry
        directory = str(tmp_path / "cache")
        os.makedirs(directory)
        path = os.path.join(directory, NS_A + SHARD_SUFFIX)
        with open(path, "wb") as handle:
            handle.write(struct.pack("<4sHI", b"ASCC", 1, 1)
                         + encode_entry(make_entry(seed=1)))
        store = SharedCacheStore(directory)
        assert store.shards_quarantined == 1
        assert store.entry_count(NS_A) == 0
        assert store.namespaces() == []
        assert os.path.exists(path + QUARANTINE_SUFFIX)

    def test_atomic_flush_leaves_no_tmp_files(self, tmp_path):
        directory = str(tmp_path / "cache")
        store = SharedCacheStore(directory)
        store.merge(NS_A, [make_entry()])
        store.flush()
        assert all(not name.endswith(".tmp")
                   for name in os.listdir(directory))

    def test_stats_dict(self, tmp_path):
        store = SharedCacheStore(str(tmp_path))
        store.merge(NS_A, [make_entry(seed=i) for i in range(2)])
        store.flush()
        stats = store.stats_dict()
        assert stats["namespaces"] == 1
        assert stats["total_entries"] == 2
        assert stats["entries_merged"] == 2
        assert stats["flushes"] == 1
        assert NS_A in stats["shards"]
