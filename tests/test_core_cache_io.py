"""Trajectory-cache persistence and cross-invocation reuse (§6)."""

import numpy as np
import pytest

from repro.bench import build_collatz
from repro.cluster import CostModel, laptop1
from repro.core.cache_io import (
    deserialize_cache,
    load_cache,
    serialize_cache,
)
from repro.core.engine import MemoizingEngine
from repro.core.recognizer import Recognizer
from repro.core.trajectory_cache import CacheEntry, TrajectoryCache
from repro.durable import write_atomic
from repro.errors import EngineError


def make_entry(rip=0x40, seed=0, length=100):
    rng = np.random.default_rng(seed)
    n_start, n_end = 5, 3
    return CacheEntry(
        rip,
        np.sort(rng.choice(1000, n_start, replace=False)).astype(np.int64),
        rng.integers(0, 256, n_start, dtype=np.uint8),
        np.sort(rng.choice(1000, n_end, replace=False)).astype(np.int64),
        rng.integers(0, 256, n_end, dtype=np.uint8),
        length, occurrences=2, ready_time=7.5, halted=bool(seed % 2))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        cache = TrajectoryCache()
        for seed in range(10):
            cache.insert(make_entry(rip=0x40 + 8 * (seed % 3), seed=seed,
                                    length=100 + seed))
        path = tmp_path / "cache.ascc"
        write_atomic(str(path), serialize_cache(cache))
        loaded = load_cache(path)
        assert len(loaded) == len(cache)
        originals = {(e.rip, e.length): e for e in cache.entries()}
        for entry in loaded.entries():
            original = originals[(entry.rip, entry.length)]
            assert np.array_equal(entry.start_indices,
                                  original.start_indices)
            assert np.array_equal(entry.start_values,
                                  original.start_values)
            assert np.array_equal(entry.end_indices, original.end_indices)
            assert np.array_equal(entry.end_values, original.end_values)
            assert entry.occurrences == original.occurrences
            assert entry.halted == original.halted
            assert entry.ready_time == 0.0  # preloaded entries are ready

    def test_empty_cache(self):
        blob = serialize_cache(TrajectoryCache())
        assert len(deserialize_cache(blob)) == 0

    def test_shard_bytes_are_pinned(self):
        """Formats at rest stay byte-compatible: these are the bytes
        the codec wrote before shards and worker results shared it."""
        cache = TrajectoryCache()
        cache.insert(CacheEntry(
            0x40, np.array([3, 17], dtype=np.int64),
            np.array([1, 255], dtype=np.uint8),
            np.array([3, 4, 900], dtype=np.int64),
            np.array([2, 0, 7], dtype=np.uint8),
            length=1234, occurrences=5, halted=False))
        cache.insert(CacheEntry(
            0x1000, np.array([], dtype=np.int64),
            np.array([], dtype=np.uint8), np.array([8], dtype=np.int64),
            np.array([9], dtype=np.uint8),
            length=2**40, occurrences=1, halted=True))
        assert serialize_cache(cache).hex() == (
            "4153434302000200000040000000d20400000000000005000000000200"
            "00000300000003000000000000001100000000000000"
            "01ff030000000000000004000000000000008403000000000000020007"
            "b7c2cf3b001000000000000000010000010000000100000000010000"
            "000800000000000000098eeed9da")

    @pytest.mark.parametrize("mutation", ["magic", "truncate", "trailing"])
    def test_corrupt_blobs_rejected(self, mutation):
        cache = TrajectoryCache()
        cache.insert(make_entry())
        blob = bytearray(serialize_cache(cache))
        if mutation == "magic":
            blob[0] ^= 0xFF
        elif mutation == "truncate":
            blob = blob[:len(blob) - 3]
        else:
            blob += b"\x00"
        with pytest.raises(EngineError):
            deserialize_cache(bytes(blob))

    def test_bit_rotted_entry_quarantined(self):
        """Bit rot inside one entry's arrays is caught by the per-entry
        CRC and quarantined — the rest of the blob still loads."""
        import struct
        cache = TrajectoryCache()
        for seed in range(4):
            cache.insert(make_entry(rip=0x40 + 8 * seed, seed=seed))
        blob = bytearray(serialize_cache(cache))
        header = struct.calcsize("<4sHI")
        entry_header = struct.calcsize("<IQIBII")
        # Flip a byte inside the first entry's index array: the framing
        # (declared lengths) survives, so only that entry is damaged.
        blob[header + entry_header + 2] ^= 0xFF
        loaded = deserialize_cache(bytes(blob))
        assert len(loaded) == 3
        assert loaded.n_quarantined == 1
        survivors = {e.rip for e in loaded.entries()}
        assert len(survivors) == 3

    def test_every_entry_rotted_loads_empty(self):
        cache = TrajectoryCache()
        cache.insert(make_entry())
        blob = bytearray(serialize_cache(cache))
        blob[-1] ^= 0xFF  # damage the entry's trailing CRC itself
        loaded = deserialize_cache(bytes(blob))
        assert len(loaded) == 0
        assert loaded.n_quarantined == 1

    def test_capacity_applies_on_load(self, tmp_path):
        cache = TrajectoryCache()
        for seed in range(20):
            cache.insert(make_entry(seed=seed, length=seed + 1))
        path = tmp_path / "cache.ascc"
        write_atomic(str(path), serialize_cache(cache))
        tiny = load_cache(path, capacity_bytes=make_entry().size_bytes() * 4)
        assert len(tiny) <= 4


class TestCrossInvocationReuse:
    def test_warm_cache_speeds_second_invocation(self):
        """Run Collatz once in memoization mode, carry the cache into a
        second run over a larger range: the warm run must hit entries
        from the previous invocation immediately."""
        first = build_collatz(count=180, memoize=True)
        recognized = Recognizer(first.config).find_for_memoization(
            first.program)
        factor = max(recognized.superstep_instructions / 2.3e6 / 5.22, 1e-7)
        platform = laptop1(CostModel().scaled(factor))
        cold = MemoizingEngine(first.program, platform,
                               config=first.config,
                               recognized=recognized).run()
        blob = serialize_cache(cold.cache)
        warm_cache = deserialize_cache(blob)

        # Same program, warm cache: hits from the very start.
        warm = MemoizingEngine(first.program, platform,
                               config=first.config,
                               recognized=recognized,
                               initial_cache=warm_cache).run()
        assert warm.stats.hits > cold.stats.hits
        assert warm.scaling > cold.scaling
        # Early-phase hit rate: the cold run's first-quarter scaling is
        # below the warm run's (the cache was earned last invocation).
        quarter = len(cold.timeline) // 4
        assert warm.timeline[quarter].scaling \
            > cold.timeline[quarter].scaling

    def test_entries_never_corrupt_different_range(self):
        """A cache from count=180 reused at count=240 must preserve
        correctness: fast-forwards are exact or absent."""
        first = build_collatz(count=180, memoize=True)
        second = build_collatz(count=240, memoize=True)
        recognized = Recognizer(first.config).find_for_memoization(
            first.program)
        factor = max(recognized.superstep_instructions / 2.3e6 / 5.22, 1e-7)
        platform = laptop1(CostModel().scaled(factor))
        cold = MemoizingEngine(first.program, platform,
                               config=first.config,
                               recognized=recognized).run()
        recognized2 = Recognizer(second.config).find_for_memoization(
            second.program)
        warm = MemoizingEngine(second.program,
                               laptop1(CostModel().scaled(factor)),
                               config=second.config,
                               recognized=recognized2,
                               initial_cache=cold.cache).run()
        # The run completed and computed the right result.
        machine = second.program.make_machine()
        machine.run(max_instructions=50_000_000)
        assert (warm.stats.instructions_executed
                + warm.stats.instructions_fast_forwarded) \
            == machine.instruction_count