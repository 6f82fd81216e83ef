"""Wire format: round-trips are bit-exact, corruption is rejected."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import cache_io
from repro.core.speculation import SpeculationResult
from repro.core.trajectory_cache import CacheEntry, TrajectoryCache
from repro.errors import EngineError
from repro.runtime import wire


def sparse_side(draw, max_len=64, vector_len=4096):
    """One (indices, values) side of an entry: sorted unique indices."""
    n = draw(st.integers(min_value=0, max_value=max_len))
    indices = draw(st.lists(st.integers(min_value=0,
                                        max_value=vector_len - 1),
                            min_size=n, max_size=n, unique=True))
    indices = np.asarray(sorted(indices), dtype=np.int64)
    values = draw(st.lists(st.integers(min_value=0, max_value=255),
                           min_size=n, max_size=n))
    return indices, np.asarray(values, dtype=np.uint8)


@st.composite
def entries(draw):
    start_indices, start_values = sparse_side(draw)
    end_indices, end_values = sparse_side(draw)
    return CacheEntry(
        rip=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        start_indices=start_indices, start_values=start_values,
        end_indices=end_indices, end_values=end_values,
        length=draw(st.integers(min_value=0, max_value=2**48)),
        occurrences=draw(st.integers(min_value=1, max_value=2**31 - 1)),
        halted=draw(st.booleans()))


def assert_entries_equal(a, b):
    assert a.rip == b.rip
    assert a.length == b.length
    assert a.occurrences == b.occurrences
    assert a.halted == b.halted
    np.testing.assert_array_equal(np.asarray(a.start_indices),
                                  np.asarray(b.start_indices))
    np.testing.assert_array_equal(np.asarray(a.start_values),
                                  np.asarray(b.start_values))
    np.testing.assert_array_equal(np.asarray(a.end_indices),
                                  np.asarray(b.end_indices))
    np.testing.assert_array_equal(np.asarray(a.end_values),
                                  np.asarray(b.end_values))


class TestEntryRoundTrip:
    """The one entry codec (``cache_io``), as worker results carry it."""

    @settings(max_examples=50, deadline=None)
    @given(entries())
    def test_bit_exact(self, entry):
        blob = cache_io.encode_entry(entry)
        decoded, pos = cache_io.decode_entry(blob)
        assert pos == len(blob)
        assert_entries_equal(entry, decoded)

    @settings(max_examples=25, deadline=None)
    @given(entries())
    def test_decoded_entry_applies_like_original(self, entry):
        buf = bytearray(4096)
        expected = bytearray(4096)
        decoded, __ = cache_io.decode_entry(cache_io.encode_entry(entry))
        entry.apply(expected)
        decoded.apply(buf)
        assert bytes(buf) == bytes(expected)

    def test_truncated_header_rejected(self):
        with pytest.raises(EngineError):
            cache_io.decode_entry(b"\x00\x01")

    @settings(max_examples=20, deadline=None)
    @given(entries(), st.data())
    def test_truncated_arrays_rejected(self, entry, data):
        blob = cache_io.encode_entry(entry)
        if len(blob) <= 24:  # header-only entry cannot be array-truncated
            return
        cut = data.draw(st.integers(min_value=24, max_value=len(blob) - 1))
        with pytest.raises(EngineError):
            cache_io.decode_entry(blob[:cut])

    @settings(max_examples=25, deadline=None)
    @given(entries())
    def test_shard_path_and_worker_result_path_agree(self, entry):
        """One entry through both carriers of the codec: a cache shard
        (``serialize_cache``) and a worker result (frame + inline blob,
        taken the way the pool takes it) decode to the same entry."""
        cache = TrajectoryCache()
        cache.insert(entry)
        (from_shard,) = cache_io.deserialize_cache(
            cache_io.serialize_cache(cache)).entries()
        from_worker = take_result_entry(wire.encode_result_shm(
            1, wire.RESULT_OK, entry.length, entry.halted, None,
            blob=cache_io.encode_entry(entry)))
        assert_entries_equal(entry, from_shard)
        assert_entries_equal(entry, from_worker)


def take_result_entry(frame):
    """A result frame's inline entry, materialized by the pool's own
    ``_take_result_entry`` (no worker processes involved)."""
    from repro.runtime.config import RuntimeConfig
    from repro.runtime.pool import WorkerPool, _Worker
    from repro.runtime.stats import RuntimeStats
    pool = WorkerPool.__new__(WorkerPool)
    pool.config, pool.stats = RuntimeConfig(), RuntimeStats()
    __, pos = wire.decode_message(frame)
    return pool._take_result_entry(
        _Worker(0, None, None), wire.decode_result_shm(frame, pos))


def test_structurally_bad_entry_blob_is_a_wire_error():
    """A CRC-valid blob that is not an entry must reach the pool's
    worker-crash path (``frames_rejected`` + ``_fail_worker`` catch
    :class:`WireError`), never escape as an ``EngineError``."""
    blob = cache_io.encode_entry(CacheEntry(
        7, np.arange(3), np.zeros(3, np.uint8), np.arange(2),
        np.ones(2, np.uint8), length=5))
    for bad in (blob[:-1], blob + b"\x00", blob[:10]):
        frame = wire.encode_result_shm(1, wire.RESULT_OK, 5, False, None,
                                       blob=bad)
        with pytest.raises(wire.WireError):
            take_result_entry(frame)


#: Both places a blob can travel: a ring sequence number, or inline.
BLOB_SEQS = st.one_of(st.none(), st.integers(min_value=0, max_value=2**63))


class TestTaskRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(task_id=st.integers(min_value=0, max_value=2**63),
           rip=st.integers(min_value=0, max_value=2**32 - 1),
           occurrences=st.integers(min_value=0, max_value=2**32 - 1),
           budget=st.integers(min_value=0, max_value=2**63),
           epoch=st.integers(min_value=0, max_value=2**32 - 2),
           state=st.binary(min_size=0, max_size=2048),
           seq=BLOB_SEQS)
    def test_bit_exact(self, task_id, rip, occurrences, budget, epoch,
                       state, seq):
        blob = wire.encode_state_delta(state)
        frame = wire.encode_task_shm(task_id, rip, occurrences, budget,
                                     wire.FLAG_AUDIT, epoch, epoch + 1,
                                     blob, seq=seq)
        msg_type, pos = wire.decode_message(frame)
        assert msg_type == wire.MSG_TASK_SHM
        task = wire.decode_task_shm(frame, pos)
        assert task.task_id == task_id
        assert task.rip == rip
        assert task.occurrences == occurrences
        assert task.max_instructions == budget
        assert task.flags == wire.FLAG_AUDIT
        assert (task.base_epoch, task.epoch) == (epoch, epoch + 1)
        assert (task.blob_len, task.blob_crc) == (len(blob),
                                                  zlib.crc32(blob))
        if seq is None:
            assert task.location == wire.BLOB_INLINE
            assert wire.decode_state_delta(task.blob) == state
        else:
            assert (task.location, task.seq) == (wire.BLOB_SHM, seq)
            assert task.blob is None

    def test_length_mismatch_rejected(self):
        blob = wire.encode_state_delta(b"\xaa" * 64)
        for seq in (None, 7):
            frame = wire.encode_task_shm(1, 2, 3, 4, 0, 0, 1, blob, seq=seq)
            __, pos = wire.decode_message(frame)
            with pytest.raises(wire.WireError):
                wire.decode_task_shm(frame[:-1], pos)
            with pytest.raises(wire.WireError):
                wire.decode_task_shm(frame + b"\x00", pos)


def make_result(entry=None, instructions=0, halted=False, fault=None):
    return SpeculationResult(entry, instructions, halted, fault=fault)


def encode_result(task_id, result, seq=None):
    """A result frame built the way ``worker_main`` builds it."""
    blob = (None if result.entry is None
            else cache_io.encode_entry(result.entry))
    return wire.encode_result_shm(
        task_id, wire.result_status(result), result.instructions,
        result.halted, result.fault, blob=blob,
        seq=seq if blob is not None else None)


def decode_result(frame):
    msg_type, pos = wire.decode_message(frame)
    assert msg_type == wire.MSG_RESULT_SHM
    return wire.decode_result_shm(frame, pos)


class TestResultRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(entry=entries(),
           task_id=st.integers(min_value=0, max_value=2**63),
           instructions=st.integers(min_value=0, max_value=2**48),
           halted=st.booleans(),
           seq=BLOB_SEQS)
    def test_ok_result(self, entry, task_id, instructions, halted, seq):
        blob = cache_io.encode_entry(entry)
        msg = decode_result(encode_result(
            task_id, make_result(entry, instructions, halted), seq=seq))
        assert msg.task_id == task_id
        assert msg.status == wire.RESULT_OK
        assert msg.instructions == instructions
        assert msg.halted == halted
        assert msg.fault is None
        assert msg.has_entry
        assert (msg.blob_len, msg.blob_crc) == (len(blob), zlib.crc32(blob))
        if seq is None:
            assert msg.location == wire.BLOB_INLINE
            assert_entries_equal(entry, cache_io.decode_entry(msg.blob)[0])
        else:
            assert (msg.location, msg.seq) == (wire.BLOB_SHM, seq)
            assert msg.blob is None

    @settings(max_examples=25, deadline=None)
    @given(fault=st.text(min_size=1, max_size=200))
    def test_fault_result(self, fault):
        msg = decode_result(encode_result(
            7, make_result(fault=fault, instructions=12)))
        assert msg.status == wire.RESULT_FAULT
        assert not msg.has_entry and msg.blob is None
        assert msg.fault == fault

    def test_empty_and_budget_statuses(self):
        msg = decode_result(encode_result(1, make_result()))
        assert msg.status == wire.RESULT_EMPTY
        msg = decode_result(encode_result(1, make_result(instructions=99)))
        assert msg.status == wire.RESULT_BUDGET

    def test_trailing_bytes_rejected(self):
        frame = encode_result(1, make_result(instructions=5))
        __, pos = wire.decode_message(frame)
        with pytest.raises(wire.WireError):
            wire.decode_result_shm(frame + b"\x00", pos)


class TestHeaderValidation:
    def test_shutdown_round_trip(self):
        msg_type, pos = wire.decode_message(wire.encode_shutdown())
        assert msg_type == wire.MSG_SHUTDOWN
        assert pos == len(wire.encode_shutdown())

    def test_bad_magic_rejected(self):
        blob = bytearray(wire.encode_shutdown())
        blob[:4] = b"NOPE"
        with pytest.raises(wire.WireError, match="magic"):
            wire.decode_message(bytes(blob))

    def test_version_mismatch_rejected(self):
        for version in (wire.WIRE_VERSION - 1, wire.WIRE_VERSION + 1):
            bad = struct.pack("<4sHBI", wire.WIRE_MAGIC, version,
                              wire.MSG_TASK_SHM, 0)
            with pytest.raises(wire.WireError, match="version"):
                wire.decode_message(bad)

    def test_unknown_type_rejected(self):
        """1 and 2 were the retired inline-only task/result pair."""
        for msg_type in (1, 2, 99):
            bad = struct.pack("<4sHBI", wire.WIRE_MAGIC, wire.WIRE_VERSION,
                              msg_type, zlib.crc32(b""))
            with pytest.raises(wire.WireError,
                               match="unknown message type"):
                wire.decode_message(bad)
        assert len(wire._MSG_TYPES) == 3

    def test_short_message_rejected(self):
        with pytest.raises(wire.WireError):
            wire.decode_message(b"ASC")

    def test_payload_bit_flip_rejected(self):
        """Any single corrupted byte fails the header checksum — this is
        the property fault injection's 'corrupt' kind relies on."""
        blob = wire.encode_task_shm(
            1, 2, 3, 4, 0, 0, 1, wire.encode_state_delta(b"\xaa" * 64))
        for pos in range(len(blob)):
            mutated = bytearray(blob)
            mutated[pos] ^= 0xFF
            with pytest.raises(wire.WireError):
                wire.decode_message(bytes(mutated))

    def test_truncation_rejected(self):
        blob = encode_result(3, make_result(instructions=5))
        for cut in range(1, len(blob)):
            with pytest.raises(wire.WireError):
                wire.decode_message(blob[:cut])

    def test_oversized_frame_rejected(self):
        blob = wire.encode_task_shm(
            1, 2, 3, 4, 0, 0, 1, wire.encode_state_delta(b"\x00" * 256))
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.decode_message(blob, max_frame_bytes=64)


@st.composite
def state_pairs(draw, max_len=2048):
    """A base state and a new state differing at a random sparse set of
    positions (possibly empty = identical, possibly dense)."""
    length = draw(st.integers(min_value=1, max_value=max_len))
    base = draw(st.binary(min_size=length, max_size=length))
    n = draw(st.integers(min_value=0, max_value=length))
    positions = draw(st.lists(st.integers(min_value=0,
                                          max_value=length - 1),
                              min_size=n, max_size=n, unique=True))
    state = bytearray(base)
    for pos in positions:
        state[pos] ^= draw(st.integers(min_value=1, max_value=255))
    return base, bytes(state)


class TestStateDeltaCodec:
    @settings(max_examples=100, deadline=None)
    @given(state_pairs())
    def test_round_trip_against_base(self, pair):
        base, state = pair
        blob = wire.encode_state_delta(state, base=base)
        assert wire.decode_state_delta(blob, base=base,
                                       expected_len=len(state)) == state

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=0, max_size=2048))
    def test_round_trip_without_base_is_full(self, state):
        blob = wire.encode_state_delta(state)
        assert blob[0] == wire.DELTA_FULL
        assert wire.decode_state_delta(blob) == state

    def test_empty_diff_is_tiny(self):
        state = b"\x5a" * 4096
        blob = wire.encode_state_delta(state, base=state)
        assert blob[0] == wire.DELTA_SPARSE
        assert len(blob) < 16
        assert wire.decode_state_delta(blob, base=state) == state

    def test_dense_diff_falls_back_to_full(self):
        base = b"\x00" * 256
        state = b"\xff" * 256
        blob = wire.encode_state_delta(state, base=base)
        assert blob[0] == wire.DELTA_FULL
        assert wire.decode_state_delta(blob, base=base) == state

    def test_wrong_length_base_ships_full(self):
        state = b"\xab" * 128
        blob = wire.encode_state_delta(state, base=b"\xab" * 64)
        assert blob[0] == wire.DELTA_FULL

    def test_sparse_without_base_rejected(self):
        base = b"\x00" * 64
        state = b"\x00" * 32 + b"\x01" + b"\x00" * 31
        blob = wire.encode_state_delta(state, base=base)
        assert blob[0] == wire.DELTA_SPARSE
        with pytest.raises(wire.WireError, match="without a base"):
            wire.decode_state_delta(blob)

    def test_wrong_base_length_rejected(self):
        base = b"\x00" * 64
        state = b"\x00" * 63 + b"\x01"
        blob = wire.encode_state_delta(state, base=base)
        with pytest.raises(wire.WireError, match="expected"):
            wire.decode_state_delta(blob, base=base, expected_len=128)

    @settings(max_examples=30, deadline=None)
    @given(state_pairs(), st.data())
    def test_truncation_rejected(self, pair, data):
        base, state = pair
        blob = wire.encode_state_delta(state, base=base)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        with pytest.raises(wire.WireError):
            wire.decode_state_delta(blob[:cut], base=base)

    def test_unknown_kind_rejected(self):
        blob = struct.pack("<BI", 9, 0)
        with pytest.raises(wire.WireError, match="kind"):
            wire.decode_state_delta(blob)

    def test_out_of_bounds_index_rejected(self):
        blob = (struct.pack("<BI", wire.DELTA_SPARSE, 1)
                + struct.pack("<I", 64) + b"\x01")
        with pytest.raises(wire.WireError, match="beyond"):
            wire.decode_state_delta(blob, base=b"\x00" * 64)


class TestShmControlFrames:
    def test_task_ring_ref_round_trip(self):
        blob = wire.encode_state_delta(b"\xaa" * 100)
        frame = wire.encode_task_shm(11, 0x40, 3, 9999, 0, 4, 5, blob,
                                     seq=1234)
        msg_type, pos = wire.decode_message(frame)
        assert msg_type == wire.MSG_TASK_SHM
        msg = wire.decode_task_shm(frame, pos)
        assert (msg.task_id, msg.rip, msg.occurrences,
                msg.max_instructions) == (11, 0x40, 3, 9999)
        assert (msg.base_epoch, msg.epoch) == (4, 5)
        assert msg.location == wire.BLOB_SHM
        assert (msg.seq, msg.blob_len) == (1234, len(blob))
        assert msg.blob is None
        assert wire.check_blob(blob, msg.blob_crc) == blob
        # The control frame must stay small — that is the whole point.
        assert len(frame) < 128

    def test_task_inline_round_trip(self):
        blob = wire.encode_state_delta(b"\x07" * 32)
        frame = wire.encode_task_shm(1, 2, 3, 4, wire.FLAG_AUDIT, 0, 1,
                                     blob, seq=None)
        __, pos = wire.decode_message(frame)
        msg = wire.decode_task_shm(frame, pos)
        assert msg.location == wire.BLOB_INLINE
        assert msg.blob == blob
        assert msg.flags == wire.FLAG_AUDIT
        assert wire.check_blob(msg.blob, msg.blob_crc) == blob

    def test_result_ring_ref_round_trip(self):
        entry_blob = b"\x42" * 77
        frame = wire.encode_result_shm(9, wire.RESULT_OK, 555, True, None,
                                       blob=entry_blob, seq=4096)
        msg_type, pos = wire.decode_message(frame)
        assert msg_type == wire.MSG_RESULT_SHM
        msg = wire.decode_result_shm(frame, pos)
        assert (msg.task_id, msg.status, msg.instructions, msg.halted) == \
            (9, wire.RESULT_OK, 555, True)
        assert msg.has_entry
        assert msg.location == wire.BLOB_SHM
        assert (msg.seq, msg.blob_len) == (4096, len(entry_blob))
        assert wire.check_blob(entry_blob, msg.blob_crc) == entry_blob

    def test_stale_result_round_trip(self):
        frame = wire.encode_result_shm(3, wire.RESULT_STALE, 0, False, None)
        __, pos = wire.decode_message(frame)
        msg = wire.decode_result_shm(frame, pos)
        assert msg.status == wire.RESULT_STALE
        assert not msg.has_entry

    def test_fault_result_round_trip(self):
        frame = wire.encode_result_shm(4, wire.RESULT_FAULT, 10, False,
                                       "div by zero")
        __, pos = wire.decode_message(frame)
        msg = wire.decode_result_shm(frame, pos)
        assert msg.fault == "div by zero"
        assert not msg.has_entry
        assert msg.blob_len == 0

    def test_truncated_shm_frames_rejected(self):
        blob = wire.encode_state_delta(b"\x01" * 16)
        task = wire.encode_task_shm(1, 2, 3, 4, 0, 0, 1, blob, seq=None)
        __, pos = wire.decode_message(task)
        with pytest.raises(wire.WireError):
            wire.decode_task_shm(task[:-1], pos)
        with pytest.raises(wire.WireError):
            wire.decode_task_shm(task + b"\x00", pos)
        result = wire.encode_result_shm(1, wire.RESULT_OK, 5, False, None,
                                        blob=blob, seq=None)
        __, pos = wire.decode_message(result)
        with pytest.raises(wire.WireError):
            wire.decode_result_shm(result[:-1], pos)
        with pytest.raises(wire.WireError):
            wire.decode_result_shm(result + b"\x00", pos)

    def test_corrupt_blob_fails_check(self):
        blob = wire.encode_state_delta(b"\xcc" * 64)
        frame = wire.encode_task_shm(1, 2, 3, 4, 0, 0, 1, blob, seq=7)
        __, pos = wire.decode_message(frame)
        msg = wire.decode_task_shm(frame, pos)
        mutated = bytearray(blob)
        mutated[10] ^= 0x01
        with pytest.raises(wire.WireError, match="checksum"):
            wire.check_blob(bytes(mutated), msg.blob_crc)
