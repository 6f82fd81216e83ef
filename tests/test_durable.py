"""Records at rest: framing goldens, formats pinned across versions, and
the disk-full ladder driven directly.

The goldens under ``tests/data/at_rest/`` were written by the code that
predates :mod:`repro.durable` (the section frame then lived in
``cache_io``, and checkpoints, shards and the journal each had their
own header check, atomic write and ``ENOSPC`` retry loop): the same
inputs must give the same bytes, and the checkpoint and journal
directories written then must still load and replay.
"""

import errno
import json
import os
import shutil
import struct
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from repro import durable
from repro.core import checkpoint as ck
from repro.core.trajectory_cache import CacheEntry, TrajectoryCache
from repro.errors import EngineError
from repro.loader.image import Program
from repro.serve.journal import JobJournal
from repro.serve.queue import Job

DATA = os.path.join(os.path.dirname(__file__), "data", "at_rest")
FROZEN_TIME = 1_700_000_000.25


def goldens():
    with open(os.path.join(DATA, "goldens.json")) as handle:
        return json.load(handle)


def pinned_cache():
    """The two entries ``test_shard_bytes_are_pinned`` also pins."""
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
    return cache


def write_checkpoint_dir(directory):
    """How ``checkpoints/`` was written (keep=2 prunes the first)."""
    cp = ck.Checkpointer(directory, every_instructions=1, keep=2,
                         program="golden")
    cp.save(100, bytes([1]) * 48, cache=pinned_cache())
    cp.save(200, bytes([2]) * 48)
    cp.save(300, bytes([3]) * 48, cache=pinned_cache())


def files_under(directory):
    found = {}
    for root, __, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, directory)] = handle.read()
    return found


class TestFraming:
    def test_section_bytes_are_pinned(self):
        assert durable.encode_section(b"TEST", b"payload").hex() \
            == goldens()["section"]
        assert durable.encode_section(b"NONE", b"").hex() \
            == goldens()["empty_section"]

    def test_section_round_trip_and_damage(self):
        frame = durable.encode_section(b"TEST", b"payload") + b"tail"
        assert durable.decode_section(frame) == (b"TEST", b"payload",
                                                 len(frame) - 4)
        for cut in range(len(frame) - 4):
            with pytest.raises(EngineError):
                durable.decode_section(frame[:cut])
        rotted = bytearray(frame)
        rotted[14] ^= 0x01
        with pytest.raises(EngineError, match="CRC"):
            durable.decode_section(bytes(rotted))
        with pytest.raises(EngineError, match="cap"):
            durable.decode_section(frame, max_payload=6)
        with pytest.raises(EngineError):
            durable.encode_section(b"LONGER", b"")

    def test_header_check(self):
        header = struct.Struct("<4sHI")
        blob = header.pack(b"ABCD", 3, 77)
        assert durable.read_header(blob, header, b"ABCD", 3, "thing") \
            == [77]
        with pytest.raises(EngineError, match="too short"):
            durable.read_header(blob[:-1], header, b"ABCD", 3, "thing")
        with pytest.raises(EngineError, match="bad magic"):
            durable.read_header(blob, header, b"ABCE", 3, "thing")
        with pytest.raises(EngineError, match="version 3"):
            durable.read_header(blob, header, b"ABCD", 2, "thing")


class TestFormatsPinned:
    def test_checkpoint_bytes_are_pinned(self):
        blob = ck.encode_checkpoint(bytes(range(32)), 4321,
                                    cache=pinned_cache(),
                                    meta={"program": "golden",
                                          "sequence": 7})
        assert blob.hex() == goldens()["checkpoint_with_cache"]

    def test_journal_bytes_are_pinned(self, tmp_path):
        with mock.patch("time.time", return_value=FROZEN_TIME):
            with JobJournal(str(tmp_path), fsync=False) as journal:
                journal.record_mode("degraded", reason="golden")
                journal.record_state("j7", "failed", error="boom",
                                     extra={"hits": 3})
        with open(journal.path, "rb") as handle:
            assert handle.read().hex() == goldens()["journal_two_records"]

    def test_checkpoint_dir_written_the_same(self, tmp_path):
        write_checkpoint_dir(str(tmp_path))
        assert files_under(str(tmp_path)) \
            == files_under(os.path.join(DATA, "checkpoints"))

    def test_old_checkpoint_dir_loads(self, tmp_path):
        directory = str(tmp_path / "checkpoints")
        shutil.copytree(os.path.join(DATA, "checkpoints"), directory)
        loaded = ck.load_latest(directory)
        assert loaded.sequence == 3
        assert loaded.instruction_count == 300
        assert loaded.program_name == "golden"
        assert loaded.state == bytes([3]) * 48
        restored = loaded.load_cache()
        assert sorted(e.length for e in restored.entries()) \
            == [1234, 2**40]
        # The sequence continues past what the old writer left.
        cp = ck.Checkpointer(directory, every_instructions=1, keep=2)
        assert os.path.basename(cp.save(400, b"s")) == "ckpt-00000004.ascp"

    def test_old_journal_dir_replays(self, tmp_path):
        directory = str(tmp_path / "journal")
        shutil.copytree(os.path.join(DATA, "journal"), directory)
        with JobJournal(directory, fsync=False) as journal:
            assert journal.records_replayed == 5
            assert journal.truncated_bytes == 0
            assert journal.mode == "degraded"
            done, interrupted = journal.jobs["j1"], journal.jobs["j2"]
            assert (done.state, done.token) == ("done", "tok-1")
            assert done.summary_extra == {"state_sha256": "ab"}
            assert done.finished_at == FROZEN_TIME
            assert journal.interrupted_jobs() == [interrupted]
            assert interrupted.options == {"max_instructions": 1000}
            program = Program.from_dict(interrupted.program_dict)
            assert program.image_hash() == interrupted.namespace
            assert journal.load_result("j1") == {"halted": True, "hits": 3}
            journal.record_state("j2", "running")
        with JobJournal(directory, fsync=False) as journal:
            assert journal.records_replayed == 6
            assert journal.jobs["j2"].state == "running"


class TestListing:
    def test_oldest_first_and_remove(self, tmp_path):
        for i, name in enumerate(("c.json", "a.json", "b.json", "x.txt")):
            path = tmp_path / name
            path.write_bytes(b"." * (10 * (i + 1)))
            os.utime(str(path), (100 + i, 100 + i))
        os.utime(str(tmp_path / "b.json"), (100, 100))  # ties c.json
        files = durable.oldest_first(str(tmp_path), ".json")
        assert [os.path.basename(p) for p, __ in files] \
            == ["b.json", "c.json", "a.json"]
        assert [size for __, size in files] == [30, 10, 20]
        removed = durable.remove_oldest(files, 35)
        assert [os.path.basename(p) for p in removed] \
            == ["b.json", "c.json"]
        assert sorted(os.listdir(str(tmp_path))) == ["a.json", "x.txt"]
        assert durable.remove_oldest(files[2:], 0) == []
        assert durable.oldest_first(str(tmp_path / "missing"), ".json") \
            == []


class TestDiskPressure:
    def enospc(self):
        raise OSError(errno.ENOSPC, "full")

    def test_two_enospcs_do_not_land(self):
        ladder = durable.DiskPressure()
        rooms, rewinds = [], []
        landed = ladder.write(self.enospc,
                              lambda: rooms.append(1) or 1,
                              rewind=lambda: rewinds.append(1))
        assert landed is False
        assert ladder.enospc_events == 2
        assert len(rooms) == 1 and len(rewinds) == 2

    def test_retry_after_room_lands(self):
        ladder = durable.DiskPressure()
        written = []
        ladder.inject(1)
        assert ladder.write(lambda: written.append(1), lambda: 1) is True
        assert written == [1]
        assert ladder.enospc_events == 1

    def test_no_room_means_no_retry(self):
        ladder = durable.DiskPressure()
        attempts = []

        def write():
            attempts.append(1)
            self.enospc()
        assert ladder.write(write, lambda: 0) is False
        assert attempts == [1]
        assert ladder.enospc_events == 1

    def test_other_errors_propagate(self):
        ladder = durable.DiskPressure()

        def write():
            raise OSError(errno.EACCES, "denied")
        with pytest.raises(OSError) as caught:
            ladder.write(write, lambda: 1)
        assert caught.value.errno == errno.EACCES
        assert ladder.enospc_events == 0

    def test_injected_faults_are_consumed_exactly(self):
        ladder = durable.DiskPressure()
        written = []
        ladder.inject(3)
        assert ladder.write(lambda: written.append(1), lambda: 1) is False
        assert ladder.write(lambda: written.append(2), lambda: 1) is True
        assert written == [2]
        assert ladder.enospc_events == 3
        assert ladder.write(lambda: written.append(3), lambda: 0) is True

    def test_concurrent_writers_lose_no_fault_or_count(self):
        """The journal's appends and its result store share one ladder
        from different threads: every armed fault is consumed once and
        counted once."""
        ladder = durable.DiskPressure()
        ladder.inject(300)
        landed = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: landed.extend(
                ladder.write(lambda: None, lambda: 1) for __ in range(100)))
                for __ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert ladder.enospc_events == 300
        assert len(landed) == 800
        # Every armed fault is spent: the next write lands untried.
        assert ladder.write(lambda: None, lambda: 0) is True
