"""Durable checkpoint/restore: format, atomicity, and the resume
property — a killed-and-resumed run is byte-identical to an
uninterrupted one."""

import errno
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import build_collatz, build_ising
from repro.core import checkpoint as ck
from repro.core.trajectory_cache import TrajectoryCache
from repro.errors import EngineError
from repro.runtime import RealParallelEngine, RuntimeConfig

DETERMINISTIC = RuntimeConfig(n_workers=2, inflight_wait_bias=1e9)


def sequential_state(program, limit=50_000_000):
    machine = program.make_machine()
    machine.run(max_instructions=limit)
    assert machine.halted
    return bytes(machine.state.buf)


class TestEncoding:
    @settings(max_examples=50, deadline=None)
    @given(state=st.binary(min_size=0, max_size=2048),
           instructions=st.integers(min_value=0, max_value=2**62),
           program=st.none() | st.text(max_size=40))
    def test_round_trip(self, state, instructions, program):
        blob = ck.encode_checkpoint(state, instructions,
                                    meta={"program": program})
        loaded = ck.decode_checkpoint(blob)
        assert loaded.state == state
        assert loaded.instruction_count == instructions
        assert loaded.program_name == program
        assert loaded.cache_blob is None
        assert loaded.load_cache() is None

    def test_round_trip_with_cache(self):
        from test_core_cache_io import make_entry
        cache = TrajectoryCache()
        for seed in range(5):
            cache.insert(make_entry(seed=seed, length=10 + seed))
        blob = ck.encode_checkpoint(b"\x01" * 64, 123, cache=cache)
        loaded = ck.decode_checkpoint(blob)
        restored = loaded.load_cache()
        assert len(restored) == 5
        assert {e.length for e in restored.entries()} \
            == {e.length for e in cache.entries()}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_bit_flip_rejected(self, data):
        blob = bytearray(ck.encode_checkpoint(b"\xaa" * 256, 42,
                                              meta={"program": "p"}))
        pos = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        blob[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
        with pytest.raises(EngineError):
            ck.decode_checkpoint(bytes(blob))

    def test_truncation_rejected(self):
        blob = ck.encode_checkpoint(b"\xbb" * 128, 7)
        for cut in range(len(blob)):
            with pytest.raises(EngineError):
                ck.decode_checkpoint(blob[:cut])

    def test_trailing_bytes_rejected(self):
        blob = ck.encode_checkpoint(b"\xcc" * 16, 1)
        with pytest.raises(EngineError):
            ck.decode_checkpoint(blob + b"\x00")


class TestFiles:
    def test_write_read(self, tmp_path):
        path = tmp_path / "ckpt-00000001.ascp"
        ck.write_checkpoint(path, b"\x01\x02", 99, meta={"program": "x"})
        loaded = ck.read_checkpoint(path)
        assert loaded.state == b"\x01\x02"
        assert loaded.instruction_count == 99
        assert not os.path.exists(str(path) + ".tmp")

    def test_crash_mid_write_previous_survives(self, tmp_path):
        """A torn write leaves only a .tmp file; readers never see it
        and the previous checkpoint stays the latest valid one."""
        good = tmp_path / "ckpt-00000001.ascp"
        ck.write_checkpoint(good, b"GOOD", 10)
        # Simulate a crash mid-write of the next checkpoint.
        torn = tmp_path / "ckpt-00000002.ascp.tmp"
        torn.write_bytes(b"torn garbage")
        assert ck.checkpoint_paths(tmp_path) == [str(good)]
        loaded = ck.load_latest(tmp_path)
        assert loaded.state == b"GOOD"
        # The planted file is this test's, not litter a write left: the
        # CI gate that runs this suite fails on any *.tmp it finds.
        torn.unlink()

    def test_failed_write_leaves_no_tmp(self, tmp_path, monkeypatch):
        """A checkpoint write that hits a full disk removes its temp
        file: each retry takes a new sequence number, so litter would
        pile up on the disk that is already full."""
        good = tmp_path / "ckpt-00000001.ascp"
        ck.write_checkpoint(good, b"GOOD", 10)

        def full(fd):
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(os, "fsync", full)
        with pytest.raises(OSError):
            ck.write_checkpoint(tmp_path / "ckpt-00000002.ascp", b"NEW", 20)
        assert sorted(os.listdir(tmp_path)) == ["ckpt-00000001.ascp"]
        assert ck.load_latest(tmp_path).state == b"GOOD"

    def test_load_latest_walks_past_corrupt(self, tmp_path):
        ck.write_checkpoint(tmp_path / "ckpt-00000001.ascp", b"OLD", 1)
        ck.write_checkpoint(tmp_path / "ckpt-00000002.ascp", b"NEW", 2)
        # The newest got bit-rotted on disk.
        path = tmp_path / "ckpt-00000002.ascp"
        rotted = bytearray(path.read_bytes())
        rotted[-1] ^= 0xFF
        path.write_bytes(bytes(rotted))
        loaded = ck.load_latest(tmp_path)
        assert loaded.state == b"OLD"

    def test_load_latest_empty_or_missing_dir(self, tmp_path):
        assert ck.load_latest(tmp_path) is None
        assert ck.load_latest(tmp_path / "nope") is None
        assert ck.latest_checkpoint(tmp_path) is None

    def test_non_checkpoint_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hi")
        (tmp_path / "ckpt-abc.ascp").write_text("bad seq")
        ck.write_checkpoint(tmp_path / "ckpt-00000003.ascp", b"S", 3)
        assert len(ck.checkpoint_paths(tmp_path)) == 1


class TestCheckpointer:
    def test_cadence(self, tmp_path):
        cp = ck.Checkpointer(tmp_path, every_instructions=100)
        assert not cp.due(99)
        assert cp.maybe_save(99, b"s") is None
        assert cp.maybe_save(100, b"s") is not None
        assert cp.saves == 1
        # Cadence is relative to the last save.
        assert not cp.due(150)
        assert cp.due(200)

    def test_note_resumed_anchors_cadence(self, tmp_path):
        cp = ck.Checkpointer(tmp_path, every_instructions=100)
        cp.note_resumed(500)
        assert not cp.due(550)
        assert cp.due(600)

    def test_prune_keeps_newest(self, tmp_path):
        cp = ck.Checkpointer(tmp_path, every_instructions=1, keep=2)
        for i in range(1, 6):
            cp.save(i, b"s%d" % i)
        paths = ck.checkpoint_paths(tmp_path)
        assert len(paths) == 2
        assert ck.load_latest(tmp_path).instruction_count == 5

    def test_sequence_continues_across_instances(self, tmp_path):
        first = ck.Checkpointer(tmp_path, every_instructions=1)
        first.save(1, b"a")
        second = ck.Checkpointer(tmp_path, every_instructions=1)
        second.save(2, b"b")
        names = [os.path.basename(p)
                 for p in ck.checkpoint_paths(tmp_path)]
        assert names == ["ckpt-00000001.ascp", "ckpt-00000002.ascp"]

    def test_full_disk_prunes_older_then_skips(self, tmp_path):
        """ENOSPC: prune all but the newest checkpoint and retry once;
        still full, skip this one and keep the newest durable."""
        cp = ck.Checkpointer(tmp_path, every_instructions=1, keep=None)
        for i in range(1, 4):
            cp.save(i, b"s%d" % i)
        cp.disk.inject(1)  # the retry after pruning lands
        assert cp.save(4, b"s4") is not None
        assert [ck.read_checkpoint(p).instruction_count
                for p in ck.checkpoint_paths(tmp_path)] == [3, 4]
        cp.disk.inject(2)  # the retry fails too
        assert cp.save(5, b"s5") is None
        cp.disk.inject(1)  # nothing left to prune: no retry
        assert cp.save(6, b"s6") is None
        assert (cp.saves, cp.skips, cp.disk.enospc_events) == (4, 2, 4)
        assert sorted(os.listdir(tmp_path)) == ["ckpt-00000004.ascp"]
        assert ck.load_latest(tmp_path).state == b"s4"
        assert not cp.due(6) and cp.due(7)  # a skip restarts the cadence

    def test_bad_cadence_rejected(self, tmp_path):
        with pytest.raises(EngineError):
            ck.Checkpointer(tmp_path, every_instructions=0)


@pytest.fixture(scope="module", params=["collatz", "ising"])
def workload(request):
    if request.param == "collatz":
        return build_collatz(count=300)
    return build_ising(nodes=48, spins=6)


class TestResumeDifferential:
    def test_killed_at_checkpoint_and_resumed_matches_uninterrupted(
            self, workload, tmp_path):
        """The acceptance property: run with checkpointing, pretend the
        process died, resume from the newest snapshot — the final state
        is byte-identical to the uninterrupted sequential run."""
        expected = sequential_state(workload.program)
        cp = ck.Checkpointer(tmp_path, every_instructions=20_000,
                             program=workload.program.name)
        first = RealParallelEngine(
            workload.program, config=workload.config,
            runtime_config=DETERMINISTIC, checkpointer=cp).run()
        assert first.halted
        assert first.final_state == expected
        assert first.runtime.checkpoints_written >= 1

        snapshot = ck.load_latest(tmp_path)
        assert snapshot is not None
        assert snapshot.program_name == workload.program.name
        assert 0 < snapshot.instruction_count < first.total_instructions

        engine = RealParallelEngine(
            workload.program, config=workload.config,
            runtime_config=DETERMINISTIC, resume_from=snapshot)
        resumed = engine.run()
        assert resumed.halted
        assert resumed.final_state == expected
        assert engine.resumed_instructions == snapshot.instruction_count
        assert resumed.runtime.checkpoints_restored == 1
        # The resumed run only replayed the tail.
        assert resumed.total_instructions < first.total_instructions

    def test_full_disk_skips_checkpoints_and_run_ends_identical(
            self, tmp_path):
        """A run whose first checkpoints meet a full disk skips them and
        runs on; later ones land, and both the run and a resume from
        its newest checkpoint end byte-identical to sequential."""
        workload = build_collatz(count=300)
        expected = sequential_state(workload.program)
        cp = ck.Checkpointer(tmp_path, every_instructions=5_000,
                             program=workload.program.name)
        cp.disk.inject(2)
        first = RealParallelEngine(
            workload.program, config=workload.config,
            runtime_config=DETERMINISTIC, checkpointer=cp).run()
        assert first.final_state == expected
        assert cp.skips == 2
        assert first.runtime.checkpoints_written == cp.saves >= 1
        snapshot = ck.load_latest(tmp_path)
        assert snapshot.sequence > 2  # the skipped sequence numbers
        resumed = RealParallelEngine(
            workload.program, config=workload.config,
            runtime_config=DETERMINISTIC, resume_from=snapshot).run()
        assert resumed.final_state == expected

    def test_resume_restores_cache_entries(self, tmp_path):
        workload = build_collatz(count=300)
        expected = sequential_state(workload.program)
        cp = ck.Checkpointer(tmp_path, every_instructions=20_000,
                             keep=None, program=workload.program.name)
        first = RealParallelEngine(
            workload.program, config=workload.config,
            runtime_config=DETERMINISTIC, checkpointer=cp).run()
        assert first.runtime.entries_shipped > 0
        # Resume from the *earliest* checkpoint: where the newest one
        # lands depends on load (it can fall within one superstep of
        # the end, leaving no tail to serve hits from), but the first
        # always lands one cadence in, leaving most of the run ahead.
        paths = ck.checkpoint_paths(tmp_path)
        assert paths
        snapshot = ck.read_checkpoint(paths[0])
        restored = snapshot.load_cache()
        assert restored is not None and len(restored) > 0
        resumed = RealParallelEngine(
            workload.program, config=workload.config,
            runtime_config=DETERMINISTIC, resume_from=snapshot).run()
        assert resumed.final_state == expected
        # Restored entries serve hits without re-earning them.
        assert resumed.stats.hits > 0

    def test_wrong_program_rejected(self, tmp_path):
        collatz = build_collatz(count=300)
        ising = build_ising(nodes=48, spins=6)
        cp = ck.Checkpointer(tmp_path, every_instructions=20_000)
        RealParallelEngine(collatz.program, config=collatz.config,
                           runtime_config=DETERMINISTIC,
                           checkpointer=cp).run()
        snapshot = ck.load_latest(tmp_path)
        with pytest.raises(EngineError, match="state"):
            RealParallelEngine(ising.program, config=ising.config,
                               runtime_config=DETERMINISTIC,
                               resume_from=snapshot).run()


class TestSigkillResumeCLI:
    def test_sigkilled_run_resumes_to_identical_state(self, tmp_path):
        """End to end through the CLI: SIGKILL a real-backend run
        mid-flight, then ``repro run --resume`` must finish with the
        exact state an uninterrupted run produces."""
        workload = build_collatz(count=600)
        image = tmp_path / "collatz.json"
        workload.program.save(str(image))
        ckdir = tmp_path / "ck"
        env = dict(os.environ, PYTHONPATH="src",
                   REPRO_FAST_PATH="0")  # slow tier: killable mid-run
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", str(image),
             "--backend", "real", "--workers", "2",
             "--checkpoint-dir", str(ckdir), "--checkpoint-every", "5000"],
            cwd="/root/repo", env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if ck.checkpoint_paths(ckdir) and child.poll() is None:
                    break
                if child.poll() is not None:
                    break
                time.sleep(0.1)
            assert ck.checkpoint_paths(ckdir), \
                "no checkpoint appeared before the child exited"
            if child.poll() is None:
                os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)

        resumed_state = tmp_path / "resumed.bin"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(image),
             "--backend", "real", "--workers", "2",
             "--checkpoint-dir", str(ckdir), "--resume",
             "--state-out", str(resumed_state)],
            cwd="/root/repo", env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert resumed_state.read_bytes() == sequential_state(
            workload.program)
