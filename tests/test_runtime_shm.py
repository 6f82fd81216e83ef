"""Shared-memory transport: rings, epoch protocol, hygiene, parity.

Three layers of guarantees:

* :class:`~repro.runtime.shm.ShmRing` unit behavior — push/read/release
  discipline, wrap-around, backpressure, desync detection;
* the transport end to end through a real :class:`WorkerPool` —
  results identical with rings and ringless, delta accounting for
  both, stale (epoch-mismatch) recovery, oversized-blob crash
  semantics;
* hygiene — no ``/dev/shm`` segment survives pool shutdown, worker
  SIGKILL + respawn, or (via the registry the atexit sweep walks) an
  unclean engine exit.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.asm import assemble
from repro.runtime import shm, wire
from repro.runtime.config import RuntimeConfig
from repro.runtime.pool import (
    TASK_CRASHED,
    TASK_OK,
    TASK_STALE,
    WorkerPool,
)

pytestmark = pytest.mark.skipif(not shm.shm_available(),
                                reason="no multiprocessing.shared_memory")


@pytest.fixture(scope="module")
def loop_program():
    return assemble("""
        .entry start
        start:
            mov eax, 0
        top:
            load ecx, [counter]
            add ecx, 3
            store [counter], ecx
            inc eax
            cmp eax, 50
            jl top
            hlt
        .data
        counter: .word 0
    """, name="shm-loop")


def boundary_state(program):
    machine = program.make_machine()
    top = program.symbol("top")
    machine.run(max_instructions=100_000, break_ips=frozenset((top,)))
    return top, bytes(machine.state.buf)


def successive_states(program, n):
    """(rip, the states at the first ``n`` crossings of ``top``)."""
    machine = program.make_machine()
    top = program.symbol("top")
    states = []
    for __ in range(n):
        machine.run(max_instructions=100_000, break_ips=frozenset((top,)))
        states.append(bytes(machine.state.buf))
    return top, states


def poll_until(pool, n, budget_seconds=20.0):
    outcomes = []
    deadline = time.monotonic() + budget_seconds
    while len(outcomes) < n and time.monotonic() < deadline:
        outcomes.extend(pool.poll(timeout=0.2))
    return outcomes


# -- ring unit tests ---------------------------------------------------------

class TestShmRing:
    def test_push_read_release_round_trip(self):
        ring = shm.create_ring(256)
        try:
            seq = ring.try_push(b"hello")
            assert seq == 0
            peer = shm.attach_ring(ring.name)
            try:
                assert peer.read(seq, 5) == b"hello"
                peer.release(seq + 5)
                assert peer.used_bytes() == 0
            finally:
                peer.close()
        finally:
            ring.unlink()

    def test_wrap_around(self):
        ring = shm.create_ring(64)
        try:
            for i in range(10):  # 10 * 24 bytes through a 64-byte ring
                blob = bytes([i]) * 24
                seq = ring.try_push(blob)
                assert seq is not None
                assert ring.read(seq, 24) == blob
                ring.release(seq + 24)
        finally:
            ring.unlink()

    def test_full_ring_backpressure_then_recovers(self):
        ring = shm.create_ring(64)
        try:
            seq = ring.try_push(b"\xaa" * 40)
            assert seq is not None
            assert ring.try_push(b"\xbb" * 40) is None  # only 24 free
            ring.release(seq + 40)
            assert ring.try_push(b"\xbb" * 40) is not None
        finally:
            ring.unlink()

    def test_blob_larger_than_ring_never_fits(self):
        ring = shm.create_ring(64)
        try:
            assert ring.try_push(b"\x00" * 65) is None
            assert ring.try_push(b"") is None
        finally:
            ring.unlink()

    def test_cumulative_release_reclaims_skipped_blob(self):
        """A dropped control frame strands its blob; releasing through a
        later blob reclaims the skipped region too."""
        ring = shm.create_ring(64)
        try:
            ring.try_push(b"\x01" * 30)  # never read (dropped frame)
            seq_b = ring.try_push(b"\x02" * 30)
            assert ring.free_bytes() == 4
            assert ring.read(seq_b, 30) == b"\x02" * 30
            ring.release(seq_b + 30)
            assert ring.free_bytes() == 64
        finally:
            ring.unlink()

    def test_read_beyond_head_is_desync(self):
        ring = shm.create_ring(64)
        try:
            with pytest.raises(shm.ShmError, match="desync"):
                ring.read(0, 8)
            ring.try_push(b"\x00" * 8)
            with pytest.raises(shm.ShmError):
                ring.read(0, 16)
            with pytest.raises(shm.ShmError, match="capacity"):
                ring.read(0, 65)
        finally:
            ring.unlink()

    def test_attach_validates_header(self):
        ring = shm.create_ring(64)
        try:
            ring.shm.buf[:4] = b"JUNK"
            with pytest.raises(shm.ShmError, match="not a runtime ring"):
                shm.attach_ring(ring.name)
        finally:
            ring.shm.buf[:4] = shm.RING_MAGIC
            ring.unlink()

    def test_attach_missing_segment(self):
        with pytest.raises(shm.ShmError, match="cannot attach"):
            shm.attach_ring("psm_repro_definitely_missing")

    def test_registry_tracks_created_segments(self):
        """The atexit sweep walks exactly the segments created and not
        yet unlinked — create/unlink must keep it balanced."""
        before = set(shm.live_segment_names())
        ring = shm.create_ring(64)
        assert ring.name in set(shm.live_segment_names()) - before
        ring.unlink()
        assert ring.name not in shm.live_segment_names()


# -- transport end-to-end ----------------------------------------------------

class TestShmTransport:
    def test_ringed_and_ringless_results_identical(self, loop_program,
                                                   ringless):
        rip, start = boundary_state(loop_program)
        results = {}
        for mode, refused_slots in (("rings", ()), ("ringless", None)):
            ringless.slots = refused_slots
            with WorkerPool(loop_program,
                            RuntimeConfig(n_workers=1)) as pool:
                assert (pool._workers[0].task_ring is None) \
                    == (mode == "ringless")
                assert pool.submit(rip, 1, 10_000, start) is not None
                outcomes = poll_until(pool, 1)
            assert len(outcomes) == 1
            assert outcomes[0].status == TASK_OK
            entry = outcomes[0].entry
            results[mode] = (
                outcomes[0].instructions, entry.length,
                list(entry.start_indices), list(entry.start_values),
                list(entry.end_indices), list(entry.end_values))
        assert results["rings"] == results["ringless"]

    def test_delta_shipping_and_accounting(self, loop_program):
        """Back-to-back tasks on one worker: first ships a full
        snapshot, subsequent states go as sparse deltas; physical pipe
        bytes stay far below the states and entries moved."""
        rip, states = successive_states(loop_program, 6)
        config = RuntimeConfig(n_workers=1, queue_depth=8)
        with WorkerPool(loop_program, config) as pool:
            for i, state in enumerate(states):
                assert pool.submit(rip, 1, 10_000, state, meta=i) is not None
            outcomes = poll_until(pool, 6)
            stats = pool.stats
        assert len(outcomes) == 6
        assert all(o.status == TASK_OK for o in outcomes)
        assert stats.states_full == 1
        assert stats.states_delta == 5
        assert stats.state_bytes_shipped < stats.state_bytes_raw
        assert stats.shm_bytes_written > 0
        assert stats.shm_bytes_read > 0
        # Control frames only on the pipes: the states went out, and
        # the entries came back, through the rings.
        assert stats.shm_fallbacks == 0
        assert stats.bytes_sent * 4 < stats.state_bytes_raw
        assert stats.bytes_received < stats.shm_bytes_read

    def test_ringless_worker_speaks_the_same_protocol(self, loop_program,
                                                      ringless):
        """One slot of two gets no rings. Its tasks still ship as sparse
        deltas — inline, counted as fallbacks — the ledger balances
        with no exemption, and each spawn refused rings counts once."""
        ringless.slots = {1}
        rip, states = successive_states(loop_program, 6)
        config = RuntimeConfig(n_workers=2, queue_depth=8,
                               task_timeout_seconds=None)
        with WorkerPool(loop_program, config) as pool:
            stats = pool.stats
            assert pool._workers[0].task_ring is not None
            assert pool._workers[1].task_ring is None
            assert stats.shm_alloc_failures == 1
            # No poll in between: least-loaded dispatch alternates slots.
            tasks = [pool.submit(rip, 1, 10_000, state, meta=i)
                     for i, state in enumerate(states)]
            assert [task.worker for task in tasks] == [0, 1] * 3
            outcomes = poll_until(pool, 6)
            assert len(outcomes) == 6
            assert all(o.status == TASK_OK for o in outcomes)
            # Each worker: one full snapshot, then two sparse deltas.
            assert (stats.states_full, stats.states_delta) == (2, 4)
            # The ringless worker's deltas are what rode the pipe: its
            # second and third frames are far smaller than a state.
            assert stats.shm_fallbacks == 3
            assert all(task.payload_bytes * 4 < len(states[0])
                       for task in tasks[3::2])
            assert stats.state_bytes_shipped == (
                stats.shm_bytes_written + stats.shm_fallback_bytes)
            assert stats.shm_bytes_written > 0 < stats.shm_fallback_bytes
            # A respawn tries for rings again — and is refused again.
            os.kill(pool._workers[1].proc.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while stats.workers_respawned == 0 \
                    and time.monotonic() < deadline:
                pool.poll(timeout=0.05)
            assert stats.workers_respawned == 1
            assert stats.shm_alloc_failures == 2
        assert shm.live_segment_names() == []

    def test_epoch_mismatch_reports_stale_and_recovers(self, loop_program):
        """Force the engine's epoch bookkeeping out of sync: the worker
        must answer stale (never guess), and the next dispatch must
        ship a full snapshot that succeeds."""
        rip, start = boundary_state(loop_program)
        config = RuntimeConfig(n_workers=1, queue_depth=4)
        with WorkerPool(loop_program, config) as pool:
            assert pool.submit(rip, 1, 10_000, start, meta="warm") is not None
            assert poll_until(pool, 1)[0].status == TASK_OK
            worker = pool._workers[0]
            worker.epoch += 7  # desync: pretend sends the worker never saw
            mutated = bytearray(start)
            mutated[0] ^= 1
            assert pool.submit(rip, 1, 10_000, bytes(mutated),
                               meta="stale") is not None
            outcome = poll_until(pool, 1)[0]
            assert outcome.status == TASK_STALE
            assert outcome.task.meta == "stale"
            assert pool.stats.stale_results == 1
            # The pool cleared its base: the retry ships full and runs.
            assert worker.base_state is None
            assert pool.submit(rip, 1, 10_000, start,
                               meta="retry") is not None
            retry = poll_until(pool, 1)[0]
            assert retry.status == TASK_OK
            assert pool.stats.states_full >= 2

    def test_oversized_shm_blob_is_a_worker_crash(self, loop_program):
        """The control frame fits the 64-byte cap but names a blob far
        beyond it — the worker must refuse to materialize it and die,
        exactly like an oversized pipe frame."""
        rip, start = boundary_state(loop_program)
        config = RuntimeConfig(n_workers=1, max_frame_bytes=64,
                               task_timeout_seconds=None)
        with WorkerPool(loop_program, config) as pool:
            task = pool.submit(rip, 1, 10_000, start, meta="big")
            assert task is not None  # control frame itself fits
            outcomes = poll_until(pool, 1)
            assert len(outcomes) == 1
            assert outcomes[0].status == TASK_CRASHED
            assert pool.stats.tasks_crashed == 1

    def test_ring_too_small_falls_back_to_inline(self, loop_program):
        """A blob that can never fit the ring travels inline on the
        pipe; the task still completes."""
        rip, start = boundary_state(loop_program)
        config = RuntimeConfig(n_workers=1, shm_ring_bytes=64)
        with WorkerPool(loop_program, config) as pool:
            assert pool.submit(rip, 1, 10_000, start) is not None
            outcomes = poll_until(pool, 1)
        assert len(outcomes) == 1
        assert outcomes[0].status == TASK_OK
        assert pool.stats.shm_bytes_written == 0  # everything went inline


# -- hygiene -----------------------------------------------------------------

def _psm_segments():
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: fall back to the registry
        return set(shm.live_segment_names())


class TestShmHygiene:
    def test_no_leaked_segments_after_sigkilled_run(self, loop_program):
        """SIGKILL a worker mid-task (its rings are unlinked on respawn)
        and then shut the pool down: no psm_* segment may survive."""
        before = _psm_segments()
        rip, start = boundary_state(loop_program)
        config = RuntimeConfig(n_workers=2, task_timeout_seconds=None)
        with WorkerPool(loop_program, config) as pool:
            pool.submit(rip, 1, 10_000, start)
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while pool.stats.workers_respawned == 0 \
                    and time.monotonic() < deadline:
                pool.poll(timeout=0.05)
            assert pool.stats.workers_respawned == 1
            # Live pool: exactly the current workers' rings exist.
            assert pool.submit(rip, 1, 10_000, start) is not None
            poll_until(pool, 1)
        assert _psm_segments() - before == set()
        assert shm.live_segment_names() == []

    def test_quarantined_slot_releases_its_rings(self, loop_program):
        before = _psm_segments()
        config = RuntimeConfig(n_workers=1, respawn_limit=0)
        with WorkerPool(loop_program, config) as pool:
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while pool.active_workers and time.monotonic() < deadline:
                pool.poll(timeout=0.05)
            assert pool.active_workers == 0
            # The dead slot's rings are gone even before shutdown.
            assert len(_psm_segments() - before) == 0
        assert _psm_segments() - before == set()

    def test_sigkilled_engine_rings_reaped_by_workers(self, tmp_path):
        """SIGKILL the *engine* process mid-run: its atexit sweep never
        fires, so the orphaned workers must notice the re-parenting,
        force-unlink their own rings, and exit — no psm_* leak."""
        source = tmp_path / "spin.c"
        source.write_text(
            "int total;\n"
            "int main() {\n"
            "    int i;\n"
            "    for (i = 1; i <= 2000000000; i++) total += i;\n"
            "    return total;\n"
            "}\n")
        before = _psm_segments()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", str(source),
             "--backend", "real", "--workers", "2"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        def children():
            try:
                path = "/proc/%d/task/%d/children" % (proc.pid, proc.pid)
                with open(path) as fh:
                    return fh.read().split()
            except OSError:
                return []

        try:
            # Wait for the rings AND for both worker processes to be
            # alive (children: resource tracker + 2 workers) — killing
            # in the window between create_ring and Process.start
            # would strand segments no process can ever reap.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and (
                    len(_psm_segments() - before) < 4 or len(children()) < 3):
                time.sleep(0.05)
            assert len(_psm_segments() - before) == 4  # 2 workers x 2 rings
            assert len(children()) >= 3
            proc.kill()
            proc.wait(timeout=10)
            # Workers poll for re-parenting every second; give them a
            # generous window to reap on a loaded box.
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and _psm_segments() - before:
                time.sleep(0.1)
            assert _psm_segments() - before == set()
        finally:
            proc.kill()
            proc.wait(timeout=10)

    def test_atexit_sweep_reaps_unclosed_segments(self):
        """Simulate an unclean exit: segments never unlinked by a pool
        are reaped by the registered atexit sweep."""
        ring = shm.create_ring(64)
        name = ring.name
        assert name in shm.live_segment_names()
        shm._cleanup_created_segments()
        assert shm.live_segment_names() == []
        with pytest.raises(shm.ShmError):
            shm.attach_ring(name)  # really gone from the kernel
