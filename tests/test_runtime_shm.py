"""Shared-memory transport: rings, epoch protocol, hygiene, parity.

Three layers of guarantees:

* :class:`~repro.runtime.shm.ShmRing` unit behavior — push/read/release
  discipline, wrap-around, backpressure, desync detection, cursors
  that never read torn across processes;
* the transport end to end through a real :class:`WorkerPool` —
  results identical with rings and ringless, delta accounting for
  both, stale (epoch-mismatch) recovery, oversized-blob crash
  semantics;
* hygiene — no ring stays open past pool shutdown or worker SIGKILL +
  respawn, no named segment appears even when the engine dies before
  its worker starts, and a worker maps only its own two rings.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from conftest import psm_names
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
                                reason="no fork to hand rings to workers")


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
            pid = os.fork()
            if pid == 0:  # the peer: a forked process mapping the ring
                status = 1
                try:
                    if ring.read(seq, 5) == b"hello":
                        ring.release(seq + 5)
                        status = 0
                finally:
                    os._exit(status)
            assert os.waitpid(pid, 0)[1] == 0
            assert ring.used_bytes() == 0
        finally:
            ring.close()

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
            ring.close()

    def test_full_ring_backpressure_then_recovers(self):
        ring = shm.create_ring(64)
        try:
            seq = ring.try_push(b"\xaa" * 40)
            assert seq is not None
            assert ring.try_push(b"\xbb" * 40) is None  # only 24 free
            ring.release(seq + 40)
            assert ring.try_push(b"\xbb" * 40) is not None
        finally:
            ring.close()

    def test_blob_larger_than_ring_never_fits(self):
        ring = shm.create_ring(64)
        try:
            assert ring.try_push(b"\x00" * 65) is None
            assert ring.try_push(b"") is None
        finally:
            ring.close()

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
            ring.close()

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
            ring.close()

    def test_attach_validates_header(self):
        """The worker's check on an inherited ring."""
        ring = shm.create_ring(64)
        try:
            ring.check()
            ring.map[:4] = b"JUNK"
            with pytest.raises(shm.ShmError, match="not a runtime ring"):
                ring.check()
        finally:
            ring.close()

    def test_cursors_only_move_forward_across_processes(self):
        """A forked peer advances both cursors one byte at a time for a
        second (push a byte, release it) while this process keeps
        loading them. Each load must be one 8-byte access: a cursor
        stored or loaded piecewise reads torn, lower than a value
        already seen, which the consumer reports as a ring desync."""
        ring = shm.create_ring(1 << 20)
        try:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    deadline = time.monotonic() + 1.0
                    while time.monotonic() < deadline:
                        for __ in range(256):
                            seq = ring.try_push(b"x")
                            ring.release(seq + 1)
                    status = 0
                finally:
                    os._exit(status)
            head = tail = reads = backwards = 0
            while True:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                for __ in range(256):
                    new_head = ring._load(shm._HEAD_OFFSET)
                    new_tail = ring._load(shm._TAIL_OFFSET)
                    backwards += (new_head < head) + (new_tail < tail)
                    head, tail = new_head, new_tail
                reads += 512
            assert status == 0
            assert ring._load(shm._HEAD_OFFSET) > 1000
            assert reads > 10_000
            assert backwards == 0, "%d of %d cursor loads went backwards" \
                % (backwards, reads)
        finally:
            ring.close()

    def test_registry_tracks_created_segments(self):
        """The registry a worker closes its inherited rings from holds
        exactly the rings created and not yet closed."""
        before = set(shm.live_segment_names())
        ring = shm.create_ring(64)
        assert ring.name in set(shm.live_segment_names()) - before
        ring.close()
        ring.close()  # idempotent
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

def _ring_mappings(pid, capacity):
    """Inodes of the ring-sized shared mappings in ``pid``'s address
    space — the rings it maps, for rings of ``capacity`` bytes."""
    page = os.sysconf("SC_PAGE_SIZE")
    size = -(-(shm.DATA_OFFSET + capacity) // page) * page
    inodes = []
    with open("/proc/%d/maps" % pid) as fh:
        for line in fh:
            fields = line.split()
            start, end = (int(x, 16) for x in fields[0].split("-"))
            if fields[1].endswith("s") and end - start == size:
                inodes.append(int(fields[4]))
    return inodes


def _alive(pid):
    """Whether ``pid`` is a running process (a zombie is not)."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _repro_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    return env


requires_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                   reason="needs Linux /proc")


class TestShmHygiene:
    def test_no_leaked_segments_after_sigkilled_run(self, loop_program):
        """SIGKILL a worker mid-task (its rings are closed on respawn)
        and then shut the pool down: no ring may stay open and no
        psm_* segment may appear."""
        before = psm_names()
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
            # Live pool: exactly the current workers' rings are open.
            assert len(shm.live_segment_names()) == 4
            assert pool.submit(rip, 1, 10_000, start) is not None
            poll_until(pool, 1)
        assert psm_names() - before == set()
        assert shm.live_segment_names() == []

    def test_quarantined_slot_releases_its_rings(self, loop_program):
        config = RuntimeConfig(n_workers=1, respawn_limit=0)
        with WorkerPool(loop_program, config) as pool:
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while pool.active_workers and time.monotonic() < deadline:
                pool.poll(timeout=0.05)
            assert pool.active_workers == 0
            # The dead slot's rings are closed even before shutdown.
            assert shm.live_segment_names() == []

    @requires_proc
    def test_worker_maps_only_its_own_rings(self, loop_program):
        """One process, two pools: every worker of the second maps
        exactly its own two rings — none of the first pool's, and none
        of its sibling's, although the fork copied them all."""
        first = RuntimeConfig(n_workers=1, shm_ring_bytes=1 << 16)
        second = RuntimeConfig(n_workers=2, shm_ring_bytes=1 << 17)
        with WorkerPool(loop_program, first) as old, \
                WorkerPool(loop_program, second) as new:
            # The engine maps all six rings.
            assert len(_ring_mappings(os.getpid(), 1 << 16)) == 2
            assert len(_ring_mappings(os.getpid(), 1 << 17)) == 4
            # One finished task per worker: each is past its startup.
            rip, start = boundary_state(loop_program)
            for __ in range(2):
                assert new.submit(rip, 1, 10_000, start) is not None
            assert len(poll_until(new, 2)) == 2
            own = []
            for pid in new.worker_pids():
                assert _ring_mappings(pid, 1 << 16) == []
                mapped = _ring_mappings(pid, 1 << 17)
                assert len(mapped) == 2
                own.extend(mapped)
            assert sorted(own) == sorted(_ring_mappings(os.getpid(),
                                                        1 << 17))
            assert len(_ring_mappings(old.worker_pids()[0], 1 << 16)) == 2

    @requires_proc
    def test_pools_built_concurrently_keep_rings_apart(self, loop_program):
        """Four threads build pools at once, as a daemon's job threads
        do, so rings are created while other threads fork: each worker
        still maps its own two rings and no other pool's."""
        sizes = [(1 << 16) + k * 4096 for k in range(4)]
        pools = [None] * len(sizes)

        def build(k):
            pools[k] = WorkerPool(loop_program, RuntimeConfig(
                n_workers=2, shm_ring_bytes=sizes[k]))

        threads = [threading.Thread(target=build, args=(k,))
                   for k in range(len(sizes))]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert all(pool is not None for pool in pools)
            deadline = time.monotonic() + 20.0
            while True:
                mapped = {(k, pid): [len(_ring_mappings(pid, size))
                                     for size in sizes]
                          for k, pool in enumerate(pools)
                          for pid in pool.worker_pids()}
                settled = all(counts == [2 if j == k else 0
                                         for j in range(len(sizes))]
                              for (k, __), counts in mapped.items())
                if settled or time.monotonic() > deadline:
                    break
                time.sleep(0.1)
            assert settled, mapped
        finally:
            for pool in pools:
                if pool is not None:
                    pool.shutdown()

    def test_kill_before_worker_start_leaves_nothing(self, tmp_path):
        """The engine dies after creating a worker's rings and before
        forking it — the window no named segment can survive unless
        something outside the dead process reaps it. Its whole process
        group goes at once, as a container stop or a cancelled CI job
        does it, so no helper outlives it: the kernel alone must free
        the rings."""
        script = tmp_path / "window.py"
        script.write_text(textwrap.dedent("""
            import multiprocessing.process, os, signal
            from repro.asm import assemble
            from repro.runtime.config import RuntimeConfig
            from repro.runtime.pool import WorkerPool

            def start(process):  # rings exist, no worker forked yet
                os.killpg(0, signal.SIGKILL)

            multiprocessing.process.BaseProcess.start = start
            WorkerPool(assemble(".entry s\\ns: hlt\\n", name="window"),
                       RuntimeConfig(n_workers=1))
        """))
        before = psm_names()
        proc = subprocess.Popen([sys.executable, str(script)],
                                env=_repro_env(), start_new_session=True,
                                stderr=subprocess.PIPE)
        try:
            __, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == -signal.SIGKILL, err.decode()
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no process of the group is left
        assert psm_names() - before == set()

    @requires_proc
    def test_sigkilled_engine_rings_reaped_by_workers(self, tmp_path):
        """SIGKILL the *engine* process mid-run: the orphaned workers
        notice the re-parenting and exit, and nothing named is left."""
        source = tmp_path / "spin.c"
        source.write_text(
            "int total;\n"
            "int main() {\n"
            "    int i;\n"
            "    for (i = 1; i <= 2000000000; i++) total += i;\n"
            "    return total;\n"
            "}\n")
        before = psm_names()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", str(source),
             "--backend", "real", "--workers", "2"],
            env=_repro_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)

        def workers():
            try:
                path = "/proc/%d/task/%d/children" % (proc.pid, proc.pid)
                with open(path) as fh:
                    pids = [int(pid) for pid in fh.read().split()]
            except OSError:
                return []
            ring = RuntimeConfig().shm_ring_bytes
            try:
                return [pid for pid in pids
                        if len(_ring_mappings(pid, ring)) == 2]
            except OSError:
                return []

        try:
            # Wait for both workers to be up with their rings mapped.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and len(workers()) < 2:
                time.sleep(0.05)
            pids = workers()
            assert len(pids) == 2
            proc.kill()
            proc.wait(timeout=10)
            # Workers poll for re-parenting every second; give them a
            # generous window on a loaded box.
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and any(map(_alive, pids)):
                time.sleep(0.1)
            assert not any(map(_alive, pids))
            assert psm_names() - before == set()
        finally:
            proc.kill()
            proc.wait(timeout=10)
