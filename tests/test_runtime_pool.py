"""WorkerPool: real-process dispatch, crash/timeout recovery, shutdown."""

import os
import signal
import time

import pytest

from repro.asm import assemble
from repro.core.speculation import run_speculation
from repro.runtime.config import RuntimeConfig
from repro.runtime.pool import (
    TASK_CRASHED,
    TASK_FAILED,
    TASK_OK,
    TASK_TIMED_OUT,
    PoolError,
    WorkerPool,
)


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
    """, name="pool-loop")


@pytest.fixture(scope="module")
def spin_program():
    """Never halts — keeps a worker busy for crash/timeout injection."""
    return assemble("""
        .entry start
        start:
        top:
            load ecx, [counter]
            inc ecx
            store [counter], ecx
            jmp top
        .data
        counter: .word 0
    """, name="pool-spin")


def boundary_state(program):
    """(rip, state bytes) at the first crossing of ``top``."""
    machine = program.make_machine()
    top = program.symbol("top")
    machine.run(max_instructions=100_000, break_ips=frozenset((top,)))
    return top, bytes(machine.state.buf)


def poll_until(pool, n, budget_seconds=20.0):
    outcomes = []
    deadline = time.monotonic() + budget_seconds
    while len(outcomes) < n and time.monotonic() < deadline:
        outcomes.extend(pool.poll(timeout=0.2))
    return outcomes


class TestDispatchRoundTrip:
    def test_worker_result_matches_local_speculation(self, loop_program):
        rip, start = boundary_state(loop_program)
        local = run_speculation(loop_program.make_context(), start, rip,
                                1, 10_000)
        assert local.ok
        with WorkerPool(loop_program, RuntimeConfig(n_workers=1)) as pool:
            task = pool.submit(rip, 1, 10_000, start, meta="t0")
            assert task is not None
            assert task.meta == "t0"
            outcomes = poll_until(pool, 1)
        assert len(outcomes) == 1
        out = outcomes[0]
        assert out.status == TASK_OK
        assert out.ok
        assert out.task.task_id == task.task_id
        assert out.instructions == local.instructions
        assert out.entry.length == local.entry.length
        assert list(out.entry.start_indices) == \
            list(local.entry.start_indices)
        assert list(out.entry.end_values) == list(local.entry.end_values)
        assert pool.stats.entries_shipped == 1
        assert pool.stats.bytes_sent > 0
        assert pool.stats.bytes_received > 0

    def test_many_tasks_across_workers(self, loop_program):
        rip, start = boundary_state(loop_program)
        with WorkerPool(loop_program,
                        RuntimeConfig(n_workers=2, queue_depth=4)) as pool:
            submitted = 0
            for i in range(6):
                if pool.submit(rip, 1, 10_000, start, meta=i) is not None:
                    submitted += 1
            outcomes = poll_until(pool, submitted)
        assert submitted >= 2
        assert len(outcomes) == submitted
        assert all(o.status == TASK_OK for o in outcomes)
        # FIFO per worker implies task_ids arrive in order per worker.
        by_worker = {}
        for o in outcomes:
            by_worker.setdefault(o.task.worker, []).append(o.task.task_id)
        for ids in by_worker.values():
            assert ids == sorted(ids)

    def test_budget_exhaustion_reports_failed(self, spin_program):
        rip, start = boundary_state(spin_program)
        with WorkerPool(spin_program, RuntimeConfig(n_workers=1)) as pool:
            pool.submit(rip, 10_000, 500, start, meta=None)  # tiny budget
            outcomes = poll_until(pool, 1)
        assert len(outcomes) == 1
        assert outcomes[0].status == TASK_FAILED
        assert outcomes[0].entry is None
        assert pool.stats.tasks_failed == 1


class TestBackpressure:
    def test_submit_returns_none_at_queue_depth(self, spin_program):
        rip, start = boundary_state(spin_program)
        config = RuntimeConfig(n_workers=1, queue_depth=1,
                               task_timeout_seconds=None)
        with WorkerPool(spin_program, config) as pool:
            first = pool.submit(rip, 2**31 - 1, 2**40, start, meta="busy")
            assert first is not None
            assert pool.idle_slots() == 0
            second = pool.submit(rip, 2**31 - 1, 2**40, start,
                                 meta="blocked")
            assert second is None
            assert pool.stats.dispatch_backpressure == 1
            assert pool.inflight_count() == 1


class TestCrashRecovery:
    def test_killed_worker_reports_crash_and_respawns(self, spin_program):
        rip, start = boundary_state(spin_program)
        config = RuntimeConfig(n_workers=1, task_timeout_seconds=None)
        with WorkerPool(spin_program, config) as pool:
            task = pool.submit(rip, 2**31 - 1, 2**40, start, meta="doomed")
            assert task is not None
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            outcomes = poll_until(pool, 1)
            assert len(outcomes) == 1
            assert outcomes[0].status == TASK_CRASHED
            assert outcomes[0].task.meta == "doomed"
            assert pool.stats.tasks_crashed == 1
            assert pool.stats.workers_respawned == 1
            # The replacement is a different, live process that still works.
            fresh = pool.worker_pids()[0]
            assert fresh != victim
            loop_rip, loop_start = rip, start
            pool.submit(loop_rip, 10, 500, loop_start, meta="after")
            after = poll_until(pool, 1)
            assert len(after) == 1
            assert after[0].task.meta == "after"

    def test_idle_dead_worker_replaced_on_poll(self, loop_program):
        with WorkerPool(loop_program, RuntimeConfig(n_workers=1)) as pool:
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while pool.worker_pids()[0] == victim \
                    and time.monotonic() < deadline:
                pool.poll(timeout=0.05)
            assert pool.worker_pids()[0] != victim
            assert pool.stats.workers_respawned == 1

    def test_respawn_limit_retires_slot(self, loop_program):
        """An exhausted respawn budget shrinks the pool instead of
        raising: the slot is retired, submit reports backpressure, and
        the supervisor denies speculation once below the worker floor."""
        config = RuntimeConfig(n_workers=1, respawn_limit=0)
        with WorkerPool(loop_program, config) as pool:
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while pool.active_workers and time.monotonic() < deadline:
                pool.poll(timeout=0.05)
            assert pool.active_workers == 0
            assert pool.stats.workers_retired == 1
            assert pool.stats.workers_respawned == 0
            rip, start = boundary_state(loop_program)
            assert pool.submit(rip, 1, 1000, start) is None
            assert pool.stats.dispatch_backpressure == 1
            assert not pool.speculation_allowed()
            assert pool.stats.pool_degradations == 1

    def test_oversized_frame_is_a_worker_crash(self, loop_program):
        """A frame larger than max_frame_bytes must not be allocated or
        parsed; the offending worker is treated as crashed."""
        rip, start = boundary_state(loop_program)
        config = RuntimeConfig(n_workers=1, max_frame_bytes=64,
                               task_timeout_seconds=None)
        with WorkerPool(loop_program, config) as pool:
            task = pool.submit(rip, 1, 10_000, start, meta="big")
            assert task is None or task.meta == "big"
            if task is not None:
                outcomes = poll_until(pool, 1)
                assert len(outcomes) == 1
                assert outcomes[0].status == TASK_CRASHED
                assert pool.stats.tasks_crashed == 1


class TestTimeout:
    def test_hung_task_times_out_and_worker_respawns(self, spin_program):
        rip, start = boundary_state(spin_program)
        config = RuntimeConfig(n_workers=1, task_timeout_seconds=0.3)
        with WorkerPool(spin_program, config) as pool:
            victim = pool.worker_pids()[0]
            pool.submit(rip, 2**31 - 1, 2**40, start, meta="hung")
            outcomes = poll_until(pool, 1)
            assert len(outcomes) == 1
            assert outcomes[0].status == TASK_TIMED_OUT
            assert outcomes[0].duration >= 0.3
            assert pool.stats.tasks_timed_out == 1
            assert pool.worker_pids()[0] != victim


@pytest.mark.usefixtures("ringless")
class TestCrashRecoveryRingless(TestCrashRecovery):
    """The same kill cases, every assertion kept, on workers that got
    no rings (every blob inline; each respawn refused rings again)."""


@pytest.mark.usefixtures("ringless")
class TestTimeoutRingless(TestTimeout):
    """The same deadline case on a ringless worker."""


class TestLifecycle:
    def test_shutdown_idempotent_and_submit_after_raises(self, loop_program):
        pool = WorkerPool(loop_program, RuntimeConfig(n_workers=2))
        pids = pool.worker_pids()
        pool.shutdown()
        pool.shutdown()
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # process must be gone
        rip, start = boundary_state(loop_program)
        with pytest.raises(PoolError, match="shut-down"):
            pool.submit(rip, 1, 1000, start)

    def test_zero_workers_rejected(self, loop_program):
        with pytest.raises(PoolError):
            WorkerPool(loop_program, RuntimeConfig(n_workers=0))
