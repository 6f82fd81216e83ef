"""The pool does not autoscale: its width is ``n_workers`` for the whole
run, and only the supervisor empties a slot (quarantine, retirement) or
refills it (respawn, readmission).

Membership still churns under worker kills, so the two tests here drive
that churn — seeded and generated submit / SIGKILL / poll sequences —
and check that every dispatched task has exactly one outcome, that the
width never moves, and that no ring outlives the pool.
"""

import os
import random
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.runtime import shm
from repro.runtime.config import RuntimeConfig
from repro.runtime.pool import WorkerPool


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
    """, name="fixed-width-loop")


def boundary_state(program):
    machine = program.make_machine()
    top = program.symbol("top")
    machine.run(max_instructions=100_000, break_ips=frozenset((top,)))
    return top, bytes(machine.state.buf)


def drain(pool, outcomes):
    deadline = time.monotonic() + 20.0
    while pool.inflight_count() and time.monotonic() < deadline:
        outcomes.extend(pool.poll(timeout=0.2))


def assert_conserved(pool, outcomes):
    stats = pool.stats
    assert len(outcomes) == stats.tasks_dispatched
    assert stats.tasks_dispatched == (
        stats.tasks_completed + stats.tasks_crashed
        + stats.tasks_timed_out)


class TestElasticMembership:
    def test_grow_retire_chaos_leaks_nothing(self, loop_program):
        """Seeded worker-kills drive every slot through the supervisor's
        respawns and, once the respawn budget is spent, its retirements.
        The width never moves, no task outcome is lost, and no ring
        outlives the pool."""
        rng = random.Random(0xA5C)
        rip, start = boundary_state(loop_program)
        config = RuntimeConfig(n_workers=2, queue_depth=2,
                               task_timeout_seconds=None,
                               respawn_limit=2, breaker_threshold=100)
        pool = WorkerPool(loop_program, config)
        outcomes = []
        kills = 0
        try:
            for __ in range(12):
                for __ in range(3):
                    pool.submit(rip, 1, 10_000, start)
                pids = pool.worker_pids()
                if pids and rng.random() < 0.5:
                    victim = rng.choice(pids)
                    os.kill(victim, signal.SIGKILL)
                    kills += 1
                    # Each kill is one failure: wait until the pool has
                    # replaced or retired the victim before the next.
                    deadline = time.monotonic() + 10.0
                    while victim in pool.worker_pids() \
                            and time.monotonic() < deadline:
                        outcomes.extend(pool.poll(timeout=0.05))
                outcomes.extend(pool.poll(timeout=0.05))
            drain(pool, outcomes)
            stats = pool.stats
            assert kills > config.respawn_limit
            assert stats.workers_respawned == config.respawn_limit
            assert stats.workers_retired == min(
                kills - config.respawn_limit, 2)
            assert pool.n_workers == 2
            assert pool.active_workers + stats.workers_retired == 2
        finally:
            pool.shutdown()
        assert shm.live_segment_names() == []
        assert_conserved(pool, outcomes)


class TestConservationProperty:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(st.integers(min_value=0, max_value=11),
                        max_size=8))
    def test_every_dispatched_task_has_one_outcome(self, loop_program,
                                                   ops):
        """Counter conservation across arbitrary submit / SIGKILL /
        poll sequences: dispatched == completed + crashed + timed-out,
        the outcome list the engine would see matches exactly, every
        slot is live, quarantined or retired, and no ring outlives the
        pool."""
        rip, start = boundary_state(loop_program)
        config = RuntimeConfig(n_workers=2, queue_depth=2,
                               task_timeout_seconds=None,
                               respawn_limit=100)
        pool = WorkerPool(loop_program, config)
        outcomes = []
        try:
            for op in ops:
                kind = op % 3
                if kind == 0:
                    pool.submit(rip, 1, 10_000, start)
                elif kind == 1:
                    pids = pool.worker_pids()
                    if pids:
                        os.kill(pids[(op // 3) % len(pids)], signal.SIGKILL)
                else:
                    outcomes.extend(pool.poll(timeout=0.02))
            drain(pool, outcomes)
            stats = pool.stats
            assert pool.n_workers == 2
            assert pool.active_workers + stats.workers_quarantined \
                + stats.workers_retired == 2
        finally:
            pool.shutdown()
        assert shm.live_segment_names() == []
        assert_conserved(pool, outcomes)
