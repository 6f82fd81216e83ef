"""The autoscale policy, elastic pool membership, and conservation."""

import os
import random
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.runtime import shm
from repro.cli import build_parser
from repro.runtime.autoscaler import (
    AutoscaleSignals,
    Autoscaler,
    resolve_autoscaler,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.pool import TASK_STALE, WorkerPool


def sig(step, active=2, ff=0, executed=0, backpressure=0, utility=0.0,
        stride=600):
    return AutoscaleSignals(step, active, utility, stride, executed, ff,
                            backpressure)


class TestReactivePolicy:
    def test_cold_run_with_no_utility_sheds_a_worker(self):
        scaler = Autoscaler(max_workers=4)
        assert scaler.observe(sig(0, active=2, utility=0.0)) == 1

    def test_cold_run_with_utility_holds(self):
        scaler = Autoscaler(max_workers=4)
        assert scaler.observe(sig(0, active=2, utility=10_000.0)) is None

    def test_high_payoff_plus_backpressure_grows(self):
        scaler = Autoscaler(max_workers=4, cooldown=1)
        scaler.observe(sig(0, utility=10_000.0))
        target = scaler.observe(sig(1, active=2, ff=900, executed=100,
                                    backpressure=3, utility=10_000.0))
        assert target == 3

    def test_high_payoff_without_backpressure_holds(self):
        scaler = Autoscaler(max_workers=4, cooldown=1)
        scaler.observe(sig(0, utility=10_000.0))
        assert scaler.observe(sig(1, ff=900, executed=100,
                                  utility=10_000.0)) is None

    def test_low_payoff_underwater_utility_shrinks(self):
        scaler = Autoscaler(max_workers=4, cooldown=1)
        scaler.observe(sig(0, utility=10_000.0))
        target = scaler.observe(sig(1, active=2, ff=10, executed=990,
                                    utility=0.0))
        assert target == 1

    def test_measured_payoff_outranks_forecast_utility(self):
        # A confident allocator (huge expected utility) holds the pool
        # only until the window carries three real payoff samples; a
        # flat-zero measured payoff then shrinks regardless.
        scaler = Autoscaler(max_workers=4, cooldown=1)
        scaler.observe(sig(0, utility=1e9))
        assert scaler.observe(sig(1, active=2, executed=1000,
                                  utility=1e9)) is None
        assert scaler.observe(sig(2, active=2, executed=2000,
                                  utility=1e9)) is None
        assert scaler.observe(sig(3, active=2, executed=3000,
                                  utility=1e9)) == 1

    def test_grow_clamps_at_max_workers(self):
        scaler = Autoscaler(max_workers=2, cooldown=1)
        scaler.observe(sig(0, utility=10_000.0))
        # active already at the ceiling: the clamped target equals the
        # current width, so no decision is emitted at all.
        assert scaler.observe(sig(1, active=2, ff=900, executed=100,
                                  backpressure=1,
                                  utility=10_000.0)) is None
        assert scaler.decisions == []

    def test_shrink_clamps_at_min_workers(self):
        scaler = Autoscaler(min_workers=1, max_workers=4,
                                 cooldown=1)
        assert scaler.observe(sig(0, active=1, utility=0.0)) is None

    def test_cooldown_rate_limits_decisions(self):
        scaler = Autoscaler(max_workers=4, cooldown=8)
        assert scaler.observe(sig(0, active=3, utility=0.0)) == 2
        # Within the cooldown every boundary is ignored outright.
        for step in range(1, 8):
            assert scaler.observe(sig(step, active=2, utility=0.0)) is None
        assert scaler.observe(sig(8, active=2, utility=0.0)) == 1

    def test_decisions_are_recorded(self):
        scaler = Autoscaler(max_workers=4)
        scaler.observe(sig(5, active=2, utility=0.0))
        (decision,) = scaler.decisions
        assert decision["policy"] == "react"
        assert decision["superstep"] == 5
        assert decision["from"] == 2
        assert decision["target"] == 1


class TestConstruction:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(autoscale="bogus")

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Autoscaler(min_workers=3, max_workers=2)
        with pytest.raises(ValueError):
            Autoscaler(max_workers=0)

    def test_resolve_off_returns_none(self):
        assert resolve_autoscaler(RuntimeConfig(n_workers=2)) is None
        assert resolve_autoscaler(
            RuntimeConfig(n_workers=2, autoscale="off")) is None

    def test_resolve_builds_from_runtime_config(self):
        scaler = resolve_autoscaler(RuntimeConfig(
            n_workers=2, autoscale="react", autoscale_min_workers=1,
            autoscale_max_workers=6, autoscale_cooldown=3,
            autoscale_window=9))
        assert (scaler.min_workers, scaler.max_workers) == (1, 6)
        assert scaler.cooldown == 3
        assert scaler.window.size == 9

    def test_resolve_max_defaults_to_pool_width(self):
        scaler = resolve_autoscaler(
            RuntimeConfig(n_workers=3, autoscale="react"))
        assert scaler.max_workers == 3

    def test_config_rejects_unknown_policy(self):
        from repro.serve import ServeConfig
        for policy in ("sometimes", "hist", "reg"):
            with pytest.raises(ValueError):
                RuntimeConfig(autoscale=policy)
            with pytest.raises(ValueError):
                ServeConfig(autoscale=policy)
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["run", "x.c", "--autoscale", policy])

    def test_signals_take_exactly_the_fields_the_policy_reads(self):
        # engine.py builds the sample positionally: a slip in the order
        # there would otherwise pass silently.
        assert AutoscaleSignals._fields == (
            "superstep", "active_workers", "expected_utility", "stride",
            "executed", "fast_forwarded", "backpressure")


# -- elastic pool membership --------------------------------------------------


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
    """, name="autoscale-loop")


def boundary_state(program):
    machine = program.make_machine()
    top = program.symbol("top")
    machine.run(max_instructions=100_000, break_ips=frozenset((top,)))
    return top, bytes(machine.state.buf)


class TestElasticMembership:
    def test_grow_appends_live_workers(self, loop_program):
        with WorkerPool(loop_program, RuntimeConfig(n_workers=1)) as pool:
            assert pool.grow(2) == 2
            assert pool.active_workers == 3
            assert pool.n_workers == 3
            assert pool.stats.workers_grown == 2

    def test_retire_parks_and_unlinks_rings(self, loop_program):
        config = RuntimeConfig(n_workers=2)
        with WorkerPool(loop_program, config) as pool:
            before = shm.live_segment_names()
            assert len(before) == 4  # two rings per worker
            assert pool.retire(1) == 1
            assert pool.active_workers == 1
            assert pool.parked_workers == 1
            assert pool.stats.workers_parked == 1
            # The parked worker's two segments are gone immediately —
            # not at shutdown: a long run must not accumulate them.
            assert len(shm.live_segment_names()) == 2

    def test_grow_refills_parked_slot_first(self, loop_program):
        with WorkerPool(loop_program, RuntimeConfig(n_workers=2)) as pool:
            pool.retire(1)
            assert pool.parked_workers == 1
            assert pool.grow(1) == 1
            # Slot numbering stays dense: no third slot was appended.
            assert pool.n_workers == 2
            assert pool.parked_workers == 0
            assert pool.active_workers == 2

    def test_retired_inflight_surfaces_as_stale(self, loop_program):
        rip, start = boundary_state(loop_program)
        config = RuntimeConfig(n_workers=1, queue_depth=4,
                               task_timeout_seconds=None)
        with WorkerPool(loop_program, config) as pool:
            submitted = 0
            for __ in range(3):
                if pool.submit(rip, 1, 10_000, start) is not None:
                    submitted += 1
            assert submitted
            assert pool.retire(1) == 1
            outcomes = pool.poll(timeout=1.0)
            stale = [o for o in outcomes if o.status == TASK_STALE]
            # Whatever had not answered yet comes back stale (never
            # executed as far as the engine is concerned).
            assert len(outcomes) == submitted
            assert len(stale) == pool.stats.tasks_parked

    def test_resize_moves_toward_target(self, loop_program):
        with WorkerPool(loop_program, RuntimeConfig(n_workers=2)) as pool:
            assert pool.resize(4) == (2, 0)
            assert pool.active_workers == 4
            assert pool.resize(1) == (0, 3)
            assert pool.active_workers == 1
            assert pool.resize(1) == (0, 0)
            assert pool.autoscale_target == 1

    def test_resize_to_zero_stops_dispatch(self, loop_program):
        rip, start = boundary_state(loop_program)
        with WorkerPool(loop_program, RuntimeConfig(n_workers=2)) as pool:
            pool.resize(0)
            assert pool.active_workers == 0
            assert pool.submit(rip, 1, 10_000, start) is None
            assert not pool.speculation_allowed()
            # Deliberate shrink is not a degradation: regrowing resumes
            # speculation at the very next boundary, no cooldown debt.
            assert pool.stats.pool_degradations == 0
            pool.resize(2)
            assert pool.speculation_allowed()

    def test_grow_retire_chaos_leaks_nothing(self, loop_program):
        """Seeded worker-kills landing mid-resize must never leak a
        /dev/shm segment or lose a task outcome."""
        rng = random.Random(0xA5C)
        rip, start = boundary_state(loop_program)
        config = RuntimeConfig(n_workers=2, queue_depth=2,
                               task_timeout_seconds=None,
                               respawn_limit=100)
        pool = WorkerPool(loop_program, config)
        outcomes = []
        try:
            for __ in range(12):
                for __ in range(3):
                    pool.submit(rip, 1, 10_000, start)
                pids = pool.worker_pids()
                if pids and rng.random() < 0.5:
                    os.kill(rng.choice(pids), signal.SIGKILL)
                pool.resize(rng.randint(0, 4))
                outcomes.extend(pool.poll(timeout=0.05))
            deadline = time.monotonic() + 20.0
            while pool.inflight_count() and time.monotonic() < deadline:
                outcomes.extend(pool.poll(timeout=0.2))
        finally:
            pool.shutdown()
        assert shm.live_segment_names() == []
        stats = pool.stats
        assert len(outcomes) == stats.tasks_dispatched
        assert stats.tasks_dispatched == (
            stats.tasks_completed + stats.tasks_crashed
            + stats.tasks_timed_out + stats.tasks_parked)


class TestConservationProperty:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(st.integers(min_value=0, max_value=11),
                        max_size=8))
    def test_every_dispatched_task_has_one_outcome(self, loop_program,
                                                   ops):
        """Counter conservation across arbitrary grow/retire sequences:
        dispatched == completed + crashed + timed-out + parked, and the
        outcome list the engine would see matches exactly."""
        rip, start = boundary_state(loop_program)
        config = RuntimeConfig(n_workers=2, queue_depth=2,
                               task_timeout_seconds=None)
        pool = WorkerPool(loop_program, config)
        outcomes = []
        try:
            for op in ops:
                kind = op % 3
                if kind == 0:
                    pool.submit(rip, 1, 10_000, start)
                elif kind == 1:
                    pool.resize(op // 3)  # 0..3
                else:
                    outcomes.extend(pool.poll(timeout=0.02))
            deadline = time.monotonic() + 20.0
            while pool.inflight_count() and time.monotonic() < deadline:
                outcomes.extend(pool.poll(timeout=0.2))
        finally:
            pool.shutdown()
        stats = pool.stats
        assert len(outcomes) == stats.tasks_dispatched
        assert stats.tasks_dispatched == (
            stats.tasks_completed + stats.tasks_crashed
            + stats.tasks_timed_out + stats.tasks_parked)
        # No faults in this test, so membership is pure bookkeeping:
        # the live width is the initial two plus net growth.
        assert pool.active_workers == \
            2 + stats.workers_grown - stats.workers_parked


# -- engine integration -------------------------------------------------------


class TestEngineIntegration:
    def build(self):
        from repro.bench.collatz import build_collatz
        return build_collatz(count=120)

    def run(self, policy, **kwargs):
        from repro.runtime import RealParallelEngine
        workload = self.build()
        rc = RuntimeConfig(n_workers=2, max_instructions=3_000_000,
                           autoscale=policy, **kwargs)
        engine = RealParallelEngine(workload.program,
                                    config=workload.config,
                                    runtime_config=rc)
        return engine.run()

    def sequential_state(self):
        workload = self.build()
        machine = workload.program.make_machine()
        machine.run(max_instructions=3_000_000)
        return bytes(machine.state.buf)

    def test_policies_preserve_final_state(self):
        result = self.run("react", autoscale_max_workers=3,
                          autoscale_cooldown=2, autoscale_window=8)
        assert result.halted
        assert result.final_state == self.sequential_state()
        assert shm.live_segment_names() == []

    def test_decisions_surface_in_runtime_stats(self):
        result = self.run("react", autoscale_cooldown=1)
        runtime = result.runtime.as_dict()
        assert runtime["autoscale_resizes"] >= 1
        assert runtime["autoscale_decisions"]
        assert runtime["autoscale_decisions"][0]["policy"] == "react"

    def test_off_records_nothing(self):
        result = self.run("off")
        runtime = result.runtime.as_dict()
        assert runtime["autoscale_resizes"] == 0
        assert runtime["autoscale_decisions"] == []
