"""Fault injection: seeded chaos schedules, and the ASC correctness
property under them — the final state stays byte-identical to a plain
sequential run no matter what happens to the speculative tier."""

import json
import os

import numpy as np
import pytest

from repro.bench import build_collatz, build_ising, build_mm2
from repro.core.trajectory_cache import CacheEntry
from repro.runtime import FaultPlan, FaultPlanError, RealParallelEngine, \
    RuntimeConfig, wire
from repro.runtime.pool import TASK_CRASHED, WorkerPool

SCHEDULES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "data", "fault_schedules.json")


class TestFaultPlan:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "seed=7,kill=2,timeout=3,corrupt=1,slow=4,drop=5,"
            "slow_ms=10,start=0,spacing=3")
        spec = plan.spec
        assert spec.seed == 7
        assert (spec.kill, spec.timeout, spec.corrupt,
                spec.slow, spec.drop) == (2, 3, 1, 4, 5)
        assert spec.slow_ms == pytest.approx(10)
        assert spec.start == 0
        assert spec.spacing == 3

    @pytest.mark.parametrize("spec", ["kill", "bogus=1", "kill=x"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(spec)

    def test_negative_quota_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(kill=-1)

    def test_same_seed_same_schedule(self):
        def schedule(seed):
            plan = FaultPlan(seed=seed, kill=2, timeout=2, corrupt=1,
                             slow=1, drop=1, start=0, spacing=1)
            return ([plan.next("dispatch") for __ in range(8)],
                    [plan.next("receive") for __ in range(8)])

        assert schedule(42) == schedule(42)

    def test_different_seeds_differ(self):
        # Across many seeds the shuffles cannot all coincide.
        schedules = set()
        for seed in range(20):
            plan = FaultPlan(seed=seed, kill=3, timeout=3, start=0,
                             spacing=1)
            schedules.add(tuple(plan.next("dispatch")
                                for __ in range(6)))
        assert len(schedules) > 1

    def test_start_after_and_spacing(self):
        plan = FaultPlan(seed=1, kill=10, start=2, spacing=3)
        fired = [plan.next("dispatch") is not None for __ in range(11)]
        # Eligible events: indices 2, 5, 8 (then every 3rd).
        assert fired == [False, False, True, False, False, True,
                         False, False, True, False, False]

    def test_disallowed_kind_stays_queued(self):
        plan = FaultPlan(seed=3, timeout=1, start=0, spacing=1)
        # Deadlines disabled: the timeout fault is skipped, not burned.
        assert plan.next("dispatch", allowed=["kill"]) is None
        assert not plan.exhausted
        assert plan.next("dispatch", allowed=["kill", "timeout"]) \
            == "timeout"
        assert plan.exhausted

    def test_injected_and_pending_accounting(self):
        plan = FaultPlan(seed=0, kill=1, drop=1, start=0, spacing=1)
        assert plan.pending == {"kill": 1, "drop": 1}
        plan.next("dispatch")
        assert plan.injected == {"kill": 1}
        assert plan.pending == {"drop": 1}
        assert plan.as_dict()["injected"] == {"kill": 1}

    def test_corrupt_bytes_always_rejected_by_wire(self):
        """Every corruption shape the plan produces must fail wire
        decoding — otherwise it could silently poison the cache."""
        plan = FaultPlan(seed=11)
        frame = wire.encode_task_shm(
            1, 0x40, 1, 1000, 0, 0, 1,
            wire.encode_state_delta(b"\xab" * 128))
        for __ in range(50):
            damaged = plan.corrupt_bytes(frame)
            assert damaged != frame
            with pytest.raises(wire.WireError):
                wire.decode_message(damaged)

    def test_config_resolution(self, monkeypatch):
        plan = FaultPlan(seed=5, kill=1)
        assert RuntimeConfig(fault_plan=plan).resolve_fault_plan() is plan
        resolved = RuntimeConfig(
            fault_plan="seed=5,kill=1").resolve_fault_plan()
        assert resolved.spec.kill == 1
        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=9,drop=2")
        from_env = RuntimeConfig().resolve_fault_plan()
        assert from_env.spec.seed == 9 and from_env.spec.drop == 2
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert RuntimeConfig().resolve_fault_plan() is None


def test_slow_ms_is_a_non_negative_float():
    """``--slow-ms`` takes a float, so the spec key does too; a negative
    delay is refused up front instead of killing ``time.sleep`` mid-run."""
    assert FaultPlan.parse("slow=1,slow_ms=2.5").spec.slow_ms == 2.5
    for spec in ("slow=3,slow_ms=-5", "slow_ms=nan"):
        with pytest.raises(FaultPlanError, match="slow_ms"):
            FaultPlan.parse(spec)
    with pytest.raises(FaultPlanError, match="slow_ms"):
        FaultPlan(slow_ms=-0.5)


def test_spec_string_round_trips():
    spec = FaultPlan.parse("seed=9,drop=2,slow_ms=2.5,spacing=1").spec
    assert str(spec) == "seed=9,drop=2,slow_ms=2.5,spacing=1"
    assert vars(FaultPlan.parse(str(spec)).spec) == vars(spec)


# -- schedules pinned before the kinds became table rows ----------------------

with open(SCHEDULES) as _handle:
    GOLDEN = json.load(_handle)

FRAME = bytes(range(24))


def _entry():
    return CacheEntry(0x40, np.array([3, 9, 17, 40], dtype=np.int64),
                      np.array([1, 2, 3, 4], dtype=np.uint8),
                      np.array([5, 9, 60], dtype=np.int64),
                      np.array([7, 8, 9], dtype=np.uint8), 100)


def _replay(spec):
    """Everything a plan decides, in the order the golden was drawn."""
    plan = FaultPlan.parse(spec)
    got = {"spec": spec, "initial": plan.as_dict(), "streams": {
        stream: [plan.next(stream, choices[i % len(choices)])
                 for i in range(GOLDEN["events"])]
        for stream, choices in GOLDEN["allowed"].items()}}
    got["corrupt_bytes"] = [plan.corrupt_bytes(FRAME).hex()
                            for __ in range(6)]
    got["truncate_tail_bytes"] = [plan.truncate_tail_bytes(n)
                                  for n in (0, 1, 2, 100, 5000, 1 << 20)]
    got["taint_entry"] = [
        [entry.start_indices.tolist(), entry.start_values.tolist(),
         entry.end_indices.tolist(), entry.end_values.tolist(),
         entry.length]
        for entry in (plan.taint_entry(_entry()) for __ in range(6))]
    got["final"] = plan.as_dict()
    got["exhausted"] = plan.exhausted
    return got


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=lambda case: case["spec"] or "empty")
def test_schedule_matches_the_golden(case):
    """``tests/data/fault_schedules.json`` was recorded from the
    hand-spelled plan that preceded the table; it is never re-recorded:
    a seed must keep meaning the same run."""
    assert _replay(case["spec"]) == case


@pytest.fixture(scope="module")
def loop_program():
    from repro.asm import assemble
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
    """, name="faults-loop")


def boundary_state(program):
    machine = program.make_machine()
    top = program.symbol("top")
    machine.run(max_instructions=100_000, break_ips=frozenset((top,)))
    return top, bytes(machine.state.buf)


class TestPoolInjection:
    def test_dispatch_kill_surfaces_as_crash(self, loop_program):
        rip, start = boundary_state(loop_program)
        plan = FaultPlan(seed=1, kill=1, start=0, spacing=1)
        config = RuntimeConfig(n_workers=1, fault_plan=plan)
        with WorkerPool(loop_program, config) as pool:
            task = pool.submit(rip, 1, 10_000, start, meta="victim")
            assert task is not None
            assert plan.injected == {"kill": 1}
            outcomes = []
            import time
            deadline = time.monotonic() + 20.0
            while not outcomes and time.monotonic() < deadline:
                outcomes.extend(pool.poll(timeout=0.2))
            assert outcomes[0].status == TASK_CRASHED
            assert outcomes[0].task.meta == "victim"
            assert pool.stats.faults_injected == 1
            assert pool.stats.workers_respawned == 1

    def test_drop_loses_result_but_not_worker(self, loop_program):
        rip, start = boundary_state(loop_program)
        plan = FaultPlan(seed=1, drop=1, start=0, spacing=1)
        config = RuntimeConfig(n_workers=1, fault_plan=plan)
        with WorkerPool(loop_program, config) as pool:
            pool.submit(rip, 1, 10_000, start, meta="dropped")
            import time
            outcomes = []
            deadline = time.monotonic() + 20.0
            while not outcomes and time.monotonic() < deadline:
                outcomes.extend(pool.poll(timeout=0.2))
            assert outcomes[0].status == TASK_CRASHED
            assert pool.stats.results_dropped == 1
            # The worker itself survives (it answered; we lost it) and
            # serves the next task normally.
            assert pool.active_workers == 1
            pool.submit(rip, 1, 10_000, start, meta="after")
            after = []
            deadline = time.monotonic() + 20.0
            while not after and time.monotonic() < deadline:
                after.extend(pool.poll(timeout=0.2))
            assert after[0].task.meta == "after"
            assert after[0].ok


#: The ISSUE's acceptance schedule: >=2 kills, >=2 timeouts, >=1
#: corruption, plus a slow and a drop, all during one run.
ACCEPTANCE_PLAN = dict(kill=2, timeout=2, corrupt=1, slow=1, drop=1,
                       slow_ms=10, start=2, spacing=1)


@pytest.fixture(scope="module", params=["collatz", "ising", "2mm"])
def workload(request):
    if request.param == "collatz":
        return build_collatz(count=300)
    if request.param == "2mm":
        return build_mm2(n=8)
    return build_ising(nodes=48, spins=6)


class _PacedPool(WorkerPool):
    """A pool the main thread cannot outrun while its fault plan still
    has quota: ``poll`` then blocks until a task in flight reports.

    Faults are spent on dispatch and receive *events*, and how many of
    those a run has is otherwise a race: on a loaded machine the main
    thread can finish a short program before its (killed, respawned,
    starved) workers have answered five times, leaving the receive
    quota unspent. Paced, every boundary with work in flight yields an
    outcome and frees a slot for the next dispatch, so the event counts
    follow the boundaries, not the scheduler. The schedule cannot stall
    the pool either: its 7 faults fail workers at most 6 times, fewer
    than the 3 x ``breaker_threshold`` it takes to quarantine every
    slot. Once the quota is spent the run is free-running again.
    """

    def poll(self, timeout=0.0):
        if self.inflight_count() and not self.faults.exhausted:
            timeout = max(timeout, 60.0)
        return super().poll(timeout)


class TestChaosDifferential:
    @pytest.mark.parametrize("seed", [11, 42, 1337])
    def test_byte_identical_under_full_fault_schedule(self, workload, seed,
                                                      monkeypatch):
        monkeypatch.setattr("repro.runtime.engine.WorkerPool", _PacedPool)
        machine = workload.program.make_machine()
        machine.run(max_instructions=50_000_000)
        assert machine.halted
        expected = bytes(machine.state.buf)

        plan = FaultPlan(seed=seed, **ACCEPTANCE_PLAN)
        config = RuntimeConfig(n_workers=3, inflight_wait_bias=1e9,
                               fault_plan=plan)
        result = RealParallelEngine(workload.program,
                                    config=workload.config,
                                    runtime_config=config).run()
        runtime = result.runtime

        assert result.halted
        assert result.final_state == expected
        # The schedule actually fired: every quota was spent.
        assert plan.exhausted, "pending faults: %s" % dict(plan.pending)
        assert plan.injected["kill"] >= 2
        assert plan.injected["timeout"] >= 2
        assert plan.injected["corrupt"] >= 1
        assert runtime.faults_injected == sum(plan.injected.values())
        # Failures were recorded and respawns stayed within budget. The
        # two kills and two timeouts each doom at least one in-flight
        # task; a timeout-backdated task that is pre-empted by a later
        # kill on the same worker surfaces as a crash, so assert the
        # aggregate rather than the per-kind split.
        assert runtime.tasks_crashed + runtime.tasks_timed_out >= 4
        assert runtime.frames_rejected >= 1
        assert runtime.results_dropped >= 1
        assert runtime.workers_respawned <= config.respawn_limit
        # The run still used the speculative tier where it survived.
        assert runtime.tasks_dispatched > 0
        # One protocol whatever rings the workers got: states shipped
        # as sparse deltas, and the transport ledger balances.
        assert runtime.states_delta > 0
        assert runtime.state_bytes_shipped == (
            runtime.shm_bytes_written + runtime.shm_fallback_bytes)

    def test_env_var_plan_applies(self, monkeypatch):
        workload = build_collatz(count=200)
        machine = workload.program.make_machine()
        machine.run(max_instructions=50_000_000)
        expected = bytes(machine.state.buf)
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           "seed=5,kill=1,start=1,spacing=1")
        config = RuntimeConfig(n_workers=2, inflight_wait_bias=1e9)
        result = RealParallelEngine(workload.program,
                                    config=workload.config,
                                    runtime_config=config).run()
        assert result.final_state == expected
        assert result.runtime.faults_injected == 1


@pytest.mark.usefixtures("ringless")
class TestChaosDifferentialRingless(TestChaosDifferential):
    """The same schedule, every assertion kept, on pools whose workers
    all run ringless (each respawn is refused rings again)."""
