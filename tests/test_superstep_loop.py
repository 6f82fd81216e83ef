"""The one superstep loop, checked once for every backend.

Two suites. The *matrix* runs small collatz / ising / 2mm through every
backend the engines ship (null, memo, sim, sim+oracle, a one-worker
pool), with verification off and strict, and holds each run to the two
invariants every engine owes: a final state byte-identical to
``Machine.run`` to halt, and ``executed + fast_forwarded ==`` the
sequential instruction count. The *scripted* suite substitutes an
in-process fake :class:`SpeculationBackend` — the substitution the
interface exists to allow — that delivers entries on time, late, never
and tainted, and asserts the loop's own behaviour (hit, late miss,
rollback-and-replay, audit epilogue, plain-run cadence) without worker
processes or a cost model.
"""

import types

import pytest

from repro.asm import assemble
from repro.bench import build_collatz, build_ising, build_mm2
from repro.cluster import server32
from repro.core.engine import MemoizingEngine, ParallelEngine
from repro.core.oracle import TrajectoryRecord
from repro.core.recognizer import Recognizer
from repro.core.speculation import run_speculation
from repro.core.superstep import (
    SpeculationBackend,
    SuperstepLoop,
    run_superstep,
)
from repro.core.trajectory_cache import CacheEntry
from repro.errors import EngineError
from repro.runtime import RealParallelEngine, RuntimeConfig
from repro.verify import VerifyConfig
from repro.verify.audit import run_audit

LIMIT = 50_000_000


def sequential(program):
    machine = program.make_machine()
    machine.run(max_instructions=LIMIT)
    assert machine.halted
    return bytes(machine.state.buf), machine.instruction_count


# -- the backend x workload x verify matrix --------------------------------------

WORKLOADS = {
    "collatz": lambda: build_collatz(count=60),
    "ising": lambda: build_ising(nodes=24, spins=4),
    "2mm": lambda: build_mm2(n=5),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def case(request):
    workload = WORKLOADS[request.param]()
    recognized = Recognizer(workload.config).find(workload.program)
    record = TrajectoryRecord(workload.program, recognized, workload.config)
    state, total = sequential(workload.program)
    assert record.total_instructions == total
    return workload, recognized, record, state, total


def run_backend(backend, case, verify):
    workload, recognized, record, __, __ = case
    program, config = workload.program, workload.config
    if backend in ("null", "pool"):
        rtc = RuntimeConfig(n_workers=1 if backend == "pool" else 0,
                            inflight_wait_bias=1e9)
        return RealParallelEngine(program, config=config, runtime_config=rtc,
                                  recognized=recognized, verify=verify).run()
    if backend == "memo":
        return MemoizingEngine(program, config=config, recognized=recognized,
                               verify=verify).run()
    return ParallelEngine(program, server32(4), config=config,
                          recognized=recognized, record=record,
                          oracle=backend == "sim+oracle",
                          verify=verify).run()


@pytest.mark.parametrize("verify", [None, VerifyConfig(strict=True)],
                         ids=["verify-off", "strict"])
@pytest.mark.parametrize("backend",
                         ["null", "memo", "sim", "sim+oracle", "pool"])
def test_every_backend_ends_byte_identical(case, backend, verify):
    __, __, __, state, total = case
    result = run_backend(backend, case, verify)
    stats = result.stats
    assert result.final_state == state
    assert (stats.instructions_executed
            + stats.instructions_fast_forwarded) == total
    assert stats.hits + stats.misses == stats.queries
    if verify is not None:
        assert result.audit["strict"] is True
        assert result.audit["sampled"] == stats.hits
        assert result.audit["divergent"] == 0
    if backend == "null":
        assert stats.hits == 0 and stats.speculations_dispatched == 0


# -- a scripted fake backend -----------------------------------------------------

class Trajectory:
    """Ground truth for collatz(40): the state at every superstep
    boundary and the exact one-superstep entry leaving it."""

    def __init__(self):
        workload = build_collatz(count=40)
        self.program, self.config = workload.program, workload.config
        self.recognized = Recognizer(self.config).find(self.program)
        self.final, self.total = sequential(self.program)
        rip, stride = self.recognized.ip, self.recognized.stride
        machine = self.program.make_machine()
        self.states, self.entries = [], []
        while True:
            __, arrived = run_superstep(machine, frozenset((rip,)), stride,
                                        LIMIT, LIMIT)
            if not arrived:
                break
            state = bytes(machine.state.buf)
            self.states.append(state)
            self.entries.append(run_speculation(
                machine.context, state, rip, stride, LIMIT).entry)
        self.index = {state: k for k, state in enumerate(self.states)}

    def loop(self, backend, verify=None, **kwargs):
        return SuperstepLoop(self.program, self.config, backend,
                             [self.recognized], LIMIT, verify=verify,
                             **kwargs)


@pytest.fixture(scope="module")
def trajectory():
    found = Trajectory()
    assert len(found.states) > 12 and all(found.entries[:12])
    return found


def overlong(entry):
    """A tainted copy: right bytes, one instruction too many claimed —
    the main thread keeps running on a valid state until the audit
    lands, so the test exercises recovery rather than guest faults."""
    return CacheEntry(entry.rip, entry.start_indices, entry.start_values,
                      entry.end_indices, entry.end_values, entry.length + 1,
                      occurrences=entry.occurrences, halted=entry.halted)


class FakeAuditPool:
    """Runs shipped audits in-process; verdicts come back ``delay``
    polls later (``None``: never — only the epilogue resolves them)."""

    def __init__(self, context, delay):
        self.context, self.delay = context, delay
        self.queue = []

    def submit(self, rip, occurrences, length, start_state, meta=None,
               audit=False):
        task = types.SimpleNamespace(meta=meta, audit=audit)
        replay = run_audit(self.context, start_state, rip, length,
                           occurrences=occurrences)
        self.queue.append([self.delay, types.SimpleNamespace(
            task=task, status="ok", entry=replay.entry,
            instructions=replay.instructions, halted=replay.halted,
            fault=replay.fault)])
        return task

    def due(self):
        if self.delay is None:
            return []
        for item in self.queue:
            item[0] -= 1
        ready = [outcome for left, outcome in self.queue if left < 0]
        self.queue = [item for item in self.queue if item[0] >= 0]
        return ready


class Scripted(SpeculationBackend):
    """``script`` maps a boundary index of the trajectory to how the
    entry leaving it is delivered: ``"hit"`` (visible at that boundary),
    ``"late"`` (one boundary after it was needed), ``"taint"`` (on time
    but wrong); anything unlisted is never delivered."""

    def __init__(self, trajectory, script, pool=None):
        self.trajectory, self.script, self.pool = trajectory, script, pool
        self.delivered = set()

    def poll(self, timeout=0.0):
        loop = self.loop
        if self.pool is not None:
            for outcome in self.pool.due():
                assert loop.auditor.ingest(outcome)
        k = self.trajectory.index.get(bytes(loop.main.state.buf))
        if k is None:
            return
        for at, action in ((k, "hit"), (k, "taint"), (k - 1, "late")):
            if self.script.get(at) == action and at not in self.delivered:
                self.delivered.add(at)
                entry = self.trajectory.entries[at]
                loop.cache.insert(overlong(entry) if action == "taint"
                                  else entry)


def finish(trajectory, loop):
    loop.run()
    assert loop.main.halted
    assert bytes(loop.main.state.buf) == trajectory.final
    assert loop.progress() == trajectory.total
    return loop.stats


def test_scripted_on_time_entries_hit_and_chain(trajectory):
    loop = trajectory.loop(Scripted(trajectory, {3: "hit", 4: "hit"}))
    stats = finish(trajectory, loop)
    assert stats.hits == 2
    assert stats.instructions_fast_forwarded == (
        trajectory.entries[3].length + trajectory.entries[4].length)
    # Boundary 4 was reached by splice, not execution: the chain
    # re-entered the boundary sequence there.
    assert stats.supersteps == len(trajectory.states)
    assert stats.first_splice_seconds is not None


def test_scripted_late_and_never_entries_miss(trajectory):
    loop = trajectory.loop(Scripted(trajectory, {3: "late"}))
    stats = finish(trajectory, loop)
    assert stats.hits == 0 and stats.misses == stats.queries
    assert stats.instructions_executed == trajectory.total
    assert len(loop.cache) == 1  # delivered, one boundary too late


def test_scripted_taint_is_refuted_inline_under_strict(trajectory):
    loop = trajectory.loop(Scripted(trajectory, {3: "taint", 6: "hit"}),
                           verify=VerifyConfig(strict=True))
    stats = finish(trajectory, loop)
    # The refuted splice was un-counted, and its whole dependency group
    # (the honest entry at 6 shares it) stays quarantined under strict.
    assert stats.hits == 0 and stats.misses == stats.queries
    report = loop.auditor.report()
    assert report["divergent"] == 1 and report["rollbacks"] == 1
    assert report["quarantined_now"] == 1
    assert report["incidents"][0]["mode"] == "sync"


def test_scripted_unverified_taint_breaks_the_progress_identity(trajectory):
    loop = trajectory.loop(Scripted(trajectory, {3: "taint"}))
    loop.run()
    assert loop.progress() == trajectory.total + 1


def test_scripted_async_verdict_rolls_back_and_replays(trajectory):
    pool = FakeAuditPool(trajectory.program.make_context(), delay=2)
    loop = trajectory.loop(
        Scripted(trajectory, {3: "taint", 4: "hit"}, pool=pool),
        verify=VerifyConfig(rate=1.0))
    stats = finish(trajectory, loop)
    report = loop.auditor.report()
    assert report["rollbacks"] == 1
    assert [i["mode"] for i in report["incidents"]] == ["async"]
    # The rollback discarded the splice at 4 with it, and the boundary
    # sequence was re-entered from the restored state.
    assert stats.supersteps > len(trajectory.states)


def test_scripted_audit_epilogue_leaves_no_unverified_splice(trajectory):
    last = max(k for k, entry in enumerate(trajectory.entries)
               if entry is not None and not entry.halted)
    pool = FakeAuditPool(trajectory.program.make_context(), delay=None)
    loop = trajectory.loop(Scripted(trajectory, {last: "taint"}, pool=pool),
                           verify=VerifyConfig(rate=1.0))
    finish(trajectory, loop)
    report = loop.auditor.report()
    assert report["sampled"] == 1 and report["rollbacks"] == 1
    assert not loop.auditor.has_pending()


# -- plain-run segments: heartbeat and cancel ------------------------------------

@pytest.fixture
def long_plain_program(monkeypatch):
    """2.1M instructions the recognizer is made to reject: the run is
    one plain segment, three chunks long at the 1M-instruction cadence."""
    def reject(self, program, **kwargs):
        raise EngineError("recognition forced to fail")

    monkeypatch.setattr(Recognizer, "find", reject)
    return assemble("""
        .entry start
        start:
            mov ecx, 700000
        again:
            sub ecx, 1
            cmp ecx, 0
            jnz again
            hlt
    """, name="spin")


class Cancelled(Exception):
    pass


def test_plain_run_heartbeats_between_chunks(long_plain_program):
    beats = []
    engine = RealParallelEngine(
        long_plain_program, runtime_config=RuntimeConfig(n_workers=1),
        boundary_hook=lambda engine, superstep: beats.append(superstep))
    result = engine.run()
    assert result.halted and result.recognized is None
    assert result.final_state == sequential(long_plain_program)[0]
    assert result.stats.hits == 0 and result.runtime.tasks_dispatched == 0
    assert len(beats) > 1


def test_plain_run_honours_cancel_before_halt(long_plain_program):
    beats = []

    def hook(engine, superstep):
        beats.append(superstep)
        if len(beats) == 2:
            raise Cancelled()

    engine = RealParallelEngine(
        long_plain_program, runtime_config=RuntimeConfig(n_workers=1),
        boundary_hook=hook)
    with pytest.raises(Cancelled):
        engine.run()
    assert not engine.machine.halted
    assert 0 < engine.machine.instruction_count < sequential(
        long_plain_program)[1]


def test_stepper_takes_the_remaining_budget():
    """``MemoizingEngine.run(max_instructions=N)`` used to hand every
    crossing of a superstep the whole budget."""
    workload = build_collatz(count=60, memoize=True)
    result = MemoizingEngine(workload.program, config=workload.config).run(
        max_instructions=5_000)
    assert 0 < result.stats.instructions_executed <= 5_000
