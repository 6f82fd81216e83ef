"""RealParallelEngine: byte-identical results from real-core speculation."""

import os
import signal

import pytest

from repro.bench import build_collatz, build_ising
from repro.core.recognizer import Recognizer
from repro.runtime import RealParallelEngine, RuntimeConfig


def sequential_state(program, limit=50_000_000):
    machine = program.make_machine()
    machine.run(max_instructions=limit)
    assert machine.halted
    return bytes(machine.state.buf)


#: Always wait for an in-flight speculation of the current state — on a
#: loaded CI core this converts every on-trajectory prediction into a
#: deterministic hit instead of a timing-dependent one.
DETERMINISTIC = RuntimeConfig(n_workers=2, inflight_wait_bias=1e9)


@pytest.fixture(scope="module", params=["collatz", "ising"])
def workload(request):
    if request.param == "collatz":
        return build_collatz(count=300)
    return build_ising(nodes=48, spins=6)


@pytest.fixture(scope="module")
def recognized(workload):
    found = Recognizer(workload.config).find(workload.program)
    assert found is not None
    return found


class TestDifferential:
    def test_byte_identical_with_real_worker_fast_forwards(
            self, workload, recognized):
        expected = sequential_state(workload.program)
        engine = RealParallelEngine(
            workload.program, config=workload.config,
            runtime_config=DETERMINISTIC, recognized=recognized)
        result = engine.run()
        assert result.halted
        assert result.final_state == expected
        # The run must have been driven by the machinery, not luck:
        # entries were produced by real worker processes, shipped over
        # the wire, and at least one fast-forwarded the main thread.
        assert result.runtime.entries_shipped > 0
        assert result.runtime.entries_used > 0
        assert result.stats.hits > 0
        assert result.stats.instructions_fast_forwarded > 0
        # Progress identity: executed + fast-forwarded == the work done.
        assert result.total_instructions == (
            result.stats.instructions_executed
            + result.stats.instructions_fast_forwarded)
        assert result.runtime.tasks_wasted == (
            result.runtime.entries_shipped - result.runtime.entries_used)

    def test_superstep_scale_preserves_result(self, workload, recognized):
        expected = sequential_state(workload.program)
        engine = RealParallelEngine(
            workload.program, config=workload.config,
            runtime_config=DETERMINISTIC.replace(superstep_scale=8),
            recognized=recognized)
        result = engine.run()
        assert result.halted
        assert result.final_state == expected


@pytest.mark.usefixtures("ringless")
class TestDifferentialRingless(TestDifferential):
    """The same differential, every assertion kept, with every worker
    ringless: states go out and entries come back as inline blobs."""


class TestCrashMidRun:
    def test_worker_killed_mid_run_still_byte_identical(self):
        workload = build_collatz(count=300)
        expected = sequential_state(workload.program)
        killed = []
        from repro.runtime.pool import WorkerPool
        with WorkerPool(workload.program, DETERMINISTIC) as pool:
            def hook(engine, superstep):
                # Past warmup, kill a worker that still owes results —
                # and keep killing at each boundary until the crash
                # ledger shows a death caught work in flight. A single
                # asynchronous kill races with result delivery: a
                # victim that already flushed every in-flight result
                # to the pipe dies as a quiet respawn with nothing
                # left to crash, which on a loaded host can happen
                # every time at one fixed boundary.
                if superstep >= 3 and pool.stats.tasks_crashed == 0:
                    for worker in pool._live():
                        if worker.inflight:
                            os.kill(worker.proc.pid, signal.SIGKILL)
                            killed.append(worker.proc.pid)
                            break

            engine = RealParallelEngine(
                workload.program, config=workload.config,
                runtime_config=DETERMINISTIC, pool=pool,
                boundary_hook=hook)
            result = engine.run()
        assert killed, "hook never fired"
        assert result.halted
        assert result.final_state == expected
        assert result.runtime.workers_respawned >= 1
        assert result.runtime.tasks_crashed >= 1


class TestDegradedPaths:
    def test_warm_cache_reuse_across_runs(self):
        workload = build_collatz(count=300)
        expected = sequential_state(workload.program)
        recognized = Recognizer(workload.config).find(workload.program)
        first = RealParallelEngine(
            workload.program, config=workload.config,
            runtime_config=DETERMINISTIC, recognized=recognized).run()
        assert first.runtime.entries_shipped > 0
        second = RealParallelEngine(
            workload.program, config=workload.config,
            runtime_config=DETERMINISTIC, recognized=recognized,
            initial_cache=first.cache).run()
        assert second.final_state == expected
        # Preloaded entries serve hits without re-dispatching that work.
        assert second.stats.hits > 0
        assert second.runtime.tasks_dispatched < first.runtime.tasks_dispatched
