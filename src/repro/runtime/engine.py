"""The real-time parallel engine: ASC's Figure 1 loop on actual cores.

Where :class:`~repro.core.engine.ParallelEngine` *simulates* an N-core
platform, :class:`RealParallelEngine` runs the same
:class:`~repro.core.superstep.SuperstepLoop` on the wall clock, with a
:class:`_PoolBackend` that ships allocator-ranked speculation tasks to
a :class:`WorkerPool` of real OS processes and streams their cache
entries back.

Correctness does not depend on any of that machinery working: every
entry a worker ships is an exact fact about the deterministic
transition function, so applying a matching one is identical to
executing the instructions, and crashed, timed-out or mispredicted
speculations simply produce nothing. When the pool's supervisor
degrades it, the loop stops dispatching and waiting — it *is* the
sequential fallback, and its cache keeps serving hits. With no workers at all (``n_workers=0``, or
a program the recognizer rejects) the run uses the null backend and
spawns nothing.
"""

import time

from repro.core.config import EngineConfig
from repro.core.recognizer import Recognizer
from repro.core.superstep import (
    LoopResult,
    SpeculationBackend,
    SuperstepLoop,
)
from repro.errors import EngineError
from repro.runtime.config import RuntimeConfig
from repro.runtime.pool import TASK_FAILED, TASK_OK, WorkerPool
from repro.runtime import resources
from repro.runtime.stats import RuntimeStats
from repro.verify.config import resolve_verify


class RealParallelResult(LoopResult):
    """Everything measured by one real-runtime run: the core
    ``RunStats`` as ``stats``, the pool's ``RuntimeStats`` (tasks,
    bytes, crashes, ...) as ``runtime``; ``final_state`` is the
    differential ground truth."""

    def __init__(self, loop, recognized, n_workers, wall_seconds, runtime):
        super().__init__(loop, recognized)
        self.n_workers = n_workers
        self.wall_seconds = wall_seconds
        self.runtime = runtime
        self.machine = loop.main
        self.halted = loop.main.halted

    def speedup_vs(self, sequential_wall_seconds):
        """Wall-clock scaling against a measured sequential run."""
        if self.wall_seconds <= 0:
            return 0.0
        return sequential_wall_seconds / self.wall_seconds

    def __repr__(self):
        return ("RealParallelResult(%s, workers=%d, wall=%.3fs, hits=%d, "
                "ff=%d, shipped=%d)"
                % (self.program_name, self.n_workers, self.wall_seconds,
                   self.stats.hits, self.stats.instructions_fast_forwarded,
                   self.runtime.entries_shipped))


#: Longest one boundary waits for an in-flight speculation of its
#: current state, however wrong the EWMA estimate that chose to wait.
_MAX_INFLIGHT_WAIT_SECONDS = 10.0


def _ewma(value, sample, alpha=0.3):
    """Exponentially weighted wall-time estimate."""
    return sample if value is None else value + alpha * (sample - value)


class _PoolBackend(SpeculationBackend):
    """Speculations run on a :class:`WorkerPool`; their entries become
    visible when :meth:`poll` drains them from the result pipes."""

    predicts = True

    def __init__(self, pool, config, rtc):
        self.pool = pool
        self.rtc = rtc
        self.runtime = pool.stats
        self.max_rollout = config.max_rollout or max(
            1, pool.n_workers * rtc.queue_depth)
        self.inflight = {}  # relevance key -> SpeculationTask
        self.entry_ids = set()  # id() of every shipped entry
        self.used_entries = set()  # ... of those that fast-forwarded main
        self.task_seconds = self.superstep_seconds = None  # EWMAs
        self.allowed = False

    def executed(self, instructions, started):
        if instructions:
            self.superstep_seconds = _ewma(self.superstep_seconds,
                                           self.clock() - started)

    def poll(self, timeout=0.0):
        loop = self.loop
        auditor, stats = loop.auditor, loop.stats
        for outcome in self.pool.poll(timeout):
            if auditor is not None and auditor.ingest(outcome):
                continue  # an audit verdict, not a speculation
            key = outcome.task.meta
            self.inflight.pop(key, None)
            if outcome.status == TASK_OK:
                self.task_seconds = _ewma(self.task_seconds,
                                          outcome.duration)
                loop.covered.add(key)
                loop.cache.insert(outcome.entry)
                self.entry_ids.add(id(outcome.entry))
                loop.mask.update_from_entry(outcome.entry)
                stats.speculation_instructions += outcome.instructions
            elif outcome.status == TASK_FAILED:
                # Garbage prediction: executed, produced nothing.
                # Cover it anyway — re-speculating the same predicted
                # state would fail identically (determinism).
                loop.covered.add(key)
                stats.speculation_faults += 1
                stats.speculation_instructions += outcome.instructions
            # crashed / timed-out / stale (shm epoch mismatch — the
            # worker never executed the task): leave uncovered so the
            # target is re-dispatched against a fresh full snapshot if
            # still predicted.

    def speculating(self):
        # The supervisor's verdict: a pool that fell below its worker
        # floor degrades the run to sequential execution without
        # touching the cache; after its cooldown, speculation resumes.
        self.allowed = self.pool.speculation_allowed()
        if not self.allowed:
            self.runtime.degraded_boundaries += 1
        return self.allowed

    def submit(self, step, key, rank, snapshot):
        loop, pool = self.loop, self.pool
        if pool.idle_slots() <= 0:
            return False  # backpressure: queue_depth tasks per worker
        if key in self.inflight:
            return True
        start_buf = loop.tracker.materialize(snapshot, step.word_values)
        if loop.cache.lookup(loop.rip, start_buf) is not None:
            # A (preloaded or earlier) entry already covers this target;
            # speculating it again would be pure waste.
            loop.covered.add(key)
            return True
        task = pool.submit(loop.rip, loop.stride, loop.spec_budget,
                           start_buf, meta=key)
        if task is None:
            return False
        self.inflight[key] = task
        loop.stats.speculations_dispatched += 1
        loop.stats.speculations_executed += 1
        return True

    def lookup(self, buf, snapshot, view):
        loop = self.loop
        entry = loop.cache.lookup(loop.rip, buf)
        if entry is None and self.allowed and view is not None:
            entry = self._await_inflight(view, buf)
        if entry is None:
            return None
        if loop.stats.first_splice_seconds is None:
            loop.stats.first_splice_seconds = self.clock()
        if id(entry) in self.entry_ids:
            self.used_entries.add(id(entry))
            faults = self.pool.faults
            # Entry-level fault injection (the CRC-valid divergence
            # class only the verify subsystem can catch) lands at
            # *splice* time: the splice sequence is the deterministic
            # main-thread trajectory, whereas arrival order varies with
            # OS scheduling and could spend a taint on an entry that is
            # never used — an unobservable fault.
            if faults is not None and faults.next("entry") == "taint":
                self.runtime.faults_injected += 1
                return faults.taint_entry(entry)
        return entry

    def _await_inflight(self, view, buf):
        """Maybe wait for a worker already speculating the current state.

        Executing the superstep ourselves costs ~``superstep_seconds`` and
        discards the worker's (near-finished) effort; waiting costs its
        estimated remaining time. Wait only when that is the cheaper
        side of the ledger, scaled by ``inflight_wait_bias``.
        """
        rtc, loop, inflight = self.rtc, self.loop, self.inflight
        key = loop.mask.key(view.word_values)
        task = inflight.get(key)
        if task is None:
            return None
        now = time.monotonic()
        exec_cost, expected = self.superstep_seconds, self.task_seconds
        if exec_cost is not None and expected is not None:
            remaining = max(0.0, task.dispatch_time + expected - now)
            if remaining > exec_cost * rtc.inflight_wait_bias:
                return None
        elif rtc.inflight_wait_bias <= 1.0:
            return None  # no estimates yet: don't gamble
        deadline = now + min(_MAX_INFLIGHT_WAIT_SECONDS,
                             rtc.task_timeout_seconds or float("inf"))
        self.runtime.inflight_waits += 1
        t_wait = time.perf_counter()
        while key in inflight and time.monotonic() < deadline:
            self.poll(min(0.05, deadline - time.monotonic()))
        self.runtime.inflight_wait_seconds += time.perf_counter() - t_wait
        return loop.cache.lookup(loop.rip, buf)

    def finish(self):
        """Final sweep so the counters reflect stragglers."""
        super().finish()  # the wall clock stops before the sweep
        runtime = self.runtime
        self.poll()
        runtime.entries_used = len(self.used_entries)
        runtime.tasks_wasted = runtime.entries_shipped - runtime.entries_used


class RealParallelEngine:
    """One ASC run of a program on real spare cores.

    ``pool`` may be shared across runs of the same program (workers are
    program-specific); when omitted, a pool is created for the run and
    shut down afterwards — including on error and KeyboardInterrupt.
    ``boundary_hook`` is called as ``hook(engine, superstep)`` (the
    crash-injection tests kill workers from it, the daemon heartbeats
    and cancels); it, ``checkpointer`` and ``resume_from`` are the
    :class:`~repro.core.superstep.SuperstepLoop`'s.
    """

    def __init__(self, program, config=None, runtime_config=None,
                 recognized=None, pool=None, initial_cache=None,
                 boundary_hook=None, checkpointer=None, resume_from=None,
                 verify=None):
        self.program = program
        self.config = config or EngineConfig()
        self.runtime_config = runtime_config or RuntimeConfig()
        self.recognized = recognized
        self.pool = pool
        self.initial_cache = initial_cache
        self.boundary_hook = boundary_hook
        self.checkpointer = checkpointer
        self.resume_from = resume_from
        self.verify = resolve_verify(verify)
        # Exposed for tests/CLI after run():
        self.machine = None
        self.resumed_instructions = 0

    def run(self):
        """Execute to halt; returns a :class:`RealParallelResult`."""
        rtc, pool = self.runtime_config, self.pool
        workers = rtc.n_workers if pool is None else pool.n_workers
        if self.recognized is None and workers:
            try:
                self.recognized = Recognizer(self.config).find(self.program)
            except EngineError:
                # Too short or too irregular to recognize: the backend
                # still owes the caller a correct run (plain execution).
                pass
        if self.recognized is None or not workers:
            runtime = RuntimeStats() if pool is None else pool.stats
            return self._run(SpeculationBackend(), runtime, workers)
        if pool is None:
            pool = WorkerPool(self.program, rtc)
        try:
            return self._run(_PoolBackend(pool, self.config, rtc),
                             pool.stats, workers)
        finally:
            if pool is not self.pool:
                pool.shutdown()

    def _run(self, backend, runtime, workers):
        rtc = self.runtime_config
        hook = self.boundary_hook
        loop = SuperstepLoop(
            self.program, self.config, backend,
            [self.recognized] if self.recognized is not None else [],
            rtc.max_instructions, initial_cache=self.initial_cache,
            scale=max(1, int(rtc.superstep_scale)), verify=self.verify,
            boundary_hook=hook and (lambda step: hook(self, step)),
            checkpointer=self.checkpointer, resume_from=self.resume_from,
            stats_sink=runtime)
        self.machine = loop.main
        self.resumed_instructions = loop.base_instructions
        loop.run()
        result = RealParallelResult(loop, self.recognized, workers,
                                    backend.wall_seconds, runtime)
        # End-of-run resource picture: where the transport's shm really
        # lives, what headroom is left, and which degradation paths this
        # run actually took (all zero on a healthy host).
        result.resources = {
            "shm_backing_dir": resources.shm_backing_dir(),
            "shm_headroom_bytes": resources.shm_headroom_bytes(),
            "worker_rlimit_as_bytes": rtc.worker_rlimit_as_bytes,
            "pressure": {
                "shm_fallbacks": runtime.shm_fallbacks,
                "shm_fallback_bytes": runtime.shm_fallback_bytes,
                "shm_alloc_failures": runtime.shm_alloc_failures,
                "ring_full_events": runtime.ring_full_backpressure,
                "tasks_oom": runtime.tasks_oom,
            },
        }
        return result
