"""The ASC engines: sequential reference, parallel-speculative, and
single-core memoizing execution.

:class:`ParallelEngine` and :class:`MemoizingEngine` are thin facades
over the one :class:`~repro.core.superstep.SuperstepLoop` (the paper's
Figure 1): each picks a backend, runs the loop and packages the result.

Simulated time vs. real work (:class:`_SimBackend`): every speculative
execution really runs on the Python VM (producing real dependency
vectors and cache entries), but *when* its entry becomes visible is
charged by the platform's cost model (rollout time linear in rank,
instruction time at the measured MIPS, query/reduce/response
latencies). Byte-identical speculations are executed once and reused —
an accounting identity, since the transition function is deterministic
— which keeps an N-core simulation's Python cost near the sequential
cost instead of N times it.
"""

import collections
import heapq

import numpy as np

from repro.cluster.topology import Platform, laptop1
from repro.core.config import EngineConfig
from repro.core.oracle import OracleAllocator, TrajectoryRecord
from repro.core.recognizer import Recognizer
from repro.core.speculation import run_speculation
from repro.core.superstep import (
    LoopResult,
    SpeculationBackend,
    SuperstepLoop,
)
from repro.core.trajectory_cache import CacheEntry
from repro.errors import EngineError
from repro.machine.depvec import DepVector
from repro.verify.config import resolve_verify


#: A plain uninstrumented run (the scaling baseline).
SequentialResult = collections.namedtuple(
    "SequentialResult", "instructions seconds halted")


def run_sequential(program, cost_model=None, max_instructions=500_000_000):
    """Run the program to halt on one core, no tracking, no caching."""
    from repro.cluster.costmodel import CostModel
    cm = cost_model or CostModel()
    machine = program.make_machine()
    result = machine.run(max_instructions=max_instructions)
    if not machine.halted:
        raise EngineError("program did not halt within %d instructions"
                          % max_instructions)
    seconds = cm.exec_seconds(result.instructions, dep_tracking=False)
    return SequentialResult(result.instructions, seconds, True)


class ParallelResult(LoopResult):
    """Everything measured by one parallel engine run."""

    def __init__(self, loop, recognized, n_cores, oracle,
                 sequential_seconds, makespan_seconds):
        super().__init__(loop, recognized)
        self.n_cores = n_cores
        self.oracle = oracle
        self.sequential_seconds = sequential_seconds
        self.makespan_seconds = makespan_seconds
        self.prediction_stats = loop.prediction_stats
        self.allocator_shifts = getattr(loop.allocator, "shifts", 0)
        self.allocator_rebuilds = getattr(loop.allocator, "rebuilds", 0)

    @property
    def scaling(self):
        """The paper's metric: sequential time over parallel time."""
        if self.makespan_seconds <= 0:
            return 0.0
        return self.sequential_seconds / self.makespan_seconds

    def __repr__(self):
        return ("ParallelResult(%s, cores=%d, scaling=%.2f, hits=%d, "
                "misses=%d)" % (self.program_name, self.n_cores,
                                self.scaling, self.stats.hits,
                                self.stats.misses))


class _SimBackend(SpeculationBackend):
    """A simulated N-core cluster: speculations execute inline (once per
    distinct predicted state — ``spec_memo``) and the cost model decides
    *when* each entry becomes visible; the clock is the sum of charges."""

    predicts = True

    def __init__(self, platform, config, record, spec_memo, oracle):
        self.cm = platform.cost_model
        self.n_cores = platform.n_cores
        self.spec_memo = spec_memo
        self.oracle = oracle
        self.converge_charge = config.converge_supersteps_charge
        n_workers = max(0, platform.n_cores - 1)
        self.max_rollout = min(config.max_rollout or max(1, n_workers),
                               record.n_boundaries + 2)
        self.oracle_allocator = (OracleAllocator(record, self.max_rollout)
                                 if oracle else None)
        self.worker_heap = [0.0] * n_workers
        self.last_query_arr = None
        self.T = 0.0
        self.converge_t = 0.0

    def clock(self):
        return self.T

    def enter_phase(self, tracker, mask):
        phase = self.loop.phase
        if self.converge_charge is not None:
            converge = self.converge_charge * phase.superstep_instructions
        else:
            converge = phase.converge_instructions
        self.converge_t = self.T + self.cm.exec_seconds(converge,
                                                        dep_tracking=True)
        if self.oracle:
            return None, self.oracle_allocator
        return super().enter_phase(tracker, mask)

    def executed(self, instructions, started):
        self.T += self.cm.exec_seconds(instructions, dep_tracking=False)

    def speculating(self):
        return self.T >= self.converge_t and bool(self.worker_heap)

    def querying(self):
        # Recognizer not converged yet: learn, but no cache use.
        return self.T >= self.converge_t

    def seed_mask(self, snapshot):
        if not self.oracle:
            # Probe one real superstep to learn which words the
            # computation actually reads (the recognizer measured this
            # during validation; the probe is its engine-side
            # counterpart).
            loop = self.loop
            probe = run_speculation(loop.main.context, snapshot, loop.rip,
                                    loop.stride, loop.spec_budget)
            if probe.entry is not None:
                loop.mask.update_from_entry(probe.entry)

    def submit(self, step, key, rank, snapshot):
        loop, stats, cm = self.loop, self.loop.stats, self.cm
        # Workers accept one queued assignment while still busy (the
        # allocator hands out the next target as soon as a worker will
        # free up within roughly a superstep), so production never
        # stalls on the boundary schedule.
        if self.worker_heap[0] > self.T + cm.exec_seconds(
                loop.phase.superstep_instructions, dep_tracking=True):
            return False  # every worker busy beyond the queueing horizon
        start = max(self.T, heapq.heappop(self.worker_heap))
        # The memo is keyed on the exact materialized projection, which
        # fully determines the deterministic speculative execution.
        result = self.spec_memo.get(step.digest)
        if result is None:
            start_buf = loop.tracker.materialize(snapshot, step.word_values)
            result = run_speculation(loop.main.context, start_buf,
                                     loop.rip, loop.stride, loop.spec_budget)
            self.spec_memo[step.digest] = result
            stats.speculations_executed += 1
            stats.speculation_instructions += result.instructions
            if result.fault is not None:
                stats.speculation_faults += 1
        else:
            stats.speculations_reused += 1
        stats.speculations_dispatched += 1
        ready = (start
                 + cm.rollout_seconds(rank, loop.tracker.n_target_bits)
                 + cm.exec_seconds(result.instructions, dep_tracking=True))
        if result.entry is not None:
            loop.cache.insert(result.entry.with_ready_time(ready))
            loop.mask.update_from_entry(result.entry)
        loop.covered.add(key)
        heapq.heappush(self.worker_heap, ready)
        return True

    def lookup(self, buf, snapshot, view):
        stats, cm = self.loop.stats, self.cm
        # Size of the delta-compressed query message (§4.2): a fixed
        # header plus ~32 bits (offset varint + value) per byte changed
        # since the previous query — the cost structure of the
        # Myers-delta messages the paper measures in Table 1; the exact
        # codec's sizes are computed offline by the Table 1 analysis.
        snapshot_arr = np.frombuffer(snapshot, dtype=np.uint8)
        if self.last_query_arr is None:
            qbits = 8 * len(snapshot_arr)  # first query ships full state
        else:
            qbits = 64 + 32 * int(np.count_nonzero(
                snapshot_arr != self.last_query_arr))
        self.last_query_arr = snapshot_arr
        stats.query_bits_total += qbits
        self.T += cm.query_seconds(self.n_cores, qbits)
        entry, late = self.loop.cache.lookup_classified(self.loop.rip, buf,
                                                        now=self.T)
        if entry is None:
            if late:
                stats.misses_late += 1  # a worker had it, not done yet
            else:
                stats.misses_nomatch += 1
        else:
            self.T += cm.response_seconds(entry.end_bits) + cm.apply_seconds()
        return entry


class ParallelEngine:
    """One ASC run of a program on a simulated platform.

    ``recognized``, ``record``, and ``spec_memo`` may be shared across
    runs of the same program (e.g. a core-count sweep): recognition is
    deterministic, the record is ground truth, and the memo only caches
    deterministic speculative executions keyed by predicted-state digest.
    """

    def __init__(self, program, platform, config=None, oracle=False,
                 recognized=None, record=None, spec_memo=None,
                 collect_prediction_stats=None, initial_cache=None,
                 verify=None):
        if not isinstance(platform, Platform):
            raise EngineError("platform must be a Platform")
        self.program = program
        self.platform = platform
        self.config = config or EngineConfig()
        self.oracle = oracle
        self.recognized = recognized
        self.record = record
        self.spec_memo = spec_memo if spec_memo is not None else {}
        # Entries carried over from a previous invocation (§6's cache
        # reuse); preloaded with ready_time 0.
        self.initial_cache = initial_cache
        self.verify = resolve_verify(verify)
        if collect_prediction_stats is None:
            collect_prediction_stats = not oracle
        self.collect_prediction_stats = collect_prediction_stats

    def run(self):
        config, platform = self.config, self.platform
        if self.recognized is None:
            self.recognized = Recognizer(config).find(self.program)
        if self.record is None:
            self.record = TrajectoryRecord(self.program, self.recognized,
                                           config)
        record = self.record
        if not record.halted:
            raise EngineError("reference run did not halt; cannot evaluate")
        total = record.total_instructions
        backend = _SimBackend(platform, config, record, self.spec_memo,
                              self.oracle)
        loop = SuperstepLoop(
            self.program, config, backend, record.phases,
            max_instructions=total * 2 + 100_000,
            cache_capacity_bytes=(config.cache_capacity_bytes
                                  or platform.cache_capacity_bytes),
            initial_cache=self.initial_cache, verify=self.verify,
            collect_prediction_stats=self.collect_prediction_stats)
        loop.run()
        if loop.progress() != total:
            raise EngineError(
                "executed+fast-forwarded=%d does not equal reference "
                "total=%d; the run diverged or cache entries are "
                "inconsistent" % (loop.progress(), total))
        return ParallelResult(
            loop, self.recognized, platform.n_cores, self.oracle,
            platform.cost_model.exec_seconds(total, dep_tracking=False),
            backend.T if backend.T > 0 else 1e-12)


#: One sample of the memoization run's progress (Figure 6, right).
MemoTimelinePoint = collections.namedtuple("MemoTimelinePoint",
                                           "instructions scaling")


class MemoResult(LoopResult):
    """Outcome of a single-core generalized-memoization run."""

    def __init__(self, loop, recognized, sequential_seconds,
                 makespan_seconds, timeline):
        super().__init__(loop, recognized)
        self.sequential_seconds = sequential_seconds
        self.makespan_seconds = makespan_seconds
        self.timeline = timeline

    @property
    def scaling(self):
        return self.sequential_seconds / self.makespan_seconds

    def __repr__(self):
        return "MemoResult(%s, scaling=%.3f, hits=%d)" % (
            self.program_name, self.scaling, self.stats.hits)


class _MemoBackend(SpeculationBackend):
    """Generalized memoization: the only "speculation" is the main
    thread's own past. It tracks dependencies as it runs and closes a
    cache entry every ``memo_block`` supersteps; the clock is simulated."""

    chains = False  # a hit is followed by execution, not another probe

    PROBE_BITS = 256

    def __init__(self, cost_model, memo_block):
        self.cm = cost_model
        self.memo_block = memo_block
        self.T = 0.0
        self.timeline = []

    def bind(self, loop):
        self.loop = loop
        self.dep = DepVector(loop.program.layout.size)
        self._reopen()

    def _reopen(self, start=None):
        self.open_start = start or bytes(self.loop.main.state.buf)
        self.open_span = 0
        self.open_occurrences = 0
        self.dep.reset()

    def clock(self):
        return self.T

    def drought_limit(self, phase):
        return self.loop.budget  # the memoized RIP never dies

    def executed(self, instructions, started):
        self.T += self.cm.exec_seconds(instructions, dep_tracking=True)
        self.open_span += instructions

    def poll(self, timeout=0.0):
        self.open_occurrences += 1
        if self.open_occurrences >= self.memo_block:
            end = bytes(self.loop.main.state.buf)
            self.loop.cache.insert(CacheEntry.from_execution(
                self.loop.rip, self.dep, self.open_start, end,
                self.open_span, occurrences=self.open_occurrences))
            self._reopen(end)

    def lookup(self, buf, snapshot, view):
        loop = self.loop
        loop.stats.query_bits_total += self.PROBE_BITS
        self.T += self.cm.memo_query_seconds(self.PROBE_BITS)
        entry = loop.cache.lookup(loop.rip, buf)
        if entry is None:
            self._sample()
        else:
            self.T += self.cm.apply_seconds()
        return entry

    def spliced(self, entry, refuted):
        # A refuted splice is rolled back and the open segment's
        # tracking is still coherent; otherwise the open entry would
        # span a jump, so restart it.
        if not refuted:
            self._reopen()
        self._sample()

    def _sample(self):
        """One Figure 6 (right) point every 8th boundary."""
        loop = self.loop
        if loop.stats.supersteps % 8 == 0:
            progress = loop.progress()
            baseline = self.cm.exec_seconds(progress, dep_tracking=False)
            self.timeline.append(MemoTimelinePoint(progress,
                                                   baseline / self.T))


class MemoizingEngine:
    """Single-core LASC: speed up execution with the program's own past.

    This is the paper's laptop experiment (Figure 6, right): no
    speculation, no prediction — the main thread tracks dependencies as
    it runs, closes a cache entry every ``memo_block`` supersteps, and
    probes the cache at each superstep boundary. Hits fast-forward over
    computation the program has effectively performed before —
    generalized memoization.
    """

    def __init__(self, program, platform=None, config=None, recognized=None,
                 initial_cache=None, verify=None):
        self.program = program
        self.platform = platform or laptop1()
        self.config = config or EngineConfig()
        self.recognized = recognized
        self.initial_cache = initial_cache
        self.verify = resolve_verify(verify)

    def run(self, timeline_samples=64, max_instructions=500_000_000):
        config = self.config
        cm = self.platform.cost_model
        if self.recognized is None:
            self.recognized = Recognizer(config).find_for_memoization(
                self.program)
        backend = _MemoBackend(cm, config.memo_block)
        loop = SuperstepLoop(self.program, config, backend,
                             [self.recognized], max_instructions,
                             initial_cache=self.initial_cache,
                             verify=self.verify)
        loop.run()
        progress = loop.progress()
        sequential_seconds = cm.exec_seconds(progress, dep_tracking=False)
        makespan = backend.T if backend.T > 0 else 1e-12
        timeline = backend.timeline
        timeline.append(MemoTimelinePoint(progress,
                                          sequential_seconds / makespan))
        if timeline_samples and len(timeline) > timeline_samples:
            step = len(timeline) / timeline_samples
            timeline = [timeline[int(i * step)]
                        for i in range(timeline_samples)] + [timeline[-1]]
        return MemoResult(loop, self.recognized, sequential_seconds,
                          makespan, timeline)
