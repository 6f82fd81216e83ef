"""The one superstep loop — the paper's Figure 1, written once.

:class:`SuperstepLoop` runs the main thread to the next superstep
boundary (every ``stride``-th crossing of the recognized IP) and there
walks one fixed sequence — *hook → poll backend → apply a pending audit
rollback → snapshot → checkpoint → observe / learn / advance →
dispatch → lookup (→ maybe wait) → splice → audit → budget* —
re-entering it after every fast-forward. A drought (no crossing within
the phase's limit) moves to the next recognized phase or, when none is
left, runs plainly to halt in :data:`PLAIN_RUN_CHUNK` pieces, hook and
checkpointer still served between them. No run ends on an unverified
sampled splice. DESIGN.md §6 states the sequence and what each backend
supplies.

Everything that differs between the engines lives behind
:class:`SpeculationBackend`. The loop asks the backend questions; it
never asks which backend it has. The base class is itself the **null**
backend — wall clock, never speculates — which a daemon in degraded
mode and an unrecognizable program run on.
"""

import time

from repro.core.allocator import Allocator, RelevanceMask
from repro.core.excitation import ExcitationTracker
from repro.core.predictors.ensemble import default_ensemble
from repro.core.recognizer import SPECULATION_BUDGET_FACTOR
from repro.core.stats import PredictionStats, RunStats
from repro.core.trajectory_cache import TrajectoryCache
from repro.errors import EngineError
from repro.machine.layout import STOP_BREAKPOINT
from repro.verify.auditor import SpliceAuditor

#: Plain-run cadence: instructions between two hook/checkpoint visits
#: while no superstep boundary exists (~0.3 s of interpretation, well
#: inside the serve watchdog's no-progress window).
PLAIN_RUN_CHUNK = 1_000_000

#: Chain probability under which a rollout target is not dispatched.
#: Near-zero on purpose: with idle workers the opportunity cost of a
#: low-probability speculation is nil, so expected-utility maximization
#: prunes only the hopeless. Cumulative chain probabilities decay
#: geometrically with rank, so any sizable threshold caps pipeline depth.
MIN_DISPATCH_PROBABILITY = 1e-9


def run_superstep(machine, break_ips, stride, drought, budget, dep=None):
    """Run ``machine`` to its ``stride``-th crossing of ``break_ips``.

    Each crossing may take at most ``drought`` instructions and the
    whole superstep at most ``budget``. Returns ``(instructions,
    arrived)``; ``arrived`` is False when the machine halted, hit a
    drought or ran out of budget first.
    """
    executed = 0
    for __ in range(stride):
        result = machine.run(max_instructions=min(drought, budget - executed),
                             break_ips=break_ips, dep=dep)
        executed += result.instructions
        if result.reason != STOP_BREAKPOINT:
            return executed, False
    return executed, True


class SpeculationBackend:
    """Where speculations run and when their entries become visible,
    what time it is and what an action costs, whether speculation is
    allowed right now and how wide. This base never speculates."""

    #: Does the loop keep learners (tracker, ensemble, allocator)?
    predicts = False
    #: Re-enter the boundary after a splice (fast-forwards chain)?
    chains = True
    #: Dependency vector the main thread tracks into, if any.
    dep = None
    #: Worker pool async audits may ship to, if any.
    pool = None
    #: Rollout chain length for :meth:`enter_phase`'s allocator.
    max_rollout = 1

    def bind(self, loop):
        """Called once, as the run (and the clock) starts."""
        self.loop = loop
        self._t0 = time.perf_counter()

    def clock(self):
        """Seconds since the run began, on this backend's clock."""
        return time.perf_counter() - self._t0

    def drought_limit(self, phase):
        """Instructions without a crossing that end ``phase``."""
        return phase.drought_limit()

    def enter_phase(self, tracker, mask):
        """``(ensemble, allocator)`` for ``loop.phase``, just entered
        (asked only when :attr:`predicts`)."""
        ensemble = default_ensemble(self.loop.config)
        return ensemble, Allocator(ensemble, tracker, self.max_rollout,
                                   mask=mask)

    def executed(self, instructions, started):
        """Charge what the main thread ran since ``clock()`` read
        ``started``."""

    def poll(self, timeout=0.0):
        """Make finished speculations visible in ``loop.cache``."""

    def speculating(self):
        """May the loop dispatch (and wait) at this boundary?"""
        return False

    def seed_mask(self, snapshot):
        """The relevance mask is still empty; optionally fill it."""

    def submit(self, step, key, rank, snapshot):
        """Speculate rollout ``step`` (cover key ``key``), ``rank`` steps
        ahead of ``snapshot``; False (no idle slot) ends the dispatch."""
        return False

    def querying(self):
        """Is the trajectory cache consulted at this boundary?"""
        return True

    def lookup(self, buf, snapshot, view):
        """The entry to splice onto ``buf`` now, if any, with the query
        and the splice already charged."""
        loop = self.loop
        entry = loop.cache.lookup(loop.rip, buf)
        if entry is not None and loop.stats.first_splice_seconds is None:
            loop.stats.first_splice_seconds = self.clock()
        return entry

    def spliced(self, entry, refuted):
        """``entry`` was applied; ``refuted``: an inline audit undid it."""

    def finish(self):
        """The run ended normally; last call before the loop unbinds."""
        self.wall_seconds = self.clock()


class LoopResult:
    """What every engine's result takes from its finished loop."""

    def __init__(self, loop, recognized):
        self.program_name = loop.program.name
        self.recognized = recognized
        self.stats = loop.stats
        self.cache = loop.cache
        self.total_instructions = loop.progress()
        self.audit = (loop.auditor.report() if loop.auditor is not None
                      else None)
        self.final_state = bytes(loop.main.state.buf)


class SuperstepLoop:
    """One run of ``program`` over ``phases`` (recognized IPs, in the
    order the program passes through them; none means a plain run).

    ``max_instructions`` bounds executed + fast-forwarded progress: the
    loop stops quietly (machine not halted) when it is spent.
    ``initial_cache`` entries (an earlier run's, §6's cache reuse) are
    preloaded ready at time 0. ``boundary_hook(superstep)`` runs at every
    boundary and before every plain-run chunk and may raise to abandon
    the run. ``checkpointer`` snapshots machine state, instruction count
    and cache at boundary granularity; ``resume_from`` (a loaded
    :class:`~repro.core.checkpoint.Checkpoint`) restarts from one and,
    by determinism, reaches a byte-identical final state. ``stats_sink``
    (a ``RuntimeStats``) mirrors audit and checkpoint counters.
    """

    def __init__(self, program, config, backend, phases, max_instructions,
                 cache_capacity_bytes=None, initial_cache=None, scale=1,
                 verify=None, boundary_hook=None, checkpointer=None,
                 resume_from=None, stats_sink=None,
                 collect_prediction_stats=False):
        self.program = program
        self.config = config
        self.backend = backend
        self.phases = list(phases)
        self.budget = max_instructions
        self.scale = scale
        self.boundary_hook = boundary_hook
        self.checkpointer = checkpointer
        self.stats_sink = stats_sink
        self.collect_prediction_stats = collect_prediction_stats
        self.stats = RunStats()
        self.prediction_stats = None
        main = self.main = program.make_machine()
        self.cache = TrajectoryCache(
            capacity_bytes=cache_capacity_bytes or config.cache_capacity_bytes)
        self._preload(initial_cache)
        self.base_instructions = 0
        if resume_from is not None:
            if len(resume_from.state) != len(main.state.buf):
                raise EngineError(
                    "checkpoint state is %d bytes but this program's "
                    "state vector is %d — wrong program or version?"
                    % (len(resume_from.state), len(main.state.buf)))
            main.state.buf[:] = resume_from.state
            main.instruction_count = resume_from.instruction_count
            self.base_instructions = resume_from.instruction_count
            self._preload(resume_from.load_cache())
            if checkpointer is not None:
                checkpointer.note_resumed(self.base_instructions)
            if stats_sink is not None:
                stats_sink.checkpoints_restored += 1
        self.auditor = None
        if verify is not None and verify.enabled:
            self.auditor = SpliceAuditor(verify, self.cache,
                                         context=main.context,
                                         stats_sink=stats_sink)
        self.phase = self.tracker = self.mask = None
        self.ensemble = self.allocator = None
        self.covered = set()

    def _preload(self, source):
        if source is not None:
            for entry in source.entries():
                self.cache.insert(entry.with_ready_time(0.0))

    def progress(self):
        stats = self.stats
        return stats.instructions_executed + stats.instructions_fast_forwarded

    # -- the run -------------------------------------------------------------

    def run(self):
        backend = self.backend
        backend.bind(self)
        try:
            self._run()
            backend.finish()
        finally:
            # Loop and backend reference each other; unbound, the
            # machine, cache and learners are freed with the loop
            # instead of waiting for the cycle collector.
            backend.loop = None

    def _run(self):
        main, stats, backend = self.main, self.stats, self.backend
        index = 0
        if self.phases:
            self._enter_phase(0)
        else:
            self._plain_run()
        while self.phases and not main.halted:
            remaining = self.budget - self.progress()
            if remaining <= 0:
                break
            started = backend.clock()
            executed, arrived = run_superstep(
                main, self.break_ips, self.stride, self.drought, remaining,
                backend.dep)
            stats.instructions_executed += executed
            backend.executed(executed, started)
            if arrived:
                self._boundary()
            elif not main.halted and executed < remaining:
                # Drought: this phase's RIP died (§4.4.1's reset).
                index += 1
                if index == len(self.phases):
                    self._plain_run()
                    break
                stats.phase_transitions += 1
                self._enter_phase(index)
        auditor = self.auditor
        if auditor is not None:
            auditor.flush(backend.poll)
            rollback = auditor.take_rollback()
            if rollback is not None:
                # A refuted splice survived to the end: restore its
                # pre-splice snapshot and replay the rest plainly (the
                # offending group is quarantined).
                auditor.apply_rollback(rollback, main, stats)
                self._plain_run()

    def _enter_phase(self, index):
        phase = self.phase = self.phases[index]
        backend = self.backend
        self.rip = phase.ip
        self.break_ips = frozenset((phase.ip,))
        self.stride = phase.stride * self.scale
        self.spec_budget = phase.speculation_budget(
            SPECULATION_BUDGET_FACTOR) * self.scale
        self.mean_jump = phase.mean_gap * self.stride
        self.drought = backend.drought_limit(phase)
        if not backend.predicts:
            return
        tracker = self.tracker = ExcitationTracker(self.program.layout,
                                                   self.config)
        self.mask = RelevanceMask(tracker)
        self.covered = set()  # relevance keys already speculated
        ensemble, self.allocator = backend.enter_phase(tracker, self.mask)
        self.ensemble = ensemble
        if ensemble is None:
            return
        if phase.training_states:
            # Warm start: the recognizer's search already observed and
            # trained on these states; continue from that model.
            for trained in phase.training_states:
                view = tracker.observe(trained)
                if view is not None:
                    ensemble.observe(view)
            ensemble.flush_pending()
            tracker.reset_continuity()
        if self.prediction_stats is None and self.collect_prediction_stats:
            self.prediction_stats = PredictionStats(ensemble.expert_names)

    def _plain_run(self):
        """Sequential execution toward halt, no boundaries."""
        main, stats = self.main, self.stats
        chunk = PLAIN_RUN_CHUNK
        if self.checkpointer is not None \
                and self.checkpointer.every_instructions is not None:
            chunk = min(chunk, self.checkpointer.every_instructions)
        started = self.backend.clock()
        total = 0
        while not main.halted and self.progress() < self.budget:
            if self.boundary_hook is not None:
                self.boundary_hook(stats.supersteps)
            executed = main.run(max_instructions=min(
                chunk, self.budget - self.progress())).instructions
            stats.instructions_executed += executed
            total += executed
            if self.checkpointer is not None and not main.halted:
                self._checkpoint(None)
        self.backend.executed(total, started)

    def _checkpoint(self, snapshot):
        checkpointer = self.checkpointer
        if self.auditor is not None and self.auditor.has_pending():
            # An unverified splice may still roll this state back;
            # don't make it durable until the audits resolve.
            return
        count = self.base_instructions + self.progress()
        if checkpointer.due(count):
            saved = checkpointer.save(
                count, snapshot or bytes(self.main.state.buf), self.cache)
            if saved and self.stats_sink is not None:
                self.stats_sink.checkpoints_written += 1

    # -- one boundary; fast-forwards chain inside ----------------------------

    def _boundary(self):
        main, stats, backend = self.main, self.stats, self.backend
        auditor, tracker = self.auditor, self.tracker
        buf = main.state.buf
        while True:
            stats.supersteps += 1
            if self.boundary_hook is not None:
                self.boundary_hook(stats.supersteps)
            backend.poll()
            if auditor is not None:
                rollback = auditor.take_rollback()
                if rollback is not None:
                    # A shadow audit refuted an earlier splice: restore
                    # its pre-splice snapshot and re-enter the boundary.
                    auditor.apply_rollback(rollback, main, stats)
                    continue
            speculating = backend.speculating()
            # One snapshot per boundary, shared by checkpoint, learners,
            # dispatch and the auditor; none when nobody needs it.
            snapshot = None
            if tracker is not None or auditor is not None:
                snapshot = bytes(buf)
            if self.checkpointer is not None:
                self._checkpoint(snapshot)
            view = None
            if tracker is not None:
                view = tracker.observe(snapshot)
                if view is not None:
                    if self.ensemble is not None:
                        outcome = self.ensemble.observe(view)
                        if self.prediction_stats is not None:
                            self.prediction_stats.record(outcome)
                    if not self.mask.seeded:
                        backend.seed_mask(snapshot)
                    self.allocator.advance(view)
                    if speculating:
                        self._dispatch(snapshot)
            if not backend.querying():
                return
            stats.queries += 1
            entry = backend.lookup(buf, snapshot, view)
            if entry is None:
                stats.misses += 1
                return
            stats.hits += 1
            count = self.base_instructions + self.progress()
            entry.apply(buf)
            stats.instructions_fast_forwarded += entry.length
            refuted = auditor is not None and auditor.verify_splice(
                entry, buf, snapshot, stats, pool=backend.pool,
                instruction_count=count)
            backend.spliced(entry, refuted)
            # A refuted splice is already rolled back and its group
            # quarantined: the superstep replays sequentially.
            if refuted or main.halted or not backend.chains \
                    or self.progress() >= self.budget:
                return

    def _dispatch(self, snapshot):
        """Hand uncovered rollout targets to the backend, best first.

        ``covered`` is keyed up to dependency relevance: targets that
        differ only in dead bytes are speculated once.
        """
        backend, mask, covered = self.backend, self.mask, self.covered
        order = self.allocator.dispatch_order(
            self.mean_jump, MIN_DISPATCH_PROBABILITY)
        chain = self.allocator.chain
        for idx in order:
            step = chain[idx]
            key = mask.key_for(step)
            if key not in covered \
                    and not backend.submit(step, key, idx + 1, snapshot):
                break
