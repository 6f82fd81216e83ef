"""The splice auditor: sampling, verdicts, quarantine, rollback.

One :class:`SpliceAuditor` instance rides along with one engine run.
Engines call :meth:`verify_splice` immediately after applying a cache
entry to the main state; everything else — shipping audits through the
worker pool, collecting verdicts, deciding rollbacks — happens behind
the three small hooks the real engine wires into its boundary loop
(:meth:`ingest`, :meth:`take_rollback`, :meth:`flush`).

Two audit modes share one verdict path:

* **sync** (simulated engines, strict mode, pool-saturated fallback):
  the replay runs inline before the engine proceeds past the splice,
  so a divergence is undone on the spot — restore the pre-splice
  snapshot, correct the hit accounting, report the boundary as a miss
  so the segment replays sequentially;
* **async** (real engine): the pre-splice state is retained as an
  in-memory checkpoint blob (CRC-sectioned, the same machinery a crash
  restore trusts) and the replay ships to a pool worker; the verdict
  lands at a later boundary. A divergence then rolls the machine back
  to the retained snapshot. Splices are identified by a monotonically
  increasing ``splice_id`` so verdicts arriving out of order resolve
  correctly: the *earliest* divergent splice wins the rollback, and
  every pending audit captured after it is marked off-timeline — its
  verdict still quarantines the offending group but triggers no second
  rollback, because its snapshot belongs to the discarded timeline.

Either way a refuted entry's whole ``(rip, dep-index-set)`` group is
quarantined in the trajectory cache; non-strict configs re-admit it
after ``readmit_after`` consecutive clean audits (decay), strict
configs never do.
"""

from repro.core import checkpoint
from repro.core.speculation import SpeculationResult
from repro.verify.audit import compare_audit, run_audit
from repro.verify.incidents import make_incident

#: Pool outcome statuses, mirrored from :mod:`repro.runtime.pool`
#: (string literals here so the core engines can import this module
#: without pulling in the multiprocess runtime).
_TASK_OK = "ok"
_TASK_CRASHED = "crashed"
_TASK_TIMED_OUT = "timed-out"
_TASK_STALE = "stale"

#: ``task.meta[0]`` marker for audit tasks in flight.
AUDIT_META = "__audit__"


class PendingAudit:
    """One sampled splice awaiting its shadow-replay verdict."""

    __slots__ = ("splice_id", "superstep", "blob", "entry", "executed",
                 "fast_forwarded", "discarded")

    def __init__(self, splice_id, superstep, blob, entry, executed,
                 fast_forwarded):
        self.splice_id = splice_id
        self.superstep = superstep
        self.blob = blob  # in-memory checkpoint of the pre-splice state
        self.entry = entry  # the claimed CacheEntry under audit
        self.executed = executed  # stats.instructions_executed, pre-splice
        self.fast_forwarded = fast_forwarded  # ditto, fast-forwarded
        self.discarded = False  # splice no longer on the live timeline

    def __repr__(self):
        return ("PendingAudit(id=%d, superstep=%d, rip=0x%x, len=%d%s)"
                % (self.splice_id, self.superstep, self.entry.rip,
                   self.entry.length,
                   ", discarded" if self.discarded else ""))


class SpliceAuditor:
    """Shadow verification and recovery for one engine run.

    ``config`` is a :class:`~repro.verify.config.VerifyConfig`;
    ``cache`` the run's :class:`TrajectoryCache` (quarantine target);
    ``context`` is the :class:`TransitionContext` used for inline
    replays (any context works — audits always step the reference
    tier). ``stats_sink``, if
    given, is a :class:`~repro.runtime.stats.RuntimeStats` mirrored
    live so ``--json`` reports carry the audit counters and incidents.
    """

    def __init__(self, config, cache, context, stats_sink=None):
        self.config = config
        self.cache = cache
        self._ctx = context
        self._sink = stats_sink
        self.sampled = 0
        self.clean = 0
        self.divergent = 0
        self.lost = 0
        self.rollbacks = 0
        self.incidents = []
        self._pending = {}  # splice_id -> PendingAudit
        self._rollback_queue = []  # divergent PendingAudits, live timeline
        self._next_splice_id = 0

    # -- engine-facing hooks -------------------------------------------------

    def verify_splice(self, entry, buf, pre_state, stats, pool=None,
                      instruction_count=0):
        """Audit one just-applied splice (maybe). Call right after
        ``entry.apply(buf)`` and the hit/fast-forward accounting.

        Returns ``True`` when the splice was refuted *inline* and
        already rolled back — the caller must then treat the boundary
        as a miss (break out of its fast-forward chain so the segment
        replays sequentially). Async audits always return ``False``;
        their verdicts surface later through :meth:`ingest` /
        :meth:`take_rollback`.
        """
        if not self.config.should_sample():
            return False
        self.sampled += 1
        if self._sink is not None:
            self._sink.audits_sampled += 1
        blob = checkpoint.snapshot_state(pre_state, instruction_count)
        if pool is not None and not self.config.strict:
            self._next_splice_id += 1
            pending = PendingAudit(
                self._next_splice_id, stats.supersteps, blob, entry,
                stats.instructions_executed,
                stats.instructions_fast_forwarded - entry.length)
            task = pool.submit(entry.rip, entry.occurrences, entry.length,
                               pre_state,
                               meta=(AUDIT_META, pending.splice_id),
                               audit=True)
            if task is not None:
                self._pending[pending.splice_id] = pending
                return False
            # Pool saturated: don't skip the sample, audit inline.
        result = run_audit(self._ctx, pre_state, entry.rip,
                           entry.length, occurrences=entry.occurrences)
        mismatches = compare_audit(entry, result, pre_state)
        if not mismatches:
            self._note_clean()
            return False
        self._record_divergence(entry, mismatches, stats.supersteps,
                                "sync", "rollback")
        restored = checkpoint.restore_state(blob)
        buf[:] = restored.state
        stats.hits -= 1
        stats.misses += 1
        stats.misses_nomatch += 1
        stats.instructions_fast_forwarded -= entry.length
        self.rollbacks += 1
        if self._sink is not None:
            self._sink.audit_rollbacks += 1
        return True

    def ingest(self, outcome):
        """Route a pool outcome. Returns ``True`` when it was an audit
        task (the engine's drain must then skip its normal handling).

        A lost audit (worker crash, deadline kill) is not a verdict:
        the retained snapshot lets the replay rerun inline, so sampling
        guarantees survive a flaky pool.
        """
        task = outcome.task
        if not getattr(task, "audit", False):
            return False
        meta = task.meta
        splice_id = (meta[1] if isinstance(meta, tuple) and len(meta) == 2
                     and meta[0] == AUDIT_META else None)
        pending = self._pending.pop(splice_id, None)
        if pending is None:
            return True  # duplicate/late verdict; already resolved
        if outcome.status in (_TASK_CRASHED, _TASK_TIMED_OUT, _TASK_STALE):
            # Stale is a worker refusing an epoch-mismatched
            # delta — the audit never executed, which is a *lost* audit
            # like a crash, emphatically not a divergence verdict.
            self.lost += 1
            if self._sink is not None:
                self._sink.audits_lost += 1
            self._resolve_inline(pending)
            return True
        if outcome.status == _TASK_OK and outcome.entry is not None:
            result = SpeculationResult(outcome.entry, outcome.instructions,
                                       outcome.halted, outcome.fault)
        else:
            result = SpeculationResult(
                None, outcome.instructions, outcome.halted,
                outcome.fault or "audit replay produced no entry")
        self._finish(pending, result, "async")
        return True

    def take_rollback(self):
        """The pending rollback to apply now, or ``None``.

        When several splices were refuted, the earliest wins — its
        snapshot is an ancestor of every later one — and all audits
        captured after it move off-timeline (quarantine-only).
        """
        if not self._rollback_queue:
            return None
        target = min(self._rollback_queue, key=lambda p: p.splice_id)
        self._rollback_queue = []
        for pending in self._pending.values():
            if pending.splice_id > target.splice_id:
                pending.discarded = True
        return target

    def apply_rollback(self, pending, machine, stats):
        """Restore the pre-splice snapshot onto the live machine."""
        restored = checkpoint.restore_state(pending.blob)
        machine.state.buf[:] = restored.state
        machine.instruction_count = restored.instruction_count
        stats.instructions_executed = pending.executed
        stats.instructions_fast_forwarded = pending.fast_forwarded
        self.rollbacks += 1
        if self._sink is not None:
            self._sink.audit_rollbacks += 1

    def has_pending(self):
        """Unresolved audits in flight (checkpoints should wait)."""
        return bool(self._pending)

    def flush(self, drain=None):
        """Resolve every outstanding audit before the run concludes.

        Collects any verdicts already queued on the pool (``drain`` is
        the engine's non-blocking drain closure), then replays the rest
        inline from their retained snapshots — the run never finishes
        with an unverified sampled splice.
        """
        if drain is not None and self._pending:
            drain(0.0)
        for splice_id in sorted(self._pending):
            pending = self._pending.pop(splice_id)
            self._resolve_inline(pending)

    # -- verdict plumbing ----------------------------------------------------

    def _resolve_inline(self, pending):
        restored = checkpoint.restore_state(pending.blob)
        entry = pending.entry
        result = run_audit(self._ctx, restored.state, entry.rip,
                           entry.length, occurrences=entry.occurrences)
        self._finish(pending, result, "sync", pre_state=restored.state)

    def _finish(self, pending, result, mode, pre_state=None):
        if pre_state is None:
            pre_state = checkpoint.restore_state(pending.blob).state
        mismatches = compare_audit(pending.entry, result, pre_state)
        if not mismatches:
            self._note_clean()
            return
        action = "quarantine" if pending.discarded else "rollback"
        self._record_divergence(pending.entry, mismatches,
                                pending.superstep, mode, action)
        if not pending.discarded:
            self._rollback_queue.append(pending)

    def _note_clean(self):
        self.clean += 1
        readmitted = self.cache.note_clean_audit()
        if self._sink is not None:
            self._sink.audits_clean += 1
            self._sink.cache_groups_readmitted += readmitted

    def _record_divergence(self, entry, mismatches, superstep, mode,
                           action):
        self.divergent += 1
        rip, indices_key = self.cache.group_key(entry)
        newly = not self.cache.is_quarantined(rip, indices_key)
        self.cache.quarantine_group(rip, indices_key,
                                    readmit_after=self.config.readmit_after)
        incident = make_incident(entry, mismatches, superstep, mode, action)
        self.incidents.append(incident)
        if self._sink is not None:
            self._sink.audits_divergent += 1
            if newly:
                self._sink.cache_groups_quarantined += 1
            self._sink.incidents.append(incident)

    # -- reporting -----------------------------------------------------------

    def report(self):
        """JSON-ready summary (attached to engine results as ``.audit``)."""
        return {
            "rate": self.config.rate,
            "strict": self.config.strict,
            "sampled": self.sampled,
            "clean": self.clean,
            "divergent": self.divergent,
            "lost": self.lost,
            "rollbacks": self.rollbacks,
            "groups_quarantined": self.cache.n_groups_quarantined,
            "groups_readmitted": self.cache.n_groups_readmitted,
            "quarantined_now": self.cache.quarantined_groups,
            "incidents": list(self.incidents),
        }

    def __repr__(self):
        return ("SpliceAuditor(rate=%.2f, sampled=%d, clean=%d, "
                "divergent=%d, rollbacks=%d)"
                % (self.config.rate, self.sampled, self.clean,
                   self.divergent, self.rollbacks))
