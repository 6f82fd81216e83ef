"""Counters for the multiprocess runtime.

The transport-level counters (bytes, crashes, respawns, timeouts) are
incremented by the :class:`~repro.runtime.pool.WorkerPool`; the
supervision counters (breaker trips, quarantines, degradations) by the
:class:`~repro.runtime.supervisor.Supervisor`; the scheduling-level
counters (dispatched, wasted, waits) by the
:class:`~repro.runtime.engine.RealParallelEngine`. One object holds
all three so a result can report the whole picture, mirroring how
:class:`~repro.core.stats.RunStats` serves the simulated engine.
:meth:`as_dict` feeds ``repro run --backend real --json`` so chaos
runs are machine-checkable.
"""


class RuntimeStats:
    """Counters accumulated by a real-runtime run."""

    def __init__(self):
        self.tasks_dispatched = 0
        self.tasks_completed = 0  # results received, any status
        self.entries_shipped = 0  # results that carried a cache entry
        self.entries_used = 0  # shipped entries that fast-forwarded main
        self.tasks_wasted = 0  # shipped entries never used (set at exit)
        self.tasks_failed = 0  # fault / budget / empty results
        self.tasks_timed_out = 0
        self.tasks_crashed = 0
        self.workers_respawned = 0
        # -- transport accounting --------------------------------------
        # bytes_sent/bytes_received are *physical pipe bytes*: every
        # frame actually written to / read from a pipe, in both
        # directions, on every path (tasks, results, audit verdicts,
        # rejected/dropped frames, shutdown) — counted once at the
        # transport boundary so the two directions stay symmetric.
        self.bytes_sent = 0  # engine -> workers, physical pipe bytes
        self.bytes_received = 0  # workers -> engine, physical pipe bytes
        # Bulk bytes moved through shared-memory rings instead of pipes.
        self.shm_bytes_written = 0  # task blobs pushed by the engine
        self.shm_bytes_read = 0  # result blobs read by the engine
        # Delta codec effectiveness on shipped start states.
        self.states_delta = 0  # start states shipped as sparse deltas
        self.states_full = 0  # start states shipped as full snapshots
        self.state_bytes_raw = 0  # raw state-vector bytes (pre-codec)
        self.state_bytes_shipped = 0  # encoded blob bytes (post-codec)
        self.ring_full_backpressure = 0  # ring-full events at dispatch
        # Ring pressure never refuses a dispatch: a blob its ring cannot
        # take (ring full, oversized, a chaos shm_full fault — or no
        # ring at all, a ringless worker) travels as an inline blob.
        # The ledger invariant the property test pins, unconditionally:
        # state_bytes_shipped == shm_bytes_written + shm_fallback_bytes.
        self.shm_fallbacks = 0  # task blobs delivered inline instead
        self.shm_fallback_bytes = 0  # bytes of those inline blobs
        self.shm_alloc_failures = 0  # spawns that got no rings (ringless)
        self.tasks_oom = 0  # contained worker MemoryErrors (rlimit hit)
        self.stale_results = 0  # epoch-mismatch replies (re-dispatched)
        self.worker_instructions = 0  # really executed on workers
        self.inflight_waits = 0  # boundaries spent waiting on a worker
        self.inflight_wait_seconds = 0.0
        self.dispatch_backpressure = 0  # dispatches skipped: no idle slot
        # -- supervision (runtime/supervisor.py) -----------------------
        self.breaker_trips = 0  # circuit breaker openings (quarantine events)
        self.workers_quarantined = 0  # currently in quarantine (gauge)
        self.workers_readmitted = 0  # quarantined slots brought back
        self.workers_retired = 0  # slots shrunk away for good
        self.pool_degradations = 0  # times the run fell below the floor
        self.speculation_reenabled = 0  # recoveries out of degraded mode
        self.degraded_boundaries = 0  # boundaries run without speculation
        # -- transport hardening / fault injection ---------------------
        self.frames_rejected = 0  # corrupt/oversized/protocol-violating
        self.results_dropped = 0  # results discarded by fault injection
        self.faults_injected = 0  # fault-plan events actually applied
        # -- checkpointing ---------------------------------------------
        self.checkpoints_written = 0
        self.checkpoints_restored = 0
        # -- semantic verification (verify/) ---------------------------
        self.audits_sampled = 0  # splices picked for shadow audit
        self.audits_clean = 0  # audits that confirmed the entry
        self.audits_divergent = 0  # audits that refuted the entry
        self.audits_lost = 0  # audit tasks lost (crash/timeout/drop)
        self.audit_rollbacks = 0  # pre-splice snapshot restores
        self.cache_groups_quarantined = 0  # (rip, dep-set) groups hidden
        self.cache_groups_readmitted = 0  # groups re-admitted after decay
        self.incidents = []  # structured divergence reports (dicts)

    def as_dict(self):
        out = dict(self.__dict__)
        out["incidents"] = [dict(i) for i in self.incidents]
        return out

    # -- per-job accounting on a shared pool ---------------------------------
    #
    # A long-lived daemon reuses one pool (and therefore one RuntimeStats)
    # across many jobs; a job's own contribution is the difference between
    # two snapshots. Gauges (workers_quarantined) can legitimately move
    # down, so deltas may be negative for those.

    def snapshot(self):
        """Numeric counter values right now, for later differencing."""
        out = {key: value for key, value in self.__dict__.items()
               if isinstance(value, (int, float))}
        out["n_incidents"] = len(self.incidents)
        return out

    def delta_since(self, snapshot):
        """Counter movement since :meth:`snapshot` — plus the incident
        dicts recorded in between (``incidents`` key)."""
        current = self.snapshot()
        delta = {key: value - snapshot.get(key, 0)
                 for key, value in current.items()}
        delta["incidents"] = [dict(i) for i in
                              self.incidents[snapshot.get("n_incidents", 0):]]
        return delta

    def __repr__(self):
        return ("RuntimeStats(dispatched=%d, completed=%d, shipped=%d, "
                "used=%d, timed_out=%d, crashed=%d)"
                % (self.tasks_dispatched, self.tasks_completed,
                   self.entries_shipped, self.entries_used,
                   self.tasks_timed_out, self.tasks_crashed))
