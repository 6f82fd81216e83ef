"""Worker supervision: health records, circuit breaking, degradation.

PR 2's pool had exactly one answer to a failing worker — kill it and
respawn it — and one answer to *repeated* failure: raise and abandon
the run. That is the respawn-storm shape this module removes. The
supervisor owns every lifecycle decision; the pool only executes them:

* every worker slot has a :class:`WorkerHealth` record (consecutive
  crash/timeout streak, lifetime counts, an EWMA of task latency);
* a slot whose streak reaches ``breaker_threshold`` trips a circuit
  breaker: it is **quarantined** (left empty — the pool shrinks)
  instead of respawned, and re-admitted only after an exponential
  backoff (``quarantine_backoff_seconds`` doubling per trip, capped);
  re-admission is *half-open* — one more failure re-trips immediately;
* respawns (including re-admissions) draw from a global budget
  (``respawn_limit``); once spent, failing slots are **retired**
  permanently rather than respawned — graceful shrink, never a storm;
* when live workers drop below ``min_active_workers``, the supervisor
  **degrades** the run: speculation is disabled and the engine keeps
  executing sequentially in-process (correctness never depended on the
  workers), keeping every trajectory-cache entry it has accumulated.
  Once capacity returns and ``degrade_cooldown_seconds`` passes,
  speculation is re-enabled mid-run.

Every event increments a :class:`~repro.runtime.stats.RuntimeStats`
counter so chaos runs are machine-checkable.
"""

import time

#: Lifecycle directives returned by :meth:`Supervisor.note_failure`.
RESPAWN = "respawn"
QUARANTINE = "quarantine"
RETIRE = "retire"


class WorkerHealth:
    """Health record for one worker *slot* (survives respawns)."""

    __slots__ = ("slot", "consecutive_failures", "crashes", "timeouts",
                 "successes", "latency_ewma", "trips", "quarantined_until",
                 "retired")

    def __init__(self, slot):
        self.slot = slot
        self.consecutive_failures = 0
        self.crashes = 0
        self.timeouts = 0
        self.successes = 0
        self.latency_ewma = None
        self.trips = 0  # breaker trips since the last success
        self.quarantined_until = None
        self.retired = False

    @property
    def quarantined(self):
        return self.quarantined_until is not None

    def as_dict(self):
        return {"slot": self.slot, "successes": self.successes,
                "crashes": self.crashes, "timeouts": self.timeouts,
                "consecutive_failures": self.consecutive_failures,
                "trips": self.trips, "quarantined": self.quarantined,
                "retired": self.retired,
                "latency_ewma": self.latency_ewma}

    def __repr__(self):
        state = ("retired" if self.retired
                 else "quarantined" if self.quarantined else "active")
        return ("WorkerHealth(slot=%d, %s, ok=%d, crash=%d, timeout=%d)"
                % (self.slot, state, self.successes, self.crashes,
                   self.timeouts))


class Supervisor:
    """Policy brain for a :class:`~repro.runtime.pool.WorkerPool`.

    The pool reports events (success, crash, timeout) and asks three
    questions: what to do with a failed slot (:meth:`note_failure`),
    which quarantined slots may come back (:meth:`due_readmissions` +
    :meth:`authorize_readmission`), and whether speculation is
    currently allowed at all (:meth:`speculation_allowed`). ``clock``
    is injectable so the breaker/backoff logic is unit-testable
    without sleeping.
    """

    def __init__(self, config, stats, clock=time.monotonic):
        self.config = config
        self.stats = stats
        self._clock = clock
        self._health = {}
        self.respawns = 0  # global budget spent (respawns + readmissions)
        self._degraded = False
        self._reenable_at = None

    # -- health records ------------------------------------------------------

    def health(self, slot):
        record = self._health.get(slot)
        if record is None:
            record = self._health[slot] = WorkerHealth(slot)
        return record

    def health_snapshot(self):
        return [self._health[slot].as_dict()
                for slot in sorted(self._health)]

    # -- event ingestion -----------------------------------------------------

    def note_success(self, slot, duration):
        """A well-formed response arrived (any status): the worker is
        healthy. Closes the breaker and resets the backoff ladder."""
        record = self.health(slot)
        record.successes += 1
        record.consecutive_failures = 0
        record.trips = 0
        if record.latency_ewma is None:
            record.latency_ewma = duration
        else:
            record.latency_ewma += 0.3 * (duration - record.latency_ewma)

    def note_failure(self, slot, kind):
        """A crash or deadline kill on ``slot``; returns a directive.

        ``kind`` is ``"crash"`` or ``"timeout"``. The directive is one
        of :data:`RESPAWN` (replace it now), :data:`QUARANTINE` (leave
        the slot empty until backoff expires), or :data:`RETIRE` (the
        respawn budget is spent; shrink the pool permanently).
        """
        record = self.health(slot)
        record.consecutive_failures += 1
        if kind == "timeout":
            record.timeouts += 1
        else:
            record.crashes += 1
        if record.consecutive_failures >= self.config.breaker_threshold:
            record.trips += 1
            backoff = min(
                self.config.quarantine_backoff_seconds
                * (2 ** (record.trips - 1)),
                self.config.quarantine_backoff_max_seconds)
            record.quarantined_until = self._clock() + backoff
            self.stats.breaker_trips += 1
            self.stats.workers_quarantined += 1
            return QUARANTINE
        if self.respawns >= self.config.respawn_limit:
            record.retired = True
            self.stats.workers_retired += 1
            return RETIRE
        self.respawns += 1
        return RESPAWN

    # -- quarantine lifecycle ------------------------------------------------

    def due_readmissions(self):
        """Slots whose quarantine backoff has expired."""
        now = self._clock()
        return [record.slot for record in self._health.values()
                if record.quarantined and not record.retired
                and now >= record.quarantined_until]

    def authorize_readmission(self, slot):
        """Spend respawn budget to bring a quarantined slot back.

        Returns True when the pool should spawn a fresh worker there.
        The slot comes back *half-open*: its failure streak is primed
        one short of the threshold, so a single failure re-trips the
        breaker (with a doubled backoff — ``trips`` is preserved until
        a success closes the breaker).
        """
        record = self.health(slot)
        if record.retired or not record.quarantined:
            return False
        if self.respawns >= self.config.respawn_limit:
            record.retired = True
            record.quarantined_until = None
            self.stats.workers_retired += 1
            self.stats.workers_quarantined -= 1
            return False
        self.respawns += 1
        record.quarantined_until = None
        record.consecutive_failures = max(
            0, self.config.breaker_threshold - 1)
        self.stats.workers_readmitted += 1
        self.stats.workers_quarantined -= 1
        return True

    # -- degradation ladder --------------------------------------------------

    def speculation_allowed(self, active_count):
        """May the engine dispatch speculations right now?

        Full pool → shrunken pool → sequential → re-enable: below the
        ``min_active_workers`` floor the run degrades to in-process
        sequential execution; once capacity returns, speculation stays
        off for ``degrade_cooldown_seconds`` more (so a flapping pool
        cannot thrash the scheduler), then re-enables.
        """
        floor = max(1, self.config.min_active_workers)
        now = self._clock()
        if active_count < floor:
            if not self._degraded:
                self._degraded = True
                self.stats.pool_degradations += 1
            self._reenable_at = None
            return False
        if self._degraded:
            if self._reenable_at is None:
                self._reenable_at = now + self.config.degrade_cooldown_seconds
            if now < self._reenable_at:
                return False
            self._degraded = False
            self._reenable_at = None
            self.stats.speculation_reenabled += 1
        return True

    @property
    def degraded(self):
        return self._degraded

    def __repr__(self):
        return ("Supervisor(respawns=%d/%d, degraded=%s, slots=%d)"
                % (self.respawns, self.config.respawn_limit,
                   self._degraded, len(self._health)))
