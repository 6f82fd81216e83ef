"""Watchdog supervision for daemon jobs, and resource self-checks.

Speculative runtimes must bound and reclaim misbehaving speculative
work rather than trust it to finish (Bramas, arXiv:1803.04211; see
PAPERS.md) — and the daemon multiplexes *tenants*, so one guest
program stuck in an infinite non-halting loop (or an engine wedged on
a dead transport) must never pin a warm pool or starve the queue.

Two signals per running job, both cheap:

* a **wall-clock deadline** (``deadline_seconds``, per job, overridable
  at submit time): the hard cap on total runtime;
* **progress heartbeats**: the engine's ``boundary_hook`` fires at
  every superstep boundary, so "no heartbeat for
  ``no_progress_seconds``" means the engine is wedged *between*
  boundaries — stuck inside a pool wait — and a cooperative cancel
  can never reach it.

The escalation ladder walks the cheapest exit first:

1. **cancel** — set the job's cancel event; a healthy engine raises at
   its next boundary (cooperative, nothing is lost but the job).
2. **kill workers** — after ``kill_grace_seconds`` without the job
   ending, SIGKILL the pool's worker processes. The engine's own poll
   loop sees EOF, reports the in-flight tasks crashed, and PR 3
   supervision respawns the slots — which unwedges a stuck
   ``pool.poll`` wait and lets the boundary (and step 1's cancel)
   fire. Worker kills are the *only* pool mutation done from the
   watchdog thread: everything else races the engine.
3. **shut the pool down** — the last resort; the engine's next submit
   raises and the job fails through the normal containment path (pool
   retired, never reused).

Every step is journaled as a structured incident. The watchdog runs as
one daemon thread ticking :meth:`Watchdog.step`; the method takes an
explicit ``now`` so tests drive the whole state machine without
sleeping.

This module also hosts the **self-check** probes behind degraded mode:
/dev/shm headroom (a full tmpfs makes every ring allocation fail at
spawn) and cache-store flush health. The daemon polls them and flips
into journaled degraded mode — sequential execution, cache
write-through disabled — instead of crashing when resources run out.
"""

import threading
import time

from repro.runtime import resources

#: Escalation stages, in order.
STAGE_WATCHING = "watching"
STAGE_CANCELLING = "cancelling"
STAGE_KILLING = "killing"
STAGE_ABANDONED = "abandoned"

#: Bounded incident history kept for ``stats``/``status``.
_INCIDENT_HISTORY = 64


class JobWatch:
    """Watchdog state for one running job."""

    __slots__ = ("job", "lease", "deadline_seconds", "started_at",
                 "last_heartbeat", "heartbeats", "stage", "stage_since",
                 "reason")

    def __init__(self, job, lease, deadline_seconds, now):
        self.job = job
        self.lease = lease
        self.deadline_seconds = deadline_seconds
        self.started_at = now
        self.last_heartbeat = now
        self.heartbeats = 0
        self.stage = STAGE_WATCHING
        self.stage_since = now
        self.reason = None  # set when the watchdog condemns the job


class Watchdog:
    """Deadline + progress supervision over the daemon's running jobs.

    ``step(now)`` evaluates every watch and performs at most one
    escalation per watch per call; it returns the incidents it raised
    so the caller (the daemon's watchdog thread) can journal them.
    """

    def __init__(self, deadline_seconds=None, no_progress_seconds=20.0,
                 kill_grace_seconds=5.0):
        self.deadline_seconds = deadline_seconds
        self.no_progress_seconds = no_progress_seconds
        self.kill_grace_seconds = kill_grace_seconds
        self._lock = threading.Lock()
        self._watches = {}  # job_id -> JobWatch
        self.incidents = []  # bounded, newest last
        self.deadline_timeouts = 0
        self.progress_timeouts = 0
        self.worker_kills = 0
        self.pool_abandons = 0

    # -- registration (called by job threads) --------------------------------

    def watch(self, job, lease, deadline_seconds=None, now=None):
        now = time.monotonic() if now is None else now
        deadline = (deadline_seconds if deadline_seconds is not None
                    else self.deadline_seconds)
        with self._lock:
            self._watches[job.job_id] = JobWatch(job, lease, deadline, now)

    def unwatch(self, job_id):
        with self._lock:
            self._watches.pop(job_id, None)

    def heartbeat(self, job_id, superstep=None, now=None):
        """Called from the engine's boundary hook: the job progressed."""
        now = time.monotonic() if now is None else now
        with self._lock:
            watch = self._watches.get(job_id)
            if watch is not None:
                watch.last_heartbeat = now
                watch.heartbeats += 1

    def timeout_reason(self, job_id):
        """Why the watchdog condemned this job (``None`` if it didn't).
        The daemon reads this when a job stops at its cancel event: a
        condemned job ends FAILED, not cancelled."""
        with self._lock:
            watch = self._watches.get(job_id)
            return watch.reason if watch is not None else None

    # -- evaluation (called by the watchdog thread or tests) ------------------

    def step(self, now=None):
        """One supervision pass; returns the incidents raised."""
        now = time.monotonic() if now is None else now
        with self._lock:
            watches = list(self._watches.values())
        raised = []
        for watch in watches:
            incident = self._evaluate(watch, now)
            if incident is not None:
                raised.append(incident)
        if raised:
            # Order by the clock the state machine runs on: wall time
            # can step (NTP, suspend) and would misorder incidents
            # relative to the escalations that raised them.
            raised.sort(key=lambda i: i["monotonic"])
            with self._lock:
                self.incidents.extend(raised)
                del self.incidents[:-_INCIDENT_HISTORY]
        return raised

    def _evaluate(self, watch, now):
        job = watch.job
        if watch.stage == STAGE_WATCHING:
            if watch.deadline_seconds is not None and \
                    now - watch.started_at > watch.deadline_seconds:
                self.deadline_timeouts += 1
                return self._condemn(watch, now, "deadline", {
                    "deadline_seconds": watch.deadline_seconds,
                    "ran_seconds": now - watch.started_at,
                })
            if self.no_progress_seconds is not None and \
                    now - watch.last_heartbeat > self.no_progress_seconds:
                self.progress_timeouts += 1
                return self._condemn(watch, now, "no-progress", {
                    "stalled_seconds": now - watch.last_heartbeat,
                    "heartbeats": watch.heartbeats,
                })
            return None
        if watch.stage == STAGE_CANCELLING:
            if now - watch.stage_since <= self.kill_grace_seconds:
                return None
            # The cooperative cancel did not land: the engine is wedged
            # between boundaries. Kill the workers so its poll loop
            # unblocks (crash detection + respawn are the engine's own
            # supervision machinery — safe from this thread).
            killed = 0
            pool = watch.lease.pool if watch.lease is not None else None
            if pool is not None:
                killed = pool.kill_workers()
            self.worker_kills += killed
            watch.stage = STAGE_KILLING
            watch.stage_since = now
            return {"kind": "worker-kill", "job_id": job.job_id,
                    "reason": watch.reason, "workers_killed": killed,
                    "time": time.time(), "monotonic": now}
        if watch.stage == STAGE_KILLING:
            if now - watch.stage_since <= self.kill_grace_seconds:
                return None
            # Still alive after its workers died: shut the pool down —
            # the engine's next dispatch raises and the job fails.
            pool = watch.lease.pool if watch.lease is not None else None
            if pool is not None:
                pool.shutdown()
            self.pool_abandons += 1
            watch.stage = STAGE_ABANDONED
            watch.stage_since = now
            return {"kind": "pool-abandon", "job_id": job.job_id,
                    "reason": watch.reason, "time": time.time(),
                    "monotonic": now}
        return None  # abandoned: nothing left to escalate

    def _condemn(self, watch, now, reason, detail):
        watch.reason = reason
        watch.stage = STAGE_CANCELLING
        watch.stage_since = now
        watch.job.cancel_event.set()
        # Both clocks: wall time for humans reading the journal,
        # monotonic for ordering/replay against the state machine
        # (which runs entirely on ``now``).
        incident = {"kind": reason, "job_id": watch.job.job_id,
                    "time": time.time(), "monotonic": now}
        incident.update(detail)
        return incident

    # -- reporting -----------------------------------------------------------

    def stats_dict(self):
        with self._lock:
            return {
                "watching": len(self._watches),
                "deadline_timeouts": self.deadline_timeouts,
                "progress_timeouts": self.progress_timeouts,
                "worker_kills": self.worker_kills,
                "pool_abandons": self.pool_abandons,
                "incidents": list(self.incidents[-8:]),
            }


# -- resource self-checks (degraded-mode probes) ------------------------------

class SelfCheck:
    """Aggregates the daemon's health probes into one healthy/degraded
    verdict, with a reason string for the journal. Deliberately free of
    daemon state so tests can drive it with fake probes.

    ``min_shm_headroom_bytes=0`` disables the headroom check, and a
    probe that returns ``None`` (nothing to probe) reads as healthy."""

    def __init__(self,
                 min_shm_headroom_bytes=resources.DEFAULT_SHM_HEADROOM_BYTES,
                 headroom_probe=resources.shm_headroom_bytes):
        self.min_shm_headroom_bytes = min_shm_headroom_bytes
        self.headroom_probe = headroom_probe
        self.flush_failures = 0
        self.last_flush_error = None
        self.checks_run = 0

    def note_flush_failure(self, exc):
        self.flush_failures += 1
        self.last_flush_error = "%s: %s" % (type(exc).__name__, exc)

    def note_flush_ok(self):
        self.last_flush_error = None

    def verdict(self):
        """``(healthy, reason)`` — reason explains a degraded verdict."""
        self.checks_run += 1
        if self.last_flush_error is not None:
            return False, "cache-store flush failing: %s" \
                % self.last_flush_error
        headroom = self.headroom_probe()
        if headroom is not None and self.min_shm_headroom_bytes and \
                headroom < self.min_shm_headroom_bytes:
            return False, "shm headroom %d bytes below the %d floor" \
                % (headroom, self.min_shm_headroom_bytes)
        return True, None

    def stats_dict(self):
        headroom = self.headroom_probe()
        return {
            "checks_run": self.checks_run,
            "flush_failures": self.flush_failures,
            "last_flush_error": self.last_flush_error,
            "shm_headroom_bytes": headroom,
            "min_shm_headroom_bytes": self.min_shm_headroom_bytes,
        }
