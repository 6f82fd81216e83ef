"""Configuration for the multiprocess runtime backend."""

import multiprocessing
import os

from repro.runtime.autoscaler import check_autoscale


def default_start_method():
    """How the pool starts its workers on this platform: ``fork``
    where offered (cheap, inherits the warm import state), else
    ``spawn``. An observation, not an option."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def default_transport():
    """Where a worker's blobs travel on this platform: ``shm`` (rings)
    wherever ``multiprocessing.shared_memory`` exists, else ``pipe``
    (every worker ringless, every blob inline). An observation for
    records and reports; nothing selects a transport."""
    from repro.runtime.shm import shm_available
    return "shm" if shm_available() else "pipe"


class RuntimeConfig:
    """Tunables for :class:`~repro.runtime.pool.WorkerPool` and
    :class:`~repro.runtime.engine.RealParallelEngine`.

    Kept separate from :class:`~repro.core.config.EngineConfig`: these
    knobs describe the *execution substrate* (processes, pipes,
    deadlines), not the learning machinery, and the simulated backend
    never reads them.
    """

    def __init__(self,
                 n_workers=2,
                 # In-flight tasks per worker. 1 is strict one-at-a-time;
                 # 2 lets the engine queue the next assignment while a
                 # worker is busy (the pipe buffers it), so workers go
                 # back-to-back without a dispatch round-trip.
                 queue_depth=2,
                 # Hard per-task deadline. A worker whose oldest task is
                 # older than this is killed and respawned — the defense
                 # against a hung pipe or a runaway speculation.
                 task_timeout_seconds=30.0,
                 # Boundary scheduling: when the current state matches an
                 # in-flight speculation, the engine may *wait* for that
                 # worker instead of re-executing the superstep itself.
                 # It waits only when the task's estimated remaining time
                 # is under ``inflight_wait_bias`` x the cost of just
                 # executing; a huge bias means "always wait" (used by
                 # the differential tests to make hits deterministic).
                 inflight_wait_bias=1.0,
                 # Superstep coarsening: the real engine multiplies the
                 # recognized stride by this factor. Real boundaries cost
                 # real milliseconds (observe + predict + dispatch), so
                 # wall-clock runs want paper-scale supersteps even where
                 # the recognizer validated at simulation-scale ones;
                 # granularity is a runtime policy, not a recognition
                 # result. Predictors adapt to the scaled increments
                 # within a few boundaries.
                 superstep_scale=1,
                 # Pool lifecycle. ``respawn_limit`` is a global budget
                 # spent by respawns and quarantine re-admissions; once
                 # exhausted, failing slots are retired (the pool
                 # shrinks) instead of respawned.
                 respawn_limit=32,
                 max_instructions=500_000_000,
                 # Supervision (see runtime/supervisor.py). A worker slot
                 # whose consecutive crash/timeout streak reaches
                 # ``breaker_threshold`` is quarantined with exponential
                 # backoff instead of respawned; below
                 # ``min_active_workers`` live workers the run degrades
                 # to sequential execution and re-enables speculation
                 # only after ``degrade_cooldown_seconds`` of restored
                 # capacity.
                 breaker_threshold=3,
                 quarantine_backoff_seconds=0.25,
                 quarantine_backoff_max_seconds=30.0,
                 min_active_workers=1,
                 degrade_cooldown_seconds=1.0,
                 # Transport hardening: reject any frame longer than this
                 # when reading from a pipe — and any shm blob a control
                 # frame names — so one corrupt length field cannot make
                 # either endpoint allocate gigabytes. The offender is
                 # treated as a crashed worker.
                 max_frame_bytes=64 * 1024 * 1024,
                 # Per-direction ring capacity per worker. A blob the
                 # ring cannot take right now — oversized or merely
                 # full — falls back to an inline pipe frame; shm
                 # pressure degrades throughput, never refuses a
                 # dispatch.
                 shm_ring_bytes=1 << 20,
                 # Deterministic fault injection: a FaultPlan instance, a
                 # spec string ("seed=42,kill=2,corrupt=1"), or None.
                 # When None, REPRO_FAULT_PLAN supplies a spec.
                 fault_plan=None,
                 # Per-worker address-space cap (RLIMIT_AS, bytes). A
                 # runaway speculation then hits a contained MemoryError
                 # (reported as a failed task) or at worst dies as an
                 # ordinary worker crash, instead of taking the host.
                 # None follows REPRO_WORKER_RLIMIT_AS (unset = no cap);
                 # 0 explicitly disables the cap.
                 worker_rlimit_as_bytes=None,
                 # Elastic autoscaling (runtime/autoscaler.py): "off"
                 # keeps the fixed-width pool; "react" samples the
                 # policy at every superstep boundary and resizes the
                 # pool toward its target. ``n_workers``
                 # stays the starting width; the policy moves within
                 # [autoscale_min_workers, autoscale_max_workers]
                 # (None: n_workers), deciding at most once per
                 # ``autoscale_cooldown`` boundaries over a payoff
                 # window of ``autoscale_window`` samples.
                 autoscale="off",
                 autoscale_min_workers=0,
                 autoscale_max_workers=None,
                 autoscale_cooldown=8,
                 autoscale_window=16):
        self.n_workers = n_workers
        self.queue_depth = queue_depth
        self.task_timeout_seconds = task_timeout_seconds
        self.inflight_wait_bias = inflight_wait_bias
        self.superstep_scale = superstep_scale
        self.respawn_limit = respawn_limit
        self.max_instructions = max_instructions
        self.breaker_threshold = breaker_threshold
        self.quarantine_backoff_seconds = quarantine_backoff_seconds
        self.quarantine_backoff_max_seconds = quarantine_backoff_max_seconds
        self.min_active_workers = min_active_workers
        self.degrade_cooldown_seconds = degrade_cooldown_seconds
        self.max_frame_bytes = max_frame_bytes
        self.shm_ring_bytes = shm_ring_bytes
        self.fault_plan = fault_plan
        if worker_rlimit_as_bytes is None:
            from repro.runtime.resources import default_worker_rlimit_as
            worker_rlimit_as_bytes = default_worker_rlimit_as()
        # Normalized to bytes-or-None; 0 means "explicitly uncapped".
        self.worker_rlimit_as_bytes = worker_rlimit_as_bytes or None
        self.autoscale = check_autoscale(autoscale)
        self.autoscale_min_workers = autoscale_min_workers
        self.autoscale_max_workers = autoscale_max_workers
        self.autoscale_cooldown = autoscale_cooldown
        self.autoscale_window = autoscale_window

    def resolve_fault_plan(self):
        """The effective plan: the configured one, or REPRO_FAULT_PLAN."""
        from repro.runtime.faults import FaultPlan, resolve_fault_plan
        if self.fault_plan is not None:
            return resolve_fault_plan(self.fault_plan)
        spec = os.environ.get("REPRO_FAULT_PLAN")
        return FaultPlan.parse(spec) if spec else None

    def replace(self, **kwargs):
        """A copy with the given fields overridden."""
        fields = dict(self.__dict__)
        # This config already resolved the environment default, so its
        # None means "uncapped" — which the constructor spells 0; None
        # would re-read REPRO_WORKER_RLIMIT_AS.
        fields["worker_rlimit_as_bytes"] = self.worker_rlimit_as_bytes or 0
        fields.update(kwargs)
        return RuntimeConfig(**fields)

    def __repr__(self):
        inner = ", ".join("%s=%r" % kv for kv in sorted(self.__dict__.items()))
        return "RuntimeConfig(%s)" % inner
