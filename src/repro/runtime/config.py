"""Configuration for the multiprocess runtime backend."""

import multiprocessing

from repro.runtime.autoscaler import AUTOSCALE_CHOICES
from repro.runtime.resources import ENV_WORKER_RLIMIT_AS
from repro.settings import Setting, Settings, table


def default_start_method():
    """How the pool starts its workers on this platform: ``fork``
    where offered (cheap, inherits the warm import state), else
    ``spawn``. An observation, not an option."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def default_transport():
    """Where a worker's blobs travel on this platform: ``shm`` (rings,
    inherited at fork) wherever fork is the start method, else ``pipe``
    (every worker ringless, every blob inline). An observation for
    records and reports; nothing selects a transport."""
    from repro.runtime.shm import shm_available
    return "shm" if shm_available() else "pipe"


class RuntimeConfig(Settings):
    """Tunables for :class:`~repro.runtime.pool.WorkerPool` and
    :class:`~repro.runtime.engine.RealParallelEngine`: the *execution
    substrate* (processes, pipes, deadlines), which the simulated
    backend never reads.
    """

    KIND = "runtime"
    FIELDS = table(
        Setting("n_workers", 2, int, flag="--workers",
                help="worker processes (real backend)"),
        # In-flight tasks per worker. 1 is strict one-at-a-time; 2 lets
        # the engine queue the next assignment while a worker is busy
        # (the pipe buffers it), so workers go back-to-back without a
        # dispatch round-trip.
        Setting("queue_depth", 2, int),
        # Hard per-task deadline. A worker whose oldest task is older
        # than this is killed and respawned — the defense against a
        # hung pipe or a runaway speculation.
        Setting("task_timeout_seconds", 30.0, float, flag="--task-timeout",
                help="per-task deadline, seconds; a worker past it is "
                     "killed and respawned"),
        # Boundary scheduling: when the current state matches an
        # in-flight speculation, the engine may *wait* for that worker
        # instead of re-executing the superstep itself. It waits only
        # when the task's estimated remaining time is under
        # ``inflight_wait_bias`` x the cost of just executing; a huge
        # bias means "always wait" (used by the differential tests to
        # make hits deterministic).
        Setting("inflight_wait_bias", 1.0, float),
        # Superstep coarsening: the real engine multiplies the
        # recognized stride by this factor. Real boundaries cost real
        # milliseconds (observe + predict + dispatch), so wall-clock
        # runs want paper-scale supersteps even where the recognizer
        # validated at simulation-scale ones; granularity is a runtime
        # policy, not a recognition result. Predictors adapt to the
        # scaled increments within a few boundaries.
        Setting("superstep_scale", 1, int, flag="--superstep-scale",
                help="multiply the recognized superstep (real backend)"),
        # Pool lifecycle. ``respawn_limit`` is a global budget spent by
        # respawns and quarantine re-admissions; once exhausted,
        # failing slots are retired (the pool shrinks) instead of
        # respawned.
        Setting("respawn_limit", 32, int),
        Setting("max_instructions", 500_000_000, int,
                flag="--max-instructions", help="instruction limit"),
        # Supervision (see runtime/supervisor.py). A worker slot whose
        # consecutive crash/timeout streak reaches
        # ``breaker_threshold`` is quarantined with exponential backoff
        # instead of respawned; below ``min_active_workers`` live
        # workers the run degrades to sequential execution and
        # re-enables speculation only after
        # ``degrade_cooldown_seconds`` of restored capacity.
        Setting("breaker_threshold", 3, int),
        Setting("quarantine_backoff_seconds", 0.25, float),
        Setting("quarantine_backoff_max_seconds", 30.0, float),
        Setting("min_active_workers", 1, int),
        Setting("degrade_cooldown_seconds", 1.0, float),
        # Transport hardening: reject any frame longer than this when
        # reading from a pipe — and any shm blob a control frame names
        # — so one corrupt length field cannot make either endpoint
        # allocate gigabytes. The offender is treated as a crashed
        # worker.
        Setting("max_frame_bytes", 64 * 1024 * 1024, int),
        # Per-direction ring capacity per worker. A blob the ring
        # cannot take right now — oversized or merely full — falls back
        # to an inline pipe frame; shm pressure degrades throughput,
        # never refuses a dispatch.
        Setting("shm_ring_bytes", 1 << 20, int),
        # Deterministic fault injection: a FaultPlan instance or a spec
        # string ("seed=42,kill=2,corrupt=1").
        Setting("fault_plan", None, None, flag="--fault-plan",
                env="REPRO_FAULT_PLAN", metavar="SPEC",
                help="inject faults, e.g. 'seed=42,kill=2,corrupt=1' "
                     "(real backend; default REPRO_FAULT_PLAN)"),
        # Per-worker address-space cap (RLIMIT_AS, bytes). A runaway
        # speculation then hits a contained MemoryError (reported as a
        # failed task) or at worst dies as an ordinary worker crash,
        # instead of taking the host. 0 says "no cap, whatever the
        # environment says" and is stored as None.
        Setting("worker_rlimit_as_bytes", None, int,
                flag="--worker-rlimit-as", env=ENV_WORKER_RLIMIT_AS,
                help="cap each worker's address space (RLIMIT_AS, "
                     "bytes); a runaway speculation fails as a "
                     "contained task fault instead of taking the host "
                     "(default REPRO_WORKER_RLIMIT_AS; 0 = uncapped)"),
        # Elastic autoscaling (runtime/autoscaler.py): "off" keeps the
        # fixed-width pool; "react" samples the policy at every
        # superstep boundary and resizes the pool toward its target.
        # ``n_workers`` stays the starting width; the policy moves
        # within [autoscale_min_workers, autoscale_max_workers] (None:
        # n_workers), deciding at most once per ``autoscale_cooldown``
        # boundaries over a payoff window of ``autoscale_window``
        # samples.
        Setting("autoscale", "off", None, flag="--autoscale",
                choices=AUTOSCALE_CHOICES,
                help="elastic worker autoscaling sampled at superstep "
                     "boundaries: 'react' shrinks the pool while "
                     "speculation does not pay and regrows it when it "
                     "does; 'off' keeps the static pool"),
        Setting("autoscale_min_workers", 0, int),
        Setting("autoscale_max_workers", None, int),
        Setting("autoscale_cooldown", 8, int),
        Setting("autoscale_window", 16, int),
    )

    def _finish(self):
        cap = self.worker_rlimit_as_bytes
        self.worker_rlimit_as_bytes = cap if cap and cap > 0 else None

    def resolve_fault_plan(self):
        """The configured plan as a ``FaultPlan`` (or ``None``)."""
        from repro.runtime.faults import resolve_fault_plan
        return resolve_fault_plan(self.fault_plan)
