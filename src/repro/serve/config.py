"""Configuration for the speculation-as-a-service daemon."""

import os
import tempfile

from repro.runtime import resources
from repro.runtime.autoscaler import check_autoscale


def default_socket_path():
    """``REPRO_SERVE_SOCKET`` or a per-user path under the temp dir."""
    env = os.environ.get("REPRO_SERVE_SOCKET")
    if env:
        return env
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), "repro-serve-%d.sock" % uid)


class ServeConfig:
    """Tunables for :class:`~repro.serve.daemon.SpeculationDaemon`.

    Kept separate from :class:`~repro.runtime.config.RuntimeConfig`
    (one job's execution substrate) the same way that is kept separate
    from ``EngineConfig``: these knobs describe the *service* — socket,
    worker budget across all tenants, fairness bounds, cache
    persistence cadence — and a one-shot run never reads them.
    """

    def __init__(self,
                 socket_path=None,
                 # Total live workers across every warm pool. The
                 # resource manager admits a job only when its pool fits
                 # the budget, retiring idle pools LRU to make room —
                 # the daemon's capacity is workers, not jobs.
                 worker_budget=4,
                 # Workers per newly created pool, unless the submit
                 # requests otherwise (a warm pool keeps its width; the
                 # request is a preference, the warm pool wins).
                 workers_per_job=2,
                 # Concurrent running jobs (each on its own pool; jobs
                 # sharing an image serialize on their shared pool).
                 max_concurrent_jobs=2,
                 # Fairness bounds (see serve/queue.py).
                 max_running_per_client=1,
                 max_queued_per_client=8,
                 # Shared-cache persistence: directory for shard files
                 # (None = memory only) and how many finished jobs may
                 # elapse between flushes (1 = flush after every job;
                 # shutdown always flushes).
                 cache_dir=None,
                 flush_every_jobs=1,
                 cache_capacity_bytes=None,
                 # Crash-only job journal: every accepted submission is
                 # WAL'd here and replayed on restart. Defaults beside
                 # the cache shards when a cache_dir is given; None with
                 # no cache_dir means a memory-only (non-durable)
                 # daemon. journal_fsync=False trades durability of the
                 # last few records for append latency.
                 journal_dir=None,
                 journal_fsync=True,
                 result_store_bytes=256 * 1024 * 1024,
                 # Watchdog: per-job wall-clock deadline (None = no
                 # cap), how long heartbeats may stop before the job is
                 # condemned, grace between escalation rungs, and the
                 # supervision tick.
                 job_deadline_seconds=None,
                 no_progress_seconds=20.0,
                 kill_grace_seconds=5.0,
                 watchdog_interval_seconds=0.5,
                 # Self-check: probe cadence and the shm headroom below
                 # which the daemon flips into degraded mode (sequential
                 # execution, cache write-through off); 0 disables
                 # the check.
                 selfcheck_interval_seconds=2.0,
                 min_shm_headroom_bytes=resources.DEFAULT_SHM_HEADROOM_BYTES,
                 # Resource governance (see runtime/resources.py): the
                 # admission-time floors behind load shedding. A submit
                 # arriving while free disk under the journal/cache
                 # directory is below min_disk_free_bytes, fd headroom
                 # is below min_fd_headroom, or max_queued_jobs jobs are
                 # already queued is refused with the retryable
                 # "overloaded" error code instead of being accepted
                 # and failed later. 0 disables the corresponding
                 # check.
                 min_disk_free_bytes=resources.DEFAULT_DISK_FLOOR_BYTES,
                 min_fd_headroom=resources.DEFAULT_FD_HEADROOM,
                 max_queued_jobs=resources.DEFAULT_MAX_QUEUED_JOBS,
                 # Serve-tier chaos: a FaultPlan (instance or spec
                 # string) whose resource faults the *daemon* consumes
                 # at its own seams (disk_full at journal/cache writes,
                 # fd_exhaust at admission). Deliberately separate from
                 # REPRO_FAULT_PLAN, which the per-job pools inside the
                 # daemon would also read — one plan must not be applied
                 # twice at two layers. None follows
                 # REPRO_SERVE_FAULT_PLAN.
                 fault_plan=None,
                 # Lifecycle: how long a drain waits for running jobs
                 # before cancelling them at their next boundary.
                 drain_seconds=10.0,
                 # Per-job defaults (submit options override).
                 max_instructions=500_000_000,
                 superstep_scale=1,
                 task_timeout_seconds=30.0,
                 # Elastic autoscaling of job pools ("off" or "react").
                 # When on, each job's engine may shrink its pool below
                 # the lease width — the freed workers return to the
                 # shared budget, so other warm namespaces can admit
                 # jobs sooner. The lease width stays the per-pool
                 # ceiling.
                 autoscale="off"):
        self.socket_path = socket_path or default_socket_path()
        self.worker_budget = worker_budget
        self.workers_per_job = workers_per_job
        self.max_concurrent_jobs = max_concurrent_jobs
        self.max_running_per_client = max_running_per_client
        self.max_queued_per_client = max_queued_per_client
        self.cache_dir = cache_dir
        self.flush_every_jobs = max(1, int(flush_every_jobs))
        self.cache_capacity_bytes = cache_capacity_bytes
        if journal_dir is None and cache_dir is not None:
            journal_dir = os.path.join(cache_dir, "journal")
        self.journal_dir = journal_dir
        self.journal_fsync = journal_fsync
        self.result_store_bytes = result_store_bytes
        self.job_deadline_seconds = job_deadline_seconds
        self.no_progress_seconds = no_progress_seconds
        self.kill_grace_seconds = kill_grace_seconds
        self.watchdog_interval_seconds = watchdog_interval_seconds
        self.selfcheck_interval_seconds = selfcheck_interval_seconds
        self.min_shm_headroom_bytes = min_shm_headroom_bytes
        self.min_disk_free_bytes = min_disk_free_bytes
        self.min_fd_headroom = min_fd_headroom
        self.max_queued_jobs = max_queued_jobs
        self.fault_plan = fault_plan
        self.drain_seconds = drain_seconds
        self.max_instructions = max_instructions
        self.superstep_scale = superstep_scale
        self.task_timeout_seconds = task_timeout_seconds
        self.autoscale = check_autoscale(autoscale)

    def resolve_fault_plan(self):
        """The effective serve-tier plan: the configured one, or the
        ``REPRO_SERVE_FAULT_PLAN`` spec."""
        from repro.runtime.faults import FaultPlan, resolve_fault_plan
        if self.fault_plan is not None:
            return resolve_fault_plan(self.fault_plan)
        spec = os.environ.get("REPRO_SERVE_FAULT_PLAN")
        return FaultPlan.parse(spec) if spec else None

    def __repr__(self):
        inner = ", ".join("%s=%r" % kv for kv in sorted(self.__dict__.items()))
        return "ServeConfig(%s)" % inner
