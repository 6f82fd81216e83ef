"""Configuration for the speculation-as-a-service daemon, and the
options one submission may carry."""

import os
import tempfile

from repro.core.config import EngineConfig
from repro.runtime import resources
from repro.runtime.config import RuntimeConfig
from repro.settings import Setting, Settings, SettingsError, as_bool, table
from repro.verify.config import VerifyConfig, VerifyConfigError


class ServeConfig(Settings):
    """Tunables for :class:`~repro.serve.daemon.SpeculationDaemon`: the
    *service* — socket, worker budget across all tenants, fairness
    bounds, cache persistence cadence — which a one-shot run never
    reads.
    """

    KIND = "serve"
    FIELDS = table(
        Setting("socket_path", None, None, flag="--socket",
                env="REPRO_SERVE_SOCKET",
                help="unix socket path (default REPRO_SERVE_SOCKET or a "
                     "per-user path under the temp dir)"),
        # Total live workers across every warm pool. The resource
        # manager admits a job only when its pool fits the budget,
        # retiring idle pools LRU to make room — the daemon's capacity
        # is workers, not jobs.
        Setting("worker_budget", 4, int, flag="--worker-budget",
                help="total live workers across every warm pool"),
        # Workers per newly created pool, unless the submit requests
        # otherwise (a warm pool keeps its width; the request is a
        # preference, the warm pool wins).
        Setting("workers_per_job", 2, int, flag="--workers-per-job",
                help="workers per newly created pool"),
        # Concurrent running jobs (each on its own pool; jobs sharing
        # an image serialize on their shared pool).
        Setting("max_concurrent_jobs", 2, int, flag="--max-jobs",
                help="concurrently running jobs"),
        # Fairness bounds (see serve/queue.py).
        Setting("max_running_per_client", 1, int,
                flag="--max-running-per-client"),
        Setting("max_queued_per_client", 8, int,
                flag="--max-queued-per-client",
                help="per-client backlog bound (backpressure)"),
        # Shared-cache persistence: directory for shard files (None =
        # memory only) and how many finished jobs may elapse between
        # flushes (1 = flush after every job; shutdown always flushes).
        Setting("cache_dir", None, None, flag="--cache-dir",
                help="persist cache shards here across restarts "
                     "(default: memory only)"),
        Setting("flush_every_jobs", 1, int, flag="--flush-every",
                help="flush dirty shards every N finished jobs"),
        # Crash-only job journal: every accepted submission is WAL'd
        # here and replayed on restart. Defaults beside the cache
        # shards when a cache_dir is given; None with no cache_dir
        # means a memory-only (non-durable) daemon. journal_fsync=False
        # trades durability of the last few records for append latency.
        Setting("journal_dir", None, None, flag="--journal-dir",
                help="job journal directory (default: <cache-dir>/journal "
                     "when --cache-dir is set)"),
        Setting("journal_fsync", True, as_bool, flag="--no-journal-fsync",
                dest="journal_fsync",
                help="skip fsync on journal appends (faster, weaker "
                     "crash durability)"),
        # Watchdog: per-job wall-clock deadline (None = no cap), how
        # long heartbeats may stop before the job is condemned, grace
        # between escalation rungs, and the supervision tick.
        Setting("job_deadline_seconds", None, float, flag="--job-deadline",
                help="default per-job wall-clock deadline, seconds"),
        Setting("no_progress_seconds", 20.0, float,
                flag="--no-progress-seconds",
                help="kill a job after this long without a superstep "
                     "heartbeat"),
        Setting("kill_grace_seconds", 5.0, float,
                flag="--kill-grace-seconds",
                help="grace between watchdog escalation stages"),
        Setting("watchdog_interval_seconds", 0.5, float),
        # Self-check cadence: how often a failing durable write flips
        # the daemon into degraded mode (sequential execution, cache
        # write-through off) and a suspended write-through retries.
        Setting("selfcheck_interval_seconds", 2.0, float),
        # Resource governance (see runtime/resources.py): the
        # admission-time floors behind load shedding. A submit arriving
        # while free disk under the journal/cache directory is below
        # min_disk_free_bytes, fd headroom is below min_fd_headroom, or
        # max_queued_jobs jobs are already queued is refused with the
        # retryable "overloaded" error code instead of being accepted
        # and failed later. 0 disables the corresponding check.
        Setting("min_disk_free_bytes", resources.DEFAULT_DISK_FLOOR_BYTES,
                int, flag="--min-disk-free-bytes",
                help="free-disk floor under the journal/cache dir below "
                     "which submits are shed as 'overloaded' (default "
                     "32 MiB; 0 disables)"),
        Setting("min_fd_headroom", resources.DEFAULT_FD_HEADROOM, int,
                flag="--fd-headroom", dest="min_fd_headroom",
                help="open-fd headroom below which submits are shed "
                     "(default 64; 0 disables)"),
        Setting("max_queued_jobs", resources.DEFAULT_MAX_QUEUED_JOBS, int,
                flag="--max-queued-jobs",
                help="global queued-job bound before shedding (default "
                     "64; 0 disables)"),
        # Serve-tier chaos: a FaultPlan (instance or spec string) whose
        # resource faults the *daemon* consumes at its own seams
        # (disk_full at journal/cache writes, fd_exhaust at admission).
        # Deliberately separate from REPRO_FAULT_PLAN, which the
        # per-job pools inside the daemon also read — one plan must not
        # be applied twice at two layers.
        Setting("fault_plan", None, None, flag="--fault-plan",
                env="REPRO_SERVE_FAULT_PLAN", metavar="SPEC",
                help="serve-tier chaos plan the daemon consumes at its "
                     "own seams, e.g. 'seed=7,disk_full=2,fd_exhaust=1' "
                     "(default REPRO_SERVE_FAULT_PLAN)"),
        # Lifecycle: how long a drain waits for running jobs before
        # interrupting them (the next start re-runs them).
        Setting("drain_seconds", 10.0, float, flag="--drain-seconds",
                help="shutdown grace for running jobs before interrupt"),
        # What every job's RuntimeConfig takes from the service: the
        # instruction limit is a per-job default (the submit option
        # overrides).
        RuntimeConfig.FIELDS["max_instructions"],
        RuntimeConfig.FIELDS["task_timeout_seconds"],
    )

    def _finish(self):
        if not self.socket_path:
            uid = os.getuid() if hasattr(os, "getuid") else 0
            self.socket_path = os.path.join(
                tempfile.gettempdir(), "repro-serve-%d.sock" % uid)
        self.flush_every_jobs = max(1, int(self.flush_every_jobs))
        if self.journal_dir is None and self.cache_dir is not None:
            self.journal_dir = os.path.join(self.cache_dir, "journal")

    # The same rule as a pool's plan, under its own variable.
    resolve_fault_plan = RuntimeConfig.resolve_fault_plan


class SubmitOptions(Settings):
    """What one ``submit`` may carry beside the program image. Values
    are coerced once, where they enter the daemon (a submit request, a
    journal record at replay); ``overrides()`` is the wire form."""

    KIND = "submit"
    FIELDS = table(
        # A preference: a warm pool keeps the width it has.
        Setting("workers", None, int, flag="--workers",
                help="pool width if the daemon creates a pool for this "
                     "image"),
        # None: the daemon's --max-instructions.
        Setting("max_instructions", None, int, flag="--max-instructions",
                help="instruction limit"),
        RuntimeConfig.FIELDS["superstep_scale"],
        Setting("inflight_wait_bias", None, float, flag="--wait-bias",
                help="engine inflight wait bias (large values make "
                     "warm-cache runs deterministic)"),
        Setting("verify_rate", None, float, flag="--verify-rate",
                metavar="RATE",
                help="shadow-audit this fraction of cache splices on the "
                     "reference interpreter (0..1; real backend; "
                     "overrides REPRO_VERIFY)"),
        Setting("strict_verify", False, as_bool, flag="--strict-verify",
                help="audit every splice synchronously and quarantine "
                     "divergent groups for good"),
        # Non-default EngineConfig fields, as EngineConfig.overrides()
        # spells them.
        Setting("engine", None,
                lambda given: EngineConfig.from_options(given).overrides()),
        Setting("deadline_seconds", None, float, flag="--deadline",
                help="per-job wall-clock deadline, seconds"),
    )

    def _finish(self):
        self.engine = self.engine or None  # no overrides: not shipped
        try:  # the rate's range is VerifyConfig's rule, asked here
            VerifyConfig.from_options(self.verify_rate, self.strict_verify)
        except VerifyConfigError as exc:
            raise SettingsError("bad value for verify_rate: %s" % exc)
