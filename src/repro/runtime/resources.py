"""Unified resource governance for the runtime and the serve daemon.

The paper frames speculation as a resource-allocation problem: spend
spare capacity to buy wall-clock. This module is the other half of that
bargain — *bounding* what gets spent. It owns the probes and budgets
for the three things this system can run out of:

* **worker memory** — each worker process runs under a configurable
  ``RLIMIT_AS`` (``RuntimeConfig.worker_rlimit_as_bytes``), so a runaway
  speculation hits a contained ``MemoryError`` (reported as a failed
  task, or at worst a worker crash) instead of taking the host. The
  transport rings are anonymous shared mappings counted as memory; a
  ring that cannot be mapped leaves its worker ringless (every blob
  inline) rather than failing the spawn;
* **disk** — cache shards, checkpoints and the job journal treat
  ``ENOSPC`` as a pressure event (:class:`repro.durable.DiskPressure`):
  prune oldest, retry, and if still starved suspend write-through or
  skip the checkpoint (results stay correct, durability recovers with
  the space);
* **file descriptors** — the daemon sheds load at admission when fd
  headroom runs out, instead of dying mid-``accept``.

:class:`ResourceGovernor` combines the queue, fd and disk probes into
one admission verdict the serve daemon consults before accepting a
job; a verdict of "no" becomes the retryable ``overloaded`` protocol
error. Each floor is a ``ServeConfig`` field and ``repro serve`` flag
defaulting to the ``DEFAULT_*`` constants below; ``0`` disables a
floor entirely.

The probes are injectable (and :meth:`ResourceGovernor.force_pressure`
lets the chaos tier deterministically fake exhaustion), so every
degradation path is exercisable without actually filling a disk.
"""

import os

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

#: ``repro serve`` has no flag for it: the only way to cap a daemon
#: pool's workers.
ENV_WORKER_RLIMIT_AS = "REPRO_WORKER_RLIMIT_AS"

DEFAULT_DISK_FLOOR_BYTES = 32 * 1024 * 1024
DEFAULT_FD_HEADROOM = 64
DEFAULT_MAX_QUEUED_JOBS = 64


# -- probes ------------------------------------------------------------------

def disk_free_bytes(path):
    """Free bytes on the filesystem holding ``path`` (``None`` when
    unprobeable)."""
    if not path:
        return None
    probe = path
    while probe and not os.path.exists(probe):
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    try:
        stat = os.statvfs(probe or os.sep)
    except (OSError, AttributeError):
        return None
    return stat.f_bavail * stat.f_frsize


def open_fd_count():
    """How many fds this process holds open (``None`` off-Linux)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def fd_headroom():
    """Soft ``RLIMIT_NOFILE`` minus current usage (``None`` when either
    side cannot be measured)."""
    if _resource is None:
        return None
    try:
        soft, __ = _resource.getrlimit(_resource.RLIMIT_NOFILE)
    except (OSError, ValueError):
        return None
    if soft == getattr(_resource, "RLIM_INFINITY", -1):
        return None
    used = open_fd_count()
    if used is None:
        return None
    return soft - used


def apply_worker_rlimit(limit_bytes):
    """Install ``RLIMIT_AS`` in a worker process (best-effort; the cap
    is a containment device, not a guarantee). Returns the ``(soft,
    hard)`` pair the worker should restore to after a contained
    ``MemoryError`` — the hard limit is left where it was so a chaos
    ``prlimit`` tightening can always be undone from inside."""
    if _resource is None or not limit_bytes:
        return None
    try:
        soft, hard = _resource.getrlimit(_resource.RLIMIT_AS)
        if hard != _resource.RLIM_INFINITY and hard < limit_bytes:
            limit_bytes = hard
        _resource.setrlimit(_resource.RLIMIT_AS, (limit_bytes, hard))
        return (limit_bytes, hard)
    except (OSError, ValueError):
        return None


def current_rlimit_as():
    """The process's ``(soft, hard)`` ``RLIMIT_AS`` pair, or ``None``."""
    if _resource is None:
        return None
    try:
        return _resource.getrlimit(_resource.RLIMIT_AS)
    except (OSError, ValueError):
        return None


def restore_rlimit_as(saved):
    """Raise the soft ``RLIMIT_AS`` back to ``saved`` (allowed
    unprivileged as long as it stays at or under the hard limit)."""
    if _resource is None or saved is None:
        return
    try:
        __, hard = _resource.getrlimit(_resource.RLIMIT_AS)
        soft = saved[0]
        if hard != _resource.RLIM_INFINITY and soft > hard:
            soft = hard
        _resource.setrlimit(_resource.RLIMIT_AS, (soft, hard))
    except (OSError, ValueError):
        pass


# -- the governor ------------------------------------------------------------

#: Pressure kinds the governor tracks (also the ``force_pressure``
#: vocabulary the chaos tier uses).
PRESSURE_KINDS = ("queue", "disk", "fd")


class ResourceGovernor:
    """Admission control over the queue, fd and disk budgets.

    ``admission_reason`` returns ``None`` (admit) or a short reason
    string (shed — the daemon maps it to the retryable ``overloaded``
    error code). A floor of ``0`` disables its check. Probes
    are injectable for tests; :meth:`force_pressure` makes the next N
    checks of one kind report exhaustion, which is how the seeded
    ``fd_exhaust`` chaos fault is delivered deterministically.
    """

    def __init__(self, disk_floor_bytes, fd_headroom_floor, max_queued_jobs,
                 disk_path=None, disk_probe=None, fd_probe=None):
        self.disk_floor_bytes = disk_floor_bytes
        self.fd_headroom_floor = fd_headroom_floor
        self.max_queued_jobs = max_queued_jobs
        self.disk_path = disk_path
        self._disk_probe = disk_probe or disk_free_bytes
        self._fd_probe = fd_probe or fd_headroom
        self._forced = {kind: 0 for kind in PRESSURE_KINDS}
        self.pressure_events = {kind: 0 for kind in PRESSURE_KINDS}
        self.sheds = 0
        self.admissions = 0

    # -- chaos hook ----------------------------------------------------------

    def force_pressure(self, kind, n=1):
        """Make the next ``n`` checks of ``kind`` report exhaustion."""
        if kind not in self._forced:
            raise ValueError("unknown pressure kind %r (known: %s)"
                             % (kind, ", ".join(PRESSURE_KINDS)))
        self._forced[kind] += max(0, n)

    def _take_forced(self, kind):
        if self._forced[kind] > 0:
            self._forced[kind] -= 1
            return True
        return False

    # -- verdicts ------------------------------------------------------------

    def admission_reason(self, queued_jobs=0):
        """``None`` to admit, else why this submission must be shed.

        Checked cheapest-first; the first exhausted budget wins and is
        counted, so pressure counters name the binding constraint."""
        reason = None
        if self.max_queued_jobs and (self._take_forced("queue")
                                     or queued_jobs >= self.max_queued_jobs):
            reason = "queue-bound (%d queued)" % queued_jobs
            self.pressure_events["queue"] += 1
        elif self.fd_headroom_floor and self._check_fd():
            reason = "fd-headroom"
            self.pressure_events["fd"] += 1
        elif self.disk_floor_bytes and self._check_disk():
            reason = "disk-floor"
            self.pressure_events["disk"] += 1
        if reason is None:
            self.admissions += 1
        else:
            self.sheds += 1
        return reason

    def _check_fd(self):
        if self._take_forced("fd"):
            return True
        headroom = self._fd_probe()
        return headroom is not None and headroom < self.fd_headroom_floor

    def _check_disk(self):
        if self._take_forced("disk"):
            return True
        if not self.disk_path:
            return False
        free = self._disk_probe(self.disk_path)
        return free is not None and free < self.disk_floor_bytes

    # -- introspection -------------------------------------------------------

    def snapshot(self):
        """Current probe readings (for status endpoints; never raises)."""
        return {
            "disk_free_bytes": (self._disk_probe(self.disk_path)
                                if self.disk_path else None),
            "fd_headroom": self._fd_probe(),
        }

    def stats_dict(self):
        return {
            "floors": {
                "disk_floor_bytes": self.disk_floor_bytes,
                "fd_headroom": self.fd_headroom_floor,
                "max_queued_jobs": self.max_queued_jobs,
            },
            "pressure_events": dict(self.pressure_events),
            "sheds": self.sheds,
            "admissions": self.admissions,
            "probes": self.snapshot(),
        }
