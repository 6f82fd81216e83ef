"""Real multiprocess speculation runtime.

The simulated-time :class:`~repro.core.engine.ParallelEngine` executes
every speculation serially in one Python process and *charges* parallel
time through the platform cost model. This package is the other
backend: a pool of persistent OS processes that really execute
speculations on spare cores and ship trajectory-cache entries back to
the main thread over pipes — the shape of the paper's LASC prototype
(spare cores + MPI) on one machine.

Layers:

* :mod:`repro.runtime.wire` — the one engine↔worker protocol: compact
  versioned binary frames for tasks and results (numpy-backed, no
  pickling of live objects) whose blobs sit in a ring or inline, plus
  the delta codec;
* :mod:`repro.runtime.shm` — SPSC ring buffers in anonymous shared
  memory, inherited by workers at fork: the transport's bulk lane (states and entries move through rings; pipes
  carry only blob references, or the blob itself as an inline blob
  when a ring cannot take it);
* :mod:`repro.runtime.worker` — the worker process main loop (loads the
  program image once, keeps its block cache warm across tasks);
* :mod:`repro.runtime.pool` — :class:`WorkerPool`: dispatch,
  backpressure, per-task timeouts, crash detection;
* :mod:`repro.runtime.supervisor` — :class:`Supervisor`: per-worker
  health, circuit breaking with exponential-backoff quarantine, pool
  shrinking, and the degradation ladder down to sequential execution;
* :mod:`repro.runtime.faults` — :class:`FaultPlan`: seeded,
  deterministic fault injection at the pool's failure seams;
* :mod:`repro.runtime.engine` — :class:`RealParallelEngine`: the
  Figure 1 loop against real workers and real wall-clock time, with
  checkpoint/restore via :mod:`repro.core.checkpoint`.
"""

from repro.runtime.config import RuntimeConfig
from repro.runtime.engine import RealParallelEngine, RealParallelResult
from repro.runtime.faults import FaultPlan, FaultPlanError
from repro.runtime.pool import (
    PoolError,
    TASK_CRASHED,
    TASK_FAILED,
    TASK_OK,
    TASK_STALE,
    TASK_TIMED_OUT,
    TaskOutcome,
    WorkerPool,
)
from repro.runtime.shm import ShmError, ShmRing
from repro.runtime.stats import RuntimeStats
from repro.runtime.supervisor import Supervisor, WorkerHealth
from repro.runtime.wire import WireError

__all__ = [
    "FaultPlan",
    "FaultPlanError",
    "PoolError",
    "RealParallelEngine",
    "RealParallelResult",
    "RuntimeConfig",
    "RuntimeStats",
    "ShmError",
    "ShmRing",
    "Supervisor",
    "TASK_CRASHED",
    "TASK_FAILED",
    "TASK_OK",
    "TASK_STALE",
    "TASK_TIMED_OUT",
    "TaskOutcome",
    "WireError",
    "WorkerHealth",
    "WorkerPool",
]
