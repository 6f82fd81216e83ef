"""Speculation as a service: the resident ``repro serve`` daemon.

A one-shot ``repro run`` pays three startup taxes every time — worker
processes spawn and load the image, the recognizer re-derives hot IPs,
and the trajectory cache starts empty. The paper's economics point the
other way: cache entries are exact, reusable facts about a program's
transition function, and §6 calls cross-invocation reuse the natural
next step. This package keeps all three warm in one long-lived daemon:

* :mod:`repro.serve.protocol` — length-prefixed JSON over a unix
  socket (submit / poll / result / cancel / stats / jobs / ping /
  shutdown);
* :mod:`repro.serve.queue` — fair round-robin central queue with
  per-client admission bounds;
* :mod:`repro.serve.daemon` — :class:`SpeculationDaemon`: warm pools
  per image hash under a global worker budget, a shared
  :class:`~repro.core.cache_store.SharedCacheStore`, drain/flush/sweep
  lifecycle;
* :mod:`repro.serve.client` — :class:`ServeClient`, the fault-hardened
  library behind ``repro submit`` / ``repro jobs``;
* :mod:`repro.serve.journal` — :class:`JobJournal`, the crash-only
  write-ahead log + result store the daemon replays after a SIGKILL;
* :mod:`repro.serve.watchdog` — :class:`Watchdog` deadline/progress
  supervision and the :class:`SelfCheck` probes behind degraded mode.
"""

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.config import ServeConfig
from repro.serve.daemon import ServeError, SpeculationDaemon
from repro.serve.journal import JobJournal, JournalError
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serve.watchdog import SelfCheck, Watchdog
from repro.serve.queue import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    BacklogFull,
    CentralQueue,
    Job,
    JobCancelled,
)

__all__ = [
    "BacklogFull",
    "CentralQueue",
    "Job",
    "JobCancelled",
    "JobJournal",
    "JournalError",
    "JOB_CANCELLED",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeClientError",
    "SelfCheck",
    "ServeConfig",
    "ServeError",
    "SpeculationDaemon",
    "Watchdog",
]
