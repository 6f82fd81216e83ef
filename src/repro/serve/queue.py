"""Central job queue and admission control for the daemon.

The split follows the queue/resource-manager pattern of distributed
speculation services (ParSplice's splicer feeds segment producers
through a central task queue; see PAPERS.md): the **queue** decides
*which* job runs next — fair round-robin across clients, FIFO within a
client — while the daemon's resource manager decides *whether* it can
run now (a warm pool free for its image, worker budget available).
Admission control bounds each client's backlog and concurrency so one
chatty client cannot starve the rest of a fixed worker budget.

A :class:`Job` is the unit of work: one program image executed to halt
under the byte-identical-to-sequential guarantee, against the shared
trajectory-cache namespace of its image hash. Jobs move
``QUEUED -> RUNNING -> DONE | FAILED | CANCELLED`` (:data:`MOVES`
lists every legal step, the daemon takes each one in one place); a
queued job cancels by dequeue, a running one by a flag the engine's
boundary hook checks (speculative work is disposable, so abandoning it
at a superstep boundary is always safe, and so is handing an
interrupted job back to the queue).
"""

import copy
import threading
import time
from collections import OrderedDict, deque

from repro.errors import ReproError

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = (JOB_DONE, JOB_FAILED, JOB_CANCELLED)

#: Every legal move: state -> the states it may go to. A queued job
#: may end without running (cancelled, or refused at replay); a running
#: one may go back to the queue (interrupted by a drain or a crash).
MOVES = {JOB_QUEUED: (JOB_RUNNING, JOB_FAILED, JOB_CANCELLED),
         JOB_RUNNING: (JOB_QUEUED,) + TERMINAL_STATES}


class QueueError(ReproError):
    """The queue was misused."""


class BacklogFull(ReproError):
    """Admission control refused a submit (per-client backlog bound)."""


class JobCancelled(ReproError):
    """Raised inside a job's engine at a boundary after a cancel."""


class Job:
    """One submitted execution and everything learned about it."""

    __slots__ = ("job_id", "client", "program", "program_name", "hints",
                 "namespace", "options",
                 "state", "submitted_at", "started_at", "finished_at",
                 "result", "error", "cancel_event", "client_cancelled",
                 "wall_seconds", "token", "incidents", "restored")

    def __init__(self, job_id, client, program, namespace, options=None,
                 token=None, image=None):
        self.job_id = job_id
        self.client = client
        # ``program`` is the submission as decoded; ``image`` the
        # daemon's one Program for those bytes (serve.images), which is
        # what runs. An image hash leaves out name and compiler hints,
        # so those stay the submission's own.
        self.program = program if image is None else image  # until released
        self.program_name = program.name
        self.hints = program.hints
        self.namespace = namespace  # program.image_hash()
        self.options = dict(options or {})
        self.state = JOB_QUEUED
        self.submitted_at = time.time()
        self.started_at = None
        self.finished_at = None
        self.result = None  # full payload once DONE
        self.error = None
        self.cancel_event = threading.Event()
        # Set with ``cancel_event`` by a client's cancel only: a job
        # stopped without it (a drain) is interrupted, not cancelled.
        self.client_cancelled = False
        self.wall_seconds = None
        # Client-supplied idempotency token: a resubmission carrying
        # the same token dedups onto this job, across daemon restarts.
        self.token = token
        self.incidents = []  # structured watchdog incidents, if any
        self.restored = False  # replayed from the journal after a crash

    # -- transitions (caller holds whatever lock guards the job) -------------

    def move(self, state, result=None, error=None):
        """Take one legal step of :data:`MOVES`."""
        if state not in MOVES.get(self.state, ()):
            raise QueueError("job %s cannot go from %s to %s"
                             % (self.job_id, self.state, state))
        self.state = state
        if state == JOB_RUNNING:
            self.started_at = time.time()
        elif state in TERMINAL_STATES:
            self.result = result
            self.error = error
            self.finished_at = time.time()
            if self.started_at is not None:
                self.wall_seconds = self.finished_at - self.started_at

    def restore(self, replayed):
        """Take back what a journal replay found for this job
        (:class:`~repro.serve.journal.ReplayedJob`). A terminal job
        comes back as a history row, without its image."""
        self.state, self.error = replayed.state, replayed.error
        self.submitted_at = replayed.submitted_at or self.submitted_at
        self.finished_at = replayed.finished_at
        self.incidents = list(replayed.incidents)
        self.restored = True
        if self.terminal:
            self.release_image()

    @property
    def terminal(self):
        return self.state in TERMINAL_STATES

    def release_image(self):
        """Drop the program once the job is terminal and nothing runs it
        any more: history keeps rows, not images — an image pins its
        code, data and every basic block translated for it."""
        if not self.terminal:
            raise QueueError("job %s still needs its image (%s)"
                             % (self.job_id, self.state))
        self.program = None

    def as_submitted(self):
        """The image under this submission's name and hints — what the
        journal records and what a recognition run must read. A shallow
        copy where they differ from the interned program's: it shares
        the code, the data and the translated blocks."""
        program = self.program
        if program.name == self.program_name and program.hints is self.hints:
            return program  # the submission that was interned, or its twin
        program.translations  # built now, so that the copy shares them
        view = copy.copy(program)
        view.name, view.hints = self.program_name, self.hints
        return view

    def summary(self):
        """One row for the ``jobs`` verb — small by construction (no
        state bytes, no per-splice detail; ``result`` has those)."""
        out = {
            "job_id": self.job_id,
            "client": self.client,
            "program": self.program_name,
            "namespace": self.namespace,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_seconds": self.wall_seconds,
            "error": self.error,
            "token": self.token,
        }
        if self.restored:
            out["restored"] = True
        if self.incidents:
            out["incidents"] = list(self.incidents)
        if self.result is not None:
            for key in ("halted", "total_instructions", "hits",
                        "first_splice_seconds", "warm_entries",
                        "merged_entries", "recognition"):
                out[key] = self.result.get(key)
        return out

    def __repr__(self):
        return "Job(%s, %s, %s, %s)" % (self.job_id, self.client,
                                        self.program_name, self.state)


class CentralQueue:
    """Fair round-robin scheduling with per-client admission bounds.

    ``max_queued_per_client`` bounds the backlog a client may build up
    (submit beyond it raises :class:`BacklogFull` — backpressure the
    client sees immediately). ``max_running_per_client`` bounds a
    client's concurrent running jobs, so fairness holds even when one
    client's jobs are long.
    """

    def __init__(self, max_queued_per_client=8, max_running_per_client=1):
        self.max_queued_per_client = max_queued_per_client
        self.max_running_per_client = max_running_per_client
        self._lock = threading.RLock()
        # Insertion-ordered so round-robin order is deterministic:
        # clients scan in first-seen order starting after the client
        # scheduled last.
        self._backlogs = OrderedDict()  # client -> deque of Jobs
        self._running = {}  # client -> running job count
        self._last_client = None
        self.jobs_submitted = 0
        self.jobs_rejected = 0

    # -- admission -----------------------------------------------------------

    def submit(self, job):
        with self._lock:
            backlog = self._backlogs.setdefault(job.client, deque())
            if len(backlog) >= self.max_queued_per_client:
                self.jobs_rejected += 1
                self._forget_if_idle(job.client)
                raise BacklogFull(
                    "client %r already has %d queued jobs (bound %d)"
                    % (job.client, len(backlog), self.max_queued_per_client))
            backlog.append(job)
            self.jobs_submitted += 1

    # -- scheduling ----------------------------------------------------------

    def _client_order(self):
        """Clients in round-robin order, starting after the last pick."""
        clients = list(self._backlogs)
        if self._last_client in clients:
            pivot = clients.index(self._last_client) + 1
            clients = clients[pivot:] + clients[:pivot]
        return clients

    def next_runnable(self, runnable=None):
        """Pop the next fairly-chosen runnable job (still QUEUED: the
        daemon marks it RUNNING once that is journaled).

        ``runnable(job) -> bool`` is the resource manager's veto (pool
        busy for that image, worker budget exhausted). Within a client
        the backlog is FIFO — but a head-of-line job vetoed on
        *resources* does not block the client's later jobs targeting a
        different image, so one saturated pool cannot idle the rest of
        the budget. Returns ``None`` when nothing can run right now.
        """
        with self._lock:
            for client in self._client_order():
                if self._running.get(client, 0) >= \
                        self.max_running_per_client:
                    continue
                backlog = self._backlogs.get(client)
                if not backlog:
                    continue
                for job in list(backlog):
                    if job.cancel_event.is_set():
                        continue  # cancelled while queued
                    if runnable is not None and not runnable(job):
                        continue
                    backlog.remove(job)
                    self._running[client] = self._running.get(client, 0) + 1
                    self._last_client = client
                    return job
            return None

    def note_finished(self, job):
        """A popped job's thread is done with it — release its slot."""
        with self._lock:
            count = self._running.get(job.client, 0)
            self._running[job.client] = max(0, count - 1)
            self._forget_if_idle(job.client)

    def cancel_queued(self, job):
        """Remove a still-queued job. Returns True if it was dequeued."""
        with self._lock:
            backlog = self._backlogs.get(job.client)
            if backlog and job in backlog:
                backlog.remove(job)
                self._forget_if_idle(job.client)
                return True
            return False

    def _forget_if_idle(self, client):
        """Drop a client with nothing queued and nothing running: every
        ``repro submit`` process is a client of its own, and each pass
        of :meth:`next_runnable` walks them all. The round robin goes on
        from the client's predecessor, so its successor is next."""
        if self._backlogs.get(client) or self._running.get(client):
            return
        if client == self._last_client and client in self._backlogs:
            clients = list(self._backlogs)
            self._last_client = clients[clients.index(client) - 1]
        self._backlogs.pop(client, None)
        self._running.pop(client, None)

    # -- introspection -------------------------------------------------------

    def queued_count(self, client=None):
        with self._lock:
            if client is not None:
                return len(self._backlogs.get(client, ()))
            return sum(len(b) for b in self._backlogs.values())

    def running_count(self, client=None):
        with self._lock:
            if client is not None:
                return self._running.get(client, 0)
            return sum(self._running.values())

    def stats_dict(self):
        with self._lock:
            return {
                "queued": self.queued_count(),
                "running": self.running_count(),
                "jobs_submitted": self.jobs_submitted,
                "jobs_rejected": self.jobs_rejected,
                "per_client": {
                    client: {"queued": len(backlog),
                             "running": self._running.get(client, 0)}
                    for client, backlog in self._backlogs.items()
                },
            }
