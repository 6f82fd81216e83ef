"""The resident speculation daemon behind ``repro serve``.

One process owns what every one-shot ``repro run`` pays for and throws
away: warm :class:`~repro.runtime.pool.WorkerPool` processes (spawned
once, their block caches hot across jobs) and a shared, sharded,
persistent :class:`~repro.core.cache_store.SharedCacheStore` of
trajectory-cache entries keyed by program image hash. Clients talk to
it over a unix-domain socket (:mod:`repro.serve.protocol`); each
``submit`` becomes a :class:`~repro.serve.queue.Job` that executes a
full :class:`~repro.runtime.engine.RealParallelEngine` run — the same
byte-identical-to-sequential guarantee as the CLI, per job — against
its namespace's warm cache, and merges what it learned back for the
next run of that image, whoever submits it.

Three thread families, one lock:

* **connection threads** (one per client socket) parse requests and
  mutate queue/job state under the daemon lock — every handler is
  quick; nothing blocking runs under the lock except pool retirement;
* the **scheduler thread** picks the next fairly-chosen job whose
  resources fit (see below) and hands it a job thread;
* **job threads** run the engine *outside* the lock — one job per pool
  at a time, so no engine ever shares a pool concurrently.

Resource management: pools are per image hash (workers load one
program image at spawn), and the daemon multiplexes every tenant onto
a fixed **worker budget**. A job whose image already has a warm pool
waits only for that pool to go idle; a job needing a new pool is
admitted when the budget has room, retiring idle pools
least-recently-used to make it. Fairness across clients and per-client
bounds live in :class:`~repro.serve.queue.CentralQueue`.

What a retired pool takes with it is workers and shm rings, nothing
learned: every submission is interned through the
:class:`~repro.serve.images.ImageTable`, so all jobs of an image run
one ``Program`` (one set of translated blocks) and share one
recognition per engine configuration, whoever holds the budget in
between — a pool miss costs a spawn.

Failure containment: a job that raises is marked FAILED, its pool is
retired (never handed to another job), its pool's in-flight stragglers
are absorbed by :meth:`~repro.runtime.pool.WorkerPool.quiesce`, and
the shared store is only ever touched through signature-deduplicated
merges — a crashed job cannot poison the daemon, another client's
namespace, or the queue. Lifecycle: a job changes state only in
:meth:`SpeculationDaemon._transition`, and only its client's ``cancel``
ends it ``cancelled``. SIGTERM requests a drain (running jobs finish,
or are interrupted at their next boundary after ``drain_seconds`` and,
like queued jobs, left to the next start), shards flush, pools shut
down (their rings go with their workers), and the socket is unlinked;
every step is idempotent under a second SIGTERM racing the first (the
second escalates the drain to an immediate interrupt).

Crash-only operation (PR 8): when ``journal_dir`` is configured every
accepted submission is WAL'd (:mod:`repro.serve.journal`) before the
client is acked, state transitions follow, and a daemon restarted
after a SIGKILL replays the log — re-queuing interrupted jobs,
deduping resubmissions by idempotency token, and serving finished
results from the on-disk store. Mutual exclusion on the socket path is
a pidfile + ``flock`` (held for the daemon's lifetime), so two
concurrent starts cannot both win and a *stale* socket file is, by
construction, safe to unlink once the lock is held. A watchdog thread
(:mod:`repro.serve.watchdog`) reaps jobs that blow their deadline or
stop heartbeating, and a periodic self-check flips the daemon into
journaled **degraded mode** — sequential execution, cache
write-through disabled — instead of crashing when a cache flush or a
journal append fails for a reason other than a full disk.
"""

import base64
import hashlib
import itertools
import os
import socket
import threading
import time

try:
    import fcntl
except ImportError:  # non-POSIX: single-start races are the user's
    fcntl = None

from repro.core.cache_store import SharedCacheStore
from repro.core.config import EngineConfig
from repro.errors import ReproError
from repro.loader.image import Program
from repro.runtime import RealParallelEngine, RuntimeConfig, WorkerPool
from repro.runtime.resources import ResourceGovernor
from repro.serve import protocol
from repro.serve.config import ServeConfig, SubmitOptions
from repro.serve.images import ImageTable, recognition_key
from repro.serve.journal import JobJournal
from repro.serve.watchdog import SelfCheck, Watchdog
from repro.settings import SettingsError
from repro.verify import VerifyConfig
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

#: Terminal jobs retained for ``jobs``/``result`` queries.
_JOB_HISTORY = 256

#: The lifetime counter a terminal state bumps: the daemon's, and the
#: same key in its client's totals.
_COUNTERS = {JOB_DONE: "jobs_done", JOB_FAILED: "jobs_failed",
             JOB_CANCELLED: "jobs_cancelled"}

#: How long a finished job waits for its pool's straggler speculations
#: before force-clearing them.
_QUIESCE_SECONDS = 5.0

#: Socket accept backlog.
_LISTEN_BACKLOG = 16

#: Images whose ``Program`` (hence translated blocks) and recognitions
#: the daemon keeps between pools, least recently submitted out first.
_IMAGES_KEPT = 64

#: Start-lock fds to close in forked children. ``flock`` lives on the
#: open file *description*, which fork shares: a pool worker inheriting
#: the pidfile fd keeps the lock alive after the daemon is SIGKILLed,
#: wedging every restart until the orphan notices and exits. Closing
#: the child's copy at fork ties the lock's lifetime to the daemon
#: process alone.
_FORK_CLOSE_FDS = set()
_fork_guard_installed = []


def _install_fork_guard():
    if _fork_guard_installed or not hasattr(os, "register_at_fork"):
        return

    def _drop_inherited_locks():
        for fd in list(_FORK_CLOSE_FDS):
            try:
                os.close(fd)
            except OSError:
                pass
        _FORK_CLOSE_FDS.clear()

    os.register_at_fork(after_in_child=_drop_inherited_locks)
    _fork_guard_installed.append(True)


class ServeError(ReproError):
    """The daemon could not start or was misused."""


class _PoolLease:
    """One warm pool and its scheduling state (guarded by the daemon
    lock; the pool object itself is only touched by the job thread
    holding ``busy``)."""

    __slots__ = ("namespace", "program_name", "n_workers", "pool", "busy",
                 "jobs_served", "last_used")

    def __init__(self, namespace, program_name, n_workers):
        self.namespace = namespace
        self.program_name = program_name
        self.n_workers = n_workers
        self.pool = None  # created lazily by the first job thread
        self.busy = True  # born acquired
        self.jobs_served = 0
        self.last_used = time.monotonic()


class SpeculationDaemon:
    """Speculation-as-a-service over a unix socket."""

    def __init__(self, config=None):
        self.config = config or ServeConfig()
        self.store = SharedCacheStore(self.config.cache_dir)
        self.queue = CentralQueue(
            max_queued_per_client=self.config.max_queued_per_client,
            max_running_per_client=self.config.max_running_per_client)
        self._lock = threading.RLock()
        self._jobs = {}  # job_id -> Job (bounded history, oldest first)
        self._pools = {}  # namespace -> _PoolLease
        self.images = ImageTable(_IMAGES_KEPT)
        self._clients = {}  # client name -> aggregate dict
        self._job_ids = itertools.count(1)
        self._tokens = {}  # idempotency token -> job_id
        self._stop = threading.Event()
        self._work = threading.Event()  # scheduler wake-up
        self._close_lock = threading.Lock()
        self._closed = False
        self._listener = None
        self._socket_bound = False
        self._lock_file = None  # pidfile holding the start flock
        self._accept_thread = None
        self._scheduler_thread = None
        self._watchdog_thread = None
        self._conn_threads = []
        self._open_conns = set()  # live per-connection sockets
        self._job_threads = {}  # job_id -> Thread
        self.started_at = None
        # -- service counters ------------------------------------------
        self.connections_accepted = 0
        self.requests_served = 0
        self.protocol_errors = 0
        self.pools_created = 0
        self.pools_retired = 0
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.jobs_replayed = 0
        self.jobs_requeued = 0
        self.jobs_deduped = 0
        self.jobs_degraded = 0
        self.jobs_shed = 0
        self.journal_errors = 0
        self.serve_faults_injected = 0
        self._jobs_since_flush = 0
        # -- resource governance ---------------------------------------
        # Admission-time load shedding: a submit arriving while a
        # queue/fd/disk budget is exhausted is refused with the
        # retryable "overloaded" code instead of being accepted and
        # failed later. The disk probe watches the durability
        # directory (journal beats cache: losing WAL appends is the
        # worse failure).
        self.governor = ResourceGovernor(
            disk_floor_bytes=self.config.min_disk_free_bytes,
            fd_headroom_floor=self.config.min_fd_headroom,
            max_queued_jobs=self.config.max_queued_jobs,
            disk_path=(self.config.journal_dir or self.config.cache_dir))
        # Serve-tier chaos plan (disk_full / fd_exhaust), consumed at
        # the daemon's own seams — distinct from REPRO_FAULT_PLAN,
        # which the per-job pools read.
        self.serve_fault_plan = self.config.resolve_fault_plan()
        # -- crash-only machinery --------------------------------------
        self.watchdog = Watchdog(
            deadline_seconds=self.config.job_deadline_seconds,
            no_progress_seconds=self.config.no_progress_seconds,
            kill_grace_seconds=self.config.kill_grace_seconds)
        self.selfcheck = SelfCheck()
        self.degraded = False
        self.degraded_reason = None
        self.journal = None
        if self.config.journal_dir:
            self.journal = JobJournal(self.config.journal_dir,
                                      fsync=self.config.journal_fsync)
            self._replay_journal()

    # -- journal replay ------------------------------------------------------

    def _replay_journal(self):
        """Rebuild job state from the WAL (constructor-time, no locks
        contended yet). Interrupted jobs are re-queued — re-running a
        journaled submission from its program image is always correct
        because the guarantee is byte-identical-to-sequential, not
        at-most-once execution. Terminal jobs come back as queryable
        history; their payloads load lazily from the result store."""
        self._job_ids = itertools.count(self.journal.max_job_number() + 1)
        for replayed in self.journal.jobs.values():
            try:
                program = Program.from_dict(replayed.program_dict or {})
            except (ReproError, KeyError, TypeError, ValueError):
                continue  # image record damaged; nothing to re-run
            job = Job(replayed.job_id, replayed.client, program,
                      replayed.namespace or program.image_hash(),
                      replayed.options, token=replayed.token,
                      image=(self.images.intern(program)
                             if replayed.interrupted else None))
            job.restore(replayed)
            self._remember_job(job)
            self.jobs_replayed += 1
            if job.state == JOB_RUNNING:
                # Journal the reset so a second crash replays the same
                # queued state, not a phantom run.
                self._transition(job, JOB_QUEUED)
            if job.terminal:
                continue
            try:
                # A record this table cannot coerce must not reach the
                # scheduler; a name it no longer knows is only a key
                # nobody reads.
                self._options(job)
                self.queue.submit(job)
            except SettingsError as exc:
                self._transition(job, JOB_FAILED,
                                 error="bad options at replay: %s" % exc)
            except BacklogFull:
                self._transition(job, JOB_FAILED,
                                 error="backlog full at replay")
            else:
                self.jobs_requeued += 1
        if self.journal.mode == "degraded":
            # The previous incarnation died degraded; start optimistic
            # and let the next failing write re-demote it. Journaled
            # so the log stays consistent.
            self._journal("record_mode", "normal",
                          "restart: self-check re-evaluates")

    def _journal(self, method, *args, **kwargs):
        """Append one journal record; a failing journal (disk full,
        yanked volume) must degrade the daemon, not kill a job thread
        or a connection handler."""
        if self.journal is None:
            return
        try:
            getattr(self.journal, method)(*args, **kwargs)
        except Exception as exc:
            self.journal_errors += 1
            self.selfcheck.note_flush_failure(exc)

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Bind the socket and start the accept, scheduler, and
        watchdog threads.

        Mutual exclusion is a pidfile + ``flock`` beside the socket,
        not the old probe-and-unlink dance — probing then unlinking
        races a concurrent start (both probe a dead socket, both
        unlink, both bind; last binder silently steals the path). The
        lock is taken non-blocking and held for the daemon's lifetime:
        exactly one of two concurrent starts wins, the loser exits with
        the winner's pid, and with the lock held any *existing* socket
        file is stale by construction and safe to remove.
        """
        path = self.config.socket_path
        self._acquire_start_lock(path)
        if os.path.exists(path):
            os.unlink(path)  # stale: the flock proves no daemon owns it
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(path)
        except OSError as exc:
            listener.close()
            raise ServeError("cannot bind %s: %s" % (path, exc))
        os.chmod(path, 0o600)
        listener.listen(_LISTEN_BACKLOG)
        listener.settimeout(0.2)
        self._listener = listener
        self._socket_bound = True
        self.started_at = time.time()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True)
        self._accept_thread.start()
        self._scheduler_thread = threading.Thread(
            target=self._scheduler_loop, name="repro-serve-sched",
            daemon=True)
        self._scheduler_thread.start()
        self._watchdog_thread = threading.Thread(
            target=self._watchdog_loop, name="repro-serve-watchdog",
            daemon=True)
        self._watchdog_thread.start()
        if self.queue.queued_count():
            self._work.set()  # replayed jobs are ready to run
        return self

    def _acquire_start_lock(self, path):
        if fcntl is None:
            return  # non-POSIX: no flock; fall back to bind errors
        _install_fork_guard()
        lock_path = path + ".lock"
        for __ in range(16):
            lock_file = open(lock_path, "a+")
            try:
                fcntl.flock(lock_file.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                lock_file.seek(0)
                holder = lock_file.read(64).strip() or "unknown pid"
                lock_file.close()
                raise ServeError(
                    "a daemon (pid %s) already owns %s — stop it first, "
                    "or serve a different socket path" % (holder, path))
            # Guard the unlink race: a stopping daemon may have
            # unlinked the pidfile between our open and our flock, in
            # which case we hold a lock on an orphaned inode that no
            # later starter will ever contend on. Re-check identity.
            try:
                on_disk = os.stat(lock_path)
            except FileNotFoundError:
                on_disk = None
            if on_disk is not None and \
                    on_disk.st_ino == os.fstat(lock_file.fileno()).st_ino:
                lock_file.seek(0)
                lock_file.truncate()
                lock_file.write("%d\n" % os.getpid())
                lock_file.flush()
                self._lock_file = lock_file
                _FORK_CLOSE_FDS.add(lock_file.fileno())
                return
            lock_file.close()  # stale inode; take the fresh one
        raise ServeError("could not acquire the start lock at %s"
                         % lock_path)

    # -- watchdog / self-check -----------------------------------------------

    def _watchdog_loop(self):
        last_selfcheck = 0.0
        while not self._stop.is_set():
            self._stop.wait(self.config.watchdog_interval_seconds)
            if self._stop.is_set():
                break
            try:
                for incident in self.watchdog.step():
                    self._note_incident(incident)
            except Exception:
                pass  # supervision must never kill the supervisor
            now = time.monotonic()
            if now - last_selfcheck >= self.config.selfcheck_interval_seconds:
                last_selfcheck = now
                try:
                    self._run_selfcheck()
                except Exception:
                    pass

    def _note_incident(self, incident):
        """Attach a watchdog incident to its job and journal it."""
        job_id = incident.get("job_id")
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                job.incidents.append(incident)
        self._journal("record_incident", job_id, incident)

    def _run_selfcheck(self):
        healthy, reason = self.selfcheck.verdict()
        if self.degraded and healthy:
            self._set_degraded(False, "self-check healthy")
        elif not self.degraded and not healthy:
            self._set_degraded(True, reason)
        self._retry_suspended_durability()

    def _retry_suspended_durability(self):
        """Durability self-healing on the self-check cadence: a cache
        store or journal that suspended write-through under ``ENOSPC``
        retries here, so recovery needs only freed disk space — not a
        lucky client write. A still-full disk just re-suspends (these
        paths never raise for disk pressure)."""
        if self.store.write_through_suspended:
            try:
                self.store.flush(force=True)
            except Exception as exc:
                self.selfcheck.note_flush_failure(exc)
        if self.journal is not None and self.journal.journal_suspended:
            # A mode record with the current mode is a semantic no-op
            # on replay but a real durability probe: its success lifts
            # the suspension.
            self._journal("record_mode", self.journal.mode,
                          "durability probe")

    def _set_degraded(self, degraded, reason):
        """Flip the journaled degraded/normal mode. Degraded jobs run
        sequentially (no pools, no rings) and the cache store stops
        write-through flushing — the daemon stops leaning on a failing
        disk instead of crashing into it."""
        with self._lock:
            if self.degraded == degraded:
                return
            self.degraded = degraded
            self.degraded_reason = reason if degraded else None
        self._journal("record_mode",
                      "degraded" if degraded else "normal", reason)
        self._work.set()

    def serve_forever(self):
        """Run until :meth:`request_stop` (SIGTERM handler, shutdown
        verb, or KeyboardInterrupt); always cleans up. Starts the
        daemon first unless the caller already did."""
        if self._listener is None:
            self.start()
        try:
            while not self._stop.is_set():
                self._stop.wait(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def request_stop(self, drain=True):
        """Ask the daemon to stop. Safe from signal handlers.

        The first request starts a drain (running jobs finish). A
        repeated request — or ``drain=False`` — escalates: every
        running job is interrupted at its next superstep boundary.
        Never raises, no matter how often it fires.
        """
        escalate = self._stop.is_set() or not drain
        self._stop.set()
        self._work.set()
        if escalate:
            self._interrupt_running()

    def _interrupt_running(self):
        """Stop every job thread at its next boundary. Not a cancel: the
        job goes back to the queue, journaled, for the next start to run
        — as a SIGKILL would leave it (:meth:`_run_job`)."""
        with self._lock:
            jobs = [self._jobs[job_id] for job_id in self._job_threads
                    if job_id in self._jobs]
        for job in jobs:
            job.cancel_event.set()

    def close(self):
        """Full teardown: drain, flush, shut pools down, unlink the
        socket. Idempotent — the SIGTERM path, the shutdown
        verb, atexit, and an explicit call may all land here."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        self._work.set()
        for thread in (self._accept_thread, self._scheduler_thread,
                       self._watchdog_thread):
            if thread is not None:
                thread.join(timeout=5.0)
        # Sever live connections: a handler parked in its recv timeout
        # could otherwise answer one more request after close() returns
        # — a closed daemon must go silent, not trail off.
        with self._lock:
            conns = list(self._open_conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in self._conn_threads:
            thread.join(timeout=2.0)
        # Drain: give running jobs their window, then interrupt the
        # rest. Queued jobs stay queued, for the next start. (The
        # scheduler has stopped: no job thread starts after this.)
        with self._lock:
            threads = list(self._job_threads.values())
        deadline = time.monotonic() + self.config.drain_seconds
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        self._interrupt_running()
        for thread in threads:
            thread.join(timeout=self.config.drain_seconds + 10.0)
        with self._lock:
            leases = list(self._pools.values())
            self._pools.clear()
        for lease in leases:
            if lease.pool is not None:
                lease.pool.shutdown()
            self.pools_retired += 1
        try:
            self.store.flush(force=True)
        except Exception:
            pass  # a dying disk must not block the rest of teardown
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._socket_bound:
            self._socket_bound = False
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
        if self.journal is not None:
            self.journal.close()
        if self._lock_file is not None:
            # Unlink before releasing: a racing start that flocks the
            # *old* inode after our unlink holds a lock nobody else
            # will ever see, but its bind still wins cleanly because
            # the socket is gone too.
            try:
                os.unlink(self.config.socket_path + ".lock")
            except OSError:
                pass
            _FORK_CLOSE_FDS.discard(self._lock_file.fileno())
            try:
                self._lock_file.close()  # closes the fd, dropping flock
            except OSError:
                pass
            self._lock_file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- accept / connection handling ----------------------------------------

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                conn, __ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self.connections_accepted += 1
            with self._lock:
                self._open_conns.add(conn)
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True,
                                      name="repro-serve-conn")
            thread.start()
            self._conn_threads.append(thread)
            self._conn_threads = [t for t in self._conn_threads
                                  if t.is_alive()]

    def _serve_connection(self, conn):
        conn.settimeout(0.5)
        try:
            while not self._stop.is_set():
                try:
                    request = protocol.recv_message(conn)
                except socket.timeout:
                    continue
                except protocol.ProtocolError as exc:
                    self.protocol_errors += 1
                    try:
                        protocol.send_message(
                            conn, protocol.error_response(exc, "protocol"))
                    except OSError:
                        pass
                    return
                if request is None:
                    return  # peer hung up cleanly
                try:
                    response = self._handle(request)
                except Exception as exc:  # a request never kills the daemon
                    response = protocol.error_response(exc, "internal")
                try:
                    protocol.send_message(conn, response)
                except (OSError, protocol.ProtocolError):
                    return
                self.requests_served += 1
                if request.get("verb") == protocol.VERB_SHUTDOWN \
                        and response.get("ok"):
                    self.request_stop(drain=bool(request.get("drain", True)))
                    return
        finally:
            with self._lock:
                self._open_conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    # -- request dispatch ----------------------------------------------------

    def _handle(self, request):
        verb = request.get("verb")
        if verb == protocol.VERB_PING:
            return protocol.ok_response(
                pong=True, uptime_seconds=time.time() - self.started_at,
                protocol=protocol.PROTOCOL_VERSION,
                degraded=self.degraded,
                journaled=self.journal is not None)
        if verb == protocol.VERB_STATUS:
            return protocol.ok_response(status=self.status_dict())
        if verb == protocol.VERB_SUBMIT:
            return self._handle_submit(request)
        if verb == protocol.VERB_POLL:
            return self._handle_poll(request)
        if verb == protocol.VERB_RESULT:
            return self._handle_result(request)
        if verb == protocol.VERB_CANCEL:
            return self._handle_cancel(request)
        if verb == protocol.VERB_STATS:
            return protocol.ok_response(stats=self.stats_dict())
        if verb == protocol.VERB_JOBS:
            with self._lock:
                rows = [job.summary() for job in self._jobs.values()]
            return protocol.ok_response(jobs=rows)
        if verb == protocol.VERB_SHUTDOWN:
            return protocol.ok_response(stopping=True)
        return protocol.error_response("unknown verb %r" % (verb,),
                                       "bad-verb")

    def _consume_serve_fault(self):
        """Consume one serve-tier resource fault, arming the matching
        deterministic failure: ``fd_exhaust`` forces the governor's fd
        check to bind at this admission; ``disk_full`` arms one injected
        ``ENOSPC`` in the journal and the cache store, so the next
        durability write walks the real prune/retry/suspend ladder."""
        plan = self.serve_fault_plan
        if plan is None:
            return
        kind = plan.next("resource", allowed=("disk_full", "fd_exhaust"))
        if kind is None:
            return
        self.serve_faults_injected += 1
        if kind == "fd_exhaust":
            self.governor.force_pressure("fd", 1)
        else:  # disk_full
            if self.journal is not None:
                self.journal.inject_enospc(1)
            self.store.inject_enospc(1)

    def _admission_shed(self):
        """Load shedding at the front door: refuse *before* decoding
        the program image — an overloaded daemon must get cheaper per
        request, not more expensive. Returns an ``overloaded`` error
        response (retryable; the client backs off) or ``None``."""
        self._consume_serve_fault()
        reason = self.governor.admission_reason(
            queued_jobs=self.queue.queued_count())
        if reason is None:
            return None
        self.jobs_shed += 1
        return protocol.error_response(
            "daemon overloaded (%s); retry later" % reason, "overloaded")

    def _handle_submit(self, request):
        if self._stop.is_set():
            return protocol.error_response("daemon is draining", "draining")
        shed = self._admission_shed()
        if shed is not None:
            return shed
        client = str(request.get("client") or "anonymous")
        try:
            # Coerced here, once: what is queued and journaled is the
            # table's own spelling of the options, never raw input.
            options = SubmitOptions.from_options(
                request.get("options") or {}).overrides()
        except SettingsError as exc:
            return protocol.error_response(exc, "bad-request")
        try:
            program = Program.from_dict(request.get("program") or {})
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            return protocol.error_response("bad program image: %s" % exc,
                                           "bad-program")
        token = request.get("token")
        if token is not None:
            token = str(token)
        namespace = program.image_hash()
        with self._lock:
            if token is not None and token in self._tokens:
                # Idempotent resubmission: the original job (possibly
                # replayed across a daemon restart) answers for it.
                existing = self._jobs.get(self._tokens[token])
                if existing is not None:
                    self.jobs_deduped += 1
                    return protocol.ok_response(
                        job_id=existing.job_id,
                        namespace=existing.namespace,
                        state=existing.state, deduped=True,
                        warm_entries=self.store.entry_count(
                            existing.namespace),
                        queued=self.queue.queued_count())
            job = Job("j%d" % next(self._job_ids), client, program,
                      namespace, options, token=token,
                      image=self.images.intern(program))
            try:
                self.queue.submit(job)
            except BacklogFull as exc:
                return protocol.error_response(exc, "busy")
            self._remember_job(job)
            self._client_aggregate(client)["jobs_submitted"] += 1
        # WAL before the ack: once the client learns the job_id, the
        # submission survives any crash. (A crash in the window before
        # this append loses a job the client was never acked for — the
        # client's token retry re-creates it.)
        self._journal("record_submit", job, token)
        self._work.set()
        return protocol.ok_response(
            job_id=job.job_id, namespace=namespace, deduped=False,
            warm_entries=self.store.entry_count(namespace),
            queued=self.queue.queued_count())

    def _handle_poll(self, request):
        job = self._find_job(request)
        if job is None:
            return protocol.error_response("unknown job", "not-found")
        payload = job.summary()
        return protocol.ok_response(job=payload)

    def _handle_result(self, request):
        job = self._find_job(request)
        if job is None:
            return protocol.error_response("unknown job", "not-found")
        if job.state != JOB_DONE:
            return protocol.error_response(
                "job %s is %s%s" % (job.job_id, job.state,
                                    ": %s" % job.error if job.error else ""),
                "not-done")
        if job.result is None and job.restored and self.journal is not None:
            # A job that finished before the crash: its payload lives
            # in the on-disk result store, not the replayed log.
            job.result = self.journal.load_result(job.job_id)
        if job.result is None:
            return protocol.error_response(
                "job %s finished but its result is no longer stored"
                % job.job_id, "result-evicted")
        result = dict(job.result)
        if not request.get("include_state", True):
            result.pop("final_state", None)
        return protocol.ok_response(job_id=job.job_id, result=result)

    def _handle_cancel(self, request):
        job = self._find_job(request)
        if job is None:
            return protocol.error_response("unknown job", "not-found")
        with self._lock:
            if job.terminal or job.client_cancelled:
                # Over, or an earlier cancel is still ending it.
                return protocol.ok_response(job_id=job.job_id,
                                            state=job.state,
                                            cancelled=not job.terminal)
            job.client_cancelled = True
            job.cancel_event.set()
            # A job no thread owns is queued: in its backlog, or put
            # back by a drain's interrupt. This cancel ends it.
            unowned = job.job_id not in self._job_threads
            if unowned:
                self.queue.cancel_queued(job)
        if unowned:
            # Journaled before the ack: a restart finds it cancelled.
            self._transition(job, JOB_CANCELLED,
                             error="cancelled while queued")
        # Owned, its thread ends it: at the next superstep boundary, or
        # in _release_lease if a drain got there first.
        return protocol.ok_response(
            job_id=job.job_id, cancelled=True,
            state=JOB_CANCELLED if unowned else JOB_RUNNING)

    def _find_job(self, request):
        """Resolve a job by id or idempotency token. Token lookups are
        what survive a daemon restart: the client may never learn the
        replayed job's id, but its token maps to it."""
        job_id = request.get("job_id")
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                token = request.get("token")
                if token is not None:
                    job = self._jobs.get(self._tokens.get(str(token)))
            return job

    def _remember_job(self, job):
        """Add a job and its idempotency token to history, then drop the
        oldest *terminal* jobs beyond the cap, with their tokens: a
        token whose job has left history acts as a fresh submit."""
        self._jobs[job.job_id] = job
        if job.token is not None:
            self._tokens[job.token] = job.job_id
        excess = len(self._jobs) - _JOB_HISTORY
        if excess > 0:
            for old in list(itertools.islice(
                    (old for old in self._jobs.values() if old.terminal),
                    excess)):
                del self._jobs[old.job_id]
                if self._tokens.get(old.token) == old.job_id:
                    del self._tokens[old.token]

    def _client_aggregate(self, client):
        aggregate = self._clients.get(client)
        if aggregate is None:
            aggregate = dict(dict.fromkeys(_COUNTERS.values(), 0),
                             jobs_submitted=0, runtime={}, stats={})
            self._clients[client] = aggregate
        return aggregate

    @staticmethod
    def _accumulate(into, delta):
        for key, value in delta.items():
            if isinstance(value, (int, float)):
                into[key] = into.get(key, 0) + value

    # -- scheduling ----------------------------------------------------------

    def _scheduler_loop(self):
        while not self._stop.is_set():
            self._work.wait(timeout=0.1)
            self._work.clear()
            while not self._stop.is_set():
                with self._lock:
                    if len(self._job_threads) >= \
                            self.config.max_concurrent_jobs:
                        break
                    job = self.queue.next_runnable(self._runnable)
                    if job is None:
                        break
                    lease = self._acquire_lease(job)
                    thread = threading.Thread(
                        target=self._run_job, args=(job, lease),
                        name="repro-serve-job-%s" % job.job_id, daemon=True)
                    self._job_threads[job.job_id] = thread
                thread.start()

    def _runnable(self, job):
        """Resource-manager veto, called under the daemon lock. Every
        lease is charged the width it was admitted at, not its live
        count: a quarantined slot comes back when its backoff expires,
        so the budget it was admitted under stays spent."""
        lease = self._pools.get(job.namespace)
        if lease is not None:
            return not lease.busy  # same image serializes on its pool
        needed = self._job_workers(job)
        committed = sum(l.n_workers for l in self._pools.values() if l.busy)
        return committed + needed <= self.config.worker_budget

    @staticmethod
    def _options(job):
        """The job's submit options, as accepted at the door."""
        return SubmitOptions.from_options(job.options, ignore_unknown=True)

    def _job_workers(self, job):
        # On every scheduler pass, under the lock: coerce one option only.
        workers = SubmitOptions.FIELDS["workers"].coerce(
            job.options.get("workers")) or self.config.workers_per_job
        return max(1, min(workers, self.config.worker_budget))

    def _acquire_lease(self, job):
        """Reserve (or create) the pool lease for a job. Lock held."""
        lease = self._pools.get(job.namespace)
        if lease is not None:
            lease.busy = True
            return lease
        needed = self._job_workers(job)
        # Retire idle pools LRU until the new one fits the budget.
        total = sum(l.n_workers for l in self._pools.values())
        idle = sorted((l for l in self._pools.values() if not l.busy),
                      key=lambda l: l.last_used)
        while total + needed > self.config.worker_budget and idle:
            victim = idle.pop(0)
            del self._pools[victim.namespace]
            total -= victim.n_workers
            if victim.pool is not None:
                victim.pool.shutdown()
            self.pools_retired += 1
        lease = _PoolLease(job.namespace, job.program_name, needed)
        self._pools[job.namespace] = lease
        return lease

    # -- job execution (job thread; daemon lock NOT held) --------------------

    def _job_configs(self, job, lease, degraded):
        """The one place submit options become configs: the job's
        ``(options, EngineConfig, RuntimeConfig, VerifyConfig or
        None)``. An option left unset falls through to the daemon's
        default for it, then to ``RuntimeConfig``'s own."""
        options = self._options(job)
        runtime = RuntimeConfig(
            # Degraded: zero workers put the engine on its null backend.
            n_workers=0 if degraded else lease.n_workers,
            task_timeout_seconds=self.config.task_timeout_seconds,
            max_instructions=(options.max_instructions
                              or self.config.max_instructions))
        if not degraded:
            runtime = runtime.replace(
                superstep_scale=options.superstep_scale,
                inflight_wait_bias=options.inflight_wait_bias)
        return (options, EngineConfig.from_options(options.engine or {}),
                runtime, VerifyConfig.from_options(options.verify_rate,
                                                   options.strict_verify))

    def _run_job(self, job, lease):
        pool_poisoned = False
        outcome = None  # (state, details) for the one closing transition
        try:
            self._transition(job, JOB_RUNNING)
            # Degraded mode: no pool, no shm rings, no speculation, no
            # cache write-through — zero workers put the same engine on
            # its null backend, a fraction of the resource footprint
            # with heartbeats and cancel checks between plain-run
            # chunks so the watchdog still supervises it.
            degraded = self.degraded
            options, engine_config, runtime_config, verify = \
                self._job_configs(job, lease, degraded)
            self.watchdog.watch(job, lease,
                                deadline_seconds=options.deadline_seconds)
            recognition_id = recognition_key(engine_config, job.hints)
            recognized = None
            if degraded:
                self.jobs_degraded += 1
                pool = warm = None
            else:
                if lease.pool is None:
                    # A pool outlives the job that made it: it takes
                    # the service's settings, not this job's options.
                    timeout = self.config.task_timeout_seconds
                    lease.pool = WorkerPool(job.program, RuntimeConfig(
                        n_workers=lease.n_workers,
                        task_timeout_seconds=timeout))
                    self.pools_created += 1
                pool = lease.pool
                warm = self.store.snapshot(job.namespace)
                runtime_snapshot = pool.stats.snapshot()
                with self._lock:
                    recognized = self.images.recognition(job.namespace,
                                                         recognition_id)

            def boundary_hook(engine, superstep):
                # A client, the watchdog and a drain all stop a job by
                # its cancel event; the except clause tells them apart.
                self.watchdog.heartbeat(job.job_id, superstep)
                if job.cancel_event.is_set():
                    raise JobCancelled("job %s cancelled" % job.job_id)

            # A recognition that has to run reads the submission's own
            # compiler hints, not those of the image's first submitter.
            engine = RealParallelEngine(
                (job.program if degraded or recognized is not None
                 else job.as_submitted()),
                config=engine_config, runtime_config=runtime_config,
                recognized=recognized, pool=pool, initial_cache=warm,
                boundary_hook=boundary_hook, verify=verify)
            result = engine.run()
            merged, runtime_delta = 0, {}
            recognition = "none"  # degraded, or nothing recognizable
            if recognized is not None:
                recognition = "reused"
            elif engine.recognized is not None:
                recognition = "run"
                with self._lock:
                    self.images.remember(job.namespace, recognition_id,
                                         engine.recognized)
            if not degraded:
                merged = self._bank_entries(job, pool,
                                            result.cache.entries())
                runtime_delta = pool.stats.delta_since(runtime_snapshot)
            state = result.final_state
            payload = {
                "job_id": job.job_id,
                "client": job.client,
                "program": job.program_name,
                "namespace": job.namespace,
                "backend": "serve-degraded" if degraded else "serve",
                "halted": result.halted,
                "wall_seconds": result.wall_seconds,
                "total_instructions": result.total_instructions,
                "first_splice_seconds": result.stats.first_splice_seconds,
                "hits": result.stats.hits,
                "n_workers": result.n_workers,
                "recognition": recognition,
                "warm_entries": len(warm or ()),
                "merged_entries": merged,
                "stats": result.stats.as_dict(),
                "runtime": runtime_delta,
                "cache": result.cache.stats_dict(),
                "audit": result.audit,
                "final_state": base64.b64encode(state).decode("ascii"),
                "state_sha256": hashlib.sha256(state).hexdigest(),
            }
            extra = {"state_sha256": payload["state_sha256"]}
            if degraded:
                payload["degraded"] = extra["degraded"] = True
            outcome = JOB_DONE, {"result": payload, "extra": extra}
        except JobCancelled as exc:
            # What stopped the job decides its state. The watchdog sets
            # its verdict before the event, so it is visible here.
            reason = self.watchdog.timeout_reason(job.job_id)
            if reason is not None:
                # The pool may already have had its workers killed (or
                # been shut down outright) by the escalation ladder:
                # retire it, don't quiesce it — a condemned job's
                # stragglers are not worth racing a dying pool for.
                pool_poisoned = True
                outcome = JOB_FAILED, {"error": "job %s condemned by "
                                       "watchdog: %s" % (job.job_id, reason)}
            else:
                if lease.pool is not None:
                    try:  # bank whatever its workers still finished
                        self._bank_entries(job, lease.pool)
                    except Exception:
                        pass  # cleanup must not mask the cancellation
                # Only its client cancels a job. Interrupted by a
                # stopping daemon, it goes back to the queue — journaled,
                # so the next start runs it, as after a SIGKILL (a cancel
                # landing after this read is _release_lease's).
                outcome = ((JOB_QUEUED, {})
                           if self._stop.is_set() and not job.client_cancelled
                           else (JOB_CANCELLED, {"error": str(exc)}))
        except Exception as exc:  # the job fails; the daemon must not
            pool_poisoned = True
            outcome = JOB_FAILED, {"error": "%s: %s"
                                   % (type(exc).__name__, exc)}
        finally:
            self.watchdog.unwatch(job.job_id)
            if outcome is not None:
                state, details = outcome
                self._transition(job, state, **details)
            self._release_lease(job, lease, pool_poisoned)

    def _transition(self, job, state, result=None, error=None, extra=None):
        """The one place a job changes state. Durable first (the
        journal's fsyncs, outside the lock): a client that saw the state
        finds it again after a crash. Then, in *one* lock acquisition,
        the move, the counters of ``_COUNTERS`` and a terminal job's
        image let go — a reader that sees the new state sees counters
        that include it."""
        self._journal("record_state", job.job_id, state, error=error,
                      extra=extra)
        if result is not None:
            self._journal("store_result", job.job_id, result)
        with self._lock:
            job.move(state, result=result, error=error)
            counter = _COUNTERS.get(state)
            if counter is None:
                return
            setattr(self, counter, getattr(self, counter) + 1)
            aggregate = self._client_aggregate(job.client)
            aggregate[counter] += 1
            if result is not None:
                self._accumulate(aggregate["runtime"], result["runtime"])
                self._accumulate(aggregate["stats"], result["stats"])
            job.release_image()

    def _bank_entries(self, job, pool, learned=()):
        """Merge what a job learned into the shared store, absorbing
        the pool's stragglers so its next job starts clean; their OK
        entries are valid facts about this image. Returns the count."""
        leftovers = pool.quiesce(_QUIESCE_SECONDS)
        return self.store.merge(job.namespace, itertools.chain(
            learned, (o.entry for o in leftovers
                      if o.ok and not o.task.audit)))

    def _release_lease(self, job, lease, pool_poisoned):
        retired = None
        with self._lock:
            self.queue.note_finished(job)
            self._job_threads.pop(job.job_id, None)
            # A client cancel that landed after the drain's interrupt
            # put the job back: past here _handle_cancel ends it itself.
            cancelled_late = job.state == JOB_QUEUED and job.client_cancelled
            lease.busy = False
            lease.last_used = time.monotonic()
            lease.jobs_served += 1
            self._jobs_since_flush += 1
            if pool_poisoned and self._pools.get(job.namespace) is lease:
                # A failed job's pool is never handed to another job:
                # whatever broke it must not leak across tenants.
                del self._pools[job.namespace]
                retired = lease.pool
                self.pools_retired += 1
            flush_due = self._jobs_since_flush >= self.config.flush_every_jobs
            if flush_due:
                self._jobs_since_flush = 0
        if cancelled_late:
            self._transition(job, JOB_CANCELLED,
                             error="cancelled after a drain interrupted it")
        if retired is not None:
            retired.shutdown()
        if flush_due and not self.degraded:
            # Degraded mode disables cache write-through: a full or
            # failing disk must not turn every job completion into a
            # crash. Flush health feeds the self-check either way.
            try:
                self.store.flush()
                self.selfcheck.note_flush_ok()
            except Exception as exc:
                self.selfcheck.note_flush_failure(exc)
        self._work.set()

    # -- reporting -----------------------------------------------------------

    def _report(self):
        """The sections ``status`` and ``stats`` share. Lock held."""
        by_state = {}
        for job in self._jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "socket": self.config.socket_path,
            "uptime_seconds": (time.time() - self.started_at
                               if self.started_at else 0.0),
            "draining": self._stop.is_set(),
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "jobs": dict(by_state, replayed=self.jobs_replayed,
                         requeued=self.jobs_requeued, shed=self.jobs_shed),
            "journal": (self.journal.stats_dict()
                        if self.journal is not None else None),
            "journal_errors": self.journal_errors,
            "watchdog": self.watchdog.stats_dict(),
            "selfcheck": self.selfcheck.stats_dict(),
            "governor": self.governor.stats_dict(),
            "cache": self.store.stats_dict(),
            "images": self.images.stats_dict(),
        }

    def stats_dict(self):
        """The ``stats`` verb: service, per-client, pool, queue, cache."""
        with self._lock:
            report = self._report()
            # Lifetime counters, where ``status`` counts history rows.
            report["jobs"].update(
                {name[len("jobs_"):]: getattr(self, name)
                 for name in _COUNTERS.values()},
                total=len(self._jobs), deduped=self.jobs_deduped,
                degraded=self.jobs_degraded)
            report.update(
                worker_budget=self.config.worker_budget,
                workers_committed=sum(l.n_workers
                                      for l in self._pools.values()),
                connections_accepted=self.connections_accepted,
                requests_served=self.requests_served,
                protocol_errors=self.protocol_errors,
                clients={name: dict(agg, runtime=dict(agg["runtime"]),
                                    stats=dict(agg["stats"]))
                         for name, agg in sorted(self._clients.items())},
                pools=[{
                    "namespace": lease.namespace,
                    "program": lease.program_name,
                    "workers": lease.n_workers,
                    "live_workers": (0 if lease.pool is None
                                     else lease.pool.active_workers),
                    "busy": lease.busy,
                    "jobs_served": lease.jobs_served,
                    "idle_seconds": (0.0 if lease.busy
                                     else time.monotonic() - lease.last_used),
                } for lease in sorted(self._pools.values(),
                                      key=lambda l: l.namespace)],
                pools_created=self.pools_created,
                pools_retired=self.pools_retired,
                queue=self.queue.stats_dict(),
                serve_faults_injected=self.serve_faults_injected)
            return report

    def status_dict(self):
        """The ``status`` verb: the health probe behind
        ``repro serve --status`` — journal, watchdog, degraded-mode
        state, compact enough to poll cheaply."""
        with self._lock:
            return dict(self._report(), ok=True, pid=os.getpid())
