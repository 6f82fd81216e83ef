"""A pool of persistent speculation workers on real cores.

The pool owns up to N OS processes (:func:`~repro.runtime.worker.worker_main`)
connected by duplex pipes. The engine talks to it through four calls:
:meth:`WorkerPool.submit` (assign a speculation to an idle slot, with
backpressure when every worker is at its queue depth), :meth:`poll`
(collect finished results, enforce per-task deadlines, detect dead
workers), :meth:`speculation_allowed` (the supervisor's verdict on
whether dispatching is currently sane), and :meth:`shutdown`.

Failure policy — speculation is *disposable* work, so every failure
mode degrades to "that task produced nothing":

* a worker that crashes (killed, segfaults the interpreter, OOM) is
  detected by pipe EOF / liveness and its in-flight tasks are reported
  as :data:`TASK_CRASHED`;
* a worker whose oldest task outlives the deadline is killed outright
  (a stuck pipe or runaway loop must not stall the engine) and its
  tasks are reported as :data:`TASK_TIMED_OUT`;
* a frame that is oversized, fails its checksum, or violates the
  protocol is treated exactly like a crash — the sender cannot be
  trusted, so it is killed and its queue reported crashed;
* a worker that reports a fault or exhausted budget yields
  :data:`TASK_FAILED` — the predicted state was garbage, which the
  paper's design explicitly tolerates.

What happens to the failed *slot* is the supervisor's decision
(:mod:`repro.runtime.supervisor`): respawn while the budget lasts,
quarantine with exponential backoff when a slot keeps failing (the
pool shrinks instead of respawn-storming), retire it for good once
the budget is spent. The engine decides whether to re-speculate; the
pool only guarantees that every submitted task eventually produces
exactly one outcome.

Transport — the pool maps two :class:`~repro.runtime.shm.ShmRing`
rings per worker (task ring: engine produces, worker consumes; result
ring: the reverse) and the pipes carry only small control frames
naming ring blobs by ``(seq, length, CRC32)``. A blob its ring cannot
take travels inline in the same frame; a worker that got no rings (no
fork to hand them over, no memory to map them) is *ringless* — all of
its blobs inline, everything else identical — and a respawn tries for
rings again. Start states ship delta-compressed against the worker's
last reconstructed state: the pool tracks, per worker, the *base
state* it last successfully sent and a monotonically increasing
*epoch* naming it, commits both only after a successful send, and
clears them whenever the worker is respawned or answers
:data:`TASK_STALE` (epoch mismatch) — so the next task automatically
carries a full snapshot. The pool creates both rings right before it
forks their worker, which inherits them, and closes its side on
crash/respawn, quarantine, retirement, and shutdown. The rings are
anonymous mappings, so the kernel frees them when the last process
mapping them is gone — an unclean exit leaves nothing to reap.

A seeded :class:`~repro.runtime.faults.FaultPlan` (via
``RuntimeConfig.fault_plan`` or ``REPRO_FAULT_PLAN``) injects failures
at these exact seams — dispatch-time kills and deadline overruns,
receive-time corruption, latency, and result drops — so every path
above is exercised deterministically by `repro chaos` and the tests.
"""

import itertools
import multiprocessing
import os
import time
from collections import deque
from multiprocessing.connection import wait as _conn_wait

from repro.core.cache_io import decode_entry
from repro.errors import EngineError, ReproError
from repro.runtime import resources, shm, wire
from repro.runtime.config import RuntimeConfig, default_start_method
from repro.runtime.stats import RuntimeStats
from repro.runtime.supervisor import RESPAWN, Supervisor
from repro.runtime.worker import OOM_FAULT_PREFIX, worker_main

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

#: Task outcome statuses (pool-level view; the wire-level OK/FAULT/
#: BUDGET/EMPTY collapse into OK vs FAILED here).
TASK_OK = "ok"
TASK_FAILED = "failed"
TASK_TIMED_OUT = "timed-out"
TASK_CRASHED = "crashed"
TASK_STALE = "stale"  # epoch mismatch: not executed, re-dispatch


class PoolError(ReproError):
    """The worker pool was misused."""


class SpeculationTask:
    """One dispatched speculation, as the engine sees it."""

    __slots__ = ("task_id", "rip", "occurrences", "max_instructions",
                 "meta", "dispatch_time", "payload_bytes", "worker",
                 "audit")

    def __init__(self, task_id, rip, occurrences, max_instructions, meta,
                 dispatch_time, payload_bytes, worker, audit=False):
        self.task_id = task_id
        self.rip = rip
        self.occurrences = occurrences
        self.max_instructions = max_instructions
        self.meta = meta  # opaque engine tag (e.g. the coverage key)
        self.dispatch_time = dispatch_time
        self.payload_bytes = payload_bytes
        self.worker = worker  # worker index it ran on
        self.audit = audit  # shadow-audit replay, not a speculation

    def __repr__(self):
        return "SpeculationTask(id=%d, rip=0x%x, worker=%d)" % (
            self.task_id, self.rip, self.worker)


class TaskOutcome:
    """One finished task: the submitted task plus what came back."""

    __slots__ = ("task", "status", "entry", "instructions", "halted",
                 "fault", "duration")

    def __init__(self, task, status, entry=None, instructions=0,
                 halted=False, fault=None, duration=0.0):
        self.task = task
        self.status = status
        self.entry = entry
        self.instructions = instructions
        self.halted = halted
        self.fault = fault
        self.duration = duration  # dispatch -> completion wall seconds

    @property
    def ok(self):
        return self.status == TASK_OK and self.entry is not None

    def __repr__(self):
        return "TaskOutcome(id=%d, status=%s, entry=%s)" % (
            self.task.task_id, self.status, self.entry is not None)


class _Worker:
    __slots__ = ("index", "proc", "conn", "inflight", "task_ring",
                 "result_ring", "base_state", "epoch")

    def __init__(self, index, proc, conn, task_ring=None, result_ring=None):
        self.index = index
        self.proc = proc
        self.conn = conn
        self.inflight = deque()  # SpeculationTasks, FIFO per worker
        self.task_ring = task_ring  # engine produces; None: ringless
        self.result_ring = result_ring  # engine consumes
        # Delta bookkeeping (engine's view, committed only after a
        # successful send): the start state this worker last
        # reconstructed, and the epoch naming it. None/0 means "no
        # usable base" — the next task ships a full snapshot.
        self.base_state = None
        self.epoch = 0

    def close_rings(self):
        """Unmap the pool's side of both rings (idempotent); the kernel
        frees them once the worker's side is gone too."""
        for ring in (self.task_ring, self.result_ring):
            if ring is not None:
                ring.close()


class WorkerPool:
    """Persistent multiprocess speculation workers for one program.

    ``self._workers`` is a fixed list of ``config.n_workers`` *slots*;
    a slot holds a live :class:`_Worker` or ``None`` while
    quarantined/retired. Only the supervisor empties a slot or refills
    it, so the width never changes and nothing is renumbered.
    """

    def __init__(self, program, config=None, stats=None):
        self.config = config or RuntimeConfig()
        if self.config.n_workers < 1:
            raise PoolError("n_workers must be >= 1")
        self.stats = stats or RuntimeStats()
        self.supervisor = Supervisor(self.config, self.stats)
        self.faults = self.config.resolve_fault_plan()
        self._program_payload = program.to_dict()
        self._ctx = multiprocessing.get_context(default_start_method())
        self._task_ids = itertools.count(1)
        self._deferred = []  # outcomes produced outside poll (submit-time)
        self._closed = False
        self._workers = [self._spawn(i) for i in range(self.config.n_workers)]

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, index):
        task_ring = result_ring = None
        # No rings (no fork to hand them over, no memory to map them)
        # must not fail the spawn: this worker runs ringless — same
        # frames, every blob inline — and the pressure is reported. A
        # respawn retries rings, so the degradation heals itself.
        try:
            task_ring = shm.create_ring(self.config.shm_ring_bytes)
            result_ring = shm.create_ring(self.config.shm_ring_bytes)
        except (shm.ShmError, OSError):
            if task_ring is not None:
                task_ring.close()
            task_ring = result_ring = None
            self.stats.shm_alloc_failures += 1
        rings = None if task_ring is None else (task_ring, result_ring)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self._program_payload,
                  self.config.max_frame_bytes, rings, os.getpid(),
                  self.config.worker_rlimit_as_bytes,
                  resources.current_rlimit_as()),
            name="repro-spec-%d" % index, daemon=True)
        proc.start()  # fork hands the rings over, unpickled
        child_conn.close()
        return _Worker(index, proc, parent_conn, task_ring=task_ring,
                       result_ring=result_ring)

    def _live(self):
        return [w for w in self._workers if w is not None]

    def _fail_worker(self, worker, status):
        """One worker failed: report its queue, let the supervisor rule.

        Returns the outcomes for its in-flight tasks. The slot is
        respawned, left empty (quarantine — re-admitted by
        :meth:`_admit_due` after backoff), or retired, per the
        supervisor's directive.
        """
        outcomes = []
        now = time.monotonic()
        counter = ("tasks_crashed" if status == TASK_CRASHED
                   else "tasks_timed_out")
        for task in worker.inflight:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            outcomes.append(TaskOutcome(task, status,
                                        duration=now - task.dispatch_time))
        worker.inflight.clear()
        self._teardown_worker(worker)
        kind = "timeout" if status == TASK_TIMED_OUT else "crash"
        directive = self.supervisor.note_failure(worker.index, kind)
        if directive == RESPAWN and not self._closed:
            # Never respawn into a shut-down pool: a concurrent
            # shutdown (the serve watchdog's last-resort escalation)
            # may close conns under a polling engine, and the resulting
            # crash detections must not leak fresh workers.
            self.stats.workers_respawned += 1
            self._workers[worker.index] = self._spawn(worker.index)
        else:  # quarantined or retired: the pool shrinks for now
            self._workers[worker.index] = None
        return outcomes

    def _teardown_worker(self, worker):
        """Release one worker's process and transport — the shared tail
        of every removal path (failure, quarantine, retirement).
        The rings die with the worker: its cursors and delta base are
        untrustworthy now, and a replacement starts from fresh rings
        and a full-snapshot first task."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=5.0)
        worker.close_rings()

    def _admit_due(self):
        """Respawn quarantined slots whose backoff has expired."""
        if self._closed:
            return
        for slot in self.supervisor.due_readmissions():
            if self._workers[slot] is not None:
                continue
            if self.supervisor.authorize_readmission(slot):
                self.stats.workers_respawned += 1
                self._workers[slot] = self._spawn(slot)

    def speculation_allowed(self):
        """Supervisor verdict: may the engine dispatch right now?

        Also the re-admission heartbeat — called every boundary, it
        brings quarantined slots back as their backoff expires.
        """
        if self._closed:
            return False
        self._admit_due()
        return self.supervisor.speculation_allowed(self.active_workers)

    def quiesce(self, timeout=5.0):
        """Absorb every in-flight task so the pool can be reused.

        A shared pool (``repro serve`` runs many jobs on one pool) must
        not leak one job's straggler results into the next job's drain
        loop — stale ``meta`` keys would poison the next engine's
        coverage bookkeeping. Polls until nothing is in flight or the
        timeout expires; whatever is still stuck after that is failed
        through the normal timeout path (worker killed and respawned),
        so the next job always starts against an empty queue. Returns
        the absorbed outcomes — their OK entries are still valid facts
        about this pool's program, so a caller may bank them.
        """
        outcomes = []
        deadline = time.monotonic() + max(0.0, timeout)
        while self.inflight_count() and time.monotonic() < deadline:
            outcomes.extend(self.poll(timeout=0.05))
        for worker in self._live():
            if worker.inflight:
                outcomes.extend(self._fail_worker(worker, TASK_TIMED_OUT))
        return outcomes

    def shutdown(self):
        """Stop every worker; polite first, then by force. Idempotent."""
        if self._closed:
            return
        self._closed = True
        frame = wire.encode_shutdown()
        for worker in self._live():
            try:
                worker.conn.send_bytes(frame)
            except (OSError, ValueError, BrokenPipeError):
                continue
            self.stats.bytes_sent += len(frame)
        deadline = time.monotonic() + 2.0
        for worker in self._live():
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.close_rings()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()

    # -- introspection -------------------------------------------------------

    @property
    def n_workers(self):
        """Configured slot count (the pool's nominal width)."""
        return len(self._workers)

    @property
    def active_workers(self):
        """Slots currently holding a live worker."""
        return len(self._live())

    def idle_slots(self):
        """How many more tasks :meth:`submit` would accept right now."""
        depth = self.config.queue_depth
        return sum(max(0, depth - len(w.inflight)) for w in self._live())

    def inflight_count(self):
        """Dispatched tasks whose outcome the caller has not seen yet.

        Counts deferred outcomes (produced outside :meth:`poll` — a
        send failure at submit time)
        as still in flight: a drain loop keyed on this must not stop
        while undelivered outcomes sit in the queue, and ``quiesce``
        must not let them leak into the next job's poll."""
        return sum(len(w.inflight) for w in self._live()) \
            + len(self._deferred)

    def worker_pids(self):
        """Live worker PIDs (fault-injection tests kill these)."""
        return [w.proc.pid for w in self._live()]

    def kill_workers(self):
        """SIGKILL every live worker process; returns how many died.

        The one pool mutation safe from *another* thread (the serve
        watchdog): it only signals processes — it does not touch
        inflight deques, pipes, or rings. The owning engine's poll loop
        detects the deaths as EOF, reports the in-flight tasks crashed,
        and lets the supervisor respawn the slots — exactly the
        external-SIGKILL path the chaos tests already exercise. The
        point is to unwedge an engine stuck waiting on a hung worker so
        a pending cancel can land at the next boundary.
        """
        killed = 0
        for worker in self._live():
            if worker.proc.is_alive():
                worker.proc.kill()
                killed += 1
        return killed

    # -- dispatch ------------------------------------------------------------

    def submit(self, rip, occurrences, max_instructions, start_state,
               meta=None, audit=False):
        """Assign a speculation to the least-loaded live worker.

        ``audit=True`` ships a shadow-audit replay instead (the worker
        re-executes ``max_instructions`` steps on the reference tier;
        the outcome is routed to the auditor, not the cache).

        Returns the :class:`SpeculationTask`, or ``None`` when every
        live worker is at its queue depth — or none are live at all
        (backpressure — the caller simply tries again at the next
        superstep boundary).
        """
        if self._closed:
            raise PoolError("submit on a shut-down pool")
        task_id = next(self._task_ids)
        flags = wire.FLAG_AUDIT if audit else 0
        state_bytes = bytes(start_state)
        # A worker found dead at dispatch time is failed through the
        # normal supervision path (its outcomes surface on the next
        # poll) and the dispatch retries on whatever is still live.
        for __ in range(self.n_workers + 1):
            live = self._live()
            if not live:
                self.stats.dispatch_backpressure += 1
                return None
            worker = min(live, key=lambda w: len(w.inflight))
            if len(worker.inflight) >= self.config.queue_depth:
                self.stats.dispatch_backpressure += 1
                return None
            force_inline = self._inject_resource_fault(worker)
            payload = self._encode_task_shm(worker, task_id, rip,
                                            occurrences, max_instructions,
                                            state_bytes, flags,
                                            force_inline=force_inline)
            try:
                worker.conn.send_bytes(payload)
            except (OSError, ValueError, BrokenPipeError):
                self._deferred.extend(self._fail_worker(worker, TASK_CRASHED))
                continue
            # Commit the delta base only now: a failed send means the
            # worker never saw the blob, so the old base (or none,
            # after the respawn above) stays authoritative.
            worker.base_state = state_bytes
            worker.epoch += 1
            self.stats.state_bytes_raw += len(state_bytes)
            task = SpeculationTask(task_id, rip, occurrences,
                                   max_instructions, meta, time.monotonic(),
                                   len(payload), worker.index, audit=audit)
            worker.inflight.append(task)
            self.stats.tasks_dispatched += 1
            self.stats.bytes_sent += len(payload)
            self._inject_dispatch_fault(worker, task)
            return task
        return None

    def _encode_task_shm(self, worker, task_id, rip, occurrences,
                         max_instructions, state_bytes, flags,
                         force_inline=False):
        """Encode one task: push the delta blob into the worker's task
        ring and build the control frame. A blob the ring cannot take
        — no ring at all (a ringless worker), full ring, oversized
        blob, or a chaos ``shm_full`` fault (``force_inline``) —
        travels inline on the pipe instead: shm pressure degrades
        throughput, never refuses the dispatch. The ledgers reconcile
        either way:
        ``state_bytes_shipped == shm_bytes_written + shm_fallback_bytes``.
        """
        blob = wire.encode_state_delta(state_bytes, base=worker.base_state)
        ring = worker.task_ring
        seq = None
        if ring is not None and not force_inline \
                and len(blob) <= ring.capacity:
            seq = ring.try_push(blob)
            if seq is None:
                self.stats.ring_full_backpressure += 1
        if seq is None:
            self.stats.shm_fallbacks += 1
            self.stats.shm_fallback_bytes += len(blob)
        else:
            self.stats.shm_bytes_written += len(blob)
        if blob[0] == wire.DELTA_SPARSE:
            self.stats.states_delta += 1
        else:
            self.stats.states_full += 1
        self.stats.state_bytes_shipped += len(blob)
        return wire.encode_task_shm(task_id, rip, occurrences,
                                    max_instructions, flags,
                                    worker.epoch, worker.epoch + 1,
                                    blob, seq=seq)

    def _inject_dispatch_fault(self, worker, task):
        if self.faults is None:
            return
        allowed = ["kill"]
        if self.config.task_timeout_seconds is not None:
            allowed.append("timeout")
        kind = self.faults.next("dispatch", allowed)
        if kind is None:
            return
        self.stats.faults_injected += 1
        if kind == "kill":
            worker.proc.kill()  # detected as EOF/liveness on the next poll
        elif kind == "timeout":
            # Backdate past the deadline so the reaper fires the real
            # deadline-overrun path (kill + timed-out outcomes).
            task.dispatch_time -= self.config.task_timeout_seconds + 1.0

    def _inject_resource_fault(self, worker):
        """Pre-dispatch resource-tier fault decision. Returns ``True``
        when this task's blob must skip the ring (``shm_full``, kept
        queued while the target has no ring to skip); a
        ``worker_oom`` tightens the target worker's memory cap before
        the task lands so it fails as a contained MemoryError (or, with
        no ``prlimit`` on this platform, as a plain worker crash)."""
        if self.faults is None:
            return False
        allowed = ["worker_oom"]
        if worker.task_ring is not None:
            allowed.append("shm_full")
        kind = self.faults.next("resource", allowed)
        if kind is None:
            return False
        self.stats.faults_injected += 1
        if kind == "shm_full":
            return True
        self._tighten_worker_memory(worker)
        return False

    def _tighten_worker_memory(self, worker):
        """Chaos ``worker_oom``: clamp the live worker's ``RLIMIT_AS``
        soft limit so its next allocation burst raises MemoryError. The
        worker's containment path restores its own soft limit (the hard
        limit is left untouched), so the slot heals after one contained
        failure. Platforms without ``prlimit`` fall back to an outright
        kill — the crash path is the same byte-identical-safe outcome,
        just less surgical."""
        if (_resource is not None and hasattr(_resource, "prlimit")
                and worker.proc.pid):
            try:
                __, hard = _resource.prlimit(worker.proc.pid,
                                             _resource.RLIMIT_AS)
                soft = 32 << 20
                if hard != _resource.RLIM_INFINITY:
                    soft = min(soft, hard)
                _resource.prlimit(worker.proc.pid, _resource.RLIMIT_AS,
                                  (soft, hard))
                return
            except (OSError, ValueError):
                pass
        worker.proc.kill()

    # -- collection ----------------------------------------------------------

    def poll(self, timeout=0.0):
        """Collect every outcome available within ``timeout`` seconds.

        Always returns promptly once at least one outcome (result,
        crash, or deadline kill) has been produced; an empty list means
        the timeout elapsed with all workers still busy or idle.
        """
        self._admit_due()
        outcomes = []
        if self._deferred:
            outcomes.extend(self._deferred)
            self._deferred = []
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            outcomes.extend(self._reap_expired())
            busy = {w.conn: w for w in self._live() if w.inflight}
            if not busy:
                break
            remaining = deadline - time.monotonic()
            if outcomes:
                remaining = 0.0  # drain whatever is ready, don't linger
            if remaining < 0:
                remaining = 0.0
            # Bound each wait so deadline kills stay responsive even
            # when a worker hangs without closing its pipe.
            ready = _conn_wait(list(busy), timeout=min(remaining, 0.05))
            for conn in ready:
                worker = busy[conn]
                if self._workers[worker.index] is not worker:
                    continue  # already failed earlier in this batch
                try:
                    data = conn.recv_bytes(self.config.max_frame_bytes)
                except (EOFError, OSError):
                    outcomes.extend(self._fail_worker(worker, TASK_CRASHED))
                    continue
                # Physical bytes are counted at the transport boundary,
                # before fault injection and decoding, so corrupt,
                # dropped, and rejected frames all count — symmetric
                # with bytes_sent.
                self.stats.bytes_received += len(data)
                data, dropped = self._inject_receive_fault(worker, data,
                                                           outcomes)
                if dropped:
                    continue
                try:
                    outcomes.append(self._ingest(worker, data))
                except (wire.WireError, shm.ShmError):
                    # Corrupt or protocol-violating frame — or a ring
                    # read that desynced/failed its checksum: the
                    # sender cannot be trusted any further —
                    # worker-crash path.
                    self.stats.frames_rejected += 1
                    outcomes.extend(self._fail_worker(worker, TASK_CRASHED))
            if not ready and time.monotonic() >= deadline:
                break
            if outcomes and not ready:
                break
        return outcomes

    def _inject_receive_fault(self, worker, data, outcomes):
        """Apply a scheduled receive-side fault. Returns
        ``(data, dropped)``; corrupt mutates, slow stalls, drop
        discards the frame (the result is lost, the task reported
        crashed so the engine re-speculates)."""
        if self.faults is None:
            return data, False
        kind = self.faults.next("receive")
        if kind is None:
            return data, False
        self.stats.faults_injected += 1
        if kind == "corrupt":
            return self.faults.corrupt_bytes(data), False
        if kind == "slow":
            time.sleep(self.faults.spec.slow_ms / 1000.0)
            return data, False
        # drop: the worker answered its FIFO head; discard the answer.
        if worker.inflight:
            task = worker.inflight.popleft()
            self.stats.results_dropped += 1
            outcomes.append(TaskOutcome(
                task, TASK_CRASHED,
                duration=time.monotonic() - task.dispatch_time))
        return data, True

    def _take_result_entry(self, worker, msg):
        """Materialize a result's entry (``None`` without one): copy
        the blob out of the worker's result ring (releasing it) or take
        the inline bytes, CRC-check, decode."""
        if not msg.has_entry:
            return None
        if msg.blob_len > self.config.max_frame_bytes:
            raise wire.WireError("entry blob of %d bytes exceeds the "
                                 "%d-byte limit"
                                 % (msg.blob_len, self.config.max_frame_bytes))
        if msg.location == wire.BLOB_SHM:
            if worker.result_ring is None:
                raise wire.WireError("shm blob reference without a ring")
            blob = worker.result_ring.read(msg.seq, msg.blob_len)
            # Cumulative release: this also reclaims any earlier blob a
            # dropped control frame left stranded in the ring.
            worker.result_ring.release(msg.seq + msg.blob_len)
            self.stats.shm_bytes_read += len(blob)
        else:
            blob = msg.blob
        wire.check_blob(blob, msg.blob_crc)
        try:
            entry, end = decode_entry(blob)
        except EngineError as exc:
            # CRC-valid but structurally bad: still the sender's fault.
            raise wire.WireError("bad entry blob: %s" % exc)
        if end != len(blob):
            raise wire.WireError("trailing bytes in entry blob")
        return entry

    def _ingest(self, worker, data):
        msg_type, pos = wire.decode_message(data,
                                            self.config.max_frame_bytes)
        if msg_type != wire.MSG_RESULT_SHM:
            raise wire.WireError("worker %d sent unexpected message type %d"
                                 % (worker.index, msg_type))
        msg = wire.decode_result_shm(data, pos)
        entry = self._take_result_entry(worker, msg)
        if not worker.inflight or worker.inflight[0].task_id != msg.task_id:
            raise wire.WireError("worker %d answered task %d out of order"
                                 % (worker.index, msg.task_id))
        task = worker.inflight.popleft()
        duration = time.monotonic() - task.dispatch_time
        self.supervisor.note_success(worker.index, duration)
        self.stats.tasks_completed += 1
        self.stats.worker_instructions += msg.instructions
        if msg.status == wire.RESULT_STALE:
            # Epoch mismatch: the worker refused a sparse delta it has
            # no base for (it answered honestly, so this is not a
            # supervision failure). Clear the engine-side base so the
            # next task for this worker ships a full snapshot; the
            # engine re-dispatches the work.
            self.stats.stale_results += 1
            worker.base_state = None
            return TaskOutcome(task, TASK_STALE, duration=duration)
        if task.audit:
            # Audit verdicts bypass the shipped/failed speculation
            # accounting (and fault injection): the auditor owns them.
            status = (TASK_OK if msg.status == wire.RESULT_OK
                      and entry is not None else TASK_FAILED)
            return TaskOutcome(task, status, entry=entry,
                               instructions=msg.instructions,
                               halted=msg.halted, fault=msg.fault,
                               duration=duration)
        if msg.status == wire.RESULT_OK and entry is not None:
            self.stats.entries_shipped += 1
            status = TASK_OK
        else:
            self.stats.tasks_failed += 1
            status = TASK_FAILED
            if msg.fault and msg.fault.startswith(OOM_FAULT_PREFIX):
                # A speculation hit the worker memory cap and was
                # contained (worker alive, task reported failed) — a
                # structured incident, not just a counter, because an
                # operator needs the rip to know *what* blew the budget.
                self.stats.tasks_oom += 1
                self.stats.incidents.append({
                    "kind": "worker_oom",
                    "worker": worker.index,
                    "task_id": task.task_id,
                    "rip": task.rip,
                    "fault": msg.fault,
                    "time": time.time(),
                })
        return TaskOutcome(task, status, entry=entry,
                           instructions=msg.instructions, halted=msg.halted,
                           fault=msg.fault, duration=duration)

    def _reap_expired(self):
        """Kill workers whose oldest task blew the deadline."""
        timeout = self.config.task_timeout_seconds
        now = time.monotonic()
        outcomes = []
        for worker in self._live():
            if timeout is not None and worker.inflight and \
                    now - worker.inflight[0].dispatch_time > timeout:
                outcomes.extend(self._fail_worker(worker, TASK_TIMED_OUT))
            elif not worker.proc.is_alive():
                outcomes.extend(self._fail_worker(worker, TASK_CRASHED))
        return outcomes
