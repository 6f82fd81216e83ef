"""Worker process main loop.

Each pool worker is one long-lived OS process. At startup it rebuilds
the program image from its JSON form and creates a single
:class:`~repro.machine.transition.TransitionContext` — so the decoded
instruction cache and the block-translation cache warm up once and stay
hot across every task the worker ever runs (the paper's workers likewise
hold the loaded binary for the life of the computation).

The loop is strictly request/response over one duplex pipe: receive a
task frame, run the speculation, send a result frame. The start state
arrives as a delta-compressed blob — in the worker's task ring (named
by sequence/length/CRC), or inline in the frame — and the produced
cache entry leaves through its result ring, or inline, the same way. A
*ringless* worker (the pool could not allocate its rings) sees every
blob inline and is otherwise no different. The worker holds the last
reconstructed start state as the delta base, tagged with the
engine-assigned *epoch*; a sparse delta against an epoch it does not
hold is answered with :data:`~repro.runtime.wire.RESULT_STALE` rather
than guessed at.

A malformed frame, a failed blob checksum, an oversized blob, or a
closed pipe ends the process; the parent observes that as a worker
crash (the safe interpretation of a corrupt stream). SIGINT is ignored
so that a Ctrl-C delivered to the foreground process group interrupts
only the engine, which then shuts the pool down deliberately.
"""

import gc
import os
import signal

from repro.core.cache_io import encode_entry
from repro.core.speculation import SpeculationResult, run_speculation
from repro.loader.image import Program
from repro.runtime import resources, shm, wire
from repro.verify.audit import run_audit

#: Fault-string prefix for a contained out-of-memory speculation; the
#: pool keys its ``tasks_oom`` counter and incident reports off it.
OOM_FAULT_PREFIX = "oom:"


def _run_task(context, start_state, rip, occurrences, max_instructions,
              flags):
    if flags & wire.FLAG_AUDIT:
        # Shadow audit: replay exactly the claimed instruction count on
        # the reference tier and ship the ground truth.
        return run_audit(context, start_state, rip, max_instructions,
                         occurrences=occurrences)
    return run_speculation(context, start_state, rip, occurrences,
                           max_instructions)


def _contained_run(context, start_state, rip, occurrences,
                   max_instructions, flags, rlimit_restore):
    """Run one task with ``MemoryError`` contained.

    Under ``RLIMIT_AS`` a runaway speculation surfaces as a Python
    ``MemoryError`` rather than a host-level OOM kill. Speculation is
    disposable, so the right answer is a *failed task*, not a dead
    worker: restore the soft limit (a chaos ``prlimit`` tightening may
    have lowered it), drop whatever the aborted run allocated, and
    report the fault. A MemoryError so severe this handler itself
    cannot run ends the process — the ordinary worker-crash path.
    """
    try:
        return _run_task(context, start_state, rip, occurrences,
                         max_instructions, flags)
    except MemoryError:
        resources.restore_rlimit_as(rlimit_restore)
        gc.collect()
        return SpeculationResult(
            None, 0, False,
            fault=OOM_FAULT_PREFIX
            + " speculation exceeded the worker memory limit")


def _take_blob(msg, task_ring, max_frame_bytes):
    """Materialize a task's state blob: copy it out of the task ring
    (then release it) or take the inline bytes. Any inconsistency —
    oversized length, CRC failure, ring desync — raises, which ends
    the worker: a blob is applied as a trusted start state, so a frame
    we cannot verify means the transport is compromised."""
    if msg.blob_len > max_frame_bytes:
        raise wire.WireError("blob of %d bytes exceeds the %d-byte "
                             "limit" % (msg.blob_len, max_frame_bytes))
    if msg.location == wire.BLOB_INLINE:
        blob = msg.blob
    else:
        if task_ring is None:
            raise wire.WireError("shm blob reference without a task ring")
        blob = task_ring.read(msg.seq, msg.blob_len)
        task_ring.release(msg.seq + msg.blob_len)
    return wire.check_blob(blob, msg.blob_crc)


def worker_main(conn, program_payload, fast_path, max_frame_bytes=None,
                shm_names=None, parent_pid=None, rlimit_as_bytes=None):
    """Entry point for a pool worker (``multiprocessing.Process`` target).

    ``conn`` is the worker end of a duplex pipe; ``program_payload`` the
    :meth:`Program.to_dict` form of the image; ``fast_path`` the
    interpreter-tier override (None follows ``REPRO_FAST_PATH``);
    ``max_frame_bytes`` bounds how large a frame the worker will read —
    and how large a blob it will dereference — so an oversized or
    checksum-failing frame ends the process, which the parent observes
    as a worker crash. ``shm_names`` is ``(task_ring, result_ring)``
    segment names, or ``None`` for a ringless worker.
    ``parent_pid`` is the engine's pid as the *pool* recorded it — the
    worker must not derive it itself, because an engine killed during
    worker startup re-parents the child before its first
    ``os.getppid()`` could run. ``rlimit_as_bytes`` caps the worker's
    address space (``RLIMIT_AS``) so a runaway speculation fails as a
    contained task fault instead of taking the host.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread (tests) or odd platform
        pass
    rlimit_restore = resources.apply_worker_rlimit(rlimit_as_bytes)
    if rlimit_restore is None:
        # No configured cap: remember the inherited limits anyway, so a
        # chaos prlimit tightening can be undone after containment.
        rlimit_restore = resources.current_rlimit_as()
    if max_frame_bytes is None:
        max_frame_bytes = wire.DEFAULT_MAX_FRAME_BYTES
    program = Program.from_dict(program_payload)
    context = program.make_context(fast_path=fast_path)
    task_ring = result_ring = None
    if shm_names is not None:
        # The pool owns both segments; attach_ring suppresses resource
        # tracking so nothing unlinks them behind the engine's back.
        # The deliberate unlink in the finally below is different: it
        # only runs once this worker's pipe is dead, after which the
        # pool never touches these rings again.
        task_ring = shm.attach_ring(shm_names[0])
        result_ring = shm.attach_ring(shm_names[1])
    base_state = None  # last reconstructed start state (delta base)
    base_epoch = 0  # engine-assigned epoch naming that base
    if parent_pid is None:
        parent_pid = os.getppid()
    try:
        while True:
            try:
                # Wake periodically instead of blocking forever: a
                # SIGKILLed engine leaves no EOF if a sibling worker
                # (forked later) still holds this pipe's parent end, so
                # re-parenting is the only reliable death signal.
                while not conn.poll(1.0):
                    if os.getppid() != parent_pid:
                        raise EOFError("engine process is gone")
                data = conn.recv_bytes(max_frame_bytes)
            except (EOFError, OSError):
                break  # engine went away, or sent an oversized frame
            msg_type, pos = wire.decode_message(data, max_frame_bytes)
            if msg_type == wire.MSG_SHUTDOWN:
                break
            if msg_type != wire.MSG_TASK_SHM:
                raise wire.WireError("worker got unexpected message type %d"
                                     % msg_type)
            msg = wire.decode_task_shm(data, pos)
            blob = _take_blob(msg, task_ring, max_frame_bytes)
            if blob[0] == wire.DELTA_SPARSE and (
                    base_state is None or base_epoch != msg.base_epoch):
                # The engine encoded against a base this worker does not
                # hold (fresh respawn, or bookkeeping drift). Refusing
                # loudly is cheap; guessing would corrupt the cache.
                conn.send_bytes(wire.encode_result_shm(
                    msg.task_id, wire.RESULT_STALE, 0, False, None))
                continue
            start_state = wire.decode_state_delta(blob, base=base_state)
            base_state = start_state
            base_epoch = msg.epoch
            result = _contained_run(context, start_state, msg.rip,
                                    msg.occurrences, msg.max_instructions,
                                    msg.flags, rlimit_restore)
            entry_blob = seq = None
            if result.entry is not None:
                entry_blob = encode_entry(result.entry)
                if result_ring is not None:
                    # Ring full (engine hasn't drained yet) falls back
                    # to inline — a result must never wait on its own
                    # consumer.
                    seq = result_ring.try_push(entry_blob)
            conn.send_bytes(wire.encode_result_shm(
                msg.task_id, wire.result_status(result),
                result.instructions, result.halted, result.fault,
                blob=entry_blob, seq=seq))
    finally:
        conn.close()
        for ring in (task_ring, result_ring):
            if ring is not None:
                # Last one out reaps: if the engine died without
                # unlinking (SIGKILL skips its atexit sweep), this
                # worker is the only process left that can. The pool
                # never re-attaches a ring once this pipe is closed,
                # and unlinking a name the pool already removed is a
                # no-op, so forcing here can only ever remove garbage.
                ring.unlink(force=True)
