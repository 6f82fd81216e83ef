"""Shared-memory ring buffers for the multiprocess runtime.

An inline blob moves a start state or a result write set through the
kernel twice (sender copy-in, receiver copy-out). This module provides
the transport's bulk lane instead: one single-producer/single-consumer
ring per worker per direction, backed by
:class:`multiprocessing.shared_memory.SharedMemory`. Payload blobs
are written once into the ring; the pipes carry only small control
frames naming each blob by ``(seq, length, CRC32)``
(:mod:`repro.runtime.wire`).

Ring discipline — exactly one producer and one consumer per ring, the
shape the pool guarantees (the engine produces into a worker's task
ring and consumes its result ring; the worker does the opposite):

* ``head`` and ``tail`` are *monotonic byte counters*, not wrapped
  offsets. A blob's ``seq`` is the value of ``head`` when it was
  pushed; its bytes live at ``seq % capacity``, wrapping through the
  end of the data region.
* Only the producer writes ``head``; only the consumer writes
  ``tail``. Each side reads the other's cursor to compute free space,
  so no lock is needed: an 8-byte aligned store is not torn on any
  platform CPython runs on, and the control message that makes a blob
  *visible* travels through a pipe (a syscall on both ends), which
  orders the shared-memory writes before the consumer ever looks.
* The consumer copies a blob out and then releases through
  ``seq + length``. Skipping a blob (a dropped control frame) is safe:
  the next release is cumulative, so the skipped region is reclaimed
  the moment any later blob is consumed.
* Every blob's CRC travels in the control frame; a checksum mismatch
  on read means the ring desynchronized or was corrupted, and the
  reader treats the peer exactly like a crashed worker.

Hygiene — segments are kernel-persistent objects (``/dev/shm/psm_*``)
that outlive a SIGKILLed process, so ownership is strict: the *pool*
creates every ring, unlinks it on worker crash/respawn, quarantine,
retirement, and pool shutdown, and an ``atexit`` sweep unlinks
anything still registered if the pool never got to clean up. Workers
attach with ``resource_tracker`` registration suppressed so nothing
unlinks a ring behind the engine's back (Python < 3.13 tracks mere
attachments too) — but on *exit* a worker force-unlinks its own rings:
once its pipe is dead the pool never touches them again, and if the
engine was SIGKILLed (no atexit sweep ran) the worker is the last
process able to reap the segments.
"""

import atexit
import struct
import threading

from repro.errors import ReproError

try:  # without it every worker is ringless (all blobs inline)
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - all supported platforms have it
    resource_tracker = None
    shared_memory = None

RING_MAGIC = b"ASCR"
RING_VERSION = 1

#: Fixed header: magic, version, reserved, capacity. Cursors live at
#: their own 8-byte-aligned offsets, padded apart so the producer's
#: head store and the consumer's tail store never share a cache line.
_RING_HEADER = struct.Struct("<4sHHQ")
_HEAD_OFFSET = 16
_TAIL_OFFSET = 32
DATA_OFFSET = 64

_CURSOR = struct.Struct("<Q")


class ShmError(ReproError):
    """A shared-memory ring was unavailable, invalid, or desynced."""


def shm_available():
    """Whether this interpreter can host rings at all."""
    return shared_memory is not None


# -- hygiene registry --------------------------------------------------------

#: Segments created (not attached) by this process and not yet
#: unlinked; the atexit sweep reaps whatever an unclean exit leaves.
_created_segments = {}
_registry_lock = threading.Lock()
_atexit_installed = False


def _register_created(segment):
    global _atexit_installed
    with _registry_lock:
        _created_segments[segment.name] = segment
        if not _atexit_installed:
            atexit.register(_cleanup_created_segments)
            _atexit_installed = True


def _unregister_created(name):
    with _registry_lock:
        _created_segments.pop(name, None)


def _cleanup_created_segments():
    """atexit sweep: unlink every segment the pool never released."""
    sweep_created_segments()


def sweep_created_segments():
    """Unlink every segment this process created and never released.

    Explicitly **idempotent and reentrant-safe**: the registry is
    emptied under the lock before any unlink happens, so a daemon's
    SIGTERM handler, its ``close()`` path, and the atexit hook can all
    fire (even twice, under double-SIGTERM) without raising or racing —
    later calls see an empty registry and do nothing. Returns how many
    segments this call actually reaped.
    """
    with _registry_lock:
        leftovers = list(_created_segments.values())
        _created_segments.clear()
    for segment in leftovers:
        for action in (segment.close, segment.unlink):
            try:
                action()
            except (OSError, FileNotFoundError, BufferError):
                pass
    return len(leftovers)


def live_segment_names():
    """Names of segments this process created and has not unlinked
    (the hygiene test asserts this is empty after shutdown)."""
    with _registry_lock:
        return sorted(_created_segments)


# -- the ring ----------------------------------------------------------------

class ShmRing:
    """One SPSC byte ring inside a shared-memory segment.

    Use :func:`create_ring` (owner/producer-or-consumer side) or
    :func:`attach_ring` (worker side); both ends then call the
    producer half (:meth:`try_push`, :meth:`free_bytes`) or the
    consumer half (:meth:`read`, :meth:`release`) as their role
    dictates.
    """

    __slots__ = ("shm", "capacity", "created", "_head", "_tail", "_closed")

    def __init__(self, segment, capacity, created):
        self.shm = segment
        self.capacity = capacity
        self.created = created
        self._head = self._load(_HEAD_OFFSET)
        self._tail = self._load(_TAIL_OFFSET)
        self._closed = False

    @property
    def name(self):
        return self.shm.name

    # -- cursors -------------------------------------------------------------

    def _load(self, offset):
        return _CURSOR.unpack_from(self.shm.buf, offset)[0]

    def _store(self, offset, value):
        _CURSOR.pack_into(self.shm.buf, offset, value)

    def used_bytes(self):
        return self._load(_HEAD_OFFSET) - self._load(_TAIL_OFFSET)

    def free_bytes(self):
        """Producer view: bytes currently pushable."""
        return self.capacity - (self._head - self._load(_TAIL_OFFSET))

    # -- producer ------------------------------------------------------------

    def try_push(self, blob):
        """Write ``blob`` into the ring; returns its ``seq`` or ``None``
        when the ring lacks space (backpressure) or the blob can never
        fit at all."""
        if self._closed:
            raise ShmError("push on a closed ring")
        length = len(blob)
        if length == 0 or length > self.capacity:
            return None
        if length > self.free_bytes():
            return None
        seq = self._head
        pos = seq % self.capacity
        first = min(length, self.capacity - pos)
        buf = self.shm.buf
        buf[DATA_OFFSET + pos:DATA_OFFSET + pos + first] = blob[:first]
        if first < length:  # wrap through the end of the data region
            buf[DATA_OFFSET:DATA_OFFSET + length - first] = blob[first:]
        self._head = seq + length
        self._store(_HEAD_OFFSET, self._head)
        return seq

    # -- consumer ------------------------------------------------------------

    def read(self, seq, length):
        """Copy one blob out of the ring. The caller then validates the
        CRC from the control frame and calls :meth:`release`."""
        if self._closed:
            raise ShmError("read on a closed ring")
        if length <= 0 or length > self.capacity:
            raise ShmError("blob length %d outside ring capacity %d"
                           % (length, self.capacity))
        if seq < self._tail:
            raise ShmError("blob seq %d precedes released tail %d"
                           % (seq, self._tail))
        if seq + length > self._load(_HEAD_OFFSET):
            raise ShmError("blob [%d, %d) beyond producer head — ring "
                           "desync" % (seq, seq + length))
        pos = seq % self.capacity
        first = min(length, self.capacity - pos)
        buf = self.shm.buf
        out = bytes(buf[DATA_OFFSET + pos:DATA_OFFSET + pos + first])
        if first < length:
            out += bytes(buf[DATA_OFFSET:DATA_OFFSET + length - first])
        return out

    def release(self, upto_seq):
        """Free every byte before ``upto_seq`` (cumulative; skipping a
        dropped blob is fine — the next release reclaims it)."""
        if upto_seq > self._tail:
            self._tail = upto_seq
            self._store(_TAIL_OFFSET, self._tail)

    # -- lifecycle -----------------------------------------------------------

    def close(self):
        """Detach the mapping (both ends). Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self.shm.close()
        except (OSError, BufferError):
            pass

    def unlink(self, force=False):
        """Destroy the segment (creator side only, unless ``force``).
        Idempotent; safe while the peer is still attached (POSIX keeps
        the mapping alive until every attachment closes).

        ``force`` lets an *attached* end unlink as a last resort: a
        worker that outlives a SIGKILLed engine is the only process
        left that can reap the segment (the engine's atexit sweep died
        with it). Unlinking a name the pool already removed is a no-op,
        and the pool never re-attaches a ring once its worker's pipe
        has closed, so a forced unlink can only ever remove garbage."""
        self.close()
        if not (self.created or force):
            return
        _unregister_created(self.shm.name)
        original_unregister = None
        if not self.created and resource_tracker is not None:
            # Forced reap from the *attached* side: this process never
            # registered the segment, so it must not unregister either —
            # under fork it shares the creator's tracker, and yanking
            # the creator's registration (or dying between the file
            # unlink and the tracker write) is what desyncs the tracker.
            original_unregister = resource_tracker.unregister
            resource_tracker.unregister = lambda *args, **kwargs: None
        try:
            self.shm.unlink()
        except (OSError, FileNotFoundError):
            # The peer reaped the file first. CPython's SharedMemory
            # raises *before* dropping its tracker registration, which
            # would warn about a "leaked" segment at interpreter exit —
            # drop ours explicitly.
            if self.created and resource_tracker is not None:
                try:
                    resource_tracker.unregister(
                        "/" + self.shm.name, "shared_memory")
                except Exception:
                    pass
        finally:
            if original_unregister is not None:
                resource_tracker.unregister = original_unregister


def create_ring(capacity):
    """Create a new ring segment (engine side owns the lifecycle)."""
    if shared_memory is None:
        raise ShmError("multiprocessing.shared_memory is unavailable")
    if capacity < 1:
        raise ShmError("ring capacity must be >= 1 byte")
    segment = shared_memory.SharedMemory(create=True,
                                         size=DATA_OFFSET + capacity)
    _RING_HEADER.pack_into(segment.buf, 0, RING_MAGIC, RING_VERSION, 0,
                           capacity)
    _CURSOR.pack_into(segment.buf, _HEAD_OFFSET, 0)
    _CURSOR.pack_into(segment.buf, _TAIL_OFFSET, 0)
    _register_created(segment)
    return ShmRing(segment, capacity, created=True)


def attach_ring(name):
    """Attach to an existing ring by segment name (worker side)."""
    if shared_memory is None:
        raise ShmError("multiprocessing.shared_memory is unavailable")
    # Python < 3.13 registers mere attachments with the resource
    # tracker, which would unlink the ring when this process exits —
    # destroying the engine's segment. Suppressing the registration is
    # cleaner than registering-then-unregistering: under fork the
    # worker shares the engine's tracker process, where an unregister
    # would delete the *engine's* registration out from under it.
    original_register = None
    if resource_tracker is not None:
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
    try:
        segment = shared_memory.SharedMemory(name=name)
    except (OSError, FileNotFoundError) as exc:
        raise ShmError("cannot attach ring %r: %s" % (name, exc))
    finally:
        if original_register is not None:
            resource_tracker.register = original_register
    magic, version, __, capacity = _RING_HEADER.unpack_from(segment.buf, 0)
    if magic != RING_MAGIC:
        segment.close()
        raise ShmError("segment %r is not a runtime ring" % name)
    if version != RING_VERSION:
        segment.close()
        raise ShmError("ring version %d, this endpoint speaks %d"
                       % (version, RING_VERSION))
    if DATA_OFFSET + capacity > segment.size:
        segment.close()
        raise ShmError("ring header claims %d bytes but segment holds %d"
                       % (capacity, segment.size))
    return ShmRing(segment, capacity, created=False)
