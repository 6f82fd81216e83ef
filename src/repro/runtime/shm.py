"""Shared-memory ring buffers for the multiprocess runtime.

An inline blob moves a start state or a result write set through the
kernel twice (sender copy-in, receiver copy-out). This module provides
the transport's bulk lane instead: one single-producer/single-consumer
ring per worker per direction, backed by an anonymous shared mapping
(``mmap.mmap(-1, size)``, which is ``MAP_SHARED``). Payload blobs are
written once into the ring; the pipes carry only small control frames
naming each blob by ``(seq, length, CRC32)``
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
  so no lock is needed: every cursor access is one aligned 8-byte load
  or store (a ``"Q"`` memoryview item; ``struct`` zeroes and writes a
  field byte by byte, so a peer could read it torn), and the control
  message that makes a blob *visible* travels through a pipe (a
  syscall on both ends), which orders the shared-memory writes before
  the consumer ever looks.
* The consumer copies a blob out and then releases through
  ``seq + length``. Skipping a blob (a dropped control frame) is safe:
  the next release is cumulative, so the skipped region is reclaimed
  the moment any later blob is consumed.
* Every blob's CRC travels in the control frame; a checksum mismatch
  on read means the ring desynchronized or was corrupted, and the
  reader treats the peer exactly like a crashed worker.

Ownership — a ring has no name, so nothing outside the processes that
map it can hold it. The pool creates a worker's two rings just before
it forks the worker, which inherits them as its ``Process`` arguments;
the kernel frees a ring when the last process mapping it unmaps it or
exits. A SIGKILL at any moment — of the engine, the worker, or both —
therefore leaves nothing to reap. A fork copies *every* mapping, so a
worker's first act is to close each ring it inherited except its own
two (:func:`close_rings`); otherwise a worker forked later would keep
a sibling's or a retired pool's rings alive. Rings reach workers only
through fork: where the start method is ``spawn``, every worker is
ringless.
"""

import itertools
import mmap
import os
import struct
import threading

from repro.errors import ReproError
from repro.runtime.config import default_start_method

RING_MAGIC = b"ASCR"
RING_VERSION = 1

#: Fixed header: magic, version, reserved, capacity. Cursors live at
#: their own 8-byte-aligned offsets, padded apart so the producer's
#: head store and the consumer's tail store never share a cache line.
_RING_HEADER = struct.Struct("<4sHHQ")
_HEAD_OFFSET = 16
_TAIL_OFFSET = 32
DATA_OFFSET = 64


class ShmError(ReproError):
    """A shared-memory ring was unavailable, invalid, or desynced."""


def shm_available():
    """Whether workers here can have rings: they are inherited at
    fork, so wherever fork is the start method."""
    return default_start_method() == "fork"


# -- registry ----------------------------------------------------------------

#: Rings this process holds (created, or inherited at fork) and has not
#: closed, by label. Reads and removals are one dict operation each,
#: which the GIL makes atomic, so a forked worker walks the copy it
#: inherited without taking a lock.
_live = {}
_labels = itertools.count(1)

#: Held across every fork, so a ring is either mapped and in the
#: registry a child copies, or not mapped yet: a worker forked while
#: another thread creates a ring can still close every ring but its own.
_forking = threading.Lock()
if hasattr(os, "register_at_fork"):  # absent where fork is too
    os.register_at_fork(before=_forking.acquire,
                        after_in_parent=_forking.release,
                        after_in_child=_forking.release)


def live_segment_names():
    """Labels of the rings this process created and has not closed
    (the hygiene tests assert this is empty after shutdown)."""
    return sorted(_live.copy())


def close_rings(keep=()):
    """Close every ring this process holds except those in ``keep``.

    A worker calls it first thing after the fork with its own two
    rings, so the rest of what the fork copied is unmapped at once."""
    for ring in _live.copy().values():
        if ring not in keep:
            ring.close()


# -- the ring ----------------------------------------------------------------

class ShmRing:
    """One SPSC byte ring inside an anonymous shared mapping.

    :func:`create_ring` makes one; the pool's forked worker inherits
    it. Both ends then call the producer half (:meth:`try_push`,
    :meth:`free_bytes`) or the consumer half (:meth:`read`,
    :meth:`release`) as their role dictates. Every access goes through
    the ``mmap`` itself or a view made for that one access — no
    long-lived ``memoryview`` — so :meth:`close` never meets an
    exported buffer.
    """

    __slots__ = ("name", "map", "capacity", "_head", "_tail")

    def __init__(self, name, mapping, capacity):
        self.name = name
        self.map = mapping
        self.capacity = capacity
        self._head = self._load(_HEAD_OFFSET)
        self._tail = self._load(_TAIL_OFFSET)

    # -- cursors -------------------------------------------------------------

    def _cursor(self, offset):
        """The cursor at ``offset`` as a one-item native ``"Q"`` view,
        whose item is read and written as one aligned 8-byte access
        (both ends share one machine, so native order is theirs). The
        view dies with the statement that uses it."""
        return memoryview(self.map)[offset:offset + 8].cast("Q")

    def _load(self, offset):
        return self._cursor(offset)[0]

    def _store(self, offset, value):
        self._cursor(offset)[0] = value

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
        if self.map.closed:
            raise ShmError("push on a closed ring")
        length = len(blob)
        if length == 0 or length > self.capacity:
            return None
        if length > self.free_bytes():
            return None
        seq = self._head
        pos = seq % self.capacity
        first = min(length, self.capacity - pos)
        ring = self.map
        ring[DATA_OFFSET + pos:DATA_OFFSET + pos + first] = blob[:first]
        if first < length:  # wrap through the end of the data region
            ring[DATA_OFFSET:DATA_OFFSET + length - first] = blob[first:]
        self._head = seq + length
        self._store(_HEAD_OFFSET, self._head)
        return seq

    # -- consumer ------------------------------------------------------------

    def read(self, seq, length):
        """Copy one blob out of the ring. The caller then validates the
        CRC from the control frame and calls :meth:`release`."""
        if self.map.closed:
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
        ring = self.map
        out = ring[DATA_OFFSET + pos:DATA_OFFSET + pos + first]
        if first < length:
            out += ring[DATA_OFFSET:DATA_OFFSET + length - first]
        return out

    def release(self, upto_seq):
        """Free every byte before ``upto_seq`` (cumulative; skipping a
        dropped blob is fine — the next release reclaims it)."""
        if upto_seq > self._tail:
            self._tail = upto_seq
            self._store(_TAIL_OFFSET, self._tail)

    # -- lifecycle -----------------------------------------------------------

    def check(self):
        """The worker's check on a ring it inherited: the header must
        name a runtime ring of this version whose capacity fits the
        mapping."""
        magic, version, __, capacity = _RING_HEADER.unpack_from(self.map, 0)
        if magic != RING_MAGIC:
            raise ShmError("%s is not a runtime ring" % self.name)
        if version != RING_VERSION:
            raise ShmError("ring version %d, this endpoint speaks %d"
                           % (version, RING_VERSION))
        if capacity != self.capacity or DATA_OFFSET + capacity > len(self.map):
            raise ShmError("ring header claims %d bytes but the mapping "
                           "holds %d" % (capacity, len(self.map)))

    def close(self):
        """Unmap this process's view (either end). The kernel frees the
        ring once no process maps it. Idempotent."""
        _live.pop(self.name, None)
        self.map.close()


def create_ring(capacity):
    """Create a new ring (the pool's side; its worker inherits it at
    fork)."""
    if not shm_available():
        raise ShmError("rings reach workers only through fork, and the "
                       "start method here is %s" % default_start_method())
    if capacity < 1:
        raise ShmError("ring capacity must be >= 1 byte")
    with _forking:
        mapping = mmap.mmap(-1, DATA_OFFSET + capacity)
        ring = ShmRing("ring-%d" % next(_labels), mapping, capacity)
        _live[ring.name] = ring
    _RING_HEADER.pack_into(mapping, 0, RING_MAGIC, RING_VERSION, 0, capacity)
    return ring
