"""Wire format for the multiprocess speculation runtime.

Every message between the engine and a worker is one framed byte string
(the framing itself — a length prefix — is provided by
``multiprocessing.Connection.send_bytes``). A message is::

    [ 4B magic "ASCP" | u16 version | u8 type | u32 CRC32(payload) | payload ]

The payload CRC makes corruption detection *sound*: a cache entry is
applied to the main state as a trusted fact, so a bit-flipped frame
that still parsed structurally would silently poison the final state.
With the checksum, any damage — flipped byte, truncation, garbage —
is rejected at :func:`decode_message` and the sender is treated as a
crashed worker. Endpoints additionally bound the frame size they will
read (``RuntimeConfig.max_frame_bytes``) so one corrupt length field
in the pipe's own framing cannot force a gigabyte allocation.

There is one protocol and three message types: :data:`MSG_TASK_SHM` (a
speculation assignment), :data:`MSG_RESULT_SHM` (its outcome:
instruction count, halt flag, optional fault string, optional cache
entry) and :data:`MSG_SHUTDOWN`. A task's start state and a result's
entry travel as a *blob* named by a ``(location, seq, length, CRC32)``
reference: :data:`BLOB_SHM` blobs live in the sender's
:mod:`repro.runtime.shm` ring, so the frame itself stays tiny;
:data:`BLOB_INLINE` blobs are appended to the frame — what a ring that
is full, too small, or absent (a *ringless* worker, whose rings could
not be allocated) degrades to. The codec and every check are identical
either way. Type bytes 1 and 2 belonged to a retired inline-only
message pair and are rejected as unknown.

The delta codec (:func:`encode_state_delta` / :func:`decode_state_delta`)
is how the engine avoids shipping a full machine state per task — the
paper broadcasts delta-compressed states to query its distributed
cache for the same reason. Each worker's last reconstructed state is
the implicit dictionary: a task ships only the bytes that differ from
it (sparse index/value pairs), falling back to a full snapshot when
the delta would not pay, on first contact, and after a respawn. A
monotonically increasing *epoch* names each base state; a worker that
receives a sparse delta against an epoch it does not hold answers
:data:`RESULT_STALE` instead of guessing, and the engine re-dispatches
against a fresh full snapshot.

Design rules: fixed-width little-endian structs plus raw numpy array
bytes — nothing on the wire is ever unpickled, so a compromised or
corrupted worker can at worst produce a cache entry that never matches
(entries are verified facts only if the worker ran honestly; within one
machine that is our trust boundary, the same one ``multiprocessing``
itself assumes). A version bump in either endpoint makes the other
reject the stream loudly instead of misinterpreting it. Entry blobs
are :func:`repro.core.cache_io.encode_entry` bytes — the same codec
the cache shards use.
"""

import struct
import zlib

import numpy as np

from repro.errors import ReproError

WIRE_MAGIC = b"ASCP"
WIRE_VERSION = 5

#: Default ceiling on a single frame; RuntimeConfig can override.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

MSG_SHUTDOWN = 3
MSG_TASK_SHM = 4
MSG_RESULT_SHM = 5

_MSG_TYPES = frozenset((MSG_SHUTDOWN, MSG_TASK_SHM, MSG_RESULT_SHM))

#: Task flags (bitmask).
FLAG_AUDIT = 1  # replay exactly ``max_instructions`` steps, reference tier

#: Result status codes (worker-side view of one speculation).
RESULT_OK = 0  # a usable cache entry is attached
RESULT_FAULT = 1  # the predicted state faulted (no entry)
RESULT_BUDGET = 2  # wandering budget exhausted mid-superstep (no entry)
RESULT_EMPTY = 3  # zero instructions executed (e.g. already halted)
RESULT_STALE = 4  # epoch mismatch: delta base unknown, task not executed

#: Where a frame's payload blob lives.
BLOB_SHM = 0  # in the sender's ring, at (seq, length)
BLOB_INLINE = 1  # appended to the frame (no ring, or it could not fit)

#: State-delta blob kinds (first byte of every state blob).
DELTA_FULL = 0  # raw full state vector follows
DELTA_SPARSE = 1  # sparse (index, value) pairs against the base state

_HEADER = struct.Struct("<4sHBI")  # magic, version, type, payload CRC32
_DELTA = struct.Struct("<BI")  # kind, count (sparse) / length (full)
_BLOBREF = struct.Struct("<BQII")  # location, seq, length, CRC32
_TASK_SHM = struct.Struct("<QIIQBII")  # task_id, rip, occurrences,
#                                         budget, flags, base_epoch, epoch
_RESULT_SHM = struct.Struct("<QBQBBH")  # task_id, status, instructions,
#                                          halted, has_entry, fault_len


class WireError(ReproError):
    """A runtime message could not be decoded."""


class TaskRefMessage:
    """Decoded :data:`MSG_TASK_SHM` payload: a task whose start-state
    blob lives in the task ring, or inline. ``blob`` is the inline
    bytes or ``None``."""

    __slots__ = ("task_id", "rip", "occurrences", "max_instructions",
                 "flags", "base_epoch", "epoch", "location", "seq",
                 "blob_len", "blob_crc", "blob")

    def __init__(self, task_id, rip, occurrences, max_instructions, flags,
                 base_epoch, epoch, location, seq, blob_len, blob_crc,
                 blob=None):
        self.task_id = task_id
        self.rip = rip
        self.occurrences = occurrences
        self.max_instructions = max_instructions
        self.flags = flags
        self.base_epoch = base_epoch  # epoch the delta was encoded against
        self.epoch = epoch  # epoch the reconstructed state will carry
        self.location = location  # BLOB_SHM or BLOB_INLINE
        self.seq = seq
        self.blob_len = blob_len
        self.blob_crc = blob_crc
        self.blob = blob


class ResultRefMessage:
    """Decoded :data:`MSG_RESULT_SHM` payload; the entry blob (if any)
    lives in the result ring or inline."""

    __slots__ = ("task_id", "status", "instructions", "halted", "fault",
                 "has_entry", "location", "seq", "blob_len", "blob_crc",
                 "blob")

    def __init__(self, task_id, status, instructions, halted, fault,
                 has_entry, location, seq, blob_len, blob_crc, blob=None):
        self.task_id = task_id
        self.status = status
        self.instructions = instructions
        self.halted = halted
        self.fault = fault
        self.has_entry = has_entry
        self.location = location
        self.seq = seq
        self.blob_len = blob_len
        self.blob_crc = blob_crc
        self.blob = blob


# -- state delta codec -------------------------------------------------------

def encode_state_delta(state, base=None):
    """Encode ``state`` against ``base`` (the receiver's last-seen
    state). Returns the blob; its first byte is :data:`DELTA_FULL` or
    :data:`DELTA_SPARSE`. Falls back to a full snapshot when there is
    no usable base or the sparse form would not be smaller."""
    state = bytes(state)
    if base is not None and len(base) == len(state):
        new = np.frombuffer(state, dtype=np.uint8)
        old = np.frombuffer(base, dtype=np.uint8)
        changed = np.nonzero(new != old)[0]
        # 5 bytes per changed byte (u32 index + u8 value); only ship
        # sparse when it beats the raw state.
        if 5 * len(changed) < len(state):
            return (_DELTA.pack(DELTA_SPARSE, len(changed))
                    + changed.astype("<u4").tobytes()
                    + new[changed].tobytes())
    return _DELTA.pack(DELTA_FULL, len(state)) + state


def decode_state_delta(blob, base=None, expected_len=None):
    """Inverse of :func:`encode_state_delta`: reconstruct the full
    state. Sparse blobs require ``base``; a missing or wrong-length
    base is the *caller's* epoch bookkeeping failing, reported as
    :class:`WireError` so the transport treats it as corruption."""
    if len(blob) < _DELTA.size:
        raise WireError("truncated state-delta header")
    kind, count = _DELTA.unpack_from(blob, 0)
    pos = _DELTA.size
    if kind == DELTA_FULL:
        if pos + count != len(blob):
            raise WireError("full-state delta length mismatch")
        if expected_len is not None and count != expected_len:
            raise WireError("full state is %d bytes, expected %d"
                            % (count, expected_len))
        return blob[pos:]
    if kind != DELTA_SPARSE:
        raise WireError("unknown state-delta kind %d" % kind)
    if base is None:
        raise WireError("sparse state delta without a base state")
    if expected_len is not None and len(base) != expected_len:
        raise WireError("delta base is %d bytes, expected %d"
                        % (len(base), expected_len))
    if pos + 5 * count != len(blob):
        raise WireError("truncated sparse state delta")
    indices = np.frombuffer(blob, dtype="<u4", count=count, offset=pos)
    pos += 4 * count
    values = np.frombuffer(blob, dtype=np.uint8, count=count, offset=pos)
    state = np.frombuffer(base, dtype=np.uint8).copy()
    if count:
        if int(indices.max()) >= len(state):
            raise WireError("sparse delta index beyond state vector")
        state[indices] = values
    return state.tobytes()


# -- messages ----------------------------------------------------------------

def _frame(msg_type, payload):
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(WIRE_MAGIC, WIRE_VERSION, msg_type, crc) + payload


def decode_message(data, max_frame_bytes=None):
    """Validate header and payload checksum; return
    ``(msg_type, payload_offset)``."""
    if max_frame_bytes is not None and len(data) > max_frame_bytes:
        raise WireError("frame of %d bytes exceeds the %d-byte limit"
                        % (len(data), max_frame_bytes))
    if len(data) < _HEADER.size:
        raise WireError("message too short for header")
    magic, version, msg_type, crc = _HEADER.unpack_from(data, 0)
    if magic != WIRE_MAGIC:
        raise WireError("bad magic %r (not a runtime message)" % (magic,))
    if version != WIRE_VERSION:
        raise WireError("wire version %d, this endpoint speaks %d"
                        % (version, WIRE_VERSION))
    if msg_type not in _MSG_TYPES:
        raise WireError("unknown message type %d" % msg_type)
    if zlib.crc32(data[_HEADER.size:]) & 0xFFFFFFFF != crc:
        raise WireError("frame payload failed its checksum")
    return msg_type, _HEADER.size


def result_status(result):
    """Map a :class:`~repro.core.speculation.SpeculationResult` to its
    wire status code."""
    if result.fault is not None:
        return RESULT_FAULT
    if result.entry is not None:
        return RESULT_OK
    if result.instructions == 0:
        return RESULT_EMPTY
    return RESULT_BUDGET


def encode_shutdown():
    return _frame(MSG_SHUTDOWN, b"")


# -- task and result messages ------------------------------------------------

def _blobref(blob, seq):
    """Pack one blob reference; ``seq is None`` means inline."""
    crc = zlib.crc32(blob) & 0xFFFFFFFF if blob is not None else 0
    length = len(blob) if blob is not None else 0
    if seq is None:
        return _BLOBREF.pack(BLOB_INLINE, 0, length, crc), blob or b""
    return _BLOBREF.pack(BLOB_SHM, seq, length, crc), b""


def encode_task_shm(task_id, rip, occurrences, max_instructions, flags,
                    base_epoch, epoch, blob, seq=None):
    """Frame for one task. ``blob`` is the state-delta blob
    (:func:`encode_state_delta`); ``seq`` its ring sequence, or
    ``None`` to carry it inline."""
    ref, inline = _blobref(blob, seq)
    payload = _TASK_SHM.pack(task_id, rip, occurrences, max_instructions,
                             flags, base_epoch, epoch) + ref + inline
    return _frame(MSG_TASK_SHM, payload)


def decode_task_shm(data, pos):
    if pos + _TASK_SHM.size + _BLOBREF.size > len(data):
        raise WireError("truncated shm task header")
    task_id, rip, occurrences, budget, flags, base_epoch, epoch = \
        _TASK_SHM.unpack_from(data, pos)
    pos += _TASK_SHM.size
    location, seq, blob_len, blob_crc = _BLOBREF.unpack_from(data, pos)
    pos += _BLOBREF.size
    if location not in (BLOB_SHM, BLOB_INLINE):
        raise WireError("unknown blob location %d" % location)
    blob = None
    if location == BLOB_INLINE:
        if pos + blob_len != len(data):
            raise WireError("inline task blob length mismatch")
        blob = bytes(data[pos:pos + blob_len])
        pos += blob_len
    if pos != len(data):
        raise WireError("trailing bytes in shm task message")
    return TaskRefMessage(task_id, rip, occurrences, budget, flags,
                          base_epoch, epoch, location, seq, blob_len,
                          blob_crc, blob=blob)


def encode_result_shm(task_id, status, instructions, halted, fault,
                      blob=None, seq=None):
    """Frame for one result. ``blob`` is the serialized entry
    (:func:`repro.core.cache_io.encode_entry`) or ``None``; ``seq`` its
    ring sequence, or ``None`` to carry it inline."""
    fault_bytes = (fault or "").encode("utf-8")[:65535]
    ref, inline = _blobref(blob, seq)
    payload = (_RESULT_SHM.pack(task_id, status, instructions,
                                1 if halted else 0,
                                1 if blob is not None else 0,
                                len(fault_bytes))
               + fault_bytes + ref + inline)
    return _frame(MSG_RESULT_SHM, payload)


def decode_result_shm(data, pos):
    if pos + _RESULT_SHM.size > len(data):
        raise WireError("truncated shm result header")
    task_id, status, instructions, halted, has_entry, fault_len = \
        _RESULT_SHM.unpack_from(data, pos)
    pos += _RESULT_SHM.size
    if pos + fault_len + _BLOBREF.size > len(data):
        raise WireError("truncated shm result fault/ref")
    fault = data[pos:pos + fault_len].decode("utf-8") if fault_len else None
    pos += fault_len
    location, seq, blob_len, blob_crc = _BLOBREF.unpack_from(data, pos)
    pos += _BLOBREF.size
    if location not in (BLOB_SHM, BLOB_INLINE):
        raise WireError("unknown blob location %d" % location)
    if has_entry and blob_len == 0:
        raise WireError("shm result claims an entry but names no blob")
    blob = None
    if location == BLOB_INLINE and has_entry:
        if pos + blob_len != len(data):
            raise WireError("inline result blob length mismatch")
        blob = bytes(data[pos:pos + blob_len])
        pos += blob_len
    if pos != len(data):
        raise WireError("trailing bytes in shm result message")
    return ResultRefMessage(task_id, status, instructions, bool(halted),
                            fault, bool(has_entry), location, seq,
                            blob_len, blob_crc, blob=blob)


def check_blob(blob, crc):
    """Validate a blob (read out of a ring, or taken inline) against
    its frame's CRC; corruption or ring desync surfaces as
    :class:`WireError`."""
    if zlib.crc32(blob) & 0xFFFFFFFF != crc:
        raise WireError("blob failed its checksum")
    return blob
