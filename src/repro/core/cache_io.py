"""Trajectory-cache persistence (§6).

"We have only just begun exploring reusing the trajectory cache across
different invocations of the same program as well as slightly modified
versions of the program." This module makes cache entries durable: a
compact binary format (no pickling — entries are untrusted data, and the
format is a straightforward struct-of-arrays) plus helpers to save a
cache after one run and preload it into the next.

A preloaded entry is sound under the same guarantee as a live one: it is
an exact fact about the transition function, so it either matches a
future state on its dependency bytes (and fast-forwards correctly) or
sits idle. Against a *different* input or program version, entries whose
dependencies changed simply never match. That guarantee makes integrity
checking non-negotiable: a *bit-rotted* entry that still parsed would be
applied as a trusted fact and corrupt the resumed computation. Format
version 2 therefore carries a CRC32 per entry; on load, an entry whose
checksum fails is **quarantined** — skipped and counted
(``cache.n_quarantined``) — while structural damage that destroys the
framing (truncation, trailing garbage, a header whose declared array
lengths point past the end of the blob) still rejects the whole blob
with :class:`~repro.errors.EngineError`, because nothing after it can
be trusted.
"""

import os
import struct
import zlib

import numpy as np

from repro.core.trajectory_cache import CacheEntry, TrajectoryCache
from repro.errors import EngineError

_MAGIC = b"ASCC"
_VERSION = 2
#: Version 1 blobs (no per-entry CRC) are still readable.
_VERSION_NO_CRC = 1

_HEADER = struct.Struct("<4sHI")
_ENTRY = struct.Struct("<IQIBII")
_CRC = struct.Struct("<I")

#: Shared section framing: ``[4B tag | u64 length | payload | u32 CRC]``.
#: Checkpoints (:mod:`repro.core.checkpoint`) and the serve job journal
#: (:mod:`repro.serve.journal`) both persist through this one frame
#: shape, so every durable artifact in the repo rejects torn or
#: bit-rotted payloads the same way.
SECTION_HEADER = struct.Struct("<4sQ")
SECTION_CRC = _CRC


def encode_section(tag, payload):
    """One CRC'd section frame: tag + length + payload + CRC32."""
    if len(tag) != 4:
        raise EngineError("section tag must be exactly 4 bytes")
    return (SECTION_HEADER.pack(tag, len(payload)) + payload
            + SECTION_CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF))


def decode_section(data, pos=0, max_payload=None):
    """Decode one section at ``pos``; returns ``(tag, payload, end)``.

    Raises :class:`~repro.errors.EngineError` on any structural damage:
    a truncated header or payload, a declared length past the end of
    the buffer (or past ``max_payload``), or a CRC mismatch. Callers
    that append sections to a log treat the error position as the torn
    tail — everything before ``pos`` stays trustworthy.
    """
    if pos + SECTION_HEADER.size > len(data):
        raise EngineError("truncated section header")
    tag, length = SECTION_HEADER.unpack_from(data, pos)
    if max_payload is not None and length > max_payload:
        raise EngineError("section %r declares %d bytes (cap %d)"
                          % (tag, length, max_payload))
    pos += SECTION_HEADER.size
    if length > len(data) - pos - SECTION_CRC.size:
        raise EngineError("truncated section payload")
    payload = bytes(data[pos:pos + length])
    pos += length
    (crc,) = SECTION_CRC.unpack_from(data, pos)
    pos += SECTION_CRC.size
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise EngineError("section %r failed its CRC"
                          % tag.decode("ascii", "replace"))
    return tag, payload, pos


def encode_entry(entry):
    """One cache entry as bytes: the ``<IQIBII`` header plus its four
    raw arrays. The one entry codec — cache shards and the runtime's
    worker results (:mod:`repro.runtime.pool`) both carry this form."""
    return b"".join((
        _ENTRY.pack(entry.rip, entry.length, entry.occurrences,
                    1 if entry.halted else 0,
                    len(entry.start_indices), len(entry.end_indices)),
        np.asarray(entry.start_indices, dtype="<i8").tobytes(),
        np.asarray(entry.start_values, dtype=np.uint8).tobytes(),
        np.asarray(entry.end_indices, dtype="<i8").tobytes(),
        np.asarray(entry.end_values, dtype=np.uint8).tobytes()))


def decode_entry(data, pos=0, limit=None):
    """Inverse of :func:`encode_entry`; returns ``(entry, next_pos)``.

    The entry must end at or before ``limit`` (default: the end of
    ``data``): declared array lengths are checked against what actually
    remains, so a corrupt header cannot walk the cursor past the end
    (or into a giant allocation) and silently mis-parse what follows.
    """
    if limit is None:
        limit = len(data)
    if pos + _ENTRY.size > limit:
        raise EngineError("truncated entry header")
    rip, length, occurrences, halted, n_start, n_end = \
        _ENTRY.unpack_from(data, pos)
    pos += _ENTRY.size
    if 9 * n_start + 9 * n_end > limit - pos:
        raise EngineError("truncated entry arrays")
    start_indices = np.frombuffer(data, dtype="<i8", count=n_start,
                                  offset=pos).astype(np.int64)
    pos += 8 * n_start
    start_values = np.frombuffer(data, dtype=np.uint8, count=n_start,
                                 offset=pos).copy()
    pos += n_start
    end_indices = np.frombuffer(data, dtype="<i8", count=n_end,
                                offset=pos).astype(np.int64)
    pos += 8 * n_end
    end_values = np.frombuffer(data, dtype=np.uint8, count=n_end,
                               offset=pos).copy()
    pos += n_end
    entry = CacheEntry(rip, start_indices, start_values, end_indices,
                       end_values, length, occurrences=occurrences,
                       ready_time=0.0, halted=bool(halted))
    return entry, pos


def serialize_cache(cache):
    """Encode every entry of a :class:`TrajectoryCache` as bytes."""
    entries = list(cache.entries())
    out = bytearray()
    out += _HEADER.pack(_MAGIC, _VERSION, len(entries))
    for entry in entries:
        blob = encode_entry(entry)
        out += blob
        out += _CRC.pack(zlib.crc32(blob) & 0xFFFFFFFF)
    return bytes(out)


def deserialize_cache(data, capacity_bytes=None):
    """Rebuild a :class:`TrajectoryCache` from :func:`serialize_cache`
    output. All entries load with ``ready_time=0`` (they exist before
    the new run starts). Entries failing their CRC are quarantined:
    skipped and counted in ``cache.n_quarantined`` rather than failing
    the whole preload."""
    if len(data) < _HEADER.size:
        raise EngineError("cache blob too short for header")
    magic, version, count = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise EngineError("not a trajectory-cache blob (bad magic)")
    if version not in (_VERSION, _VERSION_NO_CRC):
        raise EngineError("unsupported cache format version %d" % version)
    has_crc = version == _VERSION
    per_entry_overhead = _ENTRY.size + (_CRC.size if has_crc else 0)
    if count * per_entry_overhead > len(data) - _HEADER.size:
        raise EngineError("cache blob declares %d entries but is only "
                          "%d bytes" % (count, len(data)))
    cache = TrajectoryCache(capacity_bytes=capacity_bytes)
    pos = _HEADER.size
    # Every entry must leave room for its own CRC trailer.
    limit = len(data) - (_CRC.size if has_crc else 0)
    for __ in range(count):
        start = pos
        entry, pos = decode_entry(data, start, limit)
        if has_crc:
            (crc,) = _CRC.unpack_from(data, pos)
            rotted = zlib.crc32(data[start:pos]) & 0xFFFFFFFF != crc
            pos += _CRC.size
            if rotted:
                # Bit rot inside one entry: the framing survives, so
                # quarantine just this entry and keep loading.
                cache.n_quarantined += 1
                continue
        cache.insert(entry)
    if pos != len(data):
        raise EngineError("trailing bytes in cache blob")
    return cache


def write_atomic(path, blob, fsync=False):
    """Write ``blob`` to ``path`` via temp file + rename.

    A reader never sees a torn file: it finds either the old content or
    the new, because the rename is the only visible step. On *any*
    failure — including ``ENOSPC`` partway through the write — the temp
    file is removed before the exception propagates, so a disk-full
    event cannot leave ``.tmp`` litter for a restart (or a directory
    scan) to trip over, and the partial bytes stop holding space on an
    already-starved filesystem.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_cache(cache, path):
    """Persist a cache to ``path``."""
    with open(path, "wb") as handle:
        handle.write(serialize_cache(cache))


def load_cache(path, capacity_bytes=None):
    """Load a cache previously written by :func:`save_cache`."""
    with open(path, "rb") as handle:
        return deserialize_cache(handle.read(),
                                 capacity_bytes=capacity_bytes)
