"""Trajectory-cache persistence (§6).

"We have only just begun exploring reusing the trajectory cache across
different invocations of the same program as well as slightly modified
versions of the program." This module makes cache entries durable: a
compact binary format (no pickling — entries are untrusted data, and the
format is a straightforward struct-of-arrays) written after one run
and preloaded into the next. Headers, framing and atomic writes are
:mod:`repro.durable`'s; this module is only the shard/entry codec.

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

import struct
import zlib

import numpy as np

from repro import durable
from repro.core.trajectory_cache import CacheEntry, TrajectoryCache
from repro.errors import EngineError

_MAGIC = b"ASCC"
_VERSION = 2
_HEADER = struct.Struct("<4sHI")
_ENTRY = struct.Struct("<IQIBII")
_CRC = durable.SECTION_CRC


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
    out = bytearray(_HEADER.pack(_MAGIC, _VERSION, len(entries)))
    for entry in entries:
        blob = encode_entry(entry)
        out += blob
        out += _CRC.pack(zlib.crc32(blob))
    return bytes(out)


def deserialize_cache(data, capacity_bytes=None):
    """Rebuild a :class:`TrajectoryCache` from :func:`serialize_cache`
    output. All entries load with ``ready_time=0`` (they exist before
    the new run starts). Entries failing their CRC are quarantined:
    skipped and counted in ``cache.n_quarantined`` rather than failing
    the whole preload."""
    (count,) = durable.read_header(data, _HEADER, _MAGIC, _VERSION,
                                   "trajectory-cache blob")
    if count * (_ENTRY.size + _CRC.size) > len(data) - _HEADER.size:
        raise EngineError("cache blob declares %d entries but is only "
                          "%d bytes" % (count, len(data)))
    cache = TrajectoryCache(capacity_bytes=capacity_bytes)
    pos = _HEADER.size
    # Every entry must leave room for its own CRC trailer.
    limit = len(data) - _CRC.size
    for __ in range(count):
        start = pos
        entry, pos = decode_entry(data, start, limit)
        (crc,) = _CRC.unpack_from(data, pos)
        rotted = zlib.crc32(data[start:pos]) != crc
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


def load_cache(path, capacity_bytes=None):
    """Load a cache written as one :func:`serialize_cache` blob."""
    with open(path, "rb") as handle:
        return deserialize_cache(handle.read(),
                                 capacity_bytes=capacity_bytes)
