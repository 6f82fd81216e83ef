"""Records at rest: one framing, one atomic write, one disk-full ladder.

Cache shards, checkpoints and the job journal outlive their writer, and
a cache entry read back is applied as a trusted fact (PAPER.md §6), so
all are framed, checked and written here, once. Transports (wire, shm
rings, serve protocol) ship both ends together: no format at rest.
"""

import contextlib
import errno
import os
import struct
import threading
import zlib

from repro.errors import EngineError

#: The section frame ``[4B tag | u64 length | payload | u32 CRC32]``.
SECTION_HEADER = struct.Struct("<4sQ")
SECTION_CRC = struct.Struct("<I")


def read_header(data, header, magic, version, what):
    """The fields of ``header`` (a ``<4sH...`` struct) after a magic and
    version that must match; ``what`` names the format in errors."""
    if len(data) < header.size:
        raise EngineError("%s too short for header" % what)
    found, found_version, *fields = header.unpack_from(data, 0)
    if found != magic:
        raise EngineError("not a %s (bad magic)" % what)
    if found_version != version:
        raise EngineError("unsupported %s version %d"
                          % (what, found_version))
    return fields


def encode_section(tag, payload):
    """One CRC'd section frame: tag + length + payload + CRC32."""
    if len(tag) != 4:
        raise EngineError("section tag must be exactly 4 bytes")
    return (SECTION_HEADER.pack(tag, len(payload)) + payload
            + SECTION_CRC.pack(zlib.crc32(payload)))


def decode_section(data, pos=0, max_payload=None):
    """``(tag, payload, end)`` of the section at ``pos``; damage (short,
    too long for the buffer or ``max_payload``, bad CRC) raises."""
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
    if zlib.crc32(payload) != crc:
        raise EngineError("section %r failed its CRC"
                          % tag.decode("ascii", "replace"))
    return tag, payload, pos + SECTION_CRC.size


def write_atomic(path, blob, fsync=False):
    """Temp file + rename: readers see the old file or the new one, and
    a failed write (``ENOSPC`` included) removes its temp file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def is_enospc(exc):
    """Whether an error means "out of space" (ENOSPC or EDQUOT)."""
    return isinstance(exc, OSError) and exc.errno in (
        errno.ENOSPC, getattr(errno, "EDQUOT", errno.ENOSPC))


def oldest_first(directory, suffixes):
    """``(path, size)`` of the files in ``directory`` ending with one of
    ``suffixes``, oldest mtime first (ties by name); unreadable: none."""
    names, found = [], []
    with contextlib.suppress(OSError):
        names = os.listdir(directory)
    for name in names:
        if name.endswith(suffixes):
            path = os.path.join(directory, name)
            with contextlib.suppress(OSError):
                stat = os.stat(path)
                found.append((stat.st_mtime, path, stat.st_size))
    found.sort()
    return [(path, size) for __, path, size in found]


def remove_oldest(files, needed):
    """Unlink ``files`` in order until ``needed`` bytes are freed."""
    removed, freed = [], 0
    for path, size in files:
        if freed >= needed:
            break
        with contextlib.suppress(OSError):
            os.unlink(path)
            removed.append(path)
            freed += size
    return removed


class DiskPressure:
    """The disk-full ladder: :meth:`write` runs ``write()``; on ENOSPC
    ``rewind()``, then ``make_room()`` (files removed, 0: no retry), one
    retry; returns whether it landed. Other errors propagate. After
    ``inject(n)`` the next n writes raise ENOSPC untried (chaos seam)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._injected = 0
        self.enospc_events = 0

    def inject(self, n=1):
        with self._lock:
            self._injected += int(n)

    def write(self, write, make_room, rewind=lambda: None):
        for attempt in (0, 1):
            try:
                with self._lock:
                    injected = self._injected > 0
                    self._injected -= injected
                if injected:
                    raise OSError(errno.ENOSPC, "injected disk-full")
                write()
                return True
            except OSError as exc:
                if not is_enospc(exc):
                    raise
                with self._lock:
                    self.enospc_events += 1
                rewind()
                if attempt or not make_room():
                    return False
