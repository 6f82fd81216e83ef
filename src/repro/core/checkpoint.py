"""Durable checkpoint/restore for long runs.

A multi-hour ``repro scale`` run used to lose everything on a crash.
This module makes runs resumable: a checkpoint is an atomic snapshot of
the main thread's machine state, its cumulative instruction count, and
(optionally) the trajectory cache — everything needed to continue the
deterministic computation and keep the speculation tier warm. Because
the transition function is deterministic, a resumed run *must* reach
the same final state byte-for-byte as an uninterrupted one; the
checkpoint tests assert exactly that.

File format (``ckpt-<seq>.ascp``)::

    [4B magic "ASCK" | u16 version | u16 n_sections]
    n_sections x [4B tag | u64 length | payload | u32 CRC32(payload)]

Sections: ``META`` (JSON: program name, instruction count, sequence),
``STAT`` (raw machine state bytes), ``CACH`` (a
:mod:`repro.core.cache_io` blob, optional). Every section carries its
own CRC32 (the :mod:`repro.durable` frame) so a torn or bit-rotted file
is rejected loudly instead of resuming from garbage.

Durability discipline: :func:`repro.durable.write_atomic` with
``fsync`` (``<name>.tmp``, flush, ``fsync``, ``os.replace``), then fsync
the directory. A crash mid-write leaves only a ``.tmp`` file, which
readers ignore; a write that *fails* (a full disk) removes it. Either
way the previous checkpoint remains the latest valid one.
:func:`load_latest` walks newest-to-oldest past corrupt files.
"""

import json
import os
import struct

from repro import durable
from repro.core import cache_io
from repro.errors import EngineError

_MAGIC = b"ASCK"
_VERSION = 1

_HEADER = struct.Struct("<4sHH")

SECTION_META = b"META"
SECTION_STATE = b"STAT"
SECTION_CACHE = b"CACH"

_PREFIX = "ckpt-"
_SUFFIX = ".ascp"


class Checkpoint:
    """One loaded checkpoint."""

    def __init__(self, meta, state, cache_blob=None):
        self.meta = meta
        self.state = state  # bytes: the full machine state vector
        self.cache_blob = cache_blob

    @property
    def instruction_count(self):
        return int(self.meta.get("instruction_count", 0))

    @property
    def sequence(self):
        return int(self.meta.get("sequence", 0))

    @property
    def program_name(self):
        return self.meta.get("program")

    def load_cache(self, capacity_bytes=None):
        """Rebuild the snapshotted trajectory cache (or ``None``)."""
        if self.cache_blob is None:
            return None
        return cache_io.deserialize_cache(self.cache_blob,
                                          capacity_bytes=capacity_bytes)

    def __repr__(self):
        return ("Checkpoint(seq=%d, program=%r, instructions=%d, "
                "state=%dB, cache=%s)"
                % (self.sequence, self.program_name, self.instruction_count,
                   len(self.state),
                   "yes" if self.cache_blob is not None else "no"))


# -- encoding ----------------------------------------------------------------

def encode_checkpoint(state, instruction_count, cache=None, meta=None):
    """Serialize a checkpoint to bytes."""
    info = dict(meta or {})
    info["instruction_count"] = int(instruction_count)
    sections = [
        (SECTION_META, json.dumps(info, sort_keys=True).encode("utf-8")),
        (SECTION_STATE, bytes(state)),
    ]
    if cache is not None:
        sections.append((SECTION_CACHE, cache_io.serialize_cache(cache)))
    out = bytearray(_HEADER.pack(_MAGIC, _VERSION, len(sections)))
    for tag, payload in sections:
        out += durable.encode_section(tag, payload)
    return bytes(out)


def decode_checkpoint(data):
    """Inverse of :func:`encode_checkpoint`; raises :class:`EngineError`
    on any structural damage or CRC mismatch."""
    (n_sections,) = durable.read_header(data, _HEADER, _MAGIC, _VERSION,
                                        "checkpoint")
    pos = _HEADER.size
    sections = {}
    for __ in range(n_sections):
        tag, payload, pos = durable.decode_section(data, pos)
        sections[tag] = payload
    if pos != len(data):
        raise EngineError("trailing bytes in checkpoint")
    if SECTION_META not in sections or SECTION_STATE not in sections:
        raise EngineError("checkpoint missing a required section")
    try:
        meta = json.loads(sections[SECTION_META].decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        raise EngineError("checkpoint META section is not valid JSON")
    return Checkpoint(meta, sections[SECTION_STATE],
                      sections.get(SECTION_CACHE))


# -- in-memory snapshots -----------------------------------------------------

def snapshot_state(state, instruction_count, meta=None):
    """Atomic in-memory snapshot of machine state + progress.

    Same CRC-sectioned blob a durable checkpoint uses, minus the file:
    the verify subsystem keeps one of these per audited splice so a
    divergent entry can be rolled back with the exact machinery (and
    the same corruption detection) a crash restore gets.
    """
    return encode_checkpoint(state, instruction_count, meta=meta)


def restore_state(blob):
    """Decode an in-memory snapshot; returns a :class:`Checkpoint`."""
    return decode_checkpoint(blob)


# -- files -------------------------------------------------------------------

def write_checkpoint(path, state, instruction_count, cache=None, meta=None):
    """Atomically write a checkpoint: tmp + fsync + rename, then fsync
    the directory."""
    path = os.fspath(path)
    durable.write_atomic(path, encode_checkpoint(
        state, instruction_count, cache=cache, meta=meta), fsync=True)
    try:
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass  # directory fsync is best-effort (not all platforms allow it)
    return path


def read_checkpoint(path):
    with open(path, "rb") as handle:
        return decode_checkpoint(handle.read())


def checkpoint_paths(directory):
    """Checkpoint files in ``directory``, oldest first. ``.tmp``
    leftovers from a crash mid-write are ignored."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    found = []
    for name in names:
        if not (name.startswith(_PREFIX) and name.endswith(_SUFFIX)):
            continue
        seq = name[len(_PREFIX):-len(_SUFFIX)]
        if seq.isdigit():
            found.append((int(seq), os.path.join(directory, name)))
    found.sort()
    return [path for __, path in found]


def latest_checkpoint(directory):
    paths = checkpoint_paths(directory)
    return paths[-1] if paths else None


def load_latest(directory):
    """Newest checkpoint that validates, or ``None``.

    Walks newest-to-oldest so one corrupt (torn, bit-rotted) file falls
    back to the previous durable snapshot instead of aborting.
    """
    for path in reversed(checkpoint_paths(directory)):
        try:
            return read_checkpoint(path)
        except (EngineError, OSError):
            continue
    return None


class Checkpointer:
    """Periodic checkpoint writer for one run.

    ``every_instructions`` is the snapshot cadence measured in
    retired-or-fast-forwarded instructions; :meth:`maybe_save` is cheap
    to call at every superstep boundary. ``keep`` bounds disk usage by
    pruning all but the newest N checkpoints.
    """

    def __init__(self, directory, every_instructions=1_000_000, keep=3,
                 program=None):
        if every_instructions is not None and every_instructions < 1:
            raise EngineError("checkpoint cadence must be >= 1 instruction")
        self.directory = os.fspath(directory)
        self.every_instructions = every_instructions
        self.keep = keep
        self.program = program
        os.makedirs(self.directory, exist_ok=True)
        paths = checkpoint_paths(self.directory)
        if paths:
            last = os.path.basename(paths[-1])
            self._sequence = int(last[len(_PREFIX):-len(_SUFFIX)])
        else:
            self._sequence = 0
        self._last_saved_instructions = None
        self.saves = 0

    def note_resumed(self, instruction_count):
        """Anchor the cadence after a resume (don't re-save at once)."""
        self._last_saved_instructions = instruction_count

    def due(self, instruction_count):
        if self.every_instructions is None:
            return False
        if self._last_saved_instructions is None:
            return instruction_count >= self.every_instructions
        return (instruction_count - self._last_saved_instructions
                >= self.every_instructions)

    def maybe_save(self, instruction_count, state, cache=None):
        """Save if the cadence is due; returns the path or ``None``."""
        if not self.due(instruction_count):
            return None
        return self.save(instruction_count, state, cache=cache)

    def save(self, instruction_count, state, cache=None):
        self._sequence += 1
        name = "%s%08d%s" % (_PREFIX, self._sequence, _SUFFIX)
        path = write_checkpoint(
            os.path.join(self.directory, name), state, instruction_count,
            cache=cache, meta={"program": self.program,
                               "sequence": self._sequence})
        self._last_saved_instructions = instruction_count
        self.saves += 1
        self._prune()
        return path

    def _prune(self):
        if self.keep is None:
            return
        paths = checkpoint_paths(self.directory)
        for path in paths[:-self.keep] if self.keep else paths:
            try:
                os.unlink(path)
            except OSError:
                pass

    def __repr__(self):
        return ("Checkpointer(%r, every=%s, keep=%s, saves=%d)"
                % (self.directory, self.every_instructions, self.keep,
                   self.saves))
