"""Durable job journal: the daemon's crash-only write-ahead log.

The daemon from PR 6 kept every job in memory, so a SIGKILL (OOM
killer, node reboot) lost the queue, the running work, and every
finished result a client had not yet fetched. Crash-recoverable
speculation services (ParSplice keeps its coordinator state in a
persistent segment database; see PAPERS.md) treat the coordinator as
replayable state instead — and our cache tier already works that way
(:mod:`repro.core.cache_store` flushes atomically and quarantines
damage). This module extends the same discipline to the job layer.

Every accepted submission is appended here *before* the client sees a
``job_id``; every state transition (queued → running → done / failed /
cancelled), watchdog incident, and degraded-mode flip follows. On
restart the daemon replays the log: jobs that were queued or running
at crash time are re-queued (speculative work is disposable, so
re-running from the program image is always correct — the guarantee is
byte-identical-to-sequential, not at-most-once execution), terminal
jobs come back as queryable history, and resubmissions carrying the
same client idempotency token dedup onto the original job.

Format (``journal.ascj``)::

    [4B magic "ASCJ" | u16 version]
    repeat: [4B tag "JREC" | u64 length | JSON payload | u32 CRC32]

Records are :func:`repro.durable.encode_section` frames — the exact
frame shape checkpoints use — so a torn or bit-rotted tail is detected
the same way everywhere: replay stops at the first record that fails
structurally or on CRC, truncates the file back to the last good
record, and continues from there. A header that does not validate at
all (not our file) is moved aside to ``journal.ascj.corrupt`` and the
journal starts fresh rather than refusing to serve.

Results are *not* inlined in the log (a final state is tens of KB and
would be rewritten on every replay); finished payloads live in a
bounded on-disk result store (``results/<job_id>.json``, atomic
tmp+rename writes, pruned oldest-first) so a client's token poll can
fetch a result across a daemon restart without re-running the job.
Both go down the one :class:`repro.durable.DiskPressure` ladder when
the disk is full.
"""

import json
import os
import struct
import threading
import time

from repro import durable
from repro.errors import EngineError, ReproError

_MAGIC = b"ASCJ"
_VERSION = 1
_HEADER = struct.Struct("<4sH")

#: The one section tag; the payload JSON's ``type`` field discriminates.
RECORD_TAG = b"JREC"

#: Hard ceiling on one record; program images are a few KB of base64.
MAX_RECORD_BYTES = 16 * 1024 * 1024

REC_SUBMIT = "submit"
REC_STATE = "state"
REC_INCIDENT = "incident"
REC_MODE = "mode"

_JOURNAL_NAME = "journal.ascj"
_RESULTS_DIR = "results"


class JournalError(ReproError):
    """The journal was misused (damage is *recovered*, never raised)."""


class ReplayedJob:
    """One job reconstructed from the log: its last known state plus
    enough to either re-queue it (program image, options) or answer
    history queries (summary fields, token)."""

    __slots__ = ("job_id", "client", "token", "namespace", "program_dict",
                 "options", "state", "error", "submitted_at", "finished_at",
                 "incidents", "summary_extra")

    def __init__(self, job_id, client, token, namespace, program_dict,
                 options, submitted_at):
        self.job_id = job_id
        self.client = client
        self.token = token
        self.namespace = namespace
        self.program_dict = program_dict
        self.options = options
        self.state = "queued"
        self.error = None
        self.submitted_at = submitted_at
        self.finished_at = None
        self.incidents = []
        self.summary_extra = {}

    @property
    def interrupted(self):
        """Was this job non-terminal when the daemon died?"""
        return self.state in ("queued", "running")


class JobJournal:
    """Append-only CRC'd WAL plus a bounded on-disk result store.

    Thread-safe: connection threads, job threads, and the watchdog all
    append under one lock. ``fsync=True`` (the default) makes every
    record durable before the append returns — a submit the client was
    acked for survives any crash after that point.
    """

    def __init__(self, directory, fsync=True,
                 result_store_bytes=256 * 1024 * 1024):
        self.directory = os.fspath(directory)
        self.path = os.path.join(self.directory, _JOURNAL_NAME)
        self.results_dir = os.path.join(self.directory, _RESULTS_DIR)
        self.fsync = fsync
        self.result_store_bytes = result_store_bytes
        os.makedirs(self.results_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._seq = 0
        self.records_appended = 0
        self.records_replayed = 0
        self.truncated_bytes = 0
        # -- disk-pressure state (see _append / store_result) ----------
        self._disk = durable.DiskPressure()
        self.results_pruned_for_space = 0
        self.records_dropped = 0
        self.results_dropped = 0
        self.journal_suspended = False
        self.journal_resumes = 0
        self.mode = "normal"  # last journaled degraded-mode state
        self.jobs = {}  # job_id -> ReplayedJob, insertion-ordered
        self._replay()
        self._handle = open(self.path, "ab")
        if self._handle.tell() == 0:
            self._handle.write(_HEADER.pack(_MAGIC, _VERSION))
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())

    # -- replay --------------------------------------------------------------

    def _replay(self):
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return
        if len(data) < _HEADER.size:
            # Shorter than a header: a crash during the very first
            # write. Nothing recoverable; start fresh.
            self.truncated_bytes += len(data)
            os.truncate(self.path, 0)
            return
        try:
            durable.read_header(data, _HEADER, _MAGIC, _VERSION, "journal")
        except EngineError:
            # Not our file (or a future format): move it aside and
            # start fresh — crash-only means we never refuse to boot.
            os.replace(self.path, self.path + ".corrupt")
            return
        pos = _HEADER.size
        while pos < len(data):
            try:
                tag, payload, end = durable.decode_section(
                    data, pos, max_payload=MAX_RECORD_BYTES)
                if tag != RECORD_TAG:
                    raise EngineError("unknown journal record tag %r" % tag)
                record = json.loads(payload.decode("utf-8"))
                if not isinstance(record, dict):
                    raise EngineError("journal record is not an object")
            except (EngineError, ValueError, UnicodeDecodeError):
                # Torn tail: everything before `pos` is trustworthy,
                # nothing after it is. Truncate and carry on.
                self.truncated_bytes += len(data) - pos
                os.truncate(self.path, pos)
                break
            self._apply(record)
            self.records_replayed += 1
            self._seq = max(self._seq, int(record.get("seq", 0)))
            pos = end

    def _apply(self, record):
        kind = record.get("type")
        if kind == REC_SUBMIT:
            job = ReplayedJob(
                record["job_id"], record.get("client", "anonymous"),
                record.get("token"), record.get("namespace"),
                record.get("program"), record.get("options") or {},
                record.get("time"))
            self.jobs[job.job_id] = job
        elif kind == REC_STATE:
            job = self.jobs.get(record.get("job_id"))
            if job is not None:
                job.state = record.get("state", job.state)
                job.error = record.get("error")
                if job.state in ("done", "failed", "cancelled"):
                    job.finished_at = record.get("time")
                extra = record.get("extra")
                if extra:
                    job.summary_extra.update(extra)
        elif kind == REC_INCIDENT:
            job = self.jobs.get(record.get("job_id"))
            if job is not None:
                job.incidents.append(record.get("incident") or {})
        elif kind == REC_MODE:
            self.mode = record.get("mode", self.mode)
        # Unknown types from a newer minor revision are skipped: the
        # CRC already proved they are intact, just not for us.

    def interrupted_jobs(self):
        """Replayed jobs that were queued/running at crash time, in
        submission order — the daemon re-queues exactly these."""
        return [job for job in self.jobs.values() if job.interrupted]

    def max_job_number(self):
        """Highest numeric suffix among replayed ``j<N>`` ids (0 when
        none) — the daemon resumes its id counter past it so a replayed
        job and a fresh one can never collide."""
        highest = 0
        for job_id in self.jobs:
            digits = job_id[1:] if job_id[:1] == "j" else job_id
            if digits.isdigit():
                highest = max(highest, int(digits))
        return highest

    # -- appends -------------------------------------------------------------

    @property
    def enospc_events(self):
        return self._disk.enospc_events

    def inject_enospc(self, n=1):
        """Arm ``n`` deterministic disk-full faults: the next ``n``
        journal/result writes raise ``ENOSPC`` before touching the
        filesystem — the hook behind the ``disk_full`` chaos fault kind
        and the satellite ENOSPC tests."""
        self._disk.inject(n)

    def _recover_tail(self, good_end):
        """After a write failed partway: drop any half-flushed buffer
        by reopening the handle, then truncate the file back to the
        last record boundary. Every record appended *before* this one
        stays replayable; the failed record simply never happened."""
        try:
            self._handle.close()
        except OSError:
            pass
        try:
            os.truncate(self.path, good_end)
        except OSError:
            pass
        self._handle = open(self.path, "ab")

    def _results(self):
        """Stored results as ``(path, size)``, oldest first."""
        return durable.oldest_first(self.results_dir, ".json")

    def _prune_for_space(self, needed):
        """Free at least ``needed`` bytes by dropping the oldest stored
        results (a pruned result means a post-restart fetch re-runs the
        job — correct, just slower). Returns the number removed."""
        pruned = len(durable.remove_oldest(self._results(), needed))
        self.results_pruned_for_space += pruned
        return pruned

    def _write_frame(self, frame):
        self._handle.write(frame)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def _append(self, record):
        """Append one record, degrading under disk pressure.

        The ladder is the cache store's: on ``ENOSPC`` rewind the torn
        tail (the log stays structurally clean), prune the oldest
        stored results to make room, retry once; if the disk is still
        full, drop the record and mark the journal **suspended** —
        served results stay correct, only crash-replay fidelity
        degrades, and the first successful append after space returns
        clears the flag. Never raises for disk pressure."""
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            record["time"] = time.time()
            payload = json.dumps(record, separators=(",", ":"),
                                 sort_keys=True).encode("utf-8")
            if len(payload) > MAX_RECORD_BYTES:
                raise JournalError("journal record of %d bytes exceeds the "
                                   "%d-byte cap"
                                   % (len(payload), MAX_RECORD_BYTES))
            frame = durable.encode_section(RECORD_TAG, payload)
            good_end = self._handle.tell()
            if not self._disk.write(
                    lambda: self._write_frame(frame),
                    lambda: self._prune_for_space(len(frame)),
                    rewind=lambda: self._recover_tail(good_end)):
                self.journal_suspended = True
                self.records_dropped += 1
                return
            self.records_appended += 1
            if self.journal_suspended:
                self.journal_suspended = False
                self.journal_resumes += 1

    def record_submit(self, job, token):
        """Durably log an accepted submission (before the client ack)."""
        self._append({
            "type": REC_SUBMIT, "job_id": job.job_id, "client": job.client,
            "token": token, "namespace": job.namespace,
            "program": job.as_submitted().to_dict(),
            "options": dict(job.options),
        })

    def record_state(self, job_id, state, error=None, extra=None):
        record = {"type": REC_STATE, "job_id": job_id, "state": state}
        if error is not None:
            record["error"] = str(error)
        if extra:
            record["extra"] = extra
        self._append(record)

    def record_incident(self, job_id, incident):
        self._append({"type": REC_INCIDENT, "job_id": job_id,
                      "incident": incident})

    def record_mode(self, mode, reason=None):
        self.mode = mode
        record = {"type": REC_MODE, "mode": mode}
        if reason is not None:
            record["reason"] = str(reason)
        self._append(record)

    # -- result store --------------------------------------------------------

    def _result_path(self, job_id):
        return os.path.join(self.results_dir, "%s.json" % job_id)

    def store_result(self, job_id, payload):
        """Atomically persist one finished payload, then prune the
        store oldest-first back under ``result_store_bytes``.

        Under ``ENOSPC`` the same ladder as :meth:`_append`: the temp
        file never survives (``write_atomic`` removes it), the oldest
        stored results are pruned to make room, one retry; if the disk
        is still full the result is dropped from the *store* only —
        the in-memory copy still serves every fetch until a restart,
        after which the job re-runs (correct, just slower). Returns
        True when the payload reached disk."""
        path = self._result_path(job_id)
        blob = json.dumps(payload, separators=(",", ":"),
                          sort_keys=True).encode("utf-8")
        if not self._disk.write(
                lambda: durable.write_atomic(path, blob, fsync=self.fsync),
                lambda: self._prune_for_space(len(blob))):
            self.results_dropped += 1
            return False
        self._prune_results()
        return True

    def load_result(self, job_id):
        """A stored payload, or ``None`` (missing, pruned, or torn —
        a torn file means the job must be treated as never finished)."""
        try:
            with open(self._result_path(job_id), encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def _prune_results(self):
        if self.result_store_bytes is None:
            return
        results = self._results()
        total = sum(size for __, size in results)
        durable.remove_oldest(results, total - self.result_store_bytes)

    # -- lifecycle / reporting -----------------------------------------------

    def close(self):
        with self._lock:
            try:
                self._handle.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def stats_dict(self):
        results = self._results()
        return {
            "path": self.path,
            "mode": self.mode,
            "records_appended": self.records_appended,
            "records_replayed": self.records_replayed,
            "truncated_bytes": self.truncated_bytes,
            "jobs_replayed": len(self.jobs),
            "result_files": len(results),
            "result_bytes": sum(size for __, size in results),
            "enospc_events": self.enospc_events,
            "results_pruned_for_space": self.results_pruned_for_space,
            "records_dropped": self.records_dropped,
            "results_dropped": self.results_dropped,
            "journal_suspended": self.journal_suspended,
            "journal_resumes": self.journal_resumes,
        }
