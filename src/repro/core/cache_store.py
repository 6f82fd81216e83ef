"""A shared, sharded trajectory-cache store for cross-run reuse.

The paper's premise is that learned predictors and cached trajectories
amortize across *repeated executions* of the same program (§6: "we have
only just begun exploring reusing the trajectory cache across different
invocations"). A one-shot ``repro run`` throws that accumulation away;
``repro serve`` keeps it here.

The store is a dictionary of **shards**: one
:class:`~repro.core.trajectory_cache.TrajectoryCache` per *namespace*,
where a namespace is a program's image hash
(:meth:`~repro.loader.image.Program.image_hash`). Keying by image hash
gives exactly the sharing the correctness argument allows: every client
running byte-identical code shares one warm shard (a cache entry is an
exact fact about that program's transition function, so it is valid for
every run of that program), while programs that differ in a single
instruction byte land in different shards and can never cross-pollinate.

Persistence rides the existing CRC'd :mod:`repro.core.cache_io` format:
each shard serializes to ``<namespace>.tcache`` in the store directory,
written atomically (:func:`repro.durable.write_atomic`) on a cadence the
daemon controls plus always at shutdown, and reloaded on daemon start
(the warm-start story). A shard whose blob fails structural validation
on load — truncation, bad magic, an unsupported version, framing
damage — is **quarantined**: renamed to
``*.tcache.quarantined`` and replaced by an empty shard, never parsed
into live entries. Per-entry CRC failures inside an intact blob are
quarantined entry-by-entry by ``cache_io`` itself and surface in
``entries_quarantined``.

Disk exhaustion degrades durability, never correctness: a flush that
hits ``ENOSPC`` goes down the :class:`repro.durable.DiskPressure`
ladder (no temp file left, prune the oldest shard files to make room,
one retry); if the disk is still full, the store **suspends
write-through** — shards stay dirty in memory, served results remain
exact, and the next flush that succeeds (space came back) clears the
flag and resumes persistence. See :meth:`flush`.

Thread safety: every public method takes the store lock; shards handed
out by :meth:`snapshot` are immutable entry lists, so engine threads
never touch a live shard concurrently.
"""

import os
import re
import threading

from repro import durable
from repro.core import cache_io
from repro.core.trajectory_cache import TrajectoryCache
from repro.errors import EngineError

#: Shard filename suffix (namespace is a hex digest).
SHARD_SUFFIX = ".tcache"
QUARANTINE_SUFFIX = ".quarantined"

_NAMESPACE_RE = re.compile(r"^[0-9a-f]{8,64}$")


def valid_namespace(namespace):
    """Namespaces are lowercase hex digests — nothing else may name a
    shard file (a client-supplied namespace must not traverse paths)."""
    return bool(_NAMESPACE_RE.match(namespace or ""))


def entry_signature(entry):
    """Content identity of a cache entry, for cross-run deduplication.

    Two entries with the same signature fast-forward identically, so
    merging a job's learned cache back into a shared shard keeps only
    one copy no matter how many runs rediscover the same segment.
    """
    return (entry.rip, entry.length, bool(entry.halted),
            entry.start_indices.tobytes(), entry.start_values.tobytes(),
            entry.end_indices.tobytes(), entry.end_values.tobytes())


class CacheSnapshot:
    """An immutable view of one shard, safe to hand to an engine thread
    as ``initial_cache`` (the engine only iterates :meth:`entries`)."""

    __slots__ = ("namespace", "_entries")

    def __init__(self, namespace, entries):
        self.namespace = namespace
        self._entries = tuple(entries)

    def entries(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return "CacheSnapshot(%s, entries=%d)" % (self.namespace[:12],
                                                  len(self._entries))


class SharedCacheStore:
    """Namespace-sharded trajectory caches with durable persistence.

    ``directory=None`` keeps the store purely in memory (tests, or a
    daemon run without ``--cache-dir``). ``capacity_bytes`` bounds each
    shard individually, using the cache's own FIFO eviction.
    """

    def __init__(self, directory=None, capacity_bytes=None):
        self.directory = directory
        self.capacity_bytes = capacity_bytes
        self._lock = threading.RLock()
        self._shards = {}  # namespace -> TrajectoryCache
        self._signatures = {}  # namespace -> set of entry signatures
        self._dirty = set()  # namespaces changed since their last flush
        # -- counters (exposed via stats_dict) -------------------------
        self.shards_loaded = 0
        self.entries_loaded = 0
        self.shards_quarantined = 0
        self.entries_quarantined = 0
        self.entries_merged = 0
        self.entries_deduped = 0
        self.flushes = 0
        # -- disk-pressure state (see flush) ---------------------------
        self._disk = durable.DiskPressure()
        self.shards_pruned = 0
        self.write_through_suspended = False
        self.write_through_resumes = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._load_all()

    # -- loading -------------------------------------------------------------

    def _shard_path(self, namespace):
        return os.path.join(self.directory, namespace + SHARD_SUFFIX)

    def _load_all(self):
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(SHARD_SUFFIX):
                continue
            namespace = name[:-len(SHARD_SUFFIX)]
            if not valid_namespace(namespace):
                continue
            self._load_shard(namespace)

    def _load_shard(self, namespace):
        path = self._shard_path(namespace)
        try:
            cache = cache_io.load_cache(path,
                                        capacity_bytes=self.capacity_bytes)
        except (EngineError, OSError):
            # Structural damage: nothing in the blob can be trusted.
            # Quarantine the file — keep the evidence, never load it —
            # and let the namespace start over empty.
            try:
                os.replace(path, path + QUARANTINE_SUFFIX)
            except OSError:
                pass
            self.shards_quarantined += 1
            return
        self.entries_quarantined += cache.n_quarantined
        self._shards[namespace] = cache
        self._signatures[namespace] = {
            entry_signature(e) for e in cache.entries()}
        self.shards_loaded += 1
        self.entries_loaded += cache.n_entries

    # -- access --------------------------------------------------------------

    def _shard(self, namespace):
        shard = self._shards.get(namespace)
        if shard is None:
            shard = TrajectoryCache(capacity_bytes=self.capacity_bytes)
            self._shards[namespace] = shard
            self._signatures[namespace] = set()
        return shard

    def namespaces(self):
        with self._lock:
            return sorted(self._shards)

    def entry_count(self, namespace):
        with self._lock:
            shard = self._shards.get(namespace)
            return shard.n_entries if shard is not None else 0

    def snapshot(self, namespace):
        """Immutable entry list for one namespace (possibly empty)."""
        if not valid_namespace(namespace):
            raise EngineError("invalid cache namespace %r" % (namespace,))
        with self._lock:
            shard = self._shards.get(namespace)
            entries = list(shard.entries()) if shard is not None else ()
            return CacheSnapshot(namespace, entries)

    def merge(self, namespace, entries):
        """Fold a finished job's learned entries into the shared shard.

        Deduplicates by content signature — re-running a warm program
        re-derives the same segments, and the shard must not grow by a
        copy per run. Returns the number of genuinely new entries.
        """
        if not valid_namespace(namespace):
            raise EngineError("invalid cache namespace %r" % (namespace,))
        added = 0
        with self._lock:
            shard = self._shard(namespace)
            signatures = self._signatures[namespace]
            for entry in entries:
                signature = entry_signature(entry)
                if signature in signatures:
                    self.entries_deduped += 1
                    continue
                signatures.add(signature)
                shard.insert(entry.with_ready_time(0.0))
                added += 1
            if added:
                self.entries_merged += added
                self._dirty.add(namespace)
        return added

    # -- persistence ---------------------------------------------------------

    @property
    def enospc_events(self):
        return self._disk.enospc_events

    def inject_enospc(self, n=1):
        """Arm ``n`` deterministic disk-full faults: the next ``n``
        shard writes raise ``ENOSPC`` before touching the filesystem.
        The hook behind the ``disk_full`` chaos fault kind and the
        satellite ENOSPC tests — it exercises exactly the code path a
        real full disk would, without needing one."""
        self._disk.inject(n)

    def _prune_for_space(self, exclude, needed):
        """Oldest-first removal of shard artifacts to free ``needed``
        bytes: quarantined blobs go first (dead evidence), then the
        stalest ``.tcache`` files by mtime, never ``exclude`` (the file
        we are trying to write). A pruned namespace whose shard is still
        in memory is re-marked dirty so its durability recovers once
        space returns. Returns the number of files removed."""
        files = [(path, size) for path, size in durable.oldest_first(
            self.directory, (SHARD_SUFFIX, SHARD_SUFFIX + QUARANTINE_SUFFIX))
            if path != exclude]
        files.sort(key=lambda file: not file[0].endswith(QUARANTINE_SUFFIX))
        removed = durable.remove_oldest(files, needed)
        for path in removed:
            namespace = os.path.basename(path)[:-len(SHARD_SUFFIX)]
            if path.endswith(SHARD_SUFFIX) and namespace in self._shards:
                self._dirty.add(namespace)
        self.shards_pruned += len(removed)
        return len(removed)

    def _flush_one(self, target):
        """Write one shard, degrading under disk pressure.

        The ladder: write atomically; on ``ENOSPC`` prune the oldest
        shard files and retry once; if the disk is *still* full, leave
        the shard dirty and suspend write-through. Any successful write
        while suspended lifts the suspension — recovery needs no
        operator action beyond freeing space. Returns True if the shard
        reached disk."""
        shard = self._shards.get(target)
        if shard is None:
            return False
        path = self._shard_path(target)
        blob = cache_io.serialize_cache(shard)
        if not self._disk.write(
                lambda: durable.write_atomic(path, blob),
                lambda: self._prune_for_space(path, len(blob))):
            self.write_through_suspended = True
            return False
        self._dirty.discard(target)
        if self.write_through_suspended:
            self.write_through_suspended = False
            self.write_through_resumes += 1
        return True

    def flush(self, namespace=None, force=False):
        """Persist dirty shards (or one, or all with ``force``).

        Atomic per shard: serialize, write to a temp file, rename. A
        daemon killed mid-flush leaves either the old blob or the new
        one, never a torn file. No-op without a directory. Returns the
        number of shard files written.

        A shard write that fails with ``ENOSPC`` degrades instead of
        raising (see :meth:`_flush_one`): prune, retry, then suspend
        write-through with the shard kept dirty in memory. Results stay
        byte-exact throughout — only durability is deferred, and it
        catches up automatically on the first flush after space
        returns."""
        if self.directory is None:
            return 0
        written = 0
        with self._lock:
            if namespace is not None:
                targets = [namespace] if (force or namespace in self._dirty) \
                    else []
            else:
                targets = sorted(self._shards) if force \
                    else sorted(self._dirty)
            for target in targets:
                if self._flush_one(target):
                    written += 1
                elif self.write_through_suspended:
                    # The disk is full even after pruning; the remaining
                    # targets would fail identically. Keep them dirty
                    # and let the next flush try again.
                    break
            if written:
                self.flushes += 1
        return written

    def dirty_namespaces(self):
        with self._lock:
            return sorted(self._dirty)

    # -- reporting -----------------------------------------------------------

    def stats_dict(self):
        with self._lock:
            shards = {
                namespace: {
                    "entries": shard.n_entries,
                    "bytes": shard.total_bytes,
                    "inserted": shard.n_inserted,
                    "evicted": shard.n_evicted,
                }
                for namespace, shard in sorted(self._shards.items())
            }
            return {
                "directory": self.directory,
                "namespaces": len(self._shards),
                "total_entries": sum(s.n_entries
                                     for s in self._shards.values()),
                "total_bytes": sum(s.total_bytes
                                   for s in self._shards.values()),
                "shards": shards,
                "shards_loaded": self.shards_loaded,
                "entries_loaded": self.entries_loaded,
                "shards_quarantined": self.shards_quarantined,
                "entries_quarantined": self.entries_quarantined,
                "entries_merged": self.entries_merged,
                "entries_deduped": self.entries_deduped,
                "flushes": self.flushes,
                "enospc_events": self.enospc_events,
                "shards_pruned": self.shards_pruned,
                "write_through_suspended": self.write_through_suspended,
                "write_through_resumes": self.write_through_resumes,
            }

    def __repr__(self):
        with self._lock:
            return "<SharedCacheStore namespaces=%d entries=%d>" % (
                len(self._shards),
                sum(s.n_entries for s in self._shards.values()))
