"""The trajectory cache: sparse, dependency-keyed start/end state pairs.

Each entry records a completed (speculative or past) execution as two
sparse projections (§4.2): the *start* projection over bytes the
execution read before writing (statuses READ / WRITTEN-AFTER-READ in the
dependency vector) and the *end* projection over bytes it wrote
(WRITTEN / WRITTEN-AFTER-READ). A running computation whose current
state agrees with an entry's start projection — on those bytes only —
may fast-forward by applying the end projection, skipping
``entry.length`` instructions.

Entries are bucketed by the instruction pointer they begin at and grouped
by their dependency index set, so a lookup is: project the current state
onto each group's indices and probe a hash table — O(dependency bytes),
never O(entries).

``ready_time`` models the distributed setting: an entry inserted by a
speculative worker is only visible to queries issued after the worker
finished (simulated time).
"""

import numpy as np

from repro.errors import EngineError
from repro.machine.depvec import DEP_READ, DEP_WAR, DEP_WRITTEN


class CacheEntry:
    """One cached trajectory segment."""

    __slots__ = ("rip", "start_indices", "start_values", "end_indices",
                 "end_values", "length", "occurrences", "ready_time",
                 "halted")

    def __init__(self, rip, start_indices, start_values, end_indices,
                 end_values, length, occurrences=1, ready_time=0.0,
                 halted=False):
        self.rip = rip
        self.start_indices = start_indices  # np.int64 vector indices
        self.start_values = start_values  # np.uint8 expected bytes
        self.end_indices = end_indices
        self.end_values = end_values
        self.length = length  # instructions this entry fast-forwards over
        self.occurrences = occurrences  # RIP occurrences spanned
        self.ready_time = ready_time
        self.halted = halted

    @classmethod
    def from_execution(cls, rip, dep, start_buf, end_buf, length,
                       occurrences=1, ready_time=0.0, halted=False):
        """Build an entry from a finished execution's dependency vector."""
        g = np.frombuffer(bytes(dep.buf), dtype=np.uint8)
        start_mask = (g == DEP_READ) | (g == DEP_WAR)
        end_mask = (g == DEP_WRITTEN) | (g == DEP_WAR)
        start_indices = np.nonzero(start_mask)[0]
        end_indices = np.nonzero(end_mask)[0]
        start_arr = np.frombuffer(bytes(start_buf), dtype=np.uint8)
        end_arr = np.frombuffer(bytes(end_buf), dtype=np.uint8)
        return cls(rip, start_indices, start_arr[start_indices].copy(),
                   end_indices, end_arr[end_indices].copy(), length,
                   occurrences=occurrences, ready_time=ready_time,
                   halted=halted)

    # -- matching and application ------------------------------------------------

    def matches(self, buf):
        """Does the current state agree on every dependency byte?"""
        arr = np.frombuffer(buf, dtype=np.uint8)
        return bool(np.array_equal(arr[self.start_indices],
                                   self.start_values))

    def apply(self, buf):
        """Fast-forward: write the end projection into ``buf`` in place."""
        arr = np.frombuffer(buf, dtype=np.uint8)
        if not arr.flags.writeable:
            raise EngineError("cannot apply entry to a read-only buffer")
        arr[self.end_indices] = self.end_values

    def with_ready_time(self, ready_time):
        return CacheEntry(self.rip, self.start_indices, self.start_values,
                          self.end_indices, self.end_values, self.length,
                          occurrences=self.occurrences,
                          ready_time=ready_time, halted=self.halted)

    # -- sizes ---------------------------------------------------------------------

    @property
    def end_bits(self):
        return 8 * len(self.end_indices)

    def size_bytes(self):
        """Approximate stored size (sparse indices + values, both sides)."""
        return 5 * (len(self.start_indices) + len(self.end_indices)) + 48

    def __repr__(self):
        return ("CacheEntry(rip=0x%x, deps=%dB, writes=%dB, length=%d, "
                "ready=%.6f)" % (self.rip, len(self.start_indices),
                                 len(self.end_indices), self.length,
                                 self.ready_time))


class _DepGroup:
    """Entries sharing one (rip, dependency index set)."""

    __slots__ = ("indices", "table")

    def __init__(self, indices):
        self.indices = indices
        self.table = {}  # projection bytes -> list of entries (length desc)


class TrajectoryCache:
    """Distributed trajectory cache (simulated as one index).

    ``capacity_bytes`` optionally bounds total stored size with FIFO
    eviction — the paper's "more memory stores more cache entries" axis.
    """

    def __init__(self, capacity_bytes=None):
        self.capacity_bytes = capacity_bytes
        self._groups = {}  # rip -> {indices key: _DepGroup}
        self._order = []  # insertion order for eviction: (rip, key, proj)
        # Semantic quarantine (verify subsystem): (rip, indices key) ->
        # clean audits still required before the group is re-admitted
        # (None = never re-admit). A quarantined group is invisible to
        # lookups but keeps its entries, so re-admission is instant.
        self._quarantined = {}
        self.total_bytes = 0
        self.n_entries = 0
        self.n_inserted = 0
        self.n_evicted = 0
        self.n_quarantined = 0  # corrupt entries skipped during preload
        self.n_groups_quarantined = 0  # semantic quarantines (cumulative)
        self.n_groups_readmitted = 0  # quarantined groups re-admitted

    def insert(self, entry):
        """Add an entry; keeps multiple lengths per identical start."""
        key = entry.start_indices.tobytes()
        groups = self._groups.setdefault(entry.rip, {})
        group = groups.get(key)
        if group is None:
            group = _DepGroup(entry.start_indices)
            groups[key] = group
        projection = entry.start_values.tobytes()
        bucket = group.table.setdefault(projection, [])
        bucket.append(entry)
        bucket.sort(key=lambda e: -e.length)
        self._order.append((entry.rip, key, projection))
        self.total_bytes += entry.size_bytes()
        self.n_entries += 1
        self.n_inserted += 1
        self._evict_if_needed()

    def _evict_if_needed(self):
        if self.capacity_bytes is None:
            return
        while self.total_bytes > self.capacity_bytes and self._order:
            rip, key, projection = self._order.pop(0)
            groups = self._groups.get(rip)
            if not groups:
                continue
            group = groups.get(key)
            if not group:
                continue
            bucket = group.table.get(projection)
            if not bucket:
                continue
            victim = bucket.pop()  # shortest first
            if not bucket:
                del group.table[projection]
            self.total_bytes -= victim.size_bytes()
            self.n_entries -= 1
            self.n_evicted += 1

    def lookup(self, rip, buf, now=None):
        """Longest ready entry whose start projection matches ``buf``.

        This is the paper's query/max-reduce: every node reports the
        length of its longest matching trajectory and the main thread
        fetches the winner. ``now`` filters entries by ``ready_time``.
        """
        entry, __ = self.lookup_classified(rip, buf, now)
        return entry

    def lookup_classified(self, rip, buf, now=None):
        """Like :meth:`lookup`, also reporting near misses.

        Returns ``(entry, late_match)``: ``late_match`` is True when a
        matching entry exists whose speculative worker has not finished
        by ``now`` — a pipeline stall rather than a misprediction, the
        distinction §5.4's scaling analysis turns on.
        """
        groups = self._groups.get(rip)
        if not groups:
            return None, False
        arr = np.frombuffer(buf, dtype=np.uint8)
        best = None
        late = False
        for key, group in groups.items():
            if self._quarantined and (rip, key) in self._quarantined:
                continue
            projection = arr[group.indices].tobytes()
            bucket = group.table.get(projection)
            if not bucket:
                continue
            for entry in bucket:  # sorted by length desc
                if now is not None and entry.ready_time > now:
                    late = True
                    continue
                if best is None or entry.length > best.length:
                    best = entry
                break
        return best, late

    # -- semantic quarantine (verify subsystem) ------------------------------

    @staticmethod
    def group_key(entry):
        """The ``(rip, dep-index-set)`` identity the auditor quarantines."""
        return (entry.rip, entry.start_indices.tobytes())

    def quarantine_group(self, rip, indices_key, readmit_after=None):
        """Hide one dependency group from lookups.

        ``readmit_after`` is the number of *clean* audits
        (:meth:`note_clean_audit`) after which the group comes back;
        ``None`` quarantines it for the rest of the run. Idempotent —
        re-quarantining resets the decay counter.
        """
        key = (rip, indices_key)
        if key not in self._quarantined:
            self.n_groups_quarantined += 1
        self._quarantined[key] = readmit_after

    def is_quarantined(self, rip, indices_key):
        return (rip, indices_key) in self._quarantined

    @property
    def quarantined_groups(self):
        """Currently quarantined group count (gauge)."""
        return len(self._quarantined)

    def note_clean_audit(self):
        """Decay every quarantine by one clean audit; re-admit at zero.

        Returns the number of groups re-admitted by this decay step.
        """
        if not self._quarantined:
            return 0
        readmitted = []
        for key, remaining in self._quarantined.items():
            if remaining is None:
                continue
            remaining -= 1
            if remaining <= 0:
                readmitted.append(key)
            else:
                self._quarantined[key] = remaining
        for key in readmitted:
            del self._quarantined[key]
        self.n_groups_readmitted += len(readmitted)
        return len(readmitted)

    def stats_dict(self):
        """Uniform counter snapshot for ``--json`` reports."""
        return {
            "n_entries": self.n_entries,
            "n_inserted": self.n_inserted,
            "n_evicted": self.n_evicted,
            "n_quarantined": self.n_quarantined,
            "total_bytes": self.total_bytes,
            "n_groups_quarantined": self.n_groups_quarantined,
            "n_groups_readmitted": self.n_groups_readmitted,
            "quarantined_groups": len(self._quarantined),
        }

    def entries(self):
        """Iterate over every stored entry (persistence, diagnostics)."""
        for groups in self._groups.values():
            for group in groups.values():
                for bucket in group.table.values():
                    yield from bucket

    def __len__(self):
        return self.n_entries

    def __repr__(self):
        return "<TrajectoryCache entries=%d bytes=%d>" % (self.n_entries,
                                                          self.total_bytes)
