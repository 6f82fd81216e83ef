"""Deterministic fault injection for the multiprocess runtime.

The paper's correctness argument makes speculation disposable: a cache
entry either matches a future state on its dependency bytes or sits
idle, so the runtime must keep making byte-identical progress no matter
how badly the speculative tier misbehaves. A :class:`FaultPlan` makes
that testable: a *seeded schedule* of failures injected at the seams
the runtime already has to survive. Each kind is one :class:`Fault` row
of :class:`FaultSpec` (DESIGN.md §9 says what each exercises), spent on
one event stream by one process; its row name is its spec key, keyword
and ``scheduled`` / ``injected`` key. The seed fixes every stream's
decision sequence up front, so a chaos run replays modulo OS scheduling.

Configure via ``RuntimeConfig(fault_plan=FaultPlan(kill=2, corrupt=1))``,
a spec string (``RuntimeConfig(fault_plan="seed=42,kill=2,corrupt=1")``)
or the ``REPRO_FAULT_PLAN`` environment variable with the same syntax.
"""

import random
from collections import Counter, deque

import numpy as np

from repro.core.trajectory_cache import CacheEntry
from repro.settings import Setting, Settings, SettingsError, table

#: Event streams, in queue-shuffle order (``entry`` is never shuffled).
STREAMS = ("dispatch", "receive", "entry", "serve", "resource")


class FaultPlanError(SettingsError):
    """A fault-plan spec string or quota is malformed."""


class Fault(Setting):
    """One fault kind: a quota, the stream whose events spend it and the
    process that spends them: ``pool``, ``daemon`` or ``client`` (the
    ``repro chaos --serve`` loop that drives a daemon)."""

    def __init__(self, name, stream, spent_by, flag, help):
        super().__init__(name, 0, int, flag=flag, help=help)
        self.stream, self.spent_by = stream, spent_by


class FaultSpec(Settings):
    """What a plan schedules. The first ``start`` events of each stream
    are left clean (so the run establishes a healthy baseline), after
    which every ``spacing``-th event consumes the next fault from a
    seeded shuffle of that stream's quota."""

    KIND = "fault-plan"
    FIELDS = table(
        Setting("seed", 0, int),
        Fault("kill", "dispatch", "pool", "--kills",
              "workers to SIGKILL mid-task"),
        Fault("timeout", "dispatch", "pool", "--timeouts",
              "tasks to push past their deadline"),
        Fault("corrupt", "receive", "pool", "--corrupts",
              "result frames to corrupt on the wire"),
        Fault("slow", "receive", "pool", "--slows",
              "results to delay before ingest"),
        Fault("drop", "receive", "pool", "--drops",
              "results to drop entirely"),
        Fault("taint", "entry", "pool", "--taints",
              "inject N semantically-corrupt cache entries; the audit "
              "must catch every one (exit nonzero)"),
        Fault("daemon_kill", "serve", "client", "--daemon-kills",
              "with --serve: SIGKILL the daemon mid-job this many times"),
        Fault("conn_drop", "serve", "client", "--conn-drops",
              "with --serve: drop the client connection mid-poll N times"),
        Fault("journal_trunc", "serve", "client", "--journal-truncs",
              "with --serve: tear the journal tail before a restart N times"),
        Fault("shm_full", "resource", "pool", "--shm-fulls",
              "dispatches forced off the shm ring onto the inline pipe "
              "fallback (resource tier)"),
        Fault("disk_full", "resource", "daemon", "--disk-fulls",
              "with --serve: journal/cache writes hit an injected ENOSPC "
              "this many times"),
        Fault("worker_oom", "resource", "pool", "--worker-ooms",
              "workers whose memory limit is tightened mid-task so the "
              "speculation OOMs as a contained failure (resource tier)"),
        Fault("fd_exhaust", "resource", "daemon", "--fd-exhausts",
              "with --serve: shed N admissions for fd pressure (retryable)"),
        Setting("slow_ms", 50.0, float, flag="--slow-ms",
                help="delay per slow fault, milliseconds"),
        Setting("start", 2, int),
        Setting("spacing", 2, int, flag="--spacing",
                help="inject at most one fault every N pool events"),
    )

    def _finish(self):
        if min(self.scheduled().values()) < 0:
            raise FaultPlanError("fault quotas must be >= 0")
        if not self.slow_ms >= 0:  # NaN too
            raise FaultPlanError("slow_ms must be >= 0")
        if self.spacing < 1:
            raise FaultPlanError("spacing must be >= 1")

    def scheduled(self):
        """Quota by kind, in table order."""
        return {row.name: getattr(self, row.name) for row in KINDS}

    def only(self, spent_by):
        """This spec with the quotas another process spends zeroed."""
        return self.replace(**{row.name: 0 for row in KINDS
                               if row.spent_by != spent_by})

    def __str__(self):
        """The spec string :meth:`FaultPlan.parse` reads back."""
        return ",".join("%s=%s" % (name, getattr(self, name))
                        for name, row in self.FIELDS.items()
                        if getattr(self, name) != row.default)


KINDS = [row for row in FaultSpec.FIELDS.values() if isinstance(row, Fault)]


class FaultPlan:
    """A seeded, finite schedule of runtime faults: a :class:`FaultSpec`
    (given, or built from the keywords) and the queues spending it.
    ``injected`` counts what was actually spent — tests assert against
    it."""

    def __init__(self, spec=None, **given):
        self.spec = (spec or FaultSpec()).replace(**given)
        rng = random.Random(self.spec.seed)
        self._queues = {}
        for stream in STREAMS:
            queue = [row.name for row in KINDS if row.stream == stream
                     for __ in range(getattr(self.spec, row.name))]
            if stream != "entry":
                rng.shuffle(queue)
            self._queues[stream] = deque(queue)
        self._events = dict.fromkeys(STREAMS, 0)
        self._rng = rng  # drives corruption shapes, deterministically
        self.injected = Counter()

    @classmethod
    def parse(cls, spec):
        """Build a plan from ``"seed=42,kill=2,timeout=1,corrupt=1"``."""
        options = {}
        for item in filter(None, map(str.strip, str(spec).split(","))):
            key, eq, value = item.partition("=")
            if not eq:
                raise FaultPlanError("bad fault-plan item %r (want key=value)"
                                     % item)
            options[key.strip()] = value.strip()
        try:
            return cls(FaultSpec.from_options(options))
        except SettingsError as exc:
            raise FaultPlanError(str(exc)) from None

    # -- scheduling ----------------------------------------------------------

    def next(self, stream, allowed=None):
        """The fault to apply to this event of ``stream`` (or ``None``).

        A checkpoint passes the kinds it can spend as ``allowed``; an
        unallowed head (e.g. a timeout fault when deadlines are
        disabled) is skipped for this event but stays queued for one
        that can spend it.
        """
        queue, index = self._queues[stream], self._events[stream]
        self._events[stream] += 1
        start, spacing = self.spec.start, self.spec.spacing
        if not queue or index < start or (index - start) % spacing:
            return None
        for __ in range(len(queue)):
            kind = queue.popleft()
            if allowed is None or kind in allowed:
                self.injected[kind] += 1
                return kind
            queue.append(kind)
        return None

    def truncate_tail_bytes(self, size):
        """How many bytes a ``journal_trunc`` fault shears off a file
        of ``size`` bytes: at least 1, at most the whole file, chosen
        by the plan RNG so the torn tail lands at seeded offsets."""
        if size <= 1:
            return size
        return self._rng.randrange(1, min(size, 4096) + 1)

    def corrupt_bytes(self, data):
        """Deterministically damage one frame.

        Alternates (by plan RNG) between truncation and a byte flip;
        either is guaranteed to be rejected by the wire layer — a
        truncated frame fails structural checks and a flipped byte
        fails the header checksum (or the magic/version fields
        themselves).
        """
        if len(data) < 2:
            return b""
        if self._rng.random() < 0.5:
            return bytes(data[:self._rng.randrange(1, len(data))])
        mutated = bytearray(data)
        mutated[self._rng.randrange(len(mutated))] ^= 0xFF
        return bytes(mutated)

    def taint_entry(self, entry):
        """Deterministically corrupt one cache entry's *semantics*.

        Rotates (by plan RNG) through three shapes of the bug class the
        shadow audit exists for: a wrong end byte (bad write-set value),
        a dropped start index (under-approximated dependency set), and
        an inflated instruction count (wrong claimed length). The
        returned entry is structurally valid and CRC-clean on the wire.
        """
        start_indices = np.array(entry.start_indices, dtype=np.int64)
        start_values = np.array(entry.start_values, dtype=np.uint8)
        end_indices = np.array(entry.end_indices, dtype=np.int64)
        end_values = np.array(entry.end_values, dtype=np.uint8)
        length = entry.length
        mode = self._rng.randrange(3)
        if mode == 0 and len(end_values):
            end_values[self._rng.randrange(len(end_values))] ^= 0x5A
        elif mode == 1 and len(start_indices) > 1:
            drop = self._rng.randrange(len(start_indices))
            mask = np.arange(len(start_indices)) != drop
            start_indices = start_indices[mask]
            start_values = start_values[mask]
        else:
            length += 1
        return CacheEntry(entry.rip, start_indices, start_values,
                          end_indices, end_values, length,
                          occurrences=entry.occurrences,
                          ready_time=entry.ready_time,
                          halted=entry.halted)

    # -- introspection -------------------------------------------------------

    @property
    def exhausted(self):
        """Every scheduled fault has been injected."""
        return not any(self._queues.values())

    @property
    def pending(self):
        """Faults scheduled but not yet injected, by kind."""
        return sum(map(Counter, self._queues.values()), Counter())

    def as_dict(self):
        return {"seed": self.spec.seed, "scheduled": self.spec.scheduled(),
                "injected": dict(self.injected),
                "pending": dict(self.pending)}

    def __repr__(self):
        fields = {"seed": self.spec.seed, **self.spec.scheduled()}
        return "FaultPlan(%s, injected=%s)" % (
            ", ".join("%s=%d" % kv for kv in fields.items()),
            dict(self.injected))


def resolve_fault_plan(value):
    """Normalize a config value: plan, spec string, or ``None``."""
    if value is None or isinstance(value, FaultPlan):
        return value
    return FaultPlan.parse(value)
