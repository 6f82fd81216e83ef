"""Span tracing from outside the program: wrappers installed by ``setattr``.

The benchmark never edits ``src/``. :data:`SPANS` is the one table that
names every layer boundary it watches — ``(span_name, module,
"Class.attr")`` — and :meth:`Tracer.install` swaps each target for a
``perf_counter`` wrapper (``uninstall`` puts the originals back, so the
untraced reps of a traced run execute the unmodified program). A
refactor that moves or renames a layer function edits this table and
nothing else; ``selftest.py`` fails loudly when a target stops
resolving.

Every span records name, start, end, the span that caused it and the op
(rep number or serve job index) it belongs to. Spans live on a
per-thread stack; a span that starts on a thread with an empty stack
(a daemon job or connection thread) is parented to whatever span the
harness thread had open at that moment. Only the installing process
records anything: forked workers inherit the wrappers but pass straight
through.

**Self time.** :func:`exclusive_times` partitions the wall time covered
by the root spans (one per op) among all spans: each instant belongs to
the most recently started span that is open at that instant. Within one
thread that is exactly "duration minus the part covered by child
spans"; across threads it extends the same rule to the spans a request
caused elsewhere, so the table sums to the traced wall by construction.
What is left on a root span is time during which nothing watched was
running (for a serve job: the client asleep between polls while the
daemon was idle too).
"""

import heapq
import importlib
import itertools
import os
import threading
import time

#: ``(span_name, module, target)``. ``target`` is ``"function"`` or
#: ``"Class.attribute"``. Several targets may share one span name.
SPANS = [
    # machine
    ("machine.run", "repro.machine.executor", "Machine.run"),
    # minic / loader: the builders bind compile_source at import time,
    # so the name is wrapped where it is looked up.
    ("minic.compile", "repro.bench.collatz", "compile_source"),
    ("minic.compile", "repro.bench.ising", "compile_source"),
    ("minic.compile", "repro.bench.mm2", "compile_source"),
    # core
    ("recognizer.find", "repro.core.recognizer", "Recognizer.find"),
    ("recognizer.find", "repro.core.recognizer",
     "Recognizer.find_for_memoization"),
    ("excitation.observe", "repro.core.excitation",
     "ExcitationTracker.observe"),
    ("excitation.materialize", "repro.core.excitation",
     "ExcitationTracker.materialize"),
    ("predictors.observe", "repro.core.predictors.ensemble",
     "PredictorEnsemble.observe"),
    ("allocator.advance", "repro.core.allocator", "Allocator.advance"),
    ("allocator.dispatch_order", "repro.core.allocator",
     "Allocator.dispatch_order"),
    ("cache.lookup", "repro.core.trajectory_cache",
     "TrajectoryCache.lookup"),
    ("cache.insert", "repro.core.trajectory_cache",
     "TrajectoryCache.insert"),
    ("cache.from_execution", "repro.core.trajectory_cache",
     "CacheEntry.from_execution"),
    ("cache.apply", "repro.core.trajectory_cache", "CacheEntry.apply"),
    ("memo.run", "repro.core.engine", "MemoizingEngine.run"),
    ("store.snapshot", "repro.core.cache_store",
     "SharedCacheStore.snapshot"),
    ("store.merge", "repro.core.cache_store", "SharedCacheStore.merge"),
    ("store.flush", "repro.core.cache_store", "SharedCacheStore.flush"),
    # runtime
    ("engine.run", "repro.runtime.engine", "RealParallelEngine.run"),
    ("pool.spawn", "repro.runtime.pool", "WorkerPool.__init__"),
    ("pool.shutdown", "repro.runtime.pool", "WorkerPool.shutdown"),
    ("pool.quiesce", "repro.runtime.pool", "WorkerPool.quiesce"),
    ("pool.submit", "repro.runtime.pool", "WorkerPool.submit"),
    ("pool.poll", "repro.runtime.pool", "WorkerPool.poll"),
    # serve
    ("client.submit", "repro.serve.client", "ServeClient.submit"),
    ("client.poll", "repro.serve.client", "ServeClient.poll"),
    ("client.result", "repro.serve.client", "ServeClient.result"),
    ("daemon.handle", "repro.serve.daemon", "SpeculationDaemon._handle"),
    ("daemon.acquire_lease", "repro.serve.daemon",
     "SpeculationDaemon._acquire_lease"),
    ("daemon.run_job", "repro.serve.daemon", "SpeculationDaemon._run_job"),
    ("journal.record_submit", "repro.serve.journal",
     "JobJournal.record_submit"),
    ("journal.record_state", "repro.serve.journal",
     "JobJournal.record_state"),
    ("journal.store_result", "repro.serve.journal",
     "JobJournal.store_result"),
]

#: Name of the per-op root span the harness opens around each job.
ROOT = "op"


def resolve(module_name, target):
    """``(owner, attribute, raw)`` for one :data:`SPANS` target.

    ``raw`` is the object stored in the owner's namespace — a plain
    function, or the ``classmethod``/``staticmethod`` wrapping one.
    Raises ``AttributeError`` when the target is gone."""
    owner = importlib.import_module(module_name)
    *path, attribute = target.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner).get(attribute)
    if raw is None:
        raise AttributeError("%s has no attribute %s of its own"
                             % (owner.__name__, attribute))
    return owner, attribute, raw


class Tracer:
    """Installs the wrappers and keeps the spans in memory.

    ``spans`` is a list of ``(id, name, start, end, parent, op,
    thread)`` tuples in completion order; times are ``perf_counter``
    seconds and ``wall_offset`` converts them to ``time.time()``.
    """

    def __init__(self, specs=SPANS):
        self.specs = list(specs)
        self.spans = []
        self.pid = os.getpid()
        self.wall_offset = time.time() - time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchor = None  # the harness thread's stack while an op runs
        self._op = None
        self._installed = []  # (owner, attribute, raw)

    # -- installation --------------------------------------------------------

    def install(self):
        if self._installed:
            return
        for name, module_name, target in self.specs:
            owner, attribute, raw = resolve(module_name, target)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, attribute, wrapped)
            self._installed.append((owner, attribute, raw))

    def uninstall(self):
        for owner, attribute, raw in reversed(self._installed):
            setattr(owner, attribute, raw)
        self._installed = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, function):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return function(*args, **kwargs)
            stack = tracer._stack()
            span_id, parent = tracer._enter(stack)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent,
                                     tracer._op, threading.get_ident()))

        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        traced.__wrapped__ = function
        return traced

    def _enter(self, stack):
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
        else:
            anchor = self._anchor
            parent = anchor[-1] if anchor else None
        stack.append(span_id)
        return span_id, parent

    # -- ops -----------------------------------------------------------------

    def op(self, op_id):
        """Context manager: the root span of one job on this thread."""
        return _Op(self, op_id)


class _Op:
    def __init__(self, tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        tracer = self.tracer
        self.stack = tracer._stack()
        tracer._op = self.op_id
        self.span_id, self.parent = tracer._enter(self.stack)
        tracer._anchor = self.stack
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter()
        tracer = self.tracer
        self.stack.pop()
        tracer._anchor = None
        tracer.spans.append((self.span_id, ROOT, self.start, end,
                             self.parent, self.op_id,
                             threading.get_ident()))


# -- analysis ----------------------------------------------------------------

def exclusive_times(spans, root=ROOT):
    """Partition root-covered wall time among spans.

    Returns ``(self_seconds, calls, wall)``: per-name exclusive seconds
    and span counts, and the total duration of the root spans. Each
    instant inside a root span goes to the most recently started span
    open at that instant, so ``sum(self_seconds.values()) == wall`` up
    to float rounding.
    """
    events = []  # (time, 0 close / 1 open, index)
    calls = {}
    for index, span in enumerate(spans):
        name, start, end = span[1], span[2], span[3]
        calls[name] = calls.get(name, 0) + 1
        events.append((start, 1, index))
        events.append((end, 0, index))
    events.sort()
    self_seconds = {}
    closed = set()
    open_heap = []  # (-start, -index): latest start wins, then latest id
    roots_open = 0
    wall = 0.0
    previous = None
    for moment, kind, index in events:
        if previous is not None and roots_open and moment > previous:
            while open_heap and -open_heap[0][1] in closed:
                closed.discard(-heapq.heappop(open_heap)[1])
            if open_heap:
                name = spans[-open_heap[0][1]][1]
                self_seconds[name] = (self_seconds.get(name, 0.0)
                                      + moment - previous)
            wall += moment - previous
        previous = moment
        if kind:
            heapq.heappush(open_heap, (-spans[index][2], -index))
            if spans[index][1] == root:
                roots_open += 1
        else:
            closed.add(index)
            if spans[index][1] == root:
                roots_open -= 1
    return self_seconds, calls, wall


def inclusive_seconds(spans, name):
    """Durations of every span called ``name``."""
    return [span[3] - span[2] for span in spans if span[1] == name]


def seconds_under(spans, name, ancestor):
    """Summed duration of ``name`` spans that have an ``ancestor``-named
    span somewhere up their parent chain (same-thread nesting only
    matters here: leaf spans such as ``machine.run``)."""
    by_id = {span[0]: span for span in spans}
    total = 0.0
    for span in spans:
        if span[1] != name:
            continue
        parent = by_id.get(span[4])
        while parent is not None and parent[1] != ancestor:
            parent = by_id.get(parent[4])
        if parent is not None:
            total += span[3] - span[2]
    return total
