"""The benchmark of record: wall-clock against sequential, layer by layer.

    python3 benchmarks/e2e/run.py --seed 11

runs the four workloads named in ``BENCHMARK.json`` (each in a fresh
interpreter, one after another), checks every job's final state against
the sequential oracle, prints every end-to-end metric by name with
unit, direction and spread, then makes a second, shorter **traced**
pass and prints where each workload's wall time went, layer by layer.
README.md explains the workloads, the metrics and the bounds.

    --workload NAME --seed N --seconds S --trace 0|1
        one run of one workload in this interpreter; the last line of
        output is the result as one JSON object (the driver's contract)
    --compare A.json B.json
        direction-aware comparison of two records; refuses records
        made under different conditions
    --check-repeat [--runs N]
        measure everything twice and fail unless the two sets agree
        within each metric's own bound
"""

import argparse
import ctypes
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import records  # noqa: E402  (sibling module, needs HERE on the path)

ROOT = records.ROOT
RESULTS = os.path.join(HERE, "results")
#: Scratch space of a run, relative to ROOT (kept short: it holds a
#: unix socket) and removed when the run ends.
WORK = os.path.join("benchmarks", "e2e", ".work")

SETUP_PASSES = 3
MIN_OPS = 3


# -- environment -----------------------------------------------------------------

def bootstrap():
    """Point this interpreter at the program under test; returns the
    seconds its import took (part of ``setup_s``)."""
    os.chdir(ROOT)
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        # A developer's shell must not change the measured configuration.
        del os.environ[key]
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit("run.py: no program to measure: %s is missing"
                 % os.path.join(source, "repro"))
    sys.path.insert(0, source)
    started = time.perf_counter()
    import tracer  # noqa: F401
    import workloads  # noqa: F401
    return time.perf_counter() - started


def adopt_orphans():
    """Make this process the one its orphaned descendants fall to
    (``PR_SET_CHILD_SUBREAPER``). A daemon's own helpers (its
    multiprocessing resource tracker) outlive it by a moment; adopted,
    :func:`stop_descendants` can wait for them like for any child."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        return False


def child_pids():
    """Pids whose parent is this process (zombies too)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_descendants(patience=20.0):
    """Leave no process behind: stop this interpreter's multiprocessing
    resource tracker (started by the first shm segment; it would
    otherwise outlive us by a moment), then wait for every child,
    adopted orphans too, killing what is still there after
    ``patience`` seconds. Returns the pids that had to be killed."""
    try:
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()
    except Exception:  # private API: absent or changed is not fatal
        pass
    killed = []
    deadline = time.monotonic() + patience
    while True:
        try:
            pid, __ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed  # no child left
        if pid:
            continue
        if time.monotonic() > deadline:
            # Again on every pass: killing a child hands us its children.
            for pid in child_pids():
                if pid not in killed:
                    killed.append(pid)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb():
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


# -- one run of one workload -----------------------------------------------------

class Op:
    """One attempted job."""

    def __init__(self, index, traced):
        self.index = index
        self.traced = traced
        self.wall = None
        self.self_cpu = 0.0
        self.child_cpu = 0.0
        self.problems = []
        self.counters = {}
        self.job_id = None

    @property
    def ok(self):
        return not self.problems


def run_op(workload, op, tracer):
    from workloads import check_outcome
    cpu = time.process_time()
    child = children_cpu()
    started = time.perf_counter()
    try:
        if op.traced:
            with tracer.op(op.index):
                outcome = workload.run_op(op.index)
        else:
            outcome = workload.run_op(op.index)
        op.wall = time.perf_counter() - started
        op.self_cpu = time.process_time() - cpu
        op.child_cpu = children_cpu() - child
        op.problems = check_outcome(outcome)
        op.counters = outcome.counters
        op.job_id = outcome.job_id
    except Exception as exc:  # a failed op is counted, not fatal
        op.problems = ["raised %s: %s" % (type(exc).__name__, exc)]
    return op


def measure(workload, seed, seconds, trace, tracer):
    """Set up ``SETUP_PASSES`` times, warm up, then run jobs for
    ``seconds``. Returns a dict of everything observed."""
    block = workload.block
    setup_passes, seq_runs, seq_problems = [], [], []
    if trace:
        tracer.install()
    try:
        for __ in range(SETUP_PASSES):
            workload.discard()
            child_baseline = children_cpu()
            started = time.perf_counter()
            workload.prepare(seed)
            setup_passes.append(time.perf_counter() - started)
            seq_runs.append(workload.seq_seconds_in_setup())
    finally:
        tracer.uninstall()
    setup_spans, tracer.spans = tracer.spans, []
    instructions = workload.instructions()
    weights = workload.weights()

    # One discarded block. In-process caches, lazy imports and, on
    # serve-mix, the first submission of every image (a cold namespace)
    # fill here, so every measured block is like every other however
    # many of them the machine fits into the run.
    warmup_s = 0.0
    for index in range(-block, 0):
        warm = run_op(workload, Op(index, False), tracer)
        if not warm.ok:
            raise RuntimeError("warm-up failed: %s" % warm.problems)
        warmup_s += warm.wall
    child_baseline = children_cpu()  # its workers are not a job's

    def sequential():
        seconds, ok = workload.run_sequential()
        seq_runs.append(seconds)
        if not ok:
            seq_problems.append("a sequential run differed from its "
                                "own oracle")

    # Jobs come in blocks (one job; a whole period of the serve loop)
    # so that every run measures the same composition of jobs.
    ops, block_seconds = [], []
    loop_started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_started
        typical = statistics.median(block_seconds) if block_seconds else 0.0
        # Start another block while at least half of it fits.
        if len(ops) >= MIN_OPS and elapsed + typical / 2 > seconds:
            break
        block_started = time.perf_counter()
        number = len(ops) // block
        # The yardstick runs beside the jobs, alternating which goes
        # first, so that drift of the machine hits both alike.
        if not trace and number % 2 == 0:
            sequential()
        for index in range(len(ops), len(ops) + block):
            op = Op(index, trace and number % 2 == 0)
            if op.traced:
                tracer.install()
            try:
                run_op(workload, op, tracer)
            finally:
                tracer.uninstall()
            ops.append(op)
        if not trace and number % 2 == 1:
            sequential()
        block_seconds.append(time.perf_counter() - block_started)

    if trace:
        tracer.install()  # the daemon's teardown belongs to the table
    try:
        extra = workload.finish()
    finally:
        tracer.uninstall()
    return {
        "setup_passes": setup_passes, "setup_spans": setup_spans,
        "warmup_s": warmup_s, "warmup_ops": block, "ops": ops,
        "seq_runs": seq_runs,
        "weights": weights, "seq_problems": seq_problems, "extra": extra,
        "instructions": instructions,
        "children_cpu": children_cpu() - child_baseline,
    }


# -- metrics -----------------------------------------------------------------------

def sequential_seconds(observed):
    """Sequential seconds per job: the median time of each program
    over every plain run made (set-up oracles and the runs beside the
    jobs), summed as a job weighs them. Per-program medians keep one
    slow run of one program from moving the yardstick."""
    per_program = zip(*observed["seq_runs"])
    return sum(weight * statistics.median(seconds)
               for weight, seconds in zip(observed["weights"], per_program))


def end_to_end(observed, import_s):
    """``(value, samples)`` of every end-to-end metric. The value is
    the median of the samples, except ``seq_wall_s`` (see
    :func:`sequential_seconds`; its samples are whole plain runs)."""
    ok = [op for op in observed["ops"] if op.ok]
    busy = sum(op.wall for op in observed["ops"] if op.wall is not None)
    # Children reaped inside a job (a one-shot pool's workers) are that
    # job's; a daemon's CPU is only known once it has been reaped at
    # the end, and is shared evenly over the jobs it served (those of
    # the warm-up too).
    unowned = (observed["children_cpu"]
               - sum(op.child_cpu for op in observed["ops"]))
    share = unowned / (len(observed["ops"]) + observed["warmup_ops"])
    cpu = [op.self_cpu + op.child_cpu + share for op in ok]
    samples = {
        "setup_s": [import_s + p for p in observed["setup_passes"]],
        "wall_s": [op.wall for op in ok],
        "seq_wall_s": [sum(w * t for w, t in zip(observed["weights"], run))
                       for run in observed["seq_runs"]],
        "jobs_per_s": [len(ok) / busy] if ok else [],
        "cpu_s": cpu,
        "peak_rss_mb": [peak_rss_mb()],
    }
    values = {name: statistics.median(made) if made else None
              for name, made in samples.items()}
    values["seq_wall_s"] = sequential_seconds(observed)
    return {name: (values[name], samples[name]) for name in samples}


def per_layer(observed, spans, wall_offset, contract):
    """Every per-layer metric of the contract, per job. ``wall_offset``
    turns span times into ``time.time()`` (the daemon's job clock)."""
    import tracer as tr
    ops = [op for op in observed["ops"] if op.ok]
    traced = [op for op in ops if op.traced]
    n_ops = max(1, len(ops))
    n_traced = max(1, len(traced))
    extra = observed["extra"]
    self_s, calls, wall = tr.exclusive_times(spans)

    def total(counter, among=ops):
        return sum(op.counters.get(counter, 0) for op in among)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    values = {}
    aliases = {"memo.loop": "memo.run", "engine.loop": "engine.run",
               "trace.unattributed": tr.ROOT}
    for metric in contract["per_layer"]:
        name = metric["name"]
        if name.endswith(".self_s"):
            span = aliases.get(name[:-7], name[:-7])
            values[name] = self_s.get(span, 0.0) / n_traced
        elif name.endswith(".calls"):
            values[name] = calls.get(name[:-6], 0) / n_traced

    # machine
    values["machine.mips_plain"] = ratio(
        observed["instructions"], sequential_seconds(observed)) / 1e6
    dep_seconds = tr.seconds_under(spans, "machine.run", "memo.run")
    values["machine.mips_dep"] = ratio(total("executed", traced),
                                       dep_seconds) / 1e6
    values["machine.dep_tax"] = ratio(values["machine.mips_plain"],
                                      values["machine.mips_dep"])
    values["minic.compile_s"] = sum(tr.inclusive_seconds(
        observed["setup_spans"], "minic.compile")) / SETUP_PASSES
    # cache, engine
    values["cache.hit_ratio"] = ratio(total("hits"), total("queries"))
    values["cache.ff_share"] = ratio(
        total("fast_forwarded"),
        total("fast_forwarded") + total("executed"))
    values["engine.supersteps"] = total("supersteps") / n_ops
    values["engine.first_splice_s"] = total("first_splice_s") / n_ops
    engine_s = sum(tr.inclusive_seconds(spans, "engine.run"))
    values["engine.boundary_ms"] = 1e3 * ratio(
        engine_s - tr.seconds_under(spans, "machine.run", "engine.run"),
        total("supersteps", traced) if engine_s else 0)
    # workers, transport
    values["worker.cpu_s"] = ratio(
        observed["children_cpu"], len(observed["ops"]))
    values["worker.instructions"] = total("worker_instructions") / n_ops
    values["worker.tasks_ok"] = total("tasks_ok") / n_ops
    values["worker.tasks_failed"] = total("tasks_failed") / n_ops
    values["spec.dispatched"] = total("dispatched") / n_ops
    values["spec.useful_ratio"] = ratio(total("entries_used"),
                                        total("entries_shipped"))
    values["transport.pipe_bytes"] = total("pipe_bytes") / n_ops
    values["transport.shm_bytes"] = total("shm_bytes") / n_ops
    values["transport.delta_ratio"] = ratio(total("state_bytes_raw"),
                                            total("state_bytes_shipped"))
    values["transport.shm_fallbacks"] = total("shm_fallbacks") / n_ops
    # serve: the client's view, then the daemon's
    values["client.submit_rtt_s"] = mean(
        tr.inclusive_seconds(spans, "client.submit"))
    values["client.result_rtt_s"] = mean(
        tr.inclusive_seconds(spans, "client.result"))
    values["client.polls_per_job"] = calls.get("client.poll", 0) / n_traced
    jobs = extra.get("jobs", {})
    rows = [jobs[op.job_id] for op in ops if op.job_id in jobs]
    last_poll = {}
    for span in spans:
        if span[1] == "client.poll":
            last_poll[span[5]] = max(last_poll.get(span[5], 0.0), span[3])
    values["client.poll_lag_s"] = mean(
        last_poll[op.index] + wall_offset - jobs[op.job_id]["finished_at"]
        for op in traced
        if op.index in last_poll and op.job_id in jobs)
    percent, tail = records.tail_percentile([op.wall for op in ops])
    values["wall_tail_s"] = tail or 0.0
    values["queue.wait_s"] = mean(
        row["started_at"] - row["submitted_at"] for row in rows)
    values["daemon.engine_s"] = ratio(total("engine_s"), len(rows))
    values["daemon.lease_s"] = mean(
        row["finished_at"] - row["started_at"] for row in rows) \
        - values["daemon.engine_s"] if rows else 0.0
    daemon = extra.get("daemon", {})
    values["daemon.pools_created"] = daemon.get("pools_created", 0)
    values["daemon.pool_hit_ratio"] = (
        1.0 - ratio(daemon.get("pools_created", 0), len(jobs))
        if jobs else 0.0)
    values["journal.records_appended"] = (
        (daemon.get("journal") or {}).get("records_appended", 0))
    store = daemon.get("cache", {})
    values["store.entries_merged"] = store.get("entries_merged", 0)
    values["store.flushes"] = store.get("flushes", 0)
    values["store.warm_entries_p50"] = (
        statistics.median(op.counters["warm_entries"] for op in ops)
        if rows and ops else 0.0)
    # the trace itself
    with_trace = [op.wall for op in ops if op.traced]
    without = [op.wall for op in ops if not op.traced]
    values["trace.overhead_ratio"] = (
        statistics.median(with_trace) / statistics.median(without) - 1.0
        if with_trace and without else 0.0)
    values["trace.coverage"] = 1.0 - ratio(self_s.get(tr.ROOT, 0.0), wall)
    values["trace.wall_s"] = wall / n_traced

    table = sorted(((name, seconds / n_traced, calls.get(name, 0) / n_traced)
                    for name, seconds in self_s.items()),
                   key=lambda row: -row[1])
    ordered = {metric["name"]: values[metric["name"]]
               for metric in contract["per_layer"]}
    return ordered, {"rows": table, "wall_s": wall / n_traced,
                     "traced_ops": len(traced),
                     "tail_percentile": percent}


# -- reporting ---------------------------------------------------------------------

def print_end_to_end(name, entry, contract, info):
    print("== %s: end to end (workers=%d, nproc=%d, seed=%d, %ds) =="
          % (name, info["workers"], info["affinity"], info["seed"],
             info["seconds"]))
    for metric in contract["end_to_end"]:
        summary = entry["end_to_end"][metric["name"]]
        print("  %-12s %10.4f %-4s %-6s better  n=%-3d q1..q3 %.4f..%.4f"
              "  min..max %.4f..%.4f  (regression bound %.0f%%)"
              % (metric["name"], summary["value"], metric["unit"],
                 metric["better"], summary["n"], summary["q1"],
                 summary["q3"], summary["min"], summary["max"],
                 100 * metric["bound"]))
    speed = entry["derived"]["speedup_vs_seq"]
    print("  %-12s %10.4f x    (= %s: %.4f s / %.4f s; derived, not "
          "gated)" % ("speedup_vs_seq", speed["value"],
                      records.RATIO_BASE["speedup_vs_seq"],
                      speed["seq_wall_s"], speed["wall_s"]))
    print("  %-12s %10.4f ratio lower  better  (%d failed / %d attempted "
          "operations; must be 0)"
          % ("error_rate", entry["failed"] / entry["attempted"],
             entry["failed"], entry["attempted"]))


def print_per_layer(name, entry, contract):
    table = entry["layer_table"]
    print("== %s: where a job's wall went (%d traced jobs, %.4f s per "
          "job) ==" % (name, table["traced_ops"], table["wall_s"]))
    print("  %-26s %12s %8s %12s" % ("span", "self s/job", "share",
                                     "calls/job"))
    for span, seconds, count in table["rows"]:
        print("  %-26s %12.5f %7.1f%% %12.1f"
              % (span if span != "op" else "op (nothing watched ran)",
                 seconds, 100 * seconds / table["wall_s"]
                 if table["wall_s"] else 0.0, count))
    print("  %-26s %12.5f %7.1f%%" % (
        "sum", sum(row[1] for row in table["rows"]), 100.0))
    print("== %s: per layer ==" % name)
    for metric in contract["per_layer"]:
        base = records.RATIO_BASE.get(metric["name"])
        print("  %-32s %14.6g %-5s %-6s better%s"
              % (metric["name"], entry["per_layer"][metric["name"]],
                 metric["unit"], metric["better"],
                 "  (= %s)" % base if base else ""))


def run_one(args):
    import_s = bootstrap()
    import tracer as tr
    from repro.runtime import shm
    from workloads import WORKLOADS

    contract = records.load_contract()
    if args.workload not in WORKLOADS:
        sys.exit("run.py: unknown workload %r (have: %s)"
                 % (args.workload, ", ".join(WORKLOADS)))
    workers = records.default_workers()
    info = records.provenance(args.seed, args.seconds, workers)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    tracer = tr.Tracer()
    workload = WORKLOADS[args.workload](workers, workdir, bool(args.trace))
    try:
        try:
            observed = measure(workload, args.seed, args.seconds,
                               bool(args.trace), tracer)
        finally:
            tracer.uninstall()
            try:
                workload.discard()
            finally:
                killed = stop_descendants()
        leftovers = os.listdir(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    ops = observed["ops"]
    failures = ["job %d: %s" % (op.index, "; ".join(op.problems))
                for op in ops if not op.ok]
    hygiene = list(observed["seq_problems"])
    hygiene += observed["extra"].get("problems", [])
    if leftovers:
        hygiene.append("left in the temp dir: %s" % ", ".join(leftovers))
    if killed:
        hygiene.append("processes still running at the end, killed: %s"
                       % ", ".join(map(str, killed)))
    segments = shm.live_segment_names()
    if segments:
        hygiene.append("leaked shm segments: %s" % ", ".join(segments))
    failed = len(failures)
    if hygiene and failed < len(ops):
        failed += 1  # whatever was left behind fails the job that left it
    entry = {"attempted": len(ops), "failed": failed,
             "failures": failures + hygiene,
             "warmup_s": observed["warmup_s"], "import_s": import_s}

    dump = []
    if args.trace:
        entry["per_layer"], entry["layer_table"] = per_layer(
            observed, tracer.spans, tracer.wall_offset, contract)
        metrics = {m["name"]: {"value": entry["per_layer"][m["name"]],
                               "unit": m["unit"]}
                   for m in contract["per_layer"]}
        print_per_layer(args.workload, entry, contract)
        first = next((op.index for op in ops if op.traced), None)
        dump = [span for span in tracer.spans if span[5] == first]
    else:
        entry["end_to_end"] = {}
        measured = end_to_end(observed, import_s)
        for metric in contract["end_to_end"]:
            value, samples = measured[metric["name"]]
            summary = records.summarize(samples)
            summary.update(value=value, samples=samples,
                           unit=metric["unit"], better=metric["better"],
                           bound=metric["bound"])
            entry["end_to_end"][metric["name"]] = summary
        metrics = {}
        if all(s["value"] for s in entry["end_to_end"].values()):
            wall = entry["end_to_end"]["wall_s"]["value"]
            seq = entry["end_to_end"]["seq_wall_s"]["value"]
            entry["derived"] = {"speedup_vs_seq": {
                "value": seq / wall, "seq_wall_s": seq, "wall_s": wall,
                "base": records.RATIO_BASE["speedup_vs_seq"]}}
            print_end_to_end(args.workload, entry, contract, info)
            metrics = {m["name"]: {
                "value": entry["end_to_end"][m["name"]]["value"],
                "unit": m["unit"]} for m in contract["end_to_end"]}
    for line in entry["failures"]:
        print("FAILED: " + line)

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-trace%d.json"
                        % (args.workload, args.trace))
    with open(path, "w") as handle:
        json.dump({"provenance": info,
                   "workloads": {args.workload: entry},
                   "spans_of_first_traced_job": dump,
                   "span_fields": ["id", "name", "start", "end", "parent",
                                   "op", "thread"]}, handle)
        handle.write("\n")
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": max(1, len(ops)), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 and metrics else 1


# -- the full benchmark: every workload, fresh interpreters --------------------------

def child_run(workload, seed, seconds, trace):
    """One run in a fresh interpreter; returns its record."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    sys.stdout.flush()
    if done.returncode != 0:
        print("run.py: %s (seed %d, trace %d) exited with %d: %s"
              % (workload, seed, trace, done.returncode, lines[-1]))
    with open(os.path.join(RESULTS, "%s-trace%d.json"
                           % (workload, trace))) as handle:
        record = json.load(handle)
    return record, done.returncode == 0


def collect(seed, seconds, runs, traced_pass):
    """One *set*: every workload ``runs`` times (seeds ``seed``,
    ``seed + 1``, ...). With one run a metric's spread is over its jobs;
    with several it is over the runs' values. Returns ``(record, ok)``.
    """
    contract = records.load_contract()
    combined = {"provenance": None, "workloads": {}}
    all_ok = True
    for workload in (entry["name"] for entry in contract["workloads"]):
        made = []
        for run in range(runs):
            record, ok = child_run(workload, seed + run, seconds, 0)
            all_ok = all_ok and ok
            made.append(record["workloads"][workload])
            if combined["provenance"] is None:
                combined["provenance"] = dict(record["provenance"],
                                              seed=seed, runs=runs)
        entry = made[0]
        if runs > 1:
            entry = dict(entry, attempted=sum(e["attempted"] for e in made),
                         failed=sum(e["failed"] for e in made),
                         failures=[f for e in made for f in e["failures"]])
            entry["end_to_end"] = {}
            for metric in contract["end_to_end"]:
                values = [e["end_to_end"][metric["name"]]["value"]
                          for e in made if "end_to_end" in e]
                summary = records.summarize(values)
                summary.update(value=summary["median"], samples=values,
                               unit=metric["unit"],
                               better=metric["better"],
                               bound=metric["bound"])
                entry["end_to_end"][metric["name"]] = summary
        if traced_pass:
            record, ok = child_run(workload, seed, seconds, 1)
            all_ok = all_ok and ok
            traced = record["workloads"][workload]
            entry["per_layer"] = traced.get("per_layer")
            entry["layer_table"] = traced.get("layer_table")
            entry["failed"] += traced["failed"]
            entry["attempted"] += traced["attempted"]
        combined["workloads"][workload] = entry
    return combined, all_ok


def full(args):
    record, ok = collect(args.seed, args.seconds, args.runs, True)
    path = os.path.join(RESULTS, "latest.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print("record written to %s" % os.path.relpath(path, ROOT))
    return 0 if ok else 1


def check_repeat(args):
    """Two sets of the untraced pass on the same checkout must agree
    within every metric's own bound."""
    contract = records.load_contract()
    first, ok_first = collect(args.seed, args.seconds, args.runs, False)
    second, ok_second = collect(args.seed, args.seconds, args.runs, False)
    for label, record in (("A", first), ("B", second)):
        with open(os.path.join(RESULTS, "repeat-%s.json" % label),
                  "w") as handle:
            json.dump(record, handle, indent=1)
    rows, __ = records.compare(first, second, contract)
    print(records.format_rows(rows))
    bad = [row for row in rows if row["verdict"] != "same"]
    if args.runs > 1:
        print("spread between the %d runs of a set (q3 - q1 as a share of "
              "the median; base = that set's median):" % args.runs)
        for row in rows:
            if row["metric"] == "error_rate":
                continue
            spreads = [records.spread(row[side]) or 0.0
                       for side in ("parent", "change")]
            wide = row["metric"] != "setup_s" \
                and max(spreads) > row["bound"]
            print("  %-12s %-12s A %.3f  B %.3f  bound %.2f%s"
                  % (row["workload"], row["metric"], spreads[0],
                     spreads[1], row["bound"],
                     "  WIDER THAN ITS BOUND" if wide else ""))
            if wide:
                bad.append(row)
    if bad or not (ok_first and ok_second):
        print("check-repeat: FAILED (%d pairs disagree or spread too "
              "wide%s)" % (len(bad), "" if ok_first and ok_second
                           else "; operations failed"))
        return 1
    print("check-repeat: ok, the two sets agree within every bound")
    return 0


def compare_files(paths):
    loaded = []
    for path in paths:
        with open(path) as handle:
            loaded.append(json.load(handle))
    try:
        rows, ok = records.compare(*loaded)
    except records.Mismatch as exc:
        print("run.py --compare: %s" % exc)
        return 2
    print(records.format_rows(rows))
    return 0 if ok else 1


def main(argv=None):
    contract_seconds = records.load_contract()["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=contract_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload in a set (seeds seed, "
                             "seed+1, ...)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare_files(args.compare)
    adopt_orphans()
    try:
        if args.workload:
            return run_one(args)
        bootstrap()
        if args.check_repeat:
            return check_repeat(args)
        return full(args)
    finally:
        # On every path out, also the failing ones: no process of ours
        # (workers, daemon, their resource trackers) outlives the run.
        stop_descendants()


if __name__ == "__main__":
    sys.exit(main())
