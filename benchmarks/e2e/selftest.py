"""Self-test of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/selftest.py -q

Checks the parts of the harness a wrong number could hide behind: the
self-time arithmetic, that every watched function still exists, the
percentile rule, that a wrong final state is counted as a failed
operation, that records made under different conditions are not
compared, and that no process outlives a run.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))

import records  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


# -- tracer ----------------------------------------------------------------------

def span(span_id, name, start, end, parent=None, op=0, thread=1):
    return (span_id, name, start, end, parent, op, thread)


def test_self_time_of_a_nested_tree_sums_to_the_root():
    spans = [
        span(1, tr.ROOT, 0.0, 10.0),
        span(2, "engine.run", 1.0, 9.0, parent=1),
        span(3, "machine.run", 2.0, 4.0, parent=2),
        span(4, "machine.run", 5.0, 8.0, parent=2),
        span(5, "cache.lookup", 6.0, 7.0, parent=4),
    ]
    self_s, calls, wall = tr.exclusive_times(spans)
    assert wall == pytest.approx(10.0)
    assert self_s[tr.ROOT] == pytest.approx(2.0)
    assert self_s["engine.run"] == pytest.approx(3.0)
    assert self_s["machine.run"] == pytest.approx(4.0)
    assert self_s["cache.lookup"] == pytest.approx(1.0)
    assert sum(self_s.values()) == pytest.approx(wall)
    assert calls == {tr.ROOT: 1, "engine.run": 1, "machine.run": 2,
                     "cache.lookup": 1}


def test_self_time_across_threads_counts_every_instant_once():
    # The client (thread 1) polls while the daemon's job thread
    # (thread 2) works: the overlap must not be counted twice, and the
    # daemon span that outlives the job is clipped to the root.
    spans = [
        span(1, tr.ROOT, 0.0, 10.0, thread=1),
        span(2, "client.submit", 0.0, 1.0, parent=1, thread=1),
        span(3, "daemon.run_job", 0.5, 11.0, parent=2, thread=2),
        span(4, "machine.run", 2.0, 6.0, parent=3, thread=2),
        span(5, "client.poll", 5.0, 5.5, parent=1, thread=1),
        span(6, "store.flush", 12.0, 13.0, parent=None, thread=2),
    ]
    self_s, __, wall = tr.exclusive_times(spans)
    assert wall == pytest.approx(10.0)
    assert sum(self_s.values()) == pytest.approx(wall)
    assert self_s["client.submit"] == pytest.approx(0.5)
    assert self_s["client.poll"] == pytest.approx(0.5)
    assert self_s["machine.run"] == pytest.approx(3.5)
    assert self_s["daemon.run_job"] == pytest.approx(1.5 + 4.0)
    assert "store.flush" not in self_s  # ran while no job was open
    assert self_s.get(tr.ROOT, 0.0) == pytest.approx(0.0)


def test_seconds_under_follows_the_parent_chain():
    spans = [
        span(1, "recognizer.find", 0.0, 3.0),
        span(2, "machine.run", 1.0, 2.0, parent=1),
        span(3, "memo.run", 3.0, 9.0),
        span(4, "machine.run", 4.0, 6.0, parent=3),
        span(5, "cache.lookup", 6.0, 7.0, parent=3),
        span(6, "machine.run", 7.0, 8.5, parent=3),
    ]
    assert tr.seconds_under(spans, "machine.run", "memo.run") \
        == pytest.approx(3.5)


@pytest.mark.parametrize("name,module,target", tr.SPANS)
def test_every_span_target_resolves(name, module, target):
    __, __, raw = tr.resolve(module, target)
    function = getattr(raw, "__func__", raw)
    assert callable(function), "%s.%s is not callable" % (module, target)


def test_a_renamed_target_fails_loudly():
    with pytest.raises(AttributeError):
        tr.resolve("repro.machine.executor", "Machine.run_fast")


def test_every_span_metric_of_the_contract_has_a_span():
    names = {name for name, __, __ in tr.SPANS}
    aliases = {"memo.loop": "memo.run", "engine.loop": "engine.run",
               "trace.unattributed": tr.ROOT}
    for metric in records.load_contract()["per_layer"]:
        for suffix in (".self_s", ".calls"):
            if metric["name"].endswith(suffix):
                stem = metric["name"][:-len(suffix)]
                assert aliases.get(stem, stem) in names | {tr.ROOT}, \
                    metric["name"]


class _Layer:
    """A stand-in layer: instance, class and static entry points."""

    def outer(self, inner_thread=False):
        if inner_thread:
            worker = threading.Thread(target=self.inner)
            worker.start()
            worker.join()
        else:
            self.inner()
        return "outer"

    def inner(self):
        return self.leaf(2)

    @classmethod
    def leaf(cls, value):
        return value * 2


def test_install_records_spans_and_uninstall_restores(monkeypatch):
    module = sys.modules[__name__]
    specs = [("layer.outer", module.__name__, "_Layer.outer"),
             ("layer.inner", module.__name__, "_Layer.inner"),
             ("layer.leaf", module.__name__, "_Layer.leaf")]
    originals = {name: vars(_Layer)[name]
                 for name in ("outer", "inner", "leaf")}
    tracer = tr.Tracer(specs)
    tracer.install()
    try:
        with tracer.op(7):
            assert _Layer().outer() == "outer"
        with tracer.op(8):
            _Layer().outer(inner_thread=True)
    finally:
        tracer.uninstall()
    assert {name: vars(_Layer)[name] for name in originals} == originals
    assert _Layer.leaf(3) == 6
    by_id = {s[0]: s for s in tracer.spans}
    first = [s for s in tracer.spans if s[5] == 7]
    assert sorted(s[1] for s in first) == sorted(
        [tr.ROOT, "layer.outer", "layer.inner", "layer.leaf"])
    for s in first:
        if s[1] != tr.ROOT:
            parent = by_id[s[4]]
            assert parent[2] <= s[2] and s[3] <= parent[3]
    # A span on a fresh thread is adopted by what the harness thread
    # had open: the outer call that started the thread.
    second = {s[1]: s for s in tracer.spans if s[5] == 8}
    assert by_id[second["layer.inner"][4]][1] == "layer.outer"
    assert second["layer.inner"][6] != second["layer.outer"][6]
    before = len(tracer.spans)
    _Layer().outer()
    assert len(tracer.spans) == before  # uninstalled: nothing recorded


# -- percentiles, summaries ------------------------------------------------------

def test_a_tail_percentile_needs_ten_samples_beyond_it():
    assert records.tail_percentile(list(range(19))) == (None, None)
    percent, value = records.tail_percentile(list(range(100)))
    assert percent == pytest.approx(90.0) and value == 89
    assert sum(1 for x in range(100) if x > value) == 10
    percent, value = records.tail_percentile(list(range(33)))
    assert percent < 70 and sum(1 for x in range(33) if x > value) == 10


def test_summary_quartiles_match_statistics_quantiles():
    import statistics
    samples = [1.0, 2.0, 4.0, 8.0, 16.0]
    summary = records.summarize(samples)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    assert (summary["q1"], summary["median"], summary["q3"]) \
        == (q1, median, q3)
    assert records.summarize([3.0])["q1"] == 3.0
    assert records.summarize([])["n"] == 0


# -- correctness of an operation ---------------------------------------------------

@pytest.fixture(scope="module")
def tiny_case():
    from repro.bench import build_collatz
    return workloads.Case(build_collatz(count=30))


def test_a_corrupted_final_byte_is_a_failed_operation(tiny_case):
    good = workloads.Outcome()
    good.finals.append((tiny_case, tiny_case.oracle, True))
    assert workloads.check_outcome(good) == []

    corrupt = bytearray(tiny_case.oracle)
    corrupt[-1] ^= 0x01
    bad = workloads.Outcome()
    bad.finals.append((tiny_case, bytes(corrupt), True))
    assert workloads.check_outcome(bad)

    class Broken:
        def run_op(self, index):
            return bad if index == 1 else good

    ops = [run.run_op(Broken(), run.Op(index, False), None)
           for index in range(4)]
    assert [op.ok for op in ops] == [True, False, True, True]
    assert ops[1].wall is not None  # measured, but it has no latency:
    observed = {"ops": ops, "setup_passes": [1.0], "seq_runs": [[1.0]],
                "weights": [1.0], "children_cpu": 0.0, "warmup_ops": 1}
    value, samples = run.end_to_end(observed, 0.0)["wall_s"]
    assert len(samples) == 3


def test_wrong_ground_truth_is_caught_even_if_the_oracle_agrees(tiny_case):
    workload = tiny_case.workload
    assert workloads.ground_truth_problem(workload, tiny_case.oracle) is None
    expected = dict(workload.expected)
    workload.expected["verified"] = 31
    try:
        assert "verified" in workloads.ground_truth_problem(
            workload, tiny_case.oracle)
    finally:
        workload.expected.update(expected)


def test_an_operation_that_raises_is_counted_not_fatal():
    class Raises:
        def run_op(self, index):
            raise OSError("daemon went away")

    op = run.run_op(Raises(), run.Op(0, False), None)
    assert not op.ok and "OSError" in op.problems[0]


@pytest.mark.parametrize("orphan_sleeps, expect_killed",
                         [("0.2", 0), ("60", 1)])
def test_no_process_outlives_a_run(orphan_sleeps, expect_killed):
    # In an interpreter of its own: the reaper waits for *every* child.
    # The shell exits at once and orphans its sleep, as a daemon does
    # with its resource tracker.
    script = (
        "import subprocess, sys; sys.path.insert(0, %r); import run\n"
        "assert run.adopt_orphans()\n"
        "subprocess.Popen(['sh', '-c', 'sleep %s & exit 0']).wait()\n"
        "killed = run.stop_descendants(patience=1.0)\n"
        "print(len(killed), len(run.child_pids()))\n"
        % (HERE, orphan_sleeps))
    done = subprocess.run([sys.executable, "-c", script], timeout=30,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(expect_killed), "0"]


def test_the_contract_and_the_code_name_the_same_workloads():
    contract = records.load_contract()
    assert [entry["name"] for entry in contract["workloads"]] \
        == list(workloads.WORKLOADS)


def test_serve_order_keeps_its_composition_for_every_seed():
    for seed in range(40):
        order = workloads.serve_order(seed)
        assert sorted(order) == [0] * 4 + [1] * 3 + [2] * 2 + [3]
        switches = sum(order[i] != order[i - 1] for i in range(len(order)))
        assert switches == len(workloads.SERVE_RUNS)
    assert workloads.serve_order(3) == workloads.serve_order(3)
    assert len({tuple(workloads.serve_order(s)) for s in range(40)}) > 1


# -- compare -----------------------------------------------------------------------

def record(wall, nproc=2, failed=0, spread=0.0):
    contract = records.load_contract()
    provenance = {"schema": records.SCHEMA, "nproc": nproc, "affinity": nproc,
                  "workers": 1, "seed": 11, "seconds": 20, "runs": 1,
                  "start_method": "fork", "transport": "shm"}
    entry = {"attempted": 10, "failed": failed, "end_to_end": {}}
    for metric in contract["end_to_end"]:
        value = wall if metric["better"] == "lower" else 1.0 / wall
        low, high = value * (1 - spread / 2), value * (1 + spread / 2)
        summary = records.summarize([low, low, value, high, high])
        entry["end_to_end"][metric["name"]] = dict(summary, value=value)
    return {"provenance": provenance, "workloads": {"memo": entry}}


def verdicts(rows):
    return {row["metric"]: row["verdict"] for row in rows}


def test_compare_refuses_a_different_machine(tmp_path):
    with pytest.raises(records.Mismatch) as failure:
        records.compare(record(1.0, nproc=2), record(1.0, nproc=8))
    assert "nproc" in str(failure.value)
    paths = []
    for index, made in enumerate((record(1.0, nproc=2),
                                  record(1.0, nproc=8))):
        paths.append(str(tmp_path / ("%d.json" % index)))
        with open(paths[-1], "w") as handle:
            json.dump(made, handle)
    assert run.main(["--compare"] + paths) == 2


def test_compare_knows_which_direction_is_better():
    rows, ok = records.compare(record(1.0), record(1.5))
    seen = verdicts(rows)
    # Slower walls and fewer jobs per second are both regressions.
    assert seen["wall_s"] == "worse" and seen["jobs_per_s"] == "worse"
    assert not ok
    rows, ok = records.compare(record(1.5), record(1.0))
    seen = verdicts(rows)
    assert seen["wall_s"] == "better" and seen["jobs_per_s"] == "better"
    assert ok


def test_compare_admits_noise():
    bound = max(metric["bound"]
                for metric in records.load_contract()["end_to_end"])
    rows, ok = records.compare(record(1.0), record(1.02))
    assert set(verdicts(rows).values()) == {"same"} and ok
    # Beyond the bound, but the parent's own quartiles are wider than
    # the bound and the two overlap: not a verdict either way.
    rows, ok = records.compare(record(1.0, spread=3 * bound),
                               record(1.05 + bound, spread=3 * bound))
    assert verdicts(rows)["wall_s"] == "unresolved" and ok


def test_compare_fails_on_a_higher_error_rate():
    rows, ok = records.compare(record(1.0), record(1.0, failed=1))
    assert verdicts(rows)["error_rate"] == "worse" and not ok
