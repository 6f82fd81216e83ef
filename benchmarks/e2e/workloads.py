"""The four workloads of the benchmark of record.

Each workload is an object with the same small surface, driven by
``run.py``:

``prepare(seed)``
    everything a user pays before the first job: build the programs
    from the seed (Mini-C compile + load), run each one sequentially to
    get the oracle final state, check the oracle against the workload's
    independent Python ground truth, and (``serve-mix``) boot a daemon
    to its first ``ping``. Timed as one set-up pass; ``run.py`` repeats
    it and reports the median as ``setup_s``.
``discard()``
    undo ``prepare`` (untimed).
``run_op(index)``
    one job, timed from outside. Returns an :class:`Outcome`.
``run_sequential()``
    the yardstick: the same programs run plainly to halt.
``finish()``
    end of the run: counters that only exist once (the ``stats`` and
    ``jobs`` verbs), daemon shutdown. Returns a dict.

Why these four, and the sizes, is in README.md. The sizes are constants
here so a record can never be a ``quick`` run compared against a
``full`` one.
"""

import base64
import os
import random
import shutil
import subprocess
import sys
import time

from repro.bench import build_collatz, build_ising, build_mm2
from repro.core.config import EngineConfig
from repro.core.engine import MemoizingEngine
from repro.core.recognizer import Recognizer
from repro.machine.state import StateVector
from repro.runtime import RealParallelEngine, RuntimeConfig
from repro.serve import ServeClient, ServeConfig, SpeculationDaemon

MAX_INSTRUCTIONS = 500_000_000

#: Independent ground truth: ``Workload.expected`` key -> program global.
GROUND_TRUTH = {
    "collatz": {"verified": "g_verified"},
    "ising": {"best_energy": "g_result_energy",
              "best_index": "g_result_index"},
    "2mm": {"checksum": "g_checksum"},
}

#: serve-mix: one period of the closed loop is ten jobs over four
#: images in the ratio 4:3:2:1, as runs of one image. With a one-pool
#: worker budget every run start is a pool miss (LRU retire + spawn)
#: and every other job a pool hit, so each period holds exactly seven
#: misses and three hits whatever the seed; the seed only orders the
#: runs (no two neighbours, cyclically, of the same image).
SERVE_RUNS = ((0, 2), (0, 2), (1, 2), (1, 1), (2, 1), (2, 1), (3, 1))
SERVE_PERIOD = sum(length for __, length in SERVE_RUNS)


class Outcome:
    """What one job produced: final states to check, counters to keep."""

    def __init__(self):
        self.finals = []  # (case, final_state bytes, halted)
        self.counters = {}
        self.job_id = None  # serve jobs only

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def add_engine_counters(self, stats, runtime=None):
        """Keep what the per-layer metrics need of ``RunStats.as_dict()``
        and, where a pool ran, ``RuntimeStats.as_dict()`` (or a serve
        job's delta of it)."""
        for name, value in (
                ("supersteps", stats["supersteps"]),
                ("queries", stats["queries"]),
                ("hits", stats["hits"]),
                ("executed", stats["instructions_executed"]),
                ("fast_forwarded", stats["instructions_fast_forwarded"]),
                ("dispatched", stats["speculations_dispatched"]),
                ("first_splice_s", stats["first_splice_seconds"] or 0.0)):
            self.add(name, value)
        if runtime is None:
            return
        for name, value in (
                ("tasks_ok", runtime["entries_shipped"]),
                ("tasks_failed", runtime["tasks_failed"]
                 + runtime["tasks_crashed"] + runtime["tasks_timed_out"]),
                ("entries_shipped", runtime["entries_shipped"]),
                ("entries_used", runtime["entries_used"]),
                ("worker_instructions", runtime["worker_instructions"]),
                ("pipe_bytes", runtime["bytes_sent"]
                 + runtime["bytes_received"]),
                ("shm_bytes", runtime["shm_bytes_written"]
                 + runtime["shm_bytes_read"]),
                ("state_bytes_raw", runtime["state_bytes_raw"]),
                ("state_bytes_shipped", runtime["state_bytes_shipped"]),
                ("shm_fallbacks", runtime["shm_fallbacks"])):
            self.add(name, value)


class Case:
    """One program plus its sequential oracle."""

    def __init__(self, workload):
        self.workload = workload
        self.program = workload.program
        self.config = workload.config
        started = time.perf_counter()
        self.oracle, self.instructions = _sequential(self.program)
        self.seq_seconds = time.perf_counter() - started
        problem = ground_truth_problem(workload, self.oracle)
        if problem:
            raise RuntimeError("oracle of %s is wrong: %s"
                               % (workload.name, problem))


def _sequential(program):
    machine = program.make_machine()
    machine.run(max_instructions=MAX_INSTRUCTIONS)
    if not machine.halted:
        raise RuntimeError("%s did not halt sequentially" % program.name)
    return bytes(machine.state.buf), machine.instruction_count


def run_sequential(cases):
    """The yardstick: each program run plainly to halt. Returns the
    seconds of each, and whether every final state matched its oracle."""
    seconds, ok = [], True
    for case in cases:
        started = time.perf_counter()
        final_state = _sequential(case.program)[0]
        seconds.append(time.perf_counter() - started)
        ok = ok and final_state == case.oracle
    return seconds, ok


def ground_truth_problem(workload, final_state):
    """``None`` when the final state holds the values the workload's
    own Python reference computed, else a one-line description."""
    program = workload.program
    if len(final_state) != program.layout.size:
        return "final state is %d bytes, layout is %d" % (
            len(final_state), program.layout.size)
    state = StateVector(program.layout, bytearray(final_state))
    for key, symbol in GROUND_TRUTH[workload.name].items():
        got = state.read_i32(program.symbol(symbol))
        if got != workload.expected[key]:
            return "%s is %d, ground truth %d" % (
                key, got, workload.expected[key])
    return None


def check_outcome(outcome):
    """Failure reasons of one job (empty list = correct)."""
    problems = []
    for case, final_state, halted in outcome.finals:
        name = case.workload.name
        if not halted:
            problems.append("%s did not halt" % name)
        elif final_state != case.oracle:
            problems.append("%s final state differs from the sequential "
                            "oracle" % name)
        else:
            problem = ground_truth_problem(case.workload, final_state)
            if problem:
                problems.append("%s: %s" % (name, problem))
    return problems


def engine_overrides(config):
    """The non-default ``EngineConfig`` fields, JSON-safe (what a
    ``repro submit`` of a builtin sends)."""
    defaults = EngineConfig().__dict__
    return {key: (list(value) if isinstance(value, tuple) else value)
            for key, value in config.__dict__.items()
            if defaults.get(key) != value}


# -- one-shot workloads --------------------------------------------------------

def _cold_job(case, workers, scale, outcome):
    recognized = Recognizer(case.config).find(case.program)
    engine = RealParallelEngine(
        case.program, config=case.config,
        runtime_config=RuntimeConfig(n_workers=workers,
                                     superstep_scale=scale),
        recognized=recognized)
    result = engine.run()
    outcome.finals.append((case, result.final_state, result.halted))
    outcome.add_engine_counters(result.stats.as_dict(),
                                result.runtime.as_dict())
    outcome.add("engine_s", result.wall_seconds)


def _memo_job(case, outcome):
    recognized = Recognizer(case.config).find_for_memoization(case.program)
    result = MemoizingEngine(case.program, config=case.config,
                             recognized=recognized).run(
                                 max_instructions=MAX_INSTRUCTIONS)
    halted = result.total_instructions == case.instructions
    outcome.finals.append((case, result.final_state, halted))
    outcome.add_engine_counters(result.stats.as_dict())


class _Programs:
    """What both kinds of workload share: ``self.cases`` and the plain
    runs of them."""

    def seq_seconds_in_setup(self):
        return [case.seq_seconds for case in self.cases]

    def run_sequential(self):
        return run_sequential(self.cases)

    def instructions(self):
        """Instructions of one job's sequential equivalent."""
        return sum(weight * case.instructions
                   for weight, case in zip(self.weights(), self.cases))


class OneShot(_Programs):
    """Recognize + run, once per job, nothing kept between jobs."""

    block = 1  # jobs per block: every job is like every other

    def __init__(self, name, builders, job):
        self.name = name
        self.builders = builders
        self.job = job
        self.cases = []

    def prepare(self, seed):
        self.cases = [Case(build(seed)) for build in self.builders]

    def discard(self):
        self.cases = []

    def weights(self):
        """How often a job runs each program."""
        return [1.0] * len(self.cases)

    def run_op(self, index):
        outcome = Outcome()
        for case in self.cases:
            self.job(case, outcome)
        return outcome

    def finish(self):
        return {}


def cold_coarse(workers, workdir, traced):
    return OneShot(
        "cold-coarse",
        [lambda seed: build_collatz(count=3000)],
        lambda case, outcome: _cold_job(case, workers, 64, outcome))


def cold_fine(workers, workdir, traced):
    return OneShot(
        "cold-fine",
        [lambda seed: build_collatz(count=400),
         lambda seed: build_ising(nodes=96, spins=8, seed=seed),
         lambda seed: build_mm2(n=12, seed=seed)],
        lambda case, outcome: _cold_job(case, workers, 1, outcome))


def memo(workers, workdir, traced):
    return OneShot(
        "memo",
        [lambda seed: build_collatz(count=1000, memoize=True)],
        _memo_job)


# -- serve-mix -------------------------------------------------------------------

def serve_order(seed):
    """One period of image indices, runs ordered by the seed."""
    rng = random.Random(seed)
    runs = list(SERVE_RUNS)
    while True:
        rng.shuffle(runs)
        if all(runs[i][0] != runs[i - 1][0] for i in range(len(runs))):
            break
    return [image for image, length in runs for __ in range(length)]


class ServeMix(_Programs):
    """Closed loop, one client, against a ``repro serve`` daemon.

    ``in_process`` runs the daemon on threads of this interpreter (the
    traced pass: its journal, store and pools are then wrappable); the
    untraced pass always talks to a ``python -m repro serve``
    subprocess, as a user would.
    """

    name = "serve-mix"
    block = SERVE_PERIOD  # a run measures whole periods only

    def __init__(self, workers, workdir, in_process=False):
        self.workers = workers
        self.workdir = workdir
        self.in_process = in_process
        self.cases = []
        self.order = []
        self.generation = 0
        self.daemon = None  # Popen or SpeculationDaemon
        self.client = None
        self.daemon_dir = None

    # -- set-up ---------------------------------------------------------------

    def prepare(self, seed):
        self.cases = [
            Case(build_collatz(count=400)),
            Case(build_ising(nodes=64, spins=5, seed=seed)),
            Case(build_mm2(n=8, seed=seed)),
            Case(build_collatz(count=600)),
        ]
        self.order = serve_order(seed)
        self.generation += 1
        # Relative paths: a unix socket path is capped at ~100 bytes
        # and the checkout may sit under a long directory.
        self.daemon_dir = os.path.join(self.workdir,
                                       "daemon%d" % self.generation)
        os.makedirs(self.daemon_dir)
        socket_path = os.path.join(self.daemon_dir, "serve.sock")
        cache_dir = os.path.join(self.daemon_dir, "cache")
        if self.in_process:
            self.daemon = SpeculationDaemon(ServeConfig(
                socket_path=socket_path, cache_dir=cache_dir,
                worker_budget=self.workers,
                workers_per_job=self.workers)).start()
        else:
            self.daemon = self._spawn_daemon(socket_path, cache_dir)
        self.client = ServeClient(socket_path, client="bench")
        self.client.ping()

    def _spawn_daemon(self, socket_path, cache_dir):
        environment = {key: value for key, value in os.environ.items()
                       if not key.startswith("REPRO_")}
        environment["PYTHONPATH"] = os.path.dirname(os.path.dirname(
            os.path.abspath(sys.modules["repro"].__file__)))
        log = open(os.path.join(self.daemon_dir, "daemon.log"), "wb")
        try:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", socket_path, "--cache-dir", cache_dir,
                 "--worker-budget", str(self.workers),
                 "--workers-per-job", str(self.workers)],
                env=environment, stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT)
        finally:
            log.close()
        deadline = time.monotonic() + 30.0
        while not os.path.exists(socket_path):
            if process.poll() is not None or time.monotonic() > deadline:
                self.daemon = process
                self._stop_daemon()
                raise RuntimeError("repro serve did not come up: %s"
                                   % self._daemon_log())
            time.sleep(0.005)
        return process

    def _daemon_log(self):
        try:
            with open(os.path.join(self.daemon_dir, "daemon.log"), "rb") \
                    as handle:
                return handle.read()[-2000:].decode("utf-8", "replace")
        except OSError:
            return "(no log)"

    def weights(self):
        """A job is one draw from the mix: each image's share of it."""
        return [self.order.count(image) / len(self.order)
                for image in range(len(self.cases))]

    # -- jobs -----------------------------------------------------------------

    def run_op(self, index):
        case = self.cases[self.order[index % len(self.order)]]
        outcome = Outcome()
        result = self.client.run(case.program,
                                 engine=engine_overrides(case.config))
        outcome.finals.append((case,
                               base64.b64decode(result["final_state"]),
                               bool(result["halted"])))
        outcome.job_id = result["job_id"]
        outcome.add_engine_counters(result["stats"], result["runtime"])
        outcome.add("engine_s", result["wall_seconds"])
        outcome.add("warm_entries", result["warm_entries"])
        return outcome

    # -- teardown -------------------------------------------------------------

    def finish(self):
        """Job summaries and daemon counters, then a clean shutdown."""
        summaries = {row["job_id"]: row for row in self.client.jobs()}
        stats = self.client.stats()
        problems = self._stop_daemon(graceful=True)
        return {"jobs": summaries, "daemon": stats, "problems": problems}

    def discard(self):
        self._stop_daemon(graceful=True)

    def _stop_daemon(self, graceful=False):
        """Stop the daemon and wait for it; returns what it left behind."""
        daemon, self.daemon = self.daemon, None
        client, self.client = self.client, None
        problems = []
        if daemon is None:
            return problems
        try:
            if self.in_process:
                if client is not None:
                    client.close()
                daemon.request_stop()
                daemon.close()
            else:
                if graceful and client is not None \
                        and daemon.poll() is None:
                    try:
                        client.shutdown(drain=True)
                    except Exception as exc:
                        problems.append("shutdown verb failed: %s" % exc)
                if client is not None:
                    client.close()
                try:
                    code = daemon.wait(timeout=30 if graceful else 0)
                    if graceful and code != 0:
                        problems.append("daemon exited with %s: %s"
                                        % (code, self._daemon_log()))
                except subprocess.TimeoutExpired:
                    if graceful:
                        problems.append("daemon ignored shutdown")
        finally:
            if not self.in_process and daemon.poll() is None:
                daemon.terminate()
                try:
                    daemon.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    daemon.kill()
                    daemon.wait()
        leftovers = [name for name in os.listdir(self.daemon_dir)
                     if name.endswith(".sock")]
        if leftovers:
            problems.append("daemon left its socket behind")
        shutil.rmtree(self.daemon_dir, ignore_errors=True)
        return problems


#: name -> ``factory(workers, workdir, traced)``
WORKLOADS = {
    "cold-coarse": cold_coarse,
    "cold-fine": cold_fine,
    "memo": memo,
    "serve-mix": ServeMix,
}
