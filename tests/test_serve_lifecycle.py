"""Generated job lifecycles: journal replay brings back what clients saw.

A Hypothesis state machine drives one journal directory through
submits, cancels, runs, crashes and drains, restarting a daemon on it
again and again. Jobs run in degraded mode (no pool, no shm), one at a
time on the test's thread, in place of the scheduler. After every step
it checks the promises of DESIGN.md §13:

* a terminal state a client was told is the state replay restores;
* a job left unfinished by a crash or a drain comes back queued,
  exactly once;
* the lifetime counters equal the sums of the client totals;
* history holds at most ``_JOB_HISTORY`` jobs, and every idempotency
  token names a job in it.
"""

import random
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule,
                                 run_state_machine_as_test)

from repro.minic import compile_source
from repro.serve import ServeConfig, SpeculationDaemon
from repro.serve import daemon as daemon_module
from repro.serve.queue import JOB_QUEUED, JOB_RUNNING, TERMINAL_STATES

PROGRAM = compile_source("""
int total;
int main() {
    int i;
    total = 0;
    for (i = 0; i < 50; i = i + 1) { total = total + i; }
    return 0;
}
""", name="tiny").to_dict()

CLIENTS = ("a", "b")


def pick(daemon):
    """One scheduler pass, on the calling thread: pop the next job,
    lease it a pool and record this thread as the job's owner."""
    with daemon._lock:
        job = daemon.queue.next_runnable(daemon._runnable)
        if job is None:
            return None, None
        daemon._job_threads[job.job_id] = threading.current_thread()
        return job, daemon._acquire_lease(job)

#: Small enough that history prunes within a few dozen steps; large
#: enough for every unfinished job (at most 3 a client) to fit.
HISTORY = 8

COUNTERS = ("jobs_done", "jobs_failed", "jobs_cancelled")


class JobLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="repro-lifecycle-"))
        self.config = ServeConfig(
            socket_path=str(self.directory / "s.sock"),
            cache_dir=str(self.directory / "cache"),
            journal_fsync=False, max_queued_per_client=3)
        self.daemons = []
        self.told = {}  # job_id -> the terminal state a client saw
        self.job_ids = []
        self.tokens = 0
        self.daemon = self._boot()

    def _boot(self):
        daemon = SpeculationDaemon(self.config)
        daemon.degraded = True  # jobs run on the null backend
        self.daemons.append(daemon)
        return daemon

    def _ask(self, verb, **fields):
        return self.daemon._handle(dict(fields, verb=verb))

    def _pick(self):
        """The scheduler's pass, on this thread: pop, lease, and own the
        job as its thread, which _run_job's release gives back."""
        return pick(self.daemon)

    def _restart(self, close):
        before = self.daemon
        unfinished = {job_id for job_id, job in before._jobs.items()
                      if not job.terminal}
        if close:
            before.close()
        self.daemon = self._boot()
        replayed = self.daemon.journal.jobs
        for job_id, state in self.told.items():
            assert replayed[job_id].state == state, job_id
        assert self.daemon.jobs_requeued == len(unfinished)
        backlog = [job.job_id for jobs in self.daemon.queue._backlogs.values()
                   for job in jobs]
        assert sorted(backlog) == sorted(unfinished)
        for job_id in unfinished:
            assert self.daemon._jobs[job_id].state == JOB_QUEUED

    # -- rules -----------------------------------------------------------

    @rule(client=st.sampled_from(CLIENTS))
    def submit(self, client):
        self.tokens += 1
        response = self._ask("submit", client=client, program=PROGRAM,
                             token="t%d" % self.tokens)
        if response["ok"]:
            self.job_ids.append(response["job_id"])
        else:
            assert response["code"] == "busy"  # that client's bound

    @precondition(lambda self: self.job_ids)
    @rule(index=st.integers(min_value=0))
    def cancel(self, index):
        job_id = self.job_ids[index % len(self.job_ids)]
        response = self._ask("cancel", job_id=job_id)
        if response["ok"] and response["state"] in TERMINAL_STATES:
            self.told.setdefault(job_id, response["state"])

    @rule(cancelled=st.booleans())
    def run_next(self, cancelled):
        job, lease = self._pick()
        if job is None:
            return
        if cancelled:  # the client's cancel lands once it was popped
            assert self._ask("cancel", job_id=job.job_id)["cancelled"]
        self.daemon._run_job(job, lease)
        assert job.state == ("cancelled" if cancelled else "done")

    @rule(mid_run=st.booleans())
    def crash_restart(self, mid_run):
        """SIGKILL: no close(), the journal left as it is."""
        if mid_run:
            job, __ = self._pick()
            if job is not None:
                self.daemon._transition(job, JOB_RUNNING)
                self.daemon._job_threads.clear()  # killed with the daemon
        self._restart(close=False)

    @rule(interrupt=st.booleans(), late_cancel=st.booleans())
    def drain_restart(self, interrupt, late_cancel):
        """A drain whose deadline interrupts the running job, if any —
        and a client cancel of it that lands after the interrupt."""
        job, lease = self._pick() if interrupt else (None, None)
        self.daemon.request_stop(drain=False)
        if job is not None:
            self.daemon._run_job(job, lease)
            assert job.state == JOB_QUEUED
            if late_cancel:
                response = self._ask("cancel", job_id=job.job_id)
                assert (response["cancelled"], response["state"]) \
                    == (True, "cancelled")
                self.told[job.job_id] = "cancelled"
        self._restart(close=True)

    # -- invariants ------------------------------------------------------

    @invariant()
    def clients_see_what_was_told(self):
        for job_id in list(self.daemon._jobs):
            state = self._ask("poll", job_id=job_id)["job"]["state"]
            if state in TERMINAL_STATES:
                assert self.told.setdefault(job_id, state) == state

    @invariant()
    def lifetime_counters_are_client_totals(self):
        daemon = self.daemon
        for counter in COUNTERS:
            assert getattr(daemon, counter) == sum(
                totals[counter] for totals in daemon._clients.values())

    @invariant()
    def history_is_bounded_and_tokens_follow_it(self):
        daemon = self.daemon
        assert len(daemon._jobs) <= HISTORY
        for token, job_id in daemon._tokens.items():
            assert daemon._jobs[job_id].token == token

    def teardown(self):
        for daemon in self.daemons:
            daemon.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def test_job_lifecycle_replays_what_clients_were_told(monkeypatch):
    monkeypatch.setattr(daemon_module, "_JOB_HISTORY", HISTORY)
    run_state_machine_as_test(JobLifecycle, settings=settings(
        max_examples=50, stateful_step_count=40, derandomize=True,
        database=None, deadline=None))


def test_racing_cancels_and_runs_count_each_job_once(tmp_path):
    """Clients cancel while job threads start and finish the same jobs,
    with thread switches forced often: every job ends exactly once (a
    second move would raise), counted once, in its client's totals,
    and journaled as what it was told."""
    config = ServeConfig(socket_path=str(tmp_path / "s.sock"),
                         cache_dir=str(tmp_path / "cache"),
                         journal_fsync=False, max_queued_per_client=100,
                         max_running_per_client=4, max_queued_jobs=1000)
    daemon = SpeculationDaemon(config)
    daemon.degraded = True
    submitted, done_submitting = [], threading.Event()

    def client(name):
        rng = random.Random(name)
        for __ in range(15):
            job_id = daemon._handle({"verb": "submit", "client": name,
                                     "program": PROGRAM})["job_id"]
            submitted.append(job_id)
            victim = rng.choice(submitted)
            daemon._handle({"verb": "cancel", "job_id": victim})

    def runner():
        while True:
            job, lease = pick(daemon)
            if job is None:
                if done_submitting.is_set() \
                        and not daemon.queue.queued_count():
                    return
                time.sleep(0.001)
                continue
            daemon._run_job(job, lease)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client, args=("c%d" % index,))
                   for index in range(6)]
        runners = [threading.Thread(target=runner) for __ in range(3)]
        for thread in clients + runners:
            thread.start()
        for thread in clients:
            thread.join(60)
        done_submitting.set()
        for thread in runners:
            thread.join(60)
        assert not any(thread.is_alive() for thread in clients + runners)
    finally:
        sys.setswitchinterval(switch)
        daemon.close()

    states = {job_id: daemon._jobs[job_id].state for job_id in submitted}
    assert set(states.values()) <= {"done", "cancelled"}
    assert daemon.jobs_done + daemon.jobs_cancelled == len(submitted) == 90
    for counter in COUNTERS:
        assert getattr(daemon, counter) == sum(
            totals[counter] for totals in daemon._clients.values())
    with SpeculationDaemon(config) as replayed:
        assert {job_id: replayed._jobs[job_id].state
                for job_id in submitted} == states
        assert replayed.jobs_requeued == 0


def degraded_daemon(tmp_path):
    daemon = SpeculationDaemon(ServeConfig(
        socket_path=str(tmp_path / "s.sock"),
        cache_dir=str(tmp_path / "cache"), journal_fsync=False))
    daemon.degraded = True
    return daemon


def test_watchdog_verdict_fails_the_job_it_stops(tmp_path):
    """The watchdog stops a job as a client or a drain does, by its
    cancel event, with its verdict set first. Condemned just before the
    job's boundary looks at the event, the job ends failed — not
    cancelled, and not queued for a daemon that is not stopping (which
    would leave it in no backlog, for ever)."""
    daemon = degraded_daemon(tmp_path)
    try:
        job_id = daemon._handle({"verb": "submit", "client": "a",
                                 "program": PROGRAM})["job_id"]
        job, lease = pick(daemon)
        watchdog = daemon.watchdog

        class CondemnedOnLook(threading.Event):
            def is_set(self):
                with watchdog._lock:
                    watch = watchdog._watches[job.job_id]
                if watch.reason is None:
                    watchdog._condemn(watch, time.monotonic(), "deadline",
                                      {})
                return super().is_set()

        job.cancel_event = CondemnedOnLook()
        daemon._run_job(job, lease)
        assert job.state == "failed"
        assert "condemned by watchdog: deadline" in job.error
        assert (daemon.jobs_failed, daemon.jobs_cancelled) == (1, 0)
    finally:
        daemon.close()
    with SpeculationDaemon(daemon.config) as replayed:
        assert replayed._jobs[job_id].state == "failed"
        assert replayed.jobs_requeued == 0


def test_cancel_after_the_drain_read_is_not_dropped(tmp_path):
    """A drain interrupts a job; its client's cancel lands after the
    job thread chose "back to queued" but before it let the job go.
    The acknowledged cancel ends the job — journaled, so no restart
    runs it."""
    daemon = degraded_daemon(tmp_path)
    answers = []
    transition = daemon._transition

    def cancel_on_requeue(job, state, **details):
        transition(job, state, **details)
        if state == JOB_QUEUED:
            answers.append(daemon._handle({"verb": "cancel",
                                           "job_id": job.job_id}))

    try:
        job_id = daemon._handle({"verb": "submit", "client": "a",
                                 "program": PROGRAM})["job_id"]
        job, lease = pick(daemon)
        daemon.request_stop(drain=False)
        daemon._transition = cancel_on_requeue
        daemon._run_job(job, lease)
        assert [answer["cancelled"] for answer in answers] == [True]
        assert job.state == "cancelled"
        assert daemon.jobs_cancelled == daemon._clients["a"][
            "jobs_cancelled"] == 1
    finally:
        daemon.close()
    with SpeculationDaemon(daemon.config) as replayed:
        assert replayed._jobs[job_id].state == "cancelled"
        assert replayed.jobs_requeued == 0
