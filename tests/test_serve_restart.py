"""Daemon restart persistence and SIGTERM lifecycle.

The cross-run story: client A's jobs populate a namespace shard, the
daemon stops (cleanly or by signal), a fresh daemon reloads the shard,
and client B — same program image, different client — starts warm. A
shard tainted on disk between runs is quarantined, never loaded.
"""

import base64
import os
import signal
import queue
import subprocess
import sys
import threading
import time

import pytest

from repro.bench import build_collatz
from repro.core.config import EngineConfig
from repro.minic import compile_source
from repro.serve import (ServeClient, ServeClientError, ServeConfig,
                         ServeError, SpeculationDaemon)
from repro.serve.queue import Job

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def engine_overrides(config):
    defaults = EngineConfig().__dict__
    return {key: (list(value) if isinstance(value, tuple) else value)
            for key, value in config.__dict__.items()
            if defaults.get(key) != value}


def submit_options(workload):
    return {"engine": engine_overrides(workload.config),
            "inflight_wait_bias": 1e9}


@pytest.fixture(scope="module")
def collatz():
    return build_collatz(count=120)


def sequential_state(program):
    machine = program.make_machine()
    machine.run(max_instructions=50_000_000)
    assert machine.halted
    return bytes(machine.state.buf)


class TestRestartPersistence:
    def test_warm_restart_across_daemon_generations(self, tmp_path,
                                                    collatz):
        cache_dir = str(tmp_path / "cache")
        expected = sequential_state(collatz.program)

        # Generation 1: client A populates the namespace.
        config = ServeConfig(socket_path=str(tmp_path / "g1.sock"),
                             cache_dir=cache_dir)
        with SpeculationDaemon(config).start() as daemon:
            with ServeClient(config.socket_path, client="A") as client:
                cold = client.run(collatz.program,
                                  **submit_options(collatz))
            assert cold["warm_entries"] == 0
            daemon.close()

        shard = os.path.join(cache_dir,
                             collatz.program.image_hash() + ".tcache")
        assert os.path.exists(shard)

        # Generation 2: a different client, same image hash, starts warm.
        config2 = ServeConfig(socket_path=str(tmp_path / "g2.sock"),
                              cache_dir=cache_dir)
        with SpeculationDaemon(config2).start() as daemon2:
            assert daemon2.store.stats_dict()["shards_loaded"] == 1
            with ServeClient(config2.socket_path, client="B") as client:
                warm = client.run(collatz.program,
                                  **submit_options(collatz))
        assert warm["warm_entries"] == cold["merged_entries"]
        assert warm["hits"] > 0
        assert base64.b64decode(warm["final_state"]) == expected

    def test_tainted_shard_quarantined_on_restart(self, tmp_path, collatz):
        cache_dir = str(tmp_path / "cache")
        config = ServeConfig(socket_path=str(tmp_path / "g1.sock"),
                             cache_dir=cache_dir)
        with SpeculationDaemon(config).start() as daemon:
            with ServeClient(config.socket_path, client="A") as client:
                client.run(collatz.program, **submit_options(collatz))
            daemon.close()

        shard = os.path.join(cache_dir,
                             collatz.program.image_hash() + ".tcache")
        with open(shard, "r+b") as handle:
            handle.write(b"\x00" * 32)  # structural damage

        config2 = ServeConfig(socket_path=str(tmp_path / "g2.sock"),
                              cache_dir=cache_dir)
        with SpeculationDaemon(config2).start() as daemon2:
            stats = daemon2.store.stats_dict()
            assert stats["shards_quarantined"] == 1
            assert stats["total_entries"] == 0
            assert os.path.exists(shard + ".quarantined")
            assert not os.path.exists(shard)
            # The namespace works cold and repopulates.
            with ServeClient(config2.socket_path, client="B") as client:
                result = client.run(collatz.program,
                                    **submit_options(collatz))
            assert result["warm_entries"] == 0
            assert result["halted"]


def wait_for_socket(path, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return True
        time.sleep(0.05)
    return False


@pytest.fixture
def serve_process(tmp_path):
    """A real ``repro serve`` child process on its own socket."""
    socket_path = str(tmp_path / "proc.sock")
    cache_dir = str(tmp_path / "cache")
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--cache-dir", cache_dir, "--worker-budget", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    assert wait_for_socket(socket_path), "daemon never bound its socket"
    yield process, socket_path, cache_dir
    if process.poll() is None:
        process.kill()
    process.wait(timeout=10)


def start_serve(socket_path, cache_dir):
    """Spawn a ``repro serve`` child and wait for its socket bind."""
    try:
        os.unlink(socket_path)  # stale after a SIGKILL
    except OSError:
        pass
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--cache-dir", cache_dir, "--worker-budget", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    assert wait_for_socket(socket_path), "daemon never bound its socket"
    return process


class TestCrashOnly:
    """The tentpole property: a SIGKILLed daemon restarted under the
    same socket path finishes the same journaled work, byte-identical
    to a sequential run, found again by the client's idempotency
    token."""

    def test_sigkill_then_restart_replays_byte_identical(self, tmp_path,
                                                         collatz):
        socket_path = str(tmp_path / "proc.sock")
        cache_dir = str(tmp_path / "cache")
        expected = sequential_state(collatz.program)

        gen1 = start_serve(socket_path, cache_dir)
        try:
            with ServeClient(socket_path, client="A") as client:
                submitted = client.submit(collatz.program,
                                          **submit_options(collatz))
                token = submitted["token"]
            # The submit was WAL'd before the ack we just received, so
            # SIGKILL right now — job queued or barely running — must
            # not lose it.
            gen1.kill()
            gen1.wait(timeout=30)

            gen2 = start_serve(socket_path, cache_dir)
            try:
                with ServeClient(socket_path, client="A",
                                 retries=8) as client:
                    status = client.status()
                    assert status["jobs"]["replayed"] >= 1
                    job = client.wait(token=token, timeout=120.0)
                    assert job["state"] == "done"
                    assert job["restored"] is True
                    assert job["token"] == token
                    final = client.final_state(token=token)
                assert final == expected
            finally:
                gen2.terminate()
                gen2.wait(timeout=30)
        finally:
            if gen1.poll() is None:
                gen1.kill()
                gen1.wait(timeout=30)

    def test_replayed_jobs_intern_and_recognize_once_per_image(
            self, tmp_path, collatz):
        """Recognition is not persisted: after a SIGKILL the first
        replayed job of an image recognizes, the rest reuse it."""
        socket_path = str(tmp_path / "proc.sock")
        cache_dir = str(tmp_path / "cache")
        expected = sequential_state(collatz.program)
        tokens = ["tok-%d" % index for index in range(3)]

        gen1 = start_serve(socket_path, cache_dir)
        try:
            with ServeClient(socket_path, client="A") as client:
                for token in tokens:
                    client.submit(collatz.program, token=token,
                                  **submit_options(collatz))
            gen1.kill()  # three WAL'd submissions, at most one started
            gen1.wait(timeout=30)

            gen2 = start_serve(socket_path, cache_dir)
            try:
                with ServeClient(socket_path, client="A",
                                 retries=8) as client:
                    for token in tokens:
                        job = client.wait(token=token, timeout=120.0)
                        assert job["state"] == "done"
                    results = [client.result(token=token)
                               for token in tokens]
                    status = client.status()
            finally:
                gen2.terminate()
                gen2.wait(timeout=30)
        finally:
            if gen1.poll() is None:
                gen1.kill()
                gen1.wait(timeout=30)
        assert status["jobs"]["requeued"] == 3
        assert [r["recognition"] for r in results] \
            == ["run", "reused", "reused"]
        images = status["images"]
        assert (images["interned"], images["recognitions_run"],
                images["recognitions_reused"]) == (1, 1, 2)
        for result in results:
            assert base64.b64decode(result["final_state"]) == expected

    def test_replay_interns_only_what_will_run_again(self, tmp_path,
                                                     collatz):
        config = ServeConfig(socket_path=str(tmp_path / "g.sock"),
                             cache_dir=str(tmp_path / "cache"))
        crashed = SpeculationDaemon(config)  # never started: nothing runs
        for name in ("alpha", "beta"):
            renamed = dict(collatz.program.to_dict(), name=name)
            assert crashed._handle_submit({
                "client": "A", "program": renamed, "token": name,
                "options": submit_options(collatz)})["ok"]
        crashed.journal.close()  # all a SIGKILL leaves behind

        with SpeculationDaemon(config) as replayed:
            first, second = replayed._jobs.values()
            assert first.program is second.program
            assert (first.program_name, second.program_name) \
                == ("alpha", "beta")
            assert len(replayed.images) == 1
            replayed.start()
            with ServeClient(config.socket_path, client="A") as client:
                for name in ("alpha", "beta"):
                    assert client.wait(token=name)["state"] == "done"
                    assert client.result(token=name)["program"] == name

        # History rows need no image: a finished job interns nothing.
        with SpeculationDaemon(config) as history:
            assert history.jobs_replayed == 2
            assert len(history.images) == 0

    def test_journal_naming_the_removed_transport_option_replays(
            self, tmp_path, collatz):
        """A queued job journaled by a daemon that still had the
        ``transport`` submit option replays and runs: the journal's
        format at rest did not change, the key is just not read."""
        config = ServeConfig(socket_path=str(tmp_path / "g.sock"),
                             cache_dir=str(tmp_path / "cache"))
        crashed = SpeculationDaemon(config)  # never started: nothing runs
        options = dict(submit_options(collatz), transport="pipe")
        crashed.journal.record_submit(
            Job("j1", "A", collatz.program, collatz.program.image_hash(),
                options, token="old"), "old")
        crashed.journal.close()  # all a SIGKILL leaves behind

        with SpeculationDaemon(config) as replayed:
            assert replayed.jobs_requeued == 1
            assert replayed._jobs["j1"].options["transport"] == "pipe"
            replayed.start()
            with ServeClient(config.socket_path, client="A") as client:
                assert client.wait(token="old")["state"] == "done"
                result = client.result(token="old")
        assert result["halted"]
        assert base64.b64decode(result["final_state"]) \
            == sequential_state(collatz.program)

    def test_journaled_malformed_option_fails_its_job_not_the_scheduler(
            self, tmp_path, collatz):
        """A journal written before options were coerced at the door
        may hold ``"workers": "abc"``. Replay lands that job ``failed``
        the way it lands a full backlog; it used to re-queue it, and
        ``int("abc")`` then killed the scheduler thread of every
        generation that replayed the journal."""
        config = ServeConfig(socket_path=str(tmp_path / "g.sock"),
                             cache_dir=str(tmp_path / "cache"))
        crashed = SpeculationDaemon(config)  # never started: nothing runs
        crashed.journal.record_submit(
            Job("j1", "A", collatz.program, collatz.program.image_hash(),
                dict(submit_options(collatz), workers="abc"),
                token="bad"), "bad")
        crashed.journal.close()  # all a SIGKILL leaves behind

        with SpeculationDaemon(config) as replayed:
            assert replayed.jobs_requeued == 0
            assert replayed.jobs_failed \
                == replayed._clients["A"]["jobs_failed"] == 1
            replayed.start()
            with ServeClient(config.socket_path, client="B") as client:
                job = client.wait(token="bad", timeout=10)
                assert job["state"] == "failed"
                assert "bad options at replay" in job["error"]
                assert "workers" in job["error"]
                fresh = client.run(collatz.program, timeout=60,
                                   **submit_options(collatz))
            assert replayed._scheduler_thread.is_alive()
        assert fresh["halted"]
        assert base64.b64decode(fresh["final_state"]) \
            == sequential_state(collatz.program)
        # The refusal was journaled: the next start restores it as
        # history instead of refusing it again.
        with SpeculationDaemon(config) as again:
            assert again._jobs["j1"].state == "failed"
            assert again.jobs_failed == 0

    def test_result_survives_restart_via_result_store(self, tmp_path,
                                                      collatz):
        socket_path = str(tmp_path / "proc.sock")
        cache_dir = str(tmp_path / "cache")

        gen1 = start_serve(socket_path, cache_dir)
        try:
            with ServeClient(socket_path, client="A") as client:
                first = client.run(collatz.program,
                                   **submit_options(collatz))
                token = client.last_token
            gen1.kill()  # after completion: the result must outlive us
            gen1.wait(timeout=30)

            gen2 = start_serve(socket_path, cache_dir)
            try:
                with ServeClient(socket_path, client="A",
                                 retries=8) as client:
                    job = client.poll(token=token)
                    assert job["state"] == "done"
                    replayed = client.result(token=token)
                assert replayed["final_state"] == first["final_state"]
                assert replayed["state_sha256"] == first["state_sha256"]
            finally:
                gen2.terminate()
                gen2.wait(timeout=30)
        finally:
            if gen1.poll() is None:
                gen1.kill()
                gen1.wait(timeout=30)

    def test_resubmission_with_same_token_dedups_after_restart(
            self, tmp_path, collatz):
        socket_path = str(tmp_path / "g.sock")
        cache_dir = str(tmp_path / "cache")
        config = ServeConfig(socket_path=socket_path, cache_dir=cache_dir)
        with SpeculationDaemon(config).start() as daemon:
            with ServeClient(socket_path, client="A") as client:
                first = client.submit(collatz.program, token="tok-x",
                                      **submit_options(collatz))
                client.wait(token="tok-x")
            daemon.close()

        config2 = ServeConfig(socket_path=socket_path, cache_dir=cache_dir)
        with SpeculationDaemon(config2).start():
            with ServeClient(socket_path, client="A") as client:
                again = client.submit(collatz.program, token="tok-x",
                                      **submit_options(collatz))
                assert again["deduped"] is True
                assert again["job_id"] == first["job_id"]


def hold_at_first_boundary(daemon, clients):
    """Park each job of ``clients`` at its first superstep boundary
    until something sets its cancel event — a client's cancel or the
    drain's interrupt. Returns the queue the parked job ids land on."""
    parked = queue.Queue()
    heartbeat = daemon.watchdog.heartbeat

    def held(job_id, superstep):
        job = daemon._jobs[job_id]
        if job.client in clients and not job.cancel_event.is_set():
            parked.put(job_id)
            job.cancel_event.wait(60)
        return heartbeat(job_id, superstep)

    daemon.watchdog.heartbeat = held
    return parked


class TestJobLifecycle:
    """Only a client's cancel ends a job ``cancelled``, and what a
    client was told is what replay restores: a drain, like a SIGKILL,
    leaves unfinished jobs to the next start."""

    def test_cancel_while_queued_survives_a_crash(self, tmp_path, collatz):
        config = ServeConfig(socket_path=str(tmp_path / "g.sock"),
                             cache_dir=str(tmp_path / "cache"))
        crashed = SpeculationDaemon(config)  # never started: nothing runs
        assert crashed._handle_submit({
            "client": "A", "program": collatz.program.to_dict(),
            "token": "tok"})["ok"]
        response = crashed._handle_cancel({"token": "tok"})
        assert (response["cancelled"], response["state"]) \
            == (True, "cancelled")
        crashed.journal.close()  # all a SIGKILL leaves behind

        with SpeculationDaemon(config) as replayed:
            job = replayed._find_job({"token": "tok"})
            assert job.state == "cancelled"
            assert replayed.jobs_requeued == 0
            assert replayed.queue.queued_count() == 0

    def test_drain_deadline_leaves_the_running_job_to_the_next_start(
            self, tmp_path, collatz):
        config = ServeConfig(socket_path=str(tmp_path / "g.sock"),
                             cache_dir=str(tmp_path / "cache"),
                             drain_seconds=0.2)
        daemon = SpeculationDaemon(config).start()
        try:
            parked = hold_at_first_boundary(daemon, ("A",))
            with ServeClient(config.socket_path, client="A") as client:
                job_id = client.submit(collatz.program, token="tok",
                                       **submit_options(collatz))["job_id"]
            assert parked.get(timeout=60) == job_id
        finally:
            daemon.close()  # the deadline passes with the job parked
        assert daemon._jobs[job_id].state == "queued"
        assert daemon.jobs_cancelled == 0

        with SpeculationDaemon(config) as restarted:
            assert restarted.jobs_requeued == 1
            assert restarted._jobs[job_id].state == "queued"
            restarted.start()
            with ServeClient(config.socket_path, client="A") as client:
                assert client.wait(token="tok")["state"] == "done"
                final = client.final_state(token="tok")
        assert final == sequential_state(collatz.program)

    def test_client_totals_sum_to_lifetime_counters(self, tmp_path, collatz,
                                                    monkeypatch):
        config = ServeConfig(socket_path=str(tmp_path / "g.sock"),
                             cache_dir=str(tmp_path / "cache"),
                             max_concurrent_jobs=1, drain_seconds=0.2)
        configs = SpeculationDaemon._job_configs

        def fail_b(self, job, lease, degraded):
            if job.client == "B":
                raise RuntimeError("synthetic failure")
            return configs(self, job, lease, degraded)

        monkeypatch.setattr(SpeculationDaemon, "_job_configs", fail_b)
        options = submit_options(collatz)
        daemon = SpeculationDaemon(config).start()
        try:
            parked = hold_at_first_boundary(daemon, ("C", "D"))
            socket_path = config.socket_path
            with ServeClient(socket_path, client="A") as client:
                assert client.run(collatz.program, **options)["halted"]
            with ServeClient(socket_path, client="B") as client:
                job_id = client.submit(collatz.program, **options)["job_id"]
                assert client.wait(job_id)["state"] == "failed"
            with ServeClient(socket_path, client="C") as client:
                running = client.submit(collatz.program, **options)["job_id"]
                assert parked.get(timeout=60) == running
                queued = client.submit(collatz.program, **options)["job_id"]
                assert client.cancel(queued)["state"] == "cancelled"
                assert client.cancel(running)["cancelled"]
                assert client.wait(running)["state"] == "cancelled"
            with ServeClient(socket_path, client="D") as client:
                drained = [client.submit(collatz.program, **options)[
                    "job_id"] for __ in range(2)]
                assert parked.get(timeout=60) == drained[0]
        finally:
            daemon.close()  # D's first job interrupted, its second queued
        stats = daemon.stats_dict()
        assert (stats["jobs"]["done"], stats["jobs"]["failed"],
                stats["jobs"]["cancelled"]) == (1, 1, 2)
        for counter in ("jobs_done", "jobs_failed", "jobs_cancelled"):
            assert getattr(daemon, counter) == sum(
                totals[counter] for totals in stats["clients"].values())
        assert stats["clients"]["D"]["jobs_submitted"] == 2
        assert [daemon._jobs[job_id].state for job_id in drained] \
            == ["queued", "queued"]

        with SpeculationDaemon(config) as replayed:
            states = {job.client + str(index): job.state
                      for index, job in enumerate(replayed._jobs.values())}
            assert states == {"A0": "done", "B1": "failed",
                              "C2": "cancelled", "C3": "cancelled",
                              "D4": "queued", "D5": "queued"}
            assert replayed.jobs_requeued == 2


class TestStartLock:
    def test_two_concurrent_starts_one_wins(self, tmp_path):
        config = ServeConfig(socket_path=str(tmp_path / "serve.sock"))
        with SpeculationDaemon(config).start():
            loser = SpeculationDaemon(
                ServeConfig(socket_path=config.socket_path))
            with pytest.raises(ServeError) as info:
                loser.start()
            message = str(info.value)
            assert str(os.getpid()) in message  # names the owner
            loser.close()

        # With the winner gone the path is free again.
        with SpeculationDaemon(
                ServeConfig(socket_path=config.socket_path)).start():
            with ServeClient(config.socket_path) as client:
                assert client.ping()["ok"]

    def test_lock_file_removed_on_clean_close(self, tmp_path):
        config = ServeConfig(socket_path=str(tmp_path / "serve.sock"))
        SpeculationDaemon(config).start().close()
        assert not os.path.exists(config.socket_path)
        assert not os.path.exists(config.socket_path + ".lock")


@pytest.fixture(scope="module")
def looper():
    """A program that burns ~2e9 iterations: never finishes inside a
    test, so only the watchdog can end its job."""
    return compile_source("""
        int out;
        int main() {
            int i = 0;
            while (i < 2000000000) { i = i + 1; }
            out = i;
            return out;
        }
    """, name="looper")


class TestWatchdogIntegration:
    def test_deadline_reaps_wedged_job_without_starving_others(
            self, tmp_path, collatz, looper):
        expected = sequential_state(collatz.program)
        config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                             cache_dir=str(tmp_path / "cache"),
                             worker_budget=4, workers_per_job=2,
                             max_concurrent_jobs=2,
                             watchdog_interval_seconds=0.05,
                             kill_grace_seconds=0.5)
        with SpeculationDaemon(config).start() as daemon:
            with ServeClient(config.socket_path, client="wedged") as stuck:
                stuck.submit(looper, token="stuck",
                             deadline_seconds=1.0)
                # A concurrent, healthy client is not starved while the
                # watchdog deals with the wedged job.
                with ServeClient(config.socket_path,
                                 client="healthy") as client:
                    result = client.run(collatz.program,
                                        **submit_options(collatz))
                assert base64.b64decode(
                    result["final_state"]) == expected

                job = stuck.wait(token="stuck", timeout=60.0)
                assert job["state"] == "failed"
                assert "watchdog" in (job.get("error") or "").lower() or \
                    any(i.get("kind") == "deadline"
                        for i in job.get("incidents", []))
                # The reap was journaled as a structured incident.
                assert daemon.watchdog.deadline_timeouts == 1

            # The queue is not wedged: new work still flows.
            with ServeClient(config.socket_path, client="after") as client:
                again = client.run(collatz.program,
                                   **submit_options(collatz))
            assert base64.b64decode(again["final_state"]) == expected


class TestSigterm:
    def test_sigterm_drains_flushes_and_unlinks(self, serve_process,
                                                collatz):
        process, socket_path, cache_dir = serve_process
        with ServeClient(socket_path, client="A") as client:
            result = client.run(collatz.program, **submit_options(collatz))
        assert result["halted"]

        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
        assert not os.path.exists(socket_path)
        shard = os.path.join(cache_dir,
                             collatz.program.image_hash() + ".tcache")
        assert os.path.exists(shard)

    def test_double_sigterm_still_exits_cleanly(self, serve_process,
                                                collatz):
        process, socket_path, __ = serve_process
        with ServeClient(socket_path, client="A") as client:
            client.ping()
        process.send_signal(signal.SIGTERM)
        process.send_signal(signal.SIGTERM)  # escalation path, not a crash
        assert process.wait(timeout=60) == 0
        assert not os.path.exists(socket_path)
