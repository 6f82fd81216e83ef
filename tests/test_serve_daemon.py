"""SpeculationDaemon integration: multi-tenant jobs over a real socket.

Everything here drives an in-process daemon through real unix-socket
round trips — the same path ``repro submit`` takes — with real worker
pools underneath. The flagship property is the ISSUE's: two clients
running different programs concurrently both get final states
byte-identical to a plain sequential run of their own program.
"""

import base64
import errno
import gc
import os
import threading
import time
import weakref

import pytest

from repro import durable
from repro.bench import build_collatz, build_ising
from repro.core.cache_store import SHARD_SUFFIX
from repro.core.config import EngineConfig
from repro.core.recognizer import Recognizer
from repro.loader.image import Program
from repro.machine import blockcache
from repro.runtime import shm
from repro.serve import (
    ServeClient,
    ServeClientError,
    ServeConfig,
    ServeError,
    SpeculationDaemon,
)
from repro.serve import JobJournal
from repro.serve import daemon as daemon_module
from repro.serve.daemon import _PoolLease


def engine_overrides(config):
    """The JSON-safe overrides dict ``repro submit`` derives for a
    workload's tuned EngineConfig."""
    defaults = EngineConfig().__dict__
    return {key: (list(value) if isinstance(value, tuple) else value)
            for key, value in config.__dict__.items()
            if defaults.get(key) != value}


def sequential_state(program, limit=50_000_000):
    machine = program.make_machine()
    machine.run(max_instructions=limit)
    assert machine.halted
    return bytes(machine.state.buf)


@pytest.fixture(scope="module")
def collatz():
    return build_collatz(count=120)


@pytest.fixture(scope="module")
def ising():
    return build_ising(nodes=32, spins=4)


@pytest.fixture
def daemon(tmp_path):
    config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                         cache_dir=str(tmp_path / "cache"),
                         worker_budget=4, workers_per_job=2,
                         max_concurrent_jobs=2)
    instance = SpeculationDaemon(config).start()
    yield instance
    instance.close()


def submit_options(workload):
    return {"engine": engine_overrides(workload.config),
            "inflight_wait_bias": 1e9}


class TestSingleClient:
    def test_submit_runs_byte_identical(self, daemon, collatz):
        expected = sequential_state(collatz.program)
        with ServeClient(daemon.config.socket_path, client="t1") as client:
            result = client.run(collatz.program, **submit_options(collatz))
        assert result["halted"]
        assert base64.b64decode(result["final_state"]) == expected
        assert result["namespace"] == collatz.program.image_hash()
        assert result["merged_entries"] > 0

    def test_warm_resubmission_reuses_cache(self, daemon, collatz):
        with ServeClient(daemon.config.socket_path, client="t1") as client:
            cold = client.run(collatz.program, **submit_options(collatz))
            warm = client.run(collatz.program, **submit_options(collatz))
        assert cold["warm_entries"] == 0
        assert warm["warm_entries"] > 0
        assert warm["hits"] > 0
        # The warm run rediscovers segments the shard already holds;
        # dedup keeps the shard from growing a copy per run.
        assert warm["merged_entries"] < cold["merged_entries"]
        assert warm["final_state"] == cold["final_state"]

    def test_per_job_runtime_delta_not_cumulative(self, daemon, collatz):
        with ServeClient(daemon.config.socket_path, client="t1") as client:
            first = client.run(collatz.program, **submit_options(collatz))
            second = client.run(collatz.program, **submit_options(collatz))
        # Shared pool, cumulative pool.stats — but each job reports its
        # own slice.
        assert first["runtime"]["tasks_dispatched"] > 0
        total = (first["runtime"]["tasks_dispatched"]
                 + second["runtime"]["tasks_dispatched"])
        with ServeClient(daemon.config.socket_path, client="t1") as client:
            stats = client.stats()
        aggregate = stats["clients"]["t1"]["runtime"]["tasks_dispatched"]
        assert aggregate == total

    def test_poll_and_result_verbs(self, daemon, collatz):
        with ServeClient(daemon.config.socket_path, client="t1") as client:
            job_id = client.submit(collatz.program,
                                   **submit_options(collatz))["job_id"]
            job = client.wait(job_id)
            assert job["state"] == "done"
            assert job["hits"] is not None
            slim = client.result(job_id, include_state=False)
            assert "final_state" not in slim
            assert slim["state_sha256"]
            full = client.result(job_id)
            assert "final_state" in full

    def test_state_roundtrip_via_final_state_helper(self, daemon, collatz):
        expected = sequential_state(collatz.program)
        with ServeClient(daemon.config.socket_path, client="t1") as client:
            job_id = client.submit(collatz.program,
                                   **submit_options(collatz))["job_id"]
            client.wait(job_id)
            assert client.final_state(job_id) == expected


class TestMultiTenant:
    def test_concurrent_clients_both_byte_identical(self, daemon, collatz,
                                                    ising):
        """Two tenants, two programs, one daemon — each final state must
        match its own sequential reference (the acceptance criterion)."""
        references = {
            "alice": (collatz, sequential_state(collatz.program)),
            "bob": (ising, sequential_state(ising.program)),
        }
        outcomes = {}

        def run_tenant(name):
            workload, expected = references[name]
            try:
                with ServeClient(daemon.config.socket_path,
                                 client=name) as client:
                    result = client.run(workload.program,
                                        **submit_options(workload))
                outcomes[name] = (
                    result["halted"],
                    base64.b64decode(result["final_state"]) == expected)
            except Exception as exc:  # surfaced by the assert below
                outcomes[name] = exc

        threads = [threading.Thread(target=run_tenant, args=(name,))
                   for name in references]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert outcomes == {"alice": (True, True), "bob": (True, True)}

    def test_namespaces_isolated_per_image(self, daemon, collatz, ising):
        with ServeClient(daemon.config.socket_path, client="a") as client:
            client.run(collatz.program, **submit_options(collatz))
            client.run(ising.program, **submit_options(ising))
            stats = client.stats()
        cache = stats["cache"]
        assert cache["namespaces"] == 2
        assert collatz.program.image_hash() in cache["shards"]
        assert ising.program.image_hash() in cache["shards"]
        # A different image never sees collatz's entries as warm.
        with ServeClient(daemon.config.socket_path, client="a") as client:
            warm = client.submit(ising.program,
                                 **submit_options(ising))["warm_entries"]
            assert warm == stats["cache"]["shards"][
                ising.program.image_hash()]["entries"]

    def test_per_client_stats_aggregation(self, daemon, collatz):
        for name in ("alice", "bob"):
            with ServeClient(daemon.config.socket_path,
                             client=name) as client:
                client.run(collatz.program, **submit_options(collatz))
        with ServeClient(daemon.config.socket_path, client="x") as client:
            stats = client.stats()
            rows = client.jobs()
        for name in ("alice", "bob"):
            aggregate = stats["clients"][name]
            assert aggregate["jobs_submitted"] == 1
            assert aggregate["jobs_done"] == 1
            assert aggregate["stats"]["hits"] >= 0
            assert aggregate["runtime"]["tasks_dispatched"] > 0
        assert {row["client"] for row in rows} == {"alice", "bob"}

    def test_finished_job_is_never_visible_before_its_accounting(
            self, daemon, collatz):
        """Publish and account are one lock acquisition, after the
        journal: with the DONE record held open (an arbitrarily slow
        fsync), no reader sees a ``done`` job row whose client's
        ``jobs_done`` lacks it — deterministically, no timing luck."""
        entered, release = threading.Event(), threading.Event()
        record_state = daemon.journal.record_state

        def slow_record_state(job_id, state, **kwargs):
            if state == "done":
                entered.set()
                release.wait(30)
            return record_state(job_id, state, **kwargs)

        def observe():
            with ServeClient(daemon.config.socket_path,
                             client="x") as observer:
                rows, stats = observer.jobs(), observer.stats()
            done = [row for row in rows if row["state"] == "done"]
            for row in done:
                aggregate = stats["clients"][row["client"]]
                assert aggregate["jobs_done"] >= 1
                assert aggregate["runtime"]["tasks_dispatched"] > 0
            assert stats["jobs"]["done"] == len(done)
            return len(done)

        daemon.journal.record_state = slow_record_state
        try:
            with ServeClient(daemon.config.socket_path,
                             client="alice") as alice:
                job_id = alice.submit(collatz.program,
                                      **submit_options(collatz))["job_id"]
                assert entered.wait(60), "job never reached its DONE record"
                observe()
                release.set()
                assert alice.wait(job_id)["state"] == "done"
        finally:
            release.set()
        assert observe() == 1


class TestFailureContainment:
    def test_failed_job_does_not_poison_daemon(self, daemon, collatz,
                                               monkeypatch):
        def explode(self, job, lease, degraded):
            raise RuntimeError("synthetic engine failure")

        monkeypatch.setattr(SpeculationDaemon, "_job_configs", explode)
        with ServeClient(daemon.config.socket_path, client="victim") as c:
            job_id = c.submit(collatz.program)["job_id"]
            job = c.wait(job_id)
        assert job["state"] == "failed"
        assert "synthetic engine failure" in job["error"]
        monkeypatch.undo()
        # The failed job's pool was retired; a healthy client is served
        # by a fresh one and the namespace is intact.
        expected = sequential_state(collatz.program)
        with ServeClient(daemon.config.socket_path, client="healthy") as c:
            result = c.run(collatz.program, **submit_options(collatz))
            stats = c.stats()
        assert base64.b64decode(result["final_state"]) == expected
        assert stats["jobs"]["failed"] == 1
        assert stats["pools_retired"] >= 1

    def test_result_of_failed_job_reports_error_code(self, daemon, collatz,
                                                     monkeypatch):
        monkeypatch.setattr(
            SpeculationDaemon, "_job_configs",
            lambda *args: (_ for _ in ()).throw(RuntimeError("nope")))
        with ServeClient(daemon.config.socket_path, client="v") as client:
            job_id = client.submit(collatz.program)["job_id"]
            client.wait(job_id)
            with pytest.raises(ServeClientError) as info:
                client.result(job_id)
            assert info.value.code == "not-done"

    def test_bad_requests_are_rejected_not_fatal(self, daemon, collatz):
        with ServeClient(daemon.config.socket_path, client="t") as client:
            with pytest.raises(ServeClientError) as info:
                client.request("submit", client="t", program={"bogus": 1},
                               options={})
            assert info.value.code == "bad-program"
            with pytest.raises(ServeClientError) as info:
                client.submit(collatz.program, not_an_option=1)
            assert info.value.code == "bad-request"
            # Once an option, now a typo like any other.
            with pytest.raises(ServeClientError) as info:
                client.submit(collatz.program, transport="pipe")
            assert info.value.code == "bad-request"
            assert "unknown submit options: transport" in str(info.value)
            with pytest.raises(ServeClientError) as info:
                client.submit(collatz.program, engine={"bogus_knob": 1})
            assert info.value.code == "bad-request"
            with pytest.raises(ServeClientError) as info:
                client.request("frobnicate")
            assert info.value.code == "bad-verb"
            with pytest.raises(ServeClientError) as info:
                client.poll("no-such-job")
            assert info.value.code == "not-found"
            # The connection survives all of it.
            assert client.ping()["pong"]

    @pytest.mark.parametrize("option, value", [
        ("workers", "abc"),
        ("max_instructions", "x"),
        ("superstep_scale", []),
        ("inflight_wait_bias", "soon"),
        ("verify_rate", "all"),
        ("deadline_seconds", "soon"),
        ("engine", {"recognizer_window": "wide"}),
        ("engine", "tuned"),
    ])
    def test_malformed_option_value_is_refused_at_the_door(
            self, daemon, collatz, option, value):
        """A value its option cannot coerce answers ``bad-request``
        naming the option and is neither queued nor journaled — it
        used to be accepted and raise later on whichever thread read
        it (``workers`` on the scheduler thread, which died for every
        client, and again at each replay)."""
        journaled = daemon.journal.stats_dict()["records_appended"]
        with ServeClient(daemon.config.socket_path, client="t") as client:
            with pytest.raises(ServeClientError) as info:
                client.submit(collatz.program, **{option: value})
        assert info.value.code == "bad-request"
        assert option in str(info.value)
        assert daemon.queue.queued_count() == 0
        assert daemon.journal.stats_dict()["records_appended"] == journaled
        assert daemon._scheduler_thread.is_alive()
        with ServeClient(daemon.config.socket_path, client="other") as c:
            job_id = c.submit(collatz.program,
                              **submit_options(collatz))["job_id"]
            assert c.wait(job_id, timeout=60)["state"] == "done"
        assert daemon._scheduler_thread.is_alive()
        assert daemon.watchdog.step() == []  # steps, and raises nothing

    def test_backpressure_rejects_over_backlog(self, tmp_path, collatz):
        config = ServeConfig(socket_path=str(tmp_path / "bp.sock"),
                             max_queued_per_client=0)
        with SpeculationDaemon(config).start() as daemon:
            with ServeClient(daemon.config.socket_path, client="t") as c:
                with pytest.raises(ServeClientError) as info:
                    c.submit(collatz.program)
                assert info.value.code == "busy"


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path, collatz):
        config = ServeConfig(socket_path=str(tmp_path / "c.sock"),
                             max_concurrent_jobs=1,
                             max_running_per_client=1)
        with SpeculationDaemon(config).start() as daemon:
            with ServeClient(daemon.config.socket_path, client="t") as c:
                first = c.submit(collatz.program,
                                 **submit_options(collatz))["job_id"]
                # Same client, running bound 1: the second job queues.
                second = c.submit(collatz.program,
                                  **submit_options(collatz))["job_id"]
                response = c.cancel(second)
                assert response["cancelled"]
                assert c.wait(second)["state"] == "cancelled"
                assert c.wait(first)["state"] == "done"
                rows = {row["job_id"]: row for row in c.jobs()}
            # History is rows, not images: a terminal job lets go of its
            # program (and so of the blocks translated for it) as soon
            # as nothing runs it — at once when it never ran, with its
            # lease when it did — and still reports under its name.
            deadline = time.monotonic() + 10
            while daemon._jobs[first].program is not None \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            for job_id in (first, second):
                assert daemon._jobs[job_id].program is None
                assert rows[job_id]["program"] == collatz.program.name
                assert collatz.program.name in repr(daemon._jobs[job_id])

    def test_cancel_running_job_stops_at_boundary(self, tmp_path):
        big = build_collatz(count=20_000)
        config = ServeConfig(socket_path=str(tmp_path / "c.sock"))
        with SpeculationDaemon(config).start() as daemon:
            with ServeClient(daemon.config.socket_path, client="t") as c:
                job_id = c.submit(big.program,
                                  **submit_options(big))["job_id"]
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if c.poll(job_id)["state"] == "running":
                        break
                    time.sleep(0.01)
                c.cancel(job_id)
                job = c.wait(job_id, timeout=60)
        # Ran long enough to be cancelled mid-flight, or finished first
        # on a fast machine — either way the daemon stays consistent.
        assert job["state"] in ("cancelled", "done")


class TestLifecycle:
    def test_close_is_idempotent_and_cleans_up(self, tmp_path, collatz):
        config = ServeConfig(socket_path=str(tmp_path / "l.sock"),
                             cache_dir=str(tmp_path / "cache"))
        daemon = SpeculationDaemon(config).start()
        with ServeClient(config.socket_path, client="t") as client:
            client.run(collatz.program, **submit_options(collatz))
        daemon.close()
        daemon.close()  # second close: no-op, no exception
        assert not os.path.exists(config.socket_path)
        assert shm.live_segment_names() == []
        # The shard hit disk even though no explicit flush was asked.
        shard = os.path.join(str(tmp_path / "cache"),
                             collatz.program.image_hash() + ".tcache")
        assert os.path.exists(shard)

    def test_double_request_stop_is_safe(self, tmp_path):
        config = ServeConfig(socket_path=str(tmp_path / "l.sock"))
        daemon = SpeculationDaemon(config).start()
        daemon.request_stop()
        daemon.request_stop()  # double-SIGTERM shape: escalates, no raise
        daemon.close()
        assert not os.path.exists(config.socket_path)

    def test_two_daemons_same_socket_refused(self, tmp_path):
        config = ServeConfig(socket_path=str(tmp_path / "l.sock"))
        daemon = SpeculationDaemon(config).start()
        try:
            with pytest.raises(ServeError):
                SpeculationDaemon(config).start()
        finally:
            daemon.close()

    def test_stale_socket_file_is_replaced(self, tmp_path):
        path = str(tmp_path / "l.sock")
        (tmp_path / "l.sock").write_bytes(b"")  # unclean previous exit
        config = ServeConfig(socket_path=path)
        daemon = SpeculationDaemon(config).start()
        try:
            with ServeClient(path, client="t") as client:
                assert client.ping()["pong"]
        finally:
            daemon.close()

    def test_shutdown_verb_stops_daemon(self, tmp_path):
        config = ServeConfig(socket_path=str(tmp_path / "l.sock"))
        daemon = SpeculationDaemon(config).start()
        with ServeClient(config.socket_path, client="t") as client:
            assert client.shutdown()["stopping"]
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not daemon._stop.is_set():
            time.sleep(0.02)
        assert daemon._stop.is_set()
        daemon.close()
        assert not os.path.exists(config.socket_path)


class TestJobTable:
    def test_tokens_leave_history_with_their_jobs(self, tmp_path, collatz):
        """Every ``ServeClient.submit`` sends a token, so a token table
        that only grows grows with every job ever submitted."""
        daemon = SpeculationDaemon(ServeConfig(
            socket_path=str(tmp_path / "t.sock")))  # never started
        program = collatz.program.to_dict()
        try:
            for index in range(daemon_module._JOB_HISTORY + 200):
                token = "tok-%d" % index
                response = daemon._handle_submit({
                    "client": "c%d" % index, "program": program,
                    "token": token})
                assert response["ok"], response
                assert daemon._handle_cancel({"token": token})["cancelled"]
            assert len(daemon._jobs) == daemon_module._JOB_HISTORY
            assert len(daemon._tokens) <= daemon_module._JOB_HISTORY
            for token, job_id in daemon._tokens.items():
                assert daemon._jobs[job_id].token == token
            # Idle clients left the queue; their totals stay.
            assert daemon.queue.stats_dict()["per_client"] == {}
            assert len(daemon.stats_dict()["clients"]) \
                == daemon_module._JOB_HISTORY + 200
            # History keeps the newest jobs, oldest first.
            rows = daemon._handle({"verb": "jobs"})["jobs"]
            assert [row["job_id"] for row in rows] == [
                "j%d" % number for number in range(201, 457)]
        finally:
            daemon.close()


class TestResourceManager:
    def test_idle_pool_retired_lru_for_new_image(self, tmp_path, collatz,
                                                 ising):
        # Budget fits exactly one 2-worker pool: the second image must
        # evict the first (idle) pool instead of being refused.
        config = ServeConfig(socket_path=str(tmp_path / "r.sock"),
                             worker_budget=2, workers_per_job=2,
                             max_concurrent_jobs=1)
        with SpeculationDaemon(config).start() as daemon:
            with ServeClient(config.socket_path, client="t") as client:
                client.run(collatz.program, **submit_options(collatz))
                client.run(ising.program, **submit_options(ising))
                stats = client.stats()
            assert stats["pools_created"] == 2
            assert stats["pools_retired"] >= 1
            assert stats["workers_committed"] <= config.worker_budget

    def test_runnable_veto_respects_budget(self, tmp_path, collatz):
        config = ServeConfig(socket_path=str(tmp_path / "r.sock"),
                             worker_budget=2, workers_per_job=2)
        daemon = SpeculationDaemon(config)
        try:
            busy = _PoolLease("f" * 16, "other", 2)
            daemon._pools[busy.namespace] = busy  # all budget committed
            job = type("J", (), {"namespace": "e" * 16,
                                 "options": {},
                                 "program": collatz.program})()
            assert not daemon._runnable(job)
            busy.busy = False  # idle pools are reclaimable
            assert daemon._runnable(job)
        finally:
            daemon.close()

    def test_budget_charges_admitted_width_not_live_workers(self, tmp_path,
                                                            collatz):
        """A quarantined slot comes back when its backoff expires, so a
        pool that has lost one stays charged its whole lease: admitting
        against the freed slot would overcommit the budget."""
        class OneSlotQuarantined:
            active_workers = 1  # of a 2-wide lease
            closed = False

            def shutdown(self):
                self.closed = True

        config = ServeConfig(socket_path=str(tmp_path / "r.sock"),
                             worker_budget=3, workers_per_job=2)
        daemon = SpeculationDaemon(config)
        try:
            busy = _PoolLease("f" * 16, "other", 2)
            busy.pool = OneSlotQuarantined()
            daemon._pools[busy.namespace] = busy
            job = type("J", (), {"namespace": "e" * 16,
                                 "options": {},
                                 "program": collatz.program,
                                 "program_name": "collatz"})()
            assert not daemon._runnable(job)  # 2 + 2 > 3
            stats = daemon.stats_dict()
            assert stats["workers_committed"] == 2
            assert [(row["workers"], row["live_workers"])
                    for row in stats["pools"]] == [(2, 1)]
            # Once idle, the lease is charged 2 when the new pool is
            # fitted, so it is retired to make room.
            busy.busy = False
            assert daemon._runnable(job)
            lease = daemon._acquire_lease(job)
            assert busy.pool.closed
            assert list(daemon._pools) == [lease.namespace]
            assert daemon.pools_retired == 1
        finally:
            daemon.close()


class TestDegradedMode:
    """A durable write that fails for a reason other than a full disk
    (which :class:`repro.durable.DiskPressure` absorbs) flips the daemon
    into journaled degraded mode: jobs run sequentially, still
    byte-identical, until a restart re-evaluates."""

    @pytest.fixture
    def broken_shard_disk(self, monkeypatch):
        """Every cache-shard write fails with EIO."""
        write_atomic = durable.write_atomic

        def write(path, blob, fsync=False):
            if path.endswith(SHARD_SUFFIX):
                raise OSError(errno.EIO, "injected I/O error")
            return write_atomic(path, blob, fsync=fsync)
        monkeypatch.setattr(durable, "write_atomic", write)
        return monkeypatch

    @staticmethod
    def degraded_config(tmp_path):
        return ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                           cache_dir=str(tmp_path / "cache"),
                           watchdog_interval_seconds=0.05,
                           selfcheck_interval_seconds=0.1)

    @staticmethod
    def degrade(daemon, client, workload):
        """Run one job; the cache flush after it fails, and the next
        self-check flips the daemon into degraded mode."""
        first = client.run(workload.program, **submit_options(workload))
        assert first["backend"] == "serve"
        assert first["merged_entries"] > 0  # so the flush writes a shard
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not daemon.degraded:
            time.sleep(0.02)
        assert daemon.degraded
        assert "injected I/O error" in daemon.degraded_reason

    def test_selfcheck_flips_to_degraded_and_jobs_still_run(
            self, tmp_path, collatz, broken_shard_disk):
        expected = sequential_state(collatz.program)
        config = self.degraded_config(tmp_path)
        with SpeculationDaemon(config).start() as daemon:
            with ServeClient(config.socket_path, client="t") as client:
                self.degrade(daemon, client, collatz)
                pong = client.ping()
                assert pong["degraded"] is True
                # Degraded jobs run sequentially (no pool, no cache
                # write-through) but the answer is still byte-identical.
                result = client.run(collatz.program,
                                    **submit_options(collatz))
                status = client.status()
            assert result["degraded"] is True
            assert result["backend"] == "serve-degraded"
            assert base64.b64decode(result["final_state"]) == expected
            assert result["merged_entries"] == 0
            assert status["degraded"] is True
            assert status["journal"]["mode"] == "degraded"
            assert daemon.jobs_degraded == 1

    def test_degraded_mode_is_journaled_across_restart(
            self, tmp_path, collatz, broken_shard_disk):
        config = self.degraded_config(tmp_path)
        with SpeculationDaemon(config).start() as daemon:
            with ServeClient(config.socket_path, client="t") as client:
                self.degrade(daemon, client, collatz)
            daemon.close()
        with JobJournal(config.journal_dir) as journal:
            assert journal.mode == "degraded"

        # The restart re-evaluates instead of trusting the old verdict:
        # with the disk healthy again the daemon comes back normal.
        broken_shard_disk.undo()
        with SpeculationDaemon(config).start() as daemon2:
            assert not daemon2.degraded
            assert daemon2.journal.mode == "normal"


def resubmission(program, **changes):
    """The same image as a client would send it again: a fresh decode,
    cosmetically changed (an image hash covers neither name nor hints)."""
    return Program.from_dict(dict(program.to_dict(), **changes))


def one_pool_daemon(tmp_path, **overrides):
    """Budget == one job's workers: every image switch retires the pool."""
    return SpeculationDaemon(ServeConfig(
        socket_path=str(tmp_path / "serve.sock"),
        cache_dir=str(tmp_path / "cache"), worker_budget=1,
        workers_per_job=1, max_concurrent_jobs=1, **overrides))


class TestImageTable:
    """What the daemon learned about an image outlives the pool that
    learned it: one ``Program`` (hence one translation store) and one
    recognition per (engine config, hints) per image, however often the
    worker budget moves on."""

    @pytest.fixture
    def finds(self, monkeypatch):
        """Arguments of every ``Recognizer.find`` in this process."""
        calls = []
        find = Recognizer.find

        def counting(recognizer, program, start_state=None):
            calls.append(program)
            return find(recognizer, program, start_state)

        monkeypatch.setattr(Recognizer, "find", counting)
        return calls

    @pytest.fixture
    def compiled(self, monkeypatch):
        """Names the block translator hands ``compile()`` in this
        process (forked workers count into their own copy). Only the
        fast path translates, so this pins the process to it."""
        monkeypatch.setenv("REPRO_FAST_PATH", "1")
        names = []

        def counting(source, filename, mode):
            names.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(blockcache, "compile", counting, raising=False)
        return names

    def test_pool_misses_neither_recognize_nor_translate_again(
            self, tmp_path, collatz, ising, finds, compiled):
        workloads = (collatz, ising)
        expected = [sequential_state(w.program) for w in workloads]
        del finds[:], compiled[:]
        with one_pool_daemon(tmp_path).start() as daemon:
            with ServeClient(daemon.config.socket_path, client="t") as client:
                results = [client.run(resubmission(w.program),
                                      **submit_options(w))
                           for __ in range(5) for w in workloads]
                assert len(finds) == 2
                # A third engine configuration of a known image is a
                # new recognition; asking again is not.
                options = submit_options(collatz)
                options["engine"]["recognizer_min_occurrences"] = 7
                third = [client.run(resubmission(collatz.program), **options)
                         for __ in range(2)]
                assert len(finds) == 3
                stats = client.stats()
            held = [row.program for row in daemon.images._rows.values()]

        for result, state in zip(results + third,
                                 expected * 5 + expected[:1] * 2):
            assert base64.b64decode(result["final_state"]) == state
        assert [r["recognition"] for r in results] \
            == ["run", "run"] + ["reused"] * 8
        assert [r["recognition"] for r in third] == ["run", "reused"]
        # The budget still changed hands at every switch ...
        assert stats["pools_created"] == 11
        # ... but every block variant compiled in this process went into
        # one of the two interned programs' stores, where a variant is
        # compiled at most once (tests/test_fastpath_blockcache.py).
        assert len(held) == 2
        assert {id(p.translations) for p in finds} \
            == {id(p.translations) for p in held}
        in_stores = sum(
            getattr(block, variant).__name__ == "_block"
            for program in held
            for shapes in program.translations._pool.values() if shapes
            for block in shapes for variant in blockcache.VARIANTS)
        blocks = [name for name in compiled if name.startswith("<block")]
        assert len(blocks) == in_stores > 0
        # The rest are regions (hot blocks compiled as one function),
        # which the same stores hold, each version compiled once.
        regions = [name for name in compiled if name.startswith("<region")]
        assert len(blocks) + len(regions) == len(compiled)
        assert len(set(regions)) == len(regions)
        assert 0 < sum(len(program.translations._regions)
                       for program in held) <= len(regions)
        images = stats["images"]
        assert images["held"] == images["interned"] == 2
        assert images["evicted"] == 0
        assert images["recognitions_run"] == 3
        assert images["recognitions_reused"] == 9
        assert images["translated_blocks"] == sum(
            len(shapes) for program in held
            for shapes in program.translations._pool.values() if shapes)

    def test_one_image_under_two_names_is_one_row_and_two_names(
            self, tmp_path, collatz):
        config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                             cache_dir=str(tmp_path / "cache"))
        with SpeculationDaemon(config).start() as daemon:
            with ServeClient(config.socket_path, client="t") as client:
                first = client.run(resubmission(collatz.program,
                                                name="alpha"),
                                   **submit_options(collatz))
                second = client.run(resubmission(collatz.program,
                                                 name="beta"),
                                    **submit_options(collatz))
                rows, stats = client.jobs(), client.stats()
            assert len(daemon.images) == 1
        assert (first["program"], second["program"]) == ("alpha", "beta")
        assert first["namespace"] == second["namespace"]
        assert [row["program"] for row in rows] == ["alpha", "beta"]
        assert [row["recognition"] for row in rows] == ["run", "reused"]
        assert stats["images"]["interned"] == 1
        with JobJournal(config.journal_dir) as journal:
            assert [job.program_dict["name"]
                    for job in journal.jobs.values()] == ["alpha", "beta"]

    def test_hints_are_part_of_what_a_recognition_is_remembered_for(
            self, tmp_path, collatz, finds):
        program = collatz.program
        assert program.hints  # Mini-C emits loop headers
        expected = sequential_state(program)
        options = submit_options(collatz)
        options["engine"]["use_compiler_hints"] = True
        submissions = [resubmission(program, name="hinted"),
                       resubmission(program, name="bare", hints=None),
                       resubmission(program, name="hinted-again"),
                       resubmission(program, name="bare-again", hints=None)]
        del finds[:]
        with SpeculationDaemon(ServeConfig(
                socket_path=str(tmp_path / "serve.sock"))).start() as daemon:
            with ServeClient(daemon.config.socket_path, client="t") as client:
                results = [client.run(submission, **options)
                           for submission in submissions]
            assert len(daemon.images) == 1
        assert [r["recognition"] for r in results] \
            == ["run", "run", "reused", "reused"]
        # Each recognition read its own submission's hints, not those
        # of whoever interned the image.
        assert [bool(p.hints) for p in finds] == [True, False]
        for result in results:
            assert base64.b64decode(result["final_state"]) == expected
        # With hints off they are no part of the key.
        plain = submit_options(collatz)
        with SpeculationDaemon(ServeConfig(
                socket_path=str(tmp_path / "plain.sock"))).start() as daemon:
            with ServeClient(daemon.config.socket_path, client="t") as client:
                results = [client.run(submission, **plain)
                           for submission in submissions[:2]]
        assert [r["recognition"] for r in results] == ["run", "reused"]

    def test_degraded_jobs_report_no_recognition(self, tmp_path, collatz):
        daemon = one_pool_daemon(tmp_path).start()
        with daemon:
            daemon._set_degraded(True, "test")
            with ServeClient(daemon.config.socket_path, client="t") as client:
                result = client.run(collatz.program,
                                    **submit_options(collatz))
                row = client.poll(result["job_id"])
            assert result["recognition"] == row["recognition"] == "none"
            assert daemon.images.stats_dict()["recognitions_run"] == 0

    def test_table_is_bounded_least_recently_submitted_out(
            self, tmp_path, monkeypatch, collatz, ising):
        monkeypatch.setattr(daemon_module, "_IMAGES_KEPT", 2)
        third = build_collatz(count=60)
        daemon = one_pool_daemon(tmp_path)  # never started: jobs stay queued
        try:
            def submit(workload):
                response = daemon._handle_submit({
                    "client": "t", "program": workload.program.to_dict(),
                    "options": submit_options(workload)})
                assert response["ok"], response
                return daemon._jobs[response["job_id"]]

            first, second = submit(collatz), submit(ising)
            again = submit(collatz)  # collatz is now the fresher row
            assert again.program is first.program
            newcomer = submit(third)
            namespaces = [w.program.image_hash()
                          for w in (collatz, ising, third)]
            assert [ns in daemon.images for ns in namespaces] \
                == [True, False, True]
            assert daemon.images.stats_dict()["evicted"] == 1
            # Eviction took the table's reference, not the job's.
            assert second.program is not None
            assert second.state == "queued"
            assert newcomer.program.image_hash() == namespaces[2]
        finally:
            daemon.close()

    def test_evicted_image_still_runs_and_then_lets_go_of_its_program(
            self, tmp_path, monkeypatch, collatz, ising):
        monkeypatch.setattr(daemon_module, "_IMAGES_KEPT", 1)
        expected = sequential_state(ising.program)
        with one_pool_daemon(tmp_path).start() as daemon:
            with ServeClient(daemon.config.socket_path, client="t") as client:
                # max_running_per_client == 1: the second job is still
                # queued when the third submission evicts its image.
                blocker = client.submit(collatz.program,
                                        **submit_options(collatz))
                victim = client.submit(resubmission(ising.program),
                                       **submit_options(ising))
                held = weakref.ref(daemon._jobs[victim["job_id"]].program)
                evictor = client.submit(collatz.program,
                                        **submit_options(collatz))
                assert ising.program.image_hash() not in daemon.images
                for job in (blocker, victim, evictor):
                    assert client.wait(job["job_id"])["state"] == "done"
                result = client.result(victim["job_id"])
            assert base64.b64decode(result["final_state"]) == expected
            assert result["recognition"] == "run"
            # Terminal and released, its pool retired for collatz's, its
            # image not in the table: nothing holds the Program any more.
            deadline = time.monotonic() + 10.0
            while held() is not None and time.monotonic() < deadline:
                gc.collect()
                time.sleep(0.05)
            assert held() is None
