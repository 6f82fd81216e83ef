"""ServeClient fault-hardening: tokens, retries, reconnects, timeouts."""

import base64
import os
import socket
import threading
import time

import pytest

from repro.bench import build_collatz
from repro.core.config import EngineConfig
from repro.serve import (
    ServeClient,
    ServeClientError,
    ServeConfig,
    SpeculationDaemon,
)


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


@pytest.fixture
def daemon(tmp_path):
    config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                         cache_dir=str(tmp_path / "cache"),
                         worker_budget=4, workers_per_job=2,
                         max_concurrent_jobs=2)
    instance = SpeculationDaemon(config).start()
    yield instance
    instance.close()


class TestTokens:
    def test_submit_generates_a_token(self, daemon, collatz):
        with ServeClient(daemon.config.socket_path, client="A") as client:
            submitted = client.submit(collatz.program,
                                      **submit_options(collatz))
            assert submitted["token"]
            assert submitted["deduped"] is False
            assert client.last_token == submitted["token"]

    def test_same_token_dedups_onto_the_original_job(self, daemon,
                                                     collatz):
        with ServeClient(daemon.config.socket_path, client="A") as client:
            first = client.submit(collatz.program, token="tok-42",
                                  **submit_options(collatz))
            again = client.submit(collatz.program, token="tok-42",
                                  **submit_options(collatz))
            assert again["job_id"] == first["job_id"]
            assert again["deduped"] is True
            client.wait(first["job_id"])

    def test_poll_and_result_by_token_alone(self, daemon, collatz):
        with ServeClient(daemon.config.socket_path, client="A") as client:
            client.submit(collatz.program, token="tok-7",
                          **submit_options(collatz))
            job = client.wait(token="tok-7")
            assert job["state"] == "done"
            assert job["token"] == "tok-7"
            result = client.result(token="tok-7")
            assert result["halted"]

    def test_unknown_token_is_not_found(self, daemon):
        with ServeClient(daemon.config.socket_path, client="A") as client:
            with pytest.raises(ServeClientError) as info:
                client.poll(token="never-submitted")
            assert info.value.code == "not-found"


class TestRetries:
    def test_fatal_codes_are_not_retried(self, daemon):
        with ServeClient(daemon.config.socket_path, client="A",
                         retries=5) as client:
            with pytest.raises(ServeClientError) as info:
                client.poll("j999")
            assert info.value.code == "not-found"
            assert client.retried_requests == 0

    def test_backoff_is_bounded_and_jittered(self, daemon):
        with ServeClient(daemon.config.socket_path, client="A",
                         backoff_base=0.1, backoff_max=1.0) as client:
            for attempt in range(12):
                nominal = min(1.0, 0.1 * (2 ** attempt))
                for __ in range(8):
                    delay = client._backoff(attempt)
                    assert nominal * 0.5 <= delay <= nominal

    def test_no_daemon_fails_fast_with_code(self, tmp_path):
        with pytest.raises(ServeClientError) as info:
            ServeClient(str(tmp_path / "nothing.sock"))
        assert info.value.code == "no-daemon"

    def test_timeout_poisons_the_connection(self, tmp_path):
        # A listener that accepts and never answers: the client must
        # time out, drop the socket (a late reply would desync the
        # stream), and surface code="timeout" once retries run out.
        path = str(tmp_path / "mute.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(4)
        accepted = []

        def accept_loop():
            try:
                while True:
                    conn, __ = listener.accept()
                    accepted.append(conn)
            except OSError:
                pass

        thread = threading.Thread(target=accept_loop, daemon=True)
        thread.start()
        try:
            client = ServeClient(path, timeout=0.2, retries=1,
                                 backoff_base=0.01)
            with pytest.raises(ServeClientError) as info:
                client.ping()
            assert info.value.code == "timeout"
            assert client._sock is None  # poisoned, not reused
            assert client.retried_requests == 1
            client.close()
        finally:
            listener.close()
            for conn in accepted:
                conn.close()
            thread.join(timeout=5)


class TestReconnect:
    def test_client_survives_a_daemon_restart(self, tmp_path, collatz):
        socket_path = str(tmp_path / "serve.sock")
        cache_dir = str(tmp_path / "cache")

        config = ServeConfig(socket_path=socket_path, cache_dir=cache_dir)
        first = SpeculationDaemon(config).start()
        client = ServeClient(socket_path, client="A", retries=8,
                             backoff_base=0.05)
        assert client.ping()["ok"]
        first.close()

        # Restart on the same path; the next request reconnects
        # transparently instead of surfacing the dead socket.
        second = SpeculationDaemon(
            ServeConfig(socket_path=socket_path,
                        cache_dir=cache_dir)).start()
        try:
            assert client.ping()["ok"]
            assert client.reconnects >= 1
            result = client.run(collatz.program, **submit_options(collatz))
            assert result["halted"]
        finally:
            client.close()
            second.close()


class TestStatusVerb:
    def test_status_reports_health(self, daemon, collatz):
        with ServeClient(daemon.config.socket_path, client="A") as client:
            client.run(collatz.program, **submit_options(collatz))
            status = client.status()
            # The job reads done to the client slightly before its
            # worker thread's finally block unwatches it.
            deadline = time.monotonic() + 10.0
            while (status["watchdog"]["watching"]
                   and time.monotonic() < deadline):
                time.sleep(0.02)
                status = client.status()
        assert status["ok"] is True
        assert status["pid"] == os.getpid()
        assert status["degraded"] is False
        assert status["jobs"]["done"] == 1
        assert status["journal"]["records_appended"] >= 3
        assert status["watchdog"]["watching"] == 0
        assert status["selfcheck"]["flush_failures"] == 0

    def test_ping_reports_journaled_and_degraded(self, daemon):
        with ServeClient(daemon.config.socket_path, client="A") as client:
            pong = client.ping()
        assert pong["journaled"] is True
        assert pong["degraded"] is False
