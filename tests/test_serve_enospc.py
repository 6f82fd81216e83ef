"""Disk exhaustion across the durability tier, end to end.

The degradation ladder under test (DESIGN.md §15): an ``ENOSPC`` on a
cache-shard or journal write is a *pressure event*, not an error —
atomic writes leave no torn files or ``.tmp`` litter, the store prunes
oldest-first and retries, and if the disk is still full it suspends
write-through (answers stay correct, durability degrades) until the
first successful write lifts the suspension. The daemon retries
suspended durability on its self-check cadence, so recovery needs only
freed space — never a lucky client. All of it is driven here through
the same deterministic ``inject_enospc`` seams ``repro chaos
--disk-fulls`` uses.
"""

import base64
import os
import time

import numpy as np
import pytest

from repro.bench import build_collatz
from repro.core.cache_store import SHARD_SUFFIX, SharedCacheStore
from repro.core.config import EngineConfig
from repro.core.trajectory_cache import CacheEntry
from repro.serve import (
    JobJournal,
    ServeClient,
    ServeClientError,
    ServeConfig,
    SpeculationDaemon,
)

NS_A = "a1" * 16
NS_B = "b2" * 16


def make_entry(rip=0x40, seed=0, length=100):
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(64, size=4, replace=False)).astype(np.int64)
    return CacheEntry(rip, indices,
                      rng.integers(0, 256, size=4, dtype=np.uint8),
                      indices.copy(),
                      rng.integers(0, 256, size=4, dtype=np.uint8),
                      length)


def no_tmp_litter(directory):
    leftovers = []
    for root, __, names in os.walk(directory):
        leftovers.extend(os.path.join(root, name) for name in names
                         if name.endswith(".tmp"))
    return leftovers


class TestCacheStoreEnospc:
    def test_suspends_when_nothing_can_be_pruned(self, tmp_path):
        store = SharedCacheStore(directory=str(tmp_path))
        store.merge(NS_A, [make_entry(seed=1)])
        store.inject_enospc(1)
        written = store.flush()
        assert written == 0
        assert store.write_through_suspended
        assert store.enospc_events == 1
        # The dirty namespace stays dirty — nothing was lost, only
        # not-yet-durable.
        assert NS_A in store.dirty_namespaces()
        assert no_tmp_litter(str(tmp_path)) == []

    def test_first_successful_write_lifts_suspension(self, tmp_path):
        store = SharedCacheStore(directory=str(tmp_path))
        store.merge(NS_A, [make_entry(seed=1)])
        store.inject_enospc(1)
        store.flush()
        assert store.write_through_suspended
        assert store.flush(force=True) == 1
        assert not store.write_through_suspended
        assert store.write_through_resumes == 1
        assert store.dirty_namespaces() == []
        # The shard is real: a fresh store loads it.
        assert SharedCacheStore(
            directory=str(tmp_path)).entry_count(NS_A) == 1

    def test_prune_frees_space_and_retry_succeeds(self, tmp_path):
        store = SharedCacheStore(directory=str(tmp_path))
        # NS_A's shard (two entries) is strictly bigger than NS_B's
        # blob, so pruning it frees enough for the retry.
        store.merge(NS_A, [make_entry(seed=1), make_entry(rip=0x48,
                                                          seed=2)])
        assert store.flush() == 1
        store.merge(NS_B, [make_entry(seed=3)])
        store.inject_enospc(1)
        written = store.flush()
        assert store.shards_pruned >= 1
        assert store.enospc_events == 1
        assert not store.write_through_suspended
        # NS_B landed this pass; the pruned NS_A was re-marked dirty
        # (nothing lost) and catches up on the next flush.
        assert written == 1
        assert store.dirty_namespaces() == [NS_A]
        assert store.flush() == 1
        assert store.dirty_namespaces() == []
        files = [name for name in os.listdir(str(tmp_path))
                 if name.endswith(SHARD_SUFFIX)]
        assert len(files) == 2
        assert no_tmp_litter(str(tmp_path)) == []

    def test_stats_expose_the_ladder(self, tmp_path):
        store = SharedCacheStore(directory=str(tmp_path))
        store.merge(NS_A, [make_entry(seed=1)])
        store.inject_enospc(1)
        store.flush()
        stats = store.stats_dict()
        assert stats["enospc_events"] == 1
        assert stats["write_through_suspended"] is True
        store.flush(force=True)
        stats = store.stats_dict()
        assert stats["write_through_suspended"] is False
        assert stats["write_through_resumes"] == 1


class TestJournalEnospc:
    def test_torn_append_is_rewound_and_suspended(self, tmp_path):
        with JobJournal(str(tmp_path), fsync=False) as journal:
            journal.record_mode("normal", "baseline")
            size_before = os.path.getsize(journal.path)
            journal.inject_enospc(1)
            journal.record_mode("degraded", "dropped on the floor")
            assert journal.journal_suspended
            assert journal.records_dropped == 1
            assert journal.enospc_events == 1
            # The torn tail was rewound: the file ends exactly where
            # the last good record ended.
            assert os.path.getsize(journal.path) == size_before
        # Replay sees a structurally clean log — no salvage needed.
        with JobJournal(str(tmp_path), fsync=False) as replayed:
            assert replayed.truncated_bytes == 0
            assert replayed.records_replayed == 1
            assert replayed.mode == "normal"

    def test_next_successful_append_resumes(self, tmp_path):
        with JobJournal(str(tmp_path), fsync=False) as journal:
            journal.inject_enospc(1)
            journal.record_mode("degraded", "lost")
            assert journal.journal_suspended
            journal.record_mode("normal", "space returned")
            assert not journal.journal_suspended
            assert journal.journal_resumes == 1
        with JobJournal(str(tmp_path), fsync=False) as replayed:
            assert replayed.truncated_bytes == 0
            assert replayed.mode == "normal"

    def test_result_enospc_drops_without_litter(self, tmp_path):
        with JobJournal(str(tmp_path), fsync=False) as journal:
            journal.inject_enospc(1)
            # Empty result store: nothing to prune, the write fails
            # for good and only the *disk* copy is lost.
            assert journal.store_result("job-1", {"x": 1}) is False
            assert journal.results_dropped == 1
            assert journal.load_result("job-1") is None
            assert no_tmp_litter(str(tmp_path)) == []

    def test_result_prune_makes_room_for_retry(self, tmp_path):
        with JobJournal(str(tmp_path), fsync=False) as journal:
            assert journal.store_result("old-1", {"pad": "y" * 4096})
            time.sleep(0.02)  # mtime order: old-1 is strictly oldest
            assert journal.store_result("old-2", {"pad": "z" * 4096})
            journal.inject_enospc(1)
            assert journal.store_result("new", {"pad": "w" * 64}) is True
            assert journal.results_pruned_for_space >= 1
            assert journal.load_result("new") == {"pad": "w" * 64}
            assert journal.load_result("old-1") is None  # oldest went
            stats = journal.stats_dict()
            assert stats["enospc_events"] == 1
            assert stats["results_pruned_for_space"] >= 1


def engine_overrides(config):
    defaults = EngineConfig().__dict__
    return {key: (list(value) if isinstance(value, tuple) else value)
            for key, value in config.__dict__.items()
            if defaults.get(key) != value}


@pytest.fixture(scope="module")
def collatz():
    return build_collatz(count=80)


@pytest.fixture(scope="module")
def expected_state(collatz):
    machine = collatz.program.make_machine()
    machine.run(max_instructions=50_000_000)
    assert machine.halted
    return bytes(machine.state.buf)


def submit_options(workload):
    return {"engine": engine_overrides(workload.config),
            "inflight_wait_bias": 1e9}


@pytest.fixture
def daemon(tmp_path):
    config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                         cache_dir=str(tmp_path / "cache"),
                         worker_budget=2, workers_per_job=2,
                         max_concurrent_jobs=1,
                         selfcheck_interval_seconds=0.2)
    instance = SpeculationDaemon(config).start()
    yield instance
    instance.close()


def wait_until(probe, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if probe():
            return True
        time.sleep(interval)
    return False


class TestDaemonDurabilityDegradation:
    def test_journal_enospc_job_still_correct_then_recovers(
            self, daemon, collatz, expected_state):
        daemon.journal.inject_enospc(1)
        with ServeClient(daemon.config.socket_path, client="t1") as client:
            result = client.run(collatz.program, **submit_options(collatz))
            assert base64.b64decode(result["final_state"]) == expected_state
            # The dropped record suspended the journal; the self-check
            # durability probe lifts it without any client traffic.
            assert wait_until(
                lambda: not client.stats()["journal"]["journal_suspended"])
            journal_stats = client.stats()["journal"]
            assert journal_stats["enospc_events"] >= 1
            assert journal_stats["journal_resumes"] >= 1
        assert no_tmp_litter(daemon.config.journal_dir) == []

    def test_cache_enospc_write_through_resumes_via_selfcheck(
            self, daemon, collatz, expected_state):
        daemon.store.inject_enospc(1)
        with ServeClient(daemon.config.socket_path, client="t1") as client:
            result = client.run(collatz.program, **submit_options(collatz))
            assert base64.b64decode(result["final_state"]) == expected_state
            assert wait_until(
                lambda: (not client.stats()["cache"]
                         ["write_through_suspended"]
                         and client.stats()["cache"]
                         ["write_through_resumes"] >= 1))
            cache_stats = client.stats()["cache"]
            assert cache_stats["enospc_events"] >= 1
        # The shard really reached disk once space "returned".
        persisted = SharedCacheStore(directory=daemon.config.cache_dir)
        assert persisted.entry_count(collatz.program.image_hash()) > 0

    def test_status_exposes_pressure_counters(self, daemon):
        with ServeClient(daemon.config.socket_path, client="t1") as client:
            status = client.status()
        # Satellite: `repro serve --status` shows the prune/suspension
        # counters an operator needs during an incident.
        assert "enospc_events" in status["cache"]
        assert "shards_pruned" in status["cache"]
        assert "enospc_events" in status["journal"]
        assert "results_pruned_for_space" in status["journal"]
        assert "pressure_events" in status["governor"]
        assert status["jobs"]["shed"] == 0


class TestAdmissionShedding:
    def test_overloaded_is_surfaced_to_a_no_retry_client(
            self, daemon, collatz):
        daemon.governor.force_pressure("fd", 1)
        with ServeClient(daemon.config.socket_path, client="t1",
                         retries=0) as client:
            with pytest.raises(ServeClientError) as excinfo:
                client.submit(collatz.program, **submit_options(collatz))
            assert excinfo.value.code == "overloaded"
        assert daemon.jobs_shed == 1
        assert daemon.governor.pressure_events["fd"] == 1

    def test_retrying_client_rides_out_the_shed(self, daemon, collatz,
                                                expected_state):
        daemon.governor.force_pressure("queue", 2)
        with ServeClient(daemon.config.socket_path, client="t1",
                         retries=6, backoff_base=0.02,
                         jitter_seed=7) as client:
            result = client.run(collatz.program, **submit_options(collatz))
            assert base64.b64decode(result["final_state"]) == expected_state
            assert client.retried_requests >= 2
            stats = client.stats()
            assert stats["governor"]["sheds"] >= 2
            assert stats["jobs"]["shed"] >= 2


class TestServeFaultPlan:
    def test_daemon_consumes_its_own_resource_schedule(
            self, tmp_path, collatz, expected_state):
        config = ServeConfig(
            socket_path=str(tmp_path / "serve.sock"),
            cache_dir=str(tmp_path / "cache"),
            worker_budget=2, workers_per_job=2, max_concurrent_jobs=1,
            selfcheck_interval_seconds=0.2,
            fault_plan="seed=1,disk_full=1,fd_exhaust=1,start=1,spacing=1")
        with SpeculationDaemon(config).start() as daemon:
            with ServeClient(config.socket_path, client="t1",
                             retries=6, backoff_base=0.02,
                             jitter_seed=3) as client:
                for __ in range(3):
                    result = client.run(collatz.program,
                                        **submit_options(collatz))
                    assert base64.b64decode(
                        result["final_state"]) == expected_state
                assert daemon.serve_faults_injected == 2
                assert daemon.serve_fault_plan.exhausted
                stats = client.stats()
                # The disk_full leg really hit both durability stores.
                assert stats["journal"]["enospc_events"] \
                    + stats["cache"]["enospc_events"] >= 1
                # ... and any suspension healed before we leave.
                assert wait_until(
                    lambda: (not client.stats()["journal"]
                             ["journal_suspended"]
                             and not client.stats()["cache"]
                             ["write_through_suspended"]))

    def test_env_var_serve_plan_applies(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SERVE_FAULT_PLAN",
                           "seed=9,disk_full=2,start=0,spacing=1")
        plan = ServeConfig(
            socket_path=str(tmp_path / "s.sock")).resolve_fault_plan()
        assert plan.spec.disk_full == 2 and plan.spec.seed == 9
        monkeypatch.delenv("REPRO_SERVE_FAULT_PLAN")
        assert ServeConfig(
            socket_path=str(tmp_path / "s.sock")).resolve_fault_plan() \
            is None
