"""Watchdog state machine and the degraded-mode self-check probes.

Everything here drives :meth:`Watchdog.step` with an explicit clock —
no sleeps — against fake jobs and pools, so the full escalation ladder
(condemn → kill workers → abandon pool) is covered in milliseconds.
"""

import threading

from repro.serve.watchdog import (
    STAGE_ABANDONED,
    STAGE_CANCELLING,
    STAGE_KILLING,
    STAGE_WATCHING,
    SelfCheck,
    Watchdog,
)


class FakeJob:
    def __init__(self, job_id="j1"):
        self.job_id = job_id
        self.cancel_event = threading.Event()


class FakePool:
    def __init__(self):
        self.kills = 0
        self.shutdowns = 0

    def kill_workers(self):
        self.kills += 1
        return 2

    def shutdown(self):
        self.shutdowns += 1


class FakeLease:
    def __init__(self, pool):
        self.pool = pool


class TestDeadline:
    def test_healthy_job_never_condemned(self):
        dog = Watchdog(deadline_seconds=10.0, no_progress_seconds=5.0)
        job = FakeJob()
        dog.watch(job, None, now=0.0)
        for now in (1.0, 4.0, 8.0):
            dog.heartbeat("j1", now=now)
            assert dog.step(now=now) == []
        assert not job.cancel_event.is_set()

    def test_deadline_condemns_and_cancels(self):
        dog = Watchdog(deadline_seconds=10.0, no_progress_seconds=None)
        job = FakeJob()
        dog.watch(job, None, now=0.0)
        assert dog.step(now=9.0) == []
        incidents = dog.step(now=10.5)
        assert len(incidents) == 1
        assert incidents[0]["kind"] == "deadline"
        assert incidents[0]["job_id"] == "j1"
        assert incidents[0]["deadline_seconds"] == 10.0
        assert job.cancel_event.is_set()
        assert dog.timeout_reason("j1") == "deadline"
        assert dog.deadline_timeouts == 1

    def test_per_job_deadline_overrides_default(self):
        dog = Watchdog(deadline_seconds=100.0, no_progress_seconds=None)
        job = FakeJob()
        dog.watch(job, None, deadline_seconds=2.0, now=0.0)
        assert dog.step(now=2.5)[0]["kind"] == "deadline"


class TestNoProgress:
    def test_stall_condemns(self):
        dog = Watchdog(no_progress_seconds=5.0)
        job = FakeJob()
        dog.watch(job, None, now=0.0)
        dog.heartbeat("j1", now=3.0)
        assert dog.step(now=7.0) == []  # last beat only 4s ago
        incidents = dog.step(now=8.5)
        assert incidents[0]["kind"] == "no-progress"
        assert incidents[0]["heartbeats"] == 1
        assert dog.progress_timeouts == 1

    def test_heartbeats_keep_it_alive_indefinitely(self):
        dog = Watchdog(no_progress_seconds=5.0)
        dog.watch(FakeJob(), None, now=0.0)
        for now in range(1, 50, 4):
            dog.heartbeat("j1", now=float(now))
            assert dog.step(now=float(now)) == []

    def test_unwatch_stops_supervision(self):
        dog = Watchdog(no_progress_seconds=5.0)
        dog.watch(FakeJob(), None, now=0.0)
        dog.unwatch("j1")
        assert dog.step(now=100.0) == []
        assert dog.timeout_reason("j1") is None


class TestEscalation:
    def make_condemned(self):
        pool = FakePool()
        dog = Watchdog(deadline_seconds=1.0, no_progress_seconds=None,
                       kill_grace_seconds=5.0)
        job = FakeJob()
        dog.watch(job, FakeLease(pool), now=0.0)
        assert dog.step(now=2.0)[0]["kind"] == "deadline"
        return dog, job, pool

    def watch_stage(self, dog):
        return dog._watches["j1"].stage

    def test_ladder_walks_cancel_kill_abandon(self):
        dog, job, pool = self.make_condemned()
        assert self.watch_stage(dog) == STAGE_CANCELLING

        # Within the grace window nothing escalates.
        assert dog.step(now=6.0) == []
        assert pool.kills == 0

        incidents = dog.step(now=8.0)  # grace expired: kill workers
        assert incidents[0]["kind"] == "worker-kill"
        assert incidents[0]["workers_killed"] == 2
        assert pool.kills == 1
        assert self.watch_stage(dog) == STAGE_KILLING
        assert dog.worker_kills == 2

        assert dog.step(now=9.0) == []  # second grace window
        incidents = dog.step(now=14.0)  # expired: abandon the pool
        assert incidents[0]["kind"] == "pool-abandon"
        assert pool.shutdowns == 1
        assert self.watch_stage(dog) == STAGE_ABANDONED
        assert dog.pool_abandons == 1

        # Terminal: stepping forever more raises nothing new.
        assert dog.step(now=1000.0) == []

    def test_job_ending_during_grace_stops_the_ladder(self):
        dog, job, pool = self.make_condemned()
        dog.unwatch("j1")  # the cancel landed; job thread cleaned up
        assert dog.step(now=1000.0) == []
        assert pool.kills == 0

    def test_leaseless_job_still_walks_stages(self):
        # Degraded-mode jobs have no pool lease; escalation must not
        # crash on them.
        dog = Watchdog(deadline_seconds=1.0, no_progress_seconds=None,
                       kill_grace_seconds=1.0)
        dog.watch(FakeJob(), None, now=0.0)
        assert dog.step(now=2.0)[0]["kind"] == "deadline"
        assert dog.step(now=4.0)[0]["kind"] == "worker-kill"
        assert dog.step(now=6.0)[0]["kind"] == "pool-abandon"

    def test_incident_history_is_bounded(self):
        dog = Watchdog(deadline_seconds=1.0, no_progress_seconds=None,
                       kill_grace_seconds=0.1)
        for i in range(100):
            dog.watch(FakeJob("j%d" % i), None, now=0.0)
            dog.step(now=2.0 + i)
            dog.unwatch("j%d" % i)
        assert len(dog.incidents) <= 64

    def test_stats_dict_shape(self):
        dog, job, pool = self.make_condemned()
        stats = dog.stats_dict()
        assert stats["watching"] == 1
        assert stats["deadline_timeouts"] == 1
        assert stats["incidents"][-1]["kind"] == "deadline"


class TestSelfCheck:
    def test_healthy_by_default(self):
        check = SelfCheck()
        assert check.verdict() == (True, None)

    def test_flush_failure_degrades_until_a_flush_succeeds(self):
        check = SelfCheck()
        check.note_flush_failure(OSError("disk full"))
        healthy, reason = check.verdict()
        assert not healthy
        assert "disk full" in reason
        check.note_flush_ok()
        assert check.verdict()[0]
        assert check.flush_failures == 1

    def test_stats_dict_shape(self):
        check = SelfCheck()
        check.note_flush_failure(OSError("disk full"))
        check.verdict()
        assert check.stats_dict() == {
            "checks_run": 1, "flush_failures": 1,
            "last_flush_error": "OSError: disk full"}
