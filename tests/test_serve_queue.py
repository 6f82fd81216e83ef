"""Central queue: fairness, admission bounds, cancellation."""

from types import SimpleNamespace

import pytest

from repro.serve.queue import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_QUEUED,
    JOB_RUNNING,
    BacklogFull,
    CentralQueue,
    Job,
    QueueError,
)

PROGRAM = SimpleNamespace(name="prog", hints=None)
NS = "a" * 16


def make_job(job_id, client, namespace=NS):
    return Job(job_id, client, PROGRAM, namespace)


class TestImageRelease:
    def test_only_a_terminal_job_lets_go_of_its_image(self):
        job = make_job("1", "a")
        with pytest.raises(QueueError):
            job.release_image()  # queued: it has yet to run
        job.move(JOB_RUNNING)
        with pytest.raises(QueueError):
            job.release_image()
        job.move(JOB_DONE)
        job.release_image()
        assert job.program is None
        assert job.summary()["program"] == "prog"
        assert "prog" in repr(job)


class TestAdmission:
    def test_backlog_bound_raises(self):
        queue = CentralQueue(max_queued_per_client=2)
        queue.submit(make_job("1", "a"))
        queue.submit(make_job("2", "a"))
        with pytest.raises(BacklogFull):
            queue.submit(make_job("3", "a"))
        assert queue.jobs_rejected == 1
        # Another client is unaffected by a's full backlog.
        queue.submit(make_job("4", "b"))

    def test_round_robin_across_clients(self):
        queue = CentralQueue(max_running_per_client=8)
        for i in range(2):
            queue.submit(make_job("a%d" % i, "a"))
            queue.submit(make_job("b%d" % i, "b"))
        order = [queue.next_runnable().job_id for __ in range(4)]
        assert order == ["a0", "b0", "a1", "b1"]

    def test_running_bound_skips_client(self):
        queue = CentralQueue(max_running_per_client=1)
        queue.submit(make_job("a0", "a"))
        queue.submit(make_job("a1", "a"))
        queue.submit(make_job("b0", "b"))
        first = queue.next_runnable()
        assert first.job_id == "a0"
        # a is at its running bound; b gets the next slot.
        second = queue.next_runnable()
        assert second.job_id == "b0"
        assert queue.next_runnable() is None
        first.move(JOB_RUNNING)
        first.move(JOB_DONE)
        queue.note_finished(first)
        assert queue.next_runnable().job_id == "a1"

    def test_resource_veto_does_not_block_other_jobs(self):
        queue = CentralQueue(max_running_per_client=8)
        queue.submit(make_job("a0", "a", namespace="b" * 16))
        queue.submit(make_job("a1", "a", namespace="c" * 16))
        vetoed = queue.next_runnable(lambda j: j.namespace != "b" * 16)
        assert vetoed.job_id == "a1"  # head-of-line veto skipped, not stuck
        assert queue.queued_count("a") == 1


class TestLifecycle:
    def test_job_transitions(self):
        job = make_job("1", "a")
        assert job.state == JOB_QUEUED
        job.move(JOB_RUNNING)
        assert job.state == JOB_RUNNING
        job.move(JOB_DONE, result={"halted": True})
        assert job.terminal
        assert job.wall_seconds is not None
        with pytest.raises(QueueError):
            job.move(JOB_CANCELLED)
        with pytest.raises(QueueError):
            job.move(JOB_RUNNING)

    def test_summary_includes_result_fields(self):
        job = make_job("1", "a")
        job.move(JOB_RUNNING)
        job.move(JOB_DONE, result={"halted": True, "hits": 3,
                                     "total_instructions": 99,
                                     "first_splice_seconds": 0.5,
                                     "warm_entries": 2, "merged_entries": 1})
        row = job.summary()
        assert row["state"] == JOB_DONE
        assert row["hits"] == 3 and row["warm_entries"] == 2
        assert "final_state" not in row

    def test_cancelled_while_queued_is_skipped(self):
        queue = CentralQueue()
        job = make_job("1", "a")
        queue.submit(job)
        job.cancel_event.set()
        assert queue.next_runnable() is None

    def test_cancel_queued_dequeues(self):
        queue = CentralQueue()
        job = make_job("1", "a")
        queue.submit(job)
        assert queue.cancel_queued(job)
        assert not queue.cancel_queued(job)  # second cancel is a no-op
        assert queue.queued_count() == 0

    def test_stats_dict(self):
        queue = CentralQueue()
        queue.submit(make_job("1", "a"))
        queue.submit(make_job("2", "b"))
        queue.next_runnable()
        stats = queue.stats_dict()
        assert stats["queued"] == 1
        assert stats["running"] == 1
        assert stats["jobs_submitted"] == 2
        assert set(stats["per_client"]) == {"a", "b"}


class TestIdleClients:
    def test_finished_clients_are_forgotten(self):
        """Every ``repro submit`` process is a client of its own: once
        its one job is done, nothing of it stays in the scheduling
        state ``next_runnable`` walks."""
        queue = CentralQueue()
        for i in range(1000):
            queue.submit(make_job(str(i), "c%d" % i))
        while True:
            job = queue.next_runnable()
            if job is None:
                break
            queue.note_finished(job)
        assert queue.stats_dict()["per_client"] == {}
        assert queue.jobs_submitted == 1000

    def test_cancel_and_refusal_forget_the_client(self):
        queue = CentralQueue(max_queued_per_client=1)
        job = make_job("1", "a")
        queue.submit(job)
        assert queue.cancel_queued(job)
        assert queue.stats_dict()["per_client"] == {}
        refusing = CentralQueue(max_queued_per_client=0)
        with pytest.raises(BacklogFull):
            refusing.submit(make_job("2", "b"))
        assert refusing.stats_dict()["per_client"] == {}

    def test_round_robin_resumes_after_a_forgotten_client(self):
        queue = CentralQueue(max_running_per_client=8)
        for client in "abc":
            queue.submit(make_job(client + "0", client))
        queue.submit(make_job("a1", "a"))
        queue.submit(make_job("c1", "c"))
        assert queue.next_runnable().job_id == "a0"
        picked = queue.next_runnable()
        assert picked.job_id == "b0"
        queue.note_finished(picked)  # b is idle now, and forgotten
        assert "b" not in queue.stats_dict()["per_client"]
        # The turn after b's is c's, not a's again.
        assert [queue.next_runnable().job_id for __ in range(3)] \
            == ["c0", "a1", "c1"]
