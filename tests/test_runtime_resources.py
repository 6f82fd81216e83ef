"""Resource governance: probes, budgets, admission verdicts, and the
degradation ladder's runtime rungs.

Three layers under test. The :mod:`repro.runtime.resources` unit layer
(is_enospc, now :mod:`repro.durable`'s, the disk and fd probes, the
worker rlimit's environment default, rlimit plumbing, the
:class:`ResourceGovernor` verdicts). The pool layer: a
``worker_oom`` chaos fault is *contained* — the worker survives, the
task fails with a structured ``oom:`` fault and an incident record.
And the ledger layer (satellite audit): the transport's physical
byte counters must reconcile with the shipped-bytes counter no matter
how pushes interleave with ring-full and forced-inline fallbacks — or
whether the worker has a ring at all — a property test drives the
real accounting seam.
"""

import errno
import os

import pytest

from repro import durable
from repro.bench import build_collatz
from repro.runtime import FaultPlan, RealParallelEngine, RuntimeConfig, wire
from repro.runtime import resources
from repro.runtime.pool import TASK_CRASHED, TASK_FAILED, WorkerPool
from repro.runtime.resources import ResourceGovernor
from repro.runtime.shm import create_ring, shm_available
from repro.runtime.stats import RuntimeStats


class TestEnospc:
    def test_enospc_and_edquot_count(self):
        assert durable.is_enospc(OSError(errno.ENOSPC, "full"))
        if hasattr(errno, "EDQUOT"):
            assert durable.is_enospc(OSError(errno.EDQUOT, "quota"))

    def test_other_errors_do_not(self):
        assert not durable.is_enospc(OSError(errno.EACCES, "denied"))
        assert not durable.is_enospc(ValueError("not even an OSError"))


class TestProbes:
    def test_disk_free_walks_up_to_existing_parent(self):
        free = resources.disk_free_bytes("/tmp/does/not/exist/yet")
        assert free is not None and free >= 0

    def test_fd_headroom_measures_something(self):
        headroom = resources.fd_headroom()
        assert headroom is None or isinstance(headroom, int)


class TestEnvDefaults:
    def test_worker_rlimit_default_unlimited(self, monkeypatch):
        monkeypatch.delenv(resources.ENV_WORKER_RLIMIT_AS, raising=False)
        assert RuntimeConfig().worker_rlimit_as_bytes is None
        for unset in ("0", "", "not-a-number"):
            monkeypatch.setenv(resources.ENV_WORKER_RLIMIT_AS, unset)
            assert RuntimeConfig().worker_rlimit_as_bytes is None
        monkeypatch.setenv(resources.ENV_WORKER_RLIMIT_AS, str(1 << 30))
        assert RuntimeConfig().worker_rlimit_as_bytes == 1 << 30

    def test_config_flows_env_rlimit_to_workers(self, monkeypatch):
        monkeypatch.setenv(resources.ENV_WORKER_RLIMIT_AS, str(1 << 31))
        assert RuntimeConfig().worker_rlimit_as_bytes == 1 << 31
        monkeypatch.delenv(resources.ENV_WORKER_RLIMIT_AS)
        assert RuntimeConfig().worker_rlimit_as_bytes is None
        assert RuntimeConfig(
            worker_rlimit_as_bytes=1 << 32).worker_rlimit_as_bytes == 1 << 32

    def test_replace_keeps_an_explicit_uncapped(self, monkeypatch):
        """0 means "no cap, whatever the environment says" — and must
        still mean it on the copy ``replace()`` makes."""
        monkeypatch.setenv(resources.ENV_WORKER_RLIMIT_AS, str(1 << 28))
        uncapped = RuntimeConfig(worker_rlimit_as_bytes=0)
        assert uncapped.worker_rlimit_as_bytes is None
        assert uncapped.replace(n_workers=3).worker_rlimit_as_bytes is None
        # A resolved cap survives, an explicit override wins, and None
        # still asks the environment.
        assert RuntimeConfig().replace(
            n_workers=3).worker_rlimit_as_bytes == 1 << 28
        assert uncapped.replace(
            worker_rlimit_as_bytes=1 << 30).worker_rlimit_as_bytes == 1 << 30
        assert uncapped.replace(
            worker_rlimit_as_bytes=None).worker_rlimit_as_bytes == 1 << 28


class TestRlimitPlumbing:
    def test_apply_none_is_noop(self):
        assert resources.apply_worker_rlimit(None) is None
        assert resources.apply_worker_rlimit(0) is None

    def test_apply_and_restore_round_trip(self):
        saved = resources.current_rlimit_as()
        if saved is None:
            pytest.skip("RLIMIT_AS not readable here")
        # A terabyte cap cannot bite this test process; what matters is
        # that the soft limit moves and restores.
        applied = resources.apply_worker_rlimit(1 << 40)
        try:
            if applied is None:
                pytest.skip("RLIMIT_AS not settable here")
            soft, hard = resources.current_rlimit_as()
            assert soft == applied[0]
            assert hard == saved[1]  # the hard limit is never touched
        finally:
            resources.restore_rlimit_as(saved)
        assert resources.current_rlimit_as()[0] == saved[0]


def _quiet_governor(**kwargs):
    """A governor whose probes all report plenty, unless overridden."""
    defaults = dict(disk_floor_bytes=1 << 20,
                    fd_headroom_floor=16, max_queued_jobs=8,
                    disk_path="/tmp",
                    disk_probe=lambda path: 1 << 40,
                    fd_probe=lambda: 10_000)
    defaults.update(kwargs)
    return ResourceGovernor(**defaults)


class TestResourceGovernor:
    def test_admits_when_nothing_is_exhausted(self):
        governor = _quiet_governor()
        assert governor.admission_reason(queued_jobs=0) is None
        assert governor.admissions == 1 and governor.sheds == 0

    def test_sheds_on_queue_bound(self):
        governor = _quiet_governor(max_queued_jobs=2)
        assert governor.admission_reason(queued_jobs=2) == \
            "queue-bound (2 queued)"
        assert governor.pressure_events["queue"] == 1
        assert governor.sheds == 1

    def test_sheds_on_fd_headroom(self):
        governor = _quiet_governor(fd_probe=lambda: 3)
        assert governor.admission_reason() == "fd-headroom"
        assert governor.pressure_events["fd"] == 1

    def test_sheds_on_disk_floor(self):
        governor = _quiet_governor(disk_probe=lambda path: 100)
        assert governor.admission_reason() == "disk-floor"
        assert governor.pressure_events["disk"] == 1

    def test_zero_floor_disables_check(self):
        governor = _quiet_governor(fd_headroom_floor=0,
                                   disk_floor_bytes=0, max_queued_jobs=0,
                                   disk_probe=lambda path: 0,
                                   fd_probe=lambda: 0)
        assert governor.admission_reason(queued_jobs=10 ** 6) is None

    def test_probe_failure_is_not_pressure(self):
        governor = _quiet_governor(disk_probe=lambda path: None,
                                   fd_probe=lambda: None)
        assert governor.admission_reason() is None

    def test_no_disk_path_skips_disk_check(self):
        governor = _quiet_governor(disk_path=None,
                                   disk_probe=lambda path: 0)
        assert governor.admission_reason() is None

    def test_force_pressure_is_consumed_exactly_n_times(self):
        governor = _quiet_governor()
        governor.force_pressure("fd", 2)
        assert governor.admission_reason() == "fd-headroom"
        assert governor.admission_reason() == "fd-headroom"
        assert governor.admission_reason() is None
        assert governor.sheds == 2 and governor.admissions == 1

    def test_force_pressure_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            _quiet_governor().force_pressure("plutonium")

    def test_checks_run_cheapest_first(self):
        # Queue and fd both exhausted: queue wins and fd is not charged.
        governor = _quiet_governor(max_queued_jobs=1, fd_probe=lambda: 0)
        governor.admission_reason(queued_jobs=5)
        assert governor.pressure_events["queue"] == 1
        assert governor.pressure_events["fd"] == 0

    def test_stats_dict_shape(self):
        governor = _quiet_governor()
        governor.admission_reason()
        stats = governor.stats_dict()
        assert stats["floors"]["max_queued_jobs"] == 8
        assert stats["admissions"] == 1
        assert set(stats["pressure_events"]) == set(
            resources.PRESSURE_KINDS)
        assert set(stats["probes"]) == {"disk_free_bytes", "fd_headroom"}


@pytest.fixture(scope="module")
def loop_program():
    from repro.asm import assemble
    return assemble("""
        .entry start
        start:
            mov eax, 0
        top:
            load ecx, [counter]
            add ecx, 7
            store [counter], ecx
            inc eax
            cmp eax, 40
            jl top
            hlt
        .data
        counter: .word 0
    """, name="resources-loop")


def _boundary_state(program):
    machine = program.make_machine()
    top = program.symbol("top")
    machine.run(max_instructions=100_000, break_ips=frozenset((top,)))
    return top, bytes(machine.state.buf)


def _drain_one(pool, deadline_seconds=20.0):
    import time
    outcomes = []
    deadline = time.monotonic() + deadline_seconds
    while not outcomes and time.monotonic() < deadline:
        outcomes.extend(pool.poll(timeout=0.2))
    assert outcomes, "pool produced no outcome within the deadline"
    return outcomes


class TestWorkerOomContainment:
    def test_oom_fault_is_contained_not_fatal(self, loop_program):
        rip, start = _boundary_state(loop_program)
        plan = FaultPlan(seed=3, worker_oom=1, start=0, spacing=1)
        config = RuntimeConfig(n_workers=1, fault_plan=plan)
        with WorkerPool(loop_program, config) as pool:
            pool.submit(rip, 1, 10_000, start, meta="squeezed")
            assert plan.injected == {"worker_oom": 1}
            outcomes = _drain_one(pool)
            first = outcomes[0]
            # The surgical outcome is a contained MemoryError (worker
            # alive, structured incident); a platform where the rlimit
            # clamp lands mid-allocation instead produces the crash
            # path — either way the fault never escapes the slot.
            assert first.status in (TASK_FAILED, TASK_CRASHED)
            if first.status == TASK_FAILED:
                assert first.fault and first.fault.startswith("oom:")
                assert pool.stats.tasks_oom == 1
                incident = pool.stats.incidents[-1]
                assert incident["kind"] == "worker_oom"
                assert incident["rip"] == rip
            # The slot healed: the same pool serves the next task.
            pool.submit(rip, 1, 10_000, start, meta="after")
            after = _drain_one(pool)
            assert after[0].task.meta == "after"
            assert after[0].ok

    @pytest.mark.skipif(not shm_available(), reason="no rings without fork")
    def test_shm_full_fault_degrades_to_inline(self, loop_program):
        rip, start = _boundary_state(loop_program)
        plan = FaultPlan(seed=5, shm_full=1, start=0, spacing=1)
        config = RuntimeConfig(n_workers=1, fault_plan=plan)
        with WorkerPool(loop_program, config) as pool:
            pool.submit(rip, 1, 10_000, start, meta="inline")
            assert plan.injected == {"shm_full": 1}
            assert pool.stats.shm_fallbacks == 1
            assert pool.stats.shm_fallback_bytes > 0
            outcomes = _drain_one(pool)
            # Pressure degraded the transport, never the answer.
            assert outcomes[0].ok


class _Slot:
    """Just enough worker state for the dispatch-encoding seam."""

    def __init__(self, ring):
        self.task_ring = ring
        self.base_state = None
        self.epoch = 0


def _ledger_pool():
    pool = WorkerPool.__new__(WorkerPool)
    pool.stats = RuntimeStats()
    return pool


def _ledger_reconciles(stats):
    return stats.state_bytes_shipped == \
        stats.shm_bytes_written + stats.shm_fallback_bytes


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - bare environments
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
@pytest.mark.skipif(not shm_available(), reason="no rings without fork")
class TestShmLedgerProperty:
    """Satellite audit: physical vs shipped transport ledgers.

    Drives the *real* :meth:`WorkerPool._encode_task_shm` accounting
    seam with a real ring but no worker processes. Nothing ever drains
    the ring, so pushes march through fit → ring-full → fallback;
    forced-inline (the chaos ``shm_full`` shape) and oversized blobs
    interleave — or the slot is ringless (``capacity`` None) and every
    blob is a fallback. After any such history the invariant must hold:
    ``state_bytes_shipped == shm_bytes_written + shm_fallback_bytes``.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        capacity=st.one_of(st.none(),
                           st.integers(min_value=64, max_value=2048)),
        tasks=st.lists(
            st.tuples(st.binary(min_size=1, max_size=3000),
                      st.booleans()),
            min_size=1, max_size=12),
    )
    def test_ledgers_reconcile(self, capacity, tasks):
        pool = _ledger_pool()
        ring = create_ring(capacity) if capacity is not None else None
        slot = _Slot(ring)
        try:
            for task_id, (state, force_inline) in enumerate(tasks):
                WorkerPool._encode_task_shm(
                    pool, slot, task_id, 0x40, 1, 1000, state,
                    flags=0, force_inline=force_inline)
                # Mirror submit(): a sent task commits the delta base.
                slot.base_state = state
                slot.epoch += 1
                assert _ledger_reconciles(pool.stats)
            stats = pool.stats
            forced = sum(1 for __, inline in tasks if inline)
            assert stats.shm_fallbacks >= forced
            assert stats.states_delta + stats.states_full == len(tasks)
            if ring is None:
                assert stats.shm_fallbacks == len(tasks)
                assert stats.shm_bytes_written == 0
            else:
                # Physical ring occupancy never exceeds what the ledger
                # says was written (releases never happen here).
                assert ring.used_bytes() <= stats.shm_bytes_written
        finally:
            if ring is not None:
                ring.close()

    def test_forced_inline_never_touches_the_ring(self):
        pool = _ledger_pool()
        ring = create_ring(4096)
        slot = _Slot(ring)
        try:
            WorkerPool._encode_task_shm(pool, slot, 0, 0x40, 1, 1000,
                                        b"x" * 256, flags=0,
                                        force_inline=True)
            assert pool.stats.shm_bytes_written == 0
            assert pool.stats.shm_fallbacks == 1
            assert ring.used_bytes() == 0
            assert _ledger_reconciles(pool.stats)
        finally:
            ring.close()


#: The resource-tier acceptance schedule: ring pressure plus contained
#: OOMs during one run, all while the answer stays byte-identical.
RESOURCE_PLAN = dict(shm_full=2, worker_oom=1, start=1, spacing=1)


class TestResourceChaosDifferential:
    @pytest.mark.parametrize("seed", [7, 23])
    def test_byte_identical_under_resource_faults(self, seed):
        if not shm_available():
            pytest.skip("no rings without fork")
        workload = build_collatz(count=250)
        machine = workload.program.make_machine()
        machine.run(max_instructions=50_000_000)
        assert machine.halted
        expected = bytes(machine.state.buf)

        plan = FaultPlan(seed=seed, **RESOURCE_PLAN)
        config = RuntimeConfig(n_workers=3, inflight_wait_bias=1e9,
                               fault_plan=plan)
        result = RealParallelEngine(workload.program,
                                    config=workload.config,
                                    runtime_config=config).run()
        runtime = result.runtime

        assert result.halted
        assert result.final_state == expected
        assert plan.exhausted, "pending faults: %s" % dict(plan.pending)
        assert plan.injected["shm_full"] == 2
        assert plan.injected["worker_oom"] == 1
        # Each forced shm_full degraded that dispatch to inline.
        assert runtime.shm_fallbacks >= 2
        # The transport ledgers reconcile whatever rings were allocated.
        assert _ledger_reconciles(runtime)
