"""Chaos benchmark: wall-clock overhead of surviving a fault storm.

Runs each workload on the real multiprocess runtime twice — once
clean, once under a seeded :class:`~repro.runtime.faults.FaultPlan`
(kills, deadline overruns, wire corruption, slow and dropped results)
— and measures what graceful degradation costs. Both legs must end
byte-identical to a plain sequential run; the interesting numbers are
the wall-clock ratio and the supervision counters (respawns, breaker
trips, rejected frames). A third leg measures *resource pressure*
(DESIGN.md §15): a deliberately tiny shm ring spills every state blob
to the inline pipe fallback while a seeded schedule injects forced
``shm_full`` events and a contained worker OOM — degraded-mode
overhead, same byte-identical gate. Metrics land in
``results/BENCH_chaos.json``.
"""

import time

from conftest import PROFILE, publish, publish_metrics

from repro.bench import build_collatz, build_ising
from repro.core.recognizer import Recognizer
from repro.runtime import FaultPlan, RealParallelEngine, RuntimeConfig

_SIZES = {
    "full": dict(collatz_count=4000, collatz_scale=64,
                 ising_nodes=128, ising_spins=6, ising_scale=8),
    "quick": dict(collatz_count=1500, collatz_scale=32,
                  ising_nodes=64, ising_spins=6, ising_scale=8),
}
SIZES = _SIZES["quick" if PROFILE == "quick" else "full"]

_RECORDED = {}


def _sequential(program):
    machine = program.make_machine()
    start = time.perf_counter()
    machine.run(max_instructions=500_000_000)
    wall = time.perf_counter() - start
    assert machine.halted
    return wall, bytes(machine.state.buf)


def _run(workload, recognized, scale, plan=None):
    runtime_config = RuntimeConfig(n_workers=3, superstep_scale=scale,
                                   fault_plan=plan)
    return RealParallelEngine(
        workload.program, config=workload.config,
        runtime_config=runtime_config, recognized=recognized).run()


def _measure(tag, workload, scale):
    recognized = Recognizer(workload.config).find(workload.program)
    seq_wall, expected = _sequential(workload.program)
    clean = _run(workload, recognized, scale)
    assert clean.final_state == expected, "%s clean run diverged" % tag
    plan = FaultPlan(seed=42, kills=2, timeouts=2, corruptions=1,
                     slows=1, drops=1, slow_seconds=0.01, start_after=2,
                     spacing=1)
    chaotic = _run(workload, recognized, scale, plan=plan)
    assert chaotic.final_state == expected, "%s chaos run diverged" % tag
    runtime = chaotic.runtime
    overhead = (chaotic.wall_seconds / clean.wall_seconds
                if clean.wall_seconds else 0.0)
    _RECORDED.update({
        "%s_wall_sequential" % tag: seq_wall,
        "%s_wall_clean" % tag: clean.wall_seconds,
        "%s_wall_chaos" % tag: chaotic.wall_seconds,
        "%s_chaos_overhead" % tag: overhead,
        "%s_faults_injected" % tag: runtime.faults_injected,
        "%s_workers_respawned" % tag: runtime.workers_respawned,
        "%s_breaker_trips" % tag: runtime.breaker_trips,
        "%s_frames_rejected" % tag: runtime.frames_rejected,
        "%s_results_dropped" % tag: runtime.results_dropped,
        "%s_degraded_boundaries" % tag: runtime.degraded_boundaries,
    })
    publish("chaos_%s" % tag, "\n".join([
        "%s: sequential %.3fs, clean %.3fs, chaos %.3fs (%.2fx overhead)"
        % (tag, seq_wall, clean.wall_seconds, chaotic.wall_seconds,
           overhead),
        "%s: injected %s; %d respawns, %d breaker trips, %d frames "
        "rejected, %d results dropped"
        % (tag, dict(plan.injected), runtime.workers_respawned,
           runtime.breaker_trips, runtime.frames_rejected,
           runtime.results_dropped),
    ]))
    assert plan.exhausted, "fault schedule did not fully fire: %s" \
        % dict(plan.pending)


def _measure_resource_pressure(tag, workload, scale):
    """The resource-pressure leg: a tiny shm ring (every blob spills
    to the inline pipe fallback) plus a seeded resource fault schedule
    (forced shm_full events and a contained worker OOM). Measures what
    the degradation ladder costs relative to the clean run — the
    answer must stay byte-identical either way, so wall-clock and the
    pressure counters are the whole story."""
    recognized = Recognizer(workload.config).find(workload.program)
    seq_wall, expected = _sequential(workload.program)
    clean = _run(workload, recognized, scale)
    assert clean.final_state == expected, "%s clean run diverged" % tag
    plan = FaultPlan(seed=42, shm_fulls=3, worker_ooms=1,
                     start_after=2, spacing=1)
    runtime_config = RuntimeConfig(n_workers=3, superstep_scale=scale,
                                   shm_ring_bytes=4096,  # everything spills
                                   fault_plan=plan)
    start = time.perf_counter()
    pressured = RealParallelEngine(
        workload.program, config=workload.config,
        runtime_config=runtime_config, recognized=recognized).run()
    wall = time.perf_counter() - start
    assert pressured.final_state == expected, \
        "%s pressured run diverged" % tag
    runtime = pressured.runtime
    overhead = (wall / clean.wall_seconds if clean.wall_seconds else 0.0)
    _RECORDED.update({
        "%s_wall_pressure" % tag: wall,
        "%s_pressure_overhead" % tag: overhead,
        "%s_pressure_shm_fallbacks" % tag: runtime.shm_fallbacks,
        "%s_pressure_fallback_bytes" % tag: runtime.shm_fallback_bytes,
        "%s_pressure_ring_full" % tag: runtime.ring_full_backpressure,
        "%s_pressure_tasks_oom" % tag: runtime.tasks_oom,
        "%s_pressure_tasks_failed" % tag: runtime.tasks_failed,
    })
    publish("chaos_%s_pressure" % tag, "\n".join([
        "%s pressure: clean %.3fs, pressured %.3fs (%.2fx overhead)"
        % (tag, clean.wall_seconds, wall, overhead),
        "%s pressure: injected %s; %d fallbacks (%d bytes inline), "
        "%d ring-full, %d contained OOMs"
        % (tag, dict(plan.injected), runtime.shm_fallbacks,
           runtime.shm_fallback_bytes, runtime.ring_full_backpressure,
           runtime.tasks_oom),
    ]))
    assert plan.exhausted, "resource schedule did not fully fire: %s" \
        % dict(plan.pending)
    # The tiny ring must really have forced the fallback path, and the
    # transport ledgers must still reconcile under it.
    assert runtime.shm_fallbacks >= 3
    assert runtime.state_bytes_shipped == \
        runtime.shm_bytes_written + runtime.shm_fallback_bytes


def test_collatz_chaos():
    _measure("collatz", build_collatz(count=SIZES["collatz_count"]),
             SIZES["collatz_scale"])


def test_collatz_resource_pressure():
    _measure_resource_pressure(
        "collatz", build_collatz(count=SIZES["collatz_count"]),
        SIZES["collatz_scale"])


def test_ising_chaos():
    _measure("ising", build_ising(nodes=SIZES["ising_nodes"],
                                  spins=SIZES["ising_spins"]),
             SIZES["ising_scale"])


def test_publish_chaos_json():
    assert _RECORDED, "workload tests must run first"
    _RECORDED["profile"] = PROFILE
    publish_metrics("chaos", dict(_RECORDED))
