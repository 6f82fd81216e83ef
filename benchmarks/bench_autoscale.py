"""Elastic autoscaling: each policy vs every static width, wall-clock.

``--workers N`` freezes the speculation/cores trade for a whole run;
the autoscaler (:mod:`repro.runtime.autoscaler`) re-prices it at every
superstep boundary. Three legs, all on the real multiprocess runtime
with measured wall-clock, each comparing static widths 1/2/4 against
the three policies started at the *widest* static width (the worst
misprovision a fixed ``--workers`` can make):

* **cold collatz** — empty cache. Without spare cores every static
  width loses wall-clock to sequential (the ``cold-*`` workloads of
  ``BENCHMARK.json``); a
  policy with ``min_workers=0`` should collapse the pool and approach
  sequential — the paper's "speculation must cover its cores" argument
  closed online.
* **warm ising** — trajectory cache pre-learned by a cold run. Hits
  fast-forward the main thread regardless of pool width, so the
  policies' job is to walk the misprovisioned width down toward the
  best static wall.
* **phase collatz** — the cold leg's learned cache truncated to its
  first half: a warm phase that falls off a cliff mid-run. Static
  widths pay full speculation overhead through the dead phase; the
  policies shed capacity when the payoff signal dies.

Every run asserts the final state is byte-identical to sequential, and
every leg asserts zero live shared-memory segments afterward (the
grow/retire hygiene gate). Metrics land in
``results/BENCH_autoscale.json``; the publish test asserts at least
one leg where a policy beats the best static width on wall-clock.
"""

import time

from conftest import PROFILE, publish, publish_metrics

from repro.bench import build_collatz, build_ising
from repro.core.recognizer import Recognizer
from repro.core.trajectory_cache import TrajectoryCache
from repro.runtime import AUTOSCALE_POLICIES, RealParallelEngine, \
    RuntimeConfig
from repro.runtime import shm

_SIZES = {
    "full": dict(collatz_count=4000, collatz_scale=64,
                 ising_nodes=256, ising_spins=8, ising_scale=16,
                 static=(1, 2, 4)),
    "quick": dict(collatz_count=2000, collatz_scale=64,
                  ising_nodes=128, ising_spins=6, ising_scale=8,
                  static=(1, 2, 4)),
}
SIZES = _SIZES["quick" if PROFILE == "quick" else "full"]

#: Filled by the leg tests, consumed by test_publish_autoscale_json
#: (tests in this module run in definition order under pytest).
_RECORDED = {}

#: The cold leg's aggregated collatz cache, reused by the phase leg.
_LEARNED = {}


def _sequential_wall(program):
    machine = program.make_machine()
    start = time.perf_counter()
    machine.run(max_instructions=500_000_000)
    wall = time.perf_counter() - start
    assert machine.halted
    return wall, bytes(machine.state.buf)


def _run(workload, recognized, scale, n_workers, policy="off",
         initial_cache=None):
    runtime_config = RuntimeConfig(
        n_workers=n_workers,
        superstep_scale=scale,
        autoscale=policy,
        autoscale_min_workers=0,
        autoscale_max_workers=max(SIZES["static"]),
        # Short runs: decide every other boundary over a tight window,
        # so the policies get a fair number of moves per leg.
        autoscale_cooldown=2,
        autoscale_window=6)
    engine = RealParallelEngine(
        workload.program, config=workload.config,
        runtime_config=runtime_config, recognized=recognized,
        initial_cache=initial_cache)
    return engine.run()


def _measure_leg(tag, workload, scale, initial_cache=None, learned=None):
    """Static widths, then each policy from the widest static width.

    Returns True when some policy beat the best static wall-clock.
    ``learned`` (a TrajectoryCache) collects every entry the static
    runs' workers shipped, for reuse as a later leg's warm cache.
    """
    recognized = Recognizer(workload.config).find(workload.program)
    seq_wall, expected = _sequential_wall(workload.program)
    metrics = {"%s_wall_sequential" % tag: seq_wall}
    lines = ["%s: sequential %.3fs" % (tag, seq_wall)]
    best_static = float("inf")
    for n_workers in SIZES["static"]:
        result = _run(workload, recognized, scale, n_workers,
                      initial_cache=initial_cache)
        assert result.final_state == expected, \
            "%s static x%d diverged from sequential" % (tag, n_workers)
        best_static = min(best_static, result.wall_seconds)
        metrics["%s_wall_static_%dw" % (tag, n_workers)] = \
            result.wall_seconds
        metrics["%s_speedup_static_%dw" % (tag, n_workers)] = \
            result.speedup_vs(seq_wall)
        lines.append("%s: static %dw %.3fs (%.2fx) — %d hits, %d shipped"
                     % (tag, n_workers, result.wall_seconds,
                        result.speedup_vs(seq_wall), result.stats.hits,
                        result.runtime.entries_shipped))
        if learned is not None:
            for entry in result.cache.entries():
                learned.insert(entry)
    start_width = max(SIZES["static"])
    best_policy = float("inf")
    for policy in AUTOSCALE_POLICIES:
        result = _run(workload, recognized, scale, start_width,
                      policy=policy, initial_cache=initial_cache)
        assert result.final_state == expected, \
            "%s %s diverged from sequential" % (tag, policy)
        runtime = result.runtime
        best_policy = min(best_policy, result.wall_seconds)
        decisions = runtime.autoscale_decisions
        final_width = decisions[-1]["target"] if decisions else start_width
        metrics["%s_wall_%s" % (tag, policy)] = result.wall_seconds
        metrics["%s_speedup_%s" % (tag, policy)] = \
            result.speedup_vs(seq_wall)
        metrics["%s_resizes_%s" % (tag, policy)] = \
            runtime.autoscale_resizes
        metrics["%s_workers_grown_%s" % (tag, policy)] = \
            runtime.workers_grown
        metrics["%s_workers_parked_%s" % (tag, policy)] = \
            runtime.workers_parked
        metrics["%s_final_width_%s" % (tag, policy)] = final_width
        lines.append("%s: %s %.3fs (%.2fx) — %d resizes %s, final width "
                     "%d" % (tag, policy, result.wall_seconds,
                             result.speedup_vs(seq_wall),
                             runtime.autoscale_resizes,
                             ["%d->%d" % (d["from"], d["target"])
                              for d in decisions], final_width))
    # Grow/retire hygiene: every leg leaves zero live segments behind.
    assert shm.live_segment_names() == [], \
        "%s leaked shm segments: %s" % (tag, shm.live_segment_names())
    won = best_policy < best_static
    metrics["%s_best_static_wall" % tag] = best_static
    metrics["%s_best_policy_wall" % tag] = best_policy
    metrics["%s_policy_beats_best_static" % tag] = won
    lines.append("%s: best policy %.3fs vs best static %.3fs — policy "
                 "%s" % (tag, best_policy, best_static,
                         "wins" if won else "loses"))
    publish("autoscale_%s" % tag, "\n".join(lines))
    _RECORDED.update(metrics)
    return won


def test_cold_collatz_autoscale():
    """The ISSUE's target regime: cold cache, utility underwater, so
    the autoscaler should collapse toward zero speculation workers and
    approach sequential wall-clock while every static width bleeds."""
    workload = build_collatz(count=SIZES["collatz_count"])
    learned = TrajectoryCache(capacity_bytes=1 << 30)
    _measure_leg("cold_collatz", workload, SIZES["collatz_scale"],
                 learned=learned)
    _LEARNED["collatz"] = (workload, learned)
    # Sanity floor (the hard cross-leg bar lives in the publish test):
    # a collapsing pool must land within 2x of sequential, not at the
    # widest static width's wall.
    assert _RECORDED["cold_collatz_best_policy_wall"] <= \
        2.0 * _RECORDED["cold_collatz_wall_sequential"]


def test_warm_ising_autoscale():
    workload = build_ising(nodes=SIZES["ising_nodes"],
                           spins=SIZES["ising_spins"])
    recognized = Recognizer(workload.config).find(workload.program)
    learn = _run(workload, recognized, SIZES["ising_scale"], n_workers=2)
    warm = TrajectoryCache(capacity_bytes=1 << 30)
    for entry in learn.cache.entries():
        warm.insert(entry)
    _measure_leg("warm_ising", workload, SIZES["ising_scale"],
                 initial_cache=warm)


def test_phase_collatz_autoscale():
    """Warm cache truncated to its first half: high payoff until the
    entries run out mid-run, then a dead phase — the regime where a
    static width keeps paying for speculation that stopped landing."""
    assert "collatz" in _LEARNED, "cold collatz leg must run first"
    workload, learned = _LEARNED["collatz"]
    entries = list(learned.entries())
    assert entries, "cold leg shipped no entries to truncate"
    half = TrajectoryCache(capacity_bytes=1 << 30)
    for entry in entries[:len(entries) // 2]:
        half.insert(entry)
    _measure_leg("phase_collatz", workload, SIZES["collatz_scale"],
                 initial_cache=half)


def test_publish_autoscale_json():
    assert _RECORDED, "leg tests must run first"
    _RECORDED["profile"] = PROFILE
    wins = sorted(key[:-len("_policy_beats_best_static")]
                  for key, value in _RECORDED.items()
                  if key.endswith("_policy_beats_best_static") and value)
    _RECORDED["legs_won_by_policy"] = len(wins)
    publish_metrics("autoscale", dict(_RECORDED))
    # The acceptance bar: at least one leg where an autoscale policy
    # beats the best static width on measured wall-clock.
    assert wins, "no leg had a policy beat the best static width"
