"""Golden simulated-time numbers: the figures' byte-identity in seconds.

Every ``benchmarks/results/{fig*,table*,ablation_*,extension_*}.txt``
is a function of ``RunStats`` counters and ``makespan_seconds``. This
table was recorded at the commit *before* the engines became backends
of the one :class:`~repro.core.superstep.SuperstepLoop` (PR 12's
parent): the counters must match exactly and the makespan to 1e-12,
which pins the charge order (``exec`` → ``query`` →
``response+apply``), the converge gate, the mask-seeding probe, the
late/no-match split, ``spec_memo`` reuse across a core sweep and the
phase reset — a regeneration of the 13 figure files that takes seconds
instead of minutes.
"""

import pytest

from repro.analysis.scaling import (
    ExperimentContext,
    memoization_curve,
    scaling_sweep,
)
from repro.bench import build_collatz, build_ising
from repro.cluster import CostModel, server32
from repro.core.config import EngineConfig
from repro.core.engine import ParallelEngine
from repro.core.recognizer import Recognizer
from repro.minic import compile_source

COUNTERS = (
    "supersteps", "queries", "hits", "misses", "misses_late",
    "misses_nomatch", "instructions_executed",
    "instructions_fast_forwarded", "speculations_dispatched",
    "speculations_executed", "speculations_reused",
    "speculation_instructions", "speculation_faults", "query_bits_total",
    "phase_transitions")

#: run -> (counters in COUNTERS order, makespan_seconds, total_instructions)
GOLDEN = {
    "collatz/lasc/1": (
        (121, 112, 0, 112, 0, 112, 155856, 0, 0, 0, 0, 0, 0, 60992, 0),
        0.0599463686841486, 155856),
    "collatz/lasc/4": (
        (121, 112, 54, 58, 53, 5, 111892, 43964, 118, 118, 0, 205532, 2,
         60992, 0),
        0.04303811998631149, 155856),
    "collatz/lasc/32": (
        (121, 112, 97, 15, 10, 5, 30681, 125175, 188, 70, 118, 115577, 1,
         60992, 0),
        0.011804147445167829, 155856),
    "collatz/oracle/1": (
        (121, 112, 0, 112, 0, 112, 155856, 0, 0, 0, 0, 0, 0, 60992, 0),
        0.0599463686841486, 155856),
    "collatz/oracle/4": (
        (121, 112, 64, 48, 47, 1, 101554, 54302, 111, 25, 86, 21069, 0,
         60992, 0),
        0.039062083423383874, 155856),
    "collatz/oracle/32": (
        (121, 112, 104, 8, 7, 1, 24542, 131314, 111, 0, 111, 0, 0, 60992, 0),
        0.00944307569727237, 155856),
    "ising/lasc/1": (
        (32, 31, 0, 31, 0, 31, 38464, 0, 0, 0, 0, 0, 0, 75840, 0),
        0.014794441132347095, 38464),
    "ising/lasc/4": (
        (32, 31, 14, 17, 14, 3, 22742, 15722, 37, 37, 0, 38389, 3, 75840, 0),
        0.008747833041220985, 38464),
    "ising/lasc/32": (
        (32, 31, 26, 5, 2, 3, 9248, 29216, 151, 112, 39, 90820, 33, 75840, 0),
        0.0035581777189900316, 38464),
    "ising/oracle/1": (
        (32, 31, 0, 31, 0, 31, 38464, 0, 0, 0, 0, 0, 0, 75840, 0),
        0.014794441132347095, 38464),
    "ising/oracle/4": (
        (32, 31, 12, 19, 13, 6, 24988, 13476, 25, 25, 0, 28083, 0, 75840, 0),
        0.009611650790531518, 38464),
    "ising/oracle/32": (
        (32, 31, 24, 7, 1, 6, 11504, 26960, 25, 0, 25, 0, 0, 75840, 0),
        0.004425841610156629, 38464),
    "collatz/memo": (
        (873, 873, 73, 800, 0, 0, 111120, 44736, 0, 0, 0, 0, 0, 223488, 0),
        0.04831317944968788, 155856),
    "two-phase/lasc/16": (
        (289, 284, 233, 51, 41, 10, 31226, 106381, 577, 577, 0, 290159, 15,
         131840, 1),
        0.01201436713735919, 137607),
}


def check(name, result):
    counters, makespan, total = GOLDEN[name]
    stats = result.stats
    assert tuple(getattr(stats, c) for c in COUNTERS) == counters, name
    assert stats.first_splice_seconds is None  # a wall-clock quantity
    assert result.total_instructions == total
    assert result.makespan_seconds == pytest.approx(makespan, rel=1e-12)


@pytest.mark.parametrize("name,build", [
    ("collatz", lambda: build_collatz(count=120)),
    ("ising", lambda: build_ising(nodes=32, spins=5)),
])
def test_server32_sweeps_match_the_recorded_table(name, build):
    # One context per workload, lasc before oracle, 1 → 4 → 32 cores:
    # the sweep shares one spec_memo, so the order is part of the record.
    context = ExperimentContext(build())
    for mode, oracle in (("lasc", False), ("oracle", True)):
        for point in scaling_sweep(context, (1, 4, 32), oracle=oracle):
            check("%s/%s/%d" % (name, mode, point.n_cores), point.result)


def test_memoizing_engine_matches_the_recorded_table():
    context = ExperimentContext(build_collatz(count=120, memoize=True),
                                memoization=True)
    result = memoization_curve(context)
    check("collatz/memo", result)
    assert len(result.timeline) == 65
    last = result.timeline[-1]
    assert last.instructions == 155856
    assert last.scaling == pytest.approx(1.240750786170887, rel=1e-12)


def test_phase_reset_matches_the_recorded_table():
    program = compile_source("""
        int arr_a[150];
        int arr_b[150];
        int main() {
            int i;
            for (i = 0; i < 150; i++) {
                int j; int acc = 0;
                for (j = 0; j < 12; j++) acc += j * (j + 1);
                arr_a[i] = acc + i;
            }
            for (i = 0; i < 150; i++) {
                int k; int acc = 1;
                for (k = 0; k < 12; k++) acc ^= acc << (k & 3);
                arr_b[i] = acc + i * 5;
            }
            return arr_a[10] + arr_b[10];
        }
    """, name="two_phase")
    config = EngineConfig(recognizer_window=25_000,
                          min_superstep_instructions=80,
                          converge_supersteps_charge=2.0)
    recognized = Recognizer(config).find(program)
    factor = recognized.superstep_instructions / 2.3e6 / 5.217
    platform = server32(16, CostModel().scaled(factor))
    check("two-phase/lasc/16",
          ParallelEngine(program, platform, config=config,
                         recognized=recognized).run())
