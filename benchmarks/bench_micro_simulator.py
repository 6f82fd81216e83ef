"""§5.3 micro-benchmarks: simulator instruction rates.

The paper measures its TBFS at 2.6 MIPS baseline and 2.3 MIPS with
dependency tracking (13% overhead). Those are the *modeled* rates every
experiment charges; this module both asserts the model and measures the
real Python VM's throughput through two interpreter tiers — the
reference transition function and the block-cache fast path
(:mod:`repro.machine.blockcache`) — publishing the rates to
``results/micro_*.txt`` and holding the fast path to its minimum
speedup in both modes.
"""

import time

import pytest

from conftest import publish

from repro.cluster import CostModel
from repro.machine import DepVector
from repro.minic import compile_source

_HOT_LOOP = """
int sink;
int main() {
    int i;
    int x = 0;
    for (i = 0; i < 12000; i++) { x = x + i; x = x ^ (i << 1); }
    sink = x;
    return x;
}
"""

#: Minimum fast-path speedup over the reference interpreter, per mode.
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def hot_program():
    return compile_source(_HOT_LOOP, name="hot")


def _run(program, dep, fast_path=None):
    machine = program.make_machine(fast_path=fast_path)
    vector = DepVector(program.layout.size) if dep else None
    result = machine.run(max_instructions=10_000_000, dep=vector)
    return result.instructions


def _reference_mips(program, dep):
    start = time.perf_counter()
    instructions = _run(program, dep, fast_path=False)
    return instructions / (time.perf_counter() - start) / 1e6


def test_modeled_rates_match_paper(benchmark):
    cm = benchmark.pedantic(CostModel, rounds=1, iterations=1)
    assert cm.exec_seconds(2.6e6, dep_tracking=False) == pytest.approx(1.0)
    assert cm.exec_seconds(2.3e6, dep_tracking=True) == pytest.approx(1.0)
    overhead = cm.mips_base / cm.mips_dep - 1.0
    assert overhead == pytest.approx(0.13, abs=0.01)


def test_baseline_instruction_rate(benchmark, hot_program):
    instructions = benchmark.pedantic(_run, args=(hot_program, False),
                                      rounds=3, iterations=1)
    mips = instructions / benchmark.stats.stats.mean / 1e6
    ref_mips = _reference_mips(hot_program, False)
    publish("micro_baseline",
            "Python VM baseline: %.3f MIPS over %d instructions "
            "(reference tier: %.3f MIPS, fast path %.1fx; modeled: "
            "2.6 MIPS)" % (mips, instructions, ref_mips, mips / ref_mips))
    assert instructions > 50_000
    assert mips / ref_mips >= MIN_SPEEDUP


def test_dependency_tracking_rate(benchmark, hot_program):
    instructions = benchmark.pedantic(_run, args=(hot_program, True),
                                      rounds=3, iterations=1)
    mips = instructions / benchmark.stats.stats.mean / 1e6
    ref_mips = _reference_mips(hot_program, True)
    publish("micro_deptrack",
            "Python VM with dependency tracking: %.3f MIPS "
            "(reference tier: %.3f MIPS, fast path %.1fx; modeled: "
            "2.3 MIPS)" % (mips, ref_mips, mips / ref_mips))
    assert instructions > 50_000
    assert mips / ref_mips >= MIN_SPEEDUP
