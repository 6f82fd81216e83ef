"""§5.3 micro-benchmarks: simulator instruction rates.

The paper measures its TBFS at 2.6 MIPS baseline and 2.3 MIPS with
dependency tracking (13% overhead). Those are the *modeled* rates every
experiment charges; this module both asserts the model and measures the
real Python VM's throughput through two interpreter tiers — the
reference transition function and the block-cache fast path
(:mod:`repro.machine.blockcache`) — publishing the rates to
``results/micro_*.txt``, holding the fast path to its minimum speedup
in both modes, and holding the fast path's dependency tax (plain MIPS /
tracked MIPS, the ratio the paper puts at 1.13) to a ceiling.
"""

import statistics
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

#: Maximum fast-path dependency tax (plain MIPS / tracked MIPS), and
#: the back-to-back rounds it and both published rates are medians of.
MAX_DEP_TAX = 2.0
TAX_ROUNDS = 7


@pytest.fixture(scope="module")
def hot_program():
    return compile_source(_HOT_LOOP, name="hot")


def _run(program, dep, fast_path=None):
    machine = program.make_machine(fast_path=fast_path)
    vector = DepVector(program.layout.size) if dep else None
    result = machine.run(max_instructions=10_000_000, dep=vector)
    return result.instructions


def _mips(program, dep, fast_path):
    start = time.perf_counter()
    instructions = _run(program, dep, fast_path=fast_path)
    return instructions / (time.perf_counter() - start) / 1e6


def test_modeled_rates_match_paper(benchmark):
    cm = benchmark.pedantic(CostModel, rounds=1, iterations=1)
    assert cm.exec_seconds(2.6e6, dep_tracking=False) == pytest.approx(1.0)
    assert cm.exec_seconds(2.3e6, dep_tracking=True) == pytest.approx(1.0)
    overhead = cm.mips_base / cm.mips_dep - 1.0
    assert overhead == pytest.approx(0.13, abs=0.01)


def _rate(rates):
    """A published rate: the median, with the min–max range beside it."""
    return "%.3f MIPS (range %.3f-%.3f)" % (statistics.median(rates),
                                            min(rates), max(rates))


@pytest.fixture(scope="module")
def fast_path_rounds(hot_program):
    """Fast-path MIPS per round, ``{dep: [...]}``: TAX_ROUNDS
    back-to-back plain/tracked pairs, alternating which side goes
    first. Both published rates and the tax come from these runs, so
    the record shows its own spread."""
    rounds = {False: [], True: []}
    for k in range(TAX_ROUNDS):
        for dep in ((False, True) if k % 2 else (True, False)):
            rounds[dep].append(_mips(hot_program, dep, True))
    return rounds


def test_baseline_instruction_rate(hot_program, fast_path_rounds):
    instructions = _run(hot_program, False)
    mips = statistics.median(fast_path_rounds[False])
    ref_mips = _mips(hot_program, False, fast_path=False)
    publish("micro_baseline",
            "Python VM baseline: %s over %d instructions, median of %d "
            "rounds (reference tier: %.3f MIPS, fast path %.1fx; "
            "modeled: 2.6 MIPS)"
            % (_rate(fast_path_rounds[False]), instructions, TAX_ROUNDS,
               ref_mips, mips / ref_mips))
    assert instructions > 50_000
    assert mips / ref_mips >= MIN_SPEEDUP


def test_dependency_tracking_rate(hot_program, fast_path_rounds):
    instructions = _run(hot_program, True)
    mips = statistics.median(fast_path_rounds[True])
    ref_mips = _mips(hot_program, True, fast_path=False)
    # The tax: the median over rounds of plain / tracked MIPS rides out
    # a noisy neighbour that a best-of on each side would not.
    tax = statistics.median(plain / dep for plain, dep in zip(
        fast_path_rounds[False], fast_path_rounds[True]))
    publish("micro_deptrack",
            "Python VM with dependency tracking: %s, median of %d rounds "
            "(reference tier: %.3f MIPS, fast path %.1fx; modeled: "
            "2.3 MIPS); fast-path dependency tax %.2fx (plain / tracked "
            "MIPS, median of %d back-to-back rounds; paper: 1.13x)"
            % (_rate(fast_path_rounds[True]), TAX_ROUNDS, ref_mips,
               mips / ref_mips, tax, TAX_ROUNDS))
    assert instructions > 50_000
    assert mips / ref_mips >= MIN_SPEEDUP
    assert tax <= MAX_DEP_TAX
