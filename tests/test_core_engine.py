"""Engine integration: end-to-end runs of the simulated engines.

The invariants every backend owes (byte-identical final state, executed
+ fast-forwarded == sequential count) live in
``tests/test_superstep_loop.py``'s backend matrix."""

import pytest

from repro.bench import build_collatz, build_ising
from repro.cluster import CostModel, laptop1, server32
from repro.core.engine import (
    MemoizingEngine,
    ParallelEngine,
    run_sequential,
)
from repro.core.oracle import TrajectoryRecord
from repro.core.recognizer import Recognizer
from repro.errors import EngineError


@pytest.fixture(scope="module")
def ising_setup():
    workload = build_ising(nodes=96, spins=6)
    config = workload.config.replace(converge_supersteps_charge=2.0)
    recognized = Recognizer(config).find(workload.program)
    record = TrajectoryRecord(workload.program, recognized, config)
    factor = recognized.superstep_instructions / 2.3e6 / (1.2e7 / 2.3e6)
    cost_model = CostModel().scaled(factor)
    return workload, config, recognized, record, cost_model, {}


def run_cores(setup, cores, oracle=False):
    workload, config, recognized, record, cost_model, memo = setup
    engine = ParallelEngine(workload.program, server32(cores, cost_model),
                            config=config, recognized=recognized,
                            record=record, spec_memo=memo, oracle=oracle)
    return engine.run()


def test_run_sequential(ising_setup):
    workload = ising_setup[0]
    result = run_sequential(workload.program)
    assert result.halted
    assert result.instructions == ising_setup[3].total_instructions
    assert result.seconds == pytest.approx(result.instructions / 2.6e6)


def test_final_state_matches_sequential(ising_setup):
    """The parallel engine must compute the same answer."""
    workload = ising_setup[0]
    result = run_cores(ising_setup, 16)
    assert result.stats.hits > 0  # actually exercised fast-forwarding
    # Re-derive the program result sequentially.
    machine = workload.program.make_machine()
    machine.run(max_instructions=10_000_000)
    expected = machine.state.read_i32(
        workload.program.symbol("g_result_energy"))
    assert expected == workload.expected["best_energy"]


def test_scaling_improves_with_cores(ising_setup):
    s4 = run_cores(ising_setup, 4).scaling
    s16 = run_cores(ising_setup, 16).scaling
    assert s16 > s4
    assert s16 > 1.5


def test_single_core_near_unity(ising_setup):
    result = run_cores(ising_setup, 1)
    assert result.stats.hits == 0
    assert 0.8 <= result.scaling <= 1.01


def test_oracle_at_least_as_good(ising_setup):
    actual = run_cores(ising_setup, 16).scaling
    oracle = run_cores(ising_setup, 16, oracle=True).scaling
    assert oracle >= actual * 0.95  # allow small scheduling noise


def test_cycle_count_scaling_upper_bounds_lasc(ising_setup):
    workload, config, recognized, record, cost_model, memo = ising_setup
    lasc = run_cores(ising_setup, 16)
    zero = ParallelEngine(workload.program,
                          server32(16, cost_model.zero_overhead()),
                          config=config, recognized=recognized,
                          record=record, spec_memo=memo).run()
    assert zero.scaling >= lasc.scaling * 0.98


def test_prediction_stats_collected(ising_setup):
    result = run_cores(ising_setup, 8)
    pstats = result.prediction_stats
    assert pstats.total_predictions() > 10
    assert 0.0 <= pstats.actual_error_rate() <= 1.0


def test_hit_rate_reported(ising_setup):
    result = run_cores(ising_setup, 16)
    stats = result.stats
    assert stats.hits + stats.misses == stats.queries
    assert stats.misses == stats.misses_late + stats.misses_nomatch


def test_engine_requires_platform(ising_setup):
    workload = ising_setup[0]
    with pytest.raises(EngineError):
        ParallelEngine(workload.program, platform="not-a-platform")


class TestMemoizingEngine:
    @pytest.fixture(scope="class")
    def memo_result(self):
        workload = build_collatz(count=220, memoize=True)
        recognized = Recognizer(workload.config).find_for_memoization(
            workload.program)
        factor = max(recognized.superstep_instructions / 2.3e6 / 5.22, 1e-7)
        engine = MemoizingEngine(
            workload.program,
            laptop1(CostModel().scaled(factor)),
            config=workload.config,
            recognized=recognized)
        return engine.run(), workload

    def test_memoization_pays(self, memo_result):
        result, __ = memo_result
        assert result.stats.hits > 0
        assert result.scaling > 1.0

    def test_timeline_monotone_instructions(self, memo_result):
        result, __ = memo_result
        xs = [p.instructions for p in result.timeline]
        assert xs == sorted(xs)
        # The curve starts below 1 (dependency-tracking overhead) and
        # ends above it (memoization pays) — the paper's Figure 6 shape.
        assert result.timeline[0].scaling < 1.0
        assert result.timeline[-1].scaling > 1.0
