"""Prediction statistics: the Table 2 computations."""

import numpy as np
import pytest

from repro.bench import build_collatz
from repro.core.excitation import ExcitationTracker
from repro.core.predictors.ensemble import ObserveOutcome, default_ensemble
from repro.core.recognizer import Recognizer
from repro.core.stats import PredictionStats, RunStats
from repro.core.superstep import run_superstep


def outcome(actual, ensemble, experts):
    """A scored outcome; the equal-weight vote is derived from
    ``experts`` (one row of predicted bits each)."""
    return ObserveOutcome(True, np.array(experts, dtype=np.uint8),
                          np.array(ensemble, dtype=np.uint8),
                          np.array(actual, dtype=np.uint8))


def test_unscored_outcomes_ignored():
    stats = PredictionStats(["a", "b"])
    stats.record(ObserveOutcome(False, None, None,
                                np.zeros(4, dtype=np.uint8)))
    assert stats.total_predictions() == 0
    assert stats.actual_error_rate() == 0.0


def test_actual_and_equal_rates():
    stats = PredictionStats(["a", "b", "c"])
    # Observation 1: ensemble right, equal-weight (two of three vote
    # 0 on bit 0) wrong.
    first = outcome([1, 0], ensemble=[1, 0],
                    experts=[[1, 0], [0, 0], [0, 0]])
    assert first.equal_weight_bits.tolist() == [0, 0]
    stats.record(first)
    # Observation 2: both wrong.
    stats.record(outcome([1, 1], ensemble=[1, 0],
                         experts=[[1, 1], [0, 0], [0, 0]]))
    assert stats.actual_error_rate() == pytest.approx(0.5)
    assert stats.equal_weight_error_rate() == pytest.approx(1.0)
    assert stats.total_predictions() == 2
    assert stats.incorrect_predictions() == 1


def test_hindsight_picks_best_expert_per_bit():
    stats = PredictionStats(["bit0_expert", "bit1_expert"])
    # Expert 0 always right on bit 0, wrong on bit 1; expert 1 inverse.
    for actual in ([1, 0], [0, 1], [1, 1], [0, 0]):
        experts = [[actual[0], 1 - actual[1]],
                   [1 - actual[0], actual[1]]]
        stats.record(outcome(actual, ensemble=experts[0],
                             experts=experts))
    # Hindsight: expert0 for bit0, expert1 for bit1 -> zero error.
    assert stats.hindsight_error_rate() == 0.0
    assert stats.actual_error_rate() == 1.0  # ensemble followed expert 0


def test_relevant_bits_mask():
    stats = PredictionStats(["only"])
    # Wrong only on bit 1, which is irrelevant.
    stats.record(outcome([1, 0], ensemble=[1, 1], experts=[[1, 1]]))
    assert stats.actual_error_rate() == 1.0
    assert stats.actual_error_rate(relevant_bits={0}) == 0.0
    assert stats.incorrect_predictions(relevant_bits={0}) == 0


def test_growing_bit_count_padded():
    stats = PredictionStats(["a"])
    stats.record(outcome([1], ensemble=[0], experts=[[0]]))
    stats.record(outcome([1, 1], ensemble=[1, 1], experts=[[1, 1]]))
    assert stats.total_predictions() == 2
    assert stats.actual_error_rate() == pytest.approx(0.5)
    totals = stats.per_expert_bit_error_totals()
    assert totals.shape == (1, 2)
    assert totals[0, 0] == 1


def test_equal_weight_vote_ties_go_to_one():
    tied = outcome([0, 0], ensemble=[0, 0], experts=[[1, 0], [0, 0]])
    assert tied.equal_weight_bits.tolist() == [1, 0]
    assert tied.expert_errors.tolist() == [[True, False], [False, False]]


def test_table2_rates_of_a_real_stream_are_pinned():
    """collatz(60)'s 54 scored boundaries through tracker, default
    ensemble and ``PredictionStats``: the three Table 2 rates and the
    per-expert mistake totals, exactly as the commit before the
    ensemble kept a prediction matrix (313ea3b) produced them. Scoring
    on one word's bits gives each rate a value that is neither 0 nor 1
    — an outcome that lost its equal-weight vote reads 1.0 everywhere."""
    workload = build_collatz(count=60)
    program, config = workload.program, workload.config
    recognized = Recognizer(config).find(program)
    tracker = ExcitationTracker(program.layout, config)
    ensemble = default_ensemble(config)
    stats = PredictionStats(ensemble.expert_names)
    machine = program.make_machine()
    while run_superstep(machine, frozenset((recognized.ip,)),
                        recognized.stride, 10 ** 8, 10 ** 8)[1]:
        view = tracker.observe(bytes(machine.state.buf))
        if view is not None:
            stats.record(ensemble.observe(view))

    assert stats.total_predictions() == 54
    assert stats.incorrect_predictions() == 10
    for relevant, equal, hindsight, actual in (
            (None, 54, 2, 10),
            (set(range(0, 32)), 37, 2, 7),
            (set(range(32, 64)), 49, 2, 8),
            (set(range(96, 192)), 0, 0, 0)):
        assert stats.equal_weight_error_rate(relevant) == equal / 54
        assert stats.hindsight_error_rate(relevant) == hindsight / 54
        assert stats.actual_error_rate(relevant) == actual / 54
    totals = stats.per_expert_bit_error_totals()
    assert stats.expert_names == [
        "mean", "weatherman", "logistic(lr=0.5)", "logistic(lr=0.05)",
        "linreg"]
    assert totals.shape == (5, 224)
    assert totals.reshape(5, 7, 32).sum(axis=2).tolist() == [
        [182, 203, 182, 0, 0, 0, 203],
        [106, 106, 106, 0, 0, 0, 106],
        [94, 91, 94, 1, 1, 1, 91],
        [120, 120, 120, 1, 1, 1, 120],
        [5, 5, 5, 0, 0, 0, 5]]
    assert totals[:, :6].tolist() == [
        [54, 27, 26, 25, 25, 25],
        [54, 27, 14, 7, 3, 1],
        [9, 47, 19, 10, 6, 3],
        [10, 44, 23, 16, 15, 12],
        [2, 1, 1, 1, 0, 0]]


def test_run_stats_rates():
    stats = RunStats()
    stats.hits = 3
    stats.misses = 1
    assert stats.hit_rate == pytest.approx(0.75)
    assert stats.miss_rate == pytest.approx(0.25)
    stats.queries = 2
    stats.query_bits_total = 600
    assert stats.mean_query_bits == 300
    as_dict = stats.as_dict()
    assert as_dict["hits"] == 3
    assert as_dict["hit_rate"] == pytest.approx(0.75)


def test_run_stats_empty_division():
    stats = RunStats()
    assert stats.hit_rate == 0.0
    assert stats.mean_query_bits == 0.0
