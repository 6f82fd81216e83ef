"""RWMA ensemble: regret minimization, combination, weight matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.excitation import ObservationView
from repro.core.predictors import (
    LinearRegressionPredictor,
    LogisticPredictor,
    MeanPredictor,
    PredictorEnsemble,
    WeathermanPredictor,
    default_ensemble,
)
from repro.core.predictors.base import Predictor


def view_of(*words):
    values = np.array([w & 0xFFFFFFFF for w in words], dtype=np.uint32)
    bits = np.unpackbits(values.view(np.uint8), bitorder="little")
    return ObservationView(values, bits, version=1, index=-1)


class ConstantPredictor(Predictor):
    """Always predicts a fixed word value."""

    def __init__(self, value, name="const"):
        super().__init__()
        self.value = value
        self.name = name

    def update(self, prev_view, next_view):
        self.ensure_capacity(next_view.n_bits)

    def predict(self, view):
        self.ensure_capacity(view.n_bits)
        n_words = view.n_bits // 32
        values = np.full(n_words, self.value, dtype=np.uint32)
        bits = np.unpackbits(values.view(np.uint8), bitorder="little")
        return bits, np.full(view.n_bits, 0.9)


def test_requires_predictors_and_valid_beta():
    with pytest.raises(ValueError):
        PredictorEnsemble([])
    with pytest.raises(ValueError):
        PredictorEnsemble([MeanPredictor()], beta=1.5)


def test_default_ensemble_has_four_algorithms():
    ensemble = default_ensemble()
    names = {n.split("(")[0] for n in ensemble.expert_names}
    assert names == {"mean", "weatherman", "logistic", "linreg"}


def test_converges_to_correct_expert():
    """With one always-right expert among always-wrong ones, the weighted
    majority must start following the right one after a few rounds —
    the regret bound in action."""
    right = ConstantPredictor(7, "right")
    wrong1 = ConstantPredictor(1, "wrong1")
    wrong2 = ConstantPredictor(2, "wrong2")
    wrong3 = ConstantPredictor(3, "wrong3")
    ensemble = PredictorEnsemble([wrong1, wrong2, wrong3, right], beta=0.3)
    stream = [view_of(7) for __ in range(12)]
    correct_after = []
    for view in stream:
        outcome = ensemble.observe(view)
        if outcome.scored:
            correct_after.append(
                not (outcome.ensemble_bits != outcome.actual_bits).any())
    # Early rounds may follow the wrong majority; late rounds must not.
    assert all(correct_after[3:])
    assert not all(correct_after[:1])


def test_weights_decay_multiplicatively():
    right = ConstantPredictor(0xFF, "right")
    wrong = ConstantPredictor(0x00, "wrong")
    ensemble = PredictorEnsemble([right, wrong], beta=0.5)
    for __ in range(4):
        ensemble.observe(view_of(0xFF))
    weights = ensemble.weight_matrix(normalized=False)
    # Bits 0..7 disagree: wrong expert halved per scored round (3 rounds).
    assert weights[1, 0] == pytest.approx(0.5 ** 3)
    assert weights[0, 0] == 1.0


def test_weight_floor():
    right = ConstantPredictor(1, "right")
    wrong = ConstantPredictor(0, "wrong")
    ensemble = PredictorEnsemble([right, wrong], beta=0.1,
                                 weight_floor=1e-6)
    for __ in range(20):
        ensemble.observe(view_of(1))
    weights = ensemble.weight_matrix(normalized=False)
    assert weights[1, 0] >= 1e-6


def test_predict_from_is_pure():
    ensemble = default_ensemble()
    for i in range(6):
        ensemble.observe(view_of(i))
    view = view_of(6)
    before = ensemble.weight_matrix(normalized=False).copy()
    bits1, probs1 = ensemble.predict_from(view)
    bits2, probs2 = ensemble.predict_from(view)
    assert (bits1 == bits2).all()
    assert np.array_equal(before, ensemble.weight_matrix(normalized=False))


def test_rollout_chaining_through_predictions():
    """predict_from on its own output follows an arithmetic sequence."""
    ensemble = default_ensemble()
    for i in range(10):
        ensemble.observe(view_of(i))
    bits, __ = ensemble.predict_from(view_of(9))
    value = int(np.packbits(bits, bitorder="little").view("<u4")[0])
    assert value == 10
    view = view_of(value)
    bits, __ = ensemble.predict_from(view)
    value = int(np.packbits(bits, bitorder="little").view("<u4")[0])
    assert value == 11


def test_probabilities_reflect_vote_share():
    right = ConstantPredictor(1, "right")
    wrong = ConstantPredictor(0, "wrong")
    ensemble = PredictorEnsemble([right, wrong], beta=0.5)
    for __ in range(6):
        ensemble.observe(view_of(1))
    __, probs = ensemble.predict_from(view_of(1))
    # Bit 0: right expert dominates; probability of the chosen value
    # should be well above one half.
    assert probs[0] > 0.8


def test_flush_pending_prevents_cross_jump_scoring():
    ensemble = default_ensemble()
    for i in range(6):
        ensemble.observe(view_of(i))
    before = ensemble.weight_matrix(normalized=False).copy()
    ensemble.flush_pending()
    outcome = ensemble.observe(view_of(1000))  # discontinuous jump
    assert not outcome.scored
    assert np.array_equal(before, ensemble.weight_matrix(normalized=False))


def test_randomized_mode_deterministic_under_seed():
    a = PredictorEnsemble([MeanPredictor(), WeathermanPredictor(),
                           LinearRegressionPredictor()],
                          randomized=True, seed=42)
    b = PredictorEnsemble([MeanPredictor(), WeathermanPredictor(),
                           LinearRegressionPredictor()],
                          randomized=True, seed=42)
    for i in range(8):
        a.observe(view_of(i))
        b.observe(view_of(i))
    bits_a, __ = a.predict_from(view_of(8))
    bits_b, __ = b.predict_from(view_of(8))
    assert (bits_a == bits_b).all()


def test_capacity_growth_mid_stream():
    ensemble = default_ensemble()
    for i in range(5):
        ensemble.observe(view_of(i))
    # Target set grows by one word.
    outcome = ensemble.observe(view_of(5, 100))
    assert outcome.scored  # old bits still scored
    assert ensemble.weights.shape[1] == 64
    outcome = ensemble.observe(view_of(6, 100))
    assert len(outcome.actual_bits) == 64


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_experts=st.integers(1, 7),
       n_words=st.integers(1, 4), randomized=st.booleans())
def test_combine_is_the_per_expert_loop(seed, n_experts, n_words,
                                        randomized):
    """Two axis-0 sums over the (experts, bits) matrices give exactly
    the floats of the loop they replaced — one expert after another
    into an accumulator — weights spread over twelve decades, and the
    same draws in randomized mode."""
    rng = np.random.default_rng(seed)
    n_bits = 32 * n_words
    ensemble = PredictorEnsemble([MeanPredictor()] * n_experts,
                                 randomized=randomized, seed=seed)
    ensemble.weights = rng.random((n_experts, n_bits)) * 10.0 ** (
        -rng.integers(0, 13, (n_experts, n_bits)))
    bits = rng.integers(0, 2, (n_experts, n_bits)).astype(np.uint8)
    confidence = 0.5 + rng.random((n_experts, n_bits)) / 2

    got_bits, got_probs = ensemble._combine(bits, confidence)

    w = ensemble.weights
    total = w.sum(axis=0)
    vote_one, prob_one = np.zeros(n_bits), np.zeros(n_bits)
    for e in range(n_experts):
        vote_one += w[e] * bits[e]
        prob_one += w[e] * np.where(bits[e] == 1, confidence[e],
                                    1.0 - confidence[e])
    share_one, prob_one = vote_one / total, prob_one / total
    if randomized:
        draws = np.random.default_rng(seed).random(n_bits)
        want_bits = (draws < share_one).astype(np.uint8)
    else:
        want_bits = (share_one >= 0.5).astype(np.uint8)
    assert np.array_equal(got_bits, want_bits)
    assert np.array_equal(
        got_probs, np.where(want_bits == 1, prob_one, 1.0 - prob_one))


def test_reusing_an_observation_changes_no_prediction():
    """The ensemble computes each expert's answer for the observed state
    once (logistic probabilities reused by its update, the allocator's
    first rollout step reusing observe's predictions). An ensemble whose
    every reuse is defeated — equal views, never the same object — must
    predict the same bits and probabilities, randomized RWMA included."""
    from repro.core.config import EngineConfig

    def stream(n):
        rng = np.random.default_rng(3)
        x, acc = 0, 17
        for i in range(n):
            x += 4  # strided pointer
            acc = (acc * 3 + int(rng.integers(0, 2))) & 0xFFFFFFFF
            yield (x, acc, i % 5, 0xDEAD if i % 7 else 0xBEEF)

    def copy_of(view):
        return ObservationView(view.word_values.copy(), view.bits.copy(),
                               view.version, view.index)

    config = EngineConfig(rwma_randomized=True, seed=5)
    reusing, recomputing = default_ensemble(config), default_ensemble(config)
    for words in stream(40):
        view = view_of(*words)
        reusing.observe(view)
        for predictor in recomputing.predictors:
            if isinstance(predictor, LogisticPredictor):
                predictor._predicted = None  # forget predict(prev)
        recomputing.observe(copy_of(view))
        for a, b in zip(reusing.current_prediction(),
                        recomputing.current_prediction()):
            assert np.array_equal(a, b)
        rolled = reusing.predict_from(view)  # view is _last_view: reused
        recomputed = recomputing.predict_from(copy_of(view))
        for a, b in zip(rolled, recomputed):
            assert np.array_equal(a, b)
    assert np.array_equal(reusing.weights, recomputing.weights)
