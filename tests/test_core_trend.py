"""Trend predictor extension: constant-second-difference sequences."""

import numpy as np

from repro.core.config import EngineConfig
from repro.core.excitation import ObservationView
from repro.core.predictors import PredictorEnsemble, TrendPredictor
from repro.core.predictors import default_ensemble
from repro.core.predictors.linreg import LinearRegressionPredictor


def view_of(value):
    words = np.array([value & 0xFFFFFFFF], dtype=np.uint32)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return ObservationView(words, bits, version=1, index=-1)


def train(predictor, values):
    views = [view_of(v) for v in values]
    for prev, nxt in zip(views, views[1:]):
        predictor.update(prev, nxt)
    return views


def predicted_word(predictor, view):
    bits, __ = predictor.predict(view)
    return int(np.packbits(bits, bitorder="little").view("<u4")[0])


def triangular(n):
    return n * (n + 1) // 2


class TestTrendPredictor:
    def test_learns_quadratic_sequence(self):
        values = [triangular(n) for n in range(12)]
        predictor = TrendPredictor()
        views = train(predictor, values)
        assert predicted_word(predictor, views[-1]) == triangular(12)

    def test_linreg_cannot_do_this(self):
        """The motivating gap: value-to-value affine maps cannot
        represent a growing increment."""
        values = [triangular(n) for n in range(12)]
        linreg = LinearRegressionPredictor()
        views = train(linreg, values)
        assert predicted_word(linreg, views[-1]) != triangular(12)

    def test_constant_stride_also_works(self):
        values = [100 + 7 * n for n in range(10)]
        predictor = TrendPredictor()
        views = train(predictor, values)
        assert predicted_word(predictor, views[-1]) == 100 + 7 * 10

    def test_chaotic_sequence_falls_back_to_persistence(self):
        values = [37, 112, 56, 28, 14, 7, 22, 11]
        predictor = TrendPredictor()
        views = train(predictor, values)
        assert predicted_word(predictor, views[-1]) == values[-1]

    def test_confidence_tracks_hits(self):
        predictor = TrendPredictor()
        views = train(predictor, [triangular(n) for n in range(12)])
        __, conf = predictor.predict(views[-1])
        assert conf[0] > 0.6

    def test_reset(self):
        predictor = TrendPredictor()
        views = train(predictor, [triangular(n) for n in range(12)])
        predictor.reset()
        assert predicted_word(predictor, views[-1]) == triangular(11)


class TestEnsembleIntegration:
    def test_off_by_default(self):
        assert default_ensemble(EngineConfig()).n_experts == 5

    def test_config_flag_adds_expert(self):
        config = EngineConfig(enable_trend_predictor=True)
        ensemble = default_ensemble(config)
        assert ensemble.n_experts == 6
        assert "trend" in ensemble.expert_names

    def test_rwma_routes_quadratic_bits_to_trend(self):
        config = EngineConfig(enable_trend_predictor=True, rwma_beta=0.3)
        ensemble = default_ensemble(config)
        correct = []
        for n in range(40):
            outcome = ensemble.observe(view_of(triangular(n)))
            if outcome.scored:
                correct.append(not (outcome.ensemble_bits
                                    != outcome.actual_bits).any())
        # Steady state: the ensemble follows the trend expert.
        assert sum(correct[-10:]) >= 8
        weights = dict(zip(ensemble.expert_names,
                           ensemble.weight_matrix().mean(axis=1)))
        assert weights["trend"] == max(weights.values())

    def test_trend_does_not_disturb_affine_sequences(self):
        config = EngineConfig(enable_trend_predictor=True)
        with_trend = default_ensemble(config)
        for n in range(30):
            with_trend.observe(view_of(1000 + 68 * n))
        bits, __ = with_trend.predict_from(view_of(1000 + 68 * 30))
        value = int(np.packbits(bits, bitorder="little").view("<u4")[0])
        assert value == 1000 + 68 * 31
