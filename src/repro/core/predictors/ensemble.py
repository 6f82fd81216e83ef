"""Prediction from expert advice: the (Randomized) Weighted Majority
Algorithm over per-bit experts (§4.5.1).

Each predictor is an expert for every target bit. The ensemble keeps a
weight per (expert, bit); an expert's weight on a bit is multiplied by
``beta`` every time it mispredicts that bit. Predictions are weighted
majority votes per bit (or, in randomized mode, per-bit sampling of an
expert proportional to weight — the RWMA of Littlestone & Warmuth).

The combined output also carries Eq. 2's per-bit Bernoulli parameters:
the confidence-weighted vote share for each predicted bit, which the
allocator multiplies into state probabilities for expected-utility
scheduling.
"""

import numpy as np

from repro.core.predictors.linreg import LinearRegressionPredictor
from repro.core.predictors.logistic import LogisticPredictor
from repro.core.predictors.mean import MeanPredictor
from repro.core.predictors.trend import TrendPredictor
from repro.core.predictors.weatherman import WeathermanPredictor


def default_ensemble(config=None):
    """The paper's four algorithms; logistic at multiple learning rates."""
    rates = config.logistic_learning_rates if config is not None else (0.5, 0.05)
    predictors = [MeanPredictor(), WeathermanPredictor()]
    for rate in rates:
        predictors.append(LogisticPredictor(learning_rate=rate))
    predictors.append(LinearRegressionPredictor())
    if config is not None and getattr(config, "enable_trend_predictor",
                                      False):
        predictors.append(TrendPredictor())
    beta = config.rwma_beta if config is not None else 0.5
    randomized = config.rwma_randomized if config is not None else False
    seed = config.seed if config is not None else 0
    return PredictorEnsemble(predictors, beta=beta, randomized=randomized,
                             seed=seed)


class ObserveOutcome:
    """What happened when a new RIP state arrived (for statistics)."""

    __slots__ = ("scored", "expert_errors", "ensemble_bits",
                 "equal_weight_bits", "actual_bits")

    def __init__(self, scored, expert_errors, ensemble_bits,
                 equal_weight_bits, actual_bits):
        self.scored = scored
        self.expert_errors = expert_errors  # list of bool arrays per expert
        self.ensemble_bits = ensemble_bits  # what we had predicted
        self.equal_weight_bits = equal_weight_bits
        self.actual_bits = actual_bits


class PredictorEnsemble:
    def __init__(self, predictors, beta=0.5, randomized=False, seed=0,
                 weight_floor=1e-12):
        if not predictors:
            raise ValueError("ensemble needs at least one predictor")
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must be in (0, 1), got %r" % (beta,))
        self.predictors = list(predictors)
        self.beta = beta
        self.randomized = randomized
        self.weight_floor = weight_floor
        self._rng = np.random.default_rng(seed)
        self.weights = np.ones((len(self.predictors), 0))
        self._last_view = None
        self._last_predictions = None  # list of (bits, conf) per expert
        self._last_combined = None  # (bits, probs) predicted for the next state

    @property
    def n_experts(self):
        return len(self.predictors)

    @property
    def expert_names(self):
        return [getattr(p, "instance_name", p.name) for p in self.predictors]

    def _ensure_bits(self, n_bits):
        if self.weights.shape[1] < n_bits:
            grown = np.ones((self.n_experts, n_bits))
            grown[:, :self.weights.shape[1]] = self.weights
            self.weights = grown
        for predictor in self.predictors:
            predictor.ensure_capacity(n_bits)

    # -- learning loop -----------------------------------------------------

    def observe(self, view):
        """Ingest the newly-arrived RIP state.

        Scores the predictions made at the previous state, applies the
        multiplicative weight updates, trains every expert on the new
        transition, and finally computes fresh predictions for the *next*
        state. Returns an :class:`ObserveOutcome` for statistics.
        """
        self._ensure_bits(view.n_bits)
        scored = False
        expert_errors = None
        ensemble_bits = None
        equal_bits = None
        actual = view.bits

        if self._last_view is not None and self._last_predictions is not None:
            # Bits added to the target set since the last prediction have
            # no prediction to score; they join the game next round.
            n_scorable = self._last_predictions[0][0].shape[0]
            actual = view.bits[:n_scorable]
            expert_errors = []
            for e, (bits, __) in enumerate(self._last_predictions):
                errors = bits != actual
                expert_errors.append(errors)
                w = self.weights[e, :n_scorable]
                w[errors] *= self.beta
                np.maximum(w, self.weight_floor, out=w)
            ensemble_bits = self._last_combined[0]
            equal_bits = self._equal_weight_vote(self._last_predictions)
            scored = True
            for predictor in self.predictors:
                predictor.update(self._last_view, view)

        outcome = ObserveOutcome(scored, expert_errors, ensemble_bits,
                                 equal_bits, actual)
        self._last_view = view
        self._last_predictions = [p.predict(view) for p in self.predictors]
        self._last_combined = self._combine(self._last_predictions,
                                            view.n_bits)
        return outcome

    # -- combination ----------------------------------------------------------

    def _combine(self, predictions, n_bits):
        w = self.weights[:, :n_bits]
        total = w.sum(axis=0)
        vote_one = np.zeros(n_bits)
        prob_one = np.zeros(n_bits)
        for e, (bits, conf) in enumerate(predictions):
            vote_one += w[e] * bits
            # Eq. 2's Bernoulli parameter: confidence-weighted belief.
            prob_one += w[e] * np.where(bits == 1, conf, 1.0 - conf)
        share_one = vote_one / total
        prob_one = prob_one / total
        if self.randomized:
            bits = (self._rng.random(n_bits) < share_one).astype(np.uint8)
        else:
            bits = (share_one >= 0.5).astype(np.uint8)
        probs = np.where(bits == 1, prob_one, 1.0 - prob_one)
        return bits, probs

    def _equal_weight_vote(self, predictions):
        n_bits = predictions[0][0].shape[0]
        votes = np.zeros(n_bits)
        for bits, __ in predictions:
            votes += bits
        return (votes * 2 >= len(predictions)).astype(np.uint8)

    # -- pure prediction (rollout) ----------------------------------------------

    def predict_from(self, view):
        """Combined prediction for the state after ``view``.

        Pure in ``view``: no weights or models are updated, so the
        allocator can chain calls to roll out k supersteps (§4.5.2).
        Returns ``(bits, per_bit_probabilities)``.
        """
        self._ensure_bits(view.n_bits)
        if view is self._last_view:
            # The allocator's first rollout step: observe() has just
            # asked every expert about this view under these models.
            predictions = self._last_predictions
        else:
            predictions = [p.predict(view) for p in self.predictors]
        return self._combine(predictions, view.n_bits)

    def current_prediction(self):
        """The prediction computed at the last observed state."""
        return self._last_combined

    def flush_pending(self):
        """Forget the in-flight prediction, keeping weights and models.

        Used when the observation stream jumps discontinuously (e.g.
        switching from recognizer-search states to live execution): the
        next observation should train, not be scored against a prediction
        made for a different point on the trajectory.
        """
        self._last_view = None
        self._last_predictions = None
        self._last_combined = None

    # -- introspection ---------------------------------------------------------

    def weight_matrix(self, normalized=True):
        """Final weights (experts x bits) — the paper's Figure 3."""
        w = self.weights.copy()
        if normalized and w.size:
            totals = w.sum(axis=0)
            totals[totals == 0] = 1.0
            w /= totals
        return w

    def reset(self):
        for predictor in self.predictors:
            predictor.reset()
        self.weights = np.ones((self.n_experts, 0))
        self._last_view = None
        self._last_predictions = None
        self._last_combined = None
