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
from repro.core.predictors.weatherman import WeathermanPredictor


def default_ensemble(config=None):
    """The paper's four algorithms; logistic at multiple learning rates."""
    rates = config.logistic_learning_rates if config is not None else (0.5, 0.05)
    predictors = [MeanPredictor(), WeathermanPredictor(),
                  LogisticPredictor(learning_rates=rates),
                  LinearRegressionPredictor()]
    beta = config.rwma_beta if config is not None else 0.5
    randomized = config.rwma_randomized if config is not None else False
    seed = config.seed if config is not None else 0
    return PredictorEnsemble(predictors, beta=beta, randomized=randomized,
                             seed=seed)


class ObserveOutcome:
    """What happened when a new RIP state arrived (for statistics)."""

    __slots__ = ("scored", "expert_bits", "ensemble_bits", "actual_bits")

    def __init__(self, scored, expert_bits, ensemble_bits, actual_bits):
        self.scored = scored
        self.expert_bits = expert_bits  # (experts, bits) each had predicted
        self.ensemble_bits = ensemble_bits  # what we had predicted
        self.actual_bits = actual_bits

    @property
    def expert_errors(self):
        """(experts, bits) bool: where each expert was wrong."""
        return self.expert_bits != self.actual_bits

    @property
    def equal_weight_bits(self):
        """The vote had every expert counted the same (ties go to 1)."""
        votes = self.expert_bits.sum(axis=0)
        return (votes * 2 >= len(self.expert_bits)).astype(np.uint8)


class PredictorEnsemble:
    def __init__(self, predictors, beta=0.5, randomized=False, seed=0,
                 weight_floor=1e-12):
        if not predictors:
            raise ValueError("ensemble needs at least one predictor")
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must be in (0, 1), got %r" % (beta,))
        self.predictors = list(predictors)
        #: Each predictor's rows of the (experts, bits) matrices.
        self._rows = []
        for predictor in self.predictors:
            first = self._rows[-1].stop if self._rows else 0
            self._rows.append(slice(first, first + predictor.n_experts))
        self.n_experts = self._rows[-1].stop
        self.beta = beta
        self.randomized = randomized
        self.weight_floor = weight_floor
        self._rng = np.random.default_rng(seed)
        self.weights = np.ones((self.n_experts, 0))
        self._last_view = None
        # Every expert's (bits, confidence) at the last observed state,
        # one row each, and the (bits, probs) combined from them.
        self._last_rows = None
        self._last_combined = None

    @property
    def expert_names(self):
        return [name for p in self.predictors for name in p.instance_names]

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
        if self._last_view is None:
            outcome = ObserveOutcome(False, None, None, view.bits)
        else:
            expert_bits = self._last_rows[0]
            # Bits added to the target set since the last prediction have
            # no prediction to score; they join the game next round.
            n_scorable = expert_bits.shape[1]
            actual = view.bits[:n_scorable]
            w = self.weights[:, :n_scorable]
            w *= np.where(expert_bits != actual, self.beta, 1.0)
            np.maximum(w, self.weight_floor, out=w)
            outcome = ObserveOutcome(True, expert_bits,
                                     self._last_combined[0], actual)
            for predictor in self.predictors:
                predictor.update(self._last_view, view)
        self._last_view = view
        self._last_rows = self._predict_rows(view)
        self._last_combined = self._combine(*self._last_rows)
        return outcome

    def _predict_rows(self, view):
        """Every expert's answer for ``view``: (experts, bits) matrices
        of predicted bits and of self-reported confidence."""
        bits = np.empty((self.n_experts, view.n_bits), dtype=np.uint8)
        confidence = np.empty((self.n_experts, view.n_bits))
        for predictor, rows in zip(self.predictors, self._rows):
            bits[rows], confidence[rows] = predictor.predict_rows(view)
        return bits, confidence

    # -- combination ----------------------------------------------------------

    def _combine(self, bits, confidence):
        # Axis-0 sums of a C-contiguous matrix add the rows in expert
        # order, one after another: the same floats a loop would give.
        n_bits = bits.shape[1]
        w = self.weights[:, :n_bits]
        total = w.sum(axis=0)
        share_one = (w * bits).sum(axis=0) / total
        # Eq. 2's Bernoulli parameter: confidence-weighted belief.
        prob_one = (w * np.where(bits == 1, confidence,
                                 1.0 - confidence)).sum(axis=0) / total
        if self.randomized:
            bits = (self._rng.random(n_bits) < share_one).astype(np.uint8)
        else:
            bits = (share_one >= 0.5).astype(np.uint8)
        probs = np.where(bits == 1, prob_one, 1.0 - prob_one)
        return bits, probs

    # -- pure prediction (rollout) ----------------------------------------------

    def predict_from(self, view):
        """Combined prediction for the state after ``view``.

        Pure in ``view``: no weights or models are updated, so the
        allocator can chain calls to roll out k supersteps (§4.5.2).
        Returns ``(bits, per_bit_probabilities)``.
        """
        self._ensure_bits(view.n_bits)
        if view is not self._last_view:
            return self._combine(*self._predict_rows(view))
        # The allocator's first rollout step: observe() has just asked
        # every expert about this view under these models. Randomized
        # mode still draws — the rng stream is part of the answer.
        if self.randomized:
            return self._combine(*self._last_rows)
        return self._last_combined

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
        self._last_rows = None
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
        self.flush_pending()
