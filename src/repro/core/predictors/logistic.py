"""Online logistic regression over state bits (§4.4.2).

One binary classifier per target bit, trained by one stochastic-gradient
step per observation, exactly as the paper describes. The feature vector
for bit ``j`` is the 32 bits of the word containing ``j`` plus a bias
term. (The paper's classifiers condition on the full state vector; with
states of 1e7 bits that is only feasible with their massively-parallel
bit-sliced implementation. Word-local features keep the quadratic
weight storage bounded while capturing the structure logistic regression
actually wins on here — carry chains, flags derived from a word's value,
low-order counter bits. The feature window is configurable.)
"""

import numpy as np

from repro.core.predictors.base import Predictor

_BITS_PER_WORD = 32


class LogisticPredictor(Predictor):
    """A bank of per-bit classifiers, one expert per learning rate.

    The rates differ only in their weights: the feature matrix is built
    once per view, and clip / exp / threshold / residual run once over
    all rates. ``LogisticPredictor(learning_rate=r)`` is the one-rate
    bank.
    """

    name = "logistic"

    def __init__(self, learning_rate=0.5, learning_rates=None):
        super().__init__()
        if learning_rates is None:
            learning_rates = (learning_rate,)
        self.learning_rates = tuple(learning_rates)
        self.n_experts = len(self.learning_rates)
        self._rate_column = np.array(self.learning_rates).reshape(-1, 1, 1)
        # Weights: (rates, n_words, 32 target bits, 33 features) —
        # features are the word's own 32 current bits plus a bias column.
        self._weights = self._zero_weights(0)
        #: ``(view, probabilities, features)`` of the first prediction
        #: made under the current weights — the observed state, whose
        #: transition ``update`` trains on next.
        self._predicted = None

    def _zero_weights(self, n_words):
        return np.zeros((self.n_experts, n_words, _BITS_PER_WORD,
                         _BITS_PER_WORD + 1))

    @property
    def instance_names(self):
        return ["%s(lr=%g)" % (self.name, rate)
                for rate in self.learning_rates]

    @property
    def instance_name(self):
        return ", ".join(self.instance_names)

    def _grow(self, old_bits, new_bits):
        old_words = old_bits // _BITS_PER_WORD
        new_words = new_bits // _BITS_PER_WORD
        grown = self._zero_weights(new_words)
        grown[:, :old_words] = self._weights
        self._weights = grown

    @staticmethod
    def _features(view):
        """Per-word feature matrix: (n_words, 33) of {0,1} plus bias."""
        x = np.ones((view.n_bits // _BITS_PER_WORD, _BITS_PER_WORD + 1))
        x[:, :_BITS_PER_WORD] = view.bits.reshape(-1, _BITS_PER_WORD)
        return x

    def _probabilities(self, view):
        x = self._features(view)  # (W, 33)
        z = np.empty((self.n_experts, x.shape[0], _BITS_PER_WORD))
        # One einsum per rate: a stacked "ewbf,wf->ewb" gives the same
        # bits slower, and matmul is faster but rounds differently.
        for rate_weights, rate_z in zip(self._weights, z):
            np.einsum("wbf,wf->wb", rate_weights[:x.shape[0]], x,
                      out=rate_z)
        # Clipped for numerical robustness with large weights.
        np.clip(z, -30.0, 30.0, out=z)
        return 1.0 / (1.0 + np.exp(-z)), x

    def update(self, prev_view, next_view):
        self.ensure_capacity(next_view.n_bits)
        if self._predicted is not None and self._predicted[0] is prev_view:
            __, p, x = self._predicted  # same view, same weights
        else:
            p, x = self._probabilities(prev_view)
        self._predicted = None  # the weights change below
        y = next_view.bits.reshape(-1, _BITS_PER_WORD)
        n_words = min(p.shape[1], y.shape[0])
        steps = self._rate_column * (y[:n_words] - p[:, :n_words])
        # Features are exactly 0 or 1, so (rate * residual) * x is the
        # same float as rate * (residual * x).
        for rate_weights, step in zip(self._weights, steps):  # (W, 32)
            rate_weights[:n_words] += np.einsum("wb,wf->wbf", step,
                                                x[:n_words])

    def predict_rows(self, view):
        self.ensure_capacity(view.n_bits)
        p, x = self._probabilities(view)
        if self._predicted is None:
            self._predicted = (view, p, x)
        p = p.reshape(self.n_experts, -1)
        return (p > 0.5).astype(np.uint8), np.maximum(p, 1.0 - p)

    def predict(self, view):
        """The first rate's row (all there is of a one-rate bank)."""
        bits, confidence = self.predict_rows(view)
        return bits[0], confidence[0]

    def reset(self):
        super().reset()
        self._weights = self._zero_weights(0)
        self._predicted = None
