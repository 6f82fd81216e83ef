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


def _sigmoid(z):
    # Clipped for numerical robustness with large weights.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


class LogisticPredictor(Predictor):
    name = "logistic"

    def __init__(self, learning_rate=0.5):
        super().__init__()
        self.learning_rate = learning_rate
        # Weights: (n_words, 32 target bits, 33 features) — features are
        # the word's own 32 current bits plus a bias column.
        self._weights = np.zeros((0, _BITS_PER_WORD, _BITS_PER_WORD + 1))
        #: ``(view, probabilities, features)`` of the first prediction
        #: made under the current weights — the observed state, whose
        #: transition ``update`` trains on next.
        self._predicted = None

    @property
    def instance_name(self):
        return "%s(lr=%g)" % (self.name, self.learning_rate)

    def _grow(self, old_bits, new_bits):
        old_words = old_bits // _BITS_PER_WORD
        new_words = new_bits // _BITS_PER_WORD
        grown = np.zeros((new_words, _BITS_PER_WORD, _BITS_PER_WORD + 1))
        grown[:old_words] = self._weights
        self._weights = grown

    @staticmethod
    def _features(view):
        """Per-word feature matrix: (n_words, 33) of {0,1} plus bias."""
        bits = view.bits.reshape(-1, _BITS_PER_WORD).astype(np.float64)
        ones = np.ones((bits.shape[0], 1))
        return np.concatenate([bits, ones], axis=1)

    def _probabilities(self, view):
        x = self._features(view)  # (W, 33)
        w = self._weights[:x.shape[0]]  # (W, 32, 33)
        z = np.einsum("wbf,wf->wb", w, x)
        return _sigmoid(z), x

    def update(self, prev_view, next_view):
        self.ensure_capacity(next_view.n_bits)
        if self._predicted is not None and self._predicted[0] is prev_view:
            __, p, x = self._predicted  # same view, same weights
        else:
            p, x = self._probabilities(prev_view)
        self._predicted = None  # the weights change below
        y = next_view.bits.reshape(-1, _BITS_PER_WORD).astype(np.float64)
        n_words = min(p.shape[0], y.shape[0])
        residual = y[:n_words] - p[:n_words]  # (W, 32)
        self._weights[:n_words] += self.learning_rate * np.einsum(
            "wb,wf->wbf", residual, x[:n_words])

    def predict(self, view):
        self.ensure_capacity(view.n_bits)
        p, x = self._probabilities(view)
        if self._predicted is None:
            self._predicted = (view, p, x)
        p = p.reshape(-1)
        bits = (p > 0.5).astype(np.uint8)
        confidence = np.maximum(p, 1.0 - p)
        return bits, confidence

    def reset(self):
        super().reset()
        self._weights = np.zeros((0, _BITS_PER_WORD, _BITS_PER_WORD + 1))
        self._predicted = None
