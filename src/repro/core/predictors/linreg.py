"""Online linear regression over 32-bit words (§4.4.2).

"Linear regression is most useful when our system needs to predict
integer-valued features such as loop induction variables." Each target
word gets its own model of the next word value as an affine function of
the current one, fitted online by least squares.

The implementation keeps the normal-equation sums as exact Python
integers (relative to the first observed pair, to keep magnitudes small)
and computes predictions with integer rational arithmetic. This is the
closed-form solution the paper's per-observation gradient descent
converges to, without float round-off — which matters because a
prediction that is off by one ulp is a cache miss, not a small error.
All arithmetic is modulo 2^32, matching the machine's words.
"""

import numpy as np

from repro.core.predictors.base import Predictor

_M32 = 1 << 32


def _round_div(a, b):
    """Round-half-up integer division; ``b`` must be positive."""
    return (2 * a + b) // (2 * b)


def _wrap_signed(v):
    """Wrap an integer difference into signed 32-bit range."""
    v %= _M32
    return v - _M32 if v >= (1 << 31) else v


class _WordModel:
    """Robust exact online regression for one target word.

    Two estimators layered by reliability:

    1. *Consensus affine*: integer (slope, intercept) hypotheses derived
       from recent observation pairs, accepted when a supermajority of
       the recent window agrees exactly. This nails induction variables
       and strided pointers, and — crucially — keeps nailing them when
       the sequence has occasional discontinuities (a wrapped loop index,
       a best-so-far update) that would drag a least-squares fit off the
       integer lattice.
    2. *Exact least squares* over the full history (integer normal
       equations, rational prediction rounded once) as the fallback when
       no consensus exists.
    """

    __slots__ = ("n", "sx", "sy", "sxx", "sxy", "ref_x", "ref_y",
                 "hits", "trials", "recent", "consensus")

    WINDOW = 8

    def __init__(self):
        self.n = 0
        self.sx = 0
        self.sy = 0
        self.sxx = 0
        self.sxy = 0
        self.ref_x = 0
        self.ref_y = 0
        self.hits = 0
        self.trials = 0
        self.recent = []  # last WINDOW (x, y) pairs
        #: The affine map ``(slope, intercept)`` the recent window agrees
        #: on (a constant output is slope 0), or None. A function of
        #: ``recent`` alone, so it is searched once per observation and
        #: every prediction until the next one only evaluates it.
        self.consensus = None

    def observe(self, x, y):
        if self.n == 0:
            self.ref_x = x
            self.ref_y = y
        # Self-evaluation before updating: did we already know this?
        if self.n >= 2:
            self.trials += 1
            if self.predict(x) == y % _M32:
                self.hits += 1
        dx = x - self.ref_x
        dy = y - self.ref_y
        self.n += 1
        self.sx += dx
        self.sy += dy
        self.sxx += dx * dx
        self.sxy += dx * dy
        self.recent.append((x, y))
        if len(self.recent) > self.WINDOW:
            self.recent.pop(0)
        self.consensus = self._find_consensus()

    def _find_consensus(self):
        """Supermajority-verified integer affine map, or None.

        Hypotheses are affine maps modulo 2^32 — deltas are wrapped to
        signed before forming a slope, and agreement is checked mod 2^32,
        so negative slopes and values that straddle the wrap point work.
        """
        pairs = self.recent
        if len(pairs) < 3:
            return None
        need = (len(pairs) * 7 + 9) // 10  # ceil(0.7 * len)
        tried = set()
        # Hypotheses from the most recent pairs backwards.
        for i in range(len(pairs) - 1, 0, -1):
            x2, y2 = pairs[i]
            x1, y1 = pairs[i - 1]
            dx = _wrap_signed(x2 - x1)
            dy = _wrap_signed(y2 - y1)
            if dx == 0 or dy % dx:
                continue
            slope = dy // dx
            intercept = y1 - slope * x1
            if (slope, intercept) in tried:
                continue
            tried.add((slope, intercept))
            agree = sum(1 for px, py in pairs
                        if (slope * px + intercept - py) % _M32 == 0)
            if agree >= need:
                return slope, intercept
            if len(tried) >= 3:
                break
        # Constant-output consensus (x may vary or repeat).
        values = [py for __, py in pairs]
        top = max(set(values), key=values.count)
        if values.count(top) >= need:
            return 0, top
        return None

    def predict(self, x):
        if self.n < 2:
            return x % _M32  # fall back to persistence until fitted
        if self.consensus is not None:
            slope, intercept = self.consensus
            return (slope * x + intercept) % _M32
        dx = x - self.ref_x
        num = self.n * self.sxy - self.sx * self.sy
        den = self.n * self.sxx - self.sx * self.sx
        if den == 0:
            # Constant input: predict the mean output.
            return (self.ref_y + _round_div(self.sy, self.n)) % _M32
        # y = ref_y + (sy - w1*sx)/n + w1*dx with w1 = num/den, evaluated
        # as one exact rational rounded at the end.
        numerator = self.sy * den - num * self.sx + self.n * num * dx
        return (self.ref_y + _round_div(numerator, self.n * den)) % _M32

    def confidence(self):
        if self.trials == 0:
            return 0.5
        value = (self.hits + 0.5) / (self.trials + 1.0)
        return min(max(value, 0.5), 0.999)


class LinearRegressionPredictor(Predictor):
    name = "linreg"

    def __init__(self):
        super().__init__()
        self._models = []

    def _grow(self, old_bits, new_bits):
        n_words = new_bits // 32
        while len(self._models) < n_words:
            self._models.append(_WordModel())

    def update(self, prev_view, next_view):
        self.ensure_capacity(next_view.n_bits)
        prev = prev_view.word_values.tolist()
        nxt = next_view.word_values.tolist()
        for model, x, y in zip(self._models, prev, nxt):
            model.observe(int(x), int(y))

    def predict(self, view):
        self.ensure_capacity(view.n_bits)
        values = view.word_values.tolist()
        predicted = np.empty(len(values), dtype=np.uint32)
        confidence_words = np.empty(len(values))
        for i, (model, x) in enumerate(zip(self._models, values)):
            predicted[i] = model.predict(int(x))
            confidence_words[i] = model.confidence()
        word_bytes = predicted.astype("<u4").view(np.uint8)
        bits = np.unpackbits(word_bytes, bitorder="little")
        confidence = np.repeat(confidence_words, 32)
        return bits, confidence

    def reset(self):
        super().reset()
        self._models = []
