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
        #: ``recent`` alone: what :meth:`_find_consensus` returns for it.
        #: Every prediction until the next observation only evaluates it.
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
        if not self._consensus_stands():
            self.consensus = self._find_consensus()

    def _consensus_stands(self):
        """Is ``consensus`` provably what the search would return?

        True in the two steady states. (1) The two newest pairs give the
        standing ``(slope, intercept)`` — as exact integers: the search
        tries that hypothesis first, and accepts it, because a standing
        consensus always holds a supermajority of the window (it had
        one when the search chose it, and since then every pair pushed
        agreed with it while at most one agreeing pair was popped).
        (2) Every pair in the window is the same pair: no ``dx`` is
        non-zero, so no hypothesis forms and the constant-output rule
        returns ``(0, y)``. Anything else — a repeated ``x`` with older
        pairs that differ included — is searched.
        """
        pairs = self.recent
        if self.consensus is None or len(pairs) < 3:
            return False
        slope, intercept = self.consensus
        (x1, y1), (x2, y2) = pairs[-2], pairs[-1]
        dx = _wrap_signed(x2 - x1)
        if dx == 0:
            return (slope == 0 and intercept == y2
                    and pairs.count(pairs[-1]) == len(pairs))
        return (_wrap_signed(y2 - y1) == slope * dx
                and intercept == y1 - slope * x1)

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
        #: ``(slope, intercept, confidence, unfitted)`` of the models as
        #: they stand: the consensus maps reduced mod 2^32 as uint64
        #: columns (persistence is slope 1, intercept 0), confidence
        #: per bit, and the indices of the words that have no consensus
        #: and predict by least squares. Built by the first ``predict``
        #: after the models changed.
        self._columns = None

    def _grow(self, old_bits, new_bits):
        n_words = new_bits // 32
        while len(self._models) < n_words:
            self._models.append(_WordModel())
        self._columns = None

    def update(self, prev_view, next_view):
        self.ensure_capacity(next_view.n_bits)
        prev = prev_view.word_values.tolist()
        nxt = next_view.word_values.tolist()
        for model, x, y in zip(self._models, prev, nxt):
            model.observe(x, y)
        self._columns = None

    def _build_columns(self):
        slope, intercept, confidence, unfitted = [], [], [], []
        for i, model in enumerate(self._models):
            consensus = model.consensus
            if consensus is None:
                consensus = (1, 0)  # persistence until fitted
                if model.n >= 2:
                    unfitted.append(i)
            slope.append(consensus[0] % _M32)
            intercept.append(consensus[1] % _M32)
            confidence.append(model.confidence())
        return (np.array(slope, dtype=np.uint64),
                np.array(intercept, dtype=np.uint64),
                np.repeat(np.array(confidence), 32), unfitted)

    def predict(self, view):
        self.ensure_capacity(view.n_bits)
        if self._columns is None:
            self._columns = self._build_columns()
        slope, intercept, confidence, unfitted = self._columns
        x = view.word_values
        n_words = len(x)
        # Both factors are below 2^32, so the uint64 sum cannot wrap.
        predicted = ((slope[:n_words] * x + intercept[:n_words])
                     & 0xFFFFFFFF).astype("<u4")
        for i in unfitted:
            if i < n_words:
                predicted[i] = self._models[i].predict(int(x[i]))
        bits = np.unpackbits(predicted.view(np.uint8), bitorder="little")
        return bits, confidence[:32 * n_words]

    def reset(self):
        super().reset()
        self._models = []
        self._columns = None
