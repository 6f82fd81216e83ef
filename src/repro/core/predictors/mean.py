"""The mean predictor: per-bit majority value (§4.4.2).

"The mean predictor simply learns the mean value of each bit and issues
predictions by rounding." Its predictions ignore the input state
entirely, which makes it exactly right for bits that are constant or
near-constant between RIP states and useless for everything else — the
RWMA weights sort that out per bit.
"""

import numpy as np

from repro.core.predictors.base import Predictor, extend_array


class MeanPredictor(Predictor):
    name = "mean"

    def __init__(self):
        super().__init__()
        self._ones = np.zeros(0, dtype=np.int64)
        self._total = np.zeros(0, dtype=np.int64)
        #: ``(bits, confidence, ties)`` under the current counts; only
        #: the ``ties`` positions (None: there are none) read the view.
        self._rows = None

    def _grow(self, old_bits, new_bits):
        self._ones = extend_array(self._ones, new_bits, 0)
        self._total = extend_array(self._total, new_bits, 0)
        self._rows = None

    def update(self, prev_view, next_view):
        self.ensure_capacity(next_view.n_bits)
        self._ones[:next_view.n_bits] += next_view.bits
        self._total[:next_view.n_bits] += 1
        self._rows = None

    def predict(self, view):
        self.ensure_capacity(view.n_bits)
        n = view.n_bits
        if self._rows is None or len(self._rows[0]) != n:
            # Laplace-smoothed mean; ties round to the current bit value.
            p1 = (self._ones[:n] + 1.0) / (self._total[:n] + 2.0)
            ties = p1 == 0.5
            self._rows = ((p1 > 0.5).astype(np.uint8),
                          np.maximum(p1, 1.0 - p1),
                          ties if ties.any() else None)
        bits, confidence, ties = self._rows
        if ties is not None:
            bits = bits.copy()
            bits[ties] = view.bits[ties]
        return bits, confidence

    def reset(self):
        super().reset()
        self._ones = np.zeros(0, dtype=np.int64)
        self._total = np.zeros(0, dtype=np.int64)
        self._rows = None
