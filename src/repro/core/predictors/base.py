"""Predictor interface.

The paper specifies three per-bit entry points — ``update(x, j)``,
``predict(x, j)``, ``reset()`` (§4.4.1). Python per-bit calls would
dominate runtime, so the native interface here is vectorized over all
target bits at once; the paper's per-bit signatures are provided as thin
adapters on top and exercised by the test suite.

A predictor sees the trajectory only as a sequence of
:class:`repro.core.excitation.ObservationView` projections. ``update``
receives consecutive (previous, next) view pairs; ``predict`` must be a
*pure function* of its input view — the allocator calls it on predicted
views to roll predictions out multiple supersteps (§4.5.2).

To the ensemble an expert is a *row* of its prediction matrix. A
predictor is one row unless it says otherwise: a bank of models that
share their work (logistic regression at several learning rates) sets
``n_experts``, names its rows in ``instance_names`` and answers
``predict_rows`` with ``(n_experts, n_bits)`` arrays.
"""

import numpy as np


class Predictor:
    """Base class: bookkeeping for target-set growth."""

    name = "base"
    #: Rows this predictor fills in the ensemble's prediction matrix.
    n_experts = 1

    def __init__(self):
        self._n_bits = 0

    # -- capacity --------------------------------------------------------------

    def ensure_capacity(self, n_bits):
        """Grow internal per-bit state; new bits appended at the end."""
        if n_bits > self._n_bits:
            self._grow(self._n_bits, n_bits)
            self._n_bits = n_bits

    def _grow(self, old_bits, new_bits):
        """Subclass hook: allocate state for bits [old_bits, new_bits)."""

    # -- vectorized interface -------------------------------------------------

    def update(self, prev_view, next_view):
        """Learn from one observed transition between RIP states."""
        raise NotImplementedError

    def predict(self, view):
        """Predict the next RIP state's bits given the current view.

        Returns ``(bits, confidence)``: a uint8 0/1 array and a float
        array in [0.5, 1] giving the predictor's own probability that
        each predicted bit is correct. The arrays stay the predictor's
        (it may hand out the same ones until its next ``update``): copy
        before writing to them.
        """
        raise NotImplementedError

    def predict_rows(self, view):
        """``predict`` for every row: arrays that broadcast against
        ``(n_experts, n_bits)``."""
        return self.predict(view)

    @property
    def instance_names(self):
        """One name per row, in row order."""
        return [getattr(self, "instance_name", self.name)]

    def reset(self):
        """Discard the model (recognizer retarget, §4.4.1)."""
        self._n_bits = 0

    # -- the paper's per-bit adapters ---------------------------------------------

    def update_bit(self, prev_view, next_view, j):
        """Per-bit ``update(x, j)`` adapter (test/compatibility surface)."""
        self.update(prev_view, next_view)

    def predict_bit(self, view, j):
        """Per-bit ``predict(x, j)`` adapter: the predicted j-th bit."""
        bits, __ = self.predict(view)
        return int(bits[j])

    def __repr__(self):
        return "<%s n_bits=%d>" % (type(self).__name__, self._n_bits)


def extend_array(arr, new_len, fill, dtype=None):
    """Return ``arr`` grown to ``new_len`` with ``fill`` in the new slots."""
    if dtype is None:
        dtype = arr.dtype
    out = np.full(new_len, fill, dtype=dtype)
    out[:len(arr)] = arr
    return out
