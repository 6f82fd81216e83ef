"""Individual predictors: each learns the pattern it is built for."""

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
)
from repro.core.predictors.base import Predictor
from repro.core.predictors.linreg import _WordModel


def make_views(word_sequences):
    """Build ObservationViews directly from per-step word-value tuples."""
    views = []
    for idx, step in enumerate(word_sequences):
        words = np.array([v & 0xFFFFFFFF for v in step], dtype=np.uint32)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        views.append(ObservationView(words, bits, version=1, index=idx))
    return views, None


def train(predictor, views):
    for prev, nxt in zip(views, views[1:]):
        predictor.update(prev, nxt)


def predicted_words(predictor, view):
    bits, conf = predictor.predict(view)
    return np.packbits(bits, bitorder="little").view("<u4").tolist(), conf


class TestMean:
    def test_learns_majority(self):
        views, __ = make_views([(1,), (1,), (1,), (0,), (1,)])
        predictor = MeanPredictor()
        train(predictor, views)
        words, conf = predicted_words(predictor, views[-1])
        assert words == [1]

    def test_confidence_grows_with_agreement(self):
        views, __ = make_views([(1,)] * 10)
        predictor = MeanPredictor()
        train(predictor, views)
        __, conf = predictor.predict(views[-1])
        # Bit 0 is always 1: high confidence.
        assert conf[0] > 0.85


class TestWeatherman:
    def test_predicts_current(self):
        views, __ = make_views([(5,), (9,)])
        predictor = WeathermanPredictor()
        train(predictor, views)
        words, __ = predicted_words(predictor, views[-1])
        assert words == [9]


class TestLinearRegression:
    def test_learns_increment(self):
        views, __ = make_views([(i,) for i in range(10)])
        predictor = LinearRegressionPredictor()
        train(predictor, views)
        words, __ = predicted_words(predictor, views[-1])
        assert words == [10]

    def test_learns_stride(self):
        views, __ = make_views([(1000 + 68 * i,) for i in range(8)])
        predictor = LinearRegressionPredictor()
        train(predictor, views)
        words, __ = predicted_words(predictor, views[-1])
        assert words == [1000 + 68 * 8]

    def test_learns_affine_map(self):
        # x' = 3x + 7 (e.g. an LCG-like update).
        seq = [11]
        for __ in range(9):
            seq.append(3 * seq[-1] + 7)
        views, __ = make_views([(v,) for v in seq])
        predictor = LinearRegressionPredictor()
        train(predictor, views)
        words, __ = predicted_words(predictor, views[-1])
        assert words == [(3 * seq[-1] + 7) & 0xFFFFFFFF]

    def test_robust_to_wraparound_outlier(self):
        # A mod-8 loop counter: mostly +1 with a wrap discontinuity.
        seq = [i % 8 for i in range(20)]
        views, __ = make_views([(v,) for v in seq])
        predictor = LinearRegressionPredictor()
        train(predictor, views)
        # From a mid-range value the consensus affine (+1) must win
        # despite the wrap outliers that poison a least-squares fit.
        assert views[-2].word_values[0] == 18 % 8
        words, __ = predicted_words(predictor, views[-2])
        assert words == [18 % 8 + 1]

    def test_constant_word(self):
        views, __ = make_views([(42,)] * 8)
        predictor = LinearRegressionPredictor()
        train(predictor, views)
        words, __ = predicted_words(predictor, views[-1])
        assert words == [42]

    def test_wraps_mod_2_32(self):
        start = 0xFFFFFFFE
        views, __ = make_views([((start + i) & 0xFFFFFFFF,)
                                for i in range(8)])
        predictor = LinearRegressionPredictor()
        train(predictor, views)
        words, __ = predicted_words(predictor, views[-1])
        assert words == [(start + 8) & 0xFFFFFFFF]

    @settings(max_examples=25, deadline=None)
    @given(slope=st.integers(-5, 5), intercept=st.integers(-100, 100),
           start=st.integers(0, 1000))
    def test_exact_affine_property(self, slope, intercept, start):
        seq = [start]
        for __ in range(8):
            seq.append((slope * seq[-1] + intercept) & 0xFFFFFFFF)
        views, __ = make_views([(v,) for v in seq])
        predictor = LinearRegressionPredictor()
        train(predictor, views)
        words, __ = predicted_words(predictor, views[-1])
        assert words == [(slope * seq[-1] + intercept) & 0xFFFFFFFF]

    def test_multiple_independent_words(self):
        views, __ = make_views([(i, 1000 - 2 * i, 5) for i in range(10)])
        predictor = LinearRegressionPredictor()
        train(predictor, views)
        words, __ = predicted_words(predictor, views[-1])
        assert words == [10, 1000 - 20, 5]


class TestLogistic:
    def test_learns_constant_bits(self):
        views, __ = make_views([(0xF0,)] * 12)
        predictor = LogisticPredictor(learning_rate=0.5)
        train(predictor, views)
        words, __ = predicted_words(predictor, views[-1])
        assert words == [0xF0]

    def test_learns_alternating_bit(self):
        # Bit 0 alternates; logistic learns next = !current from the
        # word's own bits.
        views, __ = make_views([(i % 2,) for i in range(24)])
        predictor = LogisticPredictor(learning_rate=0.5)
        train(predictor, views)
        words, __ = predicted_words(predictor, views[-1])
        assert words == [(len(views)) % 2]

    def test_instance_name_includes_rate(self):
        assert "0.5" in LogisticPredictor(0.5).instance_name


class TestInterface:
    def test_paper_per_bit_adapters(self):
        views, __ = make_views([(i,) for i in range(8)])
        predictor = LinearRegressionPredictor()
        for prev, nxt in zip(views, views[1:]):
            predictor.update_bit(prev, nxt, j=0)
        assert predictor.predict_bit(views[-1], j=0) == (8 & 1)

    def test_reset_discards_model(self):
        views, __ = make_views([(i,) for i in range(8)])
        predictor = LinearRegressionPredictor()
        train(predictor, views)
        predictor.reset()
        words, __ = predicted_words(predictor, views[-1])
        assert words == [7]  # back to persistence fallback

    @pytest.mark.parametrize("cls", [MeanPredictor, WeathermanPredictor,
                                     LinearRegressionPredictor])
    def test_confidence_in_range(self, cls):
        views, __ = make_views([(i,) for i in range(8)])
        predictor = cls()
        train(predictor, views)
        __, conf = predictor.predict(views[-1])
        assert ((conf >= 0.5) & (conf <= 1.0)).all()

    def test_capacity_growth_preserves_predictions(self):
        views, __ = make_views([(i,) for i in range(8)])
        predictor = LinearRegressionPredictor()
        train(predictor, views)
        predictor.ensure_capacity(64)  # grow to 2 words
        bits, conf = predictor.predict(views[-1])
        assert len(bits) == 32  # prediction sized to the view


# -- the two linreg shortcuts, and who owns which row ---------------------------

_M32 = 1 << 32
_SLOPES = (1, -1, 2 ** 31 - 1, -2 ** 31, 2 ** 32 - 1)
_words = st.one_of(st.sampled_from((0, 1, 2 ** 31, 2 ** 32 - 1)),
                   st.integers(0, 2 ** 32 - 1))


@st.composite
def _value_runs(draw):
    """One word's values over time: a few regimes back to back, each
    short enough that the regime changes inside the 8-pair window."""
    values = [draw(_words)]
    for __ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(
            ("affine", "constant", "induction", "noise")))
        length = draw(st.integers(1, 12))
        if kind == "affine":
            slope = draw(st.sampled_from(_SLOPES))
            offset = draw(st.one_of(st.integers(-3, 3), _words))
            for __ in range(length):
                values.append((slope * values[-1] + offset) % _M32)
        elif kind == "constant":
            values.extend([draw(_words)] * length)
        elif kind == "induction":
            stride = draw(st.integers(-8, 8))
            for __ in range(length):
                step = (values[-1] + stride) % _M32
                # One step in four is an outlier the window must absorb.
                values.append(draw(_words) if draw(st.integers(0, 3)) == 0
                              else step)
        else:
            values.extend(draw(_words) for __ in range(length))
    return values


class _AlwaysSearching(_WordModel):
    """The model without its shortcut: every observation searches."""

    __slots__ = ()

    def _consensus_stands(self):
        return False


class TestLinregShortcuts:
    @settings(max_examples=300, deadline=None)
    @given(values=_value_runs(), chained=st.booleans(),
           outputs=_value_runs())
    def test_standing_consensus_is_what_the_search_returns(
            self, values, chained, outputs):
        # chained: y of one pair is x of the next (a trajectory);
        # otherwise x and y come from unrelated runs (x may repeat
        # while y moves, and the other way round).
        if chained:
            pairs = list(zip(values, values[1:]))
        else:
            pairs = list(zip(values, outputs))
        fast, slow = _WordModel(), _AlwaysSearching()
        for x, y in pairs:
            fast.observe(x, y)
            slow.observe(x, y)
            assert fast.consensus == slow.consensus
            assert (fast.hits, fast.trials) == (slow.hits, slow.trials)
            assert fast.predict(y) == slow.predict(y)

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(
        st.tuples(st.sampled_from((0, 1, 2, 3)),
                  st.sampled_from((5, 6, 5 + 2 ** 30, 5 + 2 ** 31))),
        min_size=3, max_size=40))
    def test_shortcut_survives_coincidences(self, pairs):
        # Few distinct values: repeated x, maps that agree mod 2^32 on
        # most of the window, consensus changing hands.
        fast, slow = _WordModel(), _AlwaysSearching()
        for x, y in pairs:
            fast.observe(x, y)
            slow.observe(x, y)
            assert fast.consensus == slow.consensus
            assert (fast.hits, fast.trials) == (slow.hits, slow.trials)

    @pytest.mark.parametrize("pairs", [
        # A constant consensus over a repeated x loses to an affine map
        # (slope -2^31) the moment that map gathers its supermajority.
        [(3, 5)] * 5 + [(1, 5 + 2 ** 31)] + [(2, 5)] * 6,
        # Eight identical pairs are the constant map, whatever affine
        # map through (0, y) stood before.
        [(0, 9)] * 4 + [(1, 12)] + [(0, 9)] * 9,
    ])
    def test_shortcut_near_misses_are_searched(self, pairs):
        fast, slow = _WordModel(), _AlwaysSearching()
        seen = set()
        for x, y in pairs:
            fast.observe(x, y)
            slow.observe(x, y)
            assert fast.consensus == slow.consensus
            seen.add(fast.consensus)
        assert len(seen - {None}) >= 2  # the consensus did change hands

    def test_both_steady_states_skip_the_search(self):
        searched = []

        class Counting(_WordModel):
            __slots__ = ()

            def _find_consensus(self):
                searched.append(self.n)
                return super()._find_consensus()

        stride, still = Counting(), Counting()
        for i in range(40):
            stride.observe(100 + 4 * i, 104 + 4 * i)
            still.observe(7, 9)
        assert stride.consensus == (1, 4) and still.consensus == (0, 9)
        # Once the window agrees, neither model searches again.
        assert max(searched) <= _WordModel.WINDOW + 1

    @staticmethod
    def _per_word(predictor, view):
        """What predict computed before it had columns."""
        values = view.word_values.tolist()
        models = predictor._models[:len(values)]
        words = np.array([m.predict(x) for m, x in zip(models, values)],
                         dtype=np.uint32)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        return bits, np.repeat([m.confidence() for m in models], 32)

    def _assert_columns_match(self, predictor, view):
        bits, confidence = predictor.predict(view)
        want_bits, want_confidence = self._per_word(predictor, view)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, want_bits)
        assert np.array_equal(confidence, want_confidence)

    @settings(max_examples=60, deadline=None)
    @given(runs=st.lists(_value_runs(), min_size=1, max_size=4),
           late=_value_runs(), joins_at=st.integers(0, 20),
           probe=st.lists(_words, min_size=5, max_size=5))
    def test_columns_predict_what_the_models_predict(
            self, runs, late, joins_at, probe):
        steps = min(len(run) for run in runs + [late])
        predictor = LinearRegressionPredictor()
        prev = None
        for t in range(steps):
            words = [run[t] for run in runs]
            if t >= joins_at:
                words.append(late[t])  # the target set grew by one word
            view = make_views([words])[0][0]
            if prev is not None:
                predictor.update(prev, view)
            prev = view
            # The observed state, a rollout-style synthetic state, and
            # a view from before the growth (shorter than the models).
            self._assert_columns_match(predictor, view)
            self._assert_columns_match(
                predictor, make_views([probe[:len(words)]])[0][0])
            self._assert_columns_match(
                predictor, make_views([probe[:1]])[0][0])

    def test_columns_cover_persistence_and_least_squares(self):
        rng = np.random.default_rng(5)
        noise = [int(v) for v in rng.integers(0, 2 ** 32, 12)]
        predictor = LinearRegressionPredictor()
        views, __ = make_views([(i, noise[i]) for i in range(12)])
        self._assert_columns_match(predictor, views[0])  # n == 0
        predictor.update(views[0], views[1])
        self._assert_columns_match(predictor, views[1])  # n == 1
        for prev, nxt in zip(views[1:], views[2:]):
            predictor.update(prev, nxt)
            self._assert_columns_match(predictor, nxt)
        counter, scattered = predictor._models
        assert counter.consensus == (1, 1)
        # The noise word has no consensus: it is the listed exception
        # that predicts by least squares.
        assert scattered.consensus is None and scattered.n >= 2
        assert predictor._columns[3] == [1]


class _Fixed(Predictor):
    """A single-row plug-in: always predicts ``value``."""

    def __init__(self, name, value):
        super().__init__()
        self.name = name
        self.value = value

    def update(self, prev_view, next_view):
        self.ensure_capacity(next_view.n_bits)

    def predict(self, view):
        words = np.full(view.n_bits // 32, self.value, dtype=np.uint32)
        return (np.unpackbits(words.view(np.uint8), bitorder="little"),
                np.full(view.n_bits, 0.75))


class TestExpertRows:
    RATES = (0.5, 0.05, 0.005)

    def test_plugins_and_the_bank_land_in_their_named_rows(self):
        bank = LogisticPredictor(learning_rates=self.RATES)
        singles = [LogisticPredictor(learning_rate=r) for r in self.RATES]
        first, last = _Fixed("first", 0xF0F0), _Fixed("last", 0x1234)
        ensemble = PredictorEnsemble([first, bank, last])
        assert ensemble.n_experts == 5 == ensemble.weights.shape[0]
        assert ensemble.expert_names == [
            "first", "logistic(lr=0.5)", "logistic(lr=0.05)",
            "logistic(lr=0.005)", "last"]
        views, __ = make_views([(3 * i, i % 2) for i in range(12)])
        predicted = None  # (first, bank, last) rows for the coming view
        for prev, view in zip([None] + views, views):
            outcome = ensemble.observe(view)
            if prev is not None:
                rows = outcome.expert_bits
                assert outcome.expert_errors.shape == rows.shape \
                    == (5, view.n_bits)
                assert np.array_equal(rows[0], predicted[0])
                assert np.array_equal(rows[1:4], predicted[1])
                assert np.array_equal(rows[4], predicted[2])
            bank_bits, bank_confidence = bank.predict_rows(view)
            assert bank_bits.shape == (3, view.n_bits)
            predicted = (first.predict(view)[0], bank_bits,
                         last.predict(view)[0])
            # Each rate of the bank is the one-rate predictor, bit for
            # bit.
            for row, single in enumerate(singles):
                if prev is not None:
                    single.update(prev, view)
                bits, confidence = single.predict(view)
                assert np.array_equal(bank_bits[row], bits)
                assert np.array_equal(bank_confidence[row], confidence)
