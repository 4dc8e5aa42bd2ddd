"""Neighbour-based quantile forecasting and the walk-forward loop."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bessarb.errors import (
    EmptyTrainSet,
    InsufficientHistory,
    KTooLarge,
    MalformedRow,
    MissingPeriod,
    NonMonotonicTimestamps,
    UnknownColumn,
)
from bessarb.evaluation import score_forecasts
from bessarb.forecasting import (
    FeatureMatrix,
    KnnQuantileForecaster,
    WalkForwardPlan,
    walk_forward,
)
from bessarb.market import (
    BASE_EPOCH,
    DEFAULT_LEVELS,
    MarketKind,
    PriceSeries,
)

from conftest import frac

BM_STEP = MarketKind.BM.period_seconds
WINDOW_SPAN = BM_STEP * MarketKind.BM.periods_per_window


def bm_matrix(targets, feature_of=None, timestamps=None):
    n = len(targets)
    if timestamps is None:
        timestamps = tuple(BASE_EPOCH + i * BM_STEP for i in range(n))
    if feature_of is None:
        feature_of = lambda i: (float(i % 16), float(i // 16))
    feats = np.array([feature_of(i) for i in range(n)])
    if n == 0:
        feats = np.empty((0, 2))
    return FeatureMatrix(
        MarketKind.BM,
        tuple(timestamps),
        ("slot", "window"),
        feats,
        tuple(frac(t) for t in targets),
    )


class TestFeatureMatrix:
    def test_shape_guards(self):
        with pytest.raises(MalformedRow):
            bm_matrix([1, 2], feature_of=lambda i: (float(i),))  # one name short
        with pytest.raises(MalformedRow):
            FeatureMatrix(
                MarketKind.BM, (BASE_EPOCH,), ("a",), np.array([[1.0]]), ()
            )

    def test_rows_must_advance_in_time(self):
        with pytest.raises(NonMonotonicTimestamps):
            bm_matrix([1, 2], timestamps=(BASE_EPOCH, BASE_EPOCH))

    def test_slice_by_time(self):
        m = bm_matrix(range(10))
        mid = m.slice_by_time(BASE_EPOCH + 2 * BM_STEP, BASE_EPOCH + 5 * BM_STEP)
        assert mid.targets == (2, 3, 4)
        assert len(m.slice_by_time(0, BASE_EPOCH)) == 0

    def test_csv_round_trip(self, tmp_path):
        m = bm_matrix([frac("10.5"), frac("-3.25"), 7])
        path = tmp_path / "features.csv"
        m.to_csv(path)
        text = path.read_text()
        assert text.splitlines()[0] == "timestamp,slot,window,target"
        back = FeatureMatrix.from_csv(path, MarketKind.BM)
        assert back.timestamps == m.timestamps
        assert back.targets == m.targets
        assert np.array_equal(back.features, m.features)

    def test_csv_guards(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,a,target\n")
        with pytest.raises(UnknownColumn):
            FeatureMatrix.from_csv(path, MarketKind.BM)
        path.write_text("timestamp,a,target\n2024-01-01T00:00:00Z,oops,5\n")
        with pytest.raises(MalformedRow) as err:
            FeatureMatrix.from_csv(path, MarketKind.BM)
        assert "2" in str(err.value)
        path.write_text("timestamp,a,target\n2024-01-01T00:00:00Z,1\n")
        with pytest.raises(MalformedRow):
            FeatureMatrix.from_csv(path, MarketKind.BM)
        path.write_text("\n\n")
        with pytest.raises(MalformedRow):
            FeatureMatrix.from_csv(path, MarketKind.BM)
        path.write_bytes(b"timestamp,a,target\n2024-01-01T00:00:00Z,\xff,5\n")
        with pytest.raises(MalformedRow) as err:
            FeatureMatrix.from_csv(path, MarketKind.BM)
        assert "line 2" in str(err.value)


class TestKnnForecaster:
    def fit3(self, targets=(10, 20, 30), k=3):
        feats = [[0.0], [1.0], [2.0]]
        return KnnQuantileForecaster(k, DEFAULT_LEVELS).fit(feats, targets)

    def test_interpolated_quantiles(self):
        model = KnnQuantileForecaster(3, ("0.5", "0.9")).fit(
            [[0.0], [0.0], [0.0]], (10, 20, 30)
        )
        row = model.predict([[0.0]])[0]
        assert row == (Fraction(20), Fraction(28))  # rank 1.8 splits 20..30

    def test_single_neighbour_is_constant_across_levels(self):
        model = KnnQuantileForecaster(1, DEFAULT_LEVELS).fit([[0.0]], (frac("7.31"),))
        assert set(model.predict([[5.0]])[0]) == {frac("7.31")}

    def test_exact_fraction_arithmetic(self):
        model = KnnQuantileForecaster(2, ("0.25",)).fit(
            [[0.0], [0.0]], (Fraction(1, 3), Fraction(2, 3))
        )
        assert model.predict([[0.0]])[0][0] == Fraction(5, 12)

    def test_distance_ties_prefer_older_rows(self):
        model = KnnQuantileForecaster(1, ("0.5",)).fit(
            [[4.0], [4.0]], (111, 222)
        )
        assert model.predict([[4.0]])[0][0] == 111

    def test_standardization_weighs_features_equally(self):
        # raw scale says row 0 is closer; per-feature standardization says row 1
        model = KnnQuantileForecaster(1, ("0.5",)).fit(
            [[0.0, 0.0], [1000.0, 1.0], [2000.0, 2.0], [500.0, 9.0]], (1, 2, 3, 4)
        )
        assert model.predict([[1100.0, 1.1]])[0][0] == 2

    def test_constant_feature_column_is_harmless(self):
        model = KnnQuantileForecaster(1, ("0.5",)).fit(
            [[5.0, 1.0], [5.0, 2.0]], (10, 20)
        )
        assert model.predict([[5.0, 1.9]])[0][0] == 20

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60)
    def test_levels_produce_monotone_rows(self, targets, k):
        if k > len(targets):
            k = len(targets)
        feats = [[float(i)] for i in range(len(targets))]
        model = KnnQuantileForecaster(k, DEFAULT_LEVELS).fit(feats, targets)
        row = model.predict([[0.0]])[0]
        assert all(a <= b for a, b in zip(row, row[1:]))

    def test_fit_guards(self):
        with pytest.raises(EmptyTrainSet):
            KnnQuantileForecaster(1).fit(np.empty((0, 2)), ())
        with pytest.raises(EmptyTrainSet):
            KnnQuantileForecaster(1).fit([[1.0]], (1, 2))
        with pytest.raises(KTooLarge):
            KnnQuantileForecaster(4).fit([[1.0], [2.0]], (1, 2))
        with pytest.raises(KTooLarge):
            KnnQuantileForecaster(0).fit([[1.0]], (1,))
        with pytest.raises(EmptyTrainSet):
            KnnQuantileForecaster(1).predict([[1.0]])


class TestWalkForwardPlan:
    def test_span_guards(self):
        good = dict(train_span_s=WINDOW_SPAN, test_span_s=WINDOW_SPAN,
                    step_s=WINDOW_SPAN, retune_every_s=WINDOW_SPAN)
        WalkForwardPlan(**good)
        for field in ("train_span_s", "test_span_s", "step_s", "retune_every_s"):
            with pytest.raises(InsufficientHistory):
                WalkForwardPlan(**{**good, field: 0})
        with pytest.raises(KTooLarge):
            WalkForwardPlan(**good, k_grid=())
        with pytest.raises(KTooLarge):
            WalkForwardPlan(**good, k_grid=(0, 3))


class TestWalkForward:
    def plan(self, **kw):
        base = dict(
            train_span_s=2 * WINDOW_SPAN,
            test_span_s=WINDOW_SPAN,
            step_s=WINDOW_SPAN,
            retune_every_s=2 * WINDOW_SPAN,
        )
        base.update(kw)
        return WalkForwardPlan(**base)

    def test_forecast_cadence_and_refit_schedule(self):
        result = walk_forward(bm_matrix([25] * 80), self.plan())
        starts = [fc.window.start_epoch_s for fc in result.forecasts]
        assert starts == [BASE_EPOCH + 2 * WINDOW_SPAN,
                          BASE_EPOCH + 3 * WINDOW_SPAN,
                          BASE_EPOCH + 4 * WINDOW_SPAN]
        assert [s for s, _ in result.refits] == [
            BASE_EPOCH + 2 * WINDOW_SPAN,
            BASE_EPOCH + 4 * WINDOW_SPAN,
        ]

    def test_ties_choose_smallest_k(self):
        # constant targets score identically for every k
        result = walk_forward(bm_matrix([25] * 80), self.plan())
        assert all(k == 3 for _, k in result.refits)

    def test_slot_determined_targets_forecast_exactly(self):
        targets = [10 + (i % 16) for i in range(80)]
        result = walk_forward(
            bm_matrix(targets), self.plan(k_grid=(1,), levels=("0.5",))
        )
        actuals = [
            PriceSeries(fc.window, tuple(frac(10 + s) for s in range(16)))
            for fc in result.forecasts
        ]
        assert score_forecasts(list(result.forecasts), actuals).mean == 0

    def test_deterministic(self):
        m = bm_matrix([(i * 7) % 23 for i in range(80)])
        assert walk_forward(m, self.plan()) == walk_forward(m, self.plan())

    def test_test_span_must_tile_windows(self):
        with pytest.raises(InsufficientHistory):
            walk_forward(bm_matrix([1] * 80), self.plan(test_span_s=BM_STEP * 8))

    def test_matrix_too_short(self):
        with pytest.raises(InsufficientHistory):
            walk_forward(bm_matrix([1] * 40), self.plan())

    def test_empty_matrix(self):
        with pytest.raises(EmptyTrainSet):
            walk_forward(bm_matrix([]), self.plan())

    def test_gap_in_test_slice(self):
        ts = [BASE_EPOCH + i * BM_STEP for i in range(80)]
        del ts[40]  # hole inside the first test window
        m = bm_matrix(range(79), timestamps=ts)
        with pytest.raises(MissingPeriod):
            walk_forward(m, self.plan())

    def test_shifted_test_rows_rejected(self):
        ts = [BASE_EPOCH + i * BM_STEP for i in range(48)]
        for i in range(32, 48):
            ts[i] += 900  # whole test window off the period grid
        m = bm_matrix(range(48), timestamps=ts)
        with pytest.raises(MissingPeriod):
            walk_forward(m, self.plan())

    def test_train_span_must_exceed_validation_tail(self):
        with pytest.raises(InsufficientHistory):
            walk_forward(
                bm_matrix([1] * 80), self.plan(train_span_s=WINDOW_SPAN)
            )

    def test_k_grid_larger_than_history(self):
        with pytest.raises(InsufficientHistory):
            walk_forward(bm_matrix([1] * 80), self.plan(k_grid=(40,)))
