"""Neighbour-based quantile forecasting and the walk-forward loop."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from bessarb.evaluation import pinball, score_forecasts
from bessarb.forecasting import (
    FeatureMatrix,
    KnnQuantileForecaster,
    WalkForwardPlan,
    _FEATURE_BOUND,
    _choose_k,
    _standardizer,
    walk_forward,
)
from bessarb.market import (
    BASE_EPOCH,
    DEFAULT_LEVELS,
    MarketKind,
    PriceSeries,
    format_timestamp,
)
from bessarb._numeric import format_ratio

from conftest import exact_forecast, frac, scaled

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
        *scaled(targets),
    )


def train_matrix(features, targets):
    """Training rows and exact targets as a FeatureMatrix, one period apart."""
    feats = np.asarray(features, dtype=float)
    return FeatureMatrix(
        MarketKind.BM,
        tuple(BASE_EPOCH + i * BM_STEP for i in range(len(feats))),
        tuple(f"f{j}" for j in range(feats.shape[1])),
        feats,
        *scaled(targets),
    )


def exact_targets(m):
    return [Fraction(t, m.scale) for t in m.targets]


# --- Fraction oracles: per-row ranking, quantiles and losses in Fractions ----

def _standardized(train, queries):
    train = np.asarray(train, dtype=float)
    mean, std = train.mean(axis=0), train.std(axis=0)
    std[std == 0] = 1.0
    return (train - mean) / std, (np.asarray(queries, dtype=float) - mean) / std


def _row_ranking(train_std, query_std):
    # one query at a time; the stable sort keeps older rows first on ties
    return np.argsort(((train_std - query_std) ** 2).sum(axis=1), kind="stable")


def _exact_row_ranking(train, query):
    """Every row by its exact squared standardized distance to the query,
    older rows first on ties: the sum over columns of non-zero Fraction
    population variance of (q - x)**2 / variance."""
    n = len(train)
    dist = [Fraction(0)] * n
    for j, column in enumerate(np.asarray(train, dtype=float).T.tolist()):
        xs = [Fraction(x) for x in column]
        mean = sum(xs) / n
        var = sum((x - mean) ** 2 for x in xs) / n
        if var:
            q = Fraction(float(query[j]))
            for i, x in enumerate(xs):
                dist[i] += (q - x) ** 2 / var
    return sorted(range(n), key=lambda i: (dist[i], i))


def _fraction_quantile(sorted_targets, level):
    """Linear interpolation at rank (k - 1) * level over sorted neighbours."""
    rank = (len(sorted_targets) - 1) * level
    lo = rank.numerator // rank.denominator
    if rank == lo:
        return sorted_targets[lo]
    return sorted_targets[lo] + (rank - lo) * (sorted_targets[lo + 1] - sorted_targets[lo])


def fraction_predict(train, targets, k, levels, queries):
    train_std, query_std = _standardized(train, queries)
    out = []
    for row in query_std:
        neighbours = sorted(frac(targets[i]) for i in _row_ranking(train_std, row)[:k])
        out.append(tuple(_fraction_quantile(neighbours, frac(lv)) for lv in levels))
    return out


def fraction_choose_k(train, plan, train_end_s):
    """The per-k loop: refit, predict and sum Fraction pinball losses per k."""
    val_start = train_end_s - plan.test_span_s
    fit = train.slice_by_time(train.timestamps[0], val_start)
    val = train.slice_by_time(val_start, train_end_s)
    best_k, best_loss = None, None
    for k in plan.k_grid:
        if k > len(fit):
            continue
        rows = fraction_predict(fit.features, exact_targets(fit), k, plan.levels,
                                val.features)
        loss = sum(
            (pinball(lv, actual, pred)
             for actual, row in zip(exact_targets(val), rows)
             for lv, pred in zip(plan.levels, row)),
            Fraction(0),
        )
        if best_loss is None or loss < best_loss:
            best_k, best_loss = k, loss
    return best_k


# Feature values with exact duplicates (exact distance ties) and values whose
# standardized squares land within rounding of each other (near-ties).
GRID = (0.0, 1.0, 2.0, 0.1, 0.2, 0.3, -1.5, 1e-9, 1 / 3)
# Finite values that overflow the standardizer: a column holding them can
# standardize to NaN for some rows, and a query holding them lies an inf
# distance from every row.
HUGE = (1.7e308, -1e308, 1e308, 1e300)
LEVEL_POOL = tuple(
    Fraction(a, b) for b in (2, 3, 4, 10) for a in range(1, b) if math.gcd(a, b) == 1
)
targets_st = st.builds(
    Fraction,
    st.integers(min_value=-5000, max_value=5000),
    st.sampled_from((1, 1, 2, 4, 5, 10, 100, 1000, 3, 7)),
)
levels_st = st.lists(st.sampled_from(LEVEL_POOL), min_size=1, max_size=6, unique=True)


@st.composite
def feature_tables(draw, rows=None, grid=GRID):
    """(train, queries): some rows repeated, some queries equal to a row.

    Up to 7 columns, the widths at which the column-by-column distance sum
    rounds as the oracles' numpy sum over the feature axis does.
    """
    cols = draw(st.integers(min_value=1, max_value=7))
    row = st.lists(st.sampled_from(grid), min_size=cols, max_size=cols)
    if rows is None:
        train = draw(st.lists(row, min_size=1, max_size=10))
        for i in draw(st.lists(st.integers(0, len(train) - 1), max_size=3)):
            train.append(list(train[i]))
    else:
        train = draw(st.lists(row, min_size=rows, max_size=rows))
    queries = draw(st.lists(row, min_size=1, max_size=5))
    for i in draw(st.lists(st.integers(0, len(train) - 1), max_size=2)):
        queries.append(list(train[i]))
    return np.array(train), np.array(queries)


def _levels_reading_every_rank(k):
    """Levels whose interpolated quantiles determine all k sorted neighbours."""
    if k == 1:
        return (Fraction(1, 2),)
    if k == 2:
        return (Fraction(1, 4), Fraction(3, 4))
    return (
        (Fraction(1, 2 * (k - 1)),)
        + tuple(Fraction(j, k - 1) for j in range(1, k - 1))
        + (Fraction(2 * k - 3, 2 * (k - 1)),)
    )


def _sorted_neighbours(row, k):
    """Invert `_levels_reading_every_rank`: the k sorted neighbour targets."""
    if k == 1:
        return list(row)
    if k == 2:
        lo, hi = row
        return [lo - (hi - lo) / 2, hi + (hi - lo) / 2]
    inner = list(row[1:-1])
    return [2 * row[0] - inner[0], *inner, 2 * row[-1] - inner[-1]]


class TestFractionOracles:
    @given(feature_tables(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_predict_matches_fraction_oracle(self, table, data):
        train, queries = table
        targets = data.draw(st.lists(targets_st, min_size=len(train), max_size=len(train)))
        k = data.draw(st.integers(min_value=1, max_value=len(train)))
        levels = data.draw(levels_st)
        model = KnnQuantileForecaster(k, levels).fit(train_matrix(train, targets))
        got = model.predict(queries)
        assert got == fraction_predict(train, targets, k, levels, queries)
        assert all(type(v) is Fraction for row in got for v in row)

    @given(feature_tables())
    @settings(max_examples=100, deadline=None)
    def test_ranking_matches_per_row_stable_argsort(self, table):
        """Every k's neighbour set is the k-prefix of the per-row stable argsort.

        Targets 2**i make each neighbour set readable from its sum; the
        levels of `_levels_reading_every_rank` give back every neighbour.
        """
        train, queries = table
        targets = [Fraction(2**i) for i in range(len(train))]
        train_std, query_std = _standardized(train, queries)
        want = [_row_ranking(train_std, q).tolist() for q in query_std]
        for k in range(1, len(train) + 1):
            model = KnnQuantileForecaster(k, _levels_reading_every_rank(k))
            rows = model.fit(train_matrix(train, targets)).predict(queries)
            for row, ranking in zip(rows, want):
                total = sum(_sorted_neighbours(row, k))
                assert total.denominator == 1
                assert {i for i in range(len(train)) if int(total) >> i & 1} == set(ranking[:k])

    # Row 0 overflows the standardizer: NaN distances beside three finite
    # ties that straddle k = 2, and beside inf distances from a query's 1e300.
    @example((np.array([[1.7e308, 0.0, 0.0], [-1e308, 1.0, 1.0], [-1e308, 1.0, 1.0],
                        [-1e308, 2.0, 0.0], [0.0, 1.0, 1.0]]),
              np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 1e300]])))
    @given(feature_tables(grid=GRID + HUGE))
    @settings(max_examples=150, deadline=None)
    def test_k_prefix_ranking_matches_full_stable_argsort(self, table):
        """_ranking(q, k) is the k-prefix of the full per-row stable argsort
        for every k: with ties across the k-th slot, and inf or NaN distances
        beyond it.  A query whose k-th distance is inf or NaN, all inputs
        being finite, takes the k-prefix of the exact ranking instead."""
        train, queries = table
        exact = [_exact_row_ranking(train, q) for q in queries]
        with np.errstate(over="ignore", invalid="ignore"):
            model = KnnQuantileForecaster(1).fit(train_matrix(train, [0] * len(train)))
            train_std, query_std = _standardized(train, queries)
            dists = [((train_std - q) ** 2).sum(axis=1) for q in query_std]
            floats = [_row_ranking(train_std, q) for q in query_std]
            for k in range(1, len(train) + 1):
                want = [(f if np.isfinite(np.sort(d)[k - 1]) else e)[:k]
                        for d, f, e in zip(dists, floats, exact)]
                assert model._ranking(queries, k).tolist() == [list(w) for w in want]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_overflowing_queries_rank_exactly(self, data):
        """Huge queries over a column of spread near 1e-60 overflow every
        float distance; the ranking is then the exact one, ties to the older
        row, with no overflow warning shown."""
        cols = data.draw(st.integers(min_value=0, max_value=3))
        tiny = st.sampled_from((0.0, 1e-60, 2e-60, -1e-60))
        row = st.lists(st.sampled_from(GRID), min_size=cols, max_size=cols)
        train = [[0.0, *data.draw(row)], [1e-60, *data.draw(row)]]
        train += [[data.draw(tiny), *data.draw(row)]
                  for _ in range(data.draw(st.integers(0, 6)))]
        for i in data.draw(st.lists(st.integers(0, len(train) - 1), max_size=3)):
            train.append(list(train[i]))
        queries = [[data.draw(st.sampled_from((1e100, -1e100, 3e99))), *data.draw(row)]
                   for _ in range(data.draw(st.integers(1, 3)))]
        model = KnnQuantileForecaster(1).fit(train_matrix(train, [0] * len(train)))
        exact = [_exact_row_ranking(train, q) for q in queries]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(1, len(train) + 1):
                assert model._ranking(np.array(queries), k).tolist() == [e[:k] for e in exact]

    @given(feature_tables(rows=32), st.data())
    @settings(max_examples=60, deadline=None)
    def test_choose_k_matches_per_k_fraction_loop(self, table, data):
        train, _ = table
        targets = data.draw(st.lists(targets_st, min_size=32, max_size=32))
        grid = data.draw(st.lists(st.integers(min_value=1, max_value=20),
                                  min_size=1, max_size=5))
        levels = tuple(sorted(data.draw(levels_st)))
        m = FeatureMatrix(
            MarketKind.BM,
            tuple(BASE_EPOCH + i * BM_STEP for i in range(32)),
            tuple(f"f{j}" for j in range(train.shape[1])),
            train,
            *scaled(targets),
        )
        plan = WalkForwardPlan(2 * WINDOW_SPAN, WINDOW_SPAN, WINDOW_SPAN,
                               WINDOW_SPAN, k_grid=tuple(grid), levels=levels)
        end = BASE_EPOCH + 2 * WINDOW_SPAN
        if min(grid) > 16:
            with pytest.raises(InsufficientHistory):
                _choose_k(m, plan, end)
        else:
            assert _choose_k(m, plan, end) == fraction_choose_k(m, plan, end)

    @given(feature_tables(rows=64), st.data())
    @settings(max_examples=30, deadline=None)
    def test_walk_forward_forecasts_are_predict_rows(self, table, data):
        """Each walk-forward forecast is the one built from predict's
        Fraction rows, for the k chosen at the last refit."""
        train, _ = table
        targets = data.draw(st.lists(targets_st, min_size=64, max_size=64))
        grid = data.draw(st.lists(st.integers(min_value=1, max_value=16),
                                  min_size=1, max_size=4))
        levels = tuple(sorted(data.draw(levels_st)))
        m = train_matrix(train, targets)
        plan = WalkForwardPlan(2 * WINDOW_SPAN, WINDOW_SPAN, WINDOW_SPAN,
                               2 * WINDOW_SPAN, k_grid=tuple(grid), levels=levels)
        result = walk_forward(m, plan)
        assert len(result.forecasts) == 2
        for fc in result.forecasts:
            start = fc.window.start_epoch_s
            k = [k for s, k in result.refits if s <= start][-1]
            model = KnnQuantileForecaster(k, levels).fit(
                m.slice_by_time(start - plan.train_span_s, start))
            test = m.slice_by_time(start, start + WINDOW_SPAN)
            assert fc == exact_forecast(fc.window, levels, model.predict(test.features))

    @pytest.mark.parametrize("grid", [(3, 5, 9, 15), (9, 3, 5), (5, 5, 3)])
    def test_choose_k_ties_go_to_the_first_k_of_the_grid(self, grid):
        # constant targets score zero for every k
        m = bm_matrix([25] * 32)
        plan = WalkForwardPlan(2 * WINDOW_SPAN, WINDOW_SPAN, WINDOW_SPAN,
                               WINDOW_SPAN, k_grid=grid)
        end = BASE_EPOCH + 2 * WINDOW_SPAN
        assert _choose_k(m, plan, end) == fraction_choose_k(m, plan, end) == grid[0]

    @given(feature_tables(rows=32), st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_common_factor_in_the_scale_changes_nothing(self, table, data):
        """Targets over any common scale, not only the least, choose and
        predict alike, as they do when a feature CSV mixes decimal places."""
        train, queries = table
        targets = data.draw(st.lists(targets_st, min_size=32, max_size=32))
        factor = data.draw(st.sampled_from((2, 10, 1000)))
        least = train_matrix(train, targets)
        wide = FeatureMatrix(least.market, least.timestamps, least.feature_names,
                             least.features, tuple(t * factor for t in least.targets),
                             least.scale * factor)
        plan = WalkForwardPlan(2 * WINDOW_SPAN, WINDOW_SPAN, WINDOW_SPAN, WINDOW_SPAN)
        end = BASE_EPOCH + 2 * WINDOW_SPAN
        assert _choose_k(wide, plan, end) == _choose_k(least, plan, end)
        model = KnnQuantileForecaster(3)
        assert model.fit(wide).predict(queries) == model.fit(least).predict(queries)


def write_feature_csv(m, path):
    """A feature matrix in the CSV layout `FeatureMatrix.from_csv` reads."""
    lines = ["timestamp," + ",".join(m.feature_names) + ",target"]
    for ts, row, target in zip(m.timestamps, m.features, m.targets):
        feats = ",".join(repr(float(x)) for x in row)
        lines.append(f"{format_timestamp(ts)},{feats},{format_ratio(target, m.scale)}")
    path.write_text("\n".join(lines) + "\n")


class TestFeatureMatrix:
    def test_shape_guards(self):
        with pytest.raises(MalformedRow):
            bm_matrix([1, 2], feature_of=lambda i: (float(i),))  # one name short
        with pytest.raises(MalformedRow):
            FeatureMatrix(
                MarketKind.BM, (BASE_EPOCH,), ("a",), np.array([[1.0]]), (), 1
            )
        for bad in (0, -10):
            with pytest.raises(MalformedRow):
                FeatureMatrix(
                    MarketKind.BM, (BASE_EPOCH,), ("a",), np.array([[1.0]]), (5,), bad
                )

    def test_rows_must_advance_in_time(self):
        with pytest.raises(NonMonotonicTimestamps):
            bm_matrix([1, 2], timestamps=(BASE_EPOCH, BASE_EPOCH))

    def test_slice_by_time(self):
        m = bm_matrix(range(10))
        mid = m.slice_by_time(BASE_EPOCH + 2 * BM_STEP, BASE_EPOCH + 5 * BM_STEP)
        assert (mid.targets, mid.scale) == ((2, 3, 4), 1)
        assert len(m.slice_by_time(0, BASE_EPOCH)) == 0

    @given(st.integers(min_value=0, max_value=12), st.data())
    def test_slice_by_time_matches_row_filter(self, n, data):
        m = bm_matrix(range(n), timestamps=sorted(data.draw(st.sets(
            st.integers(BASE_EPOCH, BASE_EPOCH + 40), min_size=n, max_size=n))))
        start = data.draw(st.integers(BASE_EPOCH - 2, BASE_EPOCH + 42))
        end = data.draw(st.integers(BASE_EPOCH - 2, BASE_EPOCH + 42))
        keep = [i for i, ts in enumerate(m.timestamps) if start <= ts < end]
        got = m.slice_by_time(start, end)
        assert got.timestamps == tuple(m.timestamps[i] for i in keep)
        assert got.targets == tuple(m.targets[i] for i in keep)
        assert got.scale == m.scale
        assert got.features.shape == (len(keep), 2)
        assert np.array_equal(got.features, m.features[keep])
        assert (got.market, got.feature_names) == (m.market, m.feature_names)

    def test_csv_round_trip(self, tmp_path):
        m = bm_matrix([frac("10.5"), frac("-3.25"), 7])
        path = tmp_path / "features.csv"
        write_feature_csv(m, path)
        text = path.read_text()
        assert text.splitlines()[0] == "timestamp,slot,window,target"
        back = FeatureMatrix.from_csv(path, MarketKind.BM)
        assert back.timestamps == m.timestamps
        assert exact_targets(back) == exact_targets(m) == [frac("10.5"), frac("-3.25"), 7]
        assert np.array_equal(back.features, m.features)

    def test_csv_targets_share_one_scale_that_slices_keep(self, tmp_path):
        path = tmp_path / "features.csv"
        cells = ["1.5", "2.25", "3", "-0.125", "4.00"]
        path.write_text("timestamp,a,target\n" + "".join(
            f"{format_timestamp(BASE_EPOCH + i * BM_STEP)},{i},{c}\n"
            for i, c in enumerate(cells)
        ))
        m = FeatureMatrix.from_csv(path, MarketKind.BM)
        # the lcm of the cells' powers of ten, not reduced to the least scale 8
        assert (m.targets, m.scale) == ((1500, 2250, 3000, -125, 4000), 1000)
        assert exact_targets(m) == [Fraction(c) for c in cells]
        head = m.slice_by_time(BASE_EPOCH, BASE_EPOCH + 2 * BM_STEP)
        assert (head.targets, head.scale) == ((1500, 2250), 1000)
        assert m.slice_by_time(0, BASE_EPOCH).scale == 1000

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


    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_feature_names_its_line(self, tmp_path, cell):
        # float() reads these; one of them would turn every distance into NaN
        path = tmp_path / "features.csv"
        path.write_text(
            "timestamp,a,target\n"
            "2024-01-01T00:00:00Z,1,10\n"
            f"2024-01-01T00:30:00Z,{cell},20\n"
            "2024-01-01T01:00:00Z,3,30\n"
        )
        with pytest.raises(MalformedRow) as err:
            FeatureMatrix.from_csv(path, MarketKind.BM)
        assert "line 3" in str(err.value)


    def _one_column(self, path, cells):
        path.write_text("timestamp,a,target\n" + "".join(
            f"{format_timestamp(BASE_EPOCH + i * BM_STEP)},{cell},{i}\n"
            for i, cell in enumerate(cells)
        ))

    def test_huge_feature_names_its_file_and_line(self, tmp_path):
        # this column overflows the mean: row 0 would standardize to NaN
        path = tmp_path / "features.csv"
        self._one_column(path, ["0", "1.7e308", "-1e308", "-1e308", "-1e308", "0"])
        with pytest.raises(MalformedRow) as err:
            FeatureMatrix.from_csv(path, MarketKind.BM)
        assert f"line 3: {path}: " in str(err.value)

    def test_bound_is_inclusive(self, tmp_path):
        path = tmp_path / "features.csv"
        self._one_column(path, ["1e100", "-1e100", "0"])
        assert FeatureMatrix.from_csv(path, MarketKind.BM).features[:, 0].tolist() == [
            1e100, -1e100, 0.0]
        self._one_column(path, ["1e100", "-1.0000000000000002e100", "0"])
        with pytest.raises(MalformedRow, match="line 3"):
            FeatureMatrix.from_csv(path, MarketKind.BM)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.sampled_from([_FEATURE_BOUND, -_FEATURE_BOUND, 0.0, 1.0, 5e99]),
                 min_size=1, max_size=40),
        st.integers(1, 1000),
    )
    def test_columns_within_the_bound_standardize_finitely(self, column, repeat):
        # the derivation bounds |sum| by n * B and the squares by 4 * n * B**2
        features = np.tile(np.array(column)[:, None], (repeat, 1))
        mean, std = _standardizer(features)
        assert np.isfinite(mean).all() and np.isfinite(std).all()
        assert np.isfinite((features[:len(column)] - mean) / std).all()


class TestKnnForecaster:
    def fit3(self, targets=(10, 20, 30), k=3):
        feats = [[0.0], [1.0], [2.0]]
        return KnnQuantileForecaster(k, DEFAULT_LEVELS).fit(train_matrix(feats, targets))

    def test_interpolated_quantiles(self):
        model = KnnQuantileForecaster(3, ("0.5", "0.9")).fit(
            train_matrix([[0.0], [0.0], [0.0]], (10, 20, 30))
        )
        row = model.predict([[0.0]])[0]
        assert row == (Fraction(20), Fraction(28))  # rank 1.8 splits 20..30

    def test_single_neighbour_is_constant_across_levels(self):
        model = KnnQuantileForecaster(1, DEFAULT_LEVELS).fit(train_matrix([[0.0]], ("7.31",)))
        assert set(model.predict([[5.0]])[0]) == {frac("7.31")}

    def test_exact_fraction_arithmetic(self):
        model = KnnQuantileForecaster(2, ("0.25",)).fit(
            train_matrix([[0.0], [0.0]], (Fraction(1, 3), Fraction(2, 3)))
        )
        assert model.predict([[0.0]])[0][0] == Fraction(5, 12)

    def test_distance_ties_prefer_older_rows(self):
        model = KnnQuantileForecaster(1, ("0.5",)).fit(
            train_matrix([[4.0], [4.0]], (111, 222))
        )
        assert model.predict([[4.0]])[0][0] == 111

    def test_standardization_weighs_features_equally(self):
        # raw scale says row 0 is closer; per-feature standardization says row 1
        model = KnnQuantileForecaster(1, ("0.5",)).fit(train_matrix(
            [[0.0, 0.0], [1000.0, 1.0], [2000.0, 2.0], [500.0, 9.0]], (1, 2, 3, 4)
        ))
        assert model.predict([[1100.0, 1.1]])[0][0] == 2

    def test_query_that_overflows_every_distance_ranks_exactly(self):
        # a's spread of 1e-60 standardizes the query's 1e100 past the float
        # range; exactly, rows 1 and 3 lie nearer in a, and row 3 in b
        model = KnnQuantileForecaster(1, ("0.5",)).fit(train_matrix(
            [[0.0, 0.0], [1e-60, 1.0], [0.0, 2.0], [1e-60, 3.0]], (10, 20, 30, 40)
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.predict([[1e100, 2.9]]) == [(Fraction(40),)]
            # a NaN query keeps the float ranking: all NaN, the oldest row first
            assert model.predict([[math.nan, 2.9]]) == [(Fraction(10),)]

    def test_constant_feature_column_is_harmless(self):
        model = KnnQuantileForecaster(1, ("0.5",)).fit(
            train_matrix([[5.0, 1.0], [5.0, 2.0]], (10, 20))
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
        model = KnnQuantileForecaster(k, DEFAULT_LEVELS).fit(train_matrix(feats, targets))
        row = model.predict([[0.0]])[0]
        assert all(a <= b for a, b in zip(row, row[1:]))

    def test_fit_guards(self):
        with pytest.raises(EmptyTrainSet):
            KnnQuantileForecaster(1).fit(train_matrix(np.empty((0, 2)), ()))
        with pytest.raises(MalformedRow):  # the matrix holds one target per row
            train_matrix([[1.0]], (1, 2))
        with pytest.raises(KTooLarge):
            KnnQuantileForecaster(4).fit(train_matrix([[1.0], [2.0]], (1, 2)))
        with pytest.raises(KTooLarge):
            KnnQuantileForecaster(0).fit(train_matrix([[1.0]], (1,)))
        with pytest.raises(EmptyTrainSet):
            KnnQuantileForecaster(1).predict([[1.0]])

    @pytest.mark.parametrize("query", [[[1.0]], [1.0, 2.0, 3.0], [[1.0, 2.0, 3.0, 4.0]],
                                       np.empty((2, 0))])
    def test_query_width_must_match_the_features(self, query):
        # checked before the column-by-column distance loop, whose zip would
        # drop a wide query's extra columns
        model = KnnQuantileForecaster(1).fit(
            train_matrix([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]], (1, 2)))
        with pytest.raises(MalformedRow):
            model.predict(query)


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
            PriceSeries(fc.window, tuple(10 + s for s in range(16)), 1)
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

    def test_empty_training_slice(self):
        # rows fill windows 0-3 and 21-22; the second step tests window 21,
        # and its training span, windows 19-20, holds no row
        ts = [BASE_EPOCH + i * BM_STEP for i in (*range(4 * 16), *range(21 * 16, 23 * 16))]
        m = bm_matrix([1] * len(ts), timestamps=ts)
        plan = self.plan(step_s=19 * WINDOW_SPAN, retune_every_s=100 * WINDOW_SPAN)
        with pytest.raises(EmptyTrainSet, match="^training slice is empty$"):
            walk_forward(m, plan)

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
