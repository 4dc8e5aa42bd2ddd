"""Nearest-neighbour quantile forecasting baseline.

Forecasts a period's price distribution from the target values of its k
closest historical periods in feature space.  Distances are Euclidean over
train-standardized features, in float64, summed one feature column at a
time from left to right.  Each query row ranks only its k nearest training
rows: every row farther than the k-th smallest distance drops out before a
stable sort, so the ranking is the k-prefix of a stable sort of all rows,
and a smaller k reads a prefix of it.  Below 8 features the column sum
rounds as numpy's sum over the feature axis does; from 8 on numpy sums in
pairs, so there the two can break a near-tie differently.  When a query's
k-th float distance is inf or NaN, and the query and every training
feature are finite, that query is ranked in exact integer arithmetic.
Targets are read as integers over one L when the feature CSV is read.  A
quantile at level a/b is read off the sorted neighbour targets by linear
interpolation at rank (k - 1) * a/b, as an integer over b * L.  `fit`
holds the targets as one numpy array, in int64 when no such integer can
overflow it and as Python ints otherwise, so every query's neighbours are
gathered, sorted and interpolated in one array expression.  The
walk-forward forecasts keep those integers; `predict` returns Fractions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from bessarb._numeric import pinball_sum
from bessarb._record import Record
from bessarb.errors import (
    EmptyTrainSet,
    InsufficientHistory,
    KTooLarge,
    MalformedRow,
    MissingPeriod,
    NonMonotonicTimestamps,
    UnknownColumn,
)
from bessarb.market import (
    DEFAULT_LEVELS,
    MarketKind,
    QuantileForecast,
    TradingWindow,
    _coerce_level,
    _read_csv,
    format_timestamp,
)


_FEATURE_BOUND = 1e100  # the largest feature magnitude from_csv takes


class FeatureMatrix(Record):
    """Time-ordered feature rows with exact price targets.

    Target t is targets[t] / scale, integers over one positive scale that
    slices keep.
    """

    __slots__ = ("market", "timestamps", "feature_names", "features", "targets", "scale")

    def __init__(self, market: MarketKind, timestamps: tuple[int, ...],
                 feature_names: tuple[str, ...], features: np.ndarray,
                 targets: tuple[int, ...], scale: int) -> None:
        features = np.asarray(features, dtype=float)
        n = len(timestamps)
        if features.shape != (n, len(feature_names)):
            raise MalformedRow(0, "feature block shape does not match names/rows")
        if len(targets) != n:
            raise MalformedRow(0, "target count does not match rows")
        if scale <= 0:
            raise MalformedRow(0, f"target scale {scale} is not positive")
        for prev, cur in zip(timestamps, timestamps[1:]):
            if cur <= prev:
                raise NonMonotonicTimestamps(
                    f"feature rows out of order at {format_timestamp(cur)}"
                )
        self._set(market, timestamps, feature_names, features, targets, scale)

    def __eq__(self, other):
        # the feature block compares cell by cell, not as one truth value;
        # defining __eq__ leaves the class unhashable, as its array field is
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._key(self), self._key(other))
        )

    def __len__(self) -> int:
        return len(self.timestamps)

    def slice_by_time(self, start_s: int, end_s: int) -> "FeatureMatrix":
        # timestamps strictly increase, so the rows in [start_s, end_s) are a
        # run, and a run of a checked matrix needs no check of its own
        lo = bisect_left(self.timestamps, start_s)
        hi = bisect_left(self.timestamps, end_s)
        run = object.__new__(FeatureMatrix)
        run._set(self.market, self.timestamps[lo:hi], self.feature_names,
                 self.features[lo:hi], self.targets[lo:hi], self.scale)
        return run

    @classmethod
    def from_csv(cls, path: str | Path, market: MarketKind) -> "FeatureMatrix":
        """Read `timestamp,<features...>,target` rows.

        A feature cell must be finite and at most B = _FEATURE_BOUND in
        magnitude, or MalformedRow names its file and line.  Over n rows
        within B, the column sum behind the mean stays within n * B, and
        the variance sums n squares of |x - mean| <= 2B, within 4 * n * B**2.
        With B = 1e100 both stay below the largest float, about 1.8e308, for
        every n below 4e107, more rows than any array can hold: no column
        read here overflows the mean or the std.  The cells are checked
        once every row has parsed, so another fault in the file is named
        first.  A matrix built directly is not checked.  The file is read by
        market._read_csv, as price and forecast files are, and its stamps
        need only increase; a header alone reads as a (0, n) matrix.
        """

        def header(cells, line):
            if len(cells) < 3 or cells[0].lower() != "timestamp" or cells[-1].lower() != "target":
                raise UnknownColumn(f"{path}: expected header timestamp,<features...>,target")
            return tuple(cells[1:-1])

        got = _read_csv(path, market, header, _FEATURE_BOUND)
        names, epochs, floats, (targets,), (scale,) = got
        features = np.array(floats, dtype=float).reshape(len(epochs), len(names))
        return cls(market, tuple(epochs), names, features, tuple(targets), scale)


def _standardizer(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0] = 1.0
    return mean, std


class KnnQuantileForecaster:
    """k-nearest-neighbour empirical quantile estimator."""

    def __init__(self, k: int = 5, levels: Sequence = DEFAULT_LEVELS):
        self.k = k
        self.levels = tuple(_coerce_level(lv) for lv in levels)
        # a/b as (a, b, B // b), B the lcm of the level denominators
        self._level_lcm = math.lcm(*(lv.denominator for lv in self.levels))
        self._level_terms = tuple(
            (lv.numerator, lv.denominator, self._level_lcm // lv.denominator)
            for lv in self.levels
        )

    def fit(self, matrix: FeatureMatrix) -> "KnnQuantileForecaster":
        if len(matrix) == 0:
            raise EmptyTrainSet("no training rows")
        if not 1 <= self.k <= len(matrix):
            raise KTooLarge(f"k={self.k} with {len(matrix)} training rows")
        # a column can overflow its mean or std only in a matrix built directly
        with np.errstate(over="ignore", invalid="ignore"):
            self._mean, self._std = _standardizer(matrix.features)
            self._train = (matrix.features - self._mean) / self._std
        self._fit_finite = bool(np.isfinite(self._mean).all() and np.isfinite(self._std).all())
        self._features = matrix.features
        self._targets, self._scale = _target_array(matrix.targets, self._level_lcm), matrix.scale
        return self

    def _ranking(self, features, k: int) -> np.ndarray:
        """The k training rows nearest each query, nearest first.

        Equal to the first k columns of a stable sort of all rows by
        distance, so older rows come first on distance ties.  Rows farther
        than the k-th smallest distance are set to inf before the sort;
        a NaN distance sorts last, and a NaN k-th distance masks nothing.

        A query whose k-th distance overflows to inf, or is NaN, while it
        and every training feature are finite, is ranked exactly instead
        (_exact_ranking).  A row at an inf float distance is truly farther
        than any row at a finite one, so a finite k-th distance leaves
        nothing for the exact ranking to change.  When the fitted mean or
        std is not finite (a directly built column that overflows its
        standardizer), the standardized rows hold nothing to rank by, so
        every finite query is ranked exactly.  An overflow or an inf minus
        inf lands in such a query or in a row a NaN or inf distance already
        places, so numpy's warning is not shown.
        """
        if not hasattr(self, "_train"):
            raise EmptyTrainSet("fit before predict")
        queries = np.asarray(features, dtype=float)
        width = self._train.shape[1]
        if queries.ndim != 2 or queries.shape[1] != width:
            raise MalformedRow(
                0, f"query block shape {queries.shape} does not hold {width} features per row"
            )
        d2 = np.zeros((len(queries), len(self._train)))
        with np.errstate(over="ignore", invalid="ignore"):
            for q, t in zip(((queries - self._mean) / self._std).T, self._train.T):
                d2 += (t - q[:, None]) ** 2
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        near = np.where(d2 > kth, np.inf, d2)
        ranking = np.argsort(near, axis=1, kind="stable")[:, :k]
        inexact = ~np.isfinite(kth[:, 0]) | (not self._fit_finite)
        if inexact.any() and np.isfinite(self._features).all():
            finite = np.isfinite(queries).all(axis=1)
            for i in np.flatnonzero(inexact & finite):
                ranking[i] = _exact_ranking(self._features, queries[i].tolist(), k)
        return ranking

    def _predict_scaled(self, features) -> tuple[list[list[int]], int]:
        """predict's rows as integers, and the one scale they are over."""
        ranking = self._ranking(features, self.k)
        rows = _interpolate(ranking, self.k, self._targets, self._level_terms)
        return rows.tolist(), self._level_lcm * self._scale

    def predict(self, features) -> list[tuple[Fraction, ...]]:
        rows, den = self._predict_scaled(features)
        return [tuple(Fraction(v, den) for v in row) for row in rows]


def _exact_ranking(features: np.ndarray, query: list[float], k: int) -> list[int]:
    """The k training rows nearest one finite query, in exact arithmetic.

    The squared standardized distance to row x is the sum of (q - x)**2 / var
    over the columns of non-zero population variance var; a zero-variance
    column adds the same to every row, so it is left out.  The sum reads no
    standardized query, so nothing in it overflows.  Ties go to the older row.

    Floats are dyadic.  A column's values are integers X over its largest
    denominator c, and n**2 c**2 var = n*sum(X**2) - sum(X)**2 = V.  Over
    d = max(c, the query's denominator) and s = d / c, the query is an
    integer Q and each term is n**2 (Q - s*X)**2 / (s**2 V).  So the sum,
    times the lcm L of the s**2 V over n**2, is the integer sum of
    (Q - s*X)**2 * L / (s**2 V), and it ranks as the sum does.
    """
    n = len(features)
    terms = []
    for value, column in zip(query, features.T.tolist()):
        ratios = [x.as_integer_ratio() for x in column]
        c = max(b for _, b in ratios)
        xs = [a * (c // b) for a, b in ratios]
        v = n * sum(x * x for x in xs) - sum(xs) ** 2
        if v:
            a, b = value.as_integer_ratio()
            s = max(b, c) // c  # both are powers of two
            q = a * (s * c // b)
            terms.append((s * s * v, [(q - s * x) ** 2 for x in xs]))
    lcm = math.lcm(*(den for den, _ in terms))
    weighted = [(lcm // den, squares) for den, squares in terms]
    dist = [sum(w * squares[i] for w, squares in weighted) for i in range(n)]
    return sorted(range(n), key=dist.__getitem__)[:k]


def _target_array(targets: Sequence[int], lcm: int) -> np.ndarray:
    """The targets for _interpolate: int64 when 3 * max|t| * B < 2**63.

    B is the lcm of the level denominators.  A quantile at a/b is
    (lo * b + rem * (hi - lo)) * (B // b), rem < b, so no partial sum of it
    exceeds 3 * max|t| * B in magnitude; max|t| counts as at least 1, so b
    and B // b fit too.  Past the bound the array holds the Python ints,
    which numpy sorts and adds as objects.
    """
    try:
        array = np.array(targets, dtype=np.int64)
        if 3 * max(int(array.max(initial=1)), -int(array.min(initial=0)), 1) * lcm < 2**63:
            return array
    except OverflowError:
        pass
    return np.array(targets, dtype=object)


def _interpolate(ranking: np.ndarray, k: int, targets: np.ndarray,
                 terms: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """Per ranked query (a row), each level's quantile of its k nearest targets.

    `targets` (_target_array) are integers over L, and `terms` holds
    (a, b, B // b) per level a/b, B the lcm of the level denominators.  Rank
    (k - 1) * a/b splits into lo + rem/b, so each quantile is an integer
    over B * L.
    """
    nb = np.sort(targets[ranking[:, :k]], axis=1)
    columns = []
    for a, b, w in terms:
        lo, rem = divmod((k - 1) * a, b)
        value = nb[:, lo] * b
        if rem:
            value += rem * (nb[:, lo + 1] - nb[:, lo])
        columns.append(value * w)
    return np.stack(columns, axis=1)


class WalkForwardPlan(Record):
    """Rolling evaluation recipe over a feature matrix."""

    __slots__ = ("train_span_s", "test_span_s", "step_s", "retune_every_s", "k_grid", "levels")

    def __init__(self, train_span_s: int, test_span_s: int, step_s: int,
                 retune_every_s: int, k_grid: tuple[int, ...] = (3, 5, 9, 15),
                 levels: tuple = DEFAULT_LEVELS) -> None:
        if min(train_span_s, test_span_s, step_s) <= 0:
            raise InsufficientHistory("plan spans must be positive")
        if retune_every_s <= 0:
            raise InsufficientHistory("retune interval must be positive")
        if not k_grid or min(k_grid) < 1:
            raise KTooLarge("k grid must hold positive candidates")
        self._set(train_span_s, test_span_s, step_s, retune_every_s, k_grid, levels)


class WalkForwardResult(Record):
    # refits: (test window start, chosen k) of each refit
    __slots__ = ("forecasts", "refits")

    def __init__(self, forecasts: tuple[QuantileForecast, ...],
                 refits: tuple[tuple[int, int], ...]) -> None:
        self._set(forecasts, refits)


def _choose_k(train: FeatureMatrix, plan: WalkForwardPlan, train_end_s: int) -> int:
    """First k of the grid with the least pinball loss on the train slice's tail.

    The validation rows are ranked once, to the largest k; each k takes its
    neighbours from the prefix of that ranking.  Every k's loss is an
    integer over one common denominator, so the losses compare as integers.
    """
    val_start = train_end_s - plan.test_span_s
    fit = train.slice_by_time(train.timestamps[0], val_start)
    val = train.slice_by_time(val_start, train_end_s)
    if len(fit) == 0 or len(val) == 0:
        raise InsufficientHistory("train slice too short to hold a validation tail")
    ks = [k for k in plan.k_grid if k <= len(fit)]
    if not ks:
        raise InsufficientHistory(
            f"no k in {plan.k_grid} fits {len(fit)} training rows"
        )
    model = KnnQuantileForecaster(max(ks), plan.levels).fit(fit)
    ranking = model._ranking(val.features, model.k)
    # both slices keep the train slice's scale L; quantiles are over B * L
    actual = [y * model._level_lcm for y in val.targets]
    best_k, best_loss = None, None
    for k in ks:
        columns = _interpolate(ranking, k, model._targets, model._level_terms).T.tolist()
        loss = sum(
            w * pinball_sum(a, b, actual, col)
            for (a, b, w), col in zip(model._level_terms, columns)
        )
        if best_loss is None or loss < best_loss:
            best_k, best_loss = k, loss
    return best_k


def walk_forward(
    matrix: FeatureMatrix, plan: WalkForwardPlan
) -> WalkForwardResult:
    """Roll a train/test split forward, refitting k on a fixed cadence.

    Each step trains on the trailing span, forecasts the next test span, and
    moves on.  k is chosen on the last test-span of the training slice and
    kept until the retune interval has elapsed.  Test spans must line up
    into whole trading windows.
    """
    if len(matrix) == 0:
        raise EmptyTrainSet("empty feature matrix")
    market = matrix.market
    per_window, step = market.periods_per_window, market.period_seconds
    window_span = per_window * step
    if plan.test_span_s % window_span:
        raise InsufficientHistory(
            "test span must be a whole number of trading windows"
        )
    test_start = matrix.timestamps[0] + plan.train_span_s
    horizon_end = matrix.timestamps[-1] + step
    forecasts: list[QuantileForecast] = []
    refits: list[tuple[int, int]] = []
    chosen_k: int | None = None
    last_tune: int | None = None
    while test_start + plan.test_span_s <= horizon_end:
        train = matrix.slice_by_time(test_start - plan.train_span_s, test_start)
        test = matrix.slice_by_time(test_start, test_start + plan.test_span_s)
        if len(train) == 0:
            raise EmptyTrainSet("training slice is empty")
        if test.timestamps != tuple(range(test_start, test_start + plan.test_span_s, step)):
            raise MissingPeriod(
                f"test rows from {format_timestamp(test_start)} do not fill "
                f"{plan.test_span_s // window_span} whole windows"
            )
        if chosen_k is None or test_start - last_tune >= plan.retune_every_s:
            chosen_k = _choose_k(train, plan, test_start)
            last_tune = test_start
            refits.append((test_start, chosen_k))
        model = KnnQuantileForecaster(chosen_k, plan.levels).fit(train)
        scaled, scale = model._predict_scaled(test.features)
        for i in range(0, len(scaled), per_window):
            window = TradingWindow(market, test_start + i * step, per_window)
            block = scaled[i:i + per_window]
            forecasts.append(QuantileForecast(window, model.levels, block, scale))
        test_start += plan.step_s
    if not forecasts:
        raise InsufficientHistory(
            "matrix too short for one train span plus one test span"
        )
    return WalkForwardResult(tuple(forecasts), tuple(refits))
