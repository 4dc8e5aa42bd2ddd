"""Pair selection, clipped execution and the four scheduling strategies."""

import pickle
from collections import deque
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bessarb.battery import (
    BatterySpec,
    BatteryState,
    replay,
    unit_trading_spec,
)
from bessarb.errors import ConfigError, InvalidPair, LevelMissing, WindowMismatch
from bessarb.evaluation import settle
from bessarb.market import (
    BASE_EPOCH,
    Horizon,
    MarketKind,
    QuantileForecast,
    TradingWindow,
    build_dual_horizon,
    generate_synthetic,
)
from bessarb.strategies import (
    _curves,
    _emit,
    _scan_ordered,
    _scan_unordered,
    _ts3_legs,
    DEFAULT_PAIRS,
    MEDIAN_PAIR,
    CandidatePair,
    QuantilePair,
    Schedule,
    Side,
    TradeOrder,
    bottleneck_execute,
    schedule_to_dict,
    ts1,
    ts2,
    ts3,
    ts3_dual,
    write_schedule_csv,
)

from conftest import (
    exact_forecast, flat_forecast, frac, make_forecast, make_prices, merged_events,
)

UNIT = unit_trading_spec()

price_curves = st.lists(
    st.integers(min_value=1, max_value=99), min_size=2, max_size=12
)


def _fraction_scan_ordered(buy_curve, sell_curve, spec, lo, hi):
    """Reference scan on exact fractions: best buy-before-sell pair, ungated.

    The integer scan runs the same single pass, and returns the pair only
    when its spread is positive.
    """
    if hi - lo < 1:
        return None
    best = None
    cheap_t, cheap_price = lo, buy_curve[lo]
    for t in range(lo + 1, hi + 1):
        cand = CandidatePair.of(spec, cheap_t, t, cheap_price, sell_curve[t])
        if best is None or cand.expected_spread > best.expected_spread:
            best = cand
        if buy_curve[t] < cheap_price:
            cheap_t, cheap_price = t, buy_curve[t]
    return best


def _fraction_curves(fc, pair):
    """The pair's buy and sell curves of the sorted rows, as exact prices."""
    rows = [sorted(row) for row in fc.values]
    i_buy, i_sell = fc.levels.index(pair.buy_level), fc.levels.index(pair.sell_level)
    return [row[i_buy] for row in rows], [row[i_sell] for row in rows]


def _fraction_scan_unordered(buy_curve, sell_curve, spec, lo, hi):
    """Reference scan on exact fractions: cheapest buy, dearest sell, gated."""
    if hi - lo < 1:
        return None
    span = range(lo, hi + 1)
    t_buy = min(span, key=lambda t: (buy_curve[t], t))
    t_sell = max(span, key=lambda t: (sell_curve[t], -t))
    if t_buy == t_sell:
        return None
    cand = CandidatePair.of(spec, t_buy, t_sell, buy_curve[t_buy], sell_curve[t_sell])
    return cand if cand.expected_spread > 0 else None


efficiencies = st.integers(min_value=1, max_value=60).flatmap(
    lambda den: st.integers(min_value=1, max_value=den).map(lambda num: Fraction(num, den))
)
# few distinct magnitudes, so equal prices (ties) are common
decimal_prices = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([1, 10, 100, 1000, 4, 8]),
)


@st.composite
def scan_problems(draw):
    """(forecast, pair, spec, lo, hi) with crossed rows, mixed denominators."""
    n = draw(st.integers(min_value=1, max_value=10))
    rows = draw(st.lists(
        st.tuples(decimal_prices, decimal_prices, decimal_prices),
        min_size=n, max_size=n,
    ))
    levels = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
    window = TradingWindow(MarketKind.BM, BASE_EPOCH, n)
    fc = exact_forecast(window, levels, rows)
    sell_level = draw(st.sampled_from(levels))
    buy_level = draw(st.sampled_from([lv for lv in levels if lv >= sell_level]))
    spec = BatterySpec(1000, 1000, 0, 0, draw(efficiencies), draw(efficiencies))
    lo = draw(st.integers(min_value=0, max_value=n - 1))
    hi = draw(st.integers(min_value=lo, max_value=n - 1))
    return fc, QuantilePair(sell_level, buy_level), spec, lo, hi


def _merged_index(horizon):
    return {event: i for i, event in enumerate(merged_events(*horizon.windows))}


def _joint_trades(horizon, dam_schedule, bm_schedule):
    index = _merged_index(horizon)
    trades = []
    for order in dam_schedule.orders:
        trades.append((index[(MarketKind.DAM, order.period)], order.signed_ticks))
    for order in bm_schedule.orders:
        trades.append((index[(MarketKind.BM, order.period)], order.signed_ticks))
    return trades


class TestQuantilePair:
    def test_coerces_and_orders(self):
        pair = QuantilePair("0.3", "0.7")
        assert pair.sell_level == Fraction(3, 10)
        assert pair.buy_level == Fraction(7, 10)
        assert pair.label == "0.3-0.7"

    def test_sell_above_buy_rejected(self):
        with pytest.raises(InvalidPair):
            QuantilePair("0.7", "0.3")

    @pytest.mark.parametrize("bad", ["0", "1", "-0.1", "1.5"])
    def test_levels_must_be_interior(self, bad):
        with pytest.raises(InvalidPair):
            QuantilePair(bad, bad)

    def test_parse(self):
        pair = QuantilePair.parse("0.1:0.9")
        assert (pair.sell_level, pair.buy_level) == (Fraction(1, 10), Fraction(9, 10))

    @pytest.mark.parametrize("text", ["0.5", "a:b", "0.5:0.7:0.9"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(InvalidPair):
            QuantilePair.parse(text)

    def test_default_pair_set(self):
        assert MEDIAN_PAIR in DEFAULT_PAIRS
        assert len(DEFAULT_PAIRS) == 7
        assert len(set(DEFAULT_PAIRS)) == 7


class TestSchedule:
    def _win(self, n=4):
        return TradingWindow(MarketKind.BM, BASE_EPOCH, n)

    def test_orders_must_ascend(self):
        orders = (
            TradeOrder(2, Side.BUY, 100, Fraction(10)),
            TradeOrder(1, Side.SELL, 100, Fraction(20)),
        )
        with pytest.raises(WindowMismatch):
            Schedule(self._win(), "TS3", MEDIAN_PAIR, orders)

    def test_zero_volume_rejected(self):
        orders = (TradeOrder(0, Side.BUY, 0, Fraction(10)),)
        with pytest.raises(WindowMismatch):
            Schedule(self._win(), "TS3", MEDIAN_PAIR, orders)

    def test_period_must_fit_window(self):
        orders = (TradeOrder(4, Side.BUY, 100, Fraction(10)),)
        with pytest.raises(WindowMismatch):
            Schedule(self._win(4), "TS3", MEDIAN_PAIR, orders)

    def test_ts1_must_alternate(self):
        orders = (
            TradeOrder(0, Side.BUY, 100, Fraction(10)),
            TradeOrder(1, Side.BUY, 100, Fraction(10)),
        )
        with pytest.raises(WindowMismatch):
            Schedule(self._win(), "TS1", MEDIAN_PAIR, orders)
        # the same orders are fine for the work-list strategy
        Schedule(self._win(), "TS3", MEDIAN_PAIR, orders)

    @pytest.mark.parametrize("strategy, orders, message", [
        ("TS3", [(4, Side.BUY, 100)], "order period 4 outside window"),
        ("TS3", [(-1, Side.BUY, 100)], "order period -1 outside window"),
        ("TS3", [(1, Side.BUY, 100), (1, Side.SELL, 100)],
         "orders must have strictly ascending periods"),
        ("TS3", [(0, Side.SELL, 0)], "orders must have positive volume"),
        ("TS3", [(0, Side.BUY, -100)], "orders must have positive volume"),
        ("TS1", [(0, Side.SELL, 100), (1, Side.BUY, 100)], "TS1 orders must alternate buy/sell"),
        ("TS2", [(0, Side.BUY, 100), (1, Side.SELL, 100), (2, Side.SELL, 100)],
         "TS2 orders must alternate buy/sell"),
        # the window checks run over every order before the alternation check
        ("TS1", [(0, Side.SELL, 100), (4, Side.BUY, 100)], "order period 4 outside window"),
    ])
    def test_messages(self, strategy, orders, message):
        orders = tuple(TradeOrder(p, side, ticks, Fraction(10)) for p, side, ticks in orders)
        with pytest.raises(WindowMismatch) as err:
            Schedule(self._win(4), strategy, MEDIAN_PAIR, orders)
        assert str(err.value) == message

    def test_expected_cash(self):
        orders = (
            TradeOrder(0, Side.BUY, 1000, Fraction(10)),
            TradeOrder(1, Side.SELL, 1000, Fraction(50)),
        )
        sched = Schedule(self._win(), "TS1", MEDIAN_PAIR, orders)
        # settled at its decision prices, a schedule earns its expected cash
        at_expected = make_prices([10, 50, 0, 0])
        assert settle(sched, at_expected, UNIT).cash == Fraction(1460, 49)
        assert sched.trade_count == 2


def _ordered(fc, pair=MEDIAN_PAIR, lo=0, hi=None):
    """The (buy, sell) _scan_ordered finds in [lo, hi], the whole window by default."""
    hi = fc.window.period_count - 1 if hi is None else hi
    return _scan_ordered(_curves(fc, pair, UNIT.cash_weights()), lo, hi)


def _unordered(fc, pair=MEDIAN_PAIR, lo=0, hi=None):
    """The (buy, sell) _scan_unordered finds in [lo, hi], the whole window by default."""
    hi = fc.window.period_count - 1 if hi is None else hi
    return _scan_unordered(_curves(fc, pair, UNIT.cash_weights()), lo, hi)


def _priced(schedule):
    return [(o.period, o.side, o.expected_price) for o in schedule.orders]


class TestBestOrderedPair:
    """The best buy-before-sell pair, as _scan_ordered finds it for TS1 and TS2."""

    def test_reference_example(self):
        fc = make_forecast(
            {"0.3": [20, 10, 40, 30], "0.7": [22, 12, 42, 33]}
        )
        pair = QuantilePair("0.3", "0.7")
        assert _ordered(fc, pair) == (1, 2)
        assert _priced(ts1(fc, pair, UNIT)) == [
            (1, Side.BUY, Fraction(12)),
            (2, Side.SELL, Fraction(40)),
        ]

    def test_none_when_no_positive_spread(self):
        fc = flat_forecast([50, 40, 30, 20])
        assert _ordered(fc) is None
        assert ts1(fc, MEDIAN_PAIR, UNIT).orders == ()

    def test_none_on_short_range(self):
        assert _ordered(flat_forecast([10])) is None
        assert _ordered(flat_forecast([10, 50, 20]), lo=1, hi=1) is None

    def test_subrange_restricts_search(self):
        fc = flat_forecast([1, 99, 30, 10, 45])
        assert _ordered(fc, lo=2, hi=4) == (3, 4)

    def test_ties_prefer_earliest_buy_then_sell(self):
        fc = flat_forecast([10, 50, 10, 50])
        assert _ordered(fc) == (0, 1)
        assert [o.period for o in ts1(fc, MEDIAN_PAIR, UNIT).orders] == [0, 1]

    def test_crossed_rows_are_repaired_first(self):
        # raw rows are level-crossed; repair sorts them before pricing
        fc = make_forecast({"0.3": [25, 45], "0.7": [20, 40]})
        assert _priced(ts1(fc, QuantilePair("0.3", "0.7"), UNIT)) == [
            (0, Side.BUY, Fraction(25)),  # upper level after repair
            (1, Side.SELL, Fraction(40)),
        ]

    def test_missing_level_raises(self):
        fc = flat_forecast([10, 50], levels=("0.5",))
        with pytest.raises(LevelMissing):
            ts1(fc, QuantilePair("0.5", "0.9"), UNIT)

    @given(price_curves)
    def test_matches_brute_force(self, curve):
        found = _ordered(flat_forecast(curve))
        best = None
        for i in range(len(curve)):
            for j in range(i + 1, len(curve)):
                spread = (
                    UNIT.discharge_eff * frac(curve[j])
                    - frac(curve[i]) / UNIT.charge_eff
                )
                if best is None or spread > best[0]:
                    best = (spread, i, j)
        if best is None or best[0] <= 0:
            assert found is None
        else:
            assert found == best[1:]


class TestBestUnorderedPair:
    """The cheapest-buy / dearest-sell pair, as _scan_unordered finds it for TS3."""

    def test_reference_example(self):
        fc = flat_forecast([30, 30, 50, 30, 30, 10])
        assert _unordered(fc) == (5, 2)
        # the sell comes first, from an empty battery: only a stock buy trades
        assert ts3(fc, MEDIAN_PAIR, UNIT).orders == ()
        assert _priced(ts3(fc, MEDIAN_PAIR, UNIT, allow_stock_buys=True)) == [
            (5, Side.BUY, Fraction(10)),
        ]

    def test_constant_curve_gives_none(self):
        fc = flat_forecast([30] * 5)
        assert _unordered(fc) is None
        assert ts3(fc, MEDIAN_PAIR, UNIT, allow_stock_buys=True).orders == ()

    def test_extremes_on_same_period_give_none(self):
        # cheapest buy and dearest sell both at period 2
        fc = make_forecast({"0.5": [5, 5, 9, 5], "0.7": [6, 6, 1, 6]})
        assert _unordered(fc, QuantilePair("0.5", "0.7")) is None

    def test_nonpositive_spread_gives_none(self):
        assert _unordered(flat_forecast([30, 31])) is None

    def test_short_range_gives_none(self):
        assert _unordered(flat_forecast([10])) is None

    @given(price_curves)
    def test_matches_argmin_argmax(self, curve):
        found = _unordered(flat_forecast(curve))
        t_buy = min(range(len(curve)), key=lambda t: (curve[t], t))
        t_sell = max(range(len(curve)), key=lambda t: (curve[t], -t))
        spread = (
            UNIT.discharge_eff * frac(curve[t_sell])
            - frac(curve[t_buy]) / UNIT.charge_eff
        )
        if t_buy == t_sell or spread <= 0:
            assert found is None
        else:
            assert found == (t_buy, t_sell)


class TestIntegerScans:
    """The integer scans equal the exact-fraction reference scans."""

    @given(scan_problems())
    @settings(max_examples=300)
    def test_ordered_scan_matches_fraction_oracle(self, problem):
        fc, pair, spec, lo, hi = problem
        curves = _curves(fc, pair, spec.cash_weights())
        want = _fraction_scan_ordered(*_fraction_curves(fc, pair), spec, lo, hi)
        if want is not None and want.expected_spread <= 0:
            want = None
        found = _scan_ordered(curves, lo, hi)
        if want is None:
            assert found is None
        else:
            assert found == (want.buy_period, want.sell_period)
            assert Fraction(curves.buy[found[0]], fc.scale) == want.buy_price
            assert Fraction(curves.sell[found[1]], fc.scale) == want.sell_price

    @given(scan_problems())
    @settings(max_examples=300)
    def test_unordered_scan_matches_fraction_oracle(self, problem):
        fc, pair, spec, lo, hi = problem
        curves = _curves(fc, pair, spec.cash_weights())
        want = _fraction_scan_unordered(*_fraction_curves(fc, pair), spec, lo, hi)
        found = _scan_unordered(curves, lo, hi)
        if want is None:
            assert found is None
        else:
            assert found == (want.buy_period, want.sell_period)
            assert Fraction(curves.buy[found[0]], fc.scale) == want.buy_price
            assert Fraction(curves.sell[found[1]], fc.scale) == want.sell_price

    def test_zero_spread_is_not_traded(self):
        # 0.8 * 1000 == 784 / 0.98: the spread is exactly zero
        assert _ordered(flat_forecast([784, 1000])) is None
        assert _unordered(flat_forecast([1000, 784])) is None
        assert ts3(flat_forecast([1000, 784]), MEDIAN_PAIR, UNIT).orders == ()
        assert ts1(flat_forecast([784, 1000]), MEDIAN_PAIR, UNIT).orders == ()

    def test_scans_read_the_repaired_rows(self):
        # rows are level-crossed; the scans see them sorted, orders keep
        # the exact repaired prices
        fc = make_forecast({"0.3": ["25.5", "45", "9"], "0.7": ["20", "40.25", "30"]})
        repaired = QuantileForecast(
            fc.window, fc.levels, [sorted(row) for row in fc.scaled], fc.scale
        )
        assert repaired != fc
        pair = QuantilePair("0.3", "0.7")
        for strategy in (ts1, ts2, ts3):
            assert strategy(fc, pair, UNIT).orders == strategy(repaired, pair, UNIT).orders
        assert [(o.period, o.side, o.expected_price) for o in ts1(fc, pair, UNIT).orders] == [
            (0, Side.BUY, Fraction("25.5")),
            (1, Side.SELL, Fraction("40.25")),
        ]
        # the forecast itself is not changed
        assert fc.values[0] == (Fraction("25.5"), Fraction(20))

    def test_repaired_curve_is_exact_and_scaled(self):
        fc = make_forecast({"0.3": ["1.5", "-2", "0.125"], "0.7": ["1", "3", "0.25"]})
        scaled = fc.repaired_curve("0.7")
        assert fc.scale == 8  # L = lcm(2, 8)
        prices = tuple(Fraction(n, fc.scale) for n in scaled)
        assert prices == (Fraction("1.5"), Fraction(3), Fraction("0.25"))
        with pytest.raises(LevelMissing):
            fc.repaired_curve("0.9")


class TestForecastReuse:
    """A forecast's repaired curves are computed once and shared safely."""

    def _forecasts(self, market):
        """Noisy forecasts with every third row level-crossed."""
        _, forecasts = generate_synthetic(11, market, days=2, noise_sd=6)
        return [
            QuantileForecast(fc.window, fc.levels, [
                row[::-1] if t % 3 == 0 else row for t, row in enumerate(fc.scaled)
            ], fc.scale)
            for fc in forecasts
        ]

    @staticmethod
    def _fresh(fc):
        return QuantileForecast(fc.window, fc.levels, fc.scaled, fc.scale)

    def test_shared_object_matches_fresh_copies(self):
        runs = (
            lambda fc, pair: ts1(fc, pair, UNIT),
            lambda fc, pair: ts2(fc, pair, UNIT),
            lambda fc, pair: ts3(fc, pair, UNIT),
            lambda fc, pair: ts3(fc, pair, UNIT, allow_stock_buys=True),
        )
        shared = self._forecasts(MarketKind.BM)
        assert all(any(list(row) != sorted(row) for row in fc.scaled) for fc in shared)
        for pair in DEFAULT_PAIRS:
            for run in runs:
                for fc in shared:
                    assert run(fc, pair) == run(self._fresh(fc), pair)

    def test_shared_dual_forecasts_match_fresh_copies(self):
        dam, bm = self._forecasts(MarketKind.DAM)[0], self._forecasts(MarketKind.BM)[0]
        horizon = build_dual_horizon(dam.window, bm.window)
        for pair in DEFAULT_PAIRS:
            got = ts3_dual(horizon, dam, bm, pair, UNIT)
            want = ts3_dual(horizon, self._fresh(dam), self._fresh(bm), pair, UNIT)
            assert got == want

    def test_prepared_forecast_keeps_equality_hash_and_pickling(self):
        fc = self._forecasts(MarketKind.BM)[0]
        fresh = self._fresh(fc)
        ts3(fc, DEFAULT_PAIRS[1], UNIT)
        assert fc == fresh and hash(fc) == hash(fresh)
        assert repr(fc) == repr(fresh)
        copy = pickle.loads(pickle.dumps(fc))
        assert copy == fc
        assert ts3(copy, DEFAULT_PAIRS[2], UNIT) == ts3(fresh, DEFAULT_PAIRS[2], UNIT)


def _independent_clip(buy_first, charge, spec):
    """Reference sizing of one two-leg trade from `charge`: (buy, sell, end
    charge), each leg clipped on its own to the ramp, the capacity and the
    floor, the earlier leg first."""
    if buy_first:
        x_buy = min(spec.ramp, spec.capacity - charge)
        charge += x_buy
        x_sell = min(spec.ramp, charge - spec.min_charge)
        charge -= x_sell
    else:
        x_sell = min(spec.ramp, charge - spec.min_charge)
        charge -= x_sell
        x_buy = min(spec.ramp, spec.capacity - charge)
        charge += x_buy
    return x_buy, x_sell, charge


class TestBottleneckExecute:
    def test_charge_then_discharge_from_empty(self):
        cand = CandidatePair.of(UNIT, 2, 5, Fraction(10), Fraction(50))
        buy, sell, state = bottleneck_execute(cand, BatteryState(0), UNIT)
        assert buy == TradeOrder(2, Side.BUY, 1000, Fraction(10))
        assert sell == TradeOrder(5, Side.SELL, 1000, Fraction(50))
        assert state.charge == 0

    def test_discharge_first_from_empty_stocks_energy(self):
        cand = CandidatePair.of(UNIT, 5, 2, Fraction(10), Fraction(50))
        buy, sell, state = bottleneck_execute(cand, BatteryState(0), UNIT)
        assert sell is None  # nothing to discharge yet
        assert buy == TradeOrder(5, Side.BUY, 1000, Fraction(10))
        assert state.charge == 1000

    def test_charge_first_when_full_only_sells(self):
        cand = CandidatePair.of(UNIT, 2, 5, Fraction(10), Fraction(50))
        buy, sell, state = bottleneck_execute(cand, BatteryState(1000), UNIT)
        assert buy is None
        assert sell == TradeOrder(5, Side.SELL, 1000, Fraction(50))
        assert state.charge == 0

    def test_legs_clip_independently(self):
        spec = BatterySpec.from_mwh("3", "2", min_charge_mwh="1")
        cand = CandidatePair.of(spec, 0, 1, Fraction(10), Fraction(50))
        buy, sell, state = bottleneck_execute(cand, BatteryState(2500), spec)
        assert buy.volume_ticks == 500  # headroom-limited
        assert sell.volume_ticks == 2000  # ramp-limited
        assert state.charge == 1000

    def test_same_period_rejected(self):
        cand = CandidatePair.of(UNIT, 3, 3, Fraction(10), Fraction(50))
        with pytest.raises(InvalidPair):
            bottleneck_execute(cand, BatteryState(0), UNIT)

    @given(
        st.integers(min_value=0, max_value=3000),
        st.booleans(),
    )
    def test_resulting_state_always_in_bounds(self, charge, buy_first):
        spec = BatterySpec.from_mwh("3", "2", min_charge_mwh="0.5")
        charge = max(charge, spec.min_charge)
        periods = (0, 1) if buy_first else (1, 0)
        cand = CandidatePair.of(spec, *periods, Fraction(10), Fraction(50))
        buy, sell, state = bottleneck_execute(cand, BatteryState(charge), spec)
        assert spec.min_charge <= state.charge <= spec.capacity
        for order in (buy, sell):
            if order is not None:
                assert 0 < order.volume_ticks <= spec.ramp


    @given(st.data())
    def test_matches_independent_clip(self, data):
        capacity = data.draw(st.integers(min_value=1, max_value=12), label="capacity")
        floor = data.draw(st.integers(min_value=0, max_value=capacity), label="floor")
        charge = data.draw(st.integers(min_value=floor, max_value=capacity), label="charge")
        ramp = data.draw(st.integers(min_value=1, max_value=15), label="ramp")
        buy_first = data.draw(st.booleans(), label="buy first")
        spec = BatterySpec(capacity, ramp, floor, floor, Fraction(49, 50), Fraction(4, 5))
        periods = (3, 7) if buy_first else (7, 3)
        cand = CandidatePair.of(spec, *periods, Fraction(10), Fraction(50))
        x_buy, x_sell, end = _independent_clip(buy_first, charge, spec)
        buy, sell, state = bottleneck_execute(cand, BatteryState(charge), spec)
        assert buy == (TradeOrder(cand.buy_period, Side.BUY, x_buy, Fraction(10))
                       if x_buy > 0 else None)
        assert sell == (TradeOrder(cand.sell_period, Side.SELL, x_sell, Fraction(50))
                        if x_sell > 0 else None)
        assert state == BatteryState(end)


class TestTs1:
    def test_single_pair_full_volume(self):
        sched = ts1(flat_forecast([30, 10, 50, 20]), MEDIAN_PAIR, UNIT)
        assert [(o.period, o.side, o.volume_ticks) for o in sched.orders] == [
            (1, Side.BUY, 1000),
            (2, Side.SELL, 1000),
        ]
        assert sched.strategy == "TS1"

    def test_empty_on_decreasing_prices(self):
        sched = ts1(flat_forecast([50, 40, 30, 20, 10]), MEDIAN_PAIR, UNIT)
        assert sched.orders == ()

    def test_volume_respects_initial_charge(self):
        spec = replace(BatterySpec.from_mwh("2", "2"), initial_charge=1500)
        sched = ts1(flat_forecast([10, 50]), MEDIAN_PAIR, spec)
        assert sched.orders[0].volume_ticks == 500

    def test_initial_charge_out_of_range(self):
        with pytest.raises(ConfigError):
            ts1(flat_forecast([10, 50]), MEDIAN_PAIR, replace(UNIT, initial_charge=2000))

    @given(price_curves, st.integers(min_value=1, max_value=20))
    def test_scaling_prices_never_moves_the_pair(self, curve, scale):
        base = ts1(flat_forecast(curve), MEDIAN_PAIR, UNIT)
        scaled = ts1(
            flat_forecast([v * scale for v in curve]), MEDIAN_PAIR, UNIT
        )
        assert [(o.period, o.side) for o in base.orders] == [
            (o.period, o.side) for o in scaled.orders
        ]

    @given(price_curves)
    def test_deterministic(self, curve):
        fc = flat_forecast(curve)
        assert ts1(fc, MEDIAN_PAIR, UNIT) == ts1(fc, MEDIAN_PAIR, UNIT)


class TestTs2:
    def test_reference_example_two_pairs(self):
        sched = ts2(flat_forecast([5, 30, 4, 28]), MEDIAN_PAIR, UNIT)
        assert [(o.period, o.side) for o in sched.orders] == [
            (0, Side.BUY),
            (1, Side.SELL),
            (2, Side.BUY),
            (3, Side.SELL),
        ]
        assert all(o.volume_ticks == 1000 for o in sched.orders)

    def test_empty_on_decreasing_prices(self):
        sched = ts2(flat_forecast([90, 70, 50, 30]), MEDIAN_PAIR, UNIT)
        assert sched.orders == ()

    def test_never_recurses_into_pair_interior(self):
        # the best pair spans the whole window; the interior dip is skipped
        sched = ts2(flat_forecast([1, 60, 2, 70]), MEDIAN_PAIR, UNIT)
        assert [(o.period, o.side) for o in sched.orders] == [
            (0, Side.BUY),
            (3, Side.SELL),
        ]

    @given(price_curves)
    def test_contains_ts1_choice(self, curve):
        fc = flat_forecast(curve)
        first = ts1(fc, MEDIAN_PAIR, UNIT)
        stacked = ts2(fc, MEDIAN_PAIR, UNIT)
        assert set(first.orders) <= set(stacked.orders)

    @given(price_curves)
    def test_pairs_alternate_and_replay(self, curve):
        sched = ts2(flat_forecast(curve), MEDIAN_PAIR, UNIT)
        sides = [o.side for o in sched.orders]
        assert sides == [Side.BUY, Side.SELL] * (len(sides) // 2)
        final = replay([(o.period, o.signed_ticks) for o in sched.orders], UNIT)
        assert final.charge == UNIT.initial_charge


class TestTs3:
    def test_reference_trace(self):
        sched = ts3(flat_forecast([50, 10, 45, 8, 60]), MEDIAN_PAIR, UNIT)
        assert [(o.period, o.side, o.volume_ticks) for o in sched.orders] == [
            (3, Side.BUY, 1000),
            (4, Side.SELL, 1000),
        ]

    def test_reference_trace_unchanged_by_stock_flag(self):
        # the flip candidate in [0, 2] cannot stock: capacity is reserved
        # for the (3, 4) pair from period 3 onward
        fc = flat_forecast([50, 10, 45, 8, 60])
        sched = ts3(fc, MEDIAN_PAIR, UNIT, allow_stock_buys=True)
        assert [(o.period, o.side) for o in sched.orders] == [
            (3, Side.BUY),
            (4, Side.SELL),
        ]

    def test_flip_candidate_is_silent_from_the_floor(self):
        # dearest sell precedes cheapest buy and the battery starts empty
        sched = ts3(flat_forecast([5, 30, 4, 28]), MEDIAN_PAIR, UNIT)
        assert sched.orders == ()

    def test_stock_flag_buys_without_selling(self):
        sched = ts3(
            flat_forecast([5, 30, 4, 28]), MEDIAN_PAIR, UNIT, allow_stock_buys=True
        )
        assert [(o.period, o.side) for o in sched.orders] == [(2, Side.BUY)]

    def test_stocked_buy_feeds_later_pair(self):
        curve = [50, 8, 45, 7, 44]
        sched = ts3(flat_forecast(curve), MEDIAN_PAIR, UNIT, allow_stock_buys=True)
        assert [(o.period, o.side) for o in sched.orders] == [
            (1, Side.BUY),
            (2, Side.SELL),
            (3, Side.BUY),
        ]
        final = replay([(o.period, o.signed_ticks) for o in sched.orders], UNIT)
        assert final.charge == 1000

    def test_nonpositive_ranges_are_dropped_whole(self):
        sched = ts3(flat_forecast([50, 45, 40, 35]), MEDIAN_PAIR, UNIT)
        assert sched.orders == ()

    @given(price_curves, st.booleans(), st.integers(min_value=0, max_value=1000))
    def test_schedules_always_replay(self, curve, allow, initial):
        spec = replace(UNIT, initial_charge=initial)
        sched = ts3(flat_forecast(curve), MEDIAN_PAIR, spec, allow_stock_buys=allow)
        trades = [(o.period, o.signed_ticks) for o in sched.orders]
        final = replay(trades, spec)
        assert 0 <= final.charge <= UNIT.capacity

    @given(price_curves)
    def test_at_most_one_order_per_period(self, curve):
        sched = ts3(flat_forecast(curve), MEDIAN_PAIR, UNIT)
        periods = [o.period for o in sched.orders]
        assert len(periods) == len(set(periods))


class _DequeTimeline:
    """TS3's charge timeline before it ran on a plain list: a committed
    trajectory with one query per headroom.  Part of an oracle."""

    def __init__(self, spec, n_slots):
        self.spec = spec
        self.n_slots = n_slots
        self._path = [spec.initial_charge] * n_slots

    def max_buy_between(self, slot, end):
        segment = self._path[slot:end] if end > slot else self._path[slot:slot + 1]
        return min(self.spec.ramp, self.spec.capacity - max(segment))

    def max_buy_from(self, slot):
        return min(self.spec.ramp, self.spec.capacity - max(self._path[slot:]))

    def max_sell_from(self, slot):
        return min(self.spec.ramp, min(self._path[slot:]) - self.spec.min_charge)

    def commit(self, slot, signed_ticks):
        path = self._path
        for i in range(slot, self.n_slots):
            path[i] += signed_ticks


def _timeline_execute_pair(timeline, i_buy, i_sell, allow_stock_buys):
    if i_buy < i_sell:
        x_buy = timeline.max_buy_between(i_buy, i_sell)
        timeline.commit(i_buy, x_buy)
        x_sell = timeline.max_sell_from(i_sell)
        timeline.commit(i_sell, -x_sell)
        return x_buy, x_sell
    x_sell = timeline.max_sell_from(i_sell)
    if x_sell == 0 and not allow_stock_buys:
        return 0, 0
    timeline.commit(i_sell, -x_sell)
    x_buy = timeline.max_buy_from(i_buy)
    timeline.commit(i_buy, x_buy)
    return x_buy, x_sell


def _deque_worklist(timeline, curves, lo, hi, instants, legs, allow_stock_buys):
    work = deque()
    if lo <= hi:
        work.append((lo, hi))
    while work:
        a, b = work.popleft()
        found = _scan_unordered(curves, a, b)
        if found is None:
            continue
        t_buy, t_sell = found
        x_buy, x_sell = _timeline_execute_pair(
            timeline, instants[t_buy], instants[t_sell], allow_stock_buys
        )
        _emit(legs, t_buy, x_buy, t_sell, x_sell)
        first, second = min(t_buy, t_sell), max(t_buy, t_sell)
        work.append((a, first - 1))
        work.append((first + 1, second - 1))
        work.append((second + 1, b))


def _deque_ts3_legs(horizon, forecasts, pair, spec, allow_stock_buys):
    """TS3 as it ran on a deque of ranges and a timeline object: an oracle."""
    timeline = _DequeTimeline(spec, len(horizon.events))
    runs = [
        (_curves(forecast, pair, spec.cash_weights()), instants, [])
        for forecast, instants in zip(forecasts, horizon.instants)
    ]
    last = len(runs) - 1
    ranges = [(last, 0, horizon.windows[last].period_count - 1)]
    if last:
        dam, bm = horizon.windows
        curves, instants, legs = runs[0]
        anchor = _scan_unordered(curves, 0, dam.period_count - 1)
        if anchor is not None:
            t_buy, t_sell = anchor
            x_buy, x_sell = _timeline_execute_pair(
                timeline, instants[t_buy], instants[t_sell], allow_stock_buys
            )
            _emit(legs, t_buy, x_buy, t_sell, x_sell)
        if legs:
            lo, hi = sorted(anchor)
            r = dam.market.period_seconds // bm.market.period_seconds
            n = bm.period_count
            ranges = [
                (1, 0, min(lo * r, n) - 1),
                (1, (hi + 1) * r, n - 1),
                (0, lo + 1, hi - 1),
            ]
    for w, lo, hi in ranges:
        curves, instants, legs = runs[w]
        _deque_worklist(timeline, curves, lo, hi, instants, legs, allow_stock_buys)
    return tuple(tuple(sorted(legs)) for _, _, legs in runs)


_LEVELS = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))


def _drawn_forecast(draw, window):
    """Three levels, rows possibly crossed, few distinct values: many ties."""
    rows = draw(st.lists(
        st.tuples(*[st.integers(min_value=-5, max_value=40)] * 3),
        min_size=window.period_count, max_size=window.period_count,
    ))
    return QuantileForecast(window, _LEVELS, rows, draw(st.sampled_from([1, 3, 100])))


class TestTs3Kernel:
    """_ts3_legs, on a plain charge path and a list of ranges, returns the
    legs of the deque-and-timeline work list it replaced."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_deque_and_timeline_worklist(self, data):
        draw = data.draw
        market = draw(st.sampled_from(["DAM", "BM", "DAM+BM"]), label="market")
        hours = draw(st.integers(min_value=1, max_value=24), label="hours")
        # a balancing window ends inside its day-ahead window: two slots an hour
        slots = draw(st.integers(min_value=1, max_value=min(16, 2 * hours)), label="slots")
        windows = []
        if market != "BM":
            windows.append(TradingWindow(MarketKind.DAM, BASE_EPOCH, hours))
        if market != "DAM":
            windows.append(TradingWindow(MarketKind.BM, BASE_EPOCH, slots))
        horizon = build_dual_horizon(*windows) if len(windows) > 1 else Horizon(tuple(windows))
        forecasts = tuple(_drawn_forecast(draw, w) for w in windows)
        ramp = draw(st.integers(min_value=1, max_value=1500), label="ramp")
        floor = draw(st.integers(min_value=0, max_value=2000), label="floor")
        capacity = floor + draw(st.integers(min_value=1, max_value=4000), label="span")
        initial = draw(st.integers(min_value=floor, max_value=capacity), label="start")
        spec = BatterySpec(capacity, ramp, floor, initial, draw(efficiencies), draw(efficiencies))
        sell = draw(st.sampled_from(_LEVELS), label="sell level")
        pair = QuantilePair(sell, draw(st.sampled_from([lv for lv in _LEVELS if lv >= sell])))
        allow = draw(st.booleans(), label="allow stock buys")
        want = _deque_ts3_legs(horizon, forecasts, pair, spec, allow)
        curves = [_curves(f, pair, spec.cash_weights()) for f in forecasts]
        assert _ts3_legs(horizon, curves, spec, allow) == want


class TestTs3Dual:
    def _setup(self, dam_curve, bm_curve, spec, **kwargs):
        dam_fc = flat_forecast(dam_curve, market=MarketKind.DAM)
        bm_fc = flat_forecast(bm_curve, market=MarketKind.BM)
        horizon = build_dual_horizon(dam_fc.window, bm_fc.window)
        return horizon, ts3_dual(horizon, dam_fc, bm_fc, MEDIAN_PAIR, spec, **kwargs)

    def test_balancing_trades_only_outside_the_anchor_span(self):
        spec = BatterySpec.from_mwh("2", "1")
        dam = [50] * 24
        dam[3], dam[6] = 10, 90  # anchor spans hours 3..6
        bm = [40] * 16
        bm[1], bm[2] = 5, 48  # early-segment pair (slots 0..5)
        bm[8], bm[11] = 4, 47  # inside the span: must stay untouched
        bm[14], bm[15] = 6, 49  # late-segment pair (slots 14..15)
        horizon, (dam_sched, bm_sched) = self._setup(dam, bm, spec)
        assert [(o.period, o.side) for o in dam_sched.orders] == [
            (3, Side.BUY),
            (6, Side.SELL),
        ]
        assert [(o.period, o.side) for o in bm_sched.orders] == [
            (1, Side.BUY),
            (2, Side.SELL),
            (14, Side.BUY),
            (15, Side.SELL),
        ]

    def test_span_edges_bound_the_balancing_ranges(self):
        # anchor hours 3..6: slots 0..5 close before it, 14..15 open after it
        spec = BatterySpec.from_mwh("2", "1")
        dam = [50] * 24
        dam[3], dam[6] = 10, 90
        bm = [40] * 16
        bm[4], bm[5] = 5, 48  # last pair before the span
        bm[6], bm[13] = 95, 3  # first and last slot inside it
        bm[14], bm[15] = 6, 49  # first pair after it
        _, (dam_sched, bm_sched) = self._setup(dam, bm, spec)
        assert [o.period for o in dam_sched.orders] == [3, 6]
        assert [(o.period, o.side) for o in bm_sched.orders] == [
            (4, Side.BUY),
            (5, Side.SELL),
            (14, Side.BUY),
            (15, Side.SELL),
        ]

    def test_late_anchor_span_frees_all_balancing_slots(self):
        spec = BatterySpec.from_mwh("2", "1")
        dam = [50] * 24
        dam[10], dam[14] = 10, 90  # all 16 slots close before hour 10
        bm = [40] * 16
        bm[8], bm[11] = 4, 47
        _, (dam_sched, bm_sched) = self._setup(dam, bm, spec)
        assert [(o.period, o.side) for o in dam_sched.orders] == [
            (10, Side.BUY),
            (14, Side.SELL),
        ]
        assert [(o.period, o.side) for o in bm_sched.orders] == [
            (8, Side.BUY),
            (11, Side.SELL),
        ]

    def test_no_dam_candidate_trades_balancing_alone(self):
        bm = [40] * 16
        bm[5], bm[9] = 4, 47
        horizon, (dam_sched, bm_sched) = self._setup([50] * 24, bm, UNIT)
        assert dam_sched.orders == ()
        standalone = ts3(flat_forecast(bm, market=MarketKind.BM), MEDIAN_PAIR, UNIT)
        assert bm_sched.orders == standalone.orders

    def test_zero_volume_anchor_counts_as_no_pair(self):
        dam = [50] * 24
        dam[2], dam[20] = 90, 10  # sell-first anchor, battery at the floor
        bm = [40] * 16
        bm[5], bm[9] = 4, 47
        _, (dam_sched, bm_sched) = self._setup(dam, bm, UNIT)
        assert dam_sched.orders == ()
        assert [(o.period, o.side) for o in bm_sched.orders] == [
            (5, Side.BUY),
            (9, Side.SELL),
        ]

    @pytest.mark.parametrize("dam, bm, start, want_dam, want_bm", [
        # balancing slots before the span trade first: had slots 6..7 gone
        # first, their sell would leave the sell at slot 0 no stock
        ([82, 37, 88, 44, 64, 88], [25, 21, 48, 72, 46, 92, 57, 51], "1",
         [(1, 1000), (2, -1000)], [(0, -1000), (1, 1000), (6, -1000), (7, 1000)]),
        # the hours inside the span trade last: the sell at slot 3 takes the
        # stock that a sell at hour 3 would have needed
        ([76, 80, 1, 14, 4, 88], [12, 3, 22, 65, 5, 62, 7, 25], "2",
         [(5, -1000)], [(3, -1000)]),
    ])
    def test_ranges_trade_in_order(self, dam, bm, start, want_dam, want_bm):
        spec = BatterySpec.from_mwh("2", "1", "0", "1", "1", start)
        _, (dam_sched, bm_sched) = self._setup(dam, bm, spec)
        assert [(o.period, o.signed_ticks) for o in dam_sched.orders] == want_dam
        assert [(o.period, o.signed_ticks) for o in bm_sched.orders] == want_bm

    def test_forecast_window_mismatch_rejected(self):
        dam_fc = flat_forecast([50] * 24, market=MarketKind.DAM)
        bm_fc = flat_forecast([40] * 16, market=MarketKind.BM)
        horizon = build_dual_horizon(dam_fc.window, bm_fc.window)
        shifted = flat_forecast(
            [40] * 16, market=MarketKind.BM, start=BASE_EPOCH + 1800
        )
        with pytest.raises(WindowMismatch):
            ts3_dual(horizon, dam_fc, shifted, MEDIAN_PAIR, UNIT)

    @pytest.mark.parametrize("window", ["dam", "bm"])
    def test_one_window_horizon_rejected(self, window):
        # a window mismatch, not a failed unpacking of the horizon
        fcs = {
            "dam": flat_forecast([50] * 24, market=MarketKind.DAM),
            "bm": flat_forecast([40] * 16, market=MarketKind.BM),
        }
        horizon = Horizon((fcs[window].window,))
        with pytest.raises(WindowMismatch) as err:
            ts3_dual(horizon, fcs["dam"], fcs["bm"], MEDIAN_PAIR, UNIT)
        assert str(err.value) == "forecast windows do not match the horizon"

    @given(
        st.lists(st.integers(min_value=1, max_value=99), min_size=6, max_size=6),
        st.lists(st.integers(min_value=1, max_value=99), min_size=8, max_size=8),
        st.booleans(),
    )
    @settings(max_examples=60)
    def test_joint_schedules_always_replay(self, dam_curve, bm_curve, allow):
        dam_fc = flat_forecast(dam_curve, market=MarketKind.DAM)
        bm_fc = flat_forecast(bm_curve, market=MarketKind.BM)
        horizon = build_dual_horizon(dam_fc.window, bm_fc.window)
        dam_sched, bm_sched = ts3_dual(
            horizon, dam_fc, bm_fc, MEDIAN_PAIR, UNIT, allow_stock_buys=allow
        )
        final = replay(_joint_trades(horizon, dam_sched, bm_sched), UNIT)
        assert 0 <= final.charge <= UNIT.capacity


class TestSerialization:
    def _schedule(self):
        return ts1(flat_forecast([30, 10, 50, 20]), MEDIAN_PAIR, UNIT)

    def test_rows(self, tmp_path):
        path = tmp_path / "sched.csv"
        write_schedule_csv(path, self._schedule())
        assert path.read_text() == (
            "period_index,timestamp,side,volume_mwh,expected_price\n"
            "1,2024-01-01T00:30:00Z,buy,1,10\n"
            "2,2024-01-01T01:00:00Z,sell,1,50\n"
        )

    def test_csv_layout(self, tmp_path):
        # a schedule without orders is its header line alone
        path = tmp_path / "sched.csv"
        write_schedule_csv(path, ts1(flat_forecast([50, 10]), MEDIAN_PAIR, UNIT))
        assert path.read_text() == (
            "period_index,timestamp,side,volume_mwh,expected_price\n"
        )

    def test_dict_with_digest(self):
        doc = schedule_to_dict(self._schedule(), UNIT)
        assert doc["strategy"] == "TS1"
        assert doc["pair"] == "0.5-0.5"
        assert doc["orders"][0]["side"] == "buy"
        assert doc["battery_digest"] == UNIT.digest()

    def test_dict_without_spec_has_no_digest(self):
        doc = schedule_to_dict(self._schedule())
        assert "battery_digest" not in doc
