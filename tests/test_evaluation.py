"""Settlement, perfect-foresight and DP benchmarks, scoring and sweeps."""

import json
import math
import multiprocessing
import pickle
import random
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bessarb import errors, evaluation, strategies
from bessarb._numeric import ticks_to_mwh
from bessarb.battery import (
    BatterySpec,
    BatteryState,
    apply_trade,
    replay,
    unit_trading_spec,
)
from bessarb.errors import (
    CapacityViolation,
    ConfigError,
    FloorViolation,
    LevelOutOfRange,
    NonCommensurateRamp,
    RampViolation,
    WindowMismatch,
)
from bessarb.evaluation import (
    STRATEGY_NAMES,
    BacktestReport,
    SettleResult,
    degenerate_forecast,
    dp_optimal,
    dp_optimal_dual,
    dp_unit,
    dual_units,
    perfect_foresight,
    perfect_foresight_dual,
    pf_unit,
    pinball,
    run_sweep,
    score_forecasts,
    settle,
    settle_dual,
    trade_unit,
    window_units,
    write_plot_csv,
    write_report_csv,
    write_report_json,
)
from bessarb.market import (
    BASE_EPOCH,
    DEFAULT_LEVELS,
    Horizon,
    MarketKind,
    PriceSeries,
    QuantileForecast,
    TradingWindow,
    build_dual_horizon,
    generate_synthetic,
)
from bessarb.strategies import (
    MEDIAN_PAIR,
    QuantilePair,
    Schedule,
    Side,
    TradeOrder,
    ts1,
    ts2,
    ts3,
    ts3_dual,
)

from conftest import exact_forecast, flat_forecast, frac, make_prices, merged_events, scaled

UNIT = unit_trading_spec()

price_curves = st.lists(
    st.integers(min_value=1, max_value=99), min_size=2, max_size=10
)


def _schedule(window, orders, strategy="TS3"):
    return Schedule(window, strategy, MEDIAN_PAIR, tuple(orders))


class TestSettle:
    def test_reference_cash(self):
        actuals = make_prices([10, 20, 30, 50])
        sched = _schedule(
            actuals.window,
            [
                TradeOrder(0, Side.BUY, 1000, Fraction(10)),
                TradeOrder(3, Side.SELL, 1000, Fraction(50)),
            ],
        )
        result = settle(sched, actuals, UNIT)
        assert result.cash == Fraction(1460, 49)  # 29.79592 to five decimals
        assert result.final_charge == 0

    def test_empty_schedule_is_zero(self):
        actuals = make_prices([10, 20])
        sched = _schedule(actuals.window, [])
        assert settle(sched, actuals, UNIT).cash == 0

    def test_bad_forecast_pays_negative(self):
        actuals = make_prices([50, 10])
        sched = _schedule(
            actuals.window,
            [
                TradeOrder(0, Side.BUY, 1000, Fraction(10)),
                TradeOrder(1, Side.SELL, 1000, Fraction(45)),
            ],
        )
        assert settle(sched, actuals, UNIT).cash == Fraction(-2108, 49)  # -43.0204

    def test_settles_at_actual_not_expected_prices(self):
        actuals = make_prices([12, 52])
        sched = _schedule(
            actuals.window,
            [
                TradeOrder(0, Side.BUY, 1000, Fraction(99)),
                TradeOrder(1, Side.SELL, 1000, Fraction(1)),
            ],
        )
        expected = Fraction("0.8") * 52 - Fraction(12) / Fraction("0.98")
        assert settle(sched, actuals, UNIT).cash == expected

    def test_window_mismatch(self):
        actuals = make_prices([10, 20])
        other = make_prices([10, 20], start=BASE_EPOCH + 1800)
        sched = _schedule(other.window, [])
        with pytest.raises(WindowMismatch):
            settle(sched, actuals, UNIT)

    def test_infeasible_schedule_raises(self):
        actuals = make_prices([10, 20])
        sched = _schedule(
            actuals.window, [TradeOrder(0, Side.SELL, 1000, Fraction(10))]
        )
        with pytest.raises(FloorViolation):
            settle(sched, actuals, UNIT)

    def test_initial_charge_bounds(self):
        actuals = make_prices([10, 20])
        sched = _schedule(actuals.window, [])
        with pytest.raises(ConfigError):
            settle(sched, actuals, replace(UNIT, initial_charge=1500))

    def test_side_given_as_text(self):
        # "buy" is a buy: it charges the battery and is paid as one
        order = TradeOrder(0, "buy", 500, Fraction(10))
        assert order.side is Side.BUY
        bm = TradingWindow(MarketKind.BM, BASE_EPOCH, 16)
        result = settle(_schedule(bm, [order]), make_prices([10] * 16), _BOUNDED)
        assert result.final_charge == 1500
        assert result.cash == Fraction(-250, 49)

    def test_unknown_side_raises(self):
        with pytest.raises(ValueError):
            TradeOrder(0, "hold", 500, Fraction(10))


# (legs as (market, period, signed ticks), violation, apply_trade's message)
# on a 2 MWh battery with a 0.5 MWh ramp and floor, starting at 1 MWh
_VIOLATIONS = [
    ([("BM", 2, 501)], RampViolation, "|501| ticks exceeds ramp 500"),
    ([("DAM", 0, -500), ("BM", 3, -501)], RampViolation, "|-501| ticks exceeds ramp 500"),
    ([("DAM", 0, 500), ("BM", 2, 500), ("BM", 3, -501)], RampViolation,
     "|-501| ticks exceeds ramp 500"),
    ([("DAM", 0, 500), ("BM", 2, 500), ("BM", 3, 1)], CapacityViolation,
     "charge 2001 exceeds capacity 2000"),
    ([("DAM", 0, -500), ("BM", 2, -1)], FloorViolation, "charge 499 below floor 500"),
    ([("BM", 0, 300), ("DAM", 1, -500), ("BM", 3, -301)], FloorViolation,
     "charge 499 below floor 500"),
]
_BOUNDED = BatterySpec.from_mwh("2", "0.5", "0.5", initial_charge_mwh="1")
# the bounded battery with efficiencies, and so cash weights, not the unit's
_EFFICIENT = BatterySpec.from_mwh("2", "0.5", "0.5", charge_eff="0.9", discharge_eff="0.95",
                                  initial_charge_mwh="1")


def _orders(legs, market):
    return [
        TradeOrder(period, Side.BUY if signed > 0 else Side.SELL, abs(signed), Fraction(1))
        for m, period, signed in legs if m == market
    ]


class TestSettleViolations:
    """A schedule that breaks a bound raises apply_trade's named violation,
    with its message, through settle and settle_dual alike."""

    @pytest.mark.parametrize("legs, error, message", _VIOLATIONS)
    def test_settle(self, legs, error, message):
        # every leg on the balancing window, in period order
        bm = TradingWindow(MarketKind.BM, BASE_EPOCH, 16)
        legs = [("BM", 2 * i, signed) for i, (_, _, signed) in enumerate(legs)]
        with pytest.raises(error) as err:
            settle(_schedule(bm, _orders(legs, "BM")), make_prices([10] * 16), _BOUNDED)
        assert type(err.value) is error
        assert str(err.value) == message

    @pytest.mark.parametrize("legs, error, message", _VIOLATIONS)
    def test_settle_dual(self, legs, error, message):
        # hour 1 trades after slots 0-1 and before slots 2-3
        dam = TradingWindow(MarketKind.DAM, BASE_EPOCH, 24)
        bm = TradingWindow(MarketKind.BM, BASE_EPOCH, 16)
        with pytest.raises(error) as err:
            settle_dual(
                _schedule(dam, _orders(legs, "DAM")), _schedule(bm, _orders(legs, "BM")),
                make_prices([10] * 24, market=MarketKind.DAM), make_prices([10] * 16),
                _BOUNDED,
            )
        assert type(err.value) is error
        assert str(err.value) == message

    def test_bounds_are_inclusive(self):
        # a full ramp to the capacity, then a full ramp to the floor and back
        bm = TradingWindow(MarketKind.BM, BASE_EPOCH, 16)
        legs = [("BM", 0, 500), ("BM", 1, 500), ("BM", 2, -500), ("BM", 3, -500),
                ("BM", 4, -500), ("BM", 5, 500)]
        result = settle(_schedule(bm, _orders(legs, "BM")), make_prices([10] * 16), _BOUNDED)
        assert result.final_charge == 1000


class TestSettleDual:
    def _windows(self):
        dam = TradingWindow(MarketKind.DAM, BASE_EPOCH, 24)
        bm = TradingWindow(MarketKind.BM, BASE_EPOCH, 16)
        return dam, bm

    def test_cross_market_round_trip(self):
        dam, bm = self._windows()
        dam_prices = make_prices([10] * 24, market=MarketKind.DAM)
        bm_prices = make_prices([50] * 16, market=MarketKind.BM)
        dam_sched = _schedule(dam, [TradeOrder(0, Side.BUY, 1000, Fraction(10))])
        bm_sched = _schedule(bm, [TradeOrder(3, Side.SELL, 1000, Fraction(50))])
        result = settle_dual(dam_sched, bm_sched, dam_prices, bm_prices, UNIT)
        assert result.cash == Fraction(1460, 49)
        assert result.final_charge == 0

    @pytest.mark.parametrize("late, message", [
        (MarketKind.DAM, "day-ahead schedule and prices differ"),
        (MarketKind.BM, "balancing schedule and prices differ"),
    ])
    def test_schedules_and_prices_share_windows(self, late, message):
        dam, bm = self._windows()
        prices = [
            make_prices([10] * w.period_count, market=w.market,
                        start=BASE_EPOCH + 86400 * (w.market is late))
            for w in (dam, bm)
        ]
        with pytest.raises(WindowMismatch, match=f"^{message}$"):
            settle_dual(_schedule(dam, []), _schedule(bm, []), *prices, UNIT)

    def test_wall_clock_order_is_enforced(self):
        dam, bm = self._windows()
        dam_prices = make_prices([10] * 24, market=MarketKind.DAM)
        bm_prices = make_prices([50] * 16, market=MarketKind.BM)
        # balancing slot 0 trades before day-ahead hour 1: selling first
        # from an empty battery must fail even though both legs balance
        dam_sched = _schedule(dam, [TradeOrder(1, Side.BUY, 1000, Fraction(10))])
        bm_sched = _schedule(bm, [TradeOrder(0, Side.SELL, 1000, Fraction(50))])
        with pytest.raises(FloorViolation):
            settle_dual(dam_sched, bm_sched, dam_prices, bm_prices, UNIT)


def _leg_cash(spec, side, price, mwh):
    if side is Side.SELL:
        return spec.discharge_eff * price * mwh
    return -price * mwh / spec.charge_eff


def _fraction_settle(events, spec):
    """Settle (order, exact price) events leg by leg in Fractions: an oracle."""
    state = BatteryState(spec.initial_charge)
    cash = Fraction(0)
    for order, price in events:
        state = apply_trade(state, spec, order.signed_ticks)
        cash += _leg_cash(spec, order.side, price, ticks_to_mwh(order.volume_ticks))
    return SettleResult(cash, state.charge)


@st.composite
def batteries(draw):
    """Any battery, with efficiencies drawn from (0, 1]."""
    ramp = draw(st.integers(min_value=1, max_value=1500))
    floor = draw(st.integers(min_value=0, max_value=2000))
    capacity = floor + draw(st.integers(min_value=1, max_value=4000))
    initial = draw(st.integers(min_value=floor, max_value=capacity))
    return BatterySpec(
        capacity, ramp, floor, initial, draw(efficiencies), draw(efficiencies)
    )


def _series(draw, window, label):
    """Prices of one window over a scale drawn from a few."""
    den = draw(st.sampled_from([1, 3, 8, 100, 1000]), label=f"{label} scale")
    units = draw(st.lists(st.integers(-10**6, 10**6), min_size=window.period_count,
                          max_size=window.period_count), label=f"{label} prices")
    return PriceSeries(window, units, den)


def _clipped_orders(draw, spec, slots):
    """{slot: order} from one signed volume drawn per slot.

    Slots come in wall-clock order, and each volume is clipped to the
    battery bounds, so the schedule replays cleanly.
    """
    charge, orders = spec.initial_charge, {}
    for slot in slots:
        want = draw(st.integers(-spec.ramp, spec.ramp), label="volume")
        ticks = max(spec.min_charge - charge, min(spec.capacity - charge, want))
        if ticks:
            side = Side.BUY if ticks > 0 else Side.SELL
            orders[slot] = TradeOrder(slot[1], side, abs(ticks), Fraction(0))
        charge += ticks
    return orders


class TestSettleOracle:
    """Integer settlement equals the leg-by-leg Fraction sum."""

    @given(batteries(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_settle_matches_fraction_legs(self, spec, data):
        window = TradingWindow(MarketKind.DAM, BASE_EPOCH, 24)
        actuals = _series(data.draw, window, "DAM")
        orders = _clipped_orders(data.draw, spec, [("DAM", t) for t in range(24)])
        sched = _schedule(window, [orders[k] for k in sorted(orders)])
        want = _fraction_settle(
            [(o, actuals.prices[o.period]) for o in sched.orders], spec
        )
        assert settle(sched, actuals, spec) == want

    @given(batteries(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_settle_dual_matches_fraction_legs(self, spec, data):
        dam = TradingWindow(MarketKind.DAM, BASE_EPOCH, 24)
        bm = TradingWindow(MarketKind.BM, BASE_EPOCH, 16)
        dam_ps = _series(data.draw, dam, "DAM")
        bm_ps = _series(data.draw, bm, "BM")
        events = [(m.value, p) for m, p in merged_events(dam, bm)]
        orders = _clipped_orders(data.draw, spec, events)
        prices = {"DAM": dam_ps.prices, "BM": bm_ps.prices}
        want = _fraction_settle(
            [(orders[k], prices[k[0]][k[1]]) for k in events if k in orders], spec
        )
        dam_sched = _schedule(dam, [o for k, o in sorted(orders.items()) if k[0] == "DAM"])
        bm_sched = _schedule(bm, [o for k, o in sorted(orders.items()) if k[0] == "BM"])
        assert settle_dual(dam_sched, bm_sched, dam_ps, bm_ps, spec) == want

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_dual_dp_matches_fraction_dp_over_two_scales(self, data):
        dam = TradingWindow(MarketKind.DAM, BASE_EPOCH, 24)
        bm = TradingWindow(MarketKind.BM, BASE_EPOCH, 16)
        horizon = build_dual_horizon(dam, bm)
        dam_ps = _series(data.draw, dam, "DAM")
        bm_ps = _series(data.draw, bm, "BM")
        spec = BatterySpec.from_mwh("3", "1", charge_eff="0.9", discharge_eff="0.85")
        merged = [
            (dam_ps if m is MarketKind.DAM else bm_ps).prices[p]
            for m, p in merged_events(dam, bm)
        ]
        assert dp_optimal_dual(horizon, dam_ps, bm_ps, spec) == (
            _fraction_dp(merged, spec, spec.initial_charge)
        )


class TestPerfectForesight:
    def test_two_period_reference(self):
        actuals = make_prices([10, 50])
        assert perfect_foresight(actuals, UNIT, "TS3") == Fraction(1460, 49)

    def test_monotone_increasing_ts1_buys_first_sells_last(self):
        actuals = make_prices([10, 20, 30, 40, 50])
        sched = ts1(degenerate_forecast(actuals), MEDIAN_PAIR, UNIT)
        assert [(o.period, o.side) for o in sched.orders] == [
            (0, Side.BUY),
            (4, Side.SELL),
        ]

    @pytest.mark.parametrize("strategy", ["TS1", "TS2", "TS3"])
    def test_consistency_with_direct_run(self, strategy):
        actuals, _ = generate_synthetic(3, MarketKind.BM, noise_sd=2)
        runner = {"TS1": ts1, "TS2": ts2, "TS3": ts3}[strategy]
        for ps in actuals:
            sched = runner(degenerate_forecast(ps), MEDIAN_PAIR, UNIT)
            assert perfect_foresight(ps, UNIT, strategy) == settle(sched, ps, UNIT).cash

    def test_unknown_strategy(self):
        actuals = make_prices([10, 50])
        with pytest.raises(ConfigError):
            perfect_foresight(actuals, UNIT, "TS9")

    def test_degenerate_forecast_levels(self):
        actuals = make_prices([10, 50])
        fc = degenerate_forecast(actuals, DEFAULT_LEVELS)
        assert fc.levels == DEFAULT_LEVELS
        for row, price in zip(fc.values, actuals.prices):
            assert row == (price,) * len(DEFAULT_LEVELS)


def _brute_lattice_best(prices, spec, initial):
    """Enumerate every lattice dispatch path; exponential, tiny inputs only."""
    steps = (spec.capacity - spec.min_charge) // spec.ramp
    ramp_mwh = ticks_to_mwh(spec.ramp)
    best = Fraction(0)

    def rec(t, k, cash):
        nonlocal best
        if t == len(prices):
            best = max(best, cash)
            return
        price = frac(prices[t])
        rec(t + 1, k, cash)
        if k < steps:
            rec(t + 1, k + 1, cash - price * ramp_mwh / spec.charge_eff)
        if k > 0:
            rec(t + 1, k - 1, cash + spec.discharge_eff * price * ramp_mwh)

    rec(0, (initial - spec.min_charge) // spec.ramp, Fraction(0))
    return best


def _fraction_dp(prices, spec, initial):
    """The ramp-lattice recursion in plain Fraction arithmetic: an oracle."""
    steps = (spec.capacity - spec.min_charge) // spec.ramp
    ramp_mwh = ticks_to_mwh(spec.ramp)
    value = [Fraction(0)] * (steps + 1)
    for price in reversed(prices):
        buy_cost = price * ramp_mwh / spec.charge_eff
        sell_gain = spec.discharge_eff * price * ramp_mwh
        nxt = []
        for k in range(steps + 1):
            best = value[k]
            if k < steps and value[k + 1] - buy_cost > best:
                best = value[k + 1] - buy_cost
            if k > 0 and value[k - 1] + sell_gain > best:
                best = value[k - 1] + sell_gain
            nxt.append(best)
        value = nxt
    return value[(initial - spec.min_charge) // spec.ramp]


cent_prices = st.lists(
    st.integers(min_value=-20000, max_value=20000).map(lambda c: Fraction(c, 100)),
    min_size=1,
    max_size=12,
)
efficiencies = st.fractions(
    min_value=Fraction(1, 1000), max_value=1, max_denominator=1000
)


class TestDpOptimal:
    def test_two_period_reference(self):
        assert dp_optimal(make_prices([10, 50]), UNIT) == Fraction(1460, 49)

    def test_constant_prices_idle(self):
        assert dp_optimal(make_prices([30] * 6), UNIT) == 0

    def test_decreasing_prices_idle(self):
        assert dp_optimal(make_prices([50, 10]), UNIT) == 0

    def test_span_must_be_whole_ramps(self):
        spec = BatterySpec.from_mwh("3", "2")
        with pytest.raises(NonCommensurateRamp):
            dp_optimal(make_prices([10, 50]), spec)

    def test_initial_must_sit_on_lattice(self):
        spec = BatterySpec.from_mwh("2", "1")
        with pytest.raises(NonCommensurateRamp):
            dp_optimal(make_prices([10, 50]), replace(spec, initial_charge=500))

    @given(
        st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=80)
    def test_matches_exhaustive_enumeration(self, curve, k0):
        spec = BatterySpec.from_mwh("3", "1")
        prices = make_prices(curve)
        initial = k0 * spec.ramp
        assert dp_optimal(prices, replace(spec, initial_charge=initial)) == (
            _brute_lattice_best(prices.prices, spec, initial)
        )

    @given(
        cent_prices,
        efficiencies,
        efficiencies,
        st.integers(min_value=1, max_value=1500),
        st.integers(min_value=0, max_value=2000),
        st.integers(min_value=0, max_value=40),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle(
        self, curve, charge_eff, discharge_eff, ramp, floor, steps, data
    ):
        capacity = floor + steps * ramp
        if capacity == 0:
            floor = capacity = ramp
        initial = floor + data.draw(st.integers(0, steps), label="k0") * ramp
        spec = BatterySpec(
            capacity, ramp, floor, initial, charge_eff, discharge_eff
        )
        prices = make_prices(curve)
        assert dp_optimal(prices, spec) == (
            _fraction_dp(prices.prices, spec, initial)
        )

    def test_unit_values_the_carried_stock(self):
        # Falling positive prices: from empty the optimum idles; from full it
        # sells one ramp at 40 and one at 30, each at the 0.8 discharge rate.
        spec = BatterySpec.from_mwh("2", "1")
        curve = [40, 30, 20]
        (unit,) = window_units([flat_forecast(curve)], [make_prices(curve)], "BM")
        assert spec.initial_charge == spec.min_charge
        assert dp_unit(unit, spec) == 0
        assert dp_unit(unit, replace(spec, initial_charge=spec.capacity)) == Fraction(56)

    def test_zero_steps_is_idle(self):
        spec = BatterySpec.from_mwh("2", "1", min_charge_mwh="2",
                                    initial_charge_mwh="2")
        prices = make_prices(["-5.25", "80.01", "3.3"])
        assert dp_optimal(prices, spec) == 0
        assert _fraction_dp(prices.prices, spec, spec.capacity) == 0

    @given(price_curves, st.booleans())
    @settings(max_examples=60)
    def test_dominates_every_strategy(self, curve, allow):
        prices = make_prices(curve)
        fc = flat_forecast(curve)
        bound = dp_optimal(prices, UNIT)
        for sched in (
            ts1(fc, MEDIAN_PAIR, UNIT),
            ts2(fc, MEDIAN_PAIR, UNIT),
            ts3(fc, MEDIAN_PAIR, UNIT, allow_stock_buys=allow),
        ):
            assert settle(sched, prices, UNIT).cash <= bound

    @given(price_curves)
    @settings(max_examples=60)
    def test_dominates_perfect_foresight(self, curve):
        prices = make_prices(curve)
        bound = dp_optimal(prices, UNIT)
        for strategy in ("TS1", "TS2", "TS3"):
            assert perfect_foresight(prices, UNIT, strategy) <= bound


def _full_lattice_dp_unit(unit, spec):
    """dp_unit as it ran before it kept the reachable band, over the whole
    lattice: four list comprehensions per event.  An oracle."""
    scale = math.lcm(*(ps.scale for ps in unit.actuals))
    prices = [
        unit.actuals[w].scaled[p] * (scale // unit.actuals[w].scale)
        for w, p in unit.horizon.events
    ]
    steps = (spec.capacity - spec.min_charge) // spec.ramp
    k0 = (spec.initial_charge - spec.min_charge) // spec.ramp
    w_buy, w_sell, den = spec.cash_weights()
    buy_unit = spec.ramp * w_buy
    sell_unit = spec.ramp * w_sell
    value = [0] * (steps + 1)
    for price in reversed(prices):
        buy, sell = price * buy_unit, price * sell_unit
        # stay at k, or charge one ramp (reach k + 1)
        charged = [v - buy for v in value[1:]]
        best = [v if v > c else c for v, c in zip(value, charged)]
        best.append(value[-1])
        # or discharge one ramp (reach k - 1)
        discharged = [v + sell for v in value[:-1]]
        value = best[:1] + [b if b > d else d for b, d in zip(best[1:], discharged)]
    return Fraction(value[k0], scale * den)


@st.composite
def dp_units(draw):
    """(unit, battery): a day-ahead, balancing or dual unit, prices over drawn
    scales, and a battery whose span and start are whole ramps.  The lattice
    is shallow, or deep (far more steps than the unit has events); the start
    anywhere on it, the floor often above 0."""
    market = draw(st.sampled_from(["DAM", "BM", "DAM+BM"]), label="market")
    units = {}
    for kind in (MarketKind.DAM, MarketKind.BM):
        if kind.value in market:
            window = TradingWindow(kind, BASE_EPOCH, kind.periods_per_window)
            units[kind.value] = window_units(
                [flat_forecast([0] * window.period_count, market=kind)],
                [_series(draw, window, kind.value)], kind.value,
            )
    (unit,) = dual_units(units["DAM"], units["BM"]) if market == "DAM+BM" else units[market]
    ramp = draw(st.integers(min_value=1, max_value=1500), label="ramp")
    floor = draw(st.sampled_from([0, 1, 250, 2000]), label="floor")
    steps = draw(st.one_of(st.integers(0, 8), st.integers(40, 400)), label="steps")
    if floor + steps * ramp == 0:
        floor = ramp
    k0 = draw(st.integers(min_value=0, max_value=steps), label="k0")
    spec = BatterySpec(
        floor + steps * ramp, ramp, floor, floor + k0 * ramp,
        draw(efficiencies), draw(efficiencies),
    )
    return unit, spec


class TestDpKernel:
    """dp_unit, over the band reachable from the start point, equals the
    recursion over the whole lattice."""

    @given(dp_units())
    @settings(max_examples=150, deadline=None)
    def test_band_matches_the_full_lattice(self, problem):
        unit, spec = problem
        assert dp_unit(unit, spec) == _full_lattice_dp_unit(unit, spec)

    @given(dp_units(), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_ramp_above_the_span_steps_by_the_span(self, problem, extra):
        # no leg moves more than the span: a larger ramp bounds as the span does
        unit, spec = problem
        span = spec.capacity - spec.min_charge
        if span == 0:
            wide = replace(spec, ramp=spec.ramp + extra)
            assert dp_unit(unit, wide) == 0
            return
        at_span = replace(spec, ramp=span, initial_charge=spec.min_charge)
        for start in (spec.min_charge, spec.capacity):
            wide = replace(at_span, ramp=span + extra, initial_charge=start)
            want = _full_lattice_dp_unit(unit, replace(at_span, initial_charge=start))
            assert dp_unit(unit, wide) == want

    def test_ramp_above_the_span_keeps_the_start_on_the_lattice(self):
        # a 1 MWh span steps by 1 MWh, so a start at 0.5 MWh is off it
        spec = BatterySpec.from_mwh("1", "5", initial_charge_mwh="0.5")
        with pytest.raises(NonCommensurateRamp, match="^starting charge sits off"):
            dp_optimal(make_prices([10, 50]), spec)
        assert dp_optimal(make_prices([10, 50]), replace(spec, initial_charge=0)) == (
            dp_optimal(make_prices([10, 50]), unit_trading_spec())
        )


class TestDpOptimalDual:
    def test_joint_bound_sees_cross_market_moves(self):
        dam = make_prices([10] + [30] * 23, market=MarketKind.DAM)
        bm = make_prices([30] * 15 + [50], market=MarketKind.BM)
        horizon = build_dual_horizon(dam.window, bm.window)
        joint = dp_optimal_dual(horizon, dam, bm, UNIT)
        # buy the cheap day-ahead hour, sell the dear balancing slot
        assert joint == Fraction("0.8") * 50 - Fraction(10) / Fraction("0.98")
        assert joint > dp_optimal(dam, UNIT)
        assert joint > dp_optimal(bm, UNIT)

    def test_window_mismatch(self):
        """Both dual adapters refuse prices off the horizon's windows."""
        dam = make_prices([10] * 24, market=MarketKind.DAM)
        bm = make_prices([10] * 16, market=MarketKind.BM)
        horizon = build_dual_horizon(dam.window, bm.window)
        next_dam = make_prices([10] * 24, market=MarketKind.DAM, start=BASE_EPOCH + 86400)
        other_bm = make_prices([10] * 16, market=MarketKind.BM, start=BASE_EPOCH + 3600)
        for adapter in (dp_optimal_dual, perfect_foresight_dual):
            for prices in ((next_dam, bm), (dam, other_bm)):
                with pytest.raises(WindowMismatch,
                                   match="^price windows do not match the horizon$"):
                    adapter(horizon, *prices, UNIT)

    @given(
        st.lists(st.integers(min_value=1, max_value=99), min_size=4, max_size=4),
        st.lists(st.integers(min_value=1, max_value=99), min_size=6, max_size=6),
        st.booleans(),
    )
    @settings(max_examples=40)
    def test_dominates_dual_strategy(self, dam_curve, bm_curve, allow):
        dam_fc = flat_forecast(dam_curve, market=MarketKind.DAM)
        bm_fc = flat_forecast(bm_curve, market=MarketKind.BM)
        dam_ps = make_prices(dam_curve, market=MarketKind.DAM)
        bm_ps = make_prices(bm_curve, market=MarketKind.BM)
        horizon = build_dual_horizon(dam_fc.window, bm_fc.window)
        dam_sched, bm_sched = ts3_dual(
            horizon, dam_fc, bm_fc, MEDIAN_PAIR, UNIT, allow_stock_buys=allow
        )
        realized = settle_dual(dam_sched, bm_sched, dam_ps, bm_ps, UNIT).cash
        assert realized <= dp_optimal_dual(horizon, dam_ps, bm_ps, UNIT)
        pf = perfect_foresight_dual(horizon, dam_ps, bm_ps, UNIT, allow)
        assert pf <= dp_optimal_dual(horizon, dam_ps, bm_ps, UNIT)


@st.composite
def lattice_batteries(draw):
    """A battery whose charge span and start charge are whole ramps."""
    ramp = draw(st.integers(min_value=1, max_value=1500))
    floor = draw(st.integers(min_value=0, max_value=2000))
    steps = draw(st.integers(min_value=1, max_value=5))
    start = draw(st.integers(min_value=0, max_value=steps))
    return BatterySpec(
        floor + steps * ramp, ramp, floor, floor + start * ramp,
        draw(efficiencies), draw(efficiencies),
    )


def _unit_forecast(draw, window, label):
    """A three-level forecast, rows possibly crossed, over a drawn scale."""
    den = draw(st.sampled_from([1, 3, 100]), label=f"{label} forecast scale")
    rows = draw(st.lists(
        st.tuples(*[st.integers(-500, 5000)] * 3),
        min_size=window.period_count, max_size=window.period_count,
    ), label=f"{label} forecast")
    levels = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
    return QuantileForecast(window, levels, rows, den)


class TestUnitPathBounds:
    """On the one unit path, realized cash and pf never beat the DP optimum.

    Covers day-ahead, balancing and day-ahead + balancing units, TS1-TS3
    (TS3 alone for dual units), any quantile pair, stock buys on or off, and
    the final charge of each unit carried into the next.
    """

    @given(lattice_batteries(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_trade_and_pf_stay_within_dp(self, spec, data):
        market = data.draw(st.sampled_from(["DAM", "BM", "DAM+BM"]), label="market")
        days = data.draw(st.integers(min_value=1, max_value=2), label="days")
        by_market = {}
        for kind in (MarketKind.DAM, MarketKind.BM):
            if kind.value not in market:
                continue
            windows = [
                TradingWindow(kind, BASE_EPOCH + d * 86400, kind.periods_per_window)
                for d in range(days)
            ]
            by_market[kind.value] = window_units(
                [_unit_forecast(data.draw, w, kind.value) for w in windows],
                [_series(data.draw, w, kind.value) for w in windows],
                kind.value,
            )
        if market == "DAM+BM":
            units = dual_units(by_market["DAM"], by_market["BM"])
        else:
            units = by_market[market]
        strategies = ["TS3"] if market == "DAM+BM" else ["TS1", "TS2", "TS3"]
        strategy = data.draw(st.sampled_from(strategies), label="strategy")
        levels = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
        sell = data.draw(st.sampled_from(levels), label="sell level")
        buy = data.draw(st.sampled_from([lv for lv in levels if lv >= sell]))
        pair = QuantilePair(sell, buy)
        allow = data.draw(st.booleans(), label="allow stock buys")
        for unit in units:
            _, result = trade_unit(unit, strategy, pair, spec, allow)
            dp = dp_unit(unit, spec)
            assert result.cash <= dp
            assert pf_unit(unit, spec, strategy, allow) <= dp
            spec = replace(spec, initial_charge=result.final_charge)


def _tied_series(draw, window, den, label):
    """Prices of one window over den, few distinct values: many ties.  One
    price of 1/den keeps den the window's own lowest scale."""
    n = window.period_count
    units = draw(st.lists(st.integers(-20, 60), min_size=n, max_size=n), label=f"{label} prices")
    units[draw(st.integers(0, n - 1), label=f"{label} price at 1/{den}")] = 1
    return PriceSeries(window, units, den)


class TestPfOnPrices:
    """pf trades each window's settled prices as both curves, over each
    window's own scale.  That is the strategy run on a one-level forecast
    pinned to each window's prices, over the window's own scale, then
    settled.
    """

    @given(lattice_batteries(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_strategy_on_pinned_forecasts(self, spec, data):
        draw = data.draw
        market = draw(st.sampled_from(["DAM", "BM", "DAM+BM"]), label="market")
        allow = draw(st.booleans(), label="allow stock buys")
        units, actuals = [], []
        for kind in (MarketKind.DAM, MarketKind.BM):
            if kind.value not in market:
                continue
            window = TradingWindow(kind, BASE_EPOCH, kind.periods_per_window)
            if market == "DAM+BM":  # day-ahead in cents, balancing in thirds
                ps = _tied_series(draw, window, 100 if kind is MarketKind.DAM else 3, kind.value)
            else:
                ps = _series(draw, window, kind.value)
            # the unit's own forecast is noise that pf must not read
            units.append(window_units([_unit_forecast(draw, window, kind.value)], [ps], market))
            actuals.append(ps)
        pinned = [degenerate_forecast(ps) for ps in actuals]
        if market == "DAM+BM":
            (unit,) = dual_units(*units)
            assert unit.scale == 300  # neither window's own scale
            for k, (w, p) in enumerate(unit.horizon.events):
                ps = unit.actuals[w]
                assert unit.prices[k] * ps.scale == ps.scaled[p] * unit.scale
            dam_sched, bm_sched = ts3_dual(unit.horizon, *pinned, MEDIAN_PAIR, spec, allow)
            want = settle_dual(dam_sched, bm_sched, *actuals, spec).cash
            strategy = "TS3"
        else:
            ((unit,),), (ps,), (fc,) = units, actuals, pinned
            strategy = draw(st.sampled_from(STRATEGY_NAMES), label="strategy")
            if strategy == "TS3":
                sched = ts3(fc, MEDIAN_PAIR, spec, allow)
            else:
                sched = {"TS1": ts1, "TS2": ts2}[strategy](fc, MEDIAN_PAIR, spec)
            want = settle(sched, ps, spec).cash
        assert pf_unit(unit, spec, strategy, allow) == want


def _pinball_formula(q, y, z):
    """The pinball loss from its definition, in Fractions."""
    return q * (y - z) if y >= z else (1 - q) * (z - y)


# interior quantile levels a/b, most of them without a decimal form
_levels = st.integers(min_value=2, max_value=10**6).flatmap(
    lambda b: st.integers(min_value=1, max_value=b - 1).map(lambda a: Fraction(a, b))
)


# values as pinball takes them: Fractions, integers and decimal text
_values = st.one_of(
    st.fractions(max_denominator=10**9),
    st.integers(min_value=-10**30, max_value=10**30),
    st.decimals(allow_nan=False, allow_infinity=False, places=4).map(str),
)


class TestPinball:
    @given(_levels, _values, _values)
    def test_matches_the_formula(self, q, y, z):
        assert pinball(q, y, z) == _pinball_formula(q, Fraction(y), Fraction(z))

    def test_reference_value(self):
        assert pinball("0.9", 100, 80) == 18

    def test_overprediction_weighted_by_complement(self):
        assert pinball("0.9", 80, 100) == 2

    @given(
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=-1000, max_value=1000),
    )
    def test_median_loss_is_half_absolute_error(self, y, z):
        assert pinball("0.5", y, z) == Fraction(abs(y - z), 2)

    @given(st.integers(min_value=1, max_value=9), st.integers(-100, 100))
    def test_perfect_prediction_scores_zero(self, tenths, y):
        assert pinball(Fraction(tenths, 10), y, y) == 0

    @pytest.mark.parametrize("level", ["0", "1", "-0.5", "1.5"])
    def test_level_must_be_interior(self, level):
        with pytest.raises(LevelOutOfRange):
            pinball(level, 10, 10)


class TestScoreForecasts:
    def test_degenerate_forecast_scores_zero(self):
        actuals, forecasts = generate_synthetic(1, MarketKind.DAM, noise_sd=0)
        report = score_forecasts(forecasts, actuals)
        assert report.mean == 0
        assert all(v == 0 for v in report.per_level.values())
        assert report.cells == 24 * len(DEFAULT_LEVELS)

    def test_mean_over_all_cells(self):
        actuals = make_prices([10, 20])
        fc = QuantileForecast(actuals.window, (Fraction(1, 2),), ((14,), (20,)), 1)
        report = score_forecasts([fc], [actuals])
        assert report.per_level[Fraction(1, 2)] == 1  # (2 + 0) / 2
        assert report.mean == 1
        assert report.cells == 2

    def test_window_pairing_checked(self):
        actuals = make_prices([10, 20])
        fc = flat_forecast([10, 20], start=BASE_EPOCH + 1800)
        with pytest.raises(WindowMismatch):
            score_forecasts([fc], [actuals])
        with pytest.raises(WindowMismatch):
            score_forecasts([], [actuals])

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_sum_of_public_pinball(self, data):
        """Per-level and overall means equal Fraction sums of `pinball`.

        Each window draws its own level set, so levels differ in how many
        cells they score; values mix integer and decimal denominators.
        """
        value = st.builds(Fraction, st.integers(-10**6, 10**6),
                          st.sampled_from((1, 2, 4, 10, 100, 1000, 3)))
        level_pool = [Fraction(a, b) for b in (2, 3, 4, 10, 100)
                      for a in (1, b // 3 + 1, b - 1) if 0 < a < b]
        forecasts, actuals = [], []
        for w in range(data.draw(st.integers(min_value=1, max_value=4))):
            n = data.draw(st.integers(min_value=1, max_value=6))
            levels = tuple(sorted(data.draw(
                st.sets(st.sampled_from(level_pool), min_size=1, max_size=5))))
            window = TradingWindow(MarketKind.BM, BASE_EPOCH + w * 86400, n)
            prices = tuple(data.draw(value) for _ in range(n))
            rows = tuple(tuple(data.draw(value) for _ in levels) for _ in range(n))
            actuals.append(PriceSeries(window, *scaled(prices)))
            forecasts.append(exact_forecast(window, levels, rows))
        sums, counts = {}, {}
        for fc, ps in zip(forecasts, actuals):
            for y, row in zip(ps.prices, fc.values):
                for lv, z in zip(fc.levels, row):
                    sums[lv] = sums.get(lv, Fraction(0)) + pinball(lv, y, z)
                    counts[lv] = counts.get(lv, 0) + 1
        report = score_forecasts(forecasts, actuals)
        assert report.per_level == {lv: sums[lv] / counts[lv] for lv in sorted(sums)}
        assert list(report.per_level) == sorted(sums)
        assert report.mean == sum(sums.values(), Fraction(0)) / sum(counts.values())
        assert report.cells == sum(counts.values())
        assert all(type(v) is Fraction for v in (report.mean, *report.per_level.values()))

    def test_noisier_forecasts_score_worse(self):
        """Mean pinball rises with noise scale, well outside sampling error."""
        actuals, _ = generate_synthetic(9, MarketKind.DAM, days=10, noise_sd=0)
        rng = random.Random(42)
        means = []
        for scale in (0, 2, 6):
            forecasts = []
            for ps in actuals:
                rows = tuple(
                    tuple(
                        p + Fraction(round(rng.gauss(0.0, scale) * 100), 100)
                        for _ in DEFAULT_LEVELS
                    )
                    for p in ps.prices
                )
                forecasts.append(exact_forecast(ps.window, DEFAULT_LEVELS, rows))
            means.append(score_forecasts(forecasts, actuals).mean)
        assert means[0] == 0
        assert means[0] < means[1] < means[2]
        # scale 6 should roughly triple scale 2's loss; demand a wide gap
        assert means[2] > means[1] * 2


class TestRunSweep:
    def _data(self, days=1, noise="2"):
        dam_a, dam_f = generate_synthetic(4, MarketKind.DAM, days=days,
                                          noise_sd=frac(noise))
        bm_a, bm_f = generate_synthetic(4, MarketKind.BM, days=days,
                                        noise_sd=frac(noise))
        return dam_a, dam_f, bm_a, bm_f

    def test_row_counting_and_order(self):
        dam_a, dam_f, bm_a, bm_f = self._data()
        pairs = (MEDIAN_PAIR, QuantilePair("0.3", "0.7"))
        rows = run_sweep(
            UNIT, dam_a, dam_f, bm_a, bm_f, pairs=pairs, strategies=("TS1", "TS3")
        )
        labels = [(r.market, r.strategy, r.pair_label) for r in rows]
        assert labels == [
            ("DAM", "TS1", "0.5-0.5"),
            ("DAM", "TS1", "0.3-0.7"),
            ("DAM", "TS1", "average"),
            ("DAM", "TS3", "0.5-0.5"),
            ("DAM", "TS3", "0.3-0.7"),
            ("DAM", "TS3", "average"),
            ("BM", "TS3", "0.5-0.5"),
            ("BM", "TS3", "0.3-0.7"),
            ("BM", "TS3", "average"),
            ("DAM+BM", "TS3", "0.5-0.5"),
            ("DAM+BM", "TS3", "0.3-0.7"),
            ("DAM+BM", "TS3", "average"),
        ]

    def test_two_pairs_one_strategy_counting(self):
        dam_a, dam_f, *_ = self._data()
        pairs = (MEDIAN_PAIR, QuantilePair("0.1", "0.9"))
        rows = run_sweep(UNIT, dam_a, dam_f, pairs=pairs, strategies=("TS3",))
        assert len(rows) == 3  # two pair rows plus one average

    def test_pf_trades_the_prices_and_builds_no_forecast(self, monkeypatch):
        # the benchmark sweep's input: seed 1, 3 days, 3 DAM and 9 BM windows
        dam_a, dam_f = generate_synthetic(1, MarketKind.DAM, days=3, noise_sd=3.0)
        bm_a, bm_f = generate_synthetic(1, MarketKind.BM, days=3, noise_sd=3.0)
        (unit,) = dual_units(window_units(dam_f[:1], dam_a[:1], "day-ahead"),
                             window_units(bm_f[:1], bm_a[:1], "balancing"))
        built = []
        check = QuantileForecast.__post_init__

        def counting(self):
            built.append(self.window)
            check(self)

        monkeypatch.setattr(QuantileForecast, "__post_init__", counting)
        rows = run_sweep(UNIT, dam_a, dam_f, bm_a, bm_f)
        assert pf_unit(unit, UNIT) == perfect_foresight_dual(unit.horizon, *unit.actuals, UNIT)
        for strategy in STRATEGY_NAMES:
            perfect_foresight(bm_a[0], UNIT, strategy)
        assert built == []
        # a second call returns the same rows
        assert run_sweep(UNIT, dam_a, dam_f, bm_a, bm_f) == rows
        assert built == []

    def test_each_dual_horizon_is_built_once(self, monkeypatch, tmp_path):
        # the benchmark sweep's input: 3 DAM, 9 BM and 3 dual horizons
        dam_a, dam_f = generate_synthetic(1, MarketKind.DAM, days=3, noise_sd=3.0)
        bm_a, bm_f = generate_synthetic(1, MarketKind.BM, days=3, noise_sd=3.0)
        parallel = run_sweep(UNIT, dam_a, dam_f, bm_a, bm_f, jobs=2)
        built = []
        derive = Horizon.__post_init__

        def counting(self):
            built.append(len(self.windows))
            derive(self)

        monkeypatch.setattr(Horizon, "__post_init__", counting)
        serial = run_sweep(UNIT, dam_a, dam_f, bm_a, bm_f)
        assert (len(built), built.count(2)) == (15, 3)
        write_report_csv(tmp_path / "serial.csv", serial)
        write_report_csv(tmp_path / "parallel.csv", parallel)
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()

    def test_sweep_builds_no_orders_or_schedules(self, monkeypatch):
        # the benchmark sweep's input: a sweep settles integer legs
        dam_a, dam_f = generate_synthetic(1, MarketKind.DAM, days=3, noise_sd=3.0)
        bm_a, bm_f = generate_synthetic(1, MarketKind.BM, days=3, noise_sd=3.0)
        built = {"orders": 0, "schedules": 0}
        order_init, schedule_check = TradeOrder.__init__, Schedule.__post_init__

        def counted_order(self, *args, **kwargs):
            built["orders"] += 1
            order_init(self, *args, **kwargs)

        def counted_schedule(self):
            built["schedules"] += 1
            schedule_check(self)

        monkeypatch.setattr(TradeOrder, "__init__", counted_order)
        monkeypatch.setattr(Schedule, "__post_init__", counted_schedule)
        rows = run_sweep(UNIT, dam_a, dam_f, bm_a, bm_f)
        assert built == {"orders": 0, "schedules": 0}
        assert sum(r.trades for r in rows if r.pair_label != "average") > 0
        # the counters see what the public strategies build
        sched = ts3(dam_f[0], MEDIAN_PAIR, UNIT)
        assert built == {"orders": sched.trade_count, "schedules": 1} and sched.orders

    @pytest.mark.parametrize("body, legs, message", [
        # TS3's body returns one leg tuple per window of the horizon
        ("_ts3_legs", (((24, 1000),),), "order period 24 outside window"),
        ("_ts3_legs", (((3, 1000), (2, -1000)),), "orders must have strictly ascending periods"),
        ("_ts3_legs", (((3, 0),),), "orders must have positive volume"),
        ("_ts1_legs", ((2, -1000), (3, 1000)), "TS1 orders must alternate buy/sell"),
        ("_ts2_legs", ((2, 1000), (3, 1000)), "TS2 orders must alternate buy/sell"),
    ])
    def test_sweep_legs_are_checked_as_schedules_are(self, monkeypatch, body, legs, message):
        dam_a, dam_f, *_ = self._data()
        monkeypatch.setattr(strategies, body, lambda *args: legs)
        with pytest.raises(WindowMismatch) as err:
            run_sweep(UNIT, dam_a, dam_f, pairs=(MEDIAN_PAIR,))
        assert str(err.value) == message
        # backtest's path refuses them with the same message
        (unit,) = window_units(dam_f, dam_a, "day-ahead")
        with pytest.raises(WindowMismatch) as err:
            trade_unit(unit, f"TS{body[3]}", MEDIAN_PAIR, UNIT)
        assert str(err.value) == message

    def test_degenerate_forecasts_collapse_pairs_to_pf(self):
        dam_a, _, bm_a, _ = self._data()
        dam_f = [degenerate_forecast(ps, DEFAULT_LEVELS) for ps in dam_a]
        bm_f = [degenerate_forecast(ps, DEFAULT_LEVELS) for ps in bm_a]
        rows = run_sweep(UNIT, dam_a, dam_f, bm_a, bm_f, include_average=False)
        for row in rows:
            assert row.realized == row.pf

    def test_average_row_arithmetic(self):
        dam_a, dam_f, *_ = self._data()
        pairs = (MEDIAN_PAIR, QuantilePair("0.1", "0.9"))
        rows = run_sweep(UNIT, dam_a, dam_f, pairs=pairs, strategies=("TS1",))
        cells, avg = rows[:2], rows[2]
        assert avg.pair_label == "average"
        assert avg.realized == sum(r.realized for r in cells) / 2
        assert avg.trades == sum(r.trades for r in cells) / 2
        assert avg.pf == cells[0].pf and avg.dp == cells[0].dp

    def test_parallel_equals_serial(self):
        dam_a, dam_f, bm_a, bm_f = self._data()
        kwargs = dict(pairs=(MEDIAN_PAIR,), strategies=("TS3",))
        serial = run_sweep(UNIT, dam_a, dam_f, bm_a, bm_f, jobs=1, **kwargs)
        parallel = run_sweep(UNIT, dam_a, dam_f, bm_a, bm_f, jobs=2, **kwargs)
        assert serial == parallel

    def test_validation_errors(self):
        dam_a, dam_f, bm_a, bm_f = self._data()
        with pytest.raises(ConfigError):
            run_sweep(UNIT, dam_a, dam_f, strategies=("TS9",))
        with pytest.raises(ConfigError):
            run_sweep(UNIT, dam_a, dam_f, bm_a, None)
        with pytest.raises(WindowMismatch):
            run_sweep(UNIT, dam_a, dam_f[:-1] if len(dam_f) > 1 else [])

    # forked lanes and pf get the unit's cash weights, and others
    @pytest.mark.parametrize("jobs,spec", [
        pytest.param(jobs, spec, id=f"{jobs}{tag}")
        for spec, tag in ((UNIT, ""), (_EFFICIENT, "-efficient"))
        for jobs in (1, 2)
    ])
    @pytest.mark.parametrize("allow", [False, True])
    def test_benchmark_columns_are_per_window_sums(self, jobs, spec, allow):
        dam_a, dam_f, bm_a, bm_f = self._data(days=2)
        pairs = (MEDIAN_PAIR, QuantilePair("0.1", "0.9"))
        rows = run_sweep(spec, dam_a, dam_f, bm_a, bm_f, pairs=pairs,
                         jobs=jobs, allow_stock_buys=allow)
        bm_by_start = {ps.window.start_epoch_s: ps for ps in bm_a}
        dual = [
            (build_dual_horizon(d.window, b.window), d, b)
            for d in dam_a
            if (b := bm_by_start.get(d.window.start_epoch_s)) is not None
        ]
        assert dual
        expected = {
            ("DAM", s): (
                sum(perfect_foresight(ps, spec, s, allow) for ps in dam_a),
                sum(dp_optimal(ps, spec) for ps in dam_a),
            )
            for s in ("TS1", "TS2", "TS3")
        }
        expected["BM", "TS3"] = (
            sum(perfect_foresight(ps, spec, "TS3", allow) for ps in bm_a),
            sum(dp_optimal(ps, spec) for ps in bm_a),
        )
        expected["DAM+BM", "TS3"] = (
            sum(perfect_foresight_dual(h, d, b, spec, allow) for h, d, b in dual),
            sum(dp_optimal_dual(h, d, b, spec) for h, d, b in dual),
        )
        assert len(rows) == len(expected) * (len(pairs) + 1)
        for row in rows:
            assert (row.pf, row.dp) == expected[row.market, row.strategy]

    @pytest.mark.parametrize("include_average", [True, False])
    def test_empty_pair_list_is_config_error(self, include_average):
        dam_a, dam_f, _, _ = self._data()
        with pytest.raises(ConfigError):
            run_sweep(UNIT, dam_a, dam_f, pairs=(), include_average=include_average)

    @pytest.mark.parametrize("pairs,strategies,repeated", [
        ((MEDIAN_PAIR, QuantilePair("0.1", "0.9"), QuantilePair("0.50", "0.5")),
         ("TS1",), "pair 0.5:0.5"),
        ((MEDIAN_PAIR,), ("TS1", "TS3", "TS1"), "strategy TS1"),
    ])
    def test_repeated_pair_or_strategy_is_config_error(self, pairs, strategies, repeated):
        # a repeat would be counted twice in its block's average row
        dam_a, dam_f, *_ = self._data()
        with pytest.raises(ConfigError, match=f"repeats {repeated}$"):
            run_sweep(UNIT, dam_a, dam_f, pairs=pairs, strategies=strategies)

    def test_dual_units_pair_windows_that_open_together(self):
        dam_a, dam_f, _, _ = self._data(days=2)
        bm_a, bm_f = generate_synthetic(4, MarketKind.BM, days=1)
        units = dual_units(
            window_units(dam_f, dam_a, "day-ahead"),
            window_units(bm_f, bm_a, "balancing"),
        )
        # day 2 has no balancing data; day 1 pairs with its first window only
        assert [(u.forecasts, u.actuals) for u in units] == [
            ((dam_f[0], bm_f[0]), (dam_a[0], bm_a[0]))
        ]
        assert units[0].horizon == build_dual_horizon(dam_a[0].window, bm_a[0].window)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cell_cash_is_the_sum_of_its_settled_units(self, jobs):
        # windows settle over cents, sevenths or thirds of them, and the
        # battery's efficiencies put each unit's cash over its own denominator
        dam_a, dam_f, bm_a, bm_f = self._data(days=3, noise="3")
        dam_a = [PriceSeries(ps.window, ps.scaled, ps.scale * (1, 7, 3)[i % 3])
                 for i, ps in enumerate(dam_a)]
        spec = BatterySpec.from_mwh("2", "1", charge_eff="0.95", discharge_eff="0.9")
        pairs = (MEDIAN_PAIR, QuantilePair("0.1", "0.9"), QuantilePair("0.3", "0.7"))
        rows = run_sweep(spec, dam_a, dam_f, bm_a, bm_f, pairs=pairs, jobs=jobs,
                         allow_stock_buys=True, include_average=False)
        dam = window_units(dam_f, dam_a, "day-ahead")
        bm = window_units(bm_f, bm_a, "balancing")
        units = {"DAM": dam, "BM": bm, "DAM+BM": dual_units(dam, bm)}
        pair_of = {pair.label: pair for pair in pairs}
        assert {r.market for r in rows} == set(units)
        for row in rows:
            cash = tuple(
                trade_unit(u, row.strategy, pair_of[row.pair_label], spec, True)[1].cash
                for u in units[row.market]
            )
            assert row.per_window == cash
            assert row.realized == sum(cash)
            assert row.windows == len(cash)
        assert len({r.realized.denominator for r in rows}) > 1

    def test_realized_never_beats_dp(self):
        dam_a, dam_f, bm_a, bm_f = self._data(days=2, noise="4")
        for row in run_sweep(UNIT, dam_a, dam_f, bm_a, bm_f):
            assert row.realized <= row.dp
            assert row.pf <= row.dp


class TestSweepLanes:
    """Lanes share a sweep's work list; none changes its rows or its error."""

    def _dam(self):
        return generate_synthetic(4, MarketKind.DAM, days=2, noise_sd=frac("2"))

    def test_lowest_failing_item_wins(self, monkeypatch):
        dam_a, dam_f = self._dam()
        run_item = evaluation._run_item

        def cells_fail(payload, item):
            market, strategy, pair = item
            if pair is not None:
                raise WindowMismatch(f"{market} {strategy} {pair.label}")
            return run_item(payload, item)

        monkeypatch.setattr(evaluation, "_run_item", cells_fail)
        messages = set()
        for jobs in (1, 2, 3, 8):
            with pytest.raises(WindowMismatch) as exc:
                run_sweep(UNIT, dam_a, dam_f, jobs=jobs)
            messages.add(str(exc.value))
        # the first cell is the lowest failing item in every striping
        assert messages == {"DAM TS1 0.5-0.5"}
        assert multiprocessing.active_children() == []

    def test_processes_are_bounded_by_items(self, monkeypatch):
        dam_a, dam_f = self._dam()
        started = []
        context = evaluation._lane_context()

        class Counted(context.Process):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(context, "Process", Counted)
        rows = run_sweep(UNIT, dam_a, dam_f, pairs=(MEDIAN_PAIR,),
                         strategies=("TS3",), jobs=8)
        # three items (DP, pf, one cell): the caller runs one lane of three
        assert len(started) == 2
        assert rows == run_sweep(UNIT, dam_a, dam_f, pairs=(MEDIAN_PAIR,),
                                 strategies=("TS3",))

    @pytest.mark.parametrize(
        "cls",
        [c for c in vars(errors).values()
         if isinstance(c, type) and issubclass(c, Exception)],
        ids=lambda c: c.__name__,
    )
    def test_errors_survive_pickling(self, cls):
        error = cls(3, "x") if cls is errors.MalformedRow else cls("x")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls
        assert str(copy) == str(error)
        assert vars(copy) == vars(error)


_PAIR_LEVELS = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))


@st.composite
def sweep_batteries(draw):
    """lattice_batteries, with 1/3 and the usual decimals among the efficiencies."""
    spec = draw(lattice_batteries())
    usual = st.sampled_from([Fraction(1, 3), Fraction(1), Fraction("0.98"), Fraction("0.8")])
    eff = st.one_of(usual, efficiencies)
    return replace(spec, charge_eff=draw(eff), discharge_eff=draw(eff))


def _public_cell(spec, market, strategy, pair, allow, dam, bm):
    """(per-window cash, trades) of one sweep cell through the public
    strategies and settle or settle_dual; dam and bm are (forecast, prices)."""
    run = {"TS1": ts1, "TS2": ts2, "TS3": ts3}[strategy]
    cash, trades = [], 0
    if market == "DAM+BM":
        for (dam_fc, dam_ps), (bm_fc, bm_ps) in zip(dam, bm):
            horizon = build_dual_horizon(dam_fc.window, bm_fc.window)
            scheds = ts3_dual(horizon, dam_fc, bm_fc, pair, spec, allow)
            cash.append(settle_dual(*scheds, dam_ps, bm_ps, spec).cash)
            trades += sum(s.trade_count for s in scheds)
        return tuple(cash), trades
    for fc, ps in dam if market == "DAM" else bm:
        sched = run(fc, pair, spec, allow) if strategy == "TS3" else run(fc, pair, spec)
        cash.append(settle(sched, ps, spec).cash)
        trades += sched.trade_count
    return tuple(cash), trades


class TestLegsMatchSchedules:
    """The sweep settles integer legs, backtest settles Schedules: the two
    carriers give the same cash, trade counts and final charges."""

    def _draw_market(self, data, kind, days):
        windows = [
            TradingWindow(kind, BASE_EPOCH + d * 86400, kind.periods_per_window)
            for d in range(days)
        ]
        return [
            (_unit_forecast(data.draw, w, kind.value), _series(data.draw, w, kind.value))
            for w in windows
        ]

    @given(sweep_batteries(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sweep_rows_equal_public_strategies(self, spec, data):
        days = data.draw(st.integers(min_value=1, max_value=2), label="days")
        with_bm = data.draw(st.booleans(), label="balancing market")
        allow = data.draw(st.booleans(), label="allow stock buys")
        candidates = [QuantilePair(a, b) for a in _PAIR_LEVELS for b in _PAIR_LEVELS if a <= b]
        pairs = data.draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=3,
                                   unique=True), label="pairs")
        dam = self._draw_market(data, MarketKind.DAM, days)
        bm = self._draw_market(data, MarketKind.BM, days) if with_bm else None
        rows = run_sweep(
            spec, [ps for _, ps in dam], [fc for fc, _ in dam],
            bm and [ps for _, ps in bm], bm and [fc for fc, _ in bm],
            pairs=pairs, allow_stock_buys=allow, include_average=False,
        )
        markets = ("DAM", "BM", "DAM+BM") if with_bm else ("DAM",)
        assert {r.market for r in rows} == set(markets)
        by_label = {p.label: p for p in pairs}
        for row in rows:
            want = _public_cell(
                spec, row.market, row.strategy, by_label[row.pair_label], allow, dam, bm
            )
            assert (row.per_window, row.trades) == want

    @given(sweep_batteries(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_trade_unit_schedules_replay_to_its_final_charge(self, spec, data):
        market = data.draw(st.sampled_from(["DAM", "BM", "DAM+BM"]), label="market")
        dam = self._draw_market(data, MarketKind.DAM, 1)
        bm = self._draw_market(data, MarketKind.BM, 1)
        units = {
            kind: window_units([fc for fc, _ in rows], [ps for _, ps in rows], kind)
            for kind, rows in (("DAM", dam), ("BM", bm))
        }
        (unit,) = dual_units(units["DAM"], units["BM"]) if market == "DAM+BM" else units[market]
        strategies = ["TS3"] if market == "DAM+BM" else ["TS1", "TS2", "TS3"]
        strategy = data.draw(st.sampled_from(strategies), label="strategy")
        sell = data.draw(st.sampled_from(_PAIR_LEVELS), label="sell level")
        buy = data.draw(st.sampled_from([lv for lv in _PAIR_LEVELS if lv >= sell]))
        allow = data.draw(st.booleans(), label="allow stock buys")
        schedules, result = trade_unit(unit, strategy, QuantilePair(sell, buy), spec, allow)
        instants = unit.horizon.instants
        trades = [
            (instants[w][o.period], o.signed_ticks)
            for w, schedule in enumerate(schedules)
            for o in schedule.orders
        ]
        assert replay(trades, spec).charge == result.final_charge
        if market == "DAM+BM":
            assert settle_dual(*schedules, *unit.actuals, spec) == result
        else:
            assert settle(*schedules, *unit.actuals, spec) == result


def _money(value: Fraction) -> str:
    cents = round(value * 100)
    return ("-" if cents < 0 else "") + f"{abs(cents) // 100}.{abs(cents) % 100:02d}"


def _trades(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    cents = round(value * 100)
    text = f"{abs(cents) // 100}.{abs(cents) % 100:02d}".rstrip("0").rstrip(".")
    return ("-" if cents < 0 else "") + text


# Euro amounts over mixed denominators, with exact half cents planted.
_cash = st.one_of(
    st.builds(Fraction, st.integers(-10**9, 10**9),
              st.sampled_from([1, 3, 49, 100, 4900, 7 * 10**5, 190000 * 343])),
    st.builds(lambda k: Fraction(2 * k + 1, 200), st.integers(-10**6, 10**6)),
)
_reports = st.builds(
    BacktestReport,
    st.sampled_from(["DAM", "BM", "DAM+BM"]),
    st.sampled_from(STRATEGY_NAMES),
    st.sampled_from(["0.5-0.5", "0.1-0.9", "average"]),
    _cash,
    st.builds(Fraction, st.integers(0, 500), st.integers(1, 8)),
    _cash,
    _cash,
    st.integers(0, 6),
    st.lists(_cash, max_size=6).map(tuple),
)


class TestReportWritersOracle:
    """The writers equal a formatter that rounds Fractions."""

    @given(st.lists(_reports, max_size=6))
    @settings(max_examples=150)
    def test_every_writer_matches_the_fraction_formatter(self, reports):
        report = ["market,strategy,pair,profit_eur,trades,pf_eur,dp_eur,windows"]
        plot = ["market,strategy,pair,mean_eur,min_eur,max_eur"]
        doc = []
        for r in reports:
            cells = [r.market, r.strategy, r.pair_label]
            report.append(",".join(cells + [
                _money(r.realized), _trades(r.trades), _money(r.pf), _money(r.dp),
                str(r.windows)]))
            if r.per_window:
                spread = (r.realized / len(r.per_window), min(r.per_window),
                          max(r.per_window))
            else:
                spread = (Fraction(0),) * 3
            plot.append(",".join(cells + [_money(v) for v in spread]))
            doc.append({
                "market": r.market, "strategy": r.strategy, "pair": r.pair_label,
                "profit_eur": _money(r.realized), "trades": _trades(r.trades),
                "pf_eur": _money(r.pf), "dp_eur": _money(r.dp), "windows": r.windows,
                "window_profits_eur": [_money(w) for w in r.per_window],
            })
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            write_report_csv(out / "report.csv", reports)
            write_plot_csv(out / "plot.csv", reports)
            write_report_json(out / "report.json", reports)
            assert (out / "report.csv").read_text() == "\n".join(report) + "\n"
            assert (out / "plot.csv").read_text() == "\n".join(plot) + "\n"
            assert (out / "report.json").read_text() == (
                json.dumps(doc, indent=2, sort_keys=True) + "\n"
            )


class TestReportWriters:
    def _rows(self):
        return [
            BacktestReport(
                "DAM", "TS3", "0.5-0.5",
                Fraction(1460, 49), Fraction(8), Fraction("149.25"),
                Fraction("149.6"), 4,
                (Fraction(10), Fraction("19.7959183673469387755102040816"
                                        "3265306122448979591836734693877551")),
            )
        ]

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, self._rows())
        lines = path.read_text().splitlines()
        assert lines[0] == "market,strategy,pair,profit_eur,trades,pf_eur,dp_eur,windows"
        assert lines[1] == "DAM,TS3,0.5-0.5,29.80,8,149.25,149.60,4"

    def test_fractional_trades_rounded(self, tmp_path):
        row = BacktestReport(
            "BM", "TS3", "average", Fraction(0), Fraction(116, 7),
            Fraction(0), Fraction(0), 12,
        )
        path = tmp_path / "report.csv"
        write_report_csv(path, [row])
        assert ",16.57," in path.read_text().splitlines()[1]

    def test_json_document(self, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(path, self._rows())
        text = path.read_text()
        assert '"profit_eur": "29.80"' in text
        assert '"window_profits_eur"' in text

    def test_plot_csv_spread(self, tmp_path):
        path = tmp_path / "plot.csv"
        write_plot_csv(path, self._rows())
        lines = path.read_text().splitlines()
        assert lines[0] == "market,strategy,pair,mean_eur,min_eur,max_eur"
        assert lines[1] == "DAM,TS3,0.5-0.5,14.90,10.00,19.80"
