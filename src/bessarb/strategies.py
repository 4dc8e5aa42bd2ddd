"""Trading strategies driven by quantile price forecasts.

All strategies share one idea: pick a buy period and a sell period from a
forecast window, price the buy leg at an upper quantile and the sell leg at
a lower one, and trade only when the efficiency-adjusted spread is still
positive under that pessimistic pricing.

Volumes are clipped against a committed wall-clock charge trajectory, so a
finished schedule always replays cleanly against the battery bounds no
matter in which order the strategy discovered its trades.  Every strategy
starts from the spec's initial_charge.  TS3 and the dual-market scheduler
size each pair with one rule, _execute_pair; bottleneck_execute runs that
rule on a two-slot timeline.

Every strategy finds its pairs through one of two integer scans:
_scan_ordered (buy before sell, for TS1 and TS2) and _scan_unordered
(either order, for TS3 and the dual-market scheduler).  A forecast holds
its values as integers over one scale and repairs its curves once
(QuantileForecast.repaired_curve); each strategy run weighs them by the
battery's efficiencies, so a spread compares, ties and signs exactly as
the exact fraction does.

Each strategy body returns a window's legs: (period, signed ticks)
integer pairs in period order, positive for a buy and negative for a sell.
A sweep checks and settles those legs as they are (_trade_legs).  Only
where a reader wants orders (the public ts1, ts2, ts3 and ts3_dual, and the
schedules backtest writes) does _schedule turn legs into TradeOrders, each
priced at its curve's exact forecast: that is where a Fraction is built.
Schedule checks its orders with the rule that checks a sweep's legs
(_check_legs).  schedule_to_dict formats a schedule's orders, for the JSON
and CSV files alike.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from bessarb._numeric import (
    TICKS_PER_MWH,
    decimal_formatter,
    exact,
    exact_text,
    parse_number,
)
from bessarb.battery import BatterySpec, BatteryState, ChargeTimeline
from bessarb.errors import ConfigError, InvalidPair, WindowMismatch
from bessarb.market import (
    Horizon,
    QuantileForecast,
    TradingWindow,
    timestamp_formatter,
)


class Side(str, Enum):
    BUY = "buy"
    SELL = "sell"


@dataclass(frozen=True, slots=True)
class QuantilePair:
    """Quantile levels used to price the two legs of a trade.

    The sell leg is priced at the lower level and the buy leg at the upper
    one, so the decision spread under-states the median expectation.
    """

    sell_level: Fraction
    buy_level: Fraction

    def __post_init__(self) -> None:
        for name in ("sell_level", "buy_level"):
            raw = getattr(self, name)
            lv = exact(raw)
            if not 0 < lv < 1:
                raise InvalidPair(f"{name} {raw} outside (0, 1)")
            object.__setattr__(self, name, lv)
        if self.sell_level > self.buy_level:
            raise InvalidPair(
                f"sell level {self.sell_level} above buy level {self.buy_level}"
            )

    @classmethod
    def parse(cls, text: str) -> "QuantilePair":
        parts = text.split(":")
        if len(parts) != 2:
            raise InvalidPair(f"expected sell:buy, got {text!r}")
        try:
            sell, buy = (parse_number(p.strip()) for p in parts)
        except ConfigError as exc:
            raise InvalidPair(f"{exc}: {text!r}") from None
        except (ValueError, ZeroDivisionError):
            raise InvalidPair(f"bad quantile level in {text!r}") from None
        return cls(sell, buy)

    @property
    def label(self) -> str:
        return f"{exact_text(self.sell_level)}-{exact_text(self.buy_level)}"


MEDIAN_PAIR = QuantilePair(Fraction(1, 2), Fraction(1, 2))

DEFAULT_PAIRS = tuple(
    QuantilePair.parse(text)
    for text in (
        "0.5:0.5",
        "0.1:0.3",
        "0.3:0.5",
        "0.5:0.7",
        "0.7:0.9",
        "0.3:0.7",
        "0.1:0.9",
    )
)


@dataclass(frozen=True, slots=True)
class TradeOrder:
    period: int
    side: Side
    volume_ticks: int
    expected_price: Fraction

    def __post_init__(self) -> None:
        # "buy" is Side.BUY; a side that is neither raises ValueError
        object.__setattr__(self, "side", Side(self.side))

    @property
    def signed_ticks(self) -> int:
        return self.volume_ticks if self.side is Side.BUY else -self.volume_ticks


@dataclass(frozen=True, slots=True)
class Schedule:
    """Orders for one window, at most one per period, in period order."""

    window: TradingWindow
    strategy: str
    pair: QuantilePair
    orders: tuple[TradeOrder, ...]

    def __post_init__(self) -> None:
        # a non-positive volume goes in as an empty leg, which the check refuses
        _check_legs(
            [(o.period, o.signed_ticks if o.volume_ticks > 0 else 0) for o in self.orders],
            self.window.period_count,
            self.strategy,
        )

    @property
    def trade_count(self) -> int:
        return len(self.orders)


@dataclass(frozen=True, slots=True)
class CandidatePair:
    buy_period: int
    sell_period: int
    buy_price: Fraction
    sell_price: Fraction
    expected_spread: Fraction

    @classmethod
    def of(
        cls,
        spec: BatterySpec,
        buy_period: int,
        sell_period: int,
        buy_price: Fraction,
        sell_price: Fraction,
    ) -> "CandidatePair":
        spread = _spread(spec, buy_price, sell_price)
        return cls(buy_period, sell_period, buy_price, sell_price, spread)


def _spread(spec: BatterySpec, buy_price: Fraction, sell_price: Fraction) -> Fraction:
    return spec.discharge_eff * sell_price - buy_price / spec.charge_eff


@dataclass(frozen=True, slots=True)
class _Curves:
    """A forecast's buy and sell curves for one quantile pair and battery.

    buy and sell are the repaired quantile curves as integers over the
    forecast's scale L, so curve[t] / L is the exact price.  With the leg
    weights w_buy and w_sell of BatterySpec.cash_weights,
    w_sell * sell[j] - w_buy * buy[i] is the spread
    discharge_eff*S_j - B_i/charge_eff times a positive constant.  So
    argmax, ties and sign are those of the exact spread.
    """

    buy: tuple[int, ...]
    sell: tuple[int, ...]
    w_buy: int
    w_sell: int



def _curves(forecast: QuantileForecast, pair: QuantilePair, spec: BatterySpec) -> _Curves:
    w_buy, w_sell, _ = spec.cash_weights()
    return _Curves(
        forecast.repaired_curve(pair.buy_level),
        forecast.repaired_curve(pair.sell_level),
        w_buy,
        w_sell,
    )


def _scan_ordered(curves: _Curves, lo: int, hi: int) -> tuple[int, int] | None:
    """(buy, sell) of the best buy-strictly-before-sell pair in [lo, hi].

    Single pass carrying the cheapest buy seen so far.  Ties prefer the
    earliest buy period, then the earliest sell period.  Returns None when
    the range has fewer than two periods or the best efficiency-adjusted
    spread is not positive.
    """
    if hi - lo < 1:
        return None
    buy, sell, w_sell = curves.buy, curves.sell, curves.w_sell
    best = None
    cheap_t, cheap = lo, buy[lo]
    cost = curves.w_buy * cheap
    for t in range(lo + 1, hi + 1):
        spread = w_sell * sell[t] - cost
        if best is None or spread > best[0]:
            best = (spread, cheap_t, t)
        if buy[t] < cheap:
            cheap_t, cheap = t, buy[t]
            cost = curves.w_buy * cheap
    return best[1:] if best[0] > 0 else None


def _scan_unordered(curves: _Curves, lo: int, hi: int) -> tuple[int, int] | None:
    """(buy, sell) of the cheapest buy and dearest sell in [lo, hi], either order.

    Ties prefer the earliest period on both curves.  Returns None when the
    range has fewer than two periods, when both extremes land on the same
    period, or when the efficiency-adjusted spread is not positive.
    """
    if hi - lo < 1:
        return None
    buy = curves.buy[lo:hi + 1]
    sell = curves.sell[lo:hi + 1]
    low, high = min(buy), max(sell)
    i_buy, i_sell = buy.index(low), sell.index(high)
    if i_buy == i_sell or curves.w_sell * high <= curves.w_buy * low:
        return None
    return lo + i_buy, lo + i_sell


def bottleneck_execute(
    candidate: CandidatePair,
    state: BatteryState,
    spec: BatterySpec,
) -> tuple[TradeOrder | None, TradeOrder | None, BatteryState]:
    """Size a two-leg trade from `state` as the strategies size their pairs.

    This is _execute_pair on a two-slot timeline that starts at `state`,
    slots in period order, with stock buys allowed: the earlier leg is
    sized first, the later one from the charge it leaves behind, each
    within the ramp, the capacity and the floor.  A leg sized to nothing
    is returned as None.
    """
    if candidate.buy_period == candidate.sell_period:
        raise InvalidPair("buy and sell must use different periods")
    timeline = ChargeTimeline(replace(spec, initial_charge=state.charge), 2)
    buy_first = candidate.buy_period < candidate.sell_period
    x_buy, x_sell = _execute_pair(timeline, int(not buy_first), int(buy_first), True)
    buy = (
        TradeOrder(candidate.buy_period, Side.BUY, x_buy, candidate.buy_price)
        if x_buy > 0
        else None
    )
    sell = (
        TradeOrder(candidate.sell_period, Side.SELL, x_sell, candidate.sell_price)
        if x_sell > 0
        else None
    )
    return buy, sell, BatteryState(state.charge + x_buy - x_sell)


# --- strategy internals ----------------------------------------------------
# A leg is (period, signed ticks): a buy of that many ticks when positive, a
# sell when negative.  Each body below returns a window's legs in period order.

def _check_legs(legs: Sequence[tuple[int, int]], period_count: int, strategy: str) -> None:
    """Raise WindowMismatch unless the legs form one window's schedule.

    Each period lies inside the window, periods strictly ascend, and no leg
    is empty; then TS1 and TS2 legs must alternate buy, sell, buy, ...
    Schedule checks its orders with this rule, and the sweep its legs.
    """
    last = -1
    for period, signed in legs:
        if not 0 <= period < period_count:
            raise WindowMismatch(f"order period {period} outside window")
        if period <= last:
            raise WindowMismatch("orders must have strictly ascending periods")
        if not signed:
            raise WindowMismatch("orders must have positive volume")
        last = period
    # pair-stacking strategies always alternate buy, sell, buy, ...
    if strategy in ("TS1", "TS2") and (
        any(signed < 0 for _, signed in legs[::2])
        or any(signed > 0 for _, signed in legs[1::2])
    ):
        raise WindowMismatch(f"{strategy} orders must alternate buy/sell")


def _schedule(
    forecast: QuantileForecast,
    strategy: str,
    pair: QuantilePair,
    legs: Sequence[tuple[int, int]],
) -> Schedule:
    """The window's legs as orders, each priced at its curve's exact forecast."""
    buy = forecast.repaired_curve(pair.buy_level)
    sell = forecast.repaired_curve(pair.sell_level)
    scale = forecast.scale
    return Schedule(forecast.window, strategy, pair, tuple(
        TradeOrder(period, Side.BUY, signed, Fraction(buy[period], scale))
        if signed > 0
        else TradeOrder(period, Side.SELL, -signed, Fraction(sell[period], scale))
        for period, signed in legs
    ))


def _emit(legs: list, t_buy: int, x_buy: int, t_sell: int, x_sell: int) -> None:
    """Append a sized pair's legs, leaving out a leg sized to nothing."""
    if x_buy:
        legs.append((t_buy, x_buy))
    if x_sell:
        legs.append((t_sell, -x_sell))


def _execute_pair(
    timeline: ChargeTimeline,
    i_buy: int,
    i_sell: int,
    allow_stock_buys: bool,
) -> tuple[int, int]:
    """Size and commit one candidate pair; its (buy, sell) ticks.

    Legs are sized against the committed trajectory in wall-clock order.  A
    buy that a later sell of the same pair undoes only needs headroom until
    that sell; every other leg must clear the whole committed future.  A
    sell-first pair with nothing to sell trades nothing, unless stock buys
    are allowed.  (0, 0) when nothing trades: a buy-first pair's sell is
    never smaller than its buy.
    """
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


def _run_worklist(
    timeline: ChargeTimeline,
    curves: _Curves,
    lo: int,
    hi: int,
    instants: Sequence[int],
    legs: list,
    allow_stock_buys: bool,
) -> None:
    """Breadth-first pair extraction over index ranges of one curve pair.

    Pops a range, trades its cheapest-buy/dearest-sell pair if one exists,
    then requeues the sub-ranges either side of and between the two consumed
    periods.  A range without a candidate is dropped whole: every sub-range
    of an unprofitable range is itself unprofitable.  instants[t] is period
    t's slot on the timeline.  Legs are appended in the order they trade.
    """
    work = deque()
    if lo <= hi:
        work.append((lo, hi))
    while work:
        a, b = work.popleft()
        found = _scan_unordered(curves, a, b)
        if found is None:
            continue
        t_buy, t_sell = found
        x_buy, x_sell = _execute_pair(
            timeline, instants[t_buy], instants[t_sell], allow_stock_buys
        )
        _emit(legs, t_buy, x_buy, t_sell, x_sell)
        first, second = min(t_buy, t_sell), max(t_buy, t_sell)
        work.append((a, first - 1))
        work.append((first + 1, second - 1))
        work.append((second + 1, b))


def _ts1_legs(forecast: QuantileForecast, pair: QuantilePair, spec: BatterySpec) -> tuple:
    found = _scan_ordered(
        _curves(forecast, pair, spec), 0, forecast.window.period_count - 1
    )
    volume = min(spec.ramp, spec.capacity - spec.initial_charge)
    if found is None or not volume:
        return ()
    t_buy, t_sell = found
    return (t_buy, volume), (t_sell, -volume)


def _ts2_legs(forecast: QuantileForecast, pair: QuantilePair, spec: BatterySpec) -> tuple:
    curves = _curves(forecast, pair, spec)
    volume = min(spec.ramp, spec.capacity - spec.initial_charge)
    legs: list = []

    def recurse(lo: int, hi: int) -> None:
        # the periods before a pair's buy, the pair, then those after its
        # sell: the legs come out in period order
        found = _scan_ordered(curves, lo, hi)
        if found is None:
            return
        t1, t2 = found
        recurse(lo, t1 - 1)
        legs.append((t1, volume))
        legs.append((t2, -volume))
        recurse(t2 + 1, hi)

    if volume:
        recurse(0, forecast.window.period_count - 1)
    return tuple(legs)


def _ts3_legs(
    forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
    allow_stock_buys: bool,
) -> tuple:
    n = forecast.window.period_count
    legs: list = []
    _run_worklist(
        ChargeTimeline(spec, n), _curves(forecast, pair, spec), 0, n - 1, range(n),
        legs, allow_stock_buys,
    )
    return tuple(sorted(legs))


def _ts3_dual_legs(
    horizon: Horizon,
    dam_forecast: QuantileForecast,
    bm_forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
    allow_stock_buys: bool,
) -> tuple[tuple, tuple]:
    dam, bm = horizon.windows
    if dam_forecast.window != dam or bm_forecast.window != bm:
        raise WindowMismatch("forecast windows do not match the horizon")
    dam_curves = _curves(dam_forecast, pair, spec)
    bm_curves = _curves(bm_forecast, pair, spec)
    dam_instants, bm_instants = horizon.instants
    timeline = ChargeTimeline(spec, len(horizon.events))
    dam_legs: list = []
    bm_legs: list = []
    n_bm = bm.period_count

    def run_bm(lo: int, hi: int) -> None:
        _run_worklist(
            timeline, bm_curves, lo, hi, bm_instants, bm_legs, allow_stock_buys
        )

    anchor = _scan_unordered(dam_curves, 0, dam.period_count - 1)
    executed = False
    if anchor is not None:
        t_buy, t_sell = anchor
        x_buy, x_sell = _execute_pair(
            timeline, dam_instants[t_buy], dam_instants[t_sell], allow_stock_buys
        )
        _emit(dam_legs, t_buy, x_buy, t_sell, x_sell)
        executed = x_buy > 0 or x_sell > 0
        if executed:
            span_lo, span_hi = min(t_buy, t_sell), max(t_buy, t_sell)
            # balancing slot s falls inside day-ahead hour s // r
            r = dam.market.period_seconds // bm.market.period_seconds
            run_bm(0, min(span_lo * r, n_bm) - 1)
            run_bm((span_hi + 1) * r, n_bm - 1)
            _run_worklist(
                timeline, dam_curves, span_lo + 1, span_hi - 1, dam_instants,
                dam_legs, allow_stock_buys,
            )
    if not executed:
        run_bm(0, n_bm - 1)
    return tuple(sorted(dam_legs)), tuple(sorted(bm_legs))


def _trade_legs(
    horizon: Horizon,
    forecasts: Sequence[QuantileForecast],
    strategy: str,
    pair: QuantilePair,
    spec: BatterySpec,
    allow_stock_buys: bool,
) -> tuple[tuple, ...]:
    """The strategy's legs over a horizon, one checked tuple per window.

    One forecast trades TS1, TS2 or TS3; a day-ahead and a balancing
    forecast trade the dual-market scheduler, TS3.
    """
    if len(forecasts) > 1:
        if strategy != "TS3":
            raise ConfigError("dual-market backtests use strategy TS3")
        legs = _ts3_dual_legs(horizon, *forecasts, pair, spec, allow_stock_buys)
    else:
        (forecast,) = forecasts
        if strategy == "TS3":
            legs = (_ts3_legs(forecast, pair, spec, allow_stock_buys),)
        elif strategy in ("TS1", "TS2"):
            run = _ts1_legs if strategy == "TS1" else _ts2_legs
            legs = (run(forecast, pair, spec),)
        else:
            raise ConfigError(f"unknown strategy {strategy!r}")
    for forecast, window_legs in zip(forecasts, legs):
        _check_legs(window_legs, forecast.window.period_count, strategy)
    return legs


# --- public strategies ------------------------------------------------------

def ts1(
    forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
) -> Schedule:
    """Trade only the single best buy-before-sell pair of the window."""
    return _schedule(forecast, "TS1", pair, _ts1_legs(forecast, pair, spec))


def ts2(
    forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
) -> Schedule:
    """Recursively stack best ordered pairs outside each chosen span.

    After accepting a pair, only the periods strictly before its buy and
    strictly after its sell are searched again, so all spans are disjoint
    and each one returns the battery to its starting charge.
    """
    return _schedule(forecast, "TS2", pair, _ts2_legs(forecast, pair, spec))


def ts3(
    forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
    allow_stock_buys: bool = False,
) -> Schedule:
    """Work-list strategy: bottleneck-execute min/max pairs range by range."""
    legs = _ts3_legs(forecast, pair, spec, allow_stock_buys)
    return _schedule(forecast, "TS3", pair, legs)


def ts3_dual(
    horizon: Horizon,
    dam_forecast: QuantileForecast,
    bm_forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
    allow_stock_buys: bool = False,
) -> tuple[Schedule, Schedule]:
    """Work-list strategy across a day-ahead window and its balancing slots.

    The best hourly min/max pair anchors the day; balancing slots that close
    strictly before the anchor span trade first, then those strictly after,
    then the hours inside the span.  Every volume clips against one shared
    trajectory so the combined schedule replays cleanly.  Without a
    profitable anchor the balancing window is traded alone.
    """
    dam_legs, bm_legs = _ts3_dual_legs(
        horizon, dam_forecast, bm_forecast, pair, spec, allow_stock_buys
    )
    return (
        _schedule(dam_forecast, "TS3", pair, dam_legs),
        _schedule(bm_forecast, "TS3", pair, bm_legs),
    )


# --- serialization ----------------------------------------------------------

def write_schedule_csv(path: str | Path, schedule: Schedule) -> None:
    """One row per order: the fields of schedule_to_dict, in its key order."""
    lines = ["period_index,timestamp,side,volume_mwh,expected_price"]
    lines += [
        ",".join(map(str, order.values()))
        for order in schedule_to_dict(schedule)["orders"]
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def schedule_to_dict(schedule: Schedule, spec: BatterySpec | None = None) -> dict:
    window = schedule.window
    stamp = timestamp_formatter()
    volume = decimal_formatter(TICKS_PER_MWH)
    doc = {
        "market": window.market.value,
        "window_start": stamp(window.start_epoch_s),
        "strategy": schedule.strategy,
        "pair": schedule.pair.label,
        "orders": [
            {
                "period": o.period,
                "timestamp": stamp(window.timestamp_of(o.period)),
                "side": o.side.value,
                "volume_mwh": volume(o.volume_ticks),
                "expected_price": exact_text(o.expected_price),
            }
            for o in schedule.orders
        ],
    }
    if spec is not None:
        doc["battery_digest"] = spec.digest()
    return doc
