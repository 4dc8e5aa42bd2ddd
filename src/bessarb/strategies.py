"""Trading strategies driven by quantile price forecasts.

All strategies share one idea: pick a buy period and a sell period from a
forecast window, price the buy leg at an upper quantile and the sell leg at
a lower one, and trade only when the efficiency-adjusted spread is still
positive under that pessimistic pricing.

Volumes are clipped against a committed wall-clock charge trajectory, so a
finished schedule always replays cleanly against the battery bounds no
matter in which order the strategy discovered its trades.  Every strategy
starts from the spec's initial_charge.

TS3 is one body over a horizon (_ts3_legs): a work list over an ordered
list of index ranges, on one charge path of the horizon's events, a plain
list of the charge after each event.  On one window the list is the
window, whole.  On a day-ahead window and its balancing window (the
dual-market scheduler) it is the balancing window alone, or, once the best
day-ahead pair has traded, the balancing slots outside that pair's span
and the day-ahead hours inside it.  TS3 sizes each pair with one rule,
_execute_pair; bottleneck_execute runs that rule on a two-slot path.

Every strategy finds its pairs through one of two integer scans:
_scan_ordered (buy before sell, for TS1 and TS2) and _scan_unordered
(either order, for TS3).  A scan reads one buy curve and one sell curve
per window (_Curves), integers over one scale, weighed by the battery's
efficiencies (cash_weights, worked out once per run), so a spread
compares, ties and signs exactly as the exact fraction does.  The bodies
take curves, not forecasts: _curves turns a forecast and a quantile pair
into curves (QuantileForecast.repaired_curve repairs each curve once), and
perfect foresight gives a window's settled prices as both curves.

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

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Sequence

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


class _Curves(NamedTuple):
    """One window's buy and sell curves for one battery: what a strategy reads.

    buy and sell are prices as integers over one scale L, so curve[t] / L
    is the exact price: a forecast's repaired quantile curves for one pair
    (_curves), or the settled prices as both curves (perfect foresight).
    With the leg weights w_buy and w_sell of BatterySpec.cash_weights,
    w_sell * sell[j] - w_buy * buy[i] is the spread
    discharge_eff*S_j - B_i/charge_eff times a positive constant.  So
    argmax, ties and sign are those of the exact spread, over any scale.
    """

    buy: tuple[int, ...]
    sell: tuple[int, ...]
    w_buy: int
    w_sell: int


def _curves(
    forecast: QuantileForecast, pair: QuantilePair, weights: tuple[int, int, int]
) -> _Curves:
    """The pair's curves of the forecast, weighed by the battery's
    cash_weights, worked out once by the caller's run."""
    return _Curves(
        forecast.repaired_curve(pair.buy_level),
        forecast.repaired_curve(pair.sell_level),
        weights[0],
        weights[1],
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
    if curves.w_sell * high <= curves.w_buy * low:
        return None
    i_buy, i_sell = buy.index(low), sell.index(high)
    if i_buy == i_sell:
        return None
    return lo + i_buy, lo + i_sell


def bottleneck_execute(
    candidate: CandidatePair,
    state: BatteryState,
    spec: BatterySpec,
) -> tuple[TradeOrder | None, TradeOrder | None, BatteryState]:
    """Size a two-leg trade from `state` as the strategies size their pairs.

    This is _execute_pair on a two-slot path that starts at `state`,
    slots in period order, with stock buys allowed: the earlier leg is
    sized first, the later one from the charge it leaves behind, each
    within the ramp, the capacity and the floor.  A leg sized to nothing
    is returned as None.
    """
    if candidate.buy_period == candidate.sell_period:
        raise InvalidPair("buy and sell must use different periods")
    path = ChargeTimeline(replace(spec, initial_charge=state.charge), 2).path()
    buy_first = candidate.buy_period < candidate.sell_period
    x_buy, x_sell = _execute_pair(path, int(not buy_first), int(buy_first), spec, True)
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
    path: list[int],
    i_buy: int,
    i_sell: int,
    spec: BatterySpec,
    allow_stock_buys: bool,
) -> tuple[int, int]:
    """Size and commit one candidate pair on a charge path; its (buy, sell) ticks.

    path[i] is the committed charge after slot i's trade.  Legs are sized
    against it in wall-clock order.  A buy that a later sell of the same
    pair undoes only needs headroom until that sell; every other leg must
    clear the whole committed future.  A sell-first pair with nothing to
    sell trades nothing, unless stock buys are allowed.  (0, 0) when
    nothing trades: a buy-first pair's sell is never smaller than its buy.

    Each headroom is one min or max over a slice of the path.  The earlier
    leg moves the slots up to the later one, and both legs together move
    the slots from the later one on: one slice assignment each.
    """
    ramp = spec.ramp
    if i_buy < i_sell:
        x_buy = spec.capacity - max(path[i_buy:i_sell])
        x_buy = x_buy if x_buy < ramp else ramp
        x_sell = min(path[i_sell:]) + x_buy - spec.min_charge
        x_sell = x_sell if x_sell < ramp else ramp
        first, second, moved = i_buy, i_sell, x_buy
    else:
        x_sell = min(path[i_sell:]) - spec.min_charge
        x_sell = x_sell if x_sell < ramp else ramp
        if x_sell == 0 and not allow_stock_buys:
            return 0, 0
        x_buy = spec.capacity - max(path[i_buy:]) + x_sell
        x_buy = x_buy if x_buy < ramp else ramp
        first, second, moved = i_sell, i_buy, -x_sell
    if moved:
        path[first:second] = [c + moved for c in path[first:second]]
    net = x_buy - x_sell
    if net:
        path[second:] = [c + net for c in path[second:]]
    return x_buy, x_sell


def _run_worklist(
    path: list[int],
    curves: _Curves,
    lo: int,
    hi: int,
    instants: Sequence[int],
    legs: list,
    spec: BatterySpec,
    allow_stock_buys: bool,
) -> None:
    """Breadth-first pair extraction over index ranges of one curve pair.

    Walks a list of ranges that grows as it is walked, so ranges are taken
    in the order they were queued.  Trades a range's cheapest-buy/dearest-
    sell pair if one exists, then queues the sub-ranges either side of and
    between the two consumed periods.  Only ranges of two or more periods
    are queued: a shorter one holds no pair.  A range without a candidate
    is dropped whole: every sub-range of an unprofitable range is itself
    unprofitable.  instants[t] is period t's slot on the charge path.  Legs
    are appended in the order they trade.
    """
    work = [(lo, hi)] if lo < hi else []
    for a, b in work:
        found = _scan_unordered(curves, a, b)
        if found is None:
            continue
        t_buy, t_sell = found
        x_buy, x_sell = _execute_pair(
            path, instants[t_buy], instants[t_sell], spec, allow_stock_buys
        )
        _emit(legs, t_buy, x_buy, t_sell, x_sell)
        first, second = (t_buy, t_sell) if t_buy < t_sell else (t_sell, t_buy)
        if first - a > 1:
            work.append((a, first - 1))
        if second - first > 2:
            work.append((first + 1, second - 1))
        if b - second > 1:
            work.append((second + 1, b))


# Each body takes one _Curves per window: a forecast's pair of quantile
# curves (_curves), or the settled prices as both curves (perfect foresight).

def _ts1_legs(curves: _Curves, spec: BatterySpec) -> tuple:
    found = _scan_ordered(curves, 0, len(curves.buy) - 1)
    volume = min(spec.ramp, spec.capacity - spec.initial_charge)
    if found is None or not volume:
        return ()
    t_buy, t_sell = found
    return (t_buy, volume), (t_sell, -volume)


def _ts2_legs(curves: _Curves, spec: BatterySpec) -> tuple:
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
        recurse(0, len(curves.buy) - 1)
    return tuple(legs)


def _ts3_legs(
    horizon: Horizon,
    curves: Sequence[_Curves],
    spec: BatterySpec,
    allow_stock_buys: bool,
) -> tuple[tuple, ...]:
    """TS3 over a horizon: one sorted leg tuple per window.

    Every window's pairs clip against one charge path over the horizon's
    events.  The work list runs over an ordered list of (window, lo, hi)
    ranges: the last window, whole, unless a dual horizon's best day-ahead
    pair (the anchor) trades.  Then the balancing slots before the anchor
    span come first, those after it next, and the day-ahead hours inside it
    last.
    """
    path = [spec.initial_charge] * len(horizon.events)
    runs = [(c, instants, []) for c, instants in zip(curves, horizon.instants)]
    last = len(runs) - 1
    ranges = [(last, 0, horizon.windows[last].period_count - 1)]
    if last:
        dam, bm = horizon.windows
        dam_curves, instants, legs = runs[0]
        anchor = _scan_unordered(dam_curves, 0, dam.period_count - 1)
        if anchor is not None:
            t_buy, t_sell = anchor
            x_buy, x_sell = _execute_pair(
                path, instants[t_buy], instants[t_sell], spec, allow_stock_buys
            )
            _emit(legs, t_buy, x_buy, t_sell, x_sell)
        if legs:  # the anchor traded
            lo, hi = sorted(anchor)
            # balancing slot s falls inside day-ahead hour s // r
            r = dam.market.period_seconds // bm.market.period_seconds
            n = bm.period_count
            ranges = [
                (1, 0, min(lo * r, n) - 1),
                (1, (hi + 1) * r, n - 1),
                (0, lo + 1, hi - 1),
            ]
    for w, lo, hi in ranges:
        window_curves, instants, legs = runs[w]
        _run_worklist(path, window_curves, lo, hi, instants, legs, spec, allow_stock_buys)
    return tuple(tuple(sorted(legs)) for _, _, legs in runs)


def _trade_legs(
    horizon: Horizon,
    curves: Sequence[_Curves],
    strategy: str,
    spec: BatterySpec,
    allow_stock_buys: bool,
) -> tuple[tuple, ...]:
    """The strategy's legs over a horizon, one checked tuple per window.

    curves holds one _Curves per window of the horizon, a forecast's or the
    settled prices'.  TS3 trades any horizon; TS1 and TS2 trade one window.
    """
    if strategy == "TS3":
        legs = _ts3_legs(horizon, curves, spec, allow_stock_buys)
    elif len(curves) > 1:
        raise ConfigError("dual-market backtests use strategy TS3")
    elif strategy in ("TS1", "TS2"):
        run = _ts1_legs if strategy == "TS1" else _ts2_legs
        legs = (run(curves[0], spec),)
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")
    for window, window_legs in zip(horizon.windows, legs):
        _check_legs(window_legs, window.period_count, strategy)
    return legs


# --- public strategies ------------------------------------------------------

def ts1(
    forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
) -> Schedule:
    """Trade only the single best buy-before-sell pair of the window."""
    legs = _ts1_legs(_curves(forecast, pair, spec.cash_weights()), spec)
    return _schedule(forecast, "TS1", pair, legs)


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
    legs = _ts2_legs(_curves(forecast, pair, spec.cash_weights()), spec)
    return _schedule(forecast, "TS2", pair, legs)


def ts3(
    forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
    allow_stock_buys: bool = False,
) -> Schedule:
    """Work-list strategy: bottleneck-execute min/max pairs range by range."""
    (legs,) = _ts3_legs(
        Horizon((forecast.window,)), (_curves(forecast, pair, spec.cash_weights()),),
        spec, allow_stock_buys,
    )
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
    if (dam_forecast.window, bm_forecast.window) != horizon.windows:
        raise WindowMismatch("forecast windows do not match the horizon")
    weights = spec.cash_weights()
    dam_legs, bm_legs = _ts3_legs(
        horizon, (_curves(dam_forecast, pair, weights), _curves(bm_forecast, pair, weights)),
        spec, allow_stock_buys,
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
