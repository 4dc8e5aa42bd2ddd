"""Trading strategies driven by quantile price forecasts.

All strategies share one idea: pick a buy period and a sell period from a
forecast window, price the buy leg at an upper quantile and the sell leg at
a lower one, and trade only when the efficiency-adjusted spread is still
positive under that pessimistic pricing.

Volumes are clipped against a committed wall-clock charge trajectory, so a
finished schedule always replays cleanly against the battery bounds no
matter in which order the strategy discovered its trades.

Pair scans compare plain integers.  A forecast holds its values as
integers over one scale and repairs its curves once (QuantileForecast.
repaired_curve); each strategy run weighs them by the battery's
efficiencies, so a spread compares, ties and signs exactly as the exact
fraction does.  Orders keep the exact forecast prices, built as Fractions
only for the orders placed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Callable

from bessarb._numeric import format_decimal, ticks_to_mwh
from bessarb.battery import BatterySpec, BatteryState, ChargeTimeline, start_charge
from bessarb.errors import InvalidPair, WindowMismatch
from bessarb.market import (
    Horizon,
    QuantileForecast,
    TradingWindow,
    format_timestamp,
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
            lv = raw if isinstance(raw, Fraction) else Fraction(str(raw))
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
            sell, buy = (Fraction(p.strip()) for p in parts)
        except (ValueError, ZeroDivisionError):
            raise InvalidPair(f"bad quantile level in {text!r}") from None
        return cls(sell, buy)

    @property
    def label(self) -> str:
        return f"{format_decimal(self.sell_level)}-{format_decimal(self.buy_level)}"


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

    @property
    def volume_mwh(self) -> Fraction:
        return ticks_to_mwh(self.volume_ticks)

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
        last = -1
        for order in self.orders:
            if not 0 <= order.period < self.window.period_count:
                raise WindowMismatch(
                    f"order period {order.period} outside window"
                )
            if order.period <= last:
                raise WindowMismatch("orders must have strictly ascending periods")
            if order.volume_ticks <= 0:
                raise WindowMismatch("orders must have positive volume")
            last = order.period
        if self.strategy in ("TS1", "TS2"):
            # pair-stacking strategies always alternate buy, sell, buy, ...
            for i, order in enumerate(self.orders):
                want = Side.BUY if i % 2 == 0 else Side.SELL
                if order.side is not want:
                    raise WindowMismatch(
                        f"{self.strategy} orders must alternate buy/sell"
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
    scale: int
    w_buy: int
    w_sell: int



def _curves(forecast: QuantileForecast, pair: QuantilePair, spec: BatterySpec) -> _Curves:
    w_buy, w_sell, _ = spec.cash_weights()
    return _Curves(
        forecast.repaired_curve(pair.buy_level),
        forecast.repaired_curve(pair.sell_level),
        forecast.scale,
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


def _bounded(forecast: QuantileForecast, lo: int, hi: int | None) -> tuple[int, int]:
    n = forecast.window.period_count
    hi = n - 1 if hi is None else hi
    if not 0 <= lo < n or not 0 <= hi < n:
        raise WindowMismatch(f"range [{lo}, {hi}] outside window of {n} periods")
    return lo, hi


def _candidate(spec: BatterySpec, curves: _Curves, t_buy: int, t_sell: int) -> CandidatePair:
    return CandidatePair.of(
        spec,
        t_buy,
        t_sell,
        Fraction(curves.buy[t_buy], curves.scale),
        Fraction(curves.sell[t_sell], curves.scale),
    )


def best_ordered_pair(
    forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
    lo: int = 0,
    hi: int | None = None,
) -> CandidatePair | None:
    """Most profitable buy-before-sell period pair of a forecast range.

    The buy leg is priced at the pair's upper quantile, the sell leg at the
    lower one.  Returns None when the range holds fewer than two periods or
    when even the best efficiency-adjusted spread is not positive.  Ties
    prefer the earliest buy period, then the earliest sell period.
    """
    lo, hi = _bounded(forecast, lo, hi)
    curves = _curves(forecast, pair, spec)
    found = _scan_ordered(curves, lo, hi)
    return None if found is None else _candidate(spec, curves, *found)


def best_unordered_pair(
    forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
    lo: int = 0,
    hi: int | None = None,
) -> CandidatePair | None:
    """Cheapest-buy / dearest-sell pair of a forecast range, either order.

    The sell may precede the buy.  Returns None when the range holds fewer
    than two periods, when the cheapest buy and dearest sell fall on the
    same period, or when the spread is not positive.  Ties prefer the
    earliest period on both legs.
    """
    lo, hi = _bounded(forecast, lo, hi)
    curves = _curves(forecast, pair, spec)
    found = _scan_unordered(curves, lo, hi)
    return None if found is None else _candidate(spec, curves, *found)


def bottleneck_execute(
    candidate: CandidatePair,
    state: BatteryState,
    spec: BatterySpec,
) -> tuple[TradeOrder | None, TradeOrder | None, BatteryState]:
    """Clip a two-leg trade against battery bounds in wall-clock order.

    The earlier leg is sized first from the given state, the later leg from
    the charge the first leg leaves behind.  Legs clip independently to the
    ramp, the capacity and the floor, so one leg may come out larger than
    the other or drop to nothing; a clipped-away leg is returned as None.
    """
    if candidate.buy_period == candidate.sell_period:
        raise InvalidPair("buy and sell must use different periods")
    charge = state.charge
    if candidate.buy_period < candidate.sell_period:
        x_buy = min(spec.ramp, spec.capacity - charge)
        charge += x_buy
        x_sell = min(spec.ramp, charge - spec.min_charge)
        charge -= x_sell
    else:
        x_sell = min(spec.ramp, charge - spec.min_charge)
        charge -= x_sell
        x_buy = min(spec.ramp, spec.capacity - charge)
        charge += x_buy
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
    return buy, sell, BatteryState(charge)


# --- strategy internals ----------------------------------------------------

@dataclass
class _Emitted:
    """Orders on one pair of curves, accumulated against one shared timeline.

    Each order carries its exact curve price, built when the order is placed.
    """

    curves: _Curves
    orders: list = field(default_factory=list)

    def add(self, period: int, side: Side, ticks: int) -> None:
        if ticks > 0:
            curves = self.curves
            curve = curves.buy if side is Side.BUY else curves.sell
            price = Fraction(curve[period], curves.scale)
            self.orders.append(TradeOrder(period, side, ticks, price))

    def sorted(self) -> tuple[TradeOrder, ...]:
        return tuple(sorted(self.orders, key=lambda o: o.period))


def _execute_pair(
    timeline: ChargeTimeline,
    t_buy: int,
    t_sell: int,
    i_buy: int,
    i_sell: int,
    out: _Emitted,
    allow_stock_buys: bool,
) -> bool:
    """Clip and commit one candidate pair; False when nothing tradeable.

    Legs are sized against the committed trajectory in wall-clock order.  A
    buy that a later sell of the same pair undoes only needs headroom until
    that sell; every other leg must clear the whole committed future.
    """
    if i_buy < i_sell:
        x_buy = timeline.max_buy_between(i_buy, i_sell)
        timeline.commit(i_buy, x_buy)
        x_sell = timeline.max_sell_from(i_sell)
        if x_sell <= 0:
            timeline.commit(i_buy, -x_buy)
            return False
        timeline.commit(i_sell, -x_sell)
        out.add(t_buy, Side.BUY, x_buy)
        out.add(t_sell, Side.SELL, x_sell)
        return True
    x_sell = timeline.max_sell_from(i_sell)
    if x_sell <= 0:
        if allow_stock_buys:
            x_buy = timeline.max_buy_from(i_buy)
            if x_buy > 0:
                timeline.commit(i_buy, x_buy)
                out.add(t_buy, Side.BUY, x_buy)
                return True
        return False
    timeline.commit(i_sell, -x_sell)
    x_buy = timeline.max_buy_from(i_buy)
    timeline.commit(i_buy, x_buy)
    out.add(t_sell, Side.SELL, x_sell)
    out.add(t_buy, Side.BUY, x_buy)
    return True


def _run_worklist(
    timeline: ChargeTimeline,
    curves: _Curves,
    lo: int,
    hi: int,
    instant_of: Callable[[int], int],
    out: _Emitted,
    allow_stock_buys: bool,
) -> None:
    """Breadth-first pair extraction over index ranges of one curve pair.

    Pops a range, trades its cheapest-buy/dearest-sell pair if one exists,
    then requeues the sub-ranges either side of and between the two consumed
    periods.  A range without a candidate is dropped whole: every sub-range
    of an unprofitable range is itself unprofitable.
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
        _execute_pair(
            timeline,
            t_buy,
            t_sell,
            instant_of(t_buy),
            instant_of(t_sell),
            out,
            allow_stock_buys,
        )
        first, second = min(t_buy, t_sell), max(t_buy, t_sell)
        work.append((a, first - 1))
        work.append((first + 1, second - 1))
        work.append((second + 1, b))


# --- public strategies ------------------------------------------------------

def ts1(
    forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
    initial_charge: int | None = None,
) -> Schedule:
    """Trade only the single best buy-before-sell pair of the window."""
    curves = _curves(forecast, pair, spec)
    start = start_charge(spec, initial_charge)
    out = _Emitted(curves)
    found = _scan_ordered(curves, 0, forecast.window.period_count - 1)
    if found is not None:
        t_buy, t_sell = found
        volume = min(spec.ramp, spec.capacity - start)
        out.add(t_buy, Side.BUY, volume)
        out.add(t_sell, Side.SELL, volume)
    return Schedule(forecast.window, "TS1", pair, out.sorted())


def ts2(
    forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
    initial_charge: int | None = None,
) -> Schedule:
    """Recursively stack best ordered pairs outside each chosen span.

    After accepting a pair, only the periods strictly before its buy and
    strictly after its sell are searched again, so all spans are disjoint
    and each one returns the battery to its starting charge.
    """
    curves = _curves(forecast, pair, spec)
    volume = min(spec.ramp, spec.capacity - start_charge(spec, initial_charge))
    out = _Emitted(curves)

    def recurse(lo: int, hi: int) -> None:
        found = _scan_ordered(curves, lo, hi)
        if found is None:
            return
        t1, t2 = found
        out.add(t1, Side.BUY, volume)
        out.add(t2, Side.SELL, volume)
        recurse(lo, t1 - 1)
        recurse(t2 + 1, hi)

    recurse(0, forecast.window.period_count - 1)
    return Schedule(forecast.window, "TS2", pair, out.sorted())


def ts3(
    forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
    allow_stock_buys: bool = False,
    initial_charge: int | None = None,
) -> Schedule:
    """Work-list strategy: bottleneck-execute min/max pairs range by range."""
    curves = _curves(forecast, pair, spec)
    n = forecast.window.period_count
    timeline = ChargeTimeline(spec, n, start_charge(spec, initial_charge))
    out = _Emitted(curves)
    _run_worklist(timeline, curves, 0, n - 1, lambda t: t, out, allow_stock_buys)
    return Schedule(forecast.window, "TS3", pair, out.sorted())


def ts3_dual(
    horizon: Horizon,
    dam_forecast: QuantileForecast,
    bm_forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
    allow_stock_buys: bool = False,
    initial_charge: int | None = None,
) -> tuple[Schedule, Schedule]:
    """Work-list strategy across a day-ahead window and its balancing slots.

    The best hourly min/max pair anchors the day; balancing slots that close
    strictly before the anchor span trade first, then those strictly after,
    then the hours inside the span.  Every volume clips against one shared
    trajectory so the combined schedule replays cleanly.  Without a
    profitable anchor the balancing window is traded alone.
    """
    dam, bm = horizon.windows
    if dam_forecast.window != dam or bm_forecast.window != bm:
        raise WindowMismatch("forecast windows do not match the horizon")
    dam_curves = _curves(dam_forecast, pair, spec)
    bm_curves = _curves(bm_forecast, pair, spec)
    dam_instant, bm_instant = (ix.__getitem__ for ix in horizon.instants)
    timeline = ChargeTimeline(
        spec, len(horizon.events), start_charge(spec, initial_charge)
    )
    dam_out, bm_out = _Emitted(dam_curves), _Emitted(bm_curves)
    n_bm = bm.period_count

    def run_bm(lo: int, hi: int) -> None:
        _run_worklist(
            timeline, bm_curves, lo, hi, bm_instant, bm_out, allow_stock_buys
        )

    anchor = _scan_unordered(dam_curves, 0, dam.period_count - 1)
    executed = False
    if anchor is not None:
        t_buy, t_sell = anchor
        executed = _execute_pair(
            timeline, t_buy, t_sell, dam_instant(t_buy), dam_instant(t_sell),
            dam_out, allow_stock_buys,
        )
        if executed:
            span_lo, span_hi = min(t_buy, t_sell), max(t_buy, t_sell)
            # balancing slot s falls inside day-ahead hour s // r
            r = dam.market.period_seconds // bm.market.period_seconds
            run_bm(0, min(span_lo * r, n_bm) - 1)
            run_bm((span_hi + 1) * r, n_bm - 1)
            _run_worklist(
                timeline, dam_curves, span_lo + 1, span_hi - 1, dam_instant,
                dam_out, allow_stock_buys,
            )
    if not executed:
        run_bm(0, n_bm - 1)
    return (
        Schedule(dam, "TS3", pair, dam_out.sorted()),
        Schedule(bm, "TS3", pair, bm_out.sorted()),
    )


# --- serialization ----------------------------------------------------------

def schedule_to_rows(schedule: Schedule) -> list[list[str]]:
    rows = []
    for o in schedule.orders:
        rows.append(
            [
                str(o.period),
                format_timestamp(schedule.window.timestamp_of(o.period)),
                o.side.value,
                format_decimal(o.volume_mwh),
                format_decimal(o.expected_price),
            ]
        )
    return rows


def write_schedule_csv(path: str | Path, schedule: Schedule) -> None:
    lines = ["period_index,timestamp,side,volume_mwh,expected_price"]
    lines += [",".join(row) for row in schedule_to_rows(schedule)]
    Path(path).write_text("\n".join(lines) + "\n")


def schedule_to_dict(schedule: Schedule, spec: BatterySpec | None = None) -> dict:
    doc = {
        "market": schedule.window.market.value,
        "window_start": format_timestamp(schedule.window.start_epoch_s),
        "strategy": schedule.strategy,
        "pair": schedule.pair.label,
        "orders": [
            {
                "period": o.period,
                "timestamp": format_timestamp(schedule.window.timestamp_of(o.period)),
                "side": o.side.value,
                "volume_mwh": format_decimal(o.volume_mwh),
                "expected_price": format_decimal(o.expected_price),
            }
            for o in schedule.orders
        ],
    }
    if spec is not None:
        doc["battery_digest"] = spec.digest()
    return doc
