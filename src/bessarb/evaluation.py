"""Settlement, benchmarks and backtest reports.

Settlement replays every window's legs, (period, signed ticks) integer
pairs, through the battery bounds before paying them, so an infeasible
schedule raises instead of producing a number.  A sweep settles the legs a
strategy returns, and builds no order or Schedule; `trade_unit` builds the
Schedules backtest writes from the same legs, and `settle` and
`settle_dual` read a Schedule's orders as legs.  Two
benchmarks frame each result: the same strategy run on the settled prices,
given as both its buy and its sell curve (perfect foresight, pf), and an
exact dynamic program over the ramp lattice (DP, the best any feasible
schedule could have earned).

DP is the only guaranteed upper bound on realized cash.  pf is a reference,
not a bound: a heuristic strategy can do better on a noisy forecast than on
the true prices (22 of 4200 sweep rows over 40 seeds did).

Everything runs on units.  A unit is what one settlement covers: a
market.Horizon (one window of one market, or a day-ahead window and the
balancing window that opens with it), with a forecast and the settled
prices of each window, and one price column: the settled price of each
of the horizon's events, in event order, over one scale, built once per
unit.  `window_units` and `dual_units` build units;
`trade_unit` runs a strategy over a unit and settles it, and `pf_unit` and
`dp_unit` give its benchmarks.  A trade and pf both trade curves
(_trade_legs) and settle the legs: a trade passes each forecast's curves
for its quantile pair, pf each window's settled prices.  Curves and
settlement read the battery's cash weights from the spec, which works
them out once, when it is built.  Settlement pays a leg the column's
price at its instant and the DP walks the column, so one body serves
every shape.
`settle`, `perfect_foresight`, `dp_optimal` and their `_dual` forms name
one market or one dual horizon, and run on the same bodies.

A sweep runs one work list: DP per market (dp_unit), pf per (market,
strategy) (pf_unit), as neither depends on the quantile pair, then one
item per cell, which runs trade_unit's body and builds no schedule.  Its
reports are built once every lane of the list is back, so they do not
depend on jobs.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from bessarb._numeric import (
    exact,
    exact_text,
    format_cents,
    format_money,
    pinball_sum,
    scale_ratios,
)
from bessarb._record import Record
from bessarb.battery import BatterySpec, BatteryState, apply_trade
from bessarb.errors import (
    BessArbError,
    ConfigError,
    NonCommensurateRamp,
    WindowMismatch,
)
from bessarb.market import (
    Horizon,
    PriceSeries,
    QuantileForecast,
    _coerce_level,
    build_dual_horizon,
)
from bessarb.strategies import (
    DEFAULT_PAIRS,
    STRATEGY_NAMES,
    QuantilePair,
    Schedule,
    _curves,
    _Curves,
    _schedule,
    _trade_legs,
)


class SettleResult(Record):
    __slots__ = ("cash", "final_charge")

    def __init__(self, cash: Fraction, final_charge: int) -> None:
        self._set(cash, final_charge)


def _settle(
    unit: _Unit,
    legs: Sequence[Sequence[tuple[int, int]]],
    spec: BatterySpec,
) -> tuple[int, int, int]:
    """Replay each window's (period, signed ticks) legs in the unit's
    wall-clock order and pay them: (cash, den, final charge), the cash being
    cash / den.

    The battery bounds are compared as integers; a leg that breaks one goes
    to apply_trade, which raises the named violation.  A leg at instant k
    pays the unit's price column at k, an integer over the unit's scale.
    Cash is summed as one integer over scale * den, with the spec's
    cash_weights, (w_buy, w_sell, den).
    """
    prices, instants = unit.prices, unit.horizon.instants
    # instants are distinct, so the legs sort on their instant alone
    ordered = sorted(
        (instants[w][period], signed)
        for w, window_legs in enumerate(legs)
        for period, signed in window_legs
    )
    w_buy, w_sell, den = spec.cash_weights()
    ramp, floor, capacity = spec.ramp, spec.min_charge, spec.capacity
    charge = spec.initial_charge
    cash = 0
    for k, signed in ordered:
        after = charge + signed
        if not (-ramp <= signed <= ramp and floor <= after <= capacity):
            apply_trade(BatteryState(charge), spec, signed)
        charge = after
        # a buy (signed > 0) pays, a sell (signed < 0) earns
        cash -= (w_buy if signed > 0 else w_sell) * prices[k] * signed
    return cash, unit.scale * den, charge


def _result(cash: int, den: int, charge: int) -> SettleResult:
    return SettleResult(Fraction(cash, den), charge)


def _legs_of(schedule: Schedule) -> tuple[tuple[int, int], ...]:
    return tuple((o.period, o.signed_ticks) for o in schedule.orders)


# --- units ------------------------------------------------------------------

class _Unit(NamedTuple):
    """One settlement: its horizon, and a forecast and prices per window.

    prices is the unit's price column: prices[k] is the settled price of
    the horizon's event k, as an integer over scale, the lcm of the
    windows' scales.  It is built once per unit (_unit); settlement and
    the DP read it by instant.  pf reads each window's own integers
    (actuals), as a strategy compares prices only within one window.
    """

    horizon: Horizon
    forecasts: tuple[QuantileForecast, ...]
    actuals: tuple[PriceSeries, ...]
    prices: tuple[int, ...]
    scale: int


def _unit(
    horizon: Horizon,
    forecasts: tuple[QuantileForecast, ...],
    actuals: tuple[PriceSeries, ...],
) -> _Unit:
    """The unit of a horizon, with its price column in event order."""
    scale = math.lcm(*(ps.scale for ps in actuals))
    factors = [scale // ps.scale for ps in actuals]
    prices = tuple(actuals[w].scaled[p] * factors[w] for w, p in horizon.events)
    return _Unit(horizon, forecasts, actuals, prices, scale)


def _check_windows(
    forecasts: Sequence[QuantileForecast], actuals: Sequence[PriceSeries]
) -> None:
    """Raise WindowMismatch unless forecasts and prices cover the same windows.

    The message opens with the market of the windows (DAM or BM, as in a
    report's market column), so every command names a mismatch alike.
    """
    if len(forecasts) != len(actuals):
        market = (actuals or forecasts)[0].window.market.value
        raise WindowMismatch(f"{market}: forecast and price window counts differ")
    for fc, ps in zip(forecasts, actuals):
        if fc.window != ps.window:
            raise WindowMismatch(f"{ps.window.market.value}: forecast and price windows differ")


def window_units(
    forecasts: Sequence[QuantileForecast], actuals: Sequence[PriceSeries]
) -> list[_Unit]:
    """One unit per window; forecasts and prices must cover the same windows."""
    _check_windows(forecasts, actuals)
    return [
        _unit(Horizon((ps.window,)), (fc,), (ps,))
        for fc, ps in zip(forecasts, actuals)
    ]


def dual_units(dam_units: Sequence[_Unit], bm_units: Sequence[_Unit]) -> list[_Unit]:
    """Each day-ahead unit joined with the balancing unit that opens with it."""
    bm_by_start = {u.horizon.windows[0].start_epoch_s: u for u in bm_units}
    units = []
    for dam in dam_units:
        (window,) = dam.horizon.windows
        bm = bm_by_start.get(window.start_epoch_s)
        if bm is not None:
            units.append(_unit(
                build_dual_horizon(window, *bm.horizon.windows),
                dam.forecasts + bm.forecasts,
                dam.actuals + bm.actuals,
            ))
    return units


def trade_unit(
    unit: _Unit,
    strategy: str,
    pair: QuantilePair,
    spec: BatterySpec,
    allow_stock_buys: bool = False,
) -> tuple[tuple[Schedule, ...], SettleResult]:
    """Run a strategy over one unit and settle it: (schedules, result)."""
    curves = tuple(_curves(f, pair, spec) for f in unit.forecasts)
    legs = _trade_legs(unit.horizon, curves, strategy, spec, allow_stock_buys)
    schedules = tuple(
        _schedule(forecast, strategy, pair, window_legs)
        for forecast, window_legs in zip(unit.forecasts, legs)
    )
    return schedules, _result(*_settle(unit, legs, spec))


def pf_unit(
    unit: _Unit,
    spec: BatterySpec,
    strategy: str = "TS3",
    allow_stock_buys: bool = False,
) -> Fraction:
    """Profit of the strategy over one unit when it trades the settled
    prices (perfect foresight): each window's own integers as both its
    curves, settled on the unit's price column."""
    w_buy, w_sell, _ = spec.cash_weights()
    curves = tuple(_Curves(ps.scaled, ps.scaled, w_buy, w_sell) for ps in unit.actuals)
    legs = _trade_legs(unit.horizon, curves, strategy, spec, allow_stock_buys)
    cash, den, _ = _settle(unit, legs, spec)
    return Fraction(cash, den)


def dp_unit(unit: _Unit, spec: BatterySpec) -> Fraction:
    """Best possible profit over one unit, by ramp-lattice recursion.

    The lattice holds the charges floor + k * step for k in [0, steps],
    where step is the ramp, or the charge span when the ramp exceeds it:
    no leg moves more than the span.  Valid as a bound for fractional
    volumes too: the feasible set is an interval polytope, so some optimum
    sits on the lattice whenever the charge span and starting charge are
    whole steps.  A span of 0 is one point, where nothing trades.

    The recursion (_lattice_best) reads the unit's price column, which is
    in event order, and walks it backwards.  Before event t only the
    lattice points within t steps of the start point k0 can be read, so it
    keeps that band alone, clamped to [0, steps]: for n events, at most
    2n + 1 points however deep the lattice.

    Prices are integers over the unit's scale.  With the leg weights of
    BatterySpec.cash_weights, every leg's cash shares the denominator
    scale * den:

        buy one step:  p * step * w_buy / (scale * den)
        sell one step: p * step * w_sell / (scale * den)

    So lattice values are integer numerators, compared exactly, and one
    Fraction is built at the end.  Prices of any size stay exact: Python
    integers do not overflow.
    """
    floor = spec.min_charge
    span = spec.capacity - floor
    step = min(spec.ramp, span) or spec.ramp
    if span % step:
        raise NonCommensurateRamp(
            f"charge span {span} is not a whole number of ramps {spec.ramp}"
        )
    if (spec.initial_charge - floor) % step:
        raise NonCommensurateRamp("starting charge sits off the ramp lattice")
    w_buy, w_sell, den = spec.cash_weights()
    buy_step, sell_step = step * w_buy, step * w_sell
    best = _lattice_best(
        [p * buy_step for p in unit.prices],
        [p * sell_step for p in unit.prices],
        (spec.initial_charge - floor) // step,
        span // step,
    )
    return Fraction(best, unit.scale * den)


def _lattice_best(buys: Sequence[int], sells: Sequence[int], k0: int, steps: int) -> int:
    """Best cash from lattice point k0 over the events, as one integer.

    Event t costs buys[t] to charge one step and earns sells[t] to
    discharge one; the lattice has the points [0, steps].  A point is worth
    0 after the last event, and before event t the best of: stay, charge to
    the point above, or discharge to the point below.  Each event is one
    loop over the band of points within t steps of k0.
    """
    t = len(buys)
    lo = max(0, k0 - t)
    value = [0] * (min(steps, k0 + t) - lo + 1)  # value[i] is point lo + i
    for buy, sell in zip(reversed(buys), reversed(sells)):
        t -= 1
        new_lo, new_hi = max(0, k0 - t), min(steps, k0 + t)
        a = new_lo - lo
        # for each point of the new band: the point above, the point itself
        # and the point below, each read once as the window slides up
        ups = value[a + 1:new_hi - lo + 2]
        if new_hi == steps:  # the top cannot charge: a stand-in that never wins
            ups.append(value[new_hi - lo] + buy)
        stay = value[a]
        down = value[a - 1] if new_lo else stay - sell  # the floor cannot discharge
        new = []
        append = new.append
        for up in ups:
            best = up - buy
            if stay > best:
                best = stay
            down += sell
            append(down if down > best else best)
            down, stay = stay, up
        value, lo = new, new_lo
    return value[0]


# --- one market or one dual horizon -----------------------------------------
# The benchmarks need no forecasts, so their units carry none.

def settle(
    schedule: Schedule,
    actuals: PriceSeries,
    spec: BatterySpec,
) -> SettleResult:
    """Replay a schedule against settled prices.

    Raises the relevant battery violation if any order breaks a bound, so a
    returned figure is always physically achievable.
    """
    if schedule.window != actuals.window:
        raise WindowMismatch("schedule and prices cover different windows")
    unit = _unit(Horizon((actuals.window,)), (), (actuals,))
    return _result(*_settle(unit, (_legs_of(schedule),), spec))


def settle_dual(
    dam_schedule: Schedule,
    bm_schedule: Schedule,
    dam_actuals: PriceSeries,
    bm_actuals: PriceSeries,
    spec: BatterySpec,
) -> SettleResult:
    """Jointly replay one day-ahead and one balancing schedule."""
    if dam_schedule.window != dam_actuals.window:
        raise WindowMismatch("day-ahead schedule and prices differ")
    if bm_schedule.window != bm_actuals.window:
        raise WindowMismatch("balancing schedule and prices differ")
    horizon = build_dual_horizon(dam_schedule.window, bm_schedule.window)
    unit = _unit(horizon, (), (dam_actuals, bm_actuals))
    legs = (_legs_of(dam_schedule), _legs_of(bm_schedule))
    return _result(*_settle(unit, legs, spec))


def degenerate_forecast(
    actuals: PriceSeries, levels: Sequence = (Fraction(1, 2),)
) -> QuantileForecast:
    """Forecast that pins every quantile level to the settled price.

    No package code calls it: pf trades the prices themselves.  Such a
    forecast scores zero pinball loss, and a sweep on it realizes pf in
    every cell.
    """
    levels = tuple(levels)
    rows = tuple((n,) * len(levels) for n in actuals.scaled)
    return QuantileForecast(actuals.window, levels, rows, actuals.scale)


def perfect_foresight(
    actuals: PriceSeries,
    spec: BatterySpec,
    strategy: str = "TS3",
    allow_stock_buys: bool = False,
) -> Fraction:
    """Profit of the strategy when it trades the settled prices."""
    unit = _unit(Horizon((actuals.window,)), (), (actuals,))
    return pf_unit(unit, spec, strategy, allow_stock_buys)


def _dual_unit(horizon: Horizon, dam_actuals: PriceSeries, bm_actuals: PriceSeries) -> _Unit:
    """The forecast-free unit of a dual horizon and the prices of its windows."""
    if (dam_actuals.window, bm_actuals.window) != horizon.windows:
        raise WindowMismatch("price windows do not match the horizon")
    return _unit(horizon, (), (dam_actuals, bm_actuals))


def perfect_foresight_dual(
    horizon: Horizon,
    dam_actuals: PriceSeries,
    bm_actuals: PriceSeries,
    spec: BatterySpec,
    allow_stock_buys: bool = False,
) -> Fraction:
    return pf_unit(_dual_unit(horizon, dam_actuals, bm_actuals), spec, "TS3", allow_stock_buys)


def dp_optimal(actuals: PriceSeries, spec: BatterySpec) -> Fraction:
    """Best possible profit for the window given the settled prices."""
    unit = _unit(Horizon((actuals.window,)), (), (actuals,))
    return dp_unit(unit, spec)


def dp_optimal_dual(
    horizon: Horizon,
    dam_actuals: PriceSeries,
    bm_actuals: PriceSeries,
    spec: BatterySpec,
) -> Fraction:
    """Best possible profit trading both markets of one dual horizon.

    Only tests and the benchmark's tracer, bench/tracing.py, call it, so
    it can go once the tracer stops.
    """
    return dp_unit(_dual_unit(horizon, dam_actuals, bm_actuals), spec)


# --- forecast scoring -------------------------------------------------------

def pinball(level, actual, predicted) -> Fraction:
    """Quantile regression loss for one prediction, exact: `pinball_sum`,
    as score_forecasts runs it, on one cell."""
    a, b = _coerce_level(level).as_integer_ratio()
    (y, z), scale = scale_ratios(
        (exact(actual).as_integer_ratio(), exact(predicted).as_integer_ratio())
    )
    return Fraction(pinball_sum(a, b, (y,), (z,)), b * scale)


class PinballReport(Record):
    __slots__ = ("per_level", "mean", "cells")

    def __init__(self, per_level: dict, mean: Fraction, cells: int) -> None:
        self._set(per_level, mean, cells)


def score_forecasts(
    forecasts: Sequence[QuantileForecast], actuals: Sequence[PriceSeries]
) -> PinballReport:
    """Mean pinball loss per quantile level and over all cells, exact.

    Every window's actuals and predictions are scaled once, to integers over
    L, the lcm of every forecast and price scale.  Forecasts may carry
    different levels, so each level keeps its own list of cells, and its
    loss is summed as an integer by `pinball_sum`.  One Fraction is built
    per level, and one for the mean over all cells.
    """
    _check_windows(forecasts, actuals)
    scale = math.lcm(*(fc.scale for fc in forecasts), *(ps.scale for ps in actuals))
    cells: dict[tuple[int, int], tuple[list, list]] = {}  # by the level's a/b
    for fc, ps in zip(forecasts, actuals):
        m = scale // ps.scale
        actual = [y * m for y in ps.scaled]
        m = scale // fc.scale
        for lv, column in zip(fc.levels, zip(*fc.scaled)):
            ys, zs = cells.setdefault(lv.as_integer_ratio(), ([], []))
            ys += actual
            zs += [z * m for z in column]
    if not cells:
        raise WindowMismatch("nothing to score")
    per_level, losses = {}, []
    for a, b in sorted(cells, key=lambda ratio: Fraction(*ratio)):
        ys, zs = cells[a, b]
        loss = pinball_sum(a, b, ys, zs)
        per_level[Fraction(a, b)] = Fraction(loss, b * scale * len(ys))
        losses.append((loss, b))
    total_cells = sum(len(ys) for ys, _ in cells.values())
    sums, den = scale_ratios(losses)
    mean = Fraction(sum(sums), den * scale * total_cells)
    return PinballReport(per_level, mean, total_cells)


# --- sweep ------------------------------------------------------------------

class BacktestReport(Record):
    """One report row: a strategy and quantile pair over a set of windows."""

    __slots__ = ("market", "strategy", "pair_label", "realized", "trades", "pf", "dp",
                 "windows", "per_window")

    def __init__(self, market: str, strategy: str, pair_label: str, realized: Fraction,
                 trades: Fraction, pf: Fraction, dp: Fraction, windows: int,
                 per_window: tuple[Fraction, ...] = ()) -> None:
        self._set(market, strategy, pair_label, realized, trades, pf, dp, windows, per_window)


def _run_item(payload: tuple, item: tuple):
    """One sweep item (market, strategy, pair): the market's DP total
    (dp_unit) when strategy is None, its pf total (pf_unit) when pair is
    None, else the cell's per-window cash, as (numerator, denominator)
    integers, and trade count.  A cell runs trade_unit's body, and builds
    no schedule."""
    market, strategy, pair = item
    spec, allow_stock, by_market = payload
    units = by_market[market]
    if strategy is None:
        return sum((dp_unit(u, spec) for u in units), Fraction(0))
    if pair is None:
        return sum((pf_unit(u, spec, strategy, allow_stock) for u in units), Fraction(0))
    trades, per_window = 0, []
    for unit in units:
        curves = tuple(_curves(f, pair, spec) for f in unit.forecasts)
        legs = _trade_legs(unit.horizon, curves, strategy, spec, allow_stock)
        cash, den, _ = _settle(unit, legs, spec)
        per_window.append((cash, den))
        trades += sum(map(len, legs))
    return per_window, trades


def _run_lane(payload: tuple, items: Sequence, lane: int, lanes: int, conn=None):
    """(results, failure) of items[lane::lanes], run in order up to the first
    that raises; failure is None or (item index, exception).  A child lane
    sends the pair over `conn`."""
    results, failure = [], None
    for index in range(lane, len(items), lanes):
        try:
            results.append(_run_item(payload, items[index]))
        except Exception as exc:  # raised again by _run_lanes, in the caller
            failure = index, exc
            break
    if conn is None:
        return results, failure
    with conn:
        conn.send((results, failure))


def _lane_context():
    """The fork context where the platform has one, else the default.  A
    forked lane starts with the package loaded; the default method
    (forkserver on Linux from Python 3.14) would import it again."""
    import multiprocessing  # only a parallel sweep pays for loading it

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _run_lanes(payload: tuple, items: Sequence, jobs: int) -> list:
    """Every item's result, in order, striped over min(jobs, len(items)) lanes.
    Lane 0 runs here, each other lane in one child process that sends its
    results over one pipe.  The lowest-index failure is raised, as in one lane."""
    lanes = max(1, min(jobs, len(items)))
    children, pipes, answers = [], [], []
    try:
        for lane in range(1, lanes):
            context = _lane_context()
            recv, send = context.Pipe(duplex=False)
            pipes.append(recv)
            with send:
                child = context.Process(
                    target=_run_lane, args=(payload, items, lane, lanes, send)
                )
                child.start()
            children.append(child)
        answers.append(_run_lane(payload, items, 0, lanes))
        for lane, (child, recv) in enumerate(zip(children, pipes), 1):
            try:
                answers.append(recv.recv())
            except EOFError:
                pass
            child.join()
            if child.exitcode or len(answers) == lane:  # lane died unanswered
                raise BessArbError(f"sweep lane {lane} died before answering"
                                   f" (exit code {child.exitcode})")
    finally:
        for recv in pipes:
            recv.close()
        for child in children:
            if child.exitcode is None:  # abandoned by a failure
                child.kill()
            child.join()
            child.close()
    failures = [failure for _, failure in answers if failure is not None]
    if failures:
        raise min(failures)[1]  # item indices are distinct
    results = [None] * len(items)
    for lane, (done, _) in enumerate(answers):
        results[lane::lanes] = done
    return results


def run_sweep(
    spec: BatterySpec,
    dam_actuals: Sequence[PriceSeries],
    dam_forecasts: Sequence[QuantileForecast],
    bm_actuals: Sequence[PriceSeries] | None = None,
    bm_forecasts: Sequence[QuantileForecast] | None = None,
    *,
    pairs: Sequence[QuantilePair] = DEFAULT_PAIRS,
    strategies: Sequence[str] = STRATEGY_NAMES,
    jobs: int = 1,
    allow_stock_buys: bool = False,
    include_average: bool = True,
) -> list[BacktestReport]:
    """Backtest every (market, strategy, quantile pair) combination.

    Day-ahead windows are traded with each requested strategy.  When
    balancing data is supplied its windows are traded alone with the
    work-list strategy, and every balancing window that opens together with
    a day-ahead window is also traded jointly with it.  Rows come back in a
    fixed order with one average row per (market, strategy) block, and are
    identical for any number of jobs.  A block's cash is summed and averaged
    as integers over the lcm of its units' denominators.
    """
    for name in strategies:
        if name not in STRATEGY_NAMES:
            raise ConfigError(f"unknown strategy {name!r}")
    if not pairs:
        raise ConfigError("a sweep needs at least one quantile pair")
    # a repeated pair or strategy would count twice in its block's average
    names = [f"strategy {name}" for name in strategies]
    names += [f"pair {exact_text(p.sell_level)}:{exact_text(p.buy_level)}" for p in pairs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"sweep repeats {name}")
    units = {"DAM": window_units(dam_forecasts, dam_actuals)}
    blocks = [("DAM", s) for s in strategies]
    if bm_actuals is None and bm_forecasts is not None:
        raise ConfigError("balancing forecasts given without prices")
    if bm_actuals is not None:
        if bm_forecasts is None:
            raise ConfigError("balancing prices given without forecasts")
        units["BM"] = window_units(bm_forecasts, bm_actuals)
        units["DAM+BM"] = dual_units(units["DAM"], units["BM"])
        blocks.append(("BM", "TS3"))
        if units["DAM+BM"]:
            blocks.append(("DAM+BM", "TS3"))
    items = [(market, None, None) for market in dict.fromkeys(m for m, _ in blocks)]
    items += [(market, strategy, None) for market, strategy in blocks]
    items += [(market, strategy, pair) for market, strategy in blocks for pair in pairs]
    payload = (spec, allow_stock_buys, units)
    result = dict(zip(items, _run_lanes(payload, items, jobs)))
    rows: list[BacktestReport] = []
    for market, strategy in blocks:
        pf, dp = result[market, strategy, None], result[market, None, None]
        cells = [result[market, strategy, pair] for pair in pairs]
        den = math.lcm(*(d for per_window, _ in cells for _, d in per_window))
        cash = [[n * (den // d) for n, d in per_window] for per_window, _ in cells]
        for pair, nums, (_, trades) in zip(pairs, cash, cells):
            rows.append(BacktestReport(
                market, strategy, pair.label, Fraction(sum(nums), den),
                Fraction(trades), pf, dp, len(nums),
                tuple(Fraction(n, den) for n in nums),
            ))
        if include_average:
            n = len(cells)
            rows.append(BacktestReport(
                market, strategy, "average", Fraction(sum(map(sum, cash)), den * n),
                Fraction(sum(trades for _, trades in cells), n), pf, dp, len(cash[0]),
                tuple(Fraction(sum(w), den * n) for w in zip(*cash)),
            ))
    return rows


# --- report serialization ---------------------------------------------------

def _format_trades(trades: Fraction) -> str:
    """Whole counts verbatim; fractional averages rounded to 2 places."""
    return format_money(trades).rstrip("0").rstrip(".")


def _totals_formatter() -> Callable[[Fraction], str]:
    """format_money for one writer call: a block's rows share their pf and
    dp totals, so each distinct total is formatted once."""
    texts: dict[tuple[int, int], str] = {}

    def total(value: Fraction) -> str:
        ratio = value.as_integer_ratio()
        text = texts.get(ratio)
        if text is None:
            text = texts[ratio] = format_cents(*ratio)
        return text

    return total


def _report_row(r: BacktestReport, total: Callable[[Fraction], str]) -> dict:
    """One report row's columns, for the CSV and JSON files alike."""
    return {
        "market": r.market,
        "strategy": r.strategy,
        "pair": r.pair_label,
        "profit_eur": format_money(r.realized),
        "trades": _format_trades(r.trades),
        "pf_eur": total(r.pf),
        "dp_eur": total(r.dp),
        "windows": r.windows,
    }


def write_report_csv(path: str | Path, reports: Iterable[BacktestReport]) -> None:
    """One line per row: the fields of _report_row, in its key order."""
    total = _totals_formatter()
    lines = ["market,strategy,pair,profit_eur,trades,pf_eur,dp_eur,windows"]
    lines += [",".join(map(str, _report_row(r, total).values())) for r in reports]
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_json(path: str | Path, reports: Iterable[BacktestReport]) -> None:
    total = _totals_formatter()
    doc = [
        {**_report_row(r, total), "window_profits_eur": [format_money(x) for x in r.per_window]}
        for r in reports
    ]
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_plot_csv(path: str | Path, reports: Iterable[BacktestReport]) -> None:
    """Per-row window profit spread, for plotting profit against pair."""
    lines = ["market,strategy,pair,mean_eur,min_eur,max_eur"]
    for r in reports:
        # min and max compare numerators over one scale; realized sums per_window
        cash, den = scale_ratios([w.as_integer_ratio() for w in r.per_window])
        num, scale = r.realized.as_integer_ratio() if cash else (0, 1)
        lines.append(",".join([
            r.market, r.strategy, r.pair_label,
            format_cents(num, scale * (len(cash) or 1)),
            format_cents(min(cash, default=0), den),
            format_cents(max(cash, default=0), den),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")
