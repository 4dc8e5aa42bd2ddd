"""Settlement, benchmarks and backtest reports.

Settlement replays every schedule through the battery bounds before paying
it, so an infeasible schedule raises instead of producing a number.  Two
benchmarks frame each result: the same strategy run on a forecast that
equals the settled prices (perfect foresight, pf), and an exact dynamic
program over the ramp lattice (DP, the best any feasible schedule could have
earned).

DP is the only guaranteed upper bound on realized cash.  pf is a reference,
not a bound: a heuristic strategy can do better on a noisy forecast than on
the true prices (22 of 4200 sweep rows over 40 seeds did).

`backtest` and `sweep` share one per-unit path.  A unit is what one
settlement covers: one window of one market, or one dual horizon (a
day-ahead window and the balancing window that opens with it).
`window_units` and `dual_units` build units; `trade_unit` runs a strategy
over a unit and settles it, and `pf_unit` and `dp_unit` give its
benchmarks, whichever shape the unit has.

A sweep computes both benchmarks once per unit before any cell runs: DP
once per unit of each market, pf once per (unit, strategy).  Neither
depends on the quantile pair.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from bessarb._numeric import format_money, pinball_sum, scale_ratios, to_cents
from bessarb.battery import BatterySpec, BatteryState, apply_trade, start_charge
from bessarb.errors import (
    ConfigError,
    LevelOutOfRange,
    NonCommensurateRamp,
    WindowMismatch,
)
from bessarb.market import (
    DualHorizon,
    MarketKind,
    PriceSeries,
    QuantileForecast,
    build_dual_horizon,
)
from bessarb.strategies import (
    DEFAULT_PAIRS,
    MEDIAN_PAIR,
    QuantilePair,
    Schedule,
    Side,
    ts1,
    ts2,
    ts3,
    ts3_dual,
)

STRATEGY_NAMES = ("TS1", "TS2", "TS3")


@dataclass(frozen=True, slots=True)
class SettleResult:
    cash: Fraction
    final_charge: int


def _settle_legs(
    legs, scale: int, spec: BatterySpec, initial_charge: int | None
) -> SettleResult:
    """Replay (order, price) legs in wall-clock order and pay them.

    Prices are integers over `scale`.  Cash is summed as one integer over
    scale * den, with the weights of BatterySpec.cash_weights, so one
    Fraction is built per call.
    """
    w_buy, w_sell, den = spec.cash_weights()
    state = BatteryState(start_charge(spec, initial_charge))
    cash = 0
    for order, price in legs:
        state = apply_trade(state, spec, order.signed_ticks)
        if order.side is Side.SELL:
            cash += w_sell * price * order.volume_ticks
        else:
            cash -= w_buy * price * order.volume_ticks
    return SettleResult(Fraction(cash, scale * den), state.charge)


def _over_one_scale(
    dam: PriceSeries, bm: PriceSeries
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Both markets' prices as integers over the lcm of their scales."""
    scale = math.lcm(dam.scale, bm.scale)
    return tuple(
        tuple(n * (scale // ps.scale) for n in ps.scaled) for ps in (dam, bm)
    ), scale


def settle(
    schedule: Schedule,
    actuals: PriceSeries,
    spec: BatterySpec,
    initial_charge: int | None = None,
) -> SettleResult:
    """Replay a schedule against settled prices.

    Raises the relevant battery violation if any order breaks a bound, so a
    returned figure is always physically achievable.
    """
    if schedule.window != actuals.window:
        raise WindowMismatch("schedule and prices cover different windows")
    prices = actuals.scaled
    legs = ((order, prices[order.period]) for order in schedule.orders)
    return _settle_legs(legs, actuals.scale, spec, initial_charge)


def settle_dual(
    dam_schedule: Schedule,
    bm_schedule: Schedule,
    dam_actuals: PriceSeries,
    bm_actuals: PriceSeries,
    spec: BatterySpec,
    initial_charge: int | None = None,
) -> SettleResult:
    """Jointly replay one day-ahead and one balancing schedule."""
    if dam_schedule.window != dam_actuals.window:
        raise WindowMismatch("day-ahead schedule and prices differ")
    if bm_schedule.window != bm_actuals.window:
        raise WindowMismatch("balancing schedule and prices differ")
    horizon = build_dual_horizon(dam_schedule.window, bm_schedule.window)
    (dam_prices, bm_prices), scale = _over_one_scale(dam_actuals, bm_actuals)
    orders = {
        MarketKind.DAM: {o.period: o for o in dam_schedule.orders},
        MarketKind.BM: {o.period: o for o in bm_schedule.orders},
    }
    prices = {MarketKind.DAM: dam_prices, MarketKind.BM: bm_prices}
    legs = (
        (orders[market][period], prices[market][period])
        for market, period in horizon.merged_events()
        if period in orders[market]
    )
    return _settle_legs(legs, scale, spec, initial_charge)


# --- benchmarks -------------------------------------------------------------

def degenerate_forecast(
    actuals: PriceSeries, levels: Sequence = (Fraction(1, 2),)
) -> QuantileForecast:
    """Forecast that pins every quantile level to the settled price."""
    levels = tuple(levels)
    rows = tuple((n,) * len(levels) for n in actuals.scaled)
    return QuantileForecast.from_scaled(actuals.window, levels, rows, actuals.scale)


def _run_strategy(
    strategy: str,
    forecast: QuantileForecast,
    pair: QuantilePair,
    spec: BatterySpec,
    allow_stock_buys: bool,
    initial_charge: int | None,
) -> Schedule:
    if strategy == "TS1":
        return ts1(forecast, pair, spec, initial_charge=initial_charge)
    if strategy == "TS2":
        return ts2(forecast, pair, spec, initial_charge=initial_charge)
    if strategy == "TS3":
        return ts3(
            forecast,
            pair,
            spec,
            allow_stock_buys=allow_stock_buys,
            initial_charge=initial_charge,
        )
    raise ConfigError(f"unknown strategy {strategy!r}")


def perfect_foresight(
    actuals: PriceSeries,
    spec: BatterySpec,
    strategy: str = "TS3",
    allow_stock_buys: bool = False,
    initial_charge: int | None = None,
) -> Fraction:
    """Profit of the strategy when the forecast equals the settled prices."""
    forecast = degenerate_forecast(actuals)
    schedule = _run_strategy(
        strategy, forecast, MEDIAN_PAIR, spec, allow_stock_buys, initial_charge
    )
    return settle(schedule, actuals, spec, initial_charge).cash


def perfect_foresight_dual(
    horizon: DualHorizon,
    dam_actuals: PriceSeries,
    bm_actuals: PriceSeries,
    spec: BatterySpec,
    allow_stock_buys: bool = False,
    initial_charge: int | None = None,
) -> Fraction:
    dam_sched, bm_sched = ts3_dual(
        horizon,
        degenerate_forecast(dam_actuals),
        degenerate_forecast(bm_actuals),
        MEDIAN_PAIR,
        spec,
        allow_stock_buys=allow_stock_buys,
        initial_charge=initial_charge,
    )
    return settle_dual(
        dam_sched, bm_sched, dam_actuals, bm_actuals, spec, initial_charge
    ).cash


def _dp_max_cash(
    prices: Sequence[int], scale: int, spec: BatterySpec, initial_charge: int
) -> Fraction:
    """Exact optimum over all feasible schedules, by ramp-lattice recursion.

    Valid as a bound for fractional volumes too: the feasible set is an
    interval polytope, so some optimum sits on the ramp lattice whenever the
    charge span and starting charge are whole ramps.

    `prices` are integers over `scale`.  With the leg weights of
    BatterySpec.cash_weights, every leg's cash shares the denominator
    scale * den:

        buy one ramp:  p * ramp * w_buy / (scale * den)
        sell one ramp: p * ramp * w_sell / (scale * den)

    So lattice values are integer numerators, compared exactly, and one
    Fraction is built at the end.  Prices of any size stay exact: Python
    integers do not overflow.
    """
    span = spec.capacity - spec.min_charge
    if span % spec.ramp:
        raise NonCommensurateRamp(
            f"charge span {span} is not a whole number of ramps {spec.ramp}"
        )
    if (initial_charge - spec.min_charge) % spec.ramp:
        raise NonCommensurateRamp("starting charge sits off the ramp lattice")
    steps = span // spec.ramp
    k0 = (initial_charge - spec.min_charge) // spec.ramp
    # n periods move at most n ramps: lattice points farther from k0 are
    # unreachable, so the recursion keeps only [lo, hi].
    lo, hi = max(0, k0 - len(prices)), min(steps, k0 + len(prices))
    w_buy, w_sell, den = spec.cash_weights()
    buy_unit = spec.ramp * w_buy
    sell_unit = spec.ramp * w_sell
    value = [0] * (hi - lo + 1)
    for price in reversed(prices):
        buy, sell = price * buy_unit, price * sell_unit
        # stay at k, or charge one ramp (reach k + 1)
        charged = [v - buy for v in value[1:]]
        best = [v if v > c else c for v, c in zip(value, charged)]
        best.append(value[-1])
        # or discharge one ramp (reach k - 1)
        discharged = [v + sell for v in value[:-1]]
        value = best[:1] + [b if b > d else d for b, d in zip(best[1:], discharged)]
    return Fraction(value[k0 - lo], scale * den)


def dp_optimal(
    actuals: PriceSeries, spec: BatterySpec, initial_charge: int | None = None
) -> Fraction:
    """Best possible profit for the window given the settled prices."""
    return _dp_max_cash(
        actuals.scaled, actuals.scale, spec, start_charge(spec, initial_charge)
    )


def dp_optimal_dual(
    horizon: DualHorizon,
    dam_actuals: PriceSeries,
    bm_actuals: PriceSeries,
    spec: BatterySpec,
    initial_charge: int | None = None,
) -> Fraction:
    """Best possible profit trading both markets of one dual horizon."""
    if dam_actuals.window != horizon.dam or bm_actuals.window != horizon.bm:
        raise WindowMismatch("price windows do not match the horizon")
    (dam, bm), scale = _over_one_scale(dam_actuals, bm_actuals)
    prices = [
        (dam if market is MarketKind.DAM else bm)[period]
        for market, period in horizon.merged_events()
    ]
    return _dp_max_cash(prices, scale, spec, start_charge(spec, initial_charge))


# --- units ------------------------------------------------------------------
# A unit holds the forecasts and the settled prices of one settlement: one
# single-market window, ((fc,), (ps,)), or one dual horizon,
# ((dam_fc, bm_fc), (dam_ps, bm_ps)).

_Unit = tuple[tuple[QuantileForecast, ...], tuple[PriceSeries, ...]]


def window_units(
    forecasts: Sequence[QuantileForecast], actuals: Sequence[PriceSeries], what: str
) -> list[_Unit]:
    """One unit per window; forecasts and prices must cover the same windows."""
    if len(forecasts) != len(actuals):
        raise WindowMismatch(f"{what}: forecast and price window counts differ")
    for fc, ps in zip(forecasts, actuals):
        if fc.window != ps.window:
            raise WindowMismatch(f"{what}: forecast and price windows differ")
    return [((fc,), (ps,)) for fc, ps in zip(forecasts, actuals)]


def dual_units(dam_units: Sequence[_Unit], bm_units: Sequence[_Unit]) -> list[_Unit]:
    """Each day-ahead unit joined with the balancing unit that opens with it."""
    bm_by_start = {ps[0].window.start_epoch_s: (fc, ps) for fc, ps in bm_units}
    units = []
    for fc, ps in dam_units:
        bm = bm_by_start.get(ps[0].window.start_epoch_s)
        if bm is not None:
            units.append((fc + bm[0], ps + bm[1]))
    return units


def _horizon(actuals: tuple[PriceSeries, ...], strategy: str = "TS3") -> DualHorizon:
    if strategy != "TS3":
        raise ConfigError("dual-market backtests use strategy TS3")
    return build_dual_horizon(actuals[0].window, actuals[1].window)


def trade_unit(
    unit: _Unit,
    strategy: str,
    pair: QuantilePair,
    spec: BatterySpec,
    allow_stock_buys: bool = False,
    initial_charge: int | None = None,
) -> tuple[tuple[Schedule, ...], SettleResult]:
    """Run a strategy over one unit and settle it: (schedules, result)."""
    forecasts, actuals = unit
    if len(actuals) == 1:
        schedule = _run_strategy(
            strategy, *forecasts, pair, spec, allow_stock_buys, initial_charge
        )
        return (schedule,), settle(schedule, *actuals, spec, initial_charge)
    schedules = ts3_dual(
        _horizon(actuals, strategy), *forecasts, pair, spec,
        allow_stock_buys=allow_stock_buys, initial_charge=initial_charge,
    )
    return schedules, settle_dual(*schedules, *actuals, spec, initial_charge)


def pf_unit(
    unit: _Unit,
    spec: BatterySpec,
    strategy: str = "TS3",
    allow_stock_buys: bool = False,
    initial_charge: int | None = None,
) -> Fraction:
    """Perfect-foresight profit of the strategy over one unit."""
    _, actuals = unit
    if len(actuals) == 1:
        return perfect_foresight(
            *actuals, spec, strategy, allow_stock_buys, initial_charge
        )
    return perfect_foresight_dual(
        _horizon(actuals, strategy), *actuals, spec, allow_stock_buys, initial_charge
    )


def dp_unit(
    unit: _Unit, spec: BatterySpec, initial_charge: int | None = None
) -> Fraction:
    """DP optimum over one unit."""
    _, actuals = unit
    if len(actuals) == 1:
        return dp_optimal(*actuals, spec, initial_charge)
    return dp_optimal_dual(_horizon(actuals), *actuals, spec, initial_charge)


# --- forecast scoring -------------------------------------------------------

def _exact(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(str(value))


def pinball(level, actual, predicted) -> Fraction:
    """Quantile regression loss for one prediction, exact."""
    q = _exact(level)
    if not 0 < q < 1:
        raise LevelOutOfRange(f"quantile level {q} outside (0, 1)")
    y, z = _exact(actual), _exact(predicted)
    if y >= z:
        return q * (y - z)
    return (1 - q) * (z - y)


@dataclass(frozen=True, slots=True)
class PinballReport:
    per_level: dict
    mean: Fraction
    cells: int


def score_forecasts(
    forecasts: Sequence[QuantileForecast], actuals: Sequence[PriceSeries]
) -> PinballReport:
    """Mean pinball loss per quantile level and over all cells, exact.

    Each level's actuals and predictions are scaled to integers over one L,
    and its loss is summed as an integer by `pinball_sum`.  One Fraction is
    built per level, and one for the mean over all cells.
    """
    cells: dict[Fraction, tuple[list, list]] = {}
    for (fc,), (ps,) in window_units(forecasts, actuals, "score"):
        for y, row in zip(ps.scaled, fc.scaled):
            for lv, z in zip(fc.levels, row):
                ys, zs = cells.setdefault(lv, ([], []))
                ys.append((y, ps.scale))
                zs.append((z, fc.scale))
    if not cells:
        raise WindowMismatch("nothing to score")
    per_level, sums = {}, []
    for lv in sorted(cells):
        ys, zs = cells[lv]
        values, scale = scale_ratios(ys + zs)
        n = len(ys)
        loss = pinball_sum(lv.numerator, lv.denominator, values[:n], values[n:])
        per_level[lv] = Fraction(loss, lv.denominator * scale * n)
        sums.append((loss, lv.denominator * scale))
    total_cells = sum(len(ys) for ys, _ in cells.values())
    den = math.lcm(*(d for _, d in sums))
    mean = Fraction(sum(loss * (den // d) for loss, d in sums), den * total_cells)
    return PinballReport(per_level, mean, total_cells)


# --- sweep ------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class BacktestReport:
    """One report row: a strategy and quantile pair over a set of windows."""

    market: str
    strategy: str
    pair_label: str
    realized: Fraction
    trades: Fraction
    pf: Fraction
    dp: Fraction
    windows: int
    per_window: tuple[Fraction, ...] = ()


def _benchmark_table(payload: dict, blocks) -> dict:
    """(pf, dp) totals of every (market, strategy) block, each unit once.

    DP depends on the unit alone, so it runs once per unit of each market;
    pf runs once per (unit, strategy).  Neither depends on the quantile pair.
    """
    spec, allow_stock = payload["spec"], payload["allow_stock_buys"]
    dp_by_market: dict[str, Fraction] = {}
    table = {}
    for market, strategy in blocks:
        units = payload["units"][market]
        pf = sum(
            (pf_unit(u, spec, strategy, allow_stock) for u in units), Fraction(0)
        )
        if market not in dp_by_market:
            dp_by_market[market] = sum((dp_unit(u, spec) for u in units), Fraction(0))
        table[market, strategy] = (pf, dp_by_market[market])
    return table


def _cell_report(
    payload: dict, market: str, strategy: str, pair: QuantilePair
) -> BacktestReport:
    """Run one strategy and pair over a market's units and settle it."""
    spec, allow_stock = payload["spec"], payload["allow_stock_buys"]
    trades, per_window = 0, []
    for unit in payload["units"][market]:
        schedules, result = trade_unit(unit, strategy, pair, spec, allow_stock)
        per_window.append(result.cash)
        trades += sum(s.trade_count for s in schedules)
    pf, dp = payload["benchmarks"][market, strategy]
    return BacktestReport(
        market, strategy, pair.label, sum(per_window, Fraction(0)),
        Fraction(trades), pf, dp, len(per_window), tuple(per_window),
    )


# The sweep payload of a pool worker, sent once per worker by the initializer.
_worker_payload: dict | None = None


def _init_worker(payload: dict) -> None:
    global _worker_payload
    _worker_payload = payload


def _worker_cell(cell) -> BacktestReport:
    return _cell_report(_worker_payload, *cell)


def _average_row(rows: Sequence[BacktestReport]) -> BacktestReport:
    n = len(rows)
    per_window = tuple(
        sum(r.per_window[i] for r in rows) / n
        for i in range(len(rows[0].per_window))
    )
    return BacktestReport(
        rows[0].market,
        rows[0].strategy,
        "average",
        sum(r.realized for r in rows) / n,
        sum(r.trades for r in rows) / n,
        rows[0].pf,
        rows[0].dp,
        rows[0].windows,
        per_window,
    )


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
    identical however many worker processes are used.
    """
    for name in strategies:
        if name not in STRATEGY_NAMES:
            raise ConfigError(f"unknown strategy {name!r}")
    if not pairs:
        raise ConfigError("a sweep needs at least one quantile pair")
    units = {"DAM": window_units(dam_forecasts, dam_actuals, "day-ahead")}
    blocks = [("DAM", s) for s in strategies]
    if bm_actuals is not None:
        if bm_forecasts is None:
            raise ConfigError("balancing prices given without forecasts")
        units["BM"] = window_units(bm_forecasts, bm_actuals, "balancing")
        units["DAM+BM"] = dual_units(units["DAM"], units["BM"])
        blocks.append(("BM", "TS3"))
        if units["DAM+BM"]:
            blocks.append(("DAM+BM", "TS3"))
    payload = {"spec": spec, "allow_stock_buys": allow_stock_buys, "units": units}
    payload["benchmarks"] = _benchmark_table(payload, blocks)
    cells = [
        (market, strategy, pair)
        for market, strategy in blocks
        for pair in pairs
    ]
    if jobs > 1:
        # imported here: only a parallel sweep pays for loading the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(payload,)
        ) as pool:
            rows = list(pool.map(_worker_cell, cells))
    else:
        rows = [_cell_report(payload, *cell) for cell in cells]
    if not include_average:
        return rows
    out: list[BacktestReport] = []
    step = len(pairs)
    for i in range(0, len(rows), step):
        block = rows[i : i + step]
        out.extend(block)
        out.append(_average_row(block))
    return out


# --- report serialization ---------------------------------------------------

def _format_trades(trades: Fraction) -> str:
    """Whole counts verbatim; fractional averages rounded to 2 places."""
    if trades.denominator == 1:
        return str(trades.numerator)
    cents = to_cents(trades)
    whole, rem = divmod(abs(cents), 100)
    text = f"{whole}.{rem:02d}".rstrip("0").rstrip(".")
    return ("-" if cents < 0 else "") + text


def write_report_csv(path: str | Path, reports: Iterable[BacktestReport]) -> None:
    lines = ["market,strategy,pair,profit_eur,trades,pf_eur,dp_eur,windows"]
    for r in reports:
        lines.append(
            ",".join(
                [
                    r.market,
                    r.strategy,
                    r.pair_label,
                    format_money(r.realized),
                    _format_trades(r.trades),
                    format_money(r.pf),
                    format_money(r.dp),
                    str(r.windows),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_json(path: str | Path, reports: Iterable[BacktestReport]) -> None:
    doc = [
        {
            "market": r.market,
            "strategy": r.strategy,
            "pair": r.pair_label,
            "profit_eur": format_money(r.realized),
            "trades": _format_trades(r.trades),
            "pf_eur": format_money(r.pf),
            "dp_eur": format_money(r.dp),
            "windows": r.windows,
            "window_profits_eur": [format_money(x) for x in r.per_window],
        }
        for r in reports
    ]
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_plot_csv(path: str | Path, reports: Iterable[BacktestReport]) -> None:
    """Per-row window profit spread, for plotting profit against pair."""
    lines = ["market,strategy,pair,mean_eur,min_eur,max_eur"]
    for r in reports:
        if r.per_window:
            mean = sum(r.per_window, Fraction(0)) / len(r.per_window)
            lo, hi = min(r.per_window), max(r.per_window)
        else:
            mean = lo = hi = Fraction(0)
        lines.append(
            ",".join(
                [
                    r.market,
                    r.strategy,
                    r.pair_label,
                    format_money(mean),
                    format_money(lo),
                    format_money(hi),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")
