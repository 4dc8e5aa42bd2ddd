"""Command line front end.

Subcommands: gen (synthetic data), backtest (one strategy and pair),
sweep (full report grid), pf (benchmarks only), score (forecast quality),
econ (multi-year return projection).

Exit codes: 0 success, 2 configuration problems, 3 data or IO problems.
Errors print one JSON object to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from bessarb import __version__
from bessarb._numeric import format_decimal, format_money
from bessarb.battery import BatterySpec, unit_trading_spec
from bessarb.economics import (
    EconScenario,
    annual_return_curve,
    breakeven_year,
    load_catalog,
    scenario_for,
)
from bessarb.errors import (
    BessArbError,
    ConfigError,
    LevelOutOfRange,
    MalformedRow,
    MissingRevenueSource,
)
from bessarb.evaluation import (
    dp_optimal,
    dp_unit,
    dual_units,
    perfect_foresight,
    pf_unit,
    run_sweep,
    score_forecasts,
    trade_unit,
    window_units,
    write_plot_csv,
    write_report_csv,
    write_report_json,
)
from bessarb.market import (
    BASE_EPOCH,
    MarketKind,
    generate_synthetic,
    parse_forecast_csv,
    parse_price_csv,
    parse_timestamp,
    write_forecast_csv,
    write_price_csv,
)
from bessarb.strategies import (
    DEFAULT_PAIRS,
    QuantilePair,
    schedule_to_dict,
    write_schedule_csv,
)

_DEFAULT_LEVELS_ARG = "0.1,0.3,0.5,0.7,0.9"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ConfigError, not exit."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    # Numeric options stay strings here: _Options.number converts them, so
    # a bad value from the command line or a config file fails the same way.
    # Each subcommand takes --config and only the common options it reads.
    common = {
        "--out": dict(help="output directory"),
        "--jobs": dict(help="processes that share the sweep, this one included;"
                            " at most one per work item (default 1)"),
        "--format": dict(choices=("csv", "json"), dest="out_format",
                         help="report format (default csv)"),
        "--seed": dict(help="random seed (default 0)"),
        "--battery": dict(help="battery spec JSON file"),
    }

    def add_parser(name, options, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="JSON file with default option values")
        for option in options:
            p.add_argument(option, **common[option])
        return p

    parser = _Parser(
        prog="bessarb",
        description="Backtest battery arbitrage on quantile price forecasts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = add_parser("gen", ("--seed", "--out"), help="write synthetic data CSVs")
    p.add_argument("--days", help="days to generate (default 1)")
    p.add_argument("--noise-sd", help="price noise level in EUR (default 0)")
    p.add_argument("--markets", help="comma list of dam,bm (default both)")
    p.add_argument("--levels", help=f"forecast levels (default {_DEFAULT_LEVELS_ARG})")
    p.add_argument("--start", help="first window start, ISO UTC")

    for name, options in (
        ("backtest", ("--battery", "--out")),
        ("sweep", ("--jobs", "--battery", "--out", "--format")),
    ):
        p = add_parser(name, options, help="trade forecasts against settled prices")
        p.add_argument("--dam-actuals", help="hourly price CSV")
        p.add_argument("--dam-forecast", help="hourly quantile forecast CSV")
        p.add_argument("--bm-actuals", help="half-hourly price CSV")
        p.add_argument("--bm-forecast", help="half-hourly quantile forecast CSV")
        p.add_argument("--allow-stock-buys", action="store_true",
                       help="permit unmatched buys when a sell leg clips to zero")
        if name == "backtest":
            p.add_argument("--market", choices=("dam", "bm", "dual"))
            p.add_argument("--strategy", choices=("TS1", "TS2", "TS3"))
            p.add_argument("--pair", help="quantile pair sell:buy (default 0.5:0.5)")
            p.add_argument("--carry-state", action="store_true",
                           help="carry final charge into the next window")
        else:
            p.add_argument("--pairs", help="comma list of sell:buy pairs")
            p.add_argument("--strategies", help="comma list of TS1,TS2,TS3")
            p.add_argument("--no-average", action="store_true",
                           help="omit per-block average rows")

    p = add_parser("pf", ("--battery",),
                   help="perfect-foresight and optimum benchmarks")
    p.add_argument("--actuals", help="price CSV")
    p.add_argument("--market", choices=("dam", "bm"))
    p.add_argument("--strategy", choices=("TS1", "TS2", "TS3"))

    p = add_parser("score", ("--out",), help="pinball-score a forecast")
    p.add_argument("--forecast", help="quantile forecast CSV")
    p.add_argument("--actuals", help="price CSV")
    p.add_argument("--market", choices=("dam", "bm"))

    p = add_parser("econ", ("--out", "--format"),
                   help="project multi-year cumulative returns")
    p.add_argument("--asset", help="catalog asset key (A, B, C or D)")
    p.add_argument("--capex", help="purchase cost, EUR")
    p.add_argument("--revenue", help="first-year trading revenue, EUR")
    p.add_argument("--maintenance", help="first-year maintenance, EUR")
    p.add_argument("--fees", help="annual market fees, EUR (default 18294)")
    p.add_argument("--years", help="projection years (default 15)")
    p.add_argument("--degradation-kind", choices=("linear", "loss_compound"))
    p.add_argument("--degradation-period",
                   help="years per degradation step (default 1)")
    p.add_argument("--maintenance-kind", choices=("compound", "linear"))
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"invalid config JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config JSON must be an object")
    return doc


_KNOWN_CONFIG_KEYS = {
    "out", "jobs", "out_format", "seed", "battery",
    "days", "noise_sd", "markets", "levels", "start",
    "dam_actuals", "dam_forecast", "bm_actuals", "bm_forecast",
    "allow_stock_buys", "market", "strategy", "pair", "carry_state",
    "pairs", "strategies", "no_average",
    "actuals", "forecast",
    "asset", "capex", "revenue", "maintenance", "fees", "years",
    "degradation_kind", "degradation_period", "maintenance_kind",
}


_PATH_CONFIG_KEYS = (
    "out", "battery", "dam_actuals", "dam_forecast", "bm_actuals", "bm_forecast",
    "actuals", "forecast",
)


class _Options:
    """CLI values over config-file values over hard defaults."""

    def __init__(self, args: argparse.Namespace, config: dict):
        unknown = set(config) - _KNOWN_CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in _PATH_CONFIG_KEYS:
            value = config.get(key)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{_flag(key)} must be a path: {value!r}")
        self._args = args
        self._config = config

    def get(self, key: str, default=None):
        value = getattr(self._args, key, None)
        if value is not None:
            return value
        return self._config.get(key, default)

    def flag(self, key: str) -> bool:
        return bool(getattr(self._args, key, False) or self._config.get(key, False))

    def number(self, key: str, default, kind=int):
        """The value converted by `kind`; a value it rejects is a ConfigError."""
        return _convert(key, self.get(key, default), kind)

    def items(self, key: str, default: str) -> list[str]:
        """A comma-separated string, or a JSON list from a config file."""
        value = self.get(key, default)
        items = value if isinstance(value, list) else str(value).split(",")
        if not items:
            raise ConfigError(f"{_flag(key)} needs at least one value")
        return [str(item).strip() for item in items]


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _convert(key: str, value, kind):
    try:
        return kind(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ConfigError(f"{_flag(key)} is not a number: {value!r}") from None


def _decimal(value) -> Fraction:
    return Fraction(str(value))


def _battery(opts: _Options) -> BatterySpec:
    path = opts.get("battery")
    return unit_trading_spec() if path is None else BatterySpec.from_json_file(path)


def _out_dir(opts: _Options, required: bool = False) -> Path | None:
    out = opts.get("out")
    if out is None:
        if required:
            raise ConfigError("this command needs --out")
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require(opts: _Options, key: str) -> str:
    value = opts.get(key)
    if value is None:
        raise ConfigError(f"missing required option {_flag(key)}")
    return value


def _parse_market(text: str) -> MarketKind:
    kinds = {"dam": MarketKind.DAM, "bm": MarketKind.BM}
    kind = kinds.get(text.lower())
    if kind is None:
        raise ConfigError(f"unknown market {text!r}; use dam or bm")
    return kind


def _load_market_files(opts: _Options, prefix: str):
    """(forecasts, actuals) of one market, read from its two CSV files."""
    market = _parse_market(prefix)
    actuals = parse_price_csv(_require(opts, f"{prefix}_actuals"), market)
    forecasts = parse_forecast_csv(_require(opts, f"{prefix}_forecast"), market)
    return forecasts, actuals


def _load_units(opts: _Options, prefix: str):
    return window_units(*_load_market_files(opts, prefix), prefix)


# --- subcommands ------------------------------------------------------------

def _cmd_gen(opts: _Options) -> int:
    seed = opts.number("seed", 0)
    days = opts.number("days", 1)
    if days < 1:
        raise ConfigError("--days must be at least 1")
    noise_sd = opts.number("noise_sd", "0", lambda v: float(_decimal(v)))
    if noise_sd < 0:
        raise ConfigError("--noise-sd must be non-negative")
    levels = [
        _convert("levels", lv, _decimal)
        for lv in opts.items("levels", _DEFAULT_LEVELS_ARG)
    ]
    markets = [m.lower() for m in opts.items("markets", "dam,bm")]
    kinds = [_parse_market(m) for m in markets]
    start_text = opts.get("start")
    try:
        start = BASE_EPOCH if start_text is None else parse_timestamp(str(start_text))
    except MalformedRow:
        raise ConfigError(
            f"--start must be an ISO-8601 UTC timestamp in whole seconds: {start_text!r}"
        ) from None
    out = _out_dir(opts) or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    counts = {}
    for name, market in zip(markets, kinds):
        try:
            actuals, forecasts = generate_synthetic(
                seed, market, days=days, noise_sd=noise_sd, levels=levels,
                start_epoch_s=start,
            )
        except LevelOutOfRange as exc:
            raise ConfigError(f"--levels: {exc}") from None
        write_price_csv(out / f"{name}_actuals.csv", actuals)
        write_forecast_csv(out / f"{name}_forecast.csv", forecasts)
        counts[name] = len(actuals)
    summary = " ".join(f"{name}_windows={n}" for name, n in counts.items())
    print(f"gen out={out} days={days} {summary}")
    return 0


def _cmd_backtest(opts: _Options) -> int:
    spec = _battery(opts)
    market = str(opts.get("market", "dam")).lower()
    strategy = str(opts.get("strategy", "TS3"))
    pair = QuantilePair.parse(str(opts.get("pair", "0.5:0.5")))
    carry = opts.flag("carry_state")
    allow_stock = opts.flag("allow_stock_buys")
    out = _out_dir(opts)
    if market == "dual":
        units = dual_units(_load_units(opts, "dam"), _load_units(opts, "bm"))
        if not units:
            raise ConfigError("no balancing window opens with a day-ahead window")
    elif market in ("dam", "bm"):
        units = _load_units(opts, market)
    else:
        raise ConfigError(f"unknown market {market!r}")
    profit, trades, pf, dp = Fraction(0), 0, Fraction(0), Fraction(0)
    schedules = []
    init = None
    for unit in units:
        unit_schedules, result = trade_unit(
            unit, strategy, pair, spec, allow_stock, init
        )
        profit += result.cash
        trades += sum(s.trade_count for s in unit_schedules)
        pf += pf_unit(unit, spec, strategy, allow_stock, init)
        dp += dp_unit(unit, spec, init)
        schedules.extend(unit_schedules)
        if carry:
            init = result.final_charge
    if out is not None:
        for i, schedule in enumerate(schedules):
            name = f"schedule_{schedule.window.market.value.lower()}_{i:03d}.csv"
            write_schedule_csv(out / name, schedule)
        doc = [schedule_to_dict(s, spec) for s in schedules]
        (out / "schedules.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
    print(
        f"profit={format_money(profit)} trades={trades} "
        f"pf={format_money(pf)} dp={format_money(dp)}"
    )
    return 0


def _cmd_sweep(opts: _Options) -> int:
    jobs = opts.number("jobs", 1)
    if jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    spec = _battery(opts)
    dam_forecasts, dam_actuals = _load_market_files(opts, "dam")
    bm_actuals = bm_forecasts = None
    if opts.get("bm_actuals") is not None or opts.get("bm_forecast") is not None:
        bm_forecasts, bm_actuals = _load_market_files(opts, "bm")
    pairs = (
        DEFAULT_PAIRS
        if opts.get("pairs") is None
        else tuple(QuantilePair.parse(p) for p in opts.items("pairs", ""))
    )
    strategies = tuple(s.upper() for s in opts.items("strategies", "TS1,TS2,TS3"))
    reports = run_sweep(
        spec,
        dam_actuals,
        dam_forecasts,
        bm_actuals,
        bm_forecasts,
        pairs=pairs,
        strategies=strategies,
        jobs=jobs,
        allow_stock_buys=opts.flag("allow_stock_buys"),
        include_average=not opts.flag("no_average"),
    )
    out = _out_dir(opts, required=True)
    if opts.get("out_format", "csv") == "json":
        write_report_json(out / "report.json", reports)
    else:
        write_report_csv(out / "report.csv", reports)
    write_plot_csv(out / "plot.csv", reports)
    print(f"rows={len(reports)} out={out}")
    return 0


def _cmd_pf(opts: _Options) -> int:
    spec = _battery(opts)
    market = _parse_market(str(opts.get("market", "dam")))
    strategy = str(opts.get("strategy", "TS3"))
    actuals = parse_price_csv(_require(opts, "actuals"), market)
    pf = sum((perfect_foresight(ps, spec, strategy) for ps in actuals), Fraction(0))
    dp = sum((dp_optimal(ps, spec) for ps in actuals), Fraction(0))
    print(f"pf={format_money(pf)} dp={format_money(dp)} windows={len(actuals)}")
    return 0


def _cmd_score(opts: _Options) -> int:
    market = _parse_market(str(opts.get("market", "dam")))
    forecasts = parse_forecast_csv(_require(opts, "forecast"), market)
    actuals = parse_price_csv(_require(opts, "actuals"), market)
    report = score_forecasts(forecasts, actuals)
    out = _out_dir(opts)
    if out is not None:
        lines = ["level,mean_pinball"]
        for lv, loss in report.per_level.items():
            lines.append(f"{format_decimal(lv)},{float(loss):.6f}")
        lines.append(f"all,{float(report.mean):.6f}")
        (out / "score.csv").write_text("\n".join(lines) + "\n")
    print(f"pinball={float(report.mean):.6f} cells={report.cells}")
    return 0


def _cmd_econ(opts: _Options) -> int:
    asset_key = opts.get("asset")
    revenue = opts.get("revenue")
    if revenue is not None:
        revenue = _convert("revenue", revenue, _decimal)
    years = opts.number("years", 15)
    if asset_key is not None:
        catalog = load_catalog()
        if asset_key not in catalog:
            raise ConfigError(
                f"unknown asset {asset_key!r}; have {sorted(catalog)}"
            )
        asset = catalog[asset_key]
        if asset.degradation_kind is None:
            curve = list(asset.reference_curve)
        else:
            curve = annual_return_curve(scenario_for(asset, revenue, years=years))
    else:
        if revenue is None:
            raise MissingRevenueSource(
                "give --asset, or --revenue with --capex and --maintenance"
            )
        scenario = EconScenario(
            capex=_convert("capex", _require(opts, "capex"), _decimal),
            base_revenue=revenue,
            base_maintenance=_convert(
                "maintenance", _require(opts, "maintenance"), _decimal
            ),
            annual_fees=opts.number("fees", "18294", _decimal),
            years=years,
            degradation_kind=str(opts.get("degradation_kind", "linear")),
            degradation_period_years=opts.number("degradation_period", 1),
            maintenance_kind=str(opts.get("maintenance_kind", "compound")),
        )
        curve = annual_return_curve(scenario)
    breakeven = breakeven_year(curve)
    out = _out_dir(opts)
    if out is not None:
        if opts.get("out_format", "csv") == "json":
            doc = {
                "breakeven_year": breakeven,
                "cumulative_eur": [format_money(v) for v in curve],
            }
            (out / "econ.json").write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n"
            )
        else:
            lines = ["year,cumulative_eur"]
            lines += [
                f"{year},{format_money(v)}" for year, v in enumerate(curve)
            ]
            (out / "econ.csv").write_text("\n".join(lines) + "\n")
    shown = "none" if breakeven is None else str(breakeven)
    print(f"breakeven={shown} final={format_money(curve[-1])}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "backtest": _cmd_backtest,
    "sweep": _cmd_sweep,
    "pf": _cmd_pf,
    "score": _cmd_score,
    "econ": _cmd_econ,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        opts = _Options(args, _load_config(getattr(args, "config", None)))
        return _COMMANDS[args.command](opts)
    except ConfigError as exc:
        _print_error(exc)
        return 2
    except (BessArbError, OSError) as exc:
        _print_error(exc)
        return 3


def _print_error(exc: Exception) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
