"""Command line front end.

Subcommands: gen (synthetic data), backtest (one strategy and pair),
sweep (full report grid), pf (benchmarks only), score (forecast quality),
econ (multi-year return projection).

Each option is declared once, with its type, choices and default: the
common ones in `_COMMON`, the rest in one `_<command>_options` function per
subcommand; `_declare` puts one subcommand's options on a parser, and
handlers read the typed values. An argv that starts with a subcommand name
is read by that subcommand's parser alone (`bessarb <name>`); any other
argv by the six-command parser of `_build_parser`. A `--config`
JSON file stands for command-line tokens: each key is an option of the
chosen subcommand, named by its underscore form (`noise_sd`, `out_format`),
and its value is that option's text. Those tokens go before the real ones
and pass through the same parser, so the command line wins and both are
checked alike.

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
from bessarb._numeric import exact_text, format_decimal, format_money, parse_number
from bessarb.battery import BatterySpec, unit_trading_spec
from bessarb.errors import (
    BessArbError,
    ConfigError,
    InvalidPair,
    LevelOutOfRange,
    MalformedRow,
    MissingRevenueSource,
)
from bessarb.evaluation import (
    STRATEGY_NAMES,
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
    DEFAULT_LEVELS,
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

_MARKETS = {kind.value.lower(): kind for kind in MarketKind}
_LEVELS_TEXT = ",".join(map(format_decimal, DEFAULT_LEVELS))
# The range of each count that sizes a run; above it a run takes hours.
_COUNTS = {"days": (1, 3660), "years": (1, 1000), "degradation_period": (1, 1000)}
_YEAR_10000 = 253402300800  # 10000-01-01T00:00:00Z; a timestamp names years 1 to 9999


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ConfigError, not exit."""

    def error(self, message: str):
        raise ConfigError(message)


def _decimal(text: str) -> Fraction:
    try:
        return parse_number(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(f"{exc}: {text!r}") from None
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _pair(flag: str):
    """QuantilePair.parse, its InvalidPair naming `flag` as argparse would."""
    def parse(text: str) -> QuantilePair:
        try:
            return QuantilePair.parse(text)
        except InvalidPair as exc:
            raise InvalidPair(f"argument {flag}: {exc}") from None
    return parse


def _market(text: str) -> MarketKind:
    kind = _MARKETS.get(text.lower())
    if kind is None:
        raise argparse.ArgumentTypeError(f"unknown market {text!r}; use dam or bm")
    return kind


def _timestamp(text: str) -> int:
    try:
        return parse_timestamp(text)
    except MalformedRow:
        raise argparse.ArgumentTypeError(
            f"must be an ISO-8601 UTC timestamp in whole seconds: {text!r}"
        ) from None


class _Items:
    """Type of a list option: comma-separated text, each item converted by
    `item`.  A config file may give the items as a JSON list instead."""

    def __init__(self, item):
        self.item = item

    def __call__(self, text: str) -> tuple:
        return tuple(self.item(part.strip()) for part in text.split(","))


# Types of the options, or list items, that a JSON number in a config may feed.
_NUMBERS = (int, _decimal)


# The options more than one subcommand reads; each subcommand lists its own.
_COMMON = {
    "--out": dict(help="output directory"),
    "--jobs": dict(type=int, default=1,
                   help="processes that share the sweep, this one included;"
                        " at most one per work item (default %(default)s)"),
    "--format": dict(choices=("csv", "json"), default="csv", dest="out_format",
                     help="report format (default %(default)s)"),
    "--seed": dict(type=int, default=0, help="random seed (default %(default)s)"),
    "--battery": dict(help="battery spec JSON file"),
}


def _gen_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--days", type=int, default=1,
                   help=f"days to generate, at most {_COUNTS['days'][1]}"
                        " (default %(default)s)")
    p.add_argument("--noise-sd", type=_decimal, default=0,
                   help="price noise level in EUR (default %(default)s)")
    p.add_argument("--markets", type=_Items(_market), default=tuple(MarketKind),
                   help="comma list of dam,bm (default both)")
    p.add_argument("--levels", type=_Items(_decimal), default=DEFAULT_LEVELS,
                   help=f"forecast levels (default {_LEVELS_TEXT})")
    p.add_argument("--start", type=_timestamp, default=BASE_EPOCH,
                   help="first window start, ISO UTC")


def _market_file_options(p: argparse.ArgumentParser) -> None:
    """The inputs backtest and sweep share."""
    p.add_argument("--dam-actuals", help="hourly price CSV")
    p.add_argument("--dam-forecast", help="hourly quantile forecast CSV")
    p.add_argument("--bm-actuals", help="half-hourly price CSV")
    p.add_argument("--bm-forecast", help="half-hourly quantile forecast CSV")
    p.add_argument("--allow-stock-buys", action="store_true",
                   help="permit unmatched buys when a sell leg clips to zero")


def _backtest_options(p: argparse.ArgumentParser) -> None:
    _market_file_options(p)
    p.add_argument("--market", choices=("dam", "bm", "dual"), default="dam")
    p.add_argument("--strategy", choices=STRATEGY_NAMES, default="TS3")
    p.add_argument("--pair", type=_pair("--pair"), default="0.5:0.5",
                   help="quantile pair sell:buy (default %(default)s)")
    p.add_argument("--carry-state", action="store_true",
                   help="carry final charge into the next window")


def _sweep_options(p: argparse.ArgumentParser) -> None:
    _market_file_options(p)
    p.add_argument("--pairs", type=_Items(_pair("--pairs")),
                   default=DEFAULT_PAIRS, help="comma list of sell:buy pairs")
    p.add_argument("--strategies", type=_Items(str.upper), default=STRATEGY_NAMES,
                   help=f"comma list of {','.join(STRATEGY_NAMES)}")
    p.add_argument("--no-average", action="store_true",
                   help="omit per-block average rows")


def _pf_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--actuals", help="price CSV")
    p.add_argument("--market", choices=tuple(_MARKETS), default="dam")
    p.add_argument("--strategy", choices=STRATEGY_NAMES, default="TS3")


def _score_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--forecast", help="quantile forecast CSV")
    p.add_argument("--actuals", help="price CSV")
    p.add_argument("--market", choices=tuple(_MARKETS), default="dam")


def _econ_options(p: argparse.ArgumentParser) -> None:
    # Scenario options have no parser default: unset, EconScenario or the
    # catalog asset decides, and econ can tell a given option from an unset one.
    # Only econ reads the economics module, so no other command loads it.
    from bessarb.economics import (
        DEFAULT_ANNUAL_FEES,
        DEFAULT_YEARS,
        DEGRADATION_KINDS,
        MAINTENANCE_KINDS,
    )

    p.add_argument("--asset", help="catalog asset key (A, B, C or D)")
    p.add_argument("--capex", type=_decimal, help="purchase cost, EUR")
    p.add_argument("--revenue", type=_decimal, help="first-year trading revenue, EUR")
    p.add_argument("--maintenance", type=_decimal, help="first-year maintenance, EUR")
    p.add_argument("--fees", type=_decimal,
                   help=f"annual market fees, EUR (default {DEFAULT_ANNUAL_FEES})")
    p.add_argument("--years", type=int,
                   help=f"projection years, at most {_COUNTS['years'][1]}"
                        f" (default {DEFAULT_YEARS})")
    p.add_argument("--degradation-kind", choices=DEGRADATION_KINDS)
    p.add_argument("--degradation-period", type=int,
                   help="years per degradation step, at most"
                        f" {_COUNTS['degradation_period'][1]} (default 1)")
    p.add_argument("--maintenance-kind", choices=MAINTENANCE_KINDS)


def _declare(p: argparse.ArgumentParser, command: str) -> None:
    """Declare `command`'s options on `p`: --config, the common options it
    reads, then its own.  Both hosts of a subcommand run this one declaration:
    its parser alone, or its subparser in the six-command parser."""
    _, _, common, declare = _COMMANDS[command]
    p.add_argument("--config", help="JSON file with default option values")
    for option in common:
        p.add_argument(option, **_COMMON[option])
    declare(p)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The six-command parser, and its subcommand parsers by name."""
    parser = _Parser(
        prog="bessarb",
        description="Backtest battery arbitrage on quantile price forecasts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, _, _) in _COMMANDS.items():
        _declare(sub.add_parser(name, help=summary), name)
    return parser, sub.choices


def _config_tokens(subparser: argparse.ArgumentParser, command: str,
                   path: str) -> list[str]:
    """The tokens of `command`, parsed by `subparser`, that the keys of the
    config file stand for."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an int too long to read
        raise ConfigError(f"invalid config JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config JSON must be an object")
    actions = {a.dest: a for a in subparser._actions if a.option_strings}
    tokens = []
    for key, value in doc.items():
        action = None if key in ("config", "help") else actions.get(key)
        if action is None:
            # only --format names its dest apart from its flag
            named = {kw["dest"]: option for option, kw in _COMMON.items() if "dest" in kw}
            raise ConfigError(
                f"{command} takes no config key {key!r} ({named.get(key, _flag(key))})"
            )
        flag = action.option_strings[-1]
        if value is None:
            continue
        if action.nargs == 0:  # a switch
            if not isinstance(value, bool):
                raise ConfigError(f"{flag} takes true or false in a config: {value!r}")
            tokens += [flag] if value else []
            continue
        listed = isinstance(value, list) and isinstance(action.type, _Items)
        items = value if listed else [value]
        numeric = getattr(action.type, "item", action.type) in _NUMBERS
        if not all(isinstance(v, str) or numeric and type(v) in (int, float)
                   for v in items):
            raise ConfigError(f"{flag} cannot take {value!r} in a config")
        tokens.append(f"{flag}={','.join(map(str, items))}")
    return tokens


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _battery(args: argparse.Namespace) -> BatterySpec:
    path = args.battery
    return unit_trading_spec() if path is None else BatterySpec.from_json_file(path)


def _out_dir(args: argparse.Namespace, required: bool = False) -> Path | None:
    if args.out is None:
        if required:
            raise ConfigError("this command needs --out")
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require(args: argparse.Namespace, key: str) -> str:
    value = getattr(args, key)
    if value is None:
        raise ConfigError(f"missing required option {_flag(key)}")
    return value


def _load_market_files(args: argparse.Namespace, prefix: str):
    """(forecasts, actuals) of one market, read from its two CSV files."""
    market = _MARKETS[prefix]
    actuals = parse_price_csv(_require(args, f"{prefix}_actuals"), market)
    forecasts = parse_forecast_csv(_require(args, f"{prefix}_forecast"), market)
    return forecasts, actuals


def _load_units(args: argparse.Namespace, prefix: str):
    return window_units(*_load_market_files(args, prefix))


# --- subcommands ------------------------------------------------------------

def _cmd_gen(args: argparse.Namespace) -> int:
    if args.noise_sd < 0:
        raise ConfigError("--noise-sd must be non-negative")
    if args.start + args.days * 86400 > _YEAR_10000:
        raise ConfigError("--start with --days runs past the year 9999")
    for level in args.levels:  # each forecast column names its level in decimal
        try:
            format_decimal(level)
        except ValueError:
            raise ConfigError(f"--levels: {level} has no decimal form") from None
    out = _out_dir(args) or Path(".")
    counts = {}
    for market in args.markets:
        name = market.value.lower()
        try:
            actuals, forecasts = generate_synthetic(
                args.seed, market, days=args.days, noise_sd=float(args.noise_sd),
                levels=args.levels, start_epoch_s=args.start,
            )
        except LevelOutOfRange as exc:
            raise ConfigError(f"--levels: {exc}") from None
        write_price_csv(out / f"{name}_actuals.csv", actuals)
        write_forecast_csv(out / f"{name}_forecast.csv", forecasts)
        counts[name] = len(actuals)
    summary = " ".join(f"{name}_windows={n}" for name, n in counts.items())
    print(f"gen out={out} days={args.days} {summary}")
    return 0


def _cmd_backtest(args: argparse.Namespace) -> int:
    spec = _battery(args)
    out = _out_dir(args)
    if args.market == "dual":
        units = dual_units(_load_units(args, "dam"), _load_units(args, "bm"))
        if not units:
            raise ConfigError("no balancing window opens with a day-ahead window")
    else:
        units = _load_units(args, args.market)
    profit, trades, pf, dp = Fraction(0), 0, Fraction(0), Fraction(0)
    schedules = []
    unit_spec = spec  # schedules.json names the spec read, not a carried one
    for unit in units:
        unit_schedules, result = trade_unit(
            unit, args.strategy, args.pair, unit_spec, args.allow_stock_buys
        )
        profit += result.cash
        trades += sum(s.trade_count for s in unit_schedules)
        pf += pf_unit(unit, unit_spec, args.strategy, args.allow_stock_buys)
        dp += dp_unit(unit, unit_spec)
        schedules.extend(unit_schedules)
        if args.carry_state:
            unit_spec = unit_spec.replace(initial_charge=result.final_charge)
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    spec = _battery(args)
    dam_forecasts, dam_actuals = _load_market_files(args, "dam")
    bm_actuals = bm_forecasts = None
    if args.bm_actuals is not None or args.bm_forecast is not None:
        bm_forecasts, bm_actuals = _load_market_files(args, "bm")
    reports = run_sweep(
        spec,
        dam_actuals,
        dam_forecasts,
        bm_actuals,
        bm_forecasts,
        pairs=args.pairs,
        strategies=args.strategies,
        jobs=args.jobs,
        allow_stock_buys=args.allow_stock_buys,
        include_average=not args.no_average,
    )
    out = _out_dir(args, required=True)
    if args.out_format == "json":
        write_report_json(out / "report.json", reports)
    else:
        write_report_csv(out / "report.csv", reports)
    write_plot_csv(out / "plot.csv", reports)
    print(f"rows={len(reports)} out={out}")
    return 0


def _cmd_pf(args: argparse.Namespace) -> int:
    spec = _battery(args)
    actuals = parse_price_csv(_require(args, "actuals"), _MARKETS[args.market])
    pf = sum(
        (perfect_foresight(ps, spec, args.strategy) for ps in actuals), Fraction(0)
    )
    dp = sum((dp_optimal(ps, spec) for ps in actuals), Fraction(0))
    print(f"pf={format_money(pf)} dp={format_money(dp)} windows={len(actuals)}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    market = _MARKETS[args.market]
    forecasts = parse_forecast_csv(_require(args, "forecast"), market)
    actuals = parse_price_csv(_require(args, "actuals"), market)
    report = score_forecasts(forecasts, actuals)
    out = _out_dir(args)
    if out is not None:
        lines = ["level,mean_pinball"]
        for lv, loss in report.per_level.items():
            lines.append(f"{exact_text(lv)},{float(loss):.6f}")
        lines.append(f"all,{float(report.mean):.6f}")
        (out / "score.csv").write_text("\n".join(lines) + "\n")
    print(f"pinball={float(report.mean):.6f} cells={report.cells}")
    return 0


# econ option -> the EconScenario field it sets
_SCENARIO_FIELDS = dict(
    capex="capex", revenue="base_revenue", maintenance="base_maintenance",
    fees="annual_fees", years="years", degradation_kind="degradation_kind",
    degradation_period="degradation_period_years", maintenance_kind="maintenance_kind",
)


def _cmd_econ(args: argparse.Namespace) -> int:
    from bessarb.economics import (
        EconScenario,
        annual_return_curve,
        breakeven_year,
        load_catalog,
        scenario_for,
    )

    given = {field: getattr(args, key) for key, field in _SCENARIO_FIELDS.items()
             if getattr(args, key) is not None}
    if args.asset is not None:
        catalog = load_catalog()
        if args.asset not in catalog:
            raise ConfigError(f"unknown asset {args.asset!r}; have {sorted(catalog)}")
        fixed = [_flag(key) for key, field in _SCENARIO_FIELDS.items()
                 if field in given and key not in ("revenue", "years")]
        if fixed:
            raise ConfigError(f"--asset fixes the cost profile; drop {' '.join(fixed)}")
        asset = catalog[args.asset]
        if asset.degradation_kind is None and not given:
            curve = list(asset.reference_curve)
        else:
            curve = annual_return_curve(scenario_for(asset, **given))
    else:
        if args.revenue is None:
            raise MissingRevenueSource(
                "give --asset, or --revenue with --capex and --maintenance"
            )
        _require(args, "capex")
        _require(args, "maintenance")
        curve = annual_return_curve(EconScenario(**given))
    breakeven = breakeven_year(curve)
    out = _out_dir(args)
    if out is not None:
        if args.out_format == "json":
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


# name: (handler, summary, the common options it reads, its own options)
_COMMANDS = {
    "gen": (_cmd_gen, "write synthetic data CSVs", ("--seed", "--out"), _gen_options),
    "backtest": (_cmd_backtest, "trade forecasts against settled prices",
                 ("--battery", "--out"), _backtest_options),
    "sweep": (_cmd_sweep, "trade forecasts against settled prices",
              ("--jobs", "--battery", "--out", "--format"), _sweep_options),
    "pf": (_cmd_pf, "perfect-foresight and optimum benchmarks", ("--battery",),
           _pf_options),
    "score": (_cmd_score, "pinball-score a forecast", ("--out",), _score_options),
    "econ": (_cmd_econ, "project multi-year cumulative returns", ("--out", "--format"),
             _econ_options),
}


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv and its --config tokens; the parser is freed on return, so
    the lanes of `sweep --jobs 2` do not fork with it.

    When argv starts with a subcommand name, that subcommand's parser alone
    reads the tokens after the name, as `bessarb <name>`, into a namespace
    whose `command` is set first: what the six-command parser would hand it
    and make of it, so nothing reads differently.  Any other argv (help,
    version, a missing or unknown name, or an option before the name) gets
    the six-command parser, so the help text and the error list every
    subcommand.  Either way the config tokens go right after the name.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        command = argv[0]
        parser = _Parser(prog=f"bessarb {command}")
        _declare(parser, command)
        commands = {command: parser}

        def parse(tokens):  # the name, then the tokens its parser reads
            return parser.parse_args(tokens[1:], argparse.Namespace(command=command))
    else:
        parser, commands = _build_parser()
        parse = parser.parse_args
    args = parse(argv)
    if args.config is not None:
        at = argv.index(args.command) + 1
        tokens = _config_tokens(commands[args.command], args.command, args.config)
        args = parse(argv[:at] + tokens + argv[at:])
    for key, (least, most) in _COUNTS.items():
        value = getattr(args, key, None)
        if value is not None and not least <= value <= most:
            raise ConfigError(f"{_flag(key)} takes {least} to {most}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command][0](args)
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
