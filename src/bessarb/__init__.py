"""Backtester for battery storage arbitrage on day-ahead and balancing markets.

The package turns quantile price forecasts into battery trade schedules,
settles them against realized prices, and benchmarks the result against a
perfect-foresight run and an exact dynamic-programming bound.  A fleet
economics module projects multi-year returns for catalog batteries; it
loads on first use of one of its names, so a command that projects no
returns never reads it.
"""

from bessarb.battery import BatterySpec, BatteryState, unit_trading_spec
from bessarb.market import (
    MarketKind,
    PriceSeries,
    QuantileForecast,
    TradingWindow,
    build_dual_horizon,
    generate_synthetic,
    parse_forecast_csv,
    parse_price_csv,
)
from bessarb.strategies import (
    QuantilePair,
    Schedule,
    TradeOrder,
    bottleneck_execute,
    ts1,
    ts2,
    ts3,
    ts3_dual,
)
from bessarb.evaluation import (
    BacktestReport,
    dp_optimal,
    perfect_foresight,
    pinball,
    run_sweep,
    settle,
)

__version__ = "0.1.0"

# The names of bessarb.economics that __getattr__ serves on first use.
_ECONOMICS = (
    "EconScenario",
    "annual_return_curve",
    "implied_base_revenue",
    "breakeven_year",
    "annualize_backtest_revenue",
    "load_catalog",
)

__all__ = [
    "BatterySpec",
    "BatteryState",
    "unit_trading_spec",
    "MarketKind",
    "TradingWindow",
    "PriceSeries",
    "QuantileForecast",
    "parse_price_csv",
    "parse_forecast_csv",
    "build_dual_horizon",
    "generate_synthetic",
    "QuantilePair",
    "TradeOrder",
    "Schedule",
    "bottleneck_execute",
    "ts1",
    "ts2",
    "ts3",
    "ts3_dual",
    "settle",
    "perfect_foresight",
    "dp_optimal",
    "pinball",
    "run_sweep",
    "BacktestReport",
    *_ECONOMICS,
]


def __getattr__(name: str):
    """The economics names of __all__, read from their module on first use."""
    if name in _ECONOMICS:
        from bessarb import economics

        return getattr(economics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
