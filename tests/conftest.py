"""Shared builders for the test suite."""

import sys
from fractions import Fraction

import pytest

from bessarb._numeric import scale_ratios
from bessarb.battery import unit_trading_spec
from bessarb.market import (
    BASE_EPOCH,
    MarketKind,
    PriceSeries,
    QuantileForecast,
    TradingWindow,
)


def frac(x) -> Fraction:
    """Exact Fraction from a decimal literal of any convenient type."""
    return x if isinstance(x, Fraction) else Fraction(str(x))


def scaled(values) -> tuple[tuple[int, ...], int]:
    """(integers, scale): exact values over the lcm of their denominators."""
    return scale_ratios([frac(v).as_integer_ratio() for v in values])


def make_window(market=MarketKind.BM, periods=None, start=BASE_EPOCH) -> TradingWindow:
    n = market.periods_per_window if periods is None else periods
    return TradingWindow(market, start, n)


def make_prices(curve, market=MarketKind.BM, start=BASE_EPOCH) -> PriceSeries:
    window = TradingWindow(market, start, len(curve))
    return PriceSeries(window, *scaled(curve))


def make_forecast(curves: dict, market=MarketKind.BM, start=BASE_EPOCH) -> QuantileForecast:
    """Forecast from {level: curve}; curves must share one length."""
    items = sorted((frac(lv), curve) for lv, curve in curves.items())
    levels = tuple(lv for lv, _ in items)
    length = len(items[0][1])
    window = TradingWindow(market, start, length)
    rows = tuple(
        tuple(frac(curve[t]) for _, curve in items) for t in range(length)
    )
    return QuantileForecast.from_values(window, levels, rows)


def flat_forecast(curve, levels=("0.5",), market=MarketKind.BM, start=BASE_EPOCH):
    """Forecast whose every level carries the same curve."""
    return make_forecast({lv: curve for lv in levels}, market=market, start=start)


def merged_events(dam: TradingWindow, bm: TradingWindow) -> list:
    """(market, period) of a day-ahead window and the balancing window that
    opens with it, in wall-clock trade order, hourly leg first at the top of
    an hour.  An oracle for Horizon.events, independent of its sort."""
    events = []
    for hh in range(dam.period_count * 2):
        if hh % 2 == 0:
            events.append((MarketKind.DAM, hh // 2))
        if hh < bm.period_count:
            events.append((MarketKind.BM, hh))
    return events


@pytest.fixture
def unit_spec():
    return unit_trading_spec()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One [PASS]/[FAIL] line per release criterion, when those tests ran."""
    module = sys.modules.get("test_acceptance")
    if module is None:
        return
    criteria = getattr(module, "CRITERIA", {})
    verdicts = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            name = report.location[2].split("[")[0]
            if name not in criteria:
                continue
            num, label = criteria[name]
            failed = verdicts.get(num, "").startswith("[FAIL")
            verdict = "FAIL" if (outcome != "passed" or failed) else "PASS"
            verdicts[num] = f"[{verdict}] criterion {num:2d}: {label}"
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for num in sorted(verdicts):
            terminalreporter.write_line(verdicts[num])
