"""Market data containers, CSV ingest/emit and synthetic data generation.

Every timestamped CSV (prices, forecasts and forecasting features) is
read by read_table, and cut_windows cuts rows into trading windows.

Two market granularities are supported: hourly day-ahead windows of 24
periods and half-hourly balancing windows of 16 periods.  Prices are exact
EUR/MWh values, held as integers over one positive scale per series or
forecast: each CSV cell is read into an integer over a power of ten
(_numeric.parse_ratio), and the `prices` and `values` Fractions are built
only when read.  Floats only appear inside the synthetic generator before
rounding to cents.

A Horizon holds the windows one settlement covers, one window or a
day-ahead window with the balancing window that opens with it, and lists
their trades in wall-clock order once.
"""

from __future__ import annotations

import math
import random
import statistics
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from bessarb._numeric import (
    format_decimal,
    format_ratio,
    lowest_scale,
    parse_decimal,
    parse_ratio,
    scale_ratios,
    scale_to_integers,
)
from bessarb.errors import (
    LevelMissing,
    LevelOutOfRange,
    MalformedRow,
    MissingPeriod,
    NonMonotonicTimestamps,
    UnknownColumn,
    WindowMismatch,
)


class IngestWarning(UserWarning):
    """Recoverable ingest issue: rows were dropped, parsing continued."""


class MarketKind(str, Enum):
    DAM = "DAM"
    BM = "BM"

    @property
    def period_seconds(self) -> int:
        return 3600 if self is MarketKind.DAM else 1800

    @property
    def periods_per_window(self) -> int:
        return 24 if self is MarketKind.DAM else 16


@dataclass(frozen=True, slots=True)
class TradingWindow:
    """A contiguous run of trading periods in one market."""

    market: MarketKind
    start_epoch_s: int
    period_count: int

    def timestamp_of(self, period: int) -> int:
        if not 0 <= period < self.period_count:
            raise IndexError(f"period {period} outside window")
        return self.start_epoch_s + period * self.market.period_seconds

    @property
    def end_epoch_s(self) -> int:
        return self.start_epoch_s + self.period_count * self.market.period_seconds


def parse_timestamp(text: str, *, line: int = 0) -> int:
    """ISO-8601 UTC timestamp -> epoch seconds.  Accepts Z or +00:00."""
    raw = text.strip()
    normalized = raw[:-1] + "+00:00" if raw.endswith("Z") else raw
    try:
        moment = datetime.fromisoformat(normalized)
    except ValueError:
        raise MalformedRow(line, f"bad timestamp {raw!r}") from None
    if moment.tzinfo is None:
        raise MalformedRow(line, f"timestamp {raw!r} lacks a timezone")
    if moment.microsecond:
        raise MalformedRow(line, f"timestamp {raw!r} has sub-second precision")
    return int(moment.timestamp())


def format_timestamp(epoch_s: int) -> str:
    moment = datetime.fromtimestamp(epoch_s, tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True, slots=True, init=False)
class PriceSeries:
    """Settlement prices for one window, EUR/MWh.

    The prices are held as integers over one positive scale, the least
    that keeps every price whole: prices[t] == scaled[t] / scale.  Build a
    series from exact prices, or from integers with from_scaled; `prices`
    builds the Fractions each time it is read.
    """

    window: TradingWindow
    scaled: tuple[int, ...]
    scale: int

    def __init__(self, window: TradingWindow, prices: Sequence[Fraction]) -> None:
        self._set(window, *scale_to_integers(prices))

    @classmethod
    def from_scaled(
        cls, window: TradingWindow, scaled: Sequence[int], scale: int
    ) -> "PriceSeries":
        """The series whose price t is scaled[t] / scale."""
        series = cls.__new__(cls)
        series._set(window, scaled, scale)
        return series

    def _set(self, window: TradingWindow, scaled: Sequence[int], scale: int) -> None:
        if len(scaled) != window.period_count:
            raise WindowMismatch(
                f"{len(scaled)} prices for a {window.period_count}-period window"
            )
        scaled, scale = lowest_scale(scaled, scale)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "scale", scale)

    @property
    def prices(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.scale) for n in self.scaled)


def _coerce_level(level) -> Fraction:
    lv = level if isinstance(level, Fraction) else Fraction(str(level))
    if not 0 < lv < 1:
        raise LevelOutOfRange(f"quantile level {lv} outside (0, 1)")
    return lv


@dataclass(frozen=True, slots=True, init=False)
class QuantileForecast:
    """Per-period quantile price forecasts for one window.

    values is period-major: values[t][i] is the forecast at levels[i].  The
    values are held as integer rows over one positive scale, the least
    that keeps every value whole: values[t][i] == scaled[t][i] / scale.
    Build a forecast from exact values, or from integers with from_scaled;
    `values` builds the Fractions each time it is read.  Rows are not
    required to be monotone in the level; use validate_and_repair to sort
    them, or repaired_curve to read one level of the sorted rows.
    """

    window: TradingWindow
    levels: tuple[Fraction, ...]
    scaled: tuple[tuple[int, ...], ...]
    scale: int
    # The columns of the repaired rows, one per level, filled by the first
    # repaired_curve call.  Derived from the fields above, so it takes no
    # part in equality or hashing.
    _repaired: tuple | None = field(compare=False, repr=False)

    def __init__(
        self,
        window: TradingWindow,
        levels: Sequence,
        values: Sequence[Sequence[Fraction]],
    ) -> None:
        levels = _checked_shape(window, levels, values)
        self._set(window, levels, *scale_to_integers(v for row in values for v in row))

    @classmethod
    def from_scaled(
        cls,
        window: TradingWindow,
        levels: Sequence,
        scaled: Sequence[Sequence[int]],
        scale: int,
    ) -> "QuantileForecast":
        """The forecast whose value t at levels[i] is scaled[t][i] / scale."""
        forecast = cls.__new__(cls)
        levels = _checked_shape(window, levels, scaled)
        forecast._set(window, levels, (n for row in scaled for n in row), scale)
        return forecast

    def _set(
        self,
        window: TradingWindow,
        levels: tuple[Fraction, ...],
        flat: Iterable[int],
        scale: int,
    ) -> None:
        flat, scale = lowest_scale(flat, scale)
        width = len(levels)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "scaled", tuple(
            flat[t * width:(t + 1) * width] for t in range(window.period_count)
        ))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_repaired", None)

    @property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        scale = self.scale
        return tuple(tuple(Fraction(n, scale) for n in row) for row in self.scaled)

    def _level_index(self, level) -> int:
        lv = _coerce_level(level)
        try:
            return self.levels.index(lv)
        except ValueError:
            have = ", ".join(str(x) for x in self.levels)
            raise LevelMissing(f"level {lv} not among [{have}]") from None

    def repaired_curve(self, level) -> tuple[int, ...]:
        """One level of the repaired rows, as integers over `scale`.

        The rows are sorted once per forecast, on first use.  Integers over
        one positive scale sort, order and subtract as the values do.
        """
        if self._repaired is None:
            rows = [sorted(row) for row in self.scaled]
            object.__setattr__(self, "_repaired", tuple(
                tuple(row[j] for row in rows) for j in range(len(self.levels))
            ))
        try:
            # a level equal to one held is found without coercing it
            j = self.levels.index(level)
        except ValueError:
            j = self._level_index(level)
        return self._repaired[j]


def _checked_shape(window: TradingWindow, levels: Sequence, rows: Sequence) -> tuple:
    """The levels, checked, once the rows fit the window and the levels."""
    checked = tuple(_coerce_level(lv) for lv in levels)
    if any(a >= b for a, b in zip(checked, checked[1:])):
        raise LevelOutOfRange("quantile levels must be strictly ascending")
    if len(rows) != window.period_count:
        raise WindowMismatch(
            f"{len(rows)} forecast rows for a {window.period_count}-period window"
        )
    for row in rows:
        if len(row) != len(checked):
            raise WindowMismatch(
                f"forecast row has {len(row)} values for {len(checked)} levels"
            )
    return checked


def validate_and_repair(forecast: QuantileForecast) -> tuple[QuantileForecast, int]:
    """Sort each period's quantile row ascending; returns (fixed, n_changed)."""
    repaired = []
    changed = 0
    for row in forecast.scaled:
        fixed = tuple(sorted(row))
        if fixed != row:
            changed += 1
        repaired.append(fixed)
    if not changed:
        return forecast, 0
    return (
        QuantileForecast.from_scaled(
            forecast.window, forecast.levels, repaired, forecast.scale
        ),
        changed,
    )


# --- CSV ingest -----------------------------------------------------------

def read_table(path: str | Path):
    """Yield a timestamped CSV's (line, header cells), then each row.

    Rows come as (line, epoch seconds, value cells), blank lines skipped.
    The file must be UTF-8, and every row must have as many cells as the
    header and open with a timestamp after the one before; a fault raises
    with the file and line.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # count lines as splitlines does, so every fault names the same line
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise MalformedRow(line, f"{path}: not UTF-8 text") from None
    header = prev = None
    for line, raw in enumerate(text.splitlines(), start=1):
        if raw.strip() == "":
            continue
        cells = [cell.strip() for cell in raw.split(",")]
        if header is None:
            header = cells
            yield line, header
            continue
        if len(cells) != len(header):
            raise MalformedRow(
                line, f"{path}: expected {len(header)} columns, got {len(cells)}"
            )
        ts = parse_timestamp(cells[0], line=line)
        if prev is not None and ts <= prev:
            raise NonMonotonicTimestamps(
                f"{path}:{line}: timestamp {format_timestamp(ts)} not after "
                f"{format_timestamp(prev)}"
            )
        prev = ts
        yield line, ts, cells[1:]
    if header is None:
        raise MalformedRow(0, f"{path}: empty file")


def cut_windows(
    rows: Iterable[tuple[int, int, object]], market: MarketKind, path
) -> list[tuple[TradingWindow, tuple]]:
    """Whole windows of (line, epoch seconds, value) rows, with their values.

    Each window opens at the first row not yet in a window; a gap inside
    it raises MissingPeriod, and a short tail is dropped with a warning.
    """
    step = market.period_seconds
    count = market.periods_per_window
    windows, block = [], []
    for row in rows:
        block.append(row)
        if len(block) < count:
            continue
        start = block[0][1]
        for k, (line, ts, _) in enumerate(block):
            want = start + k * step
            if ts != want:
                raise MissingPeriod(
                    f"{path}:{line}: expected {format_timestamp(want)}, "
                    f"got {format_timestamp(ts)}"
                )
        windows.append(
            (TradingWindow(market, start, count), tuple(v for _, _, v in block))
        )
        block = []
    if block:
        warnings.warn(
            f"{path}: dropping {len(block)} trailing rows "
            f"(short of a full {count}-period window)",
            IngestWarning,
            stacklevel=3,
        )
    return windows


def parse_price_csv(path: str | Path, market: MarketKind) -> list[PriceSeries]:
    """Read `timestamp,price` rows into whole trading windows."""
    rows = read_table(path)
    _, header = next(rows)
    if [c.lower() for c in header] != ["timestamp", "price"]:
        raise UnknownColumn(f"{path}: expected header timestamp,price")
    prices = ((line, ts, parse_ratio(cells[0], line=line)) for line, ts, cells in rows)
    return [
        PriceSeries.from_scaled(w, *scale_ratios(block))
        for w, block in cut_windows(prices, market, path)
    ]


def _parse_level_column(name: str, *, path, line: int) -> Fraction:
    if not name.lower().startswith("q") or len(name) < 2:
        raise UnknownColumn(f"{path}: unexpected forecast column {name!r}")
    percent = parse_decimal(name[1:], line=line)
    if not 0 < percent < 100:
        raise LevelOutOfRange(
            f"{path}: column {name!r} implies quantile level outside (0, 1)"
        )
    return percent / 100


def parse_forecast_csv(path: str | Path, market: MarketKind) -> list[QuantileForecast]:
    """Read `timestamp,q10,q50,...` rows into whole forecast windows."""
    rows = read_table(path)
    header_line, header = next(rows)
    if len(header) < 2 or header[0].lower() != "timestamp":
        raise UnknownColumn(f"{path}: expected header timestamp,q<level>,...")
    levels = tuple(
        _parse_level_column(name, path=path, line=header_line) for name in header[1:]
    )
    if list(levels) != sorted(set(levels)):
        raise LevelOutOfRange(f"{path}: quantile columns must ascend strictly")
    width = len(levels)
    ratios = (
        (line, ts, [parse_ratio(cell, line=line) for cell in cells])
        for line, ts, cells in rows
    )
    forecasts = []
    for w, block in cut_windows(ratios, market, path):
        flat, scale = scale_ratios([ratio for row in block for ratio in row])
        rows = [flat[t:t + width] for t in range(0, len(flat), width)]
        forecasts.append(QuantileForecast.from_scaled(w, levels, rows, scale))
    return forecasts


def write_price_csv(path: str | Path, series: Iterable[PriceSeries]) -> None:
    lines = ["timestamp,price"]
    for ps in series:
        for t, price in enumerate(ps.scaled):
            stamp = format_timestamp(ps.window.timestamp_of(t))
            lines.append(f"{stamp},{format_ratio(price, ps.scale)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _level_column(level: Fraction) -> str:
    return "q" + format_decimal(level * 100)


def write_forecast_csv(path: str | Path, forecasts: Iterable[QuantileForecast]) -> None:
    forecasts = list(forecasts)
    if not forecasts:
        raise WindowMismatch("nothing to write")
    levels = forecasts[0].levels
    for fc in forecasts:
        if fc.levels != levels:
            raise WindowMismatch("forecast windows disagree on quantile levels")
    lines = ["timestamp," + ",".join(_level_column(lv) for lv in levels)]
    for fc in forecasts:
        for t, row in enumerate(fc.scaled):
            stamp = format_timestamp(fc.window.timestamp_of(t))
            lines.append(
                stamp + "," + ",".join(format_ratio(n, fc.scale) for n in row)
            )
    Path(path).write_text("\n".join(lines) + "\n")


# --- settlement horizon ---------------------------------------------------

@dataclass(frozen=True, slots=True)
class Horizon:
    """The windows of one settlement, and their trades in wall-clock order.

    A horizon holds one window of one market, or a day-ahead window and
    the balancing window that opens with it (build_dual_horizon).  `events`
    lists every (window index, period) in wall-clock trade order; when two
    markets trade at the same instant, the hourly leg is taken first by
    convention.  `instants[w][p]` is the position of (w, p) in `events`.
    Both are derived from the windows once, so they take no part in
    equality.
    """

    windows: tuple[TradingWindow, ...]
    events: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    instants: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        windows = self.windows
        events = [(i, p) for i, w in enumerate(windows) for p in range(w.period_count)]
        if len(windows) > 1:
            events.sort(key=lambda e: (
                windows[e[0]].timestamp_of(e[1]), -windows[e[0]].market.period_seconds
            ))
        instants = [[0] * w.period_count for w in windows]
        for k, (i, p) in enumerate(events):
            instants[i][p] = k
        object.__setattr__(self, "events", tuple(events))
        object.__setattr__(self, "instants", tuple(map(tuple, instants)))


def build_dual_horizon(dam: TradingWindow, bm: TradingWindow) -> Horizon:
    """The horizon of a day-ahead window and the balancing window opening with it."""
    if dam.market is not MarketKind.DAM or bm.market is not MarketKind.BM:
        raise WindowMismatch("dual horizon needs one DAM and one BM window")
    if dam.start_epoch_s != bm.start_epoch_s:
        raise WindowMismatch(
            f"windows start apart: {format_timestamp(dam.start_epoch_s)} vs "
            f"{format_timestamp(bm.start_epoch_s)}"
        )
    if bm.end_epoch_s > dam.end_epoch_s:
        raise WindowMismatch("balancing window overruns the day-ahead window")
    return Horizon((dam, bm))


# --- synthetic data -------------------------------------------------------

BASE_EPOCH = 1704067200  # 2024-01-01T00:00:00Z

DEFAULT_LEVELS = (
    Fraction(1, 10),
    Fraction(3, 10),
    Fraction(1, 2),
    Fraction(7, 10),
    Fraction(9, 10),
)

_BM_DAY_OFFSETS_H = (0, 8, 16)


def _daily_shape(hour: float) -> float:
    """Smooth two-peak daily price shape in EUR/MWh."""

    def bump(center: float, width: float) -> float:
        z = (hour - center) / width
        return math.exp(-z * z / 2)

    return 54.0 - 34.0 * bump(4.0, 2.3) + 7.0 * bump(9.0, 1.6) + 13.0 * bump(18.5, 2.1)


def _to_cents(x: float) -> Fraction:
    return Fraction(round(x * 100), 100)


def generate_synthetic(
    seed: int,
    market: MarketKind,
    days: int = 1,
    noise_sd: float = 0.0,
    levels: Sequence = DEFAULT_LEVELS,
    start_epoch_s: int = BASE_EPOCH,
) -> tuple[list[PriceSeries], list[QuantileForecast]]:
    """Deterministic price days with matching quantile forecasts.

    Each forecast row straddles its period's pre-rounding price, shifted by
    a per-period bias and widened by a per-period uncertainty scale, so
    levels are informative but imperfect and the width of the quantile fan
    varies across periods.  With noise_sd == 0 the forecast equals the
    settled price at every level.
    """
    lvls = tuple(_coerce_level(lv) for lv in levels)
    if list(lvls) != sorted(set(lvls)):
        raise LevelOutOfRange("quantile levels must be strictly ascending")
    z = {lv: statistics.NormalDist().inv_cdf(float(lv)) for lv in lvls}
    rng = random.Random(f"{seed}:{market.value}")
    if market is MarketKind.DAM:
        starts = [start_epoch_s + d * 86400 for d in range(days)]
    else:
        starts = [
            start_epoch_s + d * 86400 + off * 3600
            for d in range(days)
            for off in _BM_DAY_OFFSETS_H
        ]
    actuals, forecasts = [], []
    for start in starts:
        window = TradingWindow(market, start, market.periods_per_window)
        prices, rows = [], []
        for t in range(window.period_count):
            hour = ((window.timestamp_of(t) - start_epoch_s) % 86400) / 3600
            center = _daily_shape(hour) + noise_sd * rng.gauss(0.0, 1.0)
            bias = rng.gauss(0.0, 1.0)
            scale = math.exp(0.35 * rng.gauss(0.0, 1.0))
            prices.append(_to_cents(center))
            rows.append(
                tuple(
                    _to_cents(center + noise_sd * (z[lv] * scale + bias))
                    for lv in lvls
                )
            )
        actuals.append(PriceSeries(window, tuple(prices)))
        forecasts.append(QuantileForecast(window, lvls, tuple(rows)))
    return actuals, forecasts
