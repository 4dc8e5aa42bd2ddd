"""Market data containers, CSV ingest/emit and synthetic data generation.

Every timestamped CSV (prices, forecasts and forecasting features) is
read by read_table, and cut_windows cuts rows into trading windows.

Two market granularities are supported: hourly day-ahead windows of 24
periods and half-hourly balancing windows of 16 periods.  Prices are exact
EUR/MWh values, held as integers over one positive scale per series or
forecast: each CSV cell is read into an integer over a power of ten
(_numeric.parse_ratio), and the synthetic generator emits integer cents.
Integer rows over one scale are the only constructor of either container;
no package code reads the `prices` and `values` Fraction views, which are
built only when read.  Floats only appear inside the synthetic
generator before rounding to cents.  Writers print a window's cells by its
scale's decimal plan and each timestamp from one date text per calendar
day, both worked out within the call; the reader likewise parses each date
text and time of day once per call.

A forecast's rows may cross levels; QuantileForecast.repaired_curve reads
one level of the rows sorted ascending, and that is the only repair.

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
from datetime import date, datetime
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Sequence

from bessarb._numeric import (
    decimal_formatter,
    exact,
    format_decimal,
    lowest_scale,
    parse_decimal,
    parse_ratio,
    parse_ratios,
    scale_ratios,
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


# The Gregorian calendar repeats every 400 years (146097 days), so a day
# past the years datetime covers is named after its twin in 1970 to 2369.
_CYCLE_DAYS = 146097
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _date_text(day: int) -> str:
    """ISO date of the day `day` days after 1970-01-01, for any year."""
    cycles, rest = divmod(day, _CYCLE_DAYS)
    moment = date.fromordinal(_EPOCH_ORDINAL + rest)
    return f"{moment.year + 400 * cycles:04d}-{moment.month:02d}-{moment.day:02d}"


def _time_text(second: int) -> str:
    """`T%H:%M:%SZ` of the second of a day."""
    hour, rest = divmod(second, 3600)
    return f"T{hour:02d}:{rest // 60:02d}:{rest % 60:02d}Z"


def format_timestamp(epoch_s: int) -> str:
    """Epoch seconds -> ISO-8601 UTC text, for year 10000 and later too."""
    day, second = divmod(epoch_s, 86400)
    return _date_text(day) + _time_text(second)


def timestamp_formatter() -> Callable[[int], str]:
    """format_timestamp for one writer call: the text of each calendar day
    and of each time of day is worked out once, on first use."""
    dates: dict[int, str] = {}
    times: dict[int, str] = {}

    def stamp(epoch_s: int) -> str:
        day, second = divmod(epoch_s, 86400)
        date_text = dates.get(day)
        if date_text is None:
            date_text = dates[day] = _date_text(day)
        time_text = times.get(second)
        if time_text is None:
            time_text = times[second] = _time_text(second)
        return date_text + time_text

    return stamp


# The times of day of the half-hour grid both markets trade on, as
# format_timestamp names them.  Each read_table call starts from a copy.
_GRID_SECONDS = {_time_text(s): s for s in range(0, 86400, 1800)}


def _epochs(window: TradingWindow) -> range:
    """The epoch seconds of a window's periods."""
    return range(window.start_epoch_s, window.end_epoch_s, window.market.period_seconds)


@dataclass(frozen=True, slots=True)
class PriceSeries:
    """Settlement prices for one window, EUR/MWh.

    The prices are held as integers over one positive scale, reduced on
    construction to the least that keeps every price whole:
    prices[t] == scaled[t] / scale.  `prices` builds the Fractions each
    time it is read.
    """

    window: TradingWindow
    scaled: tuple[int, ...]
    scale: int

    def __post_init__(self) -> None:
        if len(self.scaled) != self.window.period_count:
            raise WindowMismatch(
                f"{len(self.scaled)} prices for a {self.window.period_count}-period window"
            )
        scaled, scale = lowest_scale(self.scaled, self.scale)
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "scale", scale)

    @property
    def prices(self) -> tuple[Fraction, ...]:
        """The prices as Fractions.  Only tests and the benchmark's tracer,
        bench/tracing.py, read them, so they can go once the tracer stops."""
        return tuple(Fraction(n, self.scale) for n in self.scaled)


# Both level checks compare the integers of each n/d (d > 0): every forecast
# checks its levels, and Fraction's own comparisons cost several times more.

def _coerce_level(level) -> Fraction:
    lv = exact(level)
    n, d = lv.as_integer_ratio()
    if not 0 < n < d:
        raise LevelOutOfRange(f"quantile level {lv} outside (0, 1)")
    return lv


def _checked_levels(levels: Iterable) -> tuple[Fraction, ...]:
    checked = tuple(map(_coerce_level, levels))
    n, d = 0, 1  # below every level, as each lies in (0, 1)
    for m, e in map(Fraction.as_integer_ratio, checked):
        if m * d <= n * e:
            raise LevelOutOfRange("quantile levels must be strictly ascending")
        n, d = m, e
    return checked


@dataclass(frozen=True, slots=True)
class QuantileForecast:
    """Per-period quantile price forecasts for one window.

    scaled is period-major integer rows over one positive scale, reduced
    on construction to the least that keeps every value whole: the
    forecast of period t at levels[i] is scaled[t][i] / scale.  Those
    integer rows are the one way to build a forecast.  Rows are not
    required to be monotone in the level: repaired_curve reads one level
    of the rows sorted ascending, which is how every strategy reads them.
    """

    window: TradingWindow
    levels: tuple[Fraction, ...]
    scaled: tuple[tuple[int, ...], ...]
    scale: int
    # The columns of the repaired rows by level ratio, filled by the first
    # repaired_curve call.  Derived from the fields above, so it takes no
    # part in equality or hashing.
    _repaired: dict | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        levels = _checked_levels(self.levels)
        rows = self.scaled
        if len(rows) != self.window.period_count:
            raise WindowMismatch(
                f"{len(rows)} forecast rows for a {self.window.period_count}-period window"
            )
        width = len(levels)
        for row in rows:
            if len(row) != width:
                raise WindowMismatch(
                    f"forecast row has {len(row)} values for {width} levels"
                )
        flat, scale = lowest_scale((n for row in rows for n in row), self.scale)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "scaled", tuple(
            flat[t * width:(t + 1) * width] for t in range(len(rows))
        ))
        object.__setattr__(self, "scale", scale)

    @property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as Fractions.  Only tests and the benchmark's tracer,
        bench/tracing.py, read them, so they can go once the tracer stops."""
        scale = self.scale
        return tuple(tuple(Fraction(n, scale) for n in row) for row in self.scaled)

    def repaired_curve(self, level) -> tuple[int, ...]:
        """One level of the repaired rows, as integers over `scale`.

        The rows are sorted once per forecast, on first use, into columns
        keyed by their level's integer ratio.  Integers over one positive
        scale sort, order and subtract as the values do.
        """
        if self._repaired is None:
            rows = [sorted(row) for row in self.scaled]
            object.__setattr__(self, "_repaired", {
                lv.as_integer_ratio(): tuple(row[j] for row in rows)
                for j, lv in enumerate(self.levels)
            })
        lv = level if isinstance(level, Fraction) else _coerce_level(level)
        curve = self._repaired.get(lv.as_integer_ratio())
        if curve is None:
            have = ", ".join(str(x) for x in self.levels)
            raise LevelMissing(f"level {_coerce_level(lv)} not among [{have}]")
        return curve


# --- CSV ingest -----------------------------------------------------------

def read_table(path: str | Path):
    """Yield a timestamped CSV's (line, header cells), then each row.

    Rows come as (line, epoch seconds, value cells), blank lines skipped.
    The file must be UTF-8, after an optional byte-order mark, and every
    row must have as many cells as the header and open with a timestamp
    after the one before; a fault raises with the file and line.

    As timestamp_formatter does for writers, each call keeps one table
    from date text to the day's epoch seconds and one from time-of-day text
    to seconds, the latter starting with the half-hour grid.  A stamp enters
    them only when format_timestamp gives back its exact text, so both
    halves are ten characters; any other stamp (a `+00:00` offset, a space
    for the `T`) goes through parse_timestamp every time, and so does every
    fault.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start counts in exc.object, the bytes after any byte-order
        # mark; count lines as splitlines does, so every fault names the
        # same line
        line = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise MalformedRow(line, f"{path}: not UTF-8 text") from None
    header = prev = None
    days: dict[str, int] = {}
    seconds = dict(_GRID_SECONDS)
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
        stamp = cells[0]
        day, second = days.get(stamp[:10]), seconds.get(stamp[10:])
        if day is not None and second is not None:
            ts = day + second
        else:
            ts = parse_timestamp(stamp, line=line)
            if format_timestamp(ts) == stamp:
                second = ts % 86400
                days[stamp[:10]], seconds[stamp[10:]] = ts - second, second
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
        PriceSeries(w, *scale_ratios(block))
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
    ratios = ((line, ts, parse_ratios(cells, line=line)) for line, ts, cells in rows)
    forecasts = []
    for w, block in cut_windows(ratios, market, path):
        flat, scale = scale_ratios([ratio for row in block for ratio in row])
        rows = [flat[t:t + width] for t in range(0, len(flat), width)]
        forecasts.append(QuantileForecast(w, levels, rows, scale))
    return forecasts


def write_price_csv(path: str | Path, series: Iterable[PriceSeries]) -> None:
    stamp = timestamp_formatter()
    lines = ["timestamp,price"]
    for ps in series:
        fmt = decimal_formatter(ps.scale)
        lines += [f"{stamp(ts)},{fmt(n)}" for ts, n in zip(_epochs(ps.window), ps.scaled)]
    Path(path).write_text("\n".join(lines) + "\n")


def _level_column(level: Fraction) -> str:
    return "q" + format_decimal(level * 100)


def write_forecast_csv(path: str | Path, forecasts: Iterable[QuantileForecast]) -> None:
    """Every forecast's rows; a value with no decimal form raises before the
    file is opened.  Each window works out its scale's decimal plan once."""
    forecasts = list(forecasts)
    if not forecasts:
        raise WindowMismatch("nothing to write")
    levels = forecasts[0].levels
    for fc in forecasts:
        if fc.levels != levels:
            raise WindowMismatch("forecast windows disagree on quantile levels")
    stamp = timestamp_formatter()
    lines = ["timestamp," + ",".join(_level_column(lv) for lv in levels)]
    for fc in forecasts:
        fmt = decimal_formatter(fc.scale)
        lines += [
            f"{stamp(ts)},{','.join(map(fmt, row))}"
            for ts, row in zip(_epochs(fc.window), fc.scaled)
        ]
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
    lvls = _checked_levels(levels)
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
            prices.append(round(center * 100))
            rows.append(
                [round((center + noise_sd * (z[lv] * scale + bias)) * 100) for lv in lvls]
            )
        actuals.append(PriceSeries(window, prices, 100))
        forecasts.append(QuantileForecast(window, lvls, rows, 100))
    return actuals, forecasts
