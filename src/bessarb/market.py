"""Market data containers, CSV ingest/emit and synthetic data generation.

Every timestamped CSV (prices, forecasts and forecasting features) is read
by one reader, _read_csv, with one path that builds and one loop that only
names faults.  It checks the file in blocks: the stamp column against the
texts format_timestamp gives one period apart, and each value column
against one plain-decimal pattern.  It tries the text as it stands, then
its non-blank lines rejoined.  There a stamp column that fails its check
is read by parse_timestamp, and a value column is stripped, as the row
reader strips each cell, and checked again; only then is it read cell by
cell, by parse_ratio or float, and each window's cells put over the lcm of
their denominators.  Whole windows are cut by slicing.  A file neither
form passes goes to _name_fault, which walks its lines in order and raises
the first fault with its line.

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
day, both worked out within the call; the reader builds the stamp texts it
expects the same way.

A forecast's rows may cross levels; QuantileForecast.repaired_curve reads
one level of the rows sorted ascending, and that is the only repair.

A Horizon holds the windows one settlement covers, one window or a
day-ahead window with the balancing window that opens with it, and lists
their trades in wall-clock order once.
"""

from __future__ import annotations

import math
import re
import warnings
from datetime import date, datetime
from enum import Enum
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Sequence

from bessarb._numeric import (
    _PLAIN,
    decimal_formatter,
    exact,
    format_decimal,
    lowest_scale,
    parse_decimal,
    parse_ratio,
)
from bessarb._record import Record
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


class TradingWindow(Record):
    """A contiguous run of trading periods in one market."""

    __slots__ = ("market", "start_epoch_s", "period_count")

    def __init__(self, market: MarketKind, start_epoch_s: int, period_count: int) -> None:
        self._set(market, start_epoch_s, period_count)

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


def _epochs(window: TradingWindow) -> range:
    """The epoch seconds of a window's periods."""
    return range(window.start_epoch_s, window.end_epoch_s, window.market.period_seconds)


class PriceSeries(Record):
    """Settlement prices for one window, EUR/MWh.

    The prices are held as integers over one positive scale, reduced on
    construction to the least that keeps every price whole:
    prices[t] == scaled[t] / scale.  `prices` builds the Fractions each
    time it is read.
    """

    __slots__ = ("window", "scaled", "scale")

    def __init__(self, window: TradingWindow, scaled: Sequence[int], scale: int) -> None:
        if len(scaled) != window.period_count:
            raise WindowMismatch(
                f"{len(scaled)} prices for a {window.period_count}-period window"
            )
        self._set(window, *lowest_scale(scaled, scale))

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


class QuantileForecast(Record, derived=("_repaired",)):
    """Per-period quantile price forecasts for one window.

    scaled is period-major integer rows over one positive scale, reduced
    on construction to the least that keeps every value whole: the
    forecast of period t at levels[i] is scaled[t][i] / scale.  Those
    integer rows are the one way to build a forecast.  Rows are not
    required to be monotone in the level: repaired_curve reads one level
    of the rows sorted ascending, which is how every strategy reads them.
    """

    # _repaired: the columns of the repaired rows by level ratio, filled by
    # the first repaired_curve call.  Derived from the fields, so it takes
    # no part in equality or hashing.
    __slots__ = ("window", "levels", "scaled", "scale", "_repaired")

    def __init__(self, window: TradingWindow, levels: Iterable,
                 scaled: Sequence[Sequence[int]], scale: int) -> None:
        levels = _checked_levels(levels)
        if len(scaled) != window.period_count:
            raise WindowMismatch(
                f"{len(scaled)} forecast rows for a {window.period_count}-period window"
            )
        width = len(levels)
        for row in scaled:
            if len(row) != width:
                raise WindowMismatch(
                    f"forecast row has {len(row)} values for {width} levels"
                )
        flat, scale = lowest_scale(chain.from_iterable(scaled), scale)
        rows = tuple(flat[t * width:(t + 1) * width] for t in range(len(scaled)))
        self._set(window, levels, rows, scale, None)

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

_FLOAT = _PLAIN + r"(?:e[-+]?\d+)?"
# cells joined by commas; \d is ASCII, so a digit that int() reads but
# Fraction reads over another denominator fails here
_PLAIN_CELLS = re.compile(f"(?:{_PLAIN}(?:,{_PLAIN})*)?", re.ASCII)
_FLOAT_CELLS = re.compile(f"(?:{_FLOAT}(?:,{_FLOAT})*)?", re.ASCII)
# the first instant past the years parse_timestamp reads
_YEAR_10000_S = (date.max.toordinal() + 1 - _EPOCH_ORDINAL) * 86400
# the times of day of the half-hour grid, as format_timestamp names them
_GRID_TEXTS = tuple(_time_text(s) for s in range(0, 86400, 1800))


def _read_csv(path, market: MarketKind, read_header: Callable, bound: float | None = None):
    """One timestamped CSV: (read_header's value, epochs, float cells,
    decimal columns as integers, scales).  The columns' cells of each
    block of rows are over one scale, listed in `scales`: a block is a
    window of rows, or the whole file for a feature table.

    The file must be UTF-8, after an optional byte-order mark.  Its first
    non-blank line, as str.splitlines cuts lines, is the header: its cells,
    stripped, and its line go to read_header, which raises on a bad one.
    Every further non-blank line is a row of as many cells, opening with a
    timestamp after the one before.  With `bound`, the file is a feature
    table: each row's cells but the first and last are floats of magnitude
    at most `bound`.  Without it, each whole window of rows must be one
    period apart.  Every other cell is a decimal, read as parse_ratio reads
    it.

    The block checks (_checked) take the text as it stands, its lines cut
    at `\\r\\n` when it holds one and else at `\\n`, then, when each row has
    the header's width, its non-blank lines rejoined, and build from the
    first that passes.  A file that neither
    passes goes to _name_fault, which raises the fault a row-by-row read
    meets first.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start counts in exc.object, the bytes after any byte-order
        # mark; count lines as splitlines does, so every fault names the
        # same line
        line = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise MalformedRow(line, f"{path}: not UTF-8 text") from None
    # the line end of the text as it stands: a line that passes the block
    # checks holds no other break, so its lines are those splitlines cuts
    end = "\r\n" if "\r\n" in text else "\n"
    head, line, lines = text.partition(end)[0], 1, None
    if not (head.strip() and head.isprintable()):  # else no other break ends line 1
        lines = text.splitlines()
        line = next((n for n, raw in enumerate(lines, 1) if raw.strip()), 0)
        if not line:
            raise MalformedRow(0, f"{path}: empty file")
        head, lines = lines[line - 1], list(filter(str.strip, lines))
    header = [cell.strip() for cell in head.split(",")]
    value, width = read_header(header, line), len(header)
    # the text as it stands, when its first line is the header; then its
    # non-blank lines, when each has the header's width
    got = None if lines else _checked(text.replace(end, ",\n"), width, market, bound, False)
    if got is None:
        lines = lines or list(filter(str.strip, text.splitlines()))
        if all(raw.count(",") == width - 1 for raw in lines):
            got = _checked(",\n".join(lines) + ",\n", width, market, bound, True)
    if got is None:  # cells the row reader parses fail a check only where it faults
        _name_fault(path, text, market, bound)
    return (value, *got)


def _checked(form: str, width: int, market: MarketKind, bound: float | None,
             fallback: bool):
    """(epochs, float cells, decimal columns, scale) of a form, or None.

    A form is the lines, header first, each ending in `,\\n`.  Split at
    commas, it holds each `\\n` at the head of the cell after it: the cells
    of row r sit from width * (r + 1) on, and each stamp opens with `\\n`,
    so a row of another width misplaces a stamp.  Stamps must be
    format_timestamp's text one period apart (_grid), and the float cells,
    and each column of decimal cells, must match one pattern.  With
    `fallback`, the form is the row reader's own lines, each of `width`
    cells.  Stamps that fail _grid are then read by parse_timestamp; they
    must increase, and each whole window's be one period apart.  A value
    column that fails its check is stripped and checked again, and else
    read cell by cell as the row reader reads it, by float or parse_ratio.
    """
    cells = form.split(",")
    if (len(cells) - 1) % width or cells[-1] != "\n":
        return None
    stamps = cells[width:-1:width]
    step = market.period_seconds
    per = market.periods_per_window
    epochs = _grid(stamps, step)
    if epochs is None and fallback:
        try:
            epochs = tuple(map(parse_timestamp, stamps))
        except MalformedRow:
            return None
        if any(b <= a for a, b in zip(epochs, epochs[1:])) or bound is None and any(
            epochs[i:i + per] != tuple(range(epochs[i], epochs[i] + per * step, step))
            for i in range(0, len(epochs) - per + 1, per)
        ):
            return None
    if epochs is None:
        return None
    decimals = cells[width:-1]
    del decimals[::width]
    floats, m = [], width - 1  # m decimal columns
    if bound is not None:  # a row's last cell is its target
        floats, decimals, m = decimals, decimals[width - 2::width - 1], 1
        del floats[width - 2::width - 1]
        if not _FLOAT_CELLS.fullmatch(",".join(floats)):
            if not fallback:
                return None
            floats = [cell.strip() for cell in floats]  # float keeps U+001F
        try:
            floats = list(map(float, floats))
        except ValueError:
            return None
        # NaN fails every comparison, so this finds non-finite cells too
        if not all(map(bound.__ge__, map(abs, floats))):
            return None
    try:  # a column at a time: re takes superlinear time over one long repeat
        read = [_decimals(decimals[j::m], fallback) for j in range(m)]
    except MalformedRow:
        return None
    if None in read:
        return None
    # blocks of rows that share a scale: each window, or a feature table whole
    rows = max(len(epochs), 1)
    blocks = range(0, rows, per if bound is None else rows)
    if any(type(s) is list for _, s in read):  # a column read cell by cell
        return epochs, floats, *_rescaled(read, blocks)
    scale = math.lcm(*(s for _, s in read))
    return epochs, floats, [c if s == scale else [n * (scale // s) for n in c]
                            for c, s in read], [scale] * len(blocks)


def _grid(stamps: list[str], step: int) -> range | None:
    """The epochs of `stamps` when each is `\\n` and format_timestamp's text
    of an instant on the half-hour grid, one step after the one before, in
    a year parse_timestamp reads; else None.  The texts are built from one
    date text per day."""
    if not stamps:
        return range(0)
    try:
        first = parse_timestamp(stamps[0])
    except MalformedRow:
        return None
    epochs = range(first, first + len(stamps) * step, step)
    if epochs[-1] >= _YEAR_10000_S:
        return None
    day, second = divmod(first, 86400)
    if second % 1800:  # off the half-hour grid both markets trade on
        return None
    times, want, at = _GRID_TEXTS[second % step // 1800::step // 1800], [], second // step
    while len(want) < len(stamps):
        date_text = "\n" + _date_text(day)
        want += [date_text + time for time in times[at:at + len(stamps) - len(want)]]
        day, at = day + 1, 0
    return epochs if want == stamps else None


def _decimals(cells: list[str], fallback: bool = True):
    """(numerators, denominators) of parse_ratio of each cell, or None.

    Plain decimals are checked with one pattern and read as integers over
    one 10**k, given as that one int.  Any other column is None without
    `fallback`.  With it, the column is stripped and checked again, and
    else read cell by cell, each cell's denominator in a list, raising the
    first cell's MalformedRow.
    """
    plain = _PLAIN_CELLS.fullmatch(",".join(cells))
    if not plain and fallback:  # the row reader strips each cell
        cells = [cell.strip() for cell in cells]
        plain = _PLAIN_CELLS.fullmatch(",".join(cells))
    if plain:
        parts = [cell.partition(".") for cell in cells]
        k = max((len(part) for _, _, part in parts), default=0)
        try:
            return [int(whole + part.ljust(k, "0")) for whole, _, part in parts], 10 ** k
        except ValueError:  # one empty cell, or one past int's digit limit
            pass
    if not fallback:
        return None
    nums, dens = zip(*map(parse_ratio, cells))
    return list(nums), list(dens)


def _rescaled(read: list, blocks: range) -> tuple[list, list]:
    """(columns, scales): the _decimals columns `read`, each block of rows
    over one scale, the lcm of its cells' denominators, as the row reader
    scaled each window.  No lcm spans the file, so cells whose
    denominators differ cost one window's lcm each, not the file's."""
    size = blocks.step
    dens = [[s] * len(c) if type(s) is int else s for c, s in read]
    columns, scales = [[] for _ in read], []
    for i in blocks:
        scale = math.lcm(*chain.from_iterable(d[i:i + size] for d in dens))
        for column, (nums, _), d in zip(columns, read, dens):
            column += [n * (scale // e) for n, e in zip(nums[i:i + size], d[i:i + size])]
        scales.append(scale)
    return columns, scales


def _name_fault(path, text: str, market: MarketKind, bound: float | None) -> None:
    """Raise the first fault of a file that _read_csv could not build.

    Walks the lines once, in order, as a row-by-row read would: each row's
    column count, stamp, order and cells, and each whole window's gaps as
    it fills; with `bound`, the first row beyond it once all rows read.
    It builds nothing.
    """
    per, step = market.periods_per_window, market.period_seconds
    width = prev = beyond = None
    window = []
    for line, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        cells = [cell.strip() for cell in raw.split(",")]
        if width is None:  # the header, already read
            width = len(cells)
            continue
        if len(cells) != width:
            raise MalformedRow(line, f"{path}: expected {width} columns, got {len(cells)}")
        ts = parse_timestamp(cells[0], line=line)
        if prev is not None and ts <= prev:
            raise NonMonotonicTimestamps(
                f"{path}:{line}: timestamp {format_timestamp(ts)} not after "
                f"{format_timestamp(prev)}"
            )
        prev, decimals = ts, cells[1:]
        if bound is not None:
            try:
                floats = [float(cell) for cell in cells[1:-1]]
            except ValueError:
                raise MalformedRow(line, f"{path}: non-numeric feature") from None
            if beyond is None and not all(abs(x) <= bound for x in floats):
                beyond = line
            decimals = cells[-1:]
        for cell in decimals:
            parse_ratio(cell, line=line)
        if bound is None:
            window.append((line, ts))
            if len(window) == per:
                for k, (at, got) in enumerate(window):
                    want = window[0][1] + k * step
                    if got != want:
                        raise MissingPeriod(f"{path}:{at}: expected {format_timestamp(want)}, "
                                            f"got {format_timestamp(got)}")
                window = []
    if beyond is not None:
        raise MalformedRow(beyond, f"{path}: feature not finite or beyond {bound:g}")


def _windows(path, market: MarketKind, epochs, rows: list, scales: list) -> list:
    """(window, its rows, its scale) of each whole window of rows whose
    `epochs` and `scales` _read_csv gave, cut by slicing; a short tail is
    dropped with a warning that names the reader's caller."""
    per = market.periods_per_window
    whole = len(rows) - len(rows) % per
    if whole < len(rows):
        warnings.warn(
            f"{path}: dropping {len(rows) - whole} trailing rows "
            f"(short of a full {per}-period window)",
            IngestWarning,
            stacklevel=3,
        )
    return [(TradingWindow(market, epochs[i], per), rows[i:i + per], scales[i // per])
            for i in range(0, whole, per)]


def parse_price_csv(path: str | Path, market: MarketKind) -> list[PriceSeries]:
    """Read `timestamp,price` rows into whole trading windows."""

    def header(cells, line):
        if [c.lower() for c in cells] != ["timestamp", "price"]:
            raise UnknownColumn(f"{path}: expected header timestamp,price")

    _, epochs, _, (prices,), scales = _read_csv(path, market, header)
    return [PriceSeries(*got) for got in _windows(path, market, epochs, prices, scales)]


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

    def header(cells, line):
        if len(cells) < 2 or cells[0].lower() != "timestamp":
            raise UnknownColumn(f"{path}: expected header timestamp,q<level>,...")
        levels = tuple(_parse_level_column(name, path=path, line=line) for name in cells[1:])
        if list(levels) != sorted(set(levels)):
            raise LevelOutOfRange(f"{path}: quantile columns must ascend strictly")
        return levels

    levels, epochs, _, columns, scales = _read_csv(path, market, header)
    return [
        QuantileForecast(w, levels, rows, scale)
        for w, rows, scale in _windows(path, market, epochs, list(zip(*columns)), scales)
    ]


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

class Horizon(Record, derived=("events", "instants")):
    """The windows of one settlement, and their trades in wall-clock order.

    A horizon holds one window of one market, or a day-ahead window and
    the balancing window that opens with it (build_dual_horizon).  `events`
    lists every (window index, period) in wall-clock trade order; when two
    markets trade at the same instant, the hourly leg is taken first by
    convention.  `instants[w][p]` is the position of (w, p) in `events`.
    Both are derived from the windows once, so they take no part in
    equality.
    """

    __slots__ = ("windows", "events", "instants")

    def __init__(self, windows: tuple[TradingWindow, ...]) -> None:
        events = [(i, p) for i, w in enumerate(windows) for p in range(w.period_count)]
        if len(windows) > 1:
            events.sort(key=lambda e: (
                windows[e[0]].timestamp_of(e[1]), -windows[e[0]].market.period_seconds
            ))
        instants = [[0] * w.period_count for w in windows]
        for k, (i, p) in enumerate(events):
            instants[i][p] = k
        self._set(windows, tuple(events), tuple(map(tuple, instants)))


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
    import random
    import statistics

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
