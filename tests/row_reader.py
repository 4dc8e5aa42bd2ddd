"""The row reader the package once read every CSV with, kept as an oracle.

read_table and cut_windows are as they were; read_prices, read_forecasts
and read_features are the three public readers as they read a file row
by row.  Each gives what it gives, or raises what it raises, with the
same message, line and warnings, so the public readers can be compared
with them on any file.
"""

import warnings
from pathlib import Path
from typing import Iterable

import numpy as np

from bessarb._numeric import parse_ratio, scale_ratios
from bessarb.errors import (
    LevelOutOfRange,
    MalformedRow,
    MissingPeriod,
    NonMonotonicTimestamps,
    UnknownColumn,
)
from bessarb.forecasting import _FEATURE_BOUND, FeatureMatrix
from bessarb.market import (
    IngestWarning,
    MarketKind,
    PriceSeries,
    QuantileForecast,
    TradingWindow,
    _parse_level_column,
    _time_text,
    format_timestamp,
    parse_timestamp,
)

# The times of day of the half-hour grid both markets trade on, as
# format_timestamp names them.  Each read_table call starts from a copy.
_GRID_SECONDS = {_time_text(s): s for s in range(0, 86400, 1800)}


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


def read_prices(path, market: MarketKind) -> list[PriceSeries]:
    rows = read_table(path)
    header = next(rows)[1]
    if [c.lower() for c in header] != ["timestamp", "price"]:
        raise UnknownColumn(f"{path}: expected header timestamp,price")
    prices = ((line, ts, parse_ratio(cells[0], line=line)) for line, ts, cells in rows)
    return [
        PriceSeries(w, *scale_ratios(block))
        for w, block in cut_windows(prices, market, path)
    ]


def read_forecasts(path, market: MarketKind) -> list[QuantileForecast]:
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
        (line, ts, [parse_ratio(cell, line=line) for cell in cells]) for line, ts, cells in rows
    )
    blocks = [
        (w, *scale_ratios([ratio for row in block for ratio in row]))
        for w, block in cut_windows(ratios, market, path)
    ]
    return [
        QuantileForecast(w, levels, [flat[t:t + width] for t in range(0, len(flat), width)],
                         scale)
        for w, flat, scale in blocks
    ]


def read_features(path, market: MarketKind) -> FeatureMatrix:
    rows = read_table(path)
    header = next(rows)[1]
    if len(header) < 3 or header[0].lower() != "timestamp" or header[-1].lower() != "target":
        raise UnknownColumn(f"{path}: expected header timestamp,<features...>,target")
    names = tuple(header[1:-1])
    timestamps, lines, feats, targets = [], [], [], []
    for line, ts, cells in rows:
        timestamps.append(ts)
        lines.append(line)
        try:
            feats += map(float, cells[:-1])
        except ValueError:
            raise MalformedRow(line, f"{path}: non-numeric feature") from None
        targets.append(parse_ratio(cells[-1], line=line))
    (targets, scale), timestamps = scale_ratios(targets), tuple(timestamps)
    features = np.array(feats, dtype=float).reshape(len(timestamps), len(names))
    # NaN fails every comparison, so this finds non-finite cells too
    beyond = np.flatnonzero(~(np.abs(features) <= _FEATURE_BOUND).all(axis=-1))
    if beyond.size:
        raise MalformedRow(
            lines[beyond[0]], f"{path}: feature not finite or beyond {_FEATURE_BOUND:g}"
        )
    return FeatureMatrix(market, timestamps, names, features, tuple(targets), scale)
