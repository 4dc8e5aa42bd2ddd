"""Market containers, CSV ingest, dual horizon and the synthetic generator."""

import pickle
import tempfile
import warnings
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bessarb.errors import (
    LevelMissing,
    LevelOutOfRange,
    MalformedRow,
    MissingPeriod,
    NonMonotonicTimestamps,
    UnknownColumn,
    WindowMismatch,
)
from bessarb import forecasting, market
from bessarb.forecasting import FeatureMatrix
from bessarb.market import (
    BASE_EPOCH,
    DEFAULT_LEVELS,
    Horizon,
    IngestWarning,
    MarketKind,
    PriceSeries,
    QuantileForecast,
    TradingWindow,
    build_dual_horizon,
    format_timestamp,
    generate_synthetic,
    parse_forecast_csv,
    parse_price_csv,
    parse_timestamp,
    read_table,
    write_forecast_csv,
    write_price_csv,
)
from bessarb._numeric import format_decimal

from conftest import exact_forecast, frac, make_forecast, make_prices, merged_events, scaled


class TestWindows:
    def test_period_grid(self):
        assert MarketKind.DAM.period_seconds == 3600
        assert MarketKind.BM.period_seconds == 1800
        assert MarketKind.DAM.periods_per_window == 24
        assert MarketKind.BM.periods_per_window == 16

    def test_timestamp_of(self):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, 16)
        assert win.timestamp_of(0) == BASE_EPOCH
        assert win.timestamp_of(3) == BASE_EPOCH + 3 * 1800
        assert win.end_epoch_s == BASE_EPOCH + 16 * 1800

    def test_period_out_of_range(self):
        win = TradingWindow(MarketKind.DAM, BASE_EPOCH, 24)
        with pytest.raises(IndexError):
            win.timestamp_of(24)


class TestTimestamps:
    def test_zulu_suffix(self):
        assert parse_timestamp("2024-01-01T00:00:00Z") == BASE_EPOCH

    def test_explicit_offset(self):
        assert parse_timestamp("2024-01-01T01:00:00+01:00") == BASE_EPOCH

    def test_naive_rejected(self):
        with pytest.raises(MalformedRow):
            parse_timestamp("2024-01-01T00:00:00")

    def test_subsecond_rejected(self):
        with pytest.raises(MalformedRow):
            parse_timestamp("2024-01-01T00:00:00.500Z")

    def test_garbage_rejected(self):
        with pytest.raises(MalformedRow):
            parse_timestamp("not a date")

    def test_format_round_trip(self):
        text = format_timestamp(BASE_EPOCH + 5400)
        assert text == "2024-01-01T01:30:00Z"
        assert parse_timestamp(text) == BASE_EPOCH + 5400

    def test_format_names_every_year(self):
        first, last = "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z"
        assert format_timestamp(parse_timestamp(first)) == first
        assert format_timestamp(parse_timestamp(last)) == last
        # past datetime's range, as the instant a data file expects next
        assert format_timestamp(parse_timestamp(last) + 3601) == "10000-01-01T01:00:00Z"


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_CYCLE_S = 146097 * 86400  # 400 Gregorian years
_LAST_S = parse_timestamp("9999-12-31T23:59:59Z")


def _datetime_stamp(epoch_s: int) -> str:
    """The instant as datetime names it; past 9999-12-31, as it names the
    instant fewest 400-year cycles earlier, with the years added back."""
    cycles = max(0, -((_LAST_S - epoch_s) // _CYCLE_S))
    moment = _EPOCH + timedelta(seconds=epoch_s - cycles * _CYCLE_S)
    return f"{moment.year + 400 * cycles:04d}{moment:-%m-%dT%H:%M:%SZ}"


# from 0001-01-01 to past the year 300000
_instants = st.one_of(
    st.integers(parse_timestamp("0001-01-01T00:00:00Z"), 10**13),
    st.integers(-86400 * 3, 86400 * 3),
    st.integers(_LAST_S - 86400 * 3, _LAST_S + 86400 * 3),
)


class TestTimestampText:
    """format_timestamp and the writers' stamps against datetime."""

    @given(_instants)
    def test_format_matches_datetime(self, epoch_s):
        assert format_timestamp(epoch_s) == _datetime_stamp(epoch_s)

    def test_oracle_examples(self):
        assert _datetime_stamp(_LAST_S + 1) == "10000-01-01T00:00:00Z"
        assert _datetime_stamp(-1) == "1969-12-31T23:59:59Z"

    @settings(max_examples=40, deadline=None)
    @given(_instants, st.sampled_from(MarketKind), st.integers(1, 4))
    def test_writer_stamps_match_datetime(self, start, market, count):
        # windows back to back from any second, so days turn inside them
        step = market.period_seconds * market.periods_per_window
        series = [
            PriceSeries(TradingWindow(market, start + i * step, market.periods_per_window),
                        [i] * market.periods_per_window, 1)
            for i in range(count)
        ]
        forecasts = [QuantileForecast(ps.window, DEFAULT_LEVELS[:2],
                                      [(n, n) for n in ps.scaled], 1) for ps in series]
        want = [_datetime_stamp(ps.window.timestamp_of(t))
                for ps in series for t in range(ps.window.period_count)]
        with tempfile.TemporaryDirectory() as tmp:
            prices, quantiles = Path(tmp) / "p.csv", Path(tmp) / "f.csv"
            write_price_csv(prices, series)
            write_forecast_csv(quantiles, forecasts)
            for path in (prices, quantiles):
                rows = path.read_text().splitlines()[1:]
                assert [row.split(",")[0] for row in rows] == want


class TestContainers:
    def test_price_series_length_guard(self):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, 16)
        with pytest.raises(WindowMismatch):
            PriceSeries(win, (1,) * 15, 1)

    def test_forecast_row_width_guard(self):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, 2)
        with pytest.raises(WindowMismatch):
            QuantileForecast(win, (Fraction(1, 2),), ((1, 2),) * 2, 1)

    def test_forecast_levels_must_ascend(self):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, 1)
        with pytest.raises(LevelOutOfRange):
            QuantileForecast(win, (Fraction(7, 10), Fraction(3, 10)), ((1, 2),), 1)

    def test_level_outside_unit_interval(self):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, 1)
        with pytest.raises(LevelOutOfRange):
            QuantileForecast(win, (Fraction(0),), ((1,),), 1)

    @given(st.lists(
        st.one_of(
            st.sampled_from([0, 1, -1, "0.5", Fraction(1, 2), Fraction(-1, 3), "1/3",
                             Fraction(1, 10), Fraction(9, 10), 0.25, Fraction(3, 2)]),
            st.fractions(min_value=-1, max_value=2, max_denominator=12),
        ),
        min_size=1, max_size=5,
    ))
    def test_level_check_reads_as_fraction_comparisons(self, levels):
        # zero, one, negatives, equal and descending neighbours, and text
        want = tuple(Fraction(str(lv)) for lv in levels)
        outside = [lv for lv in want if not 0 < lv < 1]
        if outside:
            message = f"quantile level {outside[0]} outside (0, 1)"
        elif any(a >= b for a, b in zip(want, want[1:])):
            message = "quantile levels must be strictly ascending"
        else:
            message = None
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, 1)
        try:
            fc = QuantileForecast(win, tuple(levels), ((0,) * len(levels),), 1)
        except LevelOutOfRange as exc:
            assert str(exc) == message
        else:
            assert message is None and fc.levels == want

    def test_level_curve_lookup(self):
        fc = make_forecast({"0.3": [1, 2], "0.7": [3, 4]})
        assert fc.scale == 1
        assert fc.repaired_curve("0.3") == (1, 2)
        assert fc.repaired_curve(Fraction(7, 10)) == (3, 4)

    def test_level_curve_missing(self):
        fc = make_forecast({"0.5": [1, 2]})
        with pytest.raises(LevelMissing):
            fc.repaired_curve("0.9")


def _decimal_text(units: int, k: int, pad: int) -> str:
    """units / 10**k as a decimal string with `pad` extra trailing zeros."""
    text = format_decimal(Fraction(units, 10**k))
    if pad:
        text += ("" if "." in text else ".") + "0" * pad
    return text


decimal_cells = st.builds(
    _decimal_text,
    st.integers(min_value=-10**8, max_value=10**8),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=2),
)


class TestScaledContainers:
    """Integers over one scale inside; the same Fractions outside."""

    def test_parsed_series_equals_the_fraction_built_one(self, tmp_path):
        cells = ["30.10", "-2", "0.5", "1/3", "7.125", "1e1", "0"] + ["12.34"] * 9
        path = tmp_path / "p.csv"
        path.write_text(_price_lines(BASE_EPOCH, 16, 1800, lambda i: cells[i]))
        [parsed] = parse_price_csv(path, MarketKind.BM)
        prices = tuple(Fraction(c) for c in cells)
        built = PriceSeries(parsed.window, *scaled(prices))
        assert parsed == built and hash(parsed) == hash(built)
        assert parsed.prices == built.prices == prices
        assert all(type(p) is Fraction for p in parsed.prices)
        # the least scale: lcm of the reduced denominators 10, 2, 3, 8, 50
        assert parsed.scale == built.scale == 600
        assert parsed.scaled == tuple(int(p * 600) for p in prices)

    @given(st.lists(decimal_cells, min_size=16, max_size=16))
    def test_any_decimal_cells_parse_to_the_fraction_built_series(self, cells):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.csv"
            path.write_text(_price_lines(BASE_EPOCH, 16, 1800, lambda i: cells[i]))
            [parsed] = parse_price_csv(path, MarketKind.BM)
        built = PriceSeries(parsed.window, *scaled(Fraction(c) for c in cells))
        assert parsed == built
        assert parsed.prices == built.prices

    @given(st.lists(st.lists(decimal_cells, min_size=3, max_size=3),
                    min_size=16, max_size=16))
    @settings(max_examples=50)
    def test_any_decimal_cells_parse_to_the_fraction_built_forecast(self, rows):
        lines = ["timestamp,q10,q50,q90"] + [
            f"{format_timestamp(BASE_EPOCH + i * 1800)}," + ",".join(row)
            for i, row in enumerate(rows)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.csv"
            path.write_text("\n".join(lines) + "\n")
            [parsed] = parse_forecast_csv(path, MarketKind.BM)
        values = tuple(tuple(Fraction(c) for c in row) for row in rows)
        built = exact_forecast(parsed.window, parsed.levels, values)
        assert parsed == built and hash(parsed) == hash(built)
        assert parsed.values == built.values == values
        assert parsed.levels == (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
        for level in parsed.levels:
            assert parsed.repaired_curve(level) == built.repaired_curve(level)

    def test_scaled_constructors_keep_the_least_scale(self):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, 2)
        series = PriceSeries(win, (250, -500), 1000)
        assert (series.scaled, series.scale) == ((1, -2), 4)
        assert series == PriceSeries(win, (1, -2), 4)
        assert series.prices == (Fraction(1, 4), Fraction(-1, 2))
        zero = PriceSeries(win, [0, 0], 100)
        assert (zero.scaled, zero.scale) == ((0, 0), 1)
        fc = QuantileForecast(win, ("0.5",), [[30], [45]], 10)
        assert (fc.levels, fc.scaled, fc.scale) == ((Fraction(1, 2),), ((6,), (9,)), 2)
        assert fc.values == ((Fraction(3),), (Fraction(9, 2),))
        with pytest.raises(WindowMismatch):
            PriceSeries(win, (1,), 1)
        with pytest.raises(WindowMismatch):
            QuantileForecast(win, (Fraction(1, 2),), ((1, 2), (3, 4)), 1)
        with pytest.raises(WindowMismatch, match="1 forecast rows for a 2-period window"):
            QuantileForecast(win, (Fraction(1, 2),), ((1,),), 1)
        for bad in (0, -4):
            with pytest.raises(ValueError):
                PriceSeries(win, (1, 2), bad)
            with pytest.raises(ValueError):
                QuantileForecast(win, (Fraction(1, 2),), ((1,), (2,)), bad)


def _repaired_rows(fc):
    """Each level's repaired_curve, read back as the forecast's rows."""
    curves = [fc.repaired_curve(lv) for lv in fc.levels]
    return [tuple(Fraction(c[t], fc.scale) for c in curves)
            for t in range(fc.window.period_count)]


class TestRepair:
    """repaired_curve reads one level of the rows sorted ascending."""

    def test_sorts_crossed_rows(self):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, 2)
        fc = QuantileForecast(win, (Fraction(3, 10), Fraction(7, 10)), ((5, 2), (1, 4)), 1)
        assert _repaired_rows(fc) == [
            (Fraction(2), Fraction(5)),
            (Fraction(1), Fraction(4)),
        ]
        # the forecast itself keeps its crossed row
        assert fc.values[0] == (Fraction(5), Fraction(2))

    def test_clean_forecast_untouched(self):
        fc = make_forecast({"0.3": [1, 2], "0.7": [3, 4]})
        assert _repaired_rows(fc) == list(fc.values)

    @given(
        st.lists(
            st.tuples(*(st.integers(min_value=-50, max_value=50) for _ in range(3))),
            min_size=1,
            max_size=8,
        )
    )
    def test_repair_is_idempotent(self, raw_rows):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, len(raw_rows))
        levels = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
        fc = QuantileForecast(win, levels, raw_rows, 4)
        fixed = _repaired_rows(fc)
        assert fixed == [tuple(sorted(row)) for row in fc.values]
        assert _repaired_rows(exact_forecast(win, levels, fixed)) == fixed


def _price_lines(start, count, step, price_of=lambda i: f"{30 + i}"):
    lines = ["timestamp,price"]
    for i in range(count):
        lines.append(f"{format_timestamp(start + i * step)},{price_of(i)}")
    return "\n".join(lines) + "\n"


class TestPriceCsv:
    def test_two_whole_windows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(_price_lines(BASE_EPOCH, 32, 1800))
        series = parse_price_csv(path, MarketKind.BM)
        assert len(series) == 2
        assert series[0].window.start_epoch_s == BASE_EPOCH
        assert series[1].window.start_epoch_s == BASE_EPOCH + 16 * 1800
        assert series[0].prices[3] == Fraction(33)

    def test_trailing_partial_window_warns_and_drops(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(_price_lines(BASE_EPOCH, 47, 1800))
        with pytest.warns(IngestWarning):
            series = parse_price_csv(path, MarketKind.BM)
        assert len(series) == 2

    def test_interior_gap_raises(self, tmp_path):
        stamps = [BASE_EPOCH + i * 1800 for i in range(17)]
        del stamps[5]  # hole inside the first window
        lines = ["timestamp,price"] + [
            f"{format_timestamp(ts)},10" for ts in stamps
        ]
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MissingPeriod):
            parse_price_csv(path, MarketKind.BM)

    def test_non_monotonic_raises(self, tmp_path):
        lines = [
            "timestamp,price",
            f"{format_timestamp(BASE_EPOCH + 1800)},10",
            f"{format_timestamp(BASE_EPOCH)},11",
        ]
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonMonotonicTimestamps):
            parse_price_csv(path, MarketKind.BM)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("time,price\n2024-01-01T00:00:00Z,10\n")
        with pytest.raises(UnknownColumn):
            parse_price_csv(path, MarketKind.BM)

    def test_header_case_insensitive(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(_price_lines(BASE_EPOCH, 16, 1800).replace(
            "timestamp,price", "Timestamp,Price"))
        assert len(parse_price_csv(path, MarketKind.BM)) == 1

    def test_bad_price_reports_line(self, tmp_path):
        lines = _price_lines(BASE_EPOCH, 16, 1800).splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0] + ",oops"
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRow) as err:
            parse_price_csv(path, MarketKind.BM)
        assert "5" in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("\n")
        with pytest.raises(MalformedRow):
            parse_price_csv(path, MarketKind.BM)

    def test_write_then_parse_round_trip(self, tmp_path):
        series = make_prices([frac("30.25") + i for i in range(16)])
        path = tmp_path / "out.csv"
        write_price_csv(path, [series])
        assert parse_price_csv(path, MarketKind.BM) == [series]


class TestForecastCsv:
    def test_round_trip(self, tmp_path):
        fc = make_forecast(
            {
                "0.1": [10 + i for i in range(16)],
                "0.5": [20 + i for i in range(16)],
                "0.9": [30 + i for i in range(16)],
            }
        )
        path = tmp_path / "f.csv"
        write_forecast_csv(path, [fc])
        header = path.read_text().splitlines()[0]
        assert header == "timestamp,q10,q50,q90"
        assert parse_forecast_csv(path, MarketKind.BM) == [fc]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(0, 9), st.integers(0, 9), st.sampled_from([1, 3, 7]),
            st.lists(st.integers(-10**9, 10**9), min_size=16, max_size=16),
        ),
        min_size=1, max_size=3,
    ))
    def test_rewrite_is_byte_identical_over_any_scale(self, windows):
        forecasts = []
        for i, (twos, fives, odd, values) in enumerate(windows):
            window = TradingWindow(MarketKind.BM, BASE_EPOCH + i * 8 * 3600, 16)
            rows = [(v * odd, (v + 1) * odd) for v in values]  # odd divides each value
            forecasts.append(QuantileForecast(window, (Fraction(1, 4), Fraction(3, 4)),
                                              rows, 2**twos * 5**fives * odd))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            write_forecast_csv(first, forecasts)
            parsed = parse_forecast_csv(first, MarketKind.BM)
            assert parsed == forecasts
            write_forecast_csv(second, parsed)
            assert second.read_bytes() == first.read_bytes()

    def test_forecasts_must_share_levels(self, tmp_path):
        path = tmp_path / "f.csv"
        with pytest.raises(WindowMismatch, match="^nothing to write$"):
            write_forecast_csv(path, [])
        first = make_forecast({"0.1": [1] * 16, "0.9": [2] * 16})
        second = make_forecast({"0.5": [1] * 16}, start=BASE_EPOCH + 8 * 3600)
        with pytest.raises(WindowMismatch, match="disagree on quantile levels"):
            write_forecast_csv(path, [first, second])
        assert not path.exists()

    def test_value_without_a_decimal_form_raises_before_the_file(self, tmp_path):
        window = TradingWindow(MarketKind.BM, BASE_EPOCH, 16)
        rows = [(3,)] * 15 + [(1,)]  # the last value is 1/3
        thirds = QuantileForecast(window, (Fraction(1, 2),), rows, 3)
        path = tmp_path / "f.csv"
        with pytest.raises(ValueError, match="1/3 has no exact decimal"):
            write_forecast_csv(path, [thirds])
        assert not path.exists()
        with pytest.raises(ValueError, match="1/3 has no exact decimal"):
            write_price_csv(path, [PriceSeries(window, [r[0] for r in rows], 3)])
        assert not path.exists()

    def test_levels_must_ascend(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("timestamp,q50,q10\n2024-01-01T00:00:00Z,1,2\n")
        with pytest.raises(LevelOutOfRange):
            parse_forecast_csv(path, MarketKind.BM)

    def test_level_out_of_range_column(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("timestamp,q100\n2024-01-01T00:00:00Z,1\n")
        with pytest.raises(LevelOutOfRange):
            parse_forecast_csv(path, MarketKind.BM)

    def test_unknown_column_name(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("timestamp,p50\n2024-01-01T00:00:00Z,1\n")
        with pytest.raises(UnknownColumn):
            parse_forecast_csv(path, MarketKind.BM)

    def test_row_arity_checked(self, tmp_path):
        lines = ["timestamp,q10,q90"]
        for i in range(16):
            cells = "1,2" if i != 7 else "1"
            lines.append(f"{format_timestamp(BASE_EPOCH + i * 1800)},{cells}")
        path = tmp_path / "f.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRow):
            parse_forecast_csv(path, MarketKind.BM)


# One file shape per reader: header, then the value cells of row i.
READERS = {
    "prices": ("timestamp,price", lambda i: f"{30 + i}", parse_price_csv),
    "forecasts": ("timestamp,q10,q90", lambda i: f"{i},{i + 1}", parse_forecast_csv),
    "features": ("timestamp,a,target", lambda i: f"{i}.5,{i}", FeatureMatrix.from_csv),
}

# fault -> (error class, or None if the file still parses; how it spoils
# line 5 of the file).
FAULTS = {
    "blank line": (None, lambda row: b"  \n" + row),
    "wrong column count": (MalformedRow, lambda row: row + b",7"),
    "bad timestamp": (MalformedRow, lambda row: b"2024-13-01T00:00:00Z" + row[20:]),
    "out-of-order timestamp": (
        NonMonotonicTimestamps,
        lambda row: format_timestamp(BASE_EPOCH).encode() + row[20:],
    ),
    "non-UTF-8 bytes": (MalformedRow, lambda row: row[:-1] + b"\xff"),
}


def _table(reader, rows=16, spoil=lambda row: row):
    header, cells_of, _ = READERS[reader]
    lines = [header] + [
        f"{format_timestamp(BASE_EPOCH + i * 1800)},{cells_of(i)}"
        for i in range(rows)
    ]
    data = [line.encode() for line in lines]
    data[4] = spoil(data[4])
    return b"\n".join(data) + b"\n"


def _comparable(parsed):
    if isinstance(parsed, FeatureMatrix):
        return parsed.timestamps, parsed.targets, parsed.scale, parsed.features.tolist()
    return parsed


class TestSharedReader:
    """Price, forecast and feature files fail alike, naming the same line."""

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("reader", READERS)
    def test_fault_table(self, reader, fault, tmp_path):
        error, spoil = FAULTS[fault]
        parse = READERS[reader][2]
        path, clean = tmp_path / "spoilt.csv", tmp_path / "clean.csv"
        path.write_bytes(_table(reader, spoil=spoil))
        clean.write_bytes(_table(reader))
        if error is None:
            assert _comparable(parse(path, MarketKind.BM)) == _comparable(
                parse(clean, MarketKind.BM)
            )
            return
        with pytest.raises(error) as err:
            parse(path, MarketKind.BM)
        assert type(err.value) is error
        if error is MalformedRow:
            assert err.value.line == 5
        else:
            assert f"{path}:5:" in str(err.value)

    @pytest.mark.parametrize("reader", READERS)
    def test_non_utf8_line_counts_every_line_break(self, reader, tmp_path):
        path = tmp_path / "cr.csv"
        data = _table(reader, spoil=lambda row: row[:-1] + b"\xff")
        path.write_bytes(data.replace(b"\n", b"\r"))
        with pytest.raises(MalformedRow) as err:
            READERS[reader][2](path, MarketKind.BM)
        assert err.value.line == 5

    @pytest.mark.parametrize("reader", READERS)
    def test_byte_order_mark_is_skipped(self, reader, tmp_path):
        parse = READERS[reader][2]
        path, clean = tmp_path / "bom.csv", tmp_path / "clean.csv"
        path.write_bytes(b"\xef\xbb\xbf" + _table(reader))
        clean.write_bytes(_table(reader))
        assert _comparable(parse(path, MarketKind.BM)) == _comparable(
            parse(clean, MarketKind.BM)
        )

    @pytest.mark.parametrize("reader", READERS)
    def test_bad_byte_after_a_byte_order_mark_names_its_line(self, reader, tmp_path):
        # the bad byte opens line 5: counted from the file's first byte
        # rather than the mark's end, the line break before it is missed
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + _table(reader, spoil=lambda row: b"\xff" + row))
        with pytest.raises(MalformedRow) as err:
            READERS[reader][2](path, MarketKind.BM)
        assert err.value.line == 5

    @pytest.mark.parametrize("reader", ["prices", "forecasts"])
    def test_short_tail_warning_points_at_the_caller(self, reader, tmp_path):
        path = tmp_path / "tail.csv"
        path.write_bytes(_table(reader, rows=20))
        with pytest.warns(IngestWarning) as caught:
            windows = READERS[reader][2](path, MarketKind.BM)
        assert len(windows) == 1
        assert caught[0].filename == __file__


def _stamp_text(epoch_s: int, form: str) -> str:
    """The instant as a data file may name it: `Z`, a space for the `T`,
    or a UTC offset with the local time."""
    if form == "Z":
        return format_timestamp(epoch_s)
    if form == " ":
        text = format_timestamp(epoch_s)
        return f"{text[:10]} {text[11:]}"
    sign = 1 if form[0] == "+" else -1
    local = format_timestamp(epoch_s + sign * int(form[1:3]) * 3600)
    return local[:-1] + form


_STAMP_FORMS = st.sampled_from(["Z", "Z", " ", "+00:00", "+01:00", "-05:00", "+14:00"])
_STEPS = st.one_of(st.sampled_from([1800, 3600, 84600, 86400]), st.integers(1, 2 * 86400))


class TestReadTableStamps:
    """read_table's date and time tables read every stamp as parse_timestamp does."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.integers(-9000, 9000).map(lambda k: BASE_EPOCH + k * 1800),
                     st.integers(BASE_EPOCH - 400 * 86400, BASE_EPOCH + 400 * 86400)),
           st.lists(st.tuples(_STEPS, _STAMP_FORMS), min_size=1, max_size=40))
    def test_stamps_read_as_parse_timestamp_reads_them(self, start, steps):
        epoch, stamps = start, []
        for step, form in steps:
            epoch += step
            stamps.append(_stamp_text(epoch, form))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.csv"
            path.write_text("timestamp,price\n" + "".join(f"{t},1\n" for t in stamps))
            rows = list(read_table(path))[1:]
        assert [ts for _, ts, _ in rows] == [parse_timestamp(t) for t in stamps]

    @pytest.mark.parametrize("bad", [
        "2024-01-01T02:00:00",
        "2024-01-01T02:00:00.500Z",
        "2024-01-01T02:00:00Zx",
        "2024-01-01T24:00:00Z",
        "2024-13-01T00:00:00Z",
    ])
    def test_bad_stamp_after_known_ones_fails_as_parse_timestamp(self, bad, tmp_path):
        # lines 2 and 3 enter the tables; line 4 shares a date or time text
        path = tmp_path / "p.csv"
        path.write_text(
            "timestamp,price\n2024-01-01T00:00:00Z,1\n2024-01-01T01:00:00Z,1\n"
            f"{bad},1\n"
        )
        with pytest.raises(MalformedRow) as want:
            parse_timestamp(bad, line=4)
        with pytest.raises(MalformedRow) as err:
            list(read_table(path))
        assert (err.value.line, str(err.value)) == (4, str(want.value))


# --- the one-pass read of canonical files ------------------------------------

_PLAIN_CELLS = st.from_regex(r"-?[0-9]{1,7}(\.[0-9]{1,4})?", fullmatch=True)
# float reprs (exponents among them) within and past the feature bound
_FLOAT_CELLS = st.one_of(
    _PLAIN_CELLS,
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False).map(repr),
)
_LEVEL_COLUMNS = ("q2.5", "q10", "q30", "q50", "q70", "q90", "q97.5")


@st.composite
def _canonical_files(draw):
    """(reader, market, lines): a file as bessarb writes one, as text lines."""
    reader = draw(st.sampled_from(sorted(READERS)))
    mk = draw(st.sampled_from(MarketKind))
    step = mk.period_seconds
    start = BASE_EPOCH + draw(st.integers(-10**6, 10**6)) * step
    plain = draw(st.lists(_PLAIN_CELLS, min_size=1, max_size=12))
    if reader == "features":
        names = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=3))
        header, rows = f"timestamp,{','.join(names)},target", draw(st.integers(0, 40))
        floats = draw(st.lists(_FLOAT_CELLS, min_size=1, max_size=12))
        pools = [floats] * len(names) + [plain]
    else:
        rows = draw(st.integers(0, 3)) * mk.periods_per_window
        if reader == "prices":
            header, pools = draw(st.sampled_from(["timestamp,price", "Timestamp,Price"])), [plain]
        else:
            columns = sorted(draw(st.sets(st.sampled_from(_LEVEL_COLUMNS), min_size=1)),
                             key=lambda name: Fraction(name[1:]))
            header, pools = "timestamp," + ",".join(columns), [plain] * len(columns)
    # cell j of row i cycles through its column's drawn pool of texts
    lines = [header] + [
        ",".join([format_timestamp(start + i * step)]
                 + [pool[(i * len(pools) + j) % len(pool)] for j, pool in enumerate(pools)])
        for i in range(rows)
    ]
    return reader, mk, lines


def _spoil(draw, lines: list[str]) -> str:
    """The text of `lines`, spoilt in one of the ways a data file can be."""
    how = draw(st.sampled_from([
        "crlf", "bom", "blank line", "space line", "padded cell", "+00:00 stamp",
        "space stamp", "exponent cell", "5-digit year", "short tail", "gap",
        "out of order", "long cell", "wide digit", "empty body", "line break",
    ]))
    lines = list(lines)
    row = draw(st.integers(1, max(1, len(lines) - 1)))
    has_rows = len(lines) > 1
    if how == "crlf":
        return "\r\n".join(lines) + "\r\n"
    if how == "bom":
        return "\ufeff" + "\n".join(lines) + "\n"
    if how in ("blank line", "space line"):
        lines.insert(row, "" if how == "blank line" else "  ")
    elif how == "empty body":
        del lines[1:]
    elif how == "line break":
        at = draw(st.integers(0, len(lines) - 1))
        cut = draw(st.integers(0, len(lines[at])))
        char = draw(st.sampled_from(["\x0b", "\x1c", "\x85", "\u2028"]))
        lines[at] = lines[at][:cut] + char + lines[at][cut:]
    elif has_rows:
        stamp, *cells = lines[row].split(",")
        cell = draw(st.integers(0, len(cells) - 1))
        if how == "padded cell":
            cells[cell] = draw(st.sampled_from([" ", "\t"])) + cells[cell]
        elif how == "exponent cell":
            cells[cell] = draw(st.sampled_from(["1e2", "-25E-1", "3e0"]))
        elif how == "long cell":
            cells[cell] = "1" * 5000  # past int's default digit limit
        elif how == "wide digit":  # a Unicode digit that int() and Fraction() read
            cells[cell] = cells[cell].replace("5", "\uff15", 1) + "\uff15"
        elif how == "+00:00 stamp":
            stamp = stamp[:-1] + "+00:00"
        elif how == "space stamp":
            stamp = stamp.replace("T", " ")
        elif how == "5-digit year":
            stamp = "1" + stamp
        lines[row] = ",".join([stamp, *cells])
        if how == "short tail":
            del lines[-1]
        elif how == "gap" and len(lines) > 3:
            del lines[row if row < len(lines) - 1 else row - 1]
        elif how == "out of order" and len(lines) > 2:
            i = min(row, len(lines) - 2)
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "\n".join(lines) + "\n"


def _outcome(parse, path, mk):
    """What a reader gives: its value or its error, and the warnings shown."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = ("value", parse(path, mk))
        except Exception as exc:
            got = ("error", type(exc), str(exc), getattr(exc, "line", None))
    if got[0] == "value" and isinstance(got[1], FeatureMatrix):
        got += (got[1].features.dtype, got[1].features.shape)
    return got, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def _row_reader_alone():
    """The readers with the one-pass read declining every file."""
    decline = mock.Mock(return_value=None)
    return mock.patch.object(market, "_whole_file", decline), mock.patch.object(
        forecasting, "_whole_file", decline)


class TestWholeFileRead:
    """A file read in one pass gives what the row reader alone gives: equal
    objects, or the same error, message, line and warnings."""

    def _both(self, reader, mk, text):
        parse = READERS[reader][2]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(text.encode("utf-8"))
            whole = market._whole_file(path, mk, features=reader == "features")
            public = _outcome(parse, path, mk)
            first, second = _row_reader_alone()
            with first, second:
                rows = _outcome(parse, path, mk)
        return whole, public, rows

    @settings(max_examples=150, deadline=None)
    @given(_canonical_files())
    def test_canonical_files(self, drawn):
        reader, mk, lines = drawn
        whole, public, rows = self._both(reader, mk, "\n".join(lines) + "\n")
        assert whole is not None
        assert public == rows

    @settings(max_examples=300, deadline=None)
    @given(_canonical_files(), st.data())
    def test_spoilt_files(self, drawn, data):
        reader, mk, lines = drawn
        _, public, rows = self._both(reader, mk, _spoil(data.draw, lines))
        assert public == rows

    def test_declines_what_it_cannot_read(self, tmp_path):
        lines = _table("prices").decode().splitlines()
        path = tmp_path / "p.csv"
        for text in ["\r\n".join(lines), "\ufeff" + "\n".join(lines) + "\n",
                     "\n".join(lines[:-1]) + "\n", "\n".join(lines[:5] + ["", *lines[5:]]) + "\n",
                     "\n".join(lines[:5] + ["2024-01-01T02:00:00Z,3\uff15", *lines[6:]]) + "\n",
                     "\n".join(lines)]:  # no line end after the last row
            path.write_bytes(text.encode())
            assert market._whole_file(path, MarketKind.BM) is None
        path.write_text("\n".join(lines) + "\n")
        header, epochs, floats, ints, scale = market._whole_file(path, MarketKind.BM)
        assert (header, floats, scale) == (["timestamp", "price"], [], 1)
        assert epochs == range(BASE_EPOCH, BASE_EPOCH + 16 * 1800, 1800)
        assert ints == list(range(30, 46))
        assert market._whole_file(tmp_path / "missing.csv", MarketKind.BM) is None


class TestDualHorizon:
    def _horizon(self):
        dam = TradingWindow(MarketKind.DAM, BASE_EPOCH, 24)
        bm = TradingWindow(MarketKind.BM, BASE_EPOCH, 16)
        return build_dual_horizon(dam, bm)

    def _market_events(self, hz):
        return [(hz.windows[w].market, p) for w, p in hz.events]

    def test_slot_to_hour(self):
        # balancing slot s trades inside day-ahead hour s // 2
        dam, bm = self._horizon().instants
        for slot, instant in enumerate(bm):
            hour = slot // 2
            assert dam[hour] < instant
            assert hour + 1 == 24 or instant < dam[hour + 1]

    def test_merged_events_cover_both_markets_once(self):
        hz = self._horizon()
        events = self._market_events(hz)
        assert len(events) == 40
        assert [p for m, p in events if m is MarketKind.DAM] == list(range(24))
        assert [p for m, p in events if m is MarketKind.BM] == list(range(16))

    def test_merged_events_in_wall_clock_order(self):
        hz = self._horizon()
        stamps = [hz.windows[w].timestamp_of(p) for w, p in hz.events]
        assert stamps == sorted(stamps)

    def test_shared_instant_lists_hourly_leg_first(self):
        dam, bm = self._horizon().instants
        # hour h leads its first half-hour slot 2h
        assert dam[3] < bm[6]

    @pytest.mark.parametrize("bm_periods", [1, 7, 16, 48])
    def test_events_match_the_merged_order_oracle(self, bm_periods):
        dam = TradingWindow(MarketKind.DAM, BASE_EPOCH, 24)
        bm = TradingWindow(MarketKind.BM, BASE_EPOCH, bm_periods)
        hz = build_dual_horizon(dam, bm)
        assert self._market_events(hz) == merged_events(dam, bm)

    @pytest.mark.parametrize("windows", [
        (TradingWindow(MarketKind.DAM, BASE_EPOCH, 24),),
        (TradingWindow(MarketKind.BM, BASE_EPOCH, 16),),
        (TradingWindow(MarketKind.DAM, BASE_EPOCH, 24),
         TradingWindow(MarketKind.BM, BASE_EPOCH, 16)),
    ])
    def test_instants_invert_events(self, windows):
        hz = Horizon(windows)
        assert len(hz.events) == sum(w.period_count for w in windows)
        assert [len(ix) for ix in hz.instants] == [w.period_count for w in windows]
        for k, (w, p) in enumerate(hz.events):
            assert hz.instants[w][p] == k

    def test_one_window_lists_its_periods(self):
        window = TradingWindow(MarketKind.BM, BASE_EPOCH, 16)
        hz = Horizon((window,))
        assert hz.events == tuple((0, p) for p in range(16))
        assert hz.instants == (tuple(range(16)),)

    def test_equality_and_pickling_follow_the_windows(self):
        hz = self._horizon()
        copy = pickle.loads(pickle.dumps(hz))
        assert copy == hz and hash(copy) == hash(hz)
        assert (copy.events, copy.instants) == (hz.events, hz.instants)
        assert hz != Horizon(hz.windows[:1])

    def test_market_kind_guards(self):
        dam = TradingWindow(MarketKind.DAM, BASE_EPOCH, 24)
        with pytest.raises(WindowMismatch):
            build_dual_horizon(dam, dam)

    def test_start_must_match(self):
        dam = TradingWindow(MarketKind.DAM, BASE_EPOCH, 24)
        bm = TradingWindow(MarketKind.BM, BASE_EPOCH + 1800, 16)
        with pytest.raises(WindowMismatch):
            build_dual_horizon(dam, bm)

    def test_bm_cannot_overrun(self):
        dam = TradingWindow(MarketKind.DAM, BASE_EPOCH, 4)
        bm = TradingWindow(MarketKind.BM, BASE_EPOCH, 16)
        with pytest.raises(WindowMismatch):
            build_dual_horizon(dam, bm)


class TestSyntheticGenerator:
    def test_deterministic(self):
        a1, f1 = generate_synthetic(11, MarketKind.DAM, days=2, noise_sd=3)
        a2, f2 = generate_synthetic(11, MarketKind.DAM, days=2, noise_sd=3)
        assert a1 == a2 and f1 == f2

    def test_seed_changes_output(self):
        a1, _ = generate_synthetic(1, MarketKind.BM, noise_sd=3)
        a2, _ = generate_synthetic(2, MarketKind.BM, noise_sd=3)
        assert a1 != a2

    def test_window_layout(self):
        dam_a, _ = generate_synthetic(0, MarketKind.DAM, days=3)
        bm_a, _ = generate_synthetic(0, MarketKind.BM, days=3)
        assert [s.window.start_epoch_s for s in dam_a] == [
            BASE_EPOCH + d * 86400 for d in range(3)
        ]
        assert len(bm_a) == 9  # three balancing windows per day
        assert bm_a[1].window.start_epoch_s == BASE_EPOCH + 8 * 3600

    def test_zero_noise_collapses_forecast_onto_actuals(self):
        actuals, forecasts = generate_synthetic(5, MarketKind.BM, days=1, noise_sd=0)
        for series, fc in zip(actuals, forecasts):
            for row, price in zip(fc.values, series.prices):
                assert row == (price,) * len(fc.levels)

    def test_prices_are_cent_quantized(self):
        actuals, forecasts = generate_synthetic(3, MarketKind.DAM, noise_sd=4)
        for series in actuals:
            assert all(100 % p.denominator == 0 for p in series.prices)
        for fc in forecasts:
            assert all(100 % v.denominator == 0 for row in fc.values for v in row)

    def test_noise_widens_quantile_fan(self):
        _, forecasts = generate_synthetic(7, MarketKind.DAM, noise_sd=4)
        fc = forecasts[0]
        assert fc.levels == DEFAULT_LEVELS
        assert any(row[-1] > row[0] for row in fc.values)

    def test_levels_validated(self):
        with pytest.raises(LevelOutOfRange):
            generate_synthetic(0, MarketKind.DAM, levels=("0.9", "0.1"))
