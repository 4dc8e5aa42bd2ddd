"""Market containers, CSV ingest, dual horizon and the synthetic generator."""

import pickle
import tempfile
from fractions import Fraction
from pathlib import Path

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
    validate_and_repair,
    write_forecast_csv,
    write_price_csv,
)
from bessarb._numeric import format_decimal

from conftest import frac, make_forecast, make_prices, merged_events


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


class TestContainers:
    def test_price_series_length_guard(self):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, 16)
        with pytest.raises(WindowMismatch):
            PriceSeries(win, (Fraction(1),) * 15)

    def test_forecast_row_width_guard(self):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, 2)
        with pytest.raises(WindowMismatch):
            QuantileForecast(win, (Fraction(1, 2),), ((Fraction(1), Fraction(2)),) * 2)

    def test_forecast_levels_must_ascend(self):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, 1)
        with pytest.raises(LevelOutOfRange):
            QuantileForecast(
                win,
                (Fraction(7, 10), Fraction(3, 10)),
                ((Fraction(1), Fraction(2)),),
            )

    def test_level_outside_unit_interval(self):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, 1)
        with pytest.raises(LevelOutOfRange):
            QuantileForecast(win, (Fraction(0),), ((Fraction(1),),))

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
        built = PriceSeries(parsed.window, prices)
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
        built = PriceSeries(parsed.window, tuple(Fraction(c) for c in cells))
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
        built = QuantileForecast(parsed.window, parsed.levels, values)
        assert parsed == built and hash(parsed) == hash(built)
        assert parsed.values == built.values == values
        assert parsed.levels == (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
        for level in parsed.levels:
            assert parsed.repaired_curve(level) == built.repaired_curve(level)

    def test_scaled_constructors_keep_the_least_scale(self):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, 2)
        series = PriceSeries.from_scaled(win, (250, -500), 1000)
        assert (series.scaled, series.scale) == ((1, -2), 4)
        assert series == PriceSeries(win, (Fraction(1, 4), Fraction(-1, 2)))
        zero = PriceSeries.from_scaled(win, (0, 0), 100)
        assert (zero.scaled, zero.scale) == ((0, 0), 1)
        fc = QuantileForecast.from_scaled(win, (Fraction(1, 2),), ((30,), (45,)), 10)
        assert (fc.scaled, fc.scale) == (((6,), (9,)), 2)
        assert fc.values == ((Fraction(3),), (Fraction(9, 2),))
        with pytest.raises(WindowMismatch):
            PriceSeries.from_scaled(win, (1,), 1)
        with pytest.raises(WindowMismatch):
            QuantileForecast.from_scaled(win, (Fraction(1, 2),), ((1, 2), (3, 4)), 1)


class TestRepair:
    def test_sorts_crossed_rows(self):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, 2)
        fc = QuantileForecast(
            win,
            (Fraction(3, 10), Fraction(7, 10)),
            ((Fraction(5), Fraction(2)), (Fraction(1), Fraction(4))),
        )
        fixed, changed = validate_and_repair(fc)
        assert changed == 1
        assert fixed.values[0] == (Fraction(2), Fraction(5))
        assert fixed.values[1] == (Fraction(1), Fraction(4))

    def test_clean_forecast_untouched(self):
        fc = make_forecast({"0.3": [1, 2], "0.7": [3, 4]})
        fixed, changed = validate_and_repair(fc)
        assert changed == 0
        assert fixed is fc

    @given(
        st.lists(
            st.tuples(*(st.integers(min_value=-50, max_value=50) for _ in range(3))),
            min_size=1,
            max_size=8,
        )
    )
    def test_repair_is_idempotent(self, raw_rows):
        win = TradingWindow(MarketKind.BM, BASE_EPOCH, len(raw_rows))
        fc = QuantileForecast(
            win,
            (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)),
            tuple(tuple(Fraction(v) for v in row) for row in raw_rows),
        )
        fixed, _ = validate_and_repair(fc)
        again, changed = validate_and_repair(fixed)
        assert changed == 0
        assert again.values == fixed.values
        for row in again.values:
            assert list(row) == sorted(row)


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
        return parsed.timestamps, parsed.targets, parsed.features.tolist()
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

    @pytest.mark.parametrize("reader", ["prices", "forecasts"])
    def test_short_tail_warning_points_at_the_caller(self, reader, tmp_path):
        path = tmp_path / "tail.csv"
        path.write_bytes(_table(reader, rows=20))
        with pytest.warns(IngestWarning) as caught:
            windows = READERS[reader][2](path, MarketKind.BM)
        assert len(windows) == 1
        assert caught[0].filename == __file__


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
