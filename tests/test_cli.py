"""Command line behavior: wiring, defaults, outputs and exit codes."""

import contextlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bessarb
from bessarb import __version__, cli, evaluation
from bessarb._numeric import format_money, parse_ratio
from bessarb.battery import BatterySpec
from bessarb.cli import main
from bessarb.errors import BessArbError, ConfigError
from bessarb.evaluation import (
    dp_optimal,
    dp_optimal_dual,
    perfect_foresight,
    perfect_foresight_dual,
    settle,
    settle_dual,
)
from bessarb.market import (
    IngestWarning,
    MarketKind,
    build_dual_horizon,
    format_timestamp,
    parse_forecast_csv,
    parse_price_csv,
    parse_timestamp,
)
from bessarb.strategies import (
    QuantilePair,
    schedule_to_dict,
    ts1,
    ts2,
    ts3,
    ts3_dual,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(capsys, *argv):
    """run, for argv that may end in SystemExit (help and version)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_error(err):
    doc = json.loads(err)
    assert set(doc) == {"error", "message"}
    return doc


@pytest.fixture()
def data_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run(capsys, "gen", "--out", str(out), "--noise-sd", "3",
                     "--seed", "7")
    assert code == 0
    return out


class TestGen:
    def test_writes_both_markets(self, tmp_path, capsys):
        out = tmp_path / "g"
        code, stdout, _ = run(capsys, "gen", "--out", str(out))
        assert code == 0
        assert stdout == f"gen out={out} days=1 dam_windows=1 bm_windows=3\n"
        for name in ("dam_actuals", "dam_forecast", "bm_actuals", "bm_forecast"):
            assert (out / f"{name}.csv").exists()

    def test_market_subset_and_days(self, tmp_path, capsys):
        out = tmp_path / "g"
        code, stdout, _ = run(
            capsys, "gen", "--out", str(out), "--days", "2", "--markets", "dam"
        )
        assert code == 0
        assert "dam_windows=2" in stdout
        assert not (out / "bm_actuals.csv").exists()

    def test_seed_controls_bytes(self, tmp_path, capsys):
        a, b, c = (tmp_path / n for n in "abc")
        for out, seed in ((a, "5"), (b, "5"), (c, "6")):
            run(capsys, "gen", "--out", str(out), "--seed", seed,
                "--noise-sd", "2")
        same = (a / "dam_forecast.csv").read_bytes()
        assert same == (b / "dam_forecast.csv").read_bytes()
        assert same != (c / "dam_forecast.csv").read_bytes()

    def test_start_override(self, tmp_path, capsys):
        out = tmp_path / "g"
        code, _, _ = run(capsys, "gen", "--out", str(out), "--markets", "dam",
                         "--start", "2025-06-01T00:00:00Z")
        assert code == 0
        first = (out / "dam_actuals.csv").read_text().splitlines()[1]
        assert first.startswith("2025-06-01T00:00:00Z,")

    def test_level_without_a_decimal_form(self, tmp_path, capsys):
        # a forecast column names its level as a decimal percent
        out = tmp_path / "g"
        code, _, err = run(capsys, "gen", "--levels", "1/3,1/2", "--out", str(out))
        assert code == 2
        assert stderr_error(err) == {
            "error": "ConfigError", "message": "--levels: 1/3 has no decimal form"
        }
        assert not out.exists()

    def test_start_past_the_year_9999(self, tmp_path, capsys):
        out = tmp_path / "g"
        code, _, err = run(capsys, "gen", "--out", str(out),
                           "--start", "9999-12-31T00:00:00Z", "--days", "2")
        assert code == 2
        message = stderr_error(err)["message"]
        assert "--start" in message and "--days" in message
        assert not out.exists()
        code, _, _ = run(capsys, "gen", "--out", str(out),
                         "--start", "9999-12-31T00:00:00Z", "--days", "1")
        assert code == 0
        last = (out / "bm_actuals.csv").read_text().splitlines()[-1]
        assert last.startswith("9999-12-31T23:30:00Z,")

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--days", "0"),
            ("gen", "--noise-sd", "-1"),
            ("gen", "--markets", "dam,spot"),
            ("gen", "--start", "tomorrow"),
            ("gen", "--start", "2025-06-01T00:00:00"),
            ("gen", "--start", "2025-06-01T00:00:00.5Z"),
            ("gen", "--levels", "1.5"),
            ("gen", "--levels", "0.5,0.5"),
            ("gen", "--levels", "0.9,0.1"),
        ],
    )
    def test_config_errors(self, tmp_path, capsys, argv):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "x"))
        assert code == 2
        assert stderr_error(err)["error"] == "ConfigError"


class TestBacktest:
    def test_summary_line(self, data_dir, capsys):
        code, stdout, _ = run(
            capsys, "backtest",
            "--dam-actuals", str(data_dir / "dam_actuals.csv"),
            "--dam-forecast", str(data_dir / "dam_forecast.csv"),
        )
        assert code == 0
        assert re.fullmatch(
            r"profit=(-?\d+\.\d\d) trades=(\d+) pf=(-?\d+\.\d\d) dp=(-?\d+\.\d\d)\n",
            stdout,
        )

    def test_zero_noise_realizes_perfect_foresight(self, tmp_path, capsys):
        out = tmp_path / "clean"
        run(capsys, "gen", "--out", str(out), "--markets", "bm")
        code, stdout, _ = run(
            capsys, "backtest", "--market", "bm", "--strategy", "TS2",
            "--bm-actuals", str(out / "bm_actuals.csv"),
            "--bm-forecast", str(out / "bm_forecast.csv"),
        )
        assert code == 0
        fields = dict(part.split("=") for part in stdout.split())
        assert fields["profit"] == fields["pf"]

    def test_writes_schedules(self, data_dir, tmp_path, capsys):
        out = tmp_path / "bt"
        code, _, _ = run(
            capsys, "backtest",
            "--dam-actuals", str(data_dir / "dam_actuals.csv"),
            "--dam-forecast", str(data_dir / "dam_forecast.csv"),
            "--out", str(out),
        )
        assert code == 0
        assert (out / "schedule_dam_000.csv").exists()
        doc = json.loads((out / "schedules.json").read_text())
        assert isinstance(doc, list) and doc[0]["strategy"] == "TS3"

    def test_schedule_file_bytes(self, tmp_path, capsys):
        # a 0.125 MWh ramp and a negative price, so every order field shows
        stamps = [f"2024-01-01T{h // 2:02d}:{h % 2 * 30:02d}:00Z" for h in range(16)]
        forecast = ["10"] * 16
        forecast[3], forecast[9] = "-2.5", "40.75"
        (tmp_path / "fc.csv").write_text(
            "timestamp,q50\n" + "".join(f"{s},{p}\n" for s, p in zip(stamps, forecast))
        )
        (tmp_path / "px.csv").write_text(
            "timestamp,price\n" + "".join(f"{s},20\n" for s in stamps)
        )
        (tmp_path / "battery.json").write_text(
            '{"capacity_mwh": "1", "ramp_mwh_per_period": "0.125"}'
        )
        out = tmp_path / "bt"
        code, _, _ = run(
            capsys, "backtest", "--market", "bm", "--strategy", "TS1",
            "--bm-actuals", str(tmp_path / "px.csv"),
            "--bm-forecast", str(tmp_path / "fc.csv"),
            "--battery", str(tmp_path / "battery.json"), "--out", str(out),
        )
        assert code == 0
        assert (out / "schedule_bm_000.csv").read_text() == (
            "period_index,timestamp,side,volume_mwh,expected_price\n"
            "3,2024-01-01T01:30:00Z,buy,0.125,-2.5\n"
            "9,2024-01-01T04:30:00Z,sell,0.125,40.75\n"
        )
        digest = BatterySpec.from_mwh("1", "0.125").digest()
        assert (out / "schedules.json").read_text() == f"""[
  {{
    "battery_digest": "{digest}",
    "market": "BM",
    "orders": [
      {{
        "expected_price": "-2.5",
        "period": 3,
        "side": "buy",
        "timestamp": "2024-01-01T01:30:00Z",
        "volume_mwh": "0.125"
      }},
      {{
        "expected_price": "40.75",
        "period": 9,
        "side": "sell",
        "timestamp": "2024-01-01T04:30:00Z",
        "volume_mwh": "0.125"
      }}
    ],
    "pair": "0.5-0.5",
    "strategy": "TS1",
    "window_start": "2024-01-01T00:00:00Z"
  }}
]
"""

    def test_efficiency_without_a_decimal_form(self, data_dir, tmp_path, capsys):
        # the schedules' battery digest writes 1/3 as its fraction text
        battery = tmp_path / "battery.json"
        battery.write_text('{"capacity_mwh": "1", "ramp_mwh_per_period": "1",'
                           ' "charge_eff": "1/3"}')
        out = tmp_path / "bt"
        code, _, _ = run(
            capsys, "backtest",
            "--dam-actuals", str(data_dir / "dam_actuals.csv"),
            "--dam-forecast", str(data_dir / "dam_forecast.csv"),
            "--battery", str(battery), "--out", str(out),
        )
        assert code == 0
        digest = BatterySpec.from_json_file(battery).digest()
        doc = json.loads((out / "schedules.json").read_text())
        assert doc and all(s["battery_digest"] == digest for s in doc)

    def test_dual_market(self, data_dir, capsys):
        code, stdout, _ = run(
            capsys, "backtest", "--market", "dual",
            "--dam-actuals", str(data_dir / "dam_actuals.csv"),
            "--dam-forecast", str(data_dir / "dam_forecast.csv"),
            "--bm-actuals", str(data_dir / "bm_actuals.csv"),
            "--bm-forecast", str(data_dir / "bm_forecast.csv"),
        )
        assert code == 0
        assert stdout.startswith("profit=")

    def test_dual_needs_ts3(self, data_dir, capsys):
        code, _, err = run(
            capsys, "backtest", "--market", "dual", "--strategy", "TS1",
            "--dam-actuals", str(data_dir / "dam_actuals.csv"),
            "--dam-forecast", str(data_dir / "dam_forecast.csv"),
            "--bm-actuals", str(data_dir / "bm_actuals.csv"),
            "--bm-forecast", str(data_dir / "bm_forecast.csv"),
        )
        assert code == 2
        assert stderr_error(err)["error"] == "ConfigError"

    def test_dual_needs_a_balancing_window_at_a_day_ahead_start(self, data_dir, tmp_path,
                                                                 capsys):
        # keep only the balancing window that opens at 08:00 on day one
        for name in ("bm_actuals", "bm_forecast"):
            lines = (data_dir / f"{name}.csv").read_text().splitlines()
            (tmp_path / f"{name}.csv").write_text("\n".join([lines[0], *lines[17:33]]) + "\n")
        assert lines[17].startswith("2024-01-01T08:00:00")
        code, _, err = run(
            capsys, "backtest", "--market", "dual",
            "--dam-actuals", str(data_dir / "dam_actuals.csv"),
            "--dam-forecast", str(data_dir / "dam_forecast.csv"),
            "--bm-actuals", str(tmp_path / "bm_actuals.csv"),
            "--bm-forecast", str(tmp_path / "bm_forecast.csv"),
        )
        assert code == 2
        assert stderr_error(err) == {
            "error": "ConfigError",
            "message": "no balancing window opens with a day-ahead window",
        }

    def test_carry_state_runs(self, tmp_path, capsys):
        out = tmp_path / "two"
        run(capsys, "gen", "--out", str(out), "--days", "2", "--markets", "dam",
            "--noise-sd", "2", "--seed", "3")
        code, _, _ = run(
            capsys, "backtest", "--carry-state",
            "--dam-actuals", str(out / "dam_actuals.csv"),
            "--dam-forecast", str(out / "dam_forecast.csv"),
        )
        assert code == 0

    def test_missing_input_is_config_error(self, data_dir, capsys):
        code, _, err = run(
            capsys, "backtest",
            "--dam-actuals", str(data_dir / "dam_actuals.csv"),
        )
        assert code == 2
        assert "--dam-forecast" in stderr_error(err)["message"]

    def test_unreadable_file_is_io_error(self, data_dir, capsys):
        code, _, err = run(
            capsys, "backtest",
            "--dam-actuals", str(data_dir / "nope.csv"),
            "--dam-forecast", str(data_dir / "dam_forecast.csv"),
        )
        assert code == 3
        assert stderr_error(err)["error"] in ("FileNotFoundError", "OSError")

    def test_malformed_pair_is_config_error(self, data_dir, capsys):
        code, _, err = run(
            capsys, "backtest", "--pair", "highlow",
            "--dam-actuals", str(data_dir / "dam_actuals.csv"),
            "--dam-forecast", str(data_dir / "dam_forecast.csv"),
        )
        assert code == 2
        assert stderr_error(err)["error"] == "InvalidPair"


class TestBacktestOracle:
    """`backtest` equals the public functions called directly, charge carried."""

    BATTERY = {
        "capacity_mwh": "2.5",
        "ramp_mwh_per_period": "0.5",
        "min_charge_mwh": "0.5",
        "charge_eff": "0.95",
        "discharge_eff": "0.9",
        "initial_charge_mwh": "2",
    }

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("oracle")
        data = root / "data"
        assert main(["gen", "--out", str(data), "--days", "2",
                     "--noise-sd", "3", "--seed", "11"]) == 0
        battery = root / "battery.json"
        battery.write_text(json.dumps(self.BATTERY))
        return data, battery

    @staticmethod
    def expected(data, spec, market, strategy, pair, carry, allow_stock):
        """(summary line, schedule dicts, final charges) from the public API."""
        loaded = {
            name: (parse_price_csv(data / f"{name}_actuals.csv", kind),
                   parse_forecast_csv(data / f"{name}_forecast.csv", kind))
            for name, kind in (("dam", MarketKind.DAM), ("bm", MarketKind.BM))
        }
        profit = pf = dp = Fraction(0)
        trades, schedules, finals = 0, [], []
        carried = spec  # each window's spec; schedules name the file's spec
        if market == "dual":
            (dam_a, dam_f), (bm_a, bm_f) = loaded["dam"], loaded["bm"]
            for di, ps in enumerate(dam_a):
                starts = [b.window.start_epoch_s for b in bm_a]
                if ps.window.start_epoch_s not in starts:
                    continue
                bi = starts.index(ps.window.start_epoch_s)
                horizon = build_dual_horizon(ps.window, bm_a[bi].window)
                scheds = ts3_dual(horizon, dam_f[di], bm_f[bi], pair, carried,
                                  allow_stock_buys=allow_stock)
                result = settle_dual(*scheds, ps, bm_a[bi], carried)
                pf += perfect_foresight_dual(horizon, ps, bm_a[bi], carried,
                                             allow_stock)
                dp += dp_optimal_dual(horizon, ps, bm_a[bi], carried)
                profit += result.cash
                trades += sum(s.trade_count for s in scheds)
                schedules.extend(scheds)
                finals.append(result.final_charge)
                if carry:
                    carried = spec.replace(initial_charge=result.final_charge)
        else:
            fn = {"TS1": ts1, "TS2": ts2, "TS3": ts3}[strategy]
            kwargs = {"allow_stock_buys": allow_stock} if strategy == "TS3" else {}
            for ps, fc in zip(*loaded[market]):
                sched = fn(fc, pair, carried, **kwargs)
                result = settle(sched, ps, carried)
                pf += perfect_foresight(ps, carried, strategy, allow_stock)
                dp += dp_optimal(ps, carried)
                profit += result.cash
                trades += sched.trade_count
                schedules.append(sched)
                finals.append(result.final_charge)
                if carry:
                    carried = spec.replace(initial_charge=result.final_charge)
        line = (f"profit={format_money(profit)} trades={trades} "
                f"pf={format_money(pf)} dp={format_money(dp)}\n")
        return line, [schedule_to_dict(s, spec) for s in schedules], finals

    @pytest.mark.parametrize(
        "market,strategy,carry,allow_stock",
        [
            ("dam", "TS1", False, False),
            ("dam", "TS1", True, False),
            ("dam", "TS3", False, False),
            ("dam", "TS3", True, False),
            ("bm", "TS2", False, False),
            ("bm", "TS3", True, False),
            ("dual", "TS3", False, False),
            ("dual", "TS3", True, False),
            ("bm", "TS3", True, True),
        ],
    )
    def test_matches_public_functions(self, setup, tmp_path, capsys, market,
                                      strategy, carry, allow_stock):
        data, battery = setup
        spec = BatterySpec.from_json_file(battery)
        pair = QuantilePair.parse("0.3:0.7")
        out = tmp_path / "bt"
        argv = ["backtest", "--market", market, "--strategy", strategy,
                "--pair", "0.3:0.7", "--battery", str(battery), "--out", str(out)]
        for name in ("dam", "bm"):
            argv += [f"--{name}-actuals", str(data / f"{name}_actuals.csv"),
                     f"--{name}-forecast", str(data / f"{name}_forecast.csv")]
        if carry:
            argv.append("--carry-state")
        if allow_stock:
            argv.append("--allow-stock-buys")
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        line, docs, finals = self.expected(
            data, spec, market, strategy, pair, carry, allow_stock
        )
        assert stdout == line
        assert json.loads((out / "schedules.json").read_text()) == docs
        names = sorted(p.name for p in out.glob("schedule_*.csv"))
        assert names == sorted(
            f"schedule_{d['market'].lower()}_{i:03d}.csv" for i, d in enumerate(docs)
        )
        assert len(docs) == {"dam": 2, "bm": 6, "dual": 4}[market]
        if carry and strategy == "TS3":
            # TS1 and TS2 end each window where they began; TS3 sells stock,
            # so its carried charge leaves the spec's start and carrying shows
            assert any(c != spec.initial_charge for c in finals[:-1])


class TestSweep:
    def sweep(self, capsys, data_dir, out, *extra):
        return run(
            capsys, "sweep",
            "--dam-actuals", str(data_dir / "dam_actuals.csv"),
            "--dam-forecast", str(data_dir / "dam_forecast.csv"),
            "--bm-actuals", str(data_dir / "bm_actuals.csv"),
            "--bm-forecast", str(data_dir / "bm_forecast.csv"),
            "--out", str(out), *extra,
        )

    def test_default_grid(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sw"
        code, stdout, _ = self.sweep(capsys, data_dir, out)
        assert code == 0
        # 3 day-ahead blocks + balancing + joint, 7 pairs and an average each
        assert stdout == f"rows=40 out={out}\n"
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "market,strategy,pair,profit_eur,trades,pf_eur,dp_eur,windows"
        assert len(lines) == 41
        plot = (out / "plot.csv").read_text().splitlines()
        assert plot[0] == "market,strategy,pair,mean_eur,min_eur,max_eur"

    def test_restricted_grid_without_averages(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sw"
        code, stdout, _ = self.sweep(
            capsys, data_dir, out,
            "--pairs", "0.5:0.5,0.3:0.7", "--strategies", "TS3", "--no-average",
        )
        assert code == 0
        assert stdout.startswith("rows=6 ")  # 2 pairs in each of 3 blocks

    def test_json_format(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sw"
        code, _, _ = self.sweep(capsys, data_dir, out, "--format", "json")
        assert code == 0
        assert not (out / "report.csv").exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc[0]["market"] == "DAM"
        assert (out / "plot.csv").exists()

    def test_parallel_output_is_byte_identical(self, data_dir, tmp_path, capsys):
        serial, parallel = tmp_path / "s1", tmp_path / "s2"
        assert self.sweep(capsys, data_dir, serial, "--jobs", "1")[0] == 0
        assert self.sweep(capsys, data_dir, parallel, "--jobs", "2")[0] == 0
        assert (serial / "report.csv").read_bytes() == (
            parallel / "report.csv"
        ).read_bytes()
        assert (serial / "plot.csv").read_bytes() == (
            parallel / "plot.csv"
        ).read_bytes()

    def test_needs_out_dir(self, data_dir, capsys):
        code, _, err = run(
            capsys, "sweep",
            "--dam-actuals", str(data_dir / "dam_actuals.csv"),
            "--dam-forecast", str(data_dir / "dam_forecast.csv"),
        )
        assert code == 2
        assert "--out" in stderr_error(err)["message"]

    def test_bm_files_travel_together(self, data_dir, tmp_path, capsys):
        code, _, err = run(
            capsys, "sweep",
            "--dam-actuals", str(data_dir / "dam_actuals.csv"),
            "--dam-forecast", str(data_dir / "dam_forecast.csv"),
            "--bm-actuals", str(data_dir / "bm_actuals.csv"),
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "--bm-forecast" in stderr_error(err)["message"]

    @pytest.mark.parametrize("option,items,repeated", [
        ("--pairs", "0.5:0.5,0.5:0.5,0.1:0.9", "pair 0.5:0.5"),
        ("--pairs", "1/3:1/2,0.1:0.9,1/3:0.5", "pair 1/3:0.5"),
        ("--strategies", "ts1,TS1", "strategy TS1"),
    ])
    def test_repeated_pair_or_strategy(self, data_dir, tmp_path, capsys, option, items,
                                       repeated):
        out = tmp_path / "x"
        code, _, err = self.sweep(capsys, data_dir, out, option, items)
        assert code == 2
        assert stderr_error(err) == {
            "error": "ConfigError", "message": f"sweep repeats {repeated}"
        }
        assert not (out / "report.csv").exists()

    def test_jobs_must_be_positive(self, data_dir, tmp_path, capsys):
        code, *_ = self.sweep(capsys, data_dir, tmp_path / "x", "--jobs", "0")
        assert code == 2

    def test_ramp_above_the_span_sweeps_as_the_span(self, data_dir, tmp_path, capsys):
        # no leg moves more than the 1 MWh span: a 5 MWh ramp trades, settles
        # and bounds as a 1 MWh one does
        for ramp, jobs in (("1", "1"), ("5", "2")):
            battery = tmp_path / f"ramp{ramp}.json"
            battery.write_text(
                f'{{"capacity_mwh": "1", "ramp_mwh_per_period": "{ramp}"}}\n'
            )
            code, _, err = self.sweep(capsys, data_dir, tmp_path / ramp,
                                      "--battery", str(battery), "--jobs", jobs)
            assert (code, err) == (0, "")
        for name in ("report.csv", "plot.csv"):
            assert (tmp_path / "5" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()

    def test_lane_error_does_not_depend_on_jobs(self, data_dir, tmp_path, capsys):
        battery = tmp_path / "battery.json"
        battery.write_text('{"capacity_mwh": "1", "ramp_mwh_per_period": "0.3"}\n')
        results = {
            self.sweep(capsys, data_dir, tmp_path / jobs, "--jobs", jobs,
                       "--battery", str(battery))
            for jobs in ("1", "2", "3")
        }
        ((code, out, err),) = results
        assert (code, out) == (2, "")
        assert stderr_error(err)["error"] == "NonCommensurateRamp"
        assert multiprocessing.active_children() == []

    def test_lane_that_dies_is_one_json_error(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        parent, run_item = os.getpid(), evaluation._run_item

        def dies_in_child(payload, item):
            if os.getpid() != parent:
                os._exit(9)
            return run_item(payload, item)

        monkeypatch.setattr(evaluation, "_run_item", dies_in_child)
        code, out, err = self.sweep(capsys, data_dir, tmp_path / "x", "--jobs", "2")
        assert (code, out) == (3, "")
        doc = stderr_error(err)  # exactly one JSON object, no traceback
        assert doc["error"] == "BessArbError"
        assert "exit code 9" in doc["message"]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the platform cannot fork")
    def test_lanes_fork_when_the_default_is_spawn(self, data_dir, tmp_path, capsys):
        # A lane that sees _run_item patched after import was forked: a
        # spawned one would import the package again and miss the patch.
        script = """
import multiprocessing, os, sys
multiprocessing.set_start_method("spawn")
from bessarb import cli, evaluation
parent, run_item = os.getpid(), evaluation._run_item
def marked(payload, item):
    if os.getpid() != parent:
        open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    return run_item(payload, item)
evaluation._run_item = marked
sys.exit(cli.main(sys.argv[2:]))
"""
        serial, parallel, lanes = tmp_path / "s1", tmp_path / "s2", tmp_path / "lanes"
        lanes.mkdir()
        assert self.sweep(capsys, data_dir, serial, "--jobs", "1")[0] == 0
        src = str(Path(bessarb.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", script, str(lanes), "sweep",
             *(f"--{m}-{k}={data_dir / f'{m}_{k}.csv'}"
               for m in ("dam", "bm") for k in ("actuals", "forecast")),
             "--out", str(parallel), "--jobs", "2"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert len(list(lanes.iterdir())) == 1  # the one child lane
        for name in ("report.csv", "plot.csv"):
            assert (parallel / name).read_bytes() == (serial / name).read_bytes()


class TestPf:
    def test_benchmarks_line(self, data_dir, capsys):
        code, stdout, _ = run(
            capsys, "pf", "--actuals", str(data_dir / "dam_actuals.csv")
        )
        assert code == 0
        assert re.fullmatch(
            r"pf=(-?\d+\.\d\d) dp=(-?\d+\.\d\d) windows=1\n", stdout
        )

    def test_battery_file_scales_results(self, data_dir, tmp_path, capsys):
        battery = tmp_path / "battery.json"
        battery.write_text('{"capacity_mwh": "2", "ramp_mwh_per_period": "2"}\n')
        _, small, _ = run(
            capsys, "pf", "--actuals", str(data_dir / "dam_actuals.csv")
        )
        _, big, _ = run(
            capsys, "pf", "--actuals", str(data_dir / "dam_actuals.csv"),
            "--battery", str(battery),
        )
        parse = lambda s: {k: v for k, v in (p.split("=") for p in s.split())}
        assert float(parse(big)["dp"]) == pytest.approx(
            2 * float(parse(small)["dp"]), abs=0.02
        )

    def test_ramp_above_the_span_runs(self, data_dir, tmp_path, capsys):
        lines = []
        for ramp in ("1", "5"):
            battery = tmp_path / f"ramp{ramp}.json"
            battery.write_text(
                f'{{"capacity_mwh": "1", "ramp_mwh_per_period": "{ramp}"}}\n'
            )
            code, stdout, _ = run(capsys, "pf", "--actuals", str(data_dir / "bm_actuals.csv"),
                                  "--market", "bm", "--battery", str(battery))
            assert code == 0
            lines.append(stdout)
        assert lines[0] == lines[1]

    def test_missing_actuals(self, capsys):
        code, _, err = run(capsys, "pf")
        assert code == 2
        assert "--actuals" in stderr_error(err)["message"]

    def test_expected_instant_past_the_year_9999(self, tmp_path, capsys):
        path = tmp_path / "late.csv"
        path.write_text("timestamp,price\n" + "".join(
            f"9999-12-31T23:00:{s:02d}Z,1\n" for s in range(24)
        ))
        code, _, err = run(capsys, "pf", "--actuals", str(path))
        assert code == 3
        assert stderr_error(err) == {
            "error": "MissingPeriod",
            "message": f"{path}:3: expected 10000-01-01T00:00:00Z, got 9999-12-31T23:00:01Z",
        }


class TestScore:
    def test_zero_noise_scores_zero(self, tmp_path, capsys):
        out = tmp_path / "clean"
        run(capsys, "gen", "--out", str(out), "--markets", "dam")
        code, stdout, _ = run(
            capsys, "score",
            "--forecast", str(out / "dam_forecast.csv"),
            "--actuals", str(out / "dam_actuals.csv"),
        )
        assert code == 0
        assert stdout == "pinball=0.000000 cells=120\n"

    def test_noise_scores_positive_and_writes_csv(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sc"
        code, stdout, _ = run(
            capsys, "score",
            "--forecast", str(data_dir / "dam_forecast.csv"),
            "--actuals", str(data_dir / "dam_actuals.csv"),
            "--out", str(out),
        )
        assert code == 0
        value = float(stdout.split()[0].split("=")[1])
        assert value > 0
        lines = (out / "score.csv").read_text().splitlines()
        assert lines[0] == "level,mean_pinball"
        assert lines[1].startswith("0.1,")
        assert lines[-1].startswith("all,")

    def test_forecast_without_a_level_column_is_data_error(self, data_dir, tmp_path,
                                                            capsys):
        path = tmp_path / "f.csv"
        path.write_text("timestamp\n2024-01-01T00:00:00Z\n")
        code, _, err = run(capsys, "score", "--forecast", str(path),
                           "--actuals", str(data_dir / "dam_actuals.csv"))
        assert code == 3
        assert stderr_error(err) == {
            "error": "UnknownColumn",
            "message": f"{path}: expected header timestamp,q<level>,...",
        }


class TestWindowMismatch:
    def test_every_command_names_it_by_market(self, tmp_path, capsys):
        """Prices one day long against a 3-day forecast: backtest, sweep and
        score print the same error, which names the report's market."""
        data = tmp_path / "data"
        run(capsys, "gen", "--out", str(data), "--days", "3", "--markets", "dam")
        short = tmp_path / "short.csv"
        short.write_text("".join((data / "dam_actuals.csv").read_text().splitlines(True)[:25]))
        forecast = str(data / "dam_forecast.csv")
        markets = ("--dam-actuals", str(short), "--dam-forecast", forecast)
        for argv in (
            ("backtest", "--market", "dam", *markets),
            ("sweep", *markets, "--out", str(tmp_path / "out")),
            ("score", "--forecast", forecast, "--actuals", str(short)),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, ""), argv
            assert stderr_error(err) == {
                "error": "WindowMismatch",
                "message": "DAM: forecast and price window counts differ",
            }, argv


class TestEcon:
    def test_catalog_asset_projection(self, tmp_path, capsys):
        out = tmp_path / "e"
        code, stdout, _ = run(capsys, "econ", "--asset", "A", "--out", str(out))
        assert code == 0
        assert stdout.startswith("breakeven=12 final=")
        lines = (out / "econ.csv").read_text().splitlines()
        assert lines[0] == "year,cumulative_eur"
        assert len(lines) == 17
        assert lines[1] == "0,-1671000.00"

    def test_unfitted_asset_uses_reference_curve(self, capsys):
        code, stdout, _ = run(capsys, "econ", "--asset", "C")
        assert code == 0
        assert stdout == "breakeven=11 final=1870967.00\n"

    def test_explicit_scenario(self, capsys):
        code, stdout, _ = run(
            capsys, "econ", "--capex", "1671000", "--revenue", "188116",
            "--maintenance", "11000",
        )
        assert code == 0
        assert stdout.startswith("breakeven=12 ")

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "e"
        code, _, _ = run(capsys, "econ", "--asset", "B", "--out", str(out),
                         "--format", "json")
        assert code == 0
        doc = json.loads((out / "econ.json").read_text())
        assert doc["breakeven_year"] == 11
        assert len(doc["cumulative_eur"]) == 16

    def test_unknown_asset(self, capsys):
        code, _, err = run(capsys, "econ", "--asset", "Z")
        assert code == 2
        assert stderr_error(err)["error"] == "ConfigError"

    def test_revenue_required_without_asset(self, capsys):
        code, _, err = run(capsys, "econ")
        assert code == 2
        assert stderr_error(err)["error"] == "MissingRevenueSource"

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("--asset", "A", "--capex", "5"), "--capex"),
            (("--asset", "A", "--maintenance", "1", "--fees", "9"), "--maintenance"),
            (("--asset", "B", "--fees", "9"), "--fees"),
            (("--asset", "D", "--degradation-kind", "linear"), "--degradation-kind"),
            (("--asset", "A", "--degradation-period", "1"), "--degradation-period"),
            (("--asset", "B", "--maintenance-kind", "compound"), "--maintenance-kind"),
            (("--asset", "C", "--capex", "5"), "--capex"),
            # C has no fitted profile, so its curve takes no revenue or years
            (("--asset", "C", "--revenue", "999999999"), "no fitted cost profile"),
            (("--asset", "C", "--years", "3"), "no fitted cost profile"),
        ],
    )
    def test_option_the_asset_does_not_read(self, capsys, argv, named):
        code, out, err = run(capsys, "econ", *argv)
        assert (code, out) == (2, "")
        doc = stderr_error(err)
        assert doc["error"] == "ConfigError"
        assert named in doc["message"]


class TestConfigFile:
    def test_defaults_with_cli_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"days": 3, "markets": "dam",
                                   "out": str(tmp_path / "from_cfg")}))
        code, stdout, _ = run(capsys, "gen", "--config", str(cfg))
        assert code == 0
        assert "days=3" in stdout and "dam_windows=3" in stdout
        code, stdout, _ = run(capsys, "gen", "--config", str(cfg), "--days", "1")
        assert code == 0
        assert "days=1" in stdout

    def test_null_leaves_the_default(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": None, "days": 1, "out": str(tmp_path / "cfg")}))
        assert run(capsys, "gen", "--config", str(cfg))[0] == 0
        assert run(capsys, "gen", "--days", "1", "--out", str(tmp_path / "plain"))[0] == 0
        for name in ("dam_actuals.csv", "bm_forecast.csv"):
            plain = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "cfg" / name).read_bytes() == plain

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"dayz": 3}')
        code, _, err = run(capsys, "gen", "--config", str(cfg))
        assert code == 2
        assert "dayz" in stderr_error(err)["message"]

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_malformed_config(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _, err = run(capsys, "gen", "--config", str(cfg))
        assert code == 2
        assert stderr_error(err)["error"] == "ConfigError"


class TestBadOptionValues:
    """Values of the wrong kind end in exit 2 and one JSON ConfigError."""

    def config_error(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        doc = stderr_error(err)
        assert doc["error"] == "ConfigError"
        return doc["message"]

    def config(self, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        return str(cfg)

    def test_non_numeric_noise_sd(self, tmp_path, capsys):
        message = self.config_error(
            capsys, "gen", "--noise-sd", "abc", "--out", str(tmp_path / "x")
        )
        assert "--noise-sd" in message

    def test_non_numeric_days_in_config(self, tmp_path, capsys):
        cfg = self.config(tmp_path, {"days": "x"})
        message = self.config_error(
            capsys, "gen", "--config", cfg, "--out", str(tmp_path / "x")
        )
        assert "--days" in message

    def test_non_numeric_jobs_in_config(self, data_dir, tmp_path, capsys):
        cfg = self.config(tmp_path, {"jobs": "two"})
        message = self.config_error(
            capsys, "sweep", "--config", cfg, "--out", str(tmp_path / "x"),
            "--dam-actuals", str(data_dir / "dam_actuals.csv"),
            "--dam-forecast", str(data_dir / "dam_forecast.csv"),
        )
        assert "--jobs" in message

    @pytest.mark.parametrize(
        "command, option, doc, key",
        [
            *(
                pytest.param(
                    "pf", "--battery",
                    {"capacity_mwh": "1", "ramp_mwh_per_period": value},
                    "ramp_mwh_per_period", id=f"battery-ramp-{value!r}",
                )
                for value in ("abc", "nan", "1/0", None, [1], True, "0.0001")
            ),
            pytest.param(
                "pf", "--battery",
                {"capacity_mwh": "1", "ramp_mwh_per_period": "1", "charge_eff": "x"},
                "charge_eff", id="battery-charge-eff",
            ),
            *(
                pytest.param("pf", "--config", {key: value}, flag,
                             id=f"config-{key}-{value!r}")
                for key, flag, value in (
                    ("battery", "--battery", 5),
                    ("battery", "--battery", ["b.json"]),
                    ("actuals", "--actuals", 5),
                    ("forecast", "--forecast", 5),
                    ("dam_actuals", "--dam-actuals", 5),
                    ("dam_forecast", "--dam-forecast", 5),
                    ("bm_actuals", "--bm-actuals", 5),
                    ("bm_forecast", "--bm-forecast", 5),
                    ("out", "--out", True),
                )
            ),
            *(
                pytest.param(command, "--config", {key: value}, flag,
                             id=f"{command}-config-{key}-{value!r}")
                for command, key, flag, value in (
                    ("gen", "out", "--out", 5),
                    ("backtest", "allow_stock_buys", "--allow-stock-buys", "false"),
                    ("sweep", "allow_stock_buys", "--allow-stock-buys", 1),
                    ("sweep", "out_format", "--format", "xml"),
                    ("sweep", "pairs", "--pairs", [0.5]),
                )
            ),
        ],
    )
    def test_bad_json_value_names_its_key(
        self, data_dir, tmp_path, capsys, command, option, doc, key
    ):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        actuals = ("--actuals", str(data_dir / "dam_actuals.csv"))
        message = self.config_error(
            capsys, command, option, str(path), *(actuals if command == "pf" else ()),
        )
        assert key in message

    @pytest.mark.parametrize(
        "command, flag, key, value",
        [
            ("sweep", "--format", "out_format", "xml"),
            ("backtest", "--strategy", "strategy", "TS9"),
            ("score", "--market", "market", "DAM"),
            ("gen", "--days", "days", "x"),
            ("gen", "--levels", "levels", "0.5,abc"),
            ("econ", "--fees", "fees", "1/0"),
            ("backtest", "--pair", "pair", "highlow"),
            ("sweep", "--pairs", "pairs", "0.5:0.5,0.9"),
        ],
    )
    def test_config_value_fails_as_its_flag_does(
        self, tmp_path, capsys, monkeypatch, command, flag, key, value
    ):
        monkeypatch.chdir(tmp_path)
        cfg = self.config(tmp_path, {key: value})
        from_config = run(capsys, command, "--config", cfg)
        from_flag = run(capsys, command, flag, value)
        assert from_flag[:2] == (2, "")
        stderr_error(from_flag[2])
        assert from_config == from_flag

    def test_unknown_market_in_config(self, data_dir, tmp_path, capsys):
        cfg = self.config(tmp_path, {"market": "xyz"})
        message = self.config_error(
            capsys, "pf", "--config", cfg,
            "--actuals", str(data_dir / "dam_actuals.csv"),
        )
        assert "xyz" in message


class TestUsageErrors:
    """Bad values of typed options and usage errors print one JSON object."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("gen", "--seed", "x"), "--seed"),
            (("gen", "--days", "x"), "--days"),
            (("sweep", "--jobs", "x", "--dam-actuals", "a", "--dam-forecast", "f",
              "--out", "o"), "--jobs"),
            (("econ", "--asset", "A", "--years", "x"), "--years"),
            (("econ", "--revenue", "1", "--capex", "1", "--maintenance", "1",
              "--degradation-period", "x"), "--degradation-period"),
        ],
    )
    def test_non_integer_option(self, tmp_path, capsys, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        doc = stderr_error(err)  # exactly one JSON object
        assert doc["error"] == "ConfigError"
        assert flag in doc["message"]

    @pytest.mark.parametrize(
        "argv",
        [("gen", "--format", "xml"), ("gen", "--bogus"), ("nosuch",), ()],
    )
    def test_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert stderr_error(err)["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("backtest", "--pair", "highlow"), "--pair"),
            (("backtest", "--pair", "0.9:0.1"), "--pair"),
            (("sweep", "--pairs", "0.5:0.5,bad", "--out", "o"), "--pairs"),
        ],
    )
    def test_bad_pair_names_its_flag(self, tmp_path, capsys, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        doc = stderr_error(err)
        assert doc["error"] == "InvalidPair"
        assert doc["message"].startswith(f"argument {flag}: ")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("pf", "--out", "x"), "--out"),
            (("pf", "--jobs", "2"), "--jobs"),
            (("gen", "--battery", "b.json"), "--battery"),
            (("pf", "--config", {"out": "x"}), "--out"),
            (("pf", "--config", {"jobs": "2"}), "--jobs"),
            (("gen", "--config", {"battery": "b.json"}), "--battery"),
            (("pf", "--config", {"out_format": "json"}), "(--format)"),
        ],
    )
    def test_common_option_the_command_does_not_read(
        self, tmp_path, tmp_path_factory, capsys, monkeypatch, argv, option
    ):
        monkeypatch.chdir(tmp_path)
        if isinstance(argv[-1], dict):  # config form; the file lives elsewhere
            cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
            cfg.write_text(json.dumps(argv[-1]))
            argv = (*argv[:-1], str(cfg))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        doc = stderr_error(err)
        assert doc["error"] == "ConfigError"
        assert option in doc["message"]
        assert list(tmp_path.iterdir()) == []


class TestNumberBound:
    """A number beyond the bound of _numeric.parse_number exits 2 at once."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("econ", "--capex", "1e5000", "--revenue", "1", "--maintenance", "1"),
             "--capex"),
            (("gen", "--noise-sd", "1e400"), "--noise-sd"),
            (("gen", "--levels", "0.5,1e-10000000"), "--levels"),
            (("backtest", "--pair", "1e10000000:0.5"), "1e10000000:0.5"),
        ],
    )
    def test_option(self, tmp_path, capsys, monkeypatch, argv, named):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        message = stderr_error(err)["message"]
        assert named in message and "at most 100 digits" in message
        assert list(tmp_path.iterdir()) == []

    def test_battery_file(self, data_dir, tmp_path, capsys):
        battery = tmp_path / "battery.json"
        battery.write_text('{"capacity_mwh": "1e10000000", "ramp_mwh_per_period": "1"}')
        code, out, err = run(capsys, "pf", "--battery", str(battery),
                             "--actuals", str(data_dir / "dam_actuals.csv"))
        assert (code, out) == (2, "")
        doc = stderr_error(err)
        assert doc["error"] == "ConfigError"
        assert "capacity_mwh" in doc["message"]


    @pytest.mark.parametrize("cell", ["1e10000000", "+" + "1" * 101, "1" * 5000])
    def test_csv_cell(self, data_dir, tmp_path, capsys, cell):
        lines = (data_dir / "dam_actuals.csv").read_text().splitlines()
        stamp = lines[3].split(",")[0]
        lines[3] = f"{stamp},{cell}"
        actuals = tmp_path / "actuals.csv"
        actuals.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "pf", "--actuals", str(actuals))
        assert (code, out) == (3, "")
        doc = stderr_error(err)
        assert doc["error"] == "MalformedRow"
        assert doc["message"].startswith("line 4: ")


class TestCountBound:
    """A count that sizes a run has an upper bound, named in its error."""

    ECON = ("econ", "--capex", "1", "--revenue", "1", "--maintenance", "1")

    @pytest.mark.parametrize(
        "argv, flag, most",
        [
            (("gen", "--days", "3661"), "--days", 3660),
            ((*ECON, "--years", "100000000"), "--years", 1000),
            ((*ECON, "--degradation-period", "1001"), "--degradation-period", 1000),
            ((*ECON, "--years", "0"), "--years", 1000),
        ],
    )
    def test_outside_the_bound(self, tmp_path, capsys, monkeypatch, argv, flag, most):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert stderr_error(err) == {"error": "ConfigError",
                                     "message": f"{flag} takes 1 to {most}"}
        assert list(tmp_path.iterdir()) == []

    def test_config_value_above_the_bound(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"days": 3661}))
        code, _, err = run(capsys, "gen", "--config", str(cfg))
        assert code == 2
        assert stderr_error(err)["message"] == "--days takes 1 to 3660"

    def test_at_the_bound(self, capsys):
        code, out, _ = run(capsys, *self.ECON, "--years", "1000",
                           "--degradation-period", "1000")
        assert code == 0 and out.startswith("breakeven=")


class TestEconMoneyValues:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("--capex", "abc", "--revenue", "1", "--maintenance", "1"), "--capex"),
            (("--capex", "1", "--revenue", "x", "--maintenance", "1"), "--revenue"),
            (("--asset", "A", "--revenue", "x"), "--revenue"),
            (("--capex", "1", "--revenue", "1", "--maintenance", "m"), "--maintenance"),
            (("--capex", "1", "--revenue", "1", "--maintenance", "1", "--fees", "1/0"),
             "--fees"),
        ],
    )
    def test_non_numeric_money_value(self, capsys, argv, flag):
        code, _, err = run(capsys, "econ", *argv)
        assert code == 2
        doc = stderr_error(err)
        assert doc["error"] == "ConfigError"
        assert flag in doc["message"]

    def test_non_numeric_money_value_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"capex": "lots", "revenue": 1, "maintenance": 1}))
        code, _, err = run(capsys, "econ", "--config", str(cfg))
        assert code == 2
        assert "--capex" in stderr_error(err)["message"]

    def test_numeric_money_values_still_project(self, capsys):
        code, out, _ = run(capsys, "econ", "--capex", "1000", "--revenue", "500.5",
                           "--maintenance", "10", "--fees", "0", "--years", "3")
        assert code == 0
        assert out.startswith("breakeven=3 ")


class TestNonUtf8Input:
    BAD = b"\xff\xfetimestamp,price\n"

    def test_price_csv_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_bytes(self.BAD)
        code, _, err = run(capsys, "pf", "--actuals", str(path))
        assert code == 3
        doc = stderr_error(err)
        assert doc["error"] == "MalformedRow"
        assert "line 1" in doc["message"]

    def test_forecast_csv_is_data_error(self, data_dir, tmp_path, capsys):
        path = tmp_path / "f.csv"
        good = (data_dir / "dam_forecast.csv").read_bytes()
        lines = good.split(b"\n")
        lines[3] = lines[3].replace(b",", b",\xe9", 1)
        path.write_bytes(b"\n".join(lines))
        code, _, err = run(capsys, "score", "--forecast", str(path),
                           "--actuals", str(data_dir / "dam_actuals.csv"))
        assert code == 3
        doc = stderr_error(err)
        assert doc["error"] == "MalformedRow"
        assert "line 4" in doc["message"]

    @pytest.mark.parametrize("option", ["--config", "--battery"])
    def test_json_file_is_config_error(self, data_dir, tmp_path, capsys, option):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"capacity_mwh": "1"}\xff')
        code, _, err = run(capsys, "pf", option, str(path),
                           "--actuals", str(data_dir / "dam_actuals.csv"))
        assert code == 2
        assert stderr_error(err)["error"] == "ConfigError"


class TestConfigLists:
    """JSON lists in a config file mean the same as comma-separated strings."""

    def _run_with(self, capsys, tmp_path, name, command, doc, *argv):
        cfg = tmp_path / f"{name}.json"
        out = tmp_path / name
        cfg.write_text(json.dumps(dict(doc, out=str(out))))
        code, _, err = run(capsys, command, "--config", str(cfg), *argv)
        assert code == 0, err
        return out

    def test_sweep_list_config_matches_comma_string(self, data_dir, tmp_path, capsys):
        files = (
            "--dam-actuals", str(data_dir / "dam_actuals.csv"),
            "--dam-forecast", str(data_dir / "dam_forecast.csv"),
            "--bm-actuals", str(data_dir / "bm_actuals.csv"),
            "--bm-forecast", str(data_dir / "bm_forecast.csv"),
        )
        listed = self._run_with(capsys, tmp_path, "listed", "sweep", {
            "pairs": ["0.1:0.9", " 0.3:0.7"], "strategies": ["TS1", "ts3"],
        }, *files)
        joined = self._run_with(capsys, tmp_path, "joined", "sweep", {
            "pairs": "0.1:0.9, 0.3:0.7", "strategies": "TS1,ts3",
        }, *files)
        report = (listed / "report.csv").read_bytes()
        assert report == (joined / "report.csv").read_bytes()
        assert report.count(b"\nDAM,TS1,") == 3  # two pairs and the average

    def test_gen_list_config_matches_comma_string(self, tmp_path, capsys):
        listed = self._run_with(capsys, tmp_path, "listed", "gen", {
            "levels": [0.2, "0.5", 0.8], "markets": ["dam"],
        })
        joined = self._run_with(capsys, tmp_path, "joined", "gen", {
            "levels": "0.2,0.5,0.8", "markets": "dam",
        })
        assert sorted(p.name for p in listed.iterdir()) == [
            "dam_actuals.csv", "dam_forecast.csv",
        ]
        for name in ("dam_actuals.csv", "dam_forecast.csv"):
            assert (listed / name).read_bytes() == (joined / name).read_bytes()

    @pytest.mark.parametrize("doc", [{"markets": []}, {"levels": ["0.5", "abc"]}])
    def test_bad_lists_are_config_errors(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(capsys, "gen", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert code == 2
        assert stderr_error(err)["error"] == "ConfigError"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


# --- the exit contract for any input ----------------------------------------

_LATE_PRICES = ("timestamp,price\n" + "".join(
    f"9999-12-31T23:00:{s:02d}Z,1\n" for s in range(24)
)).encode()

# One day-ahead window with a level, 1/3, that has no decimal form.  Hour 2
# is priced 1/3 at every level, so the median pair buys there.
_THIRDS_PRICES = ("timestamp,price\n" + "".join(
    f"2024-01-01T{h:02d}:00:00Z,{40 + h}\n" for h in range(24)
)).encode()
_THIRDS_FORECAST = ("timestamp,q10,q100/3,q50,q90\n" + "".join(
    f"2024-01-01T{h:02d}:00:00Z," + (",".join(["1/3"] * 4) if h == 2 else
                                     f"{38 + h}.25,{39 + h}.5,{40 + h}.5,{42 + h}.75") + "\n"
    for h in range(24)
)).encode()
_THIRDS_MARKET = ["--dam-actuals", "{prices}", "--dam-forecast", "{forecast}"]

# Option values: the input files, a missing one and the out directory by
# placeholder, then text both good and bad.  No count exceeds 2, so no run
# starts more than one lane or generates more than two days.
_VALUES = (
    "{prices}", "{forecast}", "{config}", "{battery}", "{missing}", "{out}",
    "{dam_actuals}", "{dam_forecast}", "{bm_actuals}", "{bm_forecast}",
    "-1", "0", "1", "2", "0.5", "1e3", "1e999", "x", "", "dam", "bm", "dual",
    "dam,bm", "TS1", "ts3", "TS2,TS3", "0.3:0.7", "0.7:0.3", "0.1:0.3,0.5:0.9",
    "highlow", "0.1,0.5,0.9", "json", "A", "C", "linear", "compound",
    "2024-01-01T00:00:00Z", "9999-12-31T00:00:00Z", "0001-01-01T00:00:00Z",
)
_FILES = "{dam_actuals} {dam_forecast} {bm_actuals} {bm_forecast}".split()
# Whole runs that reach the work, so drawn options can bend them.
_BASES = (
    (),
    ("gen", "--out", "{out}"),
    ("backtest", "--dam-actuals", "{prices}", "--dam-forecast", "{forecast}"),
    ("backtest", "--dam-actuals", _FILES[0], "--dam-forecast", _FILES[1]),
    ("backtest", "--market", "dual", "--dam-actuals", _FILES[0],
     "--dam-forecast", _FILES[1], "--bm-actuals", _FILES[2], "--bm-forecast", _FILES[3]),
    ("sweep", "--out", "{out}", "--dam-actuals", _FILES[0], "--dam-forecast", _FILES[1],
     "--bm-actuals", "{prices}", "--bm-forecast", "{forecast}"),
    ("pf", "--actuals", "{prices}"),
    ("score", "--forecast", "{forecast}", "--actuals", "{prices}"),
    ("econ", "--asset", "A"),
    ("econ", "--revenue", "1", "--capex", "1", "--maintenance", "1"),
    ("nosuch",),
)


def _options():
    """Whether each option flag takes a value, the flags of each subcommand,
    and every config key."""
    parsers = cli._build_parser()[1]
    takes, flags = {"--nosuch": True}, {}
    for name, parser in parsers.items():
        actions = [a for a in parser._actions if a.option_strings]
        takes.update((a.option_strings[-1], a.nargs != 0) for a in actions)
        flags[name] = sorted(a.option_strings[-1] for a in actions) + ["--nosuch"]
    keys = {a.dest for p in parsers.values() for a in p._actions}
    return takes, flags, sorted(keys) + ["nosuch"]


_TAKES_VALUE, _COMMAND_FLAGS, _KEYS = _options()


@st.composite
def _csv(draw, header):
    """A timestamped CSV, its cells and times drawn from good and bad ones."""
    start = draw(st.sampled_from(["2024-01-01T00:00:00Z", "9999-12-31T22:00:00Z"]))
    step = draw(st.sampled_from([3600, 1800, 1]))
    cells = st.sampled_from(["1", "-2.5", "40.75", "0", "1e3", "x", "", "1/3", "9" * 120])
    lines = [header]
    for i in range(draw(st.integers(min_value=0, max_value=30))):
        stamp = format_timestamp(parse_timestamp(start) + i * step)
        lines.append(",".join([stamp] + [draw(cells) for _ in header.split(",")[1:]]))
    text = "\n".join(lines) + "\n"
    return draw(st.one_of(st.just(text.encode()), st.binary(max_size=40)))


_json_values = st.one_of(
    st.sampled_from(_VALUES), st.integers(min_value=-1, max_value=2),
    st.sampled_from([0.5, 1e300, True, False, None]),
    st.lists(st.sampled_from(_VALUES), max_size=3),
)
_configs = st.one_of(
    st.dictionaries(st.sampled_from(_KEYS), _json_values, max_size=4).map(json.dumps),
    st.binary(max_size=20).map(lambda b: b.decode("latin-1")),
)
_batteries = st.one_of(
    st.dictionaries(
        st.sampled_from(["capacity_mwh", "ramp_mwh_per_period", "min_charge_mwh",
                         "charge_eff", "discharge_eff", "initial_charge_mwh", "x"]),
        st.sampled_from(["2", "1", "0.5", "0.3", "0.125", "0", "-1", "x", 1, 0.98, None]),
        max_size=6,
    ).map(json.dumps),
    st.sampled_from(["", "[]", "{"]),
)


@st.composite
def _argvs(draw):
    """A base run and up to four options: its subcommand's own, or any."""
    base = draw(st.sampled_from(_BASES))
    flags = _COMMAND_FLAGS.get(base[0] if base else None, sorted(_TAKES_VALUE))
    argv = list(base)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        flag = draw(st.sampled_from(flags))
        argv += [flag, draw(st.sampled_from(_VALUES))] if _TAKES_VALUE[flag] else [flag]
    return argv


def _fill(text, paths):
    """text with each {name} placeholder replaced by its path."""
    for name, path in paths.items():
        text = text.replace("{" + name + "}", path)
    return text


class TestExitContract:
    """Any argv, config file and CSV bytes end in exit 0, 2 or 3, with at
    most one JSON object on stderr and no traceback (README: exit codes)."""

    @pytest.fixture(scope="class")
    def good(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("good")
        assert main(["gen", "--out", str(out), "--noise-sd", "3"]) == 0
        return out

    @given(argv=_argvs(), prices=_csv("timestamp,price"),
           forecast=_csv("timestamp,q10,q50,q90"), config=_configs, battery=_batteries)
    @example(argv=["gen", "--start", "9999-12-31T00:00:00Z", "--days", "2",
                   "--out", "{out}"], prices=b"", forecast=b"", config="", battery="")
    @example(argv=["pf", "--actuals", "{prices}"], prices=_LATE_PRICES,
             forecast=b"", config="", battery="")
    @example(argv=["gen", "--levels", "1/3,1/2", "--out", "{out}"], prices=b"",
             forecast=b"", config="", battery="")
    @example(argv=["backtest", "--dam-actuals", "{dam_actuals}", "--dam-forecast",
                   "{dam_forecast}", "--battery", "{battery}", "--out", "{out}"],
             prices=b"", forecast=b"", config="",
             battery='{"capacity_mwh": "1", "ramp_mwh_per_period": "1", "charge_eff": "1/3"}')
    @example(argv=["score", "--forecast", "{forecast}", "--actuals", "{prices}",
                   "--out", "{out}"],
             prices=_THIRDS_PRICES, forecast=_THIRDS_FORECAST, config="", battery="")
    @example(argv=["sweep", "--pairs", "1/3:1/2", *_THIRDS_MARKET, "--out", "{out}"],
             prices=_THIRDS_PRICES, forecast=_THIRDS_FORECAST, config="", battery="")
    @example(argv=["backtest", "--pair", "1/3:1/2", *_THIRDS_MARKET, "--out", "{out}"],
             prices=_THIRDS_PRICES, forecast=_THIRDS_FORECAST, config="", battery="")
    @example(argv=["backtest", *_THIRDS_MARKET, "--out", "{out}"],
             prices=_THIRDS_PRICES, forecast=_THIRDS_FORECAST, config="", battery="")
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_input(self, good, tmp_path, monkeypatch, argv, prices, forecast,
                       config, battery):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        monkeypatch.chdir(work)  # gen without --out writes here
        paths = {name: str(good / f"{name}.csv") for name in
                 ("dam_actuals", "dam_forecast", "bm_actuals", "bm_forecast")}
        for name in ("out", "missing.csv", "prices.csv", "forecast.csv",
                     "config.json", "battery.json"):
            paths[name.partition(".")[0]] = str(work / name)
        Path(paths["prices"]).write_bytes(prices)
        Path(paths["forecast"]).write_bytes(forecast)
        Path(paths["config"]).write_text(_fill(config, paths), encoding="latin-1")
        Path(paths["battery"]).write_text(_fill(battery, paths), encoding="latin-1")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", IngestWarning)  # plain text, not JSON
            try:
                code = main([_fill(token, paths) for token in argv])
            except SystemExit as exc:  # help and version
                code = exc.code
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        objects = [line for line in err.getvalue().splitlines() if line.startswith("{")]
        assert len(objects) <= 1
        for line in objects:
            assert set(json.loads(line)) == {"error", "message"}

    def test_module_entry_point_without_numpy(self):
        # The command line imports no numpy: numpy's import alone takes
        # longer than the rest of a `bessarb` call's start-up.  `python -m
        # bessarb` keeps the contract: --version exits 0, a usage error 2.
        src = str(Path(bessarb.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

        def python(*args):
            return subprocess.run([sys.executable, *args], capture_output=True,
                                  text=True, env=env, timeout=120)

        done = python("-c", "import sys, bessarb.cli; print('numpy' in sys.modules)")
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")
        done = python("-m", "bessarb", "--version")
        assert (done.returncode, done.stdout, done.stderr) == (0, f"{__version__}\n", "")
        done = python("-m", "bessarb", "nosuch")
        assert (done.returncode, done.stdout) == (2, "")
        (line,) = done.stderr.splitlines()
        assert json.loads(line)["error"] == "ConfigError"

    def test_cold_import_loads_what_a_sweep_runs(self):
        # Every command starts a fresh interpreter, so each module the
        # command line imports but a sweep never calls is start-up a user
        # waits for: the dataclasses machinery, hashlib (for digests),
        # statistics (for gen) and the economics module (for econ).
        src = str(Path(bessarb.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

        def loaded(module):
            code = (f"import sys, {module}; print(sorted(set(sys.modules) & {{'dataclasses',"
                    " 'hashlib', 'statistics', 'bessarb.economics'}))")
            done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=env, timeout=120)
            assert (done.returncode, done.stderr) == (0, "")
            return done.stdout

        assert loaded("bessarb.cli") == "[]\n"
        assert "dataclasses" not in loaded("bessarb.forecasting")
        # the economics names still resolve from the package, on first use
        code = ("import bessarb; from bessarb import load_catalog; "
                "print(all(getattr(bessarb, n) for n in bessarb.__all__), len(load_catalog()))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "True 4\n", "")


# --- one parser per named subcommand ----------------------------------------

class _NoName(dict):
    """The subcommand table, taking no argv[0] for a subcommand name: with it
    `_parse_args` reads every argv with the six-command parser."""

    def __contains__(self, key):
        return False


def _six_command(read):
    """read() with every argv read by the six-command parser."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_COMMANDS", _NoName(cli._COMMANDS))
        return read()


# The config keys of each subcommand.
_COMMAND_KEYS = {
    name: sorted(a.dest for a in parser._actions if a.dest not in ("help", "config"))
    for name, parser in cli._build_parser()[1].items()
}


@st.composite
def _named_runs(draw):
    """argv and a config file's text.  argv is a subcommand name, then up to
    five flags of it (`--help` and `--config` among them) or of any
    subcommand, each with a good or bad value, a missing value, or its value
    after `=`; half the time `--config` and the file go in among them.  The
    config holds keys of the subcommand, or any text."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = draw(st.sampled_from([_COMMAND_FLAGS[command], sorted(_TAKES_VALUE)]))
    argv = [command]
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        flag = draw(st.sampled_from(flags))
        if not _TAKES_VALUE[flag]:
            argv.append(flag)
            continue
        values = ("{config}", "{missing}") if flag == "--config" else _VALUES
        value = draw(st.sampled_from(values))
        form = draw(st.sampled_from(("split", "joined", "bare")))
        argv += {"split": [flag, value], "joined": [f"{flag}={value}"], "bare": [flag]}[form]
    if draw(st.booleans()):
        at = draw(st.integers(min_value=1, max_value=len(argv)))
        argv[at:at] = ["--config", "{config}"]
    own = st.dictionaries(st.sampled_from(_COMMAND_KEYS[command]), _json_values, max_size=2)
    return argv, draw(st.one_of(own.map(json.dumps), _configs))


def _parsed(argv):
    """_parse_args(argv) as main reports it: exit code, stdout, stderr and the
    namespace's repr."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = repr(cli._parse_args(argv))
        except SystemExit as exc:  # help
            code = exc.code
        except (BessArbError, OSError) as exc:
            code = 2 if isinstance(exc, ConfigError) else 3
            cli._print_error(exc)
    return code, out.getvalue(), err.getvalue(), namespace


class TestOneSubcommandParser:
    """argv that starts with a subcommand name is parsed by that subcommand's
    parser alone; it must read argv as the six-command parser does."""

    COMMANDS = ("gen", "backtest", "sweep", "pf", "score", "econ")

    def both(self, read):
        """read() as main parses, then with the six-command parser."""
        return read(), _six_command(read)

    def test_a_named_subcommand_builds_its_parser_alone(self, tmp_path, monkeypatch,
                                                        capsys, data_dir):
        progs = []
        init = cli._Parser.__init__

        def spy(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", spy)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"market": "dam"}))
        actuals = str(data_dir / "dam_actuals.csv")
        for argv in (["pf", "--actuals", actuals],
                     ["pf", "--config", str(cfg), "--actuals", actuals]):
            progs.clear()
            assert run(capsys, *argv)[0] == 0
            assert progs == ["bessarb pf"]
        progs.clear()
        assert outcome(capsys, "--help")[0] == 0
        assert progs == ["bessarb"] + [f"bessarb {c}" for c in self.COMMANDS]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help(self, capsys, command):
        lazy, full = self.both(lambda: outcome(capsys, command, "--help"))
        assert lazy == full
        assert lazy[0] == 0 and lazy[1].startswith(f"usage: bessarb {command} ")

    @pytest.mark.parametrize(
        "argv", [("--help",), ("-h", "pf"), ("--version",), (), ("nosuch",)]
    )
    def test_top_level(self, capsys, argv):
        lazy, full = self.both(lambda: outcome(capsys, *argv))
        assert lazy == full
        assert lazy[0] in (0, 2)

    @pytest.mark.parametrize(
        "argv", [("--bogus", "pf"), ("pf", "--version"), ("pf", "--help", "x"),
                 ("gen", "--days"), ("econ", "--capex")]
    )
    def test_awkward_argv(self, capsys, argv):
        lazy, full = self.both(lambda: outcome(capsys, *argv))
        assert lazy == full

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (("pf",), {"jobs": "2"}),
            (("pf",), {"market": "bm", "battery": "b.json"}),
            (("gen", "--seed", "3"), {"days": 2, "levels": ["0.1", "0.9"]}),
            (("sweep", "--jobs", "1"), {"jobs": 2, "no_average": True}),
            (("econ",), {"capex": "1e201"}),
        ],
    )
    def test_config_tokens(self, tmp_path, argv, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = (argv[0], "--config", str(cfg), *argv[1:])

        def parsed():  # the namespace, or the usage error's text
            try:
                return vars(cli._parse_args(argv))
            except ConfigError as exc:
                return str(exc)

        lazy, full = self.both(parsed)
        assert lazy == full

    @given(run=_named_runs())
    @example(run=(["pf", "--config", "{config}", "--market", "bm"],
                  '{"battery": "b.json", "strategy": "TS1", "market": "dam"}'))
    @example(run=(["sweep", "--jobs", "1", "--config", "{config}"], '{"jobs": 2}'))
    @example(run=(["sweep", "--config", "{missing}"], "{}"))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reads_as_the_six_command_parser(self, tmp_path, run):
        argv, config = run
        paths = {"config": str(tmp_path / "config.json"),
                 "missing": str(tmp_path / "missing.json")}
        Path(paths["config"]).write_text(_fill(config, paths), encoding="latin-1")
        argv = [_fill(token, paths) for token in argv]
        lazy, full = self.both(lambda: _parsed(argv))
        assert lazy == full


class TestFractionText:
    """A level or price without a decimal form is written as a fraction
    (`1/3`), which the readers read back exactly."""

    @pytest.fixture
    def thirds(self, tmp_path):
        (tmp_path / "prices.csv").write_bytes(_THIRDS_PRICES)
        (tmp_path / "forecast.csv").write_bytes(_THIRDS_FORECAST)
        return tmp_path

    @staticmethod
    def _market(thirds):
        return ["--dam-actuals", str(thirds / "prices.csv"),
                "--dam-forecast", str(thirds / "forecast.csv")]

    @staticmethod
    def _read(text):
        return Fraction(*parse_ratio(text))

    def test_score_level_reads_back(self, thirds, capsys):
        code, _, _ = run(capsys, "score", "--forecast", str(thirds / "forecast.csv"),
                         "--actuals", str(thirds / "prices.csv"), "--out", str(thirds / "o"))
        assert code == 0
        levels = [line.split(",")[0]
                  for line in (thirds / "o" / "score.csv").read_text().splitlines()[1:-1]]
        assert levels == ["0.1", "1/3", "0.5", "0.9"]
        assert [self._read(lv) for lv in levels] == [
            Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)]

    def test_report_pair_reads_back(self, thirds, capsys):
        code, _, _ = run(capsys, "sweep", "--pairs", "1/3:1/2", *self._market(thirds),
                         "--out", str(thirds / "o"))
        assert code == 0
        rows = (thirds / "o" / "report.csv").read_text().splitlines()[1:]
        pairs = {row.split(",")[2] for row in rows} - {"average"}
        assert pairs == {"1/3-0.5"}
        sell, buy = pairs.pop().split("-")
        assert (self._read(sell), self._read(buy)) == (Fraction(1, 3), Fraction(1, 2))

    def test_schedule_pair_and_price_read_back(self, thirds, capsys):
        code, _, _ = run(capsys, "backtest", "--pair", "1/3:1/2", *self._market(thirds),
                         "--out", str(thirds / "o"))
        assert code == 0
        (schedule,) = json.loads((thirds / "o" / "schedules.json").read_text())
        sell, buy = schedule["pair"].split("-")
        assert (self._read(sell), self._read(buy)) == (Fraction(1, 3), Fraction(1, 2))
        orders = [(o["period"], o["side"], o["expected_price"]) for o in schedule["orders"]]
        assert orders == [(2, "buy", "1/3"), (23, "sell", "62.5")]
        assert self._read(orders[0][2]) == Fraction(1, 3)
