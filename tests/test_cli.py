"""Command line behavior: wiring, defaults, outputs and exit codes."""

import json
import multiprocessing
import os
import re
from fractions import Fraction

import pytest

from bessarb import __version__, evaluation
from bessarb._numeric import format_money
from bessarb.battery import BatterySpec
from bessarb.cli import main
from bessarb.evaluation import (
    dp_optimal,
    dp_optimal_dual,
    perfect_foresight,
    perfect_foresight_dual,
    settle,
    settle_dual,
)
from bessarb.market import (
    MarketKind,
    build_dual_horizon,
    parse_forecast_csv,
    parse_price_csv,
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
        init = None
        if market == "dual":
            (dam_a, dam_f), (bm_a, bm_f) = loaded["dam"], loaded["bm"]
            for di, ps in enumerate(dam_a):
                starts = [b.window.start_epoch_s for b in bm_a]
                if ps.window.start_epoch_s not in starts:
                    continue
                bi = starts.index(ps.window.start_epoch_s)
                horizon = build_dual_horizon(ps.window, bm_a[bi].window)
                scheds = ts3_dual(horizon, dam_f[di], bm_f[bi], pair, spec,
                                  allow_stock_buys=allow_stock, initial_charge=init)
                result = settle_dual(*scheds, ps, bm_a[bi], spec, init)
                pf += perfect_foresight_dual(horizon, ps, bm_a[bi], spec,
                                             allow_stock, init)
                dp += dp_optimal_dual(horizon, ps, bm_a[bi], spec, init)
                profit += result.cash
                trades += sum(s.trade_count for s in scheds)
                schedules.extend(scheds)
                finals.append(result.final_charge)
                init = result.final_charge if carry else None
        else:
            fn = {"TS1": ts1, "TS2": ts2, "TS3": ts3}[strategy]
            kwargs = {"allow_stock_buys": allow_stock} if strategy == "TS3" else {}
            for ps, fc in zip(*loaded[market]):
                sched = fn(fc, pair, spec, initial_charge=init, **kwargs)
                result = settle(sched, ps, spec, init)
                pf += perfect_foresight(ps, spec, strategy, allow_stock, init)
                dp += dp_optimal(ps, spec, init)
                profit += result.cash
                trades += sched.trade_count
                schedules.append(sched)
                finals.append(result.final_charge)
                init = result.final_charge if carry else None
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

    def test_jobs_must_be_positive(self, data_dir, tmp_path, capsys):
        code, *_ = self.sweep(capsys, data_dir, tmp_path / "x", "--jobs", "0")
        assert code == 2

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

    def test_missing_actuals(self, capsys):
        code, _, err = run(capsys, "pf")
        assert code == 2
        assert "--actuals" in stderr_error(err)["message"]


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
        "option, doc, key",
        [
            *(
                pytest.param(
                    "--battery", {"capacity_mwh": "1", "ramp_mwh_per_period": value},
                    "ramp_mwh_per_period", id=f"battery-ramp-{value!r}",
                )
                for value in ("abc", "nan", "1/0", None, [1], True, "0.0001")
            ),
            pytest.param(
                "--battery",
                {"capacity_mwh": "1", "ramp_mwh_per_period": "1", "charge_eff": "x"},
                "charge_eff", id="battery-charge-eff",
            ),
            *(
                pytest.param("--config", {key: value}, flag,
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
        ],
    )
    def test_bad_json_value_names_its_key(
        self, data_dir, tmp_path, capsys, option, doc, key
    ):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        message = self.config_error(
            capsys, "pf", option, str(path),
            "--actuals", str(data_dir / "dam_actuals.csv"),
        )
        assert key in message

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
        "argv, option",
        [
            (("pf", "--out", "x"), "--out"),
            (("pf", "--jobs", "2"), "--jobs"),
            (("gen", "--battery", "b.json"), "--battery"),
        ],
    )
    def test_common_option_the_command_does_not_read(
        self, tmp_path, capsys, monkeypatch, argv, option
    ):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        doc = stderr_error(err)
        assert doc["error"] == "ConfigError"
        assert option in doc["message"]
        assert list(tmp_path.iterdir()) == []


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
