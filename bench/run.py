"""bessarb benchmark: four workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                 # every workload, untraced then traced
    python3 bench/run.py --smoke         # every workload once on tiny inputs
    python3 bench/run.py --compare A.json B.json

Run it from anywhere inside a checkout: it benchmarks the package under the
checkout's ``src/`` and refuses to run without one.  Inputs come from
``bessarb gen`` with the given seed (untimed set-up).  Operations run one
at a time in a warm worker interpreter (``op.py``), which measures each
one's wall time, CPU and peak memory; their outputs are checked here after
each one.  Set-up is timed in fresh interpreters spread over the run.  Every
time is rescaled by a speed kernel run around it (``speed.py``), so that
other tenants of a shared machine move the result less.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer with ``--trace 1``).  A full record with the environment goes to
``bench/out/``.  See ``bench/README.md`` for what each workload and metric
is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import speed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PINS = BENCH_DIR / "pins.json"
PINNED_SEED = 1
DAY_S = 86400
LEVELS = 5  # `bessarb gen` writes five quantile levels by default
OP_TIMEOUT_S = 60
SETUP_PROBES = 12  # fresh interpreters per run that time set-up, besides the worker

WORKLOADS = {
    "sweep": "main user flow: full sweep over DAM, BM and DAM+BM, every strategy, 7 pairs, --jobs 1",
    "sweep-j2": "same sweep with --jobs 2; the only workload using the process-pool fan-out",
    "pf-deep": "pf on a 10 MWh battery with a 0.01 MWh ramp: DP walks 1000 steps, strategies idle",
    "forecast-score": "features CSV -> walk-forward kNN -> forecast CSV -> score; covers forecasting",
}

# Input sizes.  `smoke` is for the smoke test only and is never pinned
# against the timings of `full`.
PROFILES = {
    "full": {"sweep_days": 3, "pf_days": 1, "fc_days": 30, "fc_train_days": 14,
             "fc_retune_days": 2, "min_ops": 3},
    "smoke": {"sweep_days": 2, "pf_days": 1, "fc_days": 18, "fc_train_days": 14,
              "fc_retune_days": 2, "min_ops": 1},
}
DEEP_BATTERY = {"capacity_mwh": "10", "ramp_mwh_per_period": "0.01"}

# End-to-end metric -> unit.
END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Each metric is the median over the run's samples.  Times are rescaled to
# the speed kernel's reference speed (bench/README.md gives the reasons and
# the measurements); memory is as measured.


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- environment ---------------------------------------------------------------

def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = ROOT / "src" / "bessarb"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit.strip() if commit else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "source_sha256": _source_digest(),
        "loadavg_1m": os.getloadavg()[0],
    }


# Keys that must match before two results are compared.
ENV_KEYS = ("nproc", "cpu_model", "python", "numpy")


# --- set-up ------------------------------------------------------------------

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _bessarb(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-m", "bessarb", *args], cwd=cwd,
                          env=_child_env(), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SetupError(f"bessarb {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def _feature_csv(actuals: Path, features: Path, score_actuals: Path, skip_rows: int) -> None:
    """Hour sin/cos and the price 24 h earlier, from a generated DAM price CSV.

    The first day has no lag, so features start on day two.  The actuals the
    forecasts are scored against start where walk-forward's first test
    window does, `skip_rows` rows after the first feature row.
    """
    header, *rows = actuals.read_text().split()
    prices = [row.split(",") for row in rows]
    lines = ["timestamp,hour_sin,hour_cos,lag24,target"]
    for i in range(24, len(prices)):
        stamp, price = prices[i]
        angle = 2 * math.pi * int(stamp[11:13]) / 24
        lines.append(f"{stamp},{math.sin(angle)!r},{math.cos(angle)!r},{prices[i - 24][1]},{price}")
    features.write_text("\n".join(lines) + "\n")
    score_actuals.write_text("\n".join([header] + rows[24 + skip_rows:]) + "\n")


def _load_pins(profile: str, workload: str, seed: int) -> dict | None:
    """Pinned sha256 digests of inputs and outputs, for the pinned seed only."""
    if seed != PINNED_SEED or not PINS.exists():
        return None
    return json.loads(PINS.read_text()).get(profile, {}).get(workload)


def set_up(workload: str, seed: int, profile: str, work: Path) -> dict:
    """Generate inputs and build the operation request; untimed."""
    sizes = PROFILES[profile]
    data = work / "data"
    data.mkdir(parents=True)
    ctx = {"workload": workload, "work": work, "expect": {}, "setup_misses": [],
           "pins": _load_pins(profile, workload, seed), "modules": ["bessarb.cli"]}
    inputs: dict[str, Path] = {}
    if workload in ("sweep", "sweep-j2"):
        days = sizes["sweep_days"]
        _bessarb(["gen", "--out", str(data), "--days", str(days), "--noise-sd", "3",
                  "--seed", str(seed)], work)
        files = {f"{m}_{k}": data / f"{m}_{k}.csv"
                 for m in ("dam", "bm") for k in ("actuals", "forecast")}
        inputs.update(files)
        sweep_args = ["sweep"] + [a for key, path in files.items()
                                  for a in (f"--{key.replace('_', '-')}", str(path))]
        _bessarb(sweep_args + ["--out", str(work / "ref"), "--jobs", "1"], work)
        for name in ("report.csv", "plot.csv"):
            ctx["expect"][name] = _sha((work / "ref" / name).read_bytes())
        jobs = "2" if workload == "sweep-j2" else "1"
        ctx["request"] = {"kind": "cli",
                          "argv": sweep_args + ["--out", str(work / "op"), "--jobs", jobs]}
        ctx["outputs"] = {name: work / "op" / name for name in ("report.csv", "plot.csv")}
    elif workload == "pf-deep":
        days = sizes["pf_days"]
        _bessarb(["gen", "--out", str(data), "--days", str(days), "--noise-sd", "3",
                  "--seed", str(seed), "--markets", "dam"], work)
        inputs["dam_actuals"] = data / "dam_actuals.csv"
        battery = work / "deep_battery.json"
        battery.write_text(json.dumps(DEEP_BATTERY, sort_keys=True))
        ctx["windows"] = days
        ctx["request"] = {"kind": "cli", "argv": [
            "pf", "--actuals", str(inputs["dam_actuals"]), "--market", "dam",
            "--battery", str(battery)]}
        ctx["outputs"] = {}
    elif workload == "forecast-score":
        days, train = sizes["fc_days"], sizes["fc_train_days"]
        _bessarb(["gen", "--out", str(data), "--days", str(days), "--noise-sd", "3",
                  "--seed", str(seed), "--markets", "dam"], work)
        inputs["dam_actuals"] = data / "dam_actuals.csv"
        inputs["features"] = work / "features.csv"
        inputs["score_actuals"] = work / "score_actuals.csv"
        _feature_csv(inputs["dam_actuals"], inputs["features"], inputs["score_actuals"],
                     skip_rows=train * 24)
        ctx["windows"] = days - 1 - train
        ctx["modules"] = ["bessarb.cli", "bessarb.forecasting"]
        forecast_out = work / "op" / "knn_forecast.csv"
        forecast_out.parent.mkdir()
        ctx["request"] = {
            "kind": "forecast",
            "features": str(inputs["features"]),
            "actuals": str(inputs["score_actuals"]),
            "forecast_out": str(forecast_out),
            "plan": {"train_span_s": train * DAY_S, "test_span_s": DAY_S, "step_s": DAY_S,
                     "retune_every_s": sizes["fc_retune_days"] * DAY_S},
        }
        ctx["outputs"] = {"knn_forecast.csv": forecast_out}
    else:
        raise SetupError(f"unknown workload {workload!r}")
    ctx["input_sha256"] = {name: _sha(path.read_bytes()) for name, path in inputs.items()}
    pins = ctx["pins"]
    if pins is not None:
        for name, digest in ctx["input_sha256"].items():
            if pins["inputs"].get(name) != digest:
                ctx["setup_misses"].append(f"input {name} sha256 differs from the pin")
    return ctx


# --- one operation -------------------------------------------------------------

def _summary_line(stdout: str) -> str:
    lines = stdout.strip().splitlines()
    return lines[-1] if lines else ""


def _fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def _check_report(path: Path) -> list[str]:
    misses = []
    header, *rows = path.read_text().splitlines()
    cols = header.split(",")
    profit, dp = cols.index("profit_eur"), cols.index("dp_eur")
    for row in rows:
        cells = row.split(",")
        if Fraction(cells[profit]) > Fraction(cells[dp]):
            misses.append(f"report row {cells[:3]}: profit_eur {cells[profit]} > dp_eur {cells[dp]}")
    if not rows:
        misses.append("report has no rows")
    return misses


def check(ctx: dict, res: dict) -> list[str]:
    """Every way the operation's outputs can be wrong, as a list of misses."""
    misses = list(ctx["setup_misses"])
    if res["returncode"] != 0:
        misses.append(f"exit code {res['returncode']}")
    if "Traceback" in res["stderr"]:
        misses.append("traceback on stderr")
    if res["returncode"] != 0 or "wall_s" not in res:
        return misses
    if Path(res["package"]) != (ROOT / "src" / "bessarb").resolve():
        misses.append(f"imported bessarb from {res['package']}, not this checkout")
    line = _summary_line(res["stdout"])
    fields = _fields(line)
    digests = {name: _sha(path.read_bytes()) for name, path in ctx["outputs"].items()
               if path.exists()}
    workload = ctx["workload"]
    if workload in ("sweep", "sweep-j2"):
        if not line.startswith("rows="):
            misses.append(f"unexpected summary {line!r}")
        if "report.csv" in digests:
            misses += _check_report(ctx["outputs"]["report.csv"])
    elif workload == "pf-deep":
        digests["pf summary"] = _sha(line.encode())
        try:
            if Fraction(fields["pf"]) > Fraction(fields["dp"]):
                misses.append(f"pf {fields['pf']} exceeds dp {fields['dp']}")
            if int(fields["windows"]) != ctx["windows"]:
                misses.append(f"pf covered {fields['windows']} windows, not {ctx['windows']}")
        except (KeyError, ValueError):
            misses.append(f"unexpected summary {line!r}")
    elif workload == "forecast-score":
        digests["score summary"] = _sha(line.encode())
        want_cells = ctx["windows"] * 24 * LEVELS
        if fields.get("cells") != str(want_cells) or "pinball" not in fields:
            misses.append(f"score summary {line!r}, expected cells={want_cells}")
    for name in ctx["outputs"]:
        if name not in digests:
            misses.append(f"{name} not written")
    for name, digest in digests.items():
        # The first operation fixes what later ones must repeat, unless set-up
        # already made a serial reference.
        want = ctx["expect"].setdefault(name, digest)
        if digest != want:
            misses.append(f"{name} differs from the reference output")
        pins = ctx["pins"]
        if pins is not None and pins["outputs"].get(name) != digest:
            misses.append(f"{name} sha256 differs from the pin")
    return misses


class WorkerError(Exception):
    """A worker died, hung or answered garbage."""


class Worker:
    """One warm ``op.py`` process serving a workload's operations in turn."""

    def __init__(self, ctx: dict, traced: bool):
        work = ctx["work"]
        request = dict(ctx["request"], trace=traced, modules=ctx["modules"],
                       spans_dir=str(work / "spans"))
        path = work / f"request-t{int(traced)}.json"
        path.write_text(json.dumps(request))
        # The worker's own stderr (not an operation's, which it captures)
        # goes to a file, read after each operation for tracebacks.
        self.stderr_path = work / f"worker-t{int(traced)}.stderr"
        self._stderr = self.stderr_path.open("ab")
        self._seen = self.stderr_path.stat().st_size
        started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "op.py"), str(path)], cwd=work,
            env=_child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True)
        try:
            hello = self._answer()
        except WorkerError:
            self.close()
            raise
        # The kernel ran in the new interpreter just after its imports.
        self.setup = {"setup_s": hello["imported_at"] - started,
                      "kernel_wall_s": hello["kernel_wall_s"]}
        self.package = hello["package"]

    def _answer(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], OP_TIMEOUT_S)
        if not ready:
            raise WorkerError(f"no answer within {OP_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited {self.proc.wait()}")
        try:
            return json.loads(line)
        except ValueError:
            raise WorkerError(f"unreadable answer {line[:200]!r}") from None

    def run(self, op_id: str) -> dict:
        try:
            self.proc.stdin.write(op_id + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise WorkerError(f"worker gone: {exc}") from None
        return self._answer()

    def new_stderr(self) -> str:
        with self.stderr_path.open("rb") as fh:
            fh.seek(self._seen)
            text = fh.read().decode(errors="replace")
        self._seen += len(text.encode())
        return text

    def close(self) -> None:
        """End the worker and wait for it; kill it if it does not end."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def run_op(ctx: dict, worker: Worker, op_id: str) -> dict:
    """One operation in a warm worker; returns its costs and misses."""
    try:
        res = worker.run(op_id)
    except WorkerError as exc:
        res = {"returncode": None, "stderr": worker.new_stderr(), "stdout": "",
               "misses": [str(exc)]}
        worker.close()
        return res
    res["returncode"] = res.pop("rc")
    res["stderr"] += worker.new_stderr()
    res["package"] = worker.package
    res["misses"] = check(ctx, res)
    return res


# --- a run ---------------------------------------------------------------------

def _scaled(seconds: float, kernel_s: float) -> float:
    """`seconds` measured while the speed kernel took `kernel_s`, at reference speed."""
    return seconds * speed.REFERENCE_S / kernel_s


def _describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return (f"n={len(values)}; min {min(values):.6g}, median {q[1]:.6g}, "
            f"p75 {q[2]:.6g}, max {max(values):.6g}")


def measure(workload: str, seed: int, seconds: float, trace: bool, profile: str) -> dict:
    """Set up, run operations for `seconds`, check each, and summarise."""
    work = OUT_DIR / f"{workload}-s{seed}-t{int(trace)}-{profile}"
    if work.exists():
        shutil.rmtree(work)
    (work / "spans").mkdir(parents=True)
    ctx = set_up(workload, seed, profile, work)
    min_ops = PROFILES[profile]["min_ops"] * (2 if trace else 1)
    ops: list[dict] = []
    setups: list[dict] = []
    workers: dict[bool, Worker] = {}

    def start(traced: bool) -> None:
        """A fresh worker, and its first operation as an untimed warm-up."""
        try:
            workers[traced] = Worker(ctx, traced)
        except WorkerError as exc:
            raise SetupError(f"{workload}: the worker did not start: {exc}") from None
        if not traced:
            setups.append(workers[traced].setup)
        op = run_op(ctx, workers[traced], f"{workload}-{seed}-{len(ops)}")
        ops.append(dict(op, traced=traced, warmup=True))

    try:
        for traced in (False, True) if trace else (False,):
            start(traced)
        started = time.monotonic()
        deadline = started + seconds
        # Set-up is sampled in fresh interpreters spread over the run.
        probes = [started + seconds * (i + 0.5) / SETUP_PROBES for i in range(SETUP_PROBES)]
        timed = 0
        while timed < min_ops or time.monotonic() < deadline:
            if probes and time.monotonic() >= probes[0]:
                probes.pop(0)
                probe = Worker(ctx, False)
                setups.append(probe.setup)
                probe.close()
            # In a traced run every other operation is traced, so the tracing
            # overhead is measured against untraced operations of the same run.
            traced = trace and timed % 2 == 1
            if workers[traced].proc.poll() is not None:
                start(traced)
            op = run_op(ctx, workers[traced], f"{workload}-{seed}-{len(ops)}")
            ops.append(dict(op, traced=traced, warmup=False))
            timed += 1
    except WorkerError as exc:
        raise SetupError(f"{workload}: a set-up probe failed: {exc}") from None
    finally:
        for worker in workers.values():
            worker.close()
    failed = [op for op in ops if op["misses"]]
    good = [op for op in ops if not op["misses"] and not op["warmup"]] or [
        op for op in ops if "wall_s" in op and not op["warmup"]]
    untraced = [op for op in good if not op["traced"]]
    raw = {
        "run_s": [op["wall_s"] for op in untraced],
        "cpu_s": [op["cpu_s"] for op in untraced],
        "setup_s": [s["setup_s"] for s in setups],
    }
    samples = {
        "run_s": [_scaled(op["wall_s"], op["kernel_wall_s"]) for op in untraced],
        "cpu_s": [_scaled(op["cpu_s"], op["kernel_cpu_s"]) for op in untraced],
        "setup_s": [_scaled(s["setup_s"], s["kernel_wall_s"]) for s in setups],
        "peak_rss_mb": [op["peak_rss_kb"] * 1024 / 1e6 for op in untraced],
    }
    if not all(samples.values()):
        raise SetupError(f"{workload}: no operation produced timings; first misses: "
                         f"{ops[0]['misses']} {ops[0]['stderr'][-500:]}")
    units = dict(END_TO_END)
    if trace:
        traced_wall = [_scaled(op["wall_s"], op["kernel_wall_s"])
                       for op in good if op["traced"]]
        if not traced_wall:
            raise SetupError(f"{workload}: no traced operation succeeded; first misses: "
                             f"{ops[1]['misses']} {ops[1]['stderr'][-500:]}")
        overhead_ms = (statistics.median(traced_wall) - statistics.median(samples["run_s"])) * 1e3
        values = tracing.per_layer([op["layers"] for op in good if op["traced"]], overhead_ms)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        values = {name: statistics.median(samples[name]) for name in END_TO_END}
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(f"workload {workload} (seed {seed}, profile {profile}, trace {int(trace)}): "
          f"{WORKLOADS[workload]}")
    for name, unit in units.items():
        extra = f"  ({_describe(samples[name])})" if name in samples else ""
        print(f"  {name} = {values[name]:.6g} {unit}{extra}")
        if name in raw:
            print(f"    as measured, not rescaled: {_describe(raw[name])}")
    print(f"  ops_failed_ratio = {len(failed)}/{len(ops)}")
    if trace:
        for name, text in tracing.ratio_bases(values).items():
            print(f"  {name} = {text}")
    for op in failed[:3]:
        more = f" (+{len(op['misses']) - 3} more)" if len(op["misses"]) > 3 else ""
        print(f"  FAILED {op['misses'][:3]}{more}")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "profile": profile, "environment": environment(),
              "input_sha256": ctx["input_sha256"], "output_sha256": ctx["expect"],
              "samples": samples, "raw_samples": raw, "result": result}
    (OUT_DIR / f"{workload}-s{seed}-t{int(trace)}-{profile}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    return result


# --- schema and comparison -----------------------------------------------------

def validate(result: dict, bench: dict, trace: bool) -> list[str]:
    """Problems with a result line against BENCHMARK.json's metric lists."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not an int")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        if set(entry) != {"value", "unit"} or entry.get("unit") != want.get(name):
            problems.append(f"{name}: {entry}")
        elif not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{name}: value {entry['value']!r}")
    return problems


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    mismatched = [k for k in ENV_KEYS if a["environment"].get(k) != b["environment"].get(k)]
    for key in ("workload", "profile", "seconds", "trace"):
        if a[key] != b[key]:
            mismatched.append(key)
    for key in mismatched:
        va = a.get(key, a["environment"].get(key))
        vb = b.get(key, b["environment"].get(key))
        print(f"FLAG: {key} differs: {va!r} vs {vb!r}")
    for name, entry in a["result"]["metrics"].items():
        other = b["result"]["metrics"].get(name)
        if other is None:
            print(f"{name}: only in {path_a}")
            continue
        va, vb = entry["value"], other["value"]
        change = f"{(vb - va) / va:+.2%}" if va else "n/a"
        print(f"{name}: {va:.6g} -> {vb:.6g} {entry['unit']} ({change})")
    if mismatched:
        print("environments or settings differ: the comparison is not valid")
        return 1
    return 0


# --- entry points --------------------------------------------------------------

def _require_checkout() -> None:
    if not (ROOT / "src" / "bessarb" / "__init__.py").is_file():
        raise SetupError(f"no bessarb sources under {ROOT / 'src'}; run from a checkout")


def smoke() -> int:
    """Every workload once untraced and once traced on tiny inputs."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bad = sorted(set(names) ^ set(WORKLOADS))
    if bad:
        print(f"BENCHMARK.json and run.py disagree on workloads: {bad}")
        return 1
    ok = True
    for name in names:
        for trace in (False, True):
            result = measure(name, PINNED_SEED, 0, trace, "smoke")
            problems = validate(result, bench, trace)
            if not result["correct"] or result["failed"]:
                problems.append("outputs failed their checks")
            for problem in problems:
                print(f"SMOKE {name} trace={int(trace)}: {problem}")
            ok = ok and not problems
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1 for the traced per-layer run (default: both with --workload all)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one op each")
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    try:
        _require_checkout()
        OUT_DIR.mkdir(exist_ok=True)
        if args.smoke:
            return smoke()
        print("environment " + json.dumps(environment(), sort_keys=True))
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace), "full")
            print(json.dumps(result))
            return 0
        traces = [bool(args.trace)] if args.trace is not None else [False, True]
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for trace in traces:
                result = measure(name, args.seed, args.seconds, trace, "full")
                merged["correct"] = merged["correct"] and result["correct"]
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
                for metric, entry in result["metrics"].items():
                    merged["metrics"][f"{name}.{metric}"] = entry
        print(json.dumps(merged))
        return 0
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
