"""Tests of the benchmark itself: python3 -m pytest bench/test_smoke.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _result(metrics: dict) -> dict:
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]} == (
        tracing.PER_LAYER
    )


def test_validate_accepts_declared_and_rejects_others():
    good = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in DECLARED["end_to_end"]}
    assert run.validate(_result(good), DECLARED, trace=False) == []
    assert run.validate(_result(good), DECLARED, trace=True) != []
    missing = dict(good)
    missing.pop("run_s")
    assert run.validate(_result(missing), DECLARED, trace=False) != []
    assert run.validate(dict(_result(good), extra=1), DECLARED, trace=False) != []
    assert run.validate(dict(_result(good), attempted=True), DECLARED, trace=False) != []
    nan = dict(good, run_s={"value": float("nan"), "unit": "s"})
    assert run.validate(_result(nan), DECLARED, trace=False) != []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_smoke_mode_runs_every_workload_and_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "pass"}
    # the sentinel ratios hold at any size
    assert "evaluation.dp.useful_ratio = 10/98" in proc.stdout
    assert "evaluation.pf.useful_ratio = 14/98" in proc.stdout
