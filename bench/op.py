"""Serve one workload's benchmark operations from a warm interpreter.

Usage: python3 op.py REQUEST.json

The request names the modules the workload imports, the operation, and
whether to trace.  The worker imports the modules, runs the speed kernel
(``speed.py``) twice, then writes one JSON line ``{"imported_at": ...}`` with
the kernel's times to stdout, so the caller can measure set-up.  After
that each line read from stdin is an operation id: the worker runs the
operation once, timed with wall and CPU clocks and bracketed by the speed
kernel (``speed.py``), and answers with one JSON line of what it cost.  Its
worker processes' CPU and memory are read from rusage once the package has
joined them.  An empty line or end of input ends the worker.  An exception
in an operation becomes its traceback in the answer's ``stderr`` and exit
code 1; the worker carries on.
"""

import importlib
import json
import sys
import time

with open(sys.argv[1]) as _fh:
    REQUEST = json.load(_fh)
for _module in REQUEST["modules"]:
    importlib.import_module(_module)
IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402


def _forecast_score(req: dict) -> int:
    """Features from CSV -> walk-forward kNN -> forecast CSV -> `bessarb score`."""
    from bessarb import cli, forecasting, market

    plan = forecasting.WalkForwardPlan(**req["plan"])
    matrix = forecasting.FeatureMatrix.from_csv(req["features"], market.MarketKind.DAM)
    result = forecasting.walk_forward(matrix, plan)
    market.write_forecast_csv(req["forecast_out"], result.forecasts)
    return cli.main(["score", "--forecast", req["forecast_out"],
                     "--actuals", req["actuals"], "--market", "dam"])


def _run(req: dict) -> int:
    from bessarb import cli

    if req["kind"] == "cli":
        return cli.main(req["argv"])
    return _forecast_score(req)


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_once(op_id: str, tracer) -> dict:
    if tracer is not None:
        tracer.reset(op_id)
    out, err = io.StringIO(), io.StringIO()
    before = speed.kernel()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = _run(REQUEST)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        **speed.bracket(before, speed.kernel()),
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "wall_s": wall,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "peak_rss_kb": self1.ru_maxrss + kids1.ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.dump(Path(REQUEST["spans_dir"]) / f"{op_id}.jsonl")
    return result


def main() -> int:
    import bessarb

    channel = sys.stdout
    tracer = None
    if REQUEST["trace"]:
        import tracing

        tracer = tracing.install("")
    hello = {"imported_at": IMPORTED_AT,
             "package": str(Path(bessarb.__file__).resolve().parent),
             **speed.bracket(speed.kernel(), speed.kernel())}
    channel.write(json.dumps(hello) + "\n")
    channel.flush()
    while op_id := sys.stdin.readline().strip():
        channel.write(json.dumps(run_once(op_id, tracer)) + "\n")
        channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
