"""Run one workload once and print its metrics — the driver's entry point.

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
Exits non-zero when any answer is wrong (or the program under test is
not there).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"


def bootstrap() -> None:
    """Make ``repro`` (the program, under ``src/``) and this package
    importable when started as a plain script from a bare checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"the program under test is not here: no {ROOT / 'src' / 'repro'}")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def environment() -> dict:
    """Read, never set: what the numbers were taken on."""
    import os
    import platform
    import subprocess

    from repro.codegen import codegen_enabled
    from repro.prob import kernels

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True,
        ).stdout.strip()
    except OSError:  # no git here
        commit = ""
    return {
        "commit": commit or "unknown",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numpy_kernels": kernels.numpy_enabled(),
        "codegen": codegen_enabled(),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    """The :class:`~benchmarks.perf.inproc.Outcome` of one run."""
    from benchmarks.perf import data, inproc, probes, served

    if name in data.IN_PROCESS:
        workload = data.IN_PROCESS[name]
        if traced:
            return inproc.run_traced(
                workload, seed, seconds, probes.PROBES.get(name, ())
            )
        return inproc.run(workload, seed, seconds)
    return served.run(name, seed, seconds, traced)


def report(name: str, outcome, traced: bool, out=sys.stdout) -> dict:
    """Print every metric by name with its unit; return the result line."""
    from benchmarks.perf import spec

    declared = spec.PER_LAYER if traced else spec.END_TO_END
    metrics = {}
    for metric, unit, *_ in declared:
        value = outcome.metrics.get(metric, 0.0)
        detail = outcome.detail.get(metric, "")
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:18s} {metric:32s} {shown:>12s} {unit:6s} {detail}", file=out)
        metrics[metric] = {"value": -1.0 if value is None else value, "unit": unit}
    for problem in outcome.problems[:20]:
        print(f"{name}: WRONG: {problem}", file=out)
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    bootstrap()
    from benchmarks.perf import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    traced = bool(args.trace)
    print("environment: " + json.dumps(environment()))
    outcome = run_workload(args.workload, args.seed, args.seconds, traced)
    if outcome.trace is not None:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}.json"
        path.write_text(json.dumps(outcome.trace) + "\n")
    line = report(args.workload, outcome, traced)
    print(json.dumps(line))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
