"""``PYTHONPATH=src python -m benchmarks.perf`` — run full sets of the benchmark.

A set is ``spec.ROUNDS`` rounds (2); each round runs every workload
once, each in its own fresh interpreter (``run.py``), rounds interleaved
(A B C D E A B C D E) so machine drift averages out.  The reported value
of a metric is the median over the rounds.  Exits non-zero when any
answer was wrong.

    --workload W       only this workload (repeatable)
    --seed N           default 7 (the seed the golden answers are for)
    --traced           add a traced run per workload: per-layer metrics
                       and benchmarks/perf/results/trace-<workload>.json
    --quick            one short round, same checks; numbers NOT comparable
    --selfcheck        two sets of the same code must agree within the
                       bounds (and on every exact count)
    --calibrate N      N runs per workload on seeds seed..seed+N-1: the
                       spread (IQR / median) of every end-to-end metric,
                       appended to benchmarks/perf/calibration.json
    --update-expected  rewrite benchmarks/perf/expected/ from this code
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from . import run as runner
from . import spec
from .stats import spread

QUICK_SECONDS = 1.5


def child(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One ``run.py`` in a fresh interpreter; echoes its metric table."""
    completed = subprocess.run(
        [sys.executable, str(runner.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(traced))],
        capture_output=True, text=True,
    )
    lines = completed.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload}: run.py exited {completed.returncode} without a result")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_set(workloads, seed: int, seconds: float, rounds: int, traced: bool):
    """``({workload: {metric: median over rounds}}, all correct)``."""
    values: dict = {w: {} for w in workloads}
    correct = True
    for round_number in range(rounds):
        for workload in workloads:
            print(f"-- round {round_number + 1}/{rounds}: {workload}")
            results = [child(workload, seed, seconds, False)]
            if traced:
                results.append(child(workload, seed, seconds, True))
            for result in results:
                correct = correct and result["correct"]
                for metric, entry in result["metrics"].items():
                    values[workload].setdefault(metric, []).append(entry["value"])
    medians = {
        w: {m: statistics.median(v) for m, v in metrics.items()}
        for w, metrics in values.items()
    }
    return medians, correct


def print_table(medians: dict, note: str = "") -> None:
    workloads = list(medians)
    print(f"\n== median over rounds{note} ==")
    print(f"{'metric':32s} {'unit':6s} " + " ".join(f"{w:>16s}" for w in workloads))
    for metric, unit, *_ in spec.END_TO_END + spec.PER_LAYER:
        if not any(metric in medians[w] for w in workloads):
            continue
        cells = " ".join(
            f"{medians[w][metric]:16.6g}" if metric in medians[w] else f"{'-':>16s}"
            for w in workloads
        )
        print(f"{metric:32s} {unit:6s} {cells}")


def worse_by(metric_better: str, first: float, second: float) -> float:
    """How much ``second`` is worse than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric_better == "lower" else -change


def selfcheck(workloads, seed: int, seconds: float) -> bool:
    first, ok_first = run_set(workloads, seed, seconds, spec.ROUNDS, traced=True)
    second, ok_second = run_set(workloads, seed, seconds, spec.ROUNDS, traced=True)
    agree = ok_first and ok_second
    print("\n== selfcheck: two sets of the same code ==")
    for workload in workloads:
        for metric, _, better, bound in spec.END_TO_END:
            a, b = first[workload][metric], second[workload][metric]
            drift = max(worse_by(better, a, b), worse_by(better, b, a))
            verdict = "ok" if drift <= bound else "DISAGREE"
            agree = agree and drift <= bound
            print(f"{workload:18s} {metric:18s} {a:12.6g} {b:12.6g} "
                  f"{100 * drift:6.2f}% of {100 * bound:.0f}%  {verdict}")
        for metric in sorted(spec.EXACT_COUNTS):
            if first[workload][metric] != second[workload][metric]:
                agree = False
                print(f"{workload:18s} {metric}: exact count changed "
                      f"{first[workload][metric]} -> {second[workload][metric]}")
    return agree


CALIBRATION = runner.HERE / "calibration.json"


def calibrate(workloads, seed: int, seconds: float, runs: int) -> bool:
    """The driver's acceptance test: ten seeds, IQR over median.  A sweep
    of all five workloads is appended to ``calibration.json``, which the
    committed bounds are justified by."""
    steady = True
    rows = []
    record: dict = {}
    for workload in workloads:
        samples: dict = record.setdefault(workload, {})
        for offset in range(runs):
            result = child(workload, seed + offset, seconds, False)
            steady = steady and result["correct"]
            for metric, entry in result["metrics"].items():
                samples.setdefault(metric, []).append(entry["value"])
        for metric, _, _, bound in spec.END_TO_END:
            share = spread(samples[metric])
            verdict = "ok" if share <= bound / 3 else (
                "wide" if share <= bound else "TOO WIDE"
            )
            steady = steady and share <= bound
            rows.append(
                f"{workload:18s} {metric:18s} median {statistics.median(samples[metric]):12.6g} "
                f"spread {100 * share:6.2f}% bound {100 * bound:.0f}%  {verdict}"
            )
    print(f"\n== spread over {runs} seeds ==")
    print("\n".join(rows))
    if list(workloads) == list(spec.WORKLOAD_NAMES) and seconds == spec.RUN_SECONDS:
        sweeps = json.loads(CALIBRATION.read_text()) if CALIBRATION.exists() else []
        sweeps.append({
            "environment": runner.environment(),
            "run_seconds": seconds,
            "seeds": list(range(seed, seed + runs)),
            "values": record,
        })
        CALIBRATION.write_text(json.dumps(sweeps, indent=1) + "\n")
        print(f"appended to {CALIBRATION}")
    return steady


def update_expected(workloads, seed: int) -> None:
    from . import data, inproc, oracle, served

    for workload in workloads:
        if workload in data.IN_PROCESS:
            definition = data.IN_PROCESS[workload]
            samples = inproc.measure_passes(definition, seed, 0.0, inproc.Outcome())
            document = inproc.golden_document(definition, samples)
        else:
            document = served.golden_document(seed)
        oracle.write_golden(workload, document)
        print(f"wrote {oracle.golden_path(workload)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--calibrate", type=int, metavar="N")
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)

    runner.bootstrap()
    workloads = args.workload or list(spec.WORKLOAD_NAMES)
    if args.update_expected:
        update_expected(workloads, args.seed)
        return 0
    seconds = QUICK_SECONDS if args.quick else spec.RUN_SECONDS
    if args.selfcheck:
        return 0 if selfcheck(workloads, args.seed, seconds) else 1
    if args.calibrate:
        return 0 if calibrate(workloads, args.seed, seconds, args.calibrate) else 1
    rounds = 1 if args.quick else spec.ROUNDS
    medians, correct = run_set(workloads, args.seed, seconds, rounds, args.traced)
    print_table(
        medians, " — QUICK RUN, NOT COMPARABLE with full sets" if args.quick else ""
    )
    print("all answers correct" if correct else "WRONG ANSWERS — see above")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
