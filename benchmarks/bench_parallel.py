"""Multi-core execution: worker-count sweep over the one seam that pays.

Measures the ``workers`` knob where it is not a no-op (EXPERIMENTS.md,
"Accelerator verdicts", has the curve that retired the other seams):
an Experiment-A-style ``HAVING SUM(v) >= c`` query, whose every group's
answer annotation is an aggregation comparison over its own variable
pool (clause structure mimicking join provenance), so step II compiles
one hard, independent d-tree per group; the sprout engine fans those
compilations out per chunk.  32 groups, so that a chunk is ≥100 ms of
work.  (Monte-Carlo has no such seam: it valuates its sampled worlds in
one numpy batch, and ``workers`` is a no-op there.)

Every point *asserts answer identity across worker counts* before
recording a time — a conformance failure fails the benchmark (and the CI
smoke leg) loudly.  Speedups are relative to ``workers=None``, the
serial code path a caller gets by default.  Note the machine matters: on
a single-core container the pool can only add overhead; the committed
reference JSON records the ``cpu_count`` it was measured on.

Flags: ``--smoke`` (trimmed sweep for CI), ``--workers N`` (cap the
sweep), ``--json PATH``, ``--baseline PATH``.
"""

from __future__ import annotations

if __package__ in (None, ""):  # direct script execution: python benchmarks/...
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import random
import statistics
import sys
import time

from benchmarks.common import BenchReport, print_series, smoke_mode
from repro.algebra.expressions import Var, sprod, ssum
from repro.algebra.semiring import BOOLEAN
from repro.db.pvc_table import PVCDatabase
from repro.engine.spec import EvalSpec
from repro.engine.sprout import SproutEngine
from repro.parallel import resolve_workers
from repro.prob.variables import VariableRegistry
from repro.query.ast import AggSpec, GroupAgg, Project, Select, relation
from repro.query.predicates import cmp_


def _cpu_count() -> int:
    # The same resolution the engines use for workers="auto".
    return resolve_workers("auto")


def worker_sweep(argv=None) -> list[int]:
    """``[1, 2, 4]`` capped by ``--workers N`` (and ``[1, 2]`` in smoke)."""
    args = sys.argv[1:] if argv is None else argv
    cap = None
    for index, arg in enumerate(args):
        if arg == "--workers" and index + 1 < len(args):
            cap = int(args[index + 1])
        elif arg.startswith("--workers="):
            cap = int(arg.split("=", 1)[1])
    sweep = [1, 2] if smoke_mode(argv) else [1, 2, 4]
    if cap is not None:
        sweep = [w for w in sweep if w <= cap] or [cap]
    return sweep


# -- workloads ----------------------------------------------------------------


def build_compile_database(
    groups: int, terms: int, variables: int, seed: int = 0
):
    """Experiment-A-style groups: independent variable pool per group,
    each row annotated with a 2-clause product of disjunctions (the
    provenance shape of a 2-way join with projection alternatives)."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    db = PVCDatabase(registry=registry, semiring=BOOLEAN)
    table = db.create_table("R", ["g", "v"])
    for g in range(groups):
        names = [f"g{g}v{i}" for i in range(variables)]
        for name in names:
            registry.bernoulli(name, 0.5)
        for _ in range(terms):
            phi = sprod(
                ssum(Var(name) for name in rng.sample(names, 2))
                for _ in range(2)
            )
            table.add((g, rng.randint(0, 30)), phi)
    return db


def compile_query(threshold: int):
    agg = GroupAgg(relation("R"), ["g"], [AggSpec.of("total", "SUM", "v")])
    return Project(Select(agg, cmp_("total", ">=", threshold)), ["g"])


# -- measurement --------------------------------------------------------------


def _fingerprint_rows(result):
    return [
        (row.values, row.probability().low, row.probability().high)
        for row in result.rows
    ]


def measure_compile(db, query, workers, runs):
    times, fingerprint = [], None
    for run in range(runs):
        engine = SproutEngine(db)  # fresh: no memo reuse across runs
        start = time.perf_counter()
        result = engine.run(query, EvalSpec(workers=workers))
        times.append(time.perf_counter() - start)
        fingerprint = _fingerprint_rows(result)
        assert result.stats.get("parallel_fallback") is None, result.stats
    return times, fingerprint


def sweep(report, series, params, measure, sweep_workers):
    """Measure one workload serially (``workers=None``) and across the
    worker sweep, asserting that every worker count reproduces the
    serial answer exactly.
    """
    rows = []
    serial_mean, reference = None, None
    for workers in [None, *sweep_workers]:
        times, fingerprint = measure(workers)
        mean = statistics.mean(times)
        stdev = statistics.stdev(times) if len(times) > 1 else 0.0
        if workers is None:
            serial_mean, reference = mean, fingerprint
        elif fingerprint != reference:
            raise AssertionError(
                f"{series}: workers={workers} diverged from the serial answers"
            )
        speedup = serial_mean / mean if mean > 0 else 0.0
        report.add(
            series,
            {**params, "workers": workers},
            mean=round(mean, 6),
            stdev=round(stdev, 6),
            speedup_vs_serial=round(speedup, 3),
        )
        rows.append((workers, f"{mean * 1e3:.1f}", f"{speedup:.2f}x"))
    return rows


def main() -> None:
    smoke = smoke_mode()
    workers = worker_sweep()
    runs = 1 if smoke else 3
    cpus = _cpu_count()

    report = BenchReport(
        "parallel",
        smoke=smoke,
        runs=runs,
        worker_sweep=workers,
        cpu_count=cpus,
    )
    print(
        f"worker sweep {workers} on {cpus} usable CPU(s)"
        + (" [smoke]" if smoke else "")
    )
    if cpus < max(workers):
        print(
            "note: fewer CPUs than workers — expect pool overhead, "
            "not speedup; the answers must still be identical"
        )

    # Compilation-heavy: one hard d-tree per group, fanned out per chunk.
    for groups, terms, variables in ((4, 10, 8),) if smoke else (
        (32, 25, 14), (32, 40, 20)
    ):
        db = build_compile_database(groups, terms, variables)
        query = compile_query(120)
        rows = sweep(
            report,
            "compile_groups",
            {"groups": groups, "terms": terms, "variables": variables},
            lambda w: measure_compile(db, query, w, runs),
            workers,
        )
        print_series(
            f"Compilation-heavy HAVING sweep ({groups} groups x {terms} "
            f"terms x {variables} vars)",
            ["workers", "mean_ms", "speedup"],
            rows,
        )

    report.finish()


if __name__ == "__main__":
    main()
