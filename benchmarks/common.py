"""Shared infrastructure for the experiment benchmarks.

Scaling note
------------
The paper's experiments ran compiled C code inside PostgreSQL on a Xeon
X5650; this reproduction runs pure Python.  All parameter sets are
therefore scaled down (fewer variables and terms, smaller value ranges)
relative to Section 7 — by roughly one order of magnitude — while keeping
every *ratio* the paper's qualitative claims depend on (e.g. the
``c``-sweep of Experiment A still crosses ``maxv``; Experiment C still
crosses the easy/hard/easy phase transition).  EXPERIMENTS.md records the
mapping and compares the measured shapes against the published figures.

Each ``bench_exp_*.py`` module doubles as a script: running it directly
prints the full sweep as the rows/series of the corresponding figure.
"""

from __future__ import annotations

import json
import platform
import random
import statistics
import sys
import time

import numpy

from repro.algebra.semiring import BOOLEAN
from repro.core.compile import Compiler
from repro.prob import kernels
from repro.workloads.random_expr import ExprParams, generate_condition

__all__ = [
    "evaluate_once",
    "average_time",
    "print_series",
    "run_point",
    "smoke_mode",
    "json_path",
    "baseline_path",
    "BenchReport",
    "build_mc_database",
    "mc_query",
]


def smoke_mode(argv: list[str] | None = None) -> bool:
    """True when ``--smoke`` was passed on the command line.

    CI runs each experiment script with ``--smoke`` to exercise the
    measurement path on a trimmed sweep (one point per series, one run)
    without paying for the full figure.
    """
    args = sys.argv[1:] if argv is None else argv
    return "--smoke" in args


def _flag_value(flag: str, argv: list[str] | None = None) -> str | None:
    args = sys.argv[1:] if argv is None else argv
    for index, arg in enumerate(args):
        if arg == flag and index + 1 < len(args):
            return args[index + 1]
        if arg.startswith(flag + "="):
            return arg.split("=", 1)[1]
    return None


def json_path(argv: list[str] | None = None) -> str | None:
    """The PATH of ``--json PATH``, if given — where to write the report."""
    return _flag_value("--json", argv)


def baseline_path(argv: list[str] | None = None) -> str | None:
    """The PATH of ``--baseline PATH`` — a previously recorded report to
    embed for before/after comparison (the perf trajectory)."""
    return _flag_value("--baseline", argv)


class BenchReport:
    """Structured benchmark results for ``--json PATH`` output.

    Collects one record per measured point (series name, parameters,
    metrics) plus enough environment information — engine, Python and
    numpy versions — to make recorded numbers comparable across runs.
    """

    def __init__(self, bench: str, **config):
        self.bench = bench
        self.config = config
        self.points: list[dict] = []

    def add(self, series: str, params: dict, **metrics) -> None:
        """Record one measured point (timings in seconds)."""
        self.points.append({"series": series, "params": params, **metrics})

    def payload(self) -> dict:
        return {
            "bench": self.bench,
            "engine": "repro-compiled" if self.bench != "montecarlo" else "montecarlo",
            "python_version": platform.python_version(),
            "numpy_version": numpy.__version__,
            "numpy_kernels_enabled": kernels.numpy_enabled(),
            "config": self.config,
            "points": self.points,
        }

    def finish(self, argv: list[str] | None = None) -> None:
        """Write the report when ``--json`` was requested.

        With ``--baseline PATH`` the previously recorded report is
        embedded under ``"baseline"`` and a total-over-total speedup is
        computed from the points' ``mean`` metrics.
        """
        path = json_path(argv)
        if path is None:
            return
        payload = self.payload()
        base = baseline_path(argv)
        if base is not None:
            with open(base) as handle:
                baseline = json.load(handle)
            payload["baseline"] = baseline

            def keys(points):
                return {
                    (p.get("series"), tuple(sorted(p.get("params", {}).items())))
                    for p in points
                }

            ours = sum(p.get("mean", 0.0) for p in self.points)
            theirs = sum(
                p.get("mean", 0.0) for p in baseline.get("points", ())
            )
            # A total-over-total ratio is only meaningful when both runs
            # measured the same point set (e.g. a --smoke run against a
            # full-sweep baseline must not record a bogus speedup).
            if keys(self.points) != keys(baseline.get("points", ())):
                payload["baseline_point_mismatch"] = True
            elif ours > 0 and theirs > 0:
                payload["speedup_vs_baseline"] = round(theirs / ours, 3)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        print(f"\n[json report written to {path}]")


def evaluate_once(params: ExprParams, seed: int = 0, **compiler_options):
    """Generate one Eq.-11 condition, compile it, compute its distribution.

    Returns ``(elapsed_seconds, compiler)`` so callers can inspect
    compilation statistics.
    """
    expr, registry = generate_condition(params, seed=seed)
    start = time.perf_counter()
    compiler = Compiler(registry, BOOLEAN, **compiler_options)
    compiler.distribution(expr)
    return time.perf_counter() - start, compiler


def average_time(params: ExprParams, runs: int, seed: int = 0, **options) -> float:
    """Mean evaluation time over ``runs`` random expressions.

    Mirrors the paper's protocol of averaging #runs repetitions; with
    ``runs >= 3`` the slowest and fastest run are discarded, as in
    Section 7.
    """
    times = [
        evaluate_once(params, seed=seed * 1013 + i, **options)[0]
        for i in range(runs)
    ]
    if runs >= 3:
        times = sorted(times)[1:-1]
    return statistics.mean(times)


def run_point(params: ExprParams, runs: int = 2, seed: int = 0, **options):
    """One figure point: ``(mean_seconds, stdev_seconds)``."""
    times = [
        evaluate_once(params, seed=seed * 1013 + i, **options)[0]
        for i in range(runs)
    ]
    mean = statistics.mean(times)
    stdev = statistics.stdev(times) if len(times) > 1 else 0.0
    return mean, stdev


def build_mc_database(
    rows: int = 40, groups: int = 4, max_value: int = 50, seed: int = 0
):
    """The Monte-Carlo baseline database: one probabilistic fact table
    ``R(a, v)`` with an independent Bernoulli(0.5) event per row, plus an
    unrelated table ``S`` that the benchmark query never touches (a
    regression guard for per-world instantiation being restricted to the
    relations a query references)."""
    from repro.algebra.expressions import Var
    from repro.db.pvc_table import PVCDatabase
    from repro.prob.variables import VariableRegistry

    rng = random.Random(seed)
    registry = VariableRegistry()
    db = PVCDatabase(registry=registry, semiring=BOOLEAN)
    table = db.create_table("R", ["a", "v"])
    for i in range(rows):
        name = f"r{i}"
        registry.bernoulli(name, 0.5)
        table.add((i % groups, rng.randint(0, max_value)), Var(name))
    other = db.create_table("S", ["b"])
    for i in range(rows):
        name = f"s{i}"
        registry.bernoulli(name, 0.5)
        other.add((i,), Var(name))
    return db


def mc_query():
    """The Monte-Carlo baseline query: a grouped SUM over the fact table."""
    from repro.query.ast import AggSpec, GroupAgg, relation

    return GroupAgg(relation("R"), ["a"], [AggSpec.of("total", "SUM", "v")])


def print_series(title: str, header: list[str], rows: list[tuple]):
    """Print a figure's data series as an aligned table."""
    print(f"\n== {title} ==")
    widths = [
        max(len(header[i]), *(len(f"{row[i]}") for row in rows))
        for i in range(len(header))
    ]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        print("  ".join(f"{cell}".ljust(widths[i]) for i, cell in enumerate(row)))
