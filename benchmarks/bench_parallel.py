"""Multi-core execution: worker-count sweeps over the two cost centers.

Measures the ``workers`` knob on the paper's two expensive phases:

* **MC-heavy** — a grouped-SUM query over a database with conjunctive
  annotations; worlds are drawn and evaluated in deterministic shards
  that spread across the process pool (each shard valuates the symbolic
  answer over its worlds as one numpy batch; without numpy it loops over
  them).  Also sweeps the sequential-stopping (ε, δ) interval path,
  whose doubling rounds shard the same way.  The ``mc_codegen`` series
  times the per-world loop itself, compiled against interpreted, on a
  bag-semantics join — NATURALS has no batched form, so that loop runs
  with or without numpy.
* **Compilation-heavy** — an Experiment-A-style ``HAVING SUM(v) >= c``
  query: every group's answer annotation is an aggregation comparison
  over its own variable pool (clause structure mimicking join
  provenance), so step II compiles one hard, independent d-tree per
  group; the sprout engine fans those compilations out per chunk.

Every point *asserts serial/parallel answer identity* before recording a
time — a conformance failure fails the benchmark (and the CI smoke leg)
loudly.  Speedups are relative to ``workers=1`` (the sharded scheme run
inline).  Note the machine matters: on a single-core container the pool
can only add overhead; the committed reference JSON records the
``cpu_count`` it was measured on.

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
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.db.pvc_table import PVCDatabase
from repro.engine.montecarlo import MonteCarloEngine
from repro.engine.spec import EvalSpec
from repro.engine.sprout import SproutEngine
from repro.parallel import resolve_workers
from repro.prob.variables import VariableRegistry
from repro.query.ast import (
    AggSpec,
    GroupAgg,
    Project,
    Select,
    product_of,
    relation,
)
from repro.query.predicates import cmp_, eq


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


def build_mc_hard_database(rows: int, groups: int = 4, seed: int = 0):
    """Conjunctively annotated fact table (correlated factors per row)."""
    rng = random.Random(seed)
    registry = VariableRegistry()
    db = PVCDatabase(registry=registry, semiring=BOOLEAN)
    table = db.create_table("R", ["a", "v"])
    for i in range(rows):
        x, y = f"r{i}", f"q{i}"
        registry.bernoulli(x, 0.5)
        registry.bernoulli(y, 0.6)
        table.add((i % groups, rng.randint(0, 50)), Var(x) * Var(y))
    return db


def mc_hard_query():
    return GroupAgg(relation("R"), ["a"], [AggSpec.of("t", "SUM", "v")])


def build_mc_join_database(rows: int, dim_rows: int = 50, seed: int = 0):
    """A conjunctively annotated fact table plus a certain dimension,
    under bag semantics.

    NATURALS keeps Monte-Carlo on the per-world loop (only Boolean
    annotations valuate as numpy batches) and the join makes per-world
    evaluation the cost center: the compiled kernel hoists the
    deterministic dimension — instantiation and hash index — out of the
    world loop entirely, while the interpreter rebuilds the world's
    relations every time.
    """
    rng = random.Random(seed)
    registry = VariableRegistry()
    db = PVCDatabase(registry=registry, semiring=NATURALS)
    fact = db.create_table("fact", ["k", "v"])
    for i in range(rows):
        x, y = f"r{i}", f"q{i}"
        registry.bernoulli(x, 0.5)
        registry.bernoulli(y, 0.6)
        fact.add(
            (rng.randrange(dim_rows), rng.randint(0, 50)), Var(x) * Var(y)
        )
    dim = db.create_table("dim", ["dk", "cat"])
    for k in range(dim_rows):
        dim.add((k, k % 5))
    return db


def mc_join_query():
    return GroupAgg(
        Project(
            Select(
                product_of(relation("fact"), relation("dim")), eq("k", "dk")
            ),
            ["cat", "v"],
        ),
        ["cat"],
        [AggSpec.of("t", "SUM", "v")],
    )


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


def measure_mc_fixed(db, query, samples, workers, runs, seed=1):
    times, fingerprint = [], None
    for run in range(runs):
        engine = MonteCarloEngine(db, seed=seed)
        spec = None if workers is None else EvalSpec(workers=workers)
        start = time.perf_counter()
        result = engine.run(query, spec, samples=samples)
        times.append(time.perf_counter() - start)
        fingerprint = _fingerprint_rows(result)
        assert "parallel_fallback" not in result.stats, result.stats
    return times, fingerprint


def measure_mc_codegen(db, query, samples, codegen, runs, seed=1):
    """Fixed-budget MC on the per-world path with codegen forced on/off.

    Serial (``workers=None``) so the measured difference is purely the
    per-world evaluator: interpreted instantiate-and-execute vs the bound
    fused kernel.  Returns the times and the answer fingerprint — the
    caller asserts the two evaluators estimate identically.
    """
    times, fingerprint = [], None
    for run in range(runs):
        engine = MonteCarloEngine(db, seed=seed, codegen=codegen)
        start = time.perf_counter()
        result = engine.run(query, samples=samples)
        times.append(time.perf_counter() - start)
        fingerprint = _fingerprint_rows(result)
        assert result.stats.get("codegen_used", False) is codegen, result.stats
    return times, fingerprint


def measure_mc_sequential(db, query, epsilon, workers, runs, seed=1):
    times, fingerprint = [], None
    for run in range(runs):
        engine = MonteCarloEngine(db, seed=seed)
        start = time.perf_counter()
        intervals, info = engine.estimate_intervals(
            query, epsilon=epsilon, workers=workers
        )
        times.append(time.perf_counter() - start)
        fingerprint = sorted(
            ((key, i.low, i.high) for key, i in intervals.items()),
            key=repr,
        ) + [info["samples"]]
        assert "parallel_fallback" not in info, info
    return times, fingerprint


def measure_compile(db, query, workers, runs):
    times, fingerprint = [], None
    for run in range(runs):
        engine = SproutEngine(db)  # fresh: no memo reuse across runs
        start = time.perf_counter()
        result = engine.run(query, workers=workers)
        times.append(time.perf_counter() - start)
        fingerprint = _fingerprint_rows(result)
        assert result.stats.get("parallel_fallback") is None, result.stats
    return times, fingerprint


def sweep(report, series, params, measure, sweep_workers):
    """Measure one workload across the worker sweep, asserting that every
    worker count reproduces the ``workers=1`` answer exactly."""
    rows = []
    serial_mean, reference = None, None
    for workers in sweep_workers:
        times, fingerprint = measure(workers)
        mean = statistics.mean(times)
        stdev = statistics.stdev(times) if len(times) > 1 else 0.0
        if reference is None:
            serial_mean, reference = mean, fingerprint
        elif fingerprint != reference:
            raise AssertionError(
                f"{series}: workers={workers} diverged from serial answers"
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

    # MC-heavy: fixed-budget estimation, sharded.
    mc_rows, mc_samples = (16, 1200) if smoke else (30, 6000)
    db = build_mc_hard_database(rows=mc_rows)
    query = mc_hard_query()
    rows = sweep(
        report,
        "mc_per_world",
        {"rows": mc_rows, "samples": mc_samples},
        lambda w: measure_mc_fixed(db, query, mc_samples, w, runs),
        workers,
    )
    print_series(
        f"MC-heavy fixed budget ({mc_samples} worlds)",
        ["workers", "mean_ms", "speedup"],
        rows,
    )

    # MC sequential stopping: the interval path shards every round.
    epsilon = 0.08 if smoke else 0.04
    rows = sweep(
        report,
        "mc_sequential",
        {"rows": mc_rows, "epsilon": epsilon},
        lambda w: measure_mc_sequential(db, query, epsilon, w, runs),
        workers,
    )
    print_series(
        f"MC sequential stopping (eps={epsilon})",
        ["workers", "mean_ms", "speedup"],
        rows,
    )

    # Compilation-heavy: one hard d-tree per group, fanned out per chunk.
    groups, terms, variables = (4, 10, 8) if smoke else (8, 25, 14)
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
        f"Compilation-heavy HAVING sweep ({groups} groups)",
        ["workers", "mean_ms", "speedup"],
        rows,
    )

    # Codegen on/off on the serial per-world MC loop: same drawn worlds,
    # different evaluator — the answers must be bit-identical.  A
    # bag-semantics join, so the loop runs whether or not numpy is there
    # and per-world evaluation (not world sampling, which both evaluators
    # share) dominates the wall-clock.
    cg_mc_rows, cg_samples = (12, 800) if smoke else (40, 4000)
    db = build_mc_join_database(rows=cg_mc_rows)
    query = mc_join_query()
    cg_rows = []
    reference, interp_mean = None, None
    for codegen in (False, True):
        times, fingerprint = measure_mc_codegen(
            db, query, cg_samples, codegen, runs
        )
        mean = statistics.mean(times)
        stdev = statistics.stdev(times) if len(times) > 1 else 0.0
        if reference is None:
            interp_mean, reference = mean, fingerprint
        elif fingerprint != reference:
            raise AssertionError(
                "mc_codegen: compiled estimates diverged from interpreted"
            )
        speedup = interp_mean / mean if mean > 0 else 0.0
        report.add(
            "mc_codegen",
            {"rows": cg_mc_rows, "samples": cg_samples, "codegen": codegen},
            mean=round(mean, 6),
            stdev=round(stdev, 6),
            speedup_vs_interpreter=round(speedup, 3),
        )
        cg_rows.append(
            ("on" if codegen else "off", f"{mean * 1e3:.1f}", f"{speedup:.2f}x")
        )
    print_series(
        f"MC per-world evaluator — codegen off vs on ({cg_samples} worlds, serial)",
        ["codegen", "mean_ms", "speedup"],
        cg_rows,
    )

    report.finish()


if __name__ == "__main__":
    main()
