"""Multi-core execution: worker-count sweeps over the two seams that shard.

Measures the ``workers`` knob where it is not a no-op (EXPERIMENTS.md,
"Accelerator verdicts", has the curve that retired the other seams):

* **Per-world Monte-Carlo** — a join + grouped SUM under bag semantics
  (NATURALS has no batched form, so the per-world loop runs with the
  numpy kernels on); worlds are drawn and evaluated one by one in
  deterministic shards that spread across the process pool.  Also sweeps
  the sequential-stopping (ε, δ) interval path, whose doubling rounds
  shard the same way.  The ``mc_codegen`` series times that loop itself,
  compiled against interpreted (the script flips ``REPRO_CODEGEN``).
* **Compilation-heavy** — an Experiment-A-style ``HAVING SUM(v) >= c``
  query: every group's answer annotation is an aggregation comparison
  over its own variable pool (clause structure mimicking join
  provenance), so step II compiles one hard, independent d-tree per
  group; the sprout engine fans those compilations out per chunk.  32
  groups, so that a chunk is ≥100 ms of work.

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

import os
import random
import statistics
import sys
import time
from unittest import mock

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
        assert result.stats["batched"] is False, result.stats
        assert "parallel_fallback" not in result.stats, result.stats
    return times, fingerprint


def measure_mc_codegen(db, query, samples, codegen, runs, seed=1):
    """Fixed-budget MC on the per-world path with ``REPRO_CODEGEN``
    flipped on/off for the run.

    Serial (``workers=None``) so the measured difference is purely the
    per-world evaluator: interpreted instantiate-and-execute vs the bound
    fused kernel.  Returns the times and the answer fingerprint — the
    caller asserts the two evaluators estimate identically.
    """
    times, fingerprint = [], None
    with mock.patch.dict(os.environ, REPRO_CODEGEN="1" if codegen else "0"):
        for run in range(runs):
            engine = MonteCarloEngine(db, seed=seed)
            start = time.perf_counter()
            result = engine.run(query, samples=samples)
            times.append(time.perf_counter() - start)
            fingerprint = _fingerprint_rows(result)
            assert result.stats["codegen_used"] is codegen, result.stats
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


def sweep(report, series, params, measure, sweep_workers, serial_answer):
    """Measure one workload serially (``workers=None``) and across the
    worker sweep, asserting that every worker count reproduces the
    ``workers=1`` answer exactly — and the serial one where
    ``serial_answer`` says the seam promises that (sprout does;
    per-world Monte-Carlo draws ``workers=None`` from another stream).
    """
    rows = []
    serial_mean, reference = None, None
    for workers in [None, *sweep_workers]:
        times, fingerprint = measure(workers)
        mean = statistics.mean(times)
        stdev = statistics.stdev(times) if len(times) > 1 else 0.0
        if workers is None:
            serial_mean = mean
        if workers is not None or serial_answer:
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                raise AssertionError(
                    f"{series}: workers={workers} diverged from the "
                    f"reference answers"
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

    # Per-world MC: fixed-budget estimation over a bag-semantics join,
    # sharded.  Sized so that a 512-world shard is well past pool
    # dispatch cost and the whole run is seconds, not milliseconds.
    query = mc_join_query()
    for mc_rows, mc_samples in ((12, 1200),) if smoke else (
        (40, 20000), (120, 20000), (400, 6000)
    ):
        db = build_mc_join_database(rows=mc_rows)
        rows = sweep(
            report,
            "mc_per_world",
            {"rows": mc_rows, "samples": mc_samples},
            lambda w: measure_mc_fixed(db, query, mc_samples, w, runs),
            workers,
            serial_answer=False,
        )
        print_series(
            f"Per-world MC fixed budget ({mc_rows} rows x {mc_samples} worlds)",
            ["workers", "mean_ms", "speedup"],
            rows,
        )

    # MC sequential stopping: the interval path shards every round.
    mc_rows, epsilon = (12, 0.08) if smoke else (40, 0.02)
    db = build_mc_join_database(rows=mc_rows)
    rows = sweep(
        report,
        "mc_sequential",
        {"rows": mc_rows, "epsilon": epsilon},
        lambda w: measure_mc_sequential(db, query, epsilon, w, runs),
        workers,
        serial_answer=False,
    )
    print_series(
        f"Per-world MC sequential stopping (eps={epsilon})",
        ["workers", "mean_ms", "speedup"],
        rows,
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
            serial_answer=True,
        )
        print_series(
            f"Compilation-heavy HAVING sweep ({groups} groups x {terms} "
            f"terms x {variables} vars)",
            ["workers", "mean_ms", "speedup"],
            rows,
        )

    # Codegen off/on on the serial per-world MC loop: same drawn worlds,
    # different evaluator — the answers must be bit-identical.  A
    # bag-semantics join, so the loop runs with the numpy kernels on
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
