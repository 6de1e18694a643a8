"""Join-heavy benchmarks: star joins, chain joins, and a TPC-H Q3 shape.

Measures **step I only** — computing the pvc-table of symbolically
annotated result tuples (``SproutEngine.rewrite``) — on the query shapes
where the physical plan layer matters: equi-joins extracted from
``σ(× ...)``.  Three series:

* ``star``   — one probabilistic fact table joined to three certain
  dimension tables on surrogate keys, with a selective constant predicate
  on one dimension (the classic data-warehouse shape);
* ``chain``  — a linear join R₁ ⋈ R₂ ⋈ ... ⋈ Rₙ over adjacent keys;
* ``tpch_q3`` — a customer ⋈ orders ⋈ lineitem join with constant
  selections and a grouped SUM, in the style of TPC-H Q3.

A fourth series, ``per_world``, times repeated *deterministic*
execution of the star and Q3 plans — the inner loop of the per-world
engines — through :func:`repro.query.executor.world_evaluator`, the
interpreter's plan walk over one instantiated world per call.

Supports the shared ``--smoke`` / ``--json PATH`` / ``--baseline PATH``
flags; the committed pre-PR reference lives at
``benchmarks/baselines/bench_joins_pre_pr.json``.
"""

from __future__ import annotations

if __package__ in (None, ""):  # direct script execution: python benchmarks/...
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import random
import statistics
import time

from benchmarks.common import BenchReport, print_series, smoke_mode
from repro.algebra.expressions import Var
from repro.algebra.semiring import BOOLEAN
from repro.cache import capture_stamp
from repro.db.pvc_table import PVCDatabase
from repro.engine.sprout import SproutEngine
from repro.prob.variables import VariableRegistry
from repro.query.ast import AggSpec, GroupAgg, Project, Select, product_of, relation
from repro.query.executor import prepare, world_evaluator
from repro.query.predicates import cmp_, conj, eq

RUNS = 3

#: Full-sweep parameters (smoke mode trims each series to one tiny point).
STAR_FACT_ROWS = [500, 1000, 2000]
CHAIN_LENGTHS = [3, 4, 5]
TPCH_SCALES = [1, 2]


def _fresh_db() -> tuple[PVCDatabase, VariableRegistry]:
    registry = VariableRegistry()
    return PVCDatabase(registry=registry, semiring=BOOLEAN), registry


def build_star(fact_rows: int, dims: int = 3, dim_rows: int = 50, seed: int = 0):
    """A star schema: probabilistic fact, certain dimensions.

    The query joins the fact table to every dimension on its surrogate key
    and keeps only one dimension category (a 1-in-10 constant predicate).
    """
    rng = random.Random(seed)
    db, registry = _fresh_db()
    fact = db.create_table("fact", [f"fk{d}" for d in range(dims)] + ["measure"])
    for i in range(fact_rows):
        name = f"f{i}"
        registry.bernoulli(name, 0.5)
        keys = tuple(rng.randrange(dim_rows) for _ in range(dims))
        fact.add(keys + (rng.randint(1, 100),), Var(name))
    for d in range(dims):
        table = db.create_table(f"dim{d}", [f"d{d}_key", f"d{d}_cat"])
        for k in range(dim_rows):
            table.add((k, k % 10))
    atoms = [eq(f"fk{d}", f"d{d}_key") for d in range(dims)]
    atoms.append(eq("d0_cat", 3))
    query = Project(
        Select(
            product_of(relation("fact"), *(relation(f"dim{d}") for d in range(dims))),
            conj(*atoms),
        ),
        ["fk0", "measure", "d1_cat"],
    )
    return db, query


def build_chain(length: int, rows: int = 400, seed: int = 0):
    """A chain join R₁ ⋈ R₂ ⋈ ... over adjacent key equalities."""
    rng = random.Random(seed)
    db, registry = _fresh_db()
    domain = rows // 4
    for t in range(length):
        table = db.create_table(f"r{t}", [f"a{t}", f"b{t}"])
        for i in range(rows):
            name = f"r{t}_{i}"
            registry.bernoulli(name, 0.5)
            table.add((rng.randrange(domain), rng.randrange(domain)), Var(name))
    atoms = [eq(f"b{t}", f"a{t + 1}") for t in range(length - 1)]
    atoms.append(eq("a0", 1))
    query = Project(
        Select(
            product_of(*(relation(f"r{t}") for t in range(length))),
            conj(*atoms),
        ),
        ["a0", f"b{length - 1}"],
    )
    return db, query


def build_tpch_q3(scale: int = 1, seed: int = 0):
    """Customer ⋈ orders ⋈ lineitem with selections and a grouped SUM."""
    rng = random.Random(seed)
    db, registry = _fresh_db()
    customers, orders, lineitems = 30 * scale, 150 * scale, 600 * scale
    customer = db.create_table("customer", ["c_key", "c_segment"])
    for c in range(customers):
        customer.add((c, c % 5))
    order = db.create_table("orders", ["o_key", "o_custkey", "o_date"])
    for o in range(orders):
        order.add((o, rng.randrange(customers), rng.randint(1, 30)))
    lineitem = db.create_table("lineitem", ["l_orderkey", "l_price"])
    for i in range(lineitems):
        name = f"l{i}"
        registry.bernoulli(name, 0.5)
        lineitem.add((rng.randrange(orders), rng.randint(1, 500)), Var(name))
    joined = Select(
        product_of(relation("customer"), relation("orders"), relation("lineitem")),
        conj(
            eq("c_key", "o_custkey"),
            eq("o_key", "l_orderkey"),
            eq("c_segment", 1),
            cmp_("o_date", "<", 15),
        ),
    )
    query = GroupAgg(
        Project(joined, ["o_key", "l_price"]),
        ["o_key"],
        [AggSpec.of("revenue", "SUM", "l_price")],
    )
    return db, query


def measure_per_world(db, query, worlds: int, runs: int, seed: int = 7):
    """Mean seconds to evaluate ``worlds`` random worlds, one
    :func:`world_evaluator` call each (planned and snapshotted once)."""
    prepared = prepare(query, db.catalog(), db.cardinalities())
    read = query.base_relations()
    stamp = capture_stamp(db, read)
    names = sorted(frozenset().union(*(db.tables[name].variables for name in read)))
    evaluate = world_evaluator(prepared, db, names, stamp)
    rng = random.Random(seed)
    assignments = [
        {name: rng.random() < 0.5 for name in names} for _ in range(worlds)
    ]
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        for assignment in assignments:
            evaluate(assignment)
        times.append(time.perf_counter() - start)
    return statistics.mean(times)


def time_rewrite(db, query, runs: int = RUNS) -> tuple[float, float]:
    """Mean/stdev wall-clock of step I (symbolic result construction)."""
    engine = SproutEngine(db)
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        engine.rewrite(query)
        times.append(time.perf_counter() - start)
    mean = statistics.mean(times)
    stdev = statistics.stdev(times) if len(times) > 1 else 0.0
    return mean, stdev


def main() -> None:
    smoke = smoke_mode()
    runs = 1 if smoke else RUNS
    report = BenchReport("bench_joins", runs=runs, smoke=smoke)

    fact_sweep = [120] if smoke else STAR_FACT_ROWS
    rows = []
    for fact_rows in fact_sweep:
        db, query = build_star(fact_rows)
        mean, stdev = time_rewrite(db, query, runs)
        rows.append(("star", fact_rows, f"{mean * 1000:.1f}ms", f"±{stdev * 1000:.1f}"))
        report.add("star", {"fact_rows": fact_rows, "runs": runs}, mean=mean, stdev=stdev)
    print_series("Star joins — fact ⋈ dim×3", ["series", "fact_rows", "mean", "stdev"], rows)

    chain_sweep = [3] if smoke else CHAIN_LENGTHS
    chain_rows = 80 if smoke else 400
    rows = []
    for length in chain_sweep:
        db, query = build_chain(length, rows=chain_rows)
        mean, stdev = time_rewrite(db, query, runs)
        rows.append(("chain", length, f"{mean * 1000:.1f}ms", f"±{stdev * 1000:.1f}"))
        report.add("chain", {"length": length, "rows": chain_rows, "runs": runs}, mean=mean, stdev=stdev)
    print_series("Chain joins — R₁ ⋈ ... ⋈ Rₙ", ["series", "length", "mean", "stdev"], rows)

    tpch_sweep = [1] if smoke else TPCH_SCALES
    rows = []
    for scale in tpch_sweep:
        db, query = build_tpch_q3(scale)
        mean, stdev = time_rewrite(db, query, runs)
        rows.append(("tpch_q3", scale, f"{mean * 1000:.1f}ms", f"±{stdev * 1000:.1f}"))
        report.add("tpch_q3", {"scale": scale, "runs": runs}, mean=mean, stdev=stdev)
    print_series("TPC-H Q3 shape — customer ⋈ orders ⋈ lineitem", ["series", "scale", "mean", "stdev"], rows)

    # Per-world deterministic execution: the interpreter, world by world.
    worlds = 20 if smoke else 200
    shapes = [
        ("star", build_star(120 if smoke else 500)),
        ("tpch_q3", build_tpch_q3(1)),
    ]
    rows = []
    for shape, (db, query) in shapes:
        mean = measure_per_world(db, query, worlds, runs)
        rows.append((shape, worlds, f"{mean * 1000:.1f}ms"))
        report.add(
            "per_world", {"shape": shape, "worlds": worlds, "runs": runs}, mean=mean
        )
    print_series(
        f"Per-world execution — interpreter ({worlds} worlds)",
        ["shape", "worlds", "mean"],
        rows,
    )

    report.finish()


if __name__ == "__main__":
    main()
