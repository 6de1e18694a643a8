"""Property tests: parallel execution never changes an answer.

Random workloads come from the Eq.-11 generator
(:mod:`repro.workloads.random_expr`): each example builds a small
pvc-database whose row annotations are independently generated
aggregation conditions over a shared Bernoulli variable pool.  Three
properties are checked on every example:

* **``workers`` is a no-op on Monte-Carlo** — on the per-world loop
  (batch evaluator off) as on the batch evaluator, seeded (ε, δ) interval
  estimation returns *exactly* the same intervals (and the same
  stopping trajectory) for any worker count, and opens no pool.
* **Parallel exact compilation soundness** — sprout with a worker pool
  matches the brute-force possible-worlds oracle to 1e-9, and
  fingerprints identically at ``workers=1`` and ``workers=2``, i.e. the
  compile fan-out is a pure execution strategy.
* **``workers`` is a no-op off that seam** — the approx engine and
  Monte-Carlo fingerprint identically for ``workers`` ``None``, 1 and
  2, and report no pool.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.algebra.semiring import BOOLEAN
from repro.db.pvc_table import PVCDatabase
from repro.engine.montecarlo import MonteCarloEngine
from repro.engine.spec import EvalSpec
from repro.engine.naive import NaiveEngine
from repro.engine.sprout import SproutEngine
from repro.prob.variables import VariableRegistry
from repro.query.ast import AggSpec, GroupAgg, relation
from repro.server.codec import fingerprint
from repro.workloads.random_expr import ExprParams, generate_condition

from tests.conftest import batch_evaluator_off


@st.composite
def condition_databases(draw):
    """A pvc-database with 2-3 rows annotated by random Eq.-11 conditions.

    The conditions share one variable pool (correlated rows), which is
    exactly the shape that exercises Monte-Carlo's valuation of
    correlated annotations and non-trivial d-tree compilation.
    """
    params = ExprParams(
        left_terms=draw(st.integers(min_value=1, max_value=3)),
        right_terms=0,
        variables=draw(st.integers(min_value=2, max_value=4)),
        clauses=draw(st.integers(min_value=1, max_value=2)),
        literals=draw(st.integers(min_value=1, max_value=2)),
        max_value=8,
        constant=draw(st.integers(min_value=0, max_value=10)),
        theta=draw(st.sampled_from(["=", "<=", ">"])),
        agg_left=draw(st.sampled_from(["SUM", "MIN", "MAX", "COUNT"])),
    )
    base_seed = draw(st.integers(min_value=0, max_value=2**20))
    rows = draw(st.integers(min_value=2, max_value=3))
    registry = VariableRegistry()
    annotations = []
    for i in range(rows):
        expr, generated = generate_condition(params, seed=base_seed * 31 + i)
        for name, dist in generated.items():
            registry.declare(name, dist)  # same p=0.5 pool across rows
        annotations.append(expr)
    db = PVCDatabase(registry=registry, semiring=BOOLEAN)
    table = db.create_table("R", ["i"])
    for i, annotation in enumerate(annotations):
        table.add((i,), annotation)
    return db


def _interval_snapshot(db, seed, workers):
    """A seeded (ε, δ) estimation over several doubling rounds."""
    result = MonteCarloEngine(db, seed=seed).run(
        relation("R"),
        EvalSpec(
            mode="sample", epsilon=0.02, delta=0.1, budget=2560, workers=workers
        ),
    )
    assert "workers" not in result.stats
    assert "parallel_fallback" not in result.stats
    return (
        {row.values: (row.probability().low, row.probability().high)
         for row in result},
        result.stats["samples"],
        result.stats["rounds"],
        result.stats["batched"],
    )


@settings(max_examples=8, deadline=None)
@given(db=condition_databases(), seed=st.integers(min_value=0, max_value=999))
def test_seeded_parallel_mc_intervals_equal_serial_exactly(db, seed):
    with batch_evaluator_off():  # the per-world loop, the fallback
        snapshots = {
            workers: _interval_snapshot(db, seed, workers)
            for workers in (None, 1, 2, 3)
        }
    assert snapshots[None][-1] is False
    assert snapshots[None] == snapshots[1] == snapshots[2] == snapshots[3]


@settings(max_examples=8, deadline=None)
@given(db=condition_databases(), seed=st.integers(min_value=0, max_value=999))
def test_batched_mc_ignores_workers(db, seed):
    snapshots = [
        _interval_snapshot(db, seed, workers) for workers in (None, 1, 2)
    ]
    assert snapshots[0][-1] is True
    assert snapshots[0] == snapshots[1] == snapshots[2]
    prints = set()
    for workers in (None, 1, 2, "auto"):
        result = connect(database=db, seed=seed).run(
            relation("R"), engine="montecarlo", samples=700, workers=workers
        )
        assert "workers" not in result.stats
        prints.add(fingerprint(result))
    assert len(prints) == 1


@settings(max_examples=8, deadline=None)
@given(db=condition_databases())
def test_approx_ignores_workers(db):
    prints = set()
    for workers in (None, 1, 2, "auto"):
        result = connect(database=db).run(
            relation("R"), engine="approx", epsilon=0.01, workers=workers
        )
        assert "workers" not in result.stats
        assert "parallel_fallback" not in result.stats
        prints.add(fingerprint(result))
    assert len(prints) == 1


@settings(max_examples=6, deadline=None)
@given(db=condition_databases())
def test_parallel_sprout_matches_brute_force_oracle(db):
    queries = [
        relation("R"),
        GroupAgg(relation("R"), [], [AggSpec.of("n", "COUNT", None)]),
    ]
    oracle = NaiveEngine(db)
    for query in queries:
        expected = oracle.tuple_probabilities(query)
        result = SproutEngine(db).run(query, EvalSpec(workers=2))
        assert result.stats.get("parallel_fallback") is None
        inline = SproutEngine(db).run(query, EvalSpec(workers=1))
        assert fingerprint(inline) == fingerprint(result)
        actual = result.tuple_probabilities()
        assert set(actual) == set(expected)
        for key, probability in expected.items():
            assert abs(actual[key] - probability) < 1e-9
