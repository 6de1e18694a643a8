"""Differential property: batched valuation == the per-world loop.

The Monte-Carlo engine runs step I once, symbolically, and valuates the
answer's annotations over the whole batch of drawn worlds; the per-world
loop it replaced on those queries stays as the oracle.  On *identical*
drawn columns the two must count identically — same answer tuples, same
Python value types, same counts — for every query shape of
``strategies.queries()``, over databases with correlated annotations
(sums and products of shared variables), certain rows and rows stored
with duplicate values, under set semantics (𝔹) and bag semantics (ℕ,
multiplicities 0–3).  The batched path is never compared with itself:
the oracle is ``_per_world_counts`` on the same columns, or
``_evaluate_drawn`` on a run context whose batch evaluator is switched
off.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import ONE, Var, sprod, ssum
from repro.algebra.monoid import MIN, SUM
from repro.algebra.semimodule import MConst, aggsum, tensor
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.db.pvc_table import PVCDatabase
from repro.engine import montecarlo
from repro.engine.montecarlo import MonteCarloEngine
from repro.prob import kernels
from repro.prob.variables import VariableRegistry
from repro.query.ast import AggSpec, GroupAgg, Product, Project, Select, relation
from repro.query.predicates import cmp_, eq

from tests.property.strategies import QUERY_TABLES, probabilities, queries

POOL = ["p0", "p1", "p2", "p3"]


@st.composite
def correlated_annotations(draw):
    """1_K, a variable, a product, or a sum of products over one shared
    pool — rows of one database are correlated through it."""
    shape = draw(st.integers(0, 3))
    if shape == 0:
        return ONE
    monomial = st.lists(st.sampled_from(POOL), min_size=1, max_size=3).map(
        lambda names: sprod(Var(name) for name in names)
    )
    if shape < 3:
        return draw(monomial)
    return ssum(draw(st.lists(monomial, min_size=2, max_size=3)))


@st.composite
def correlated_databases(draw, max_rows=4):
    """Rows over one shared pool, under 𝔹 (Bernoulli variables) or ℕ
    (multiplicities within {0, …, 3})."""
    semiring = draw(st.sampled_from([BOOLEAN, NATURALS]))
    registry = VariableRegistry()
    for name in POOL:
        if semiring.is_boolean:
            registry.bernoulli(name, draw(probabilities))
            continue
        support = draw(
            st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True)
        )
        weights = [draw(st.integers(1, 4)) for _ in support]
        registry.integer(
            name,
            {value: weight / sum(weights) for value, weight in zip(support, weights)},
        )
    db = PVCDatabase(registry=registry, semiring=semiring)
    for name, columns in QUERY_TABLES.items():
        table = db.create_table(name, columns)
        for _ in range(draw(st.integers(1, max_rows))):
            # Few distinct values: rows stored with duplicate values are
            # alternatives for one tuple and must merge, not double count.
            values = (draw(st.integers(1, 2)), draw(st.integers(1, 3)))
            table.add(values, draw(correlated_annotations()))
    return db


def typed(counts):
    """Counts keyed so that ``3`` and ``3.0`` are different answers."""
    return {
        (values, tuple(type(v) for v in values)): count
        for values, count in counts.items()
    }


def draw_columns(engine, query, samples):
    referenced = list(dict.fromkeys(query.base_relations()))
    names = sorted(
        set().union(*(engine.db.tables[name].variables for name in referenced))
    )
    return referenced, engine._sample_index_columns(names, samples)


def assert_same_counts(db, query, seed, samples=101):
    engine = MonteCarloEngine(db, seed=seed)
    referenced, drawn = draw_columns(engine, query, samples)
    batched = engine._batched_counts(query, drawn, samples)
    assert batched is not None, "integer data must not fall back"
    oracle, _ = engine._per_world_counts(query, referenced, drawn, samples)
    assert typed(batched) == typed(oracle)


@settings(max_examples=150, deadline=None)
@given(correlated_databases(), queries(), st.integers(0, 999))
def test_batched_counts_equal_per_world_counts(db, query, seed):
    assert_same_counts(db, query, seed)


@settings(max_examples=60, deadline=None)
@given(correlated_databases(), queries(), st.integers(0, 999))
def test_chunked_valuation_adds_up(db, query, seed):
    """101 worlds is prime, so no chunk size divides the batch."""
    with mock.patch.object(montecarlo, "_BATCH_CELLS", 600):
        assert_same_counts(db, query, seed)


@settings(max_examples=12, deadline=None)
@given(correlated_databases(), queries(), st.integers(0, 999))
def test_run_context_counts_equal_a_per_world_evaluation(db, query, seed):
    """Through the run's own dispatch: the same drawn columns, once
    through the batch evaluator and once with it switched off."""
    if not kernels.numpy_enabled():
        return  # the run context then has no batched form to compare
    engine = MonteCarloEngine(db, seed=seed)
    context = engine._run_context(query)
    drawn = engine._sample_index_columns(context.supports, 150)
    estimate, info = engine._evaluate_drawn(context, drawn, 150)
    assert info["batched"] is True
    oracle, info = engine._evaluate_drawn(
        context._replace(symbolic=None), drawn, 150
    )
    assert info["batched"] is False
    assert typed(estimate) == typed(oracle)


def pinned_db():
    registry = VariableRegistry()
    for name, p in zip(POOL, (0.5, 0.3, 0.7, 0.4)):
        registry.bernoulli(name, p)
    db = PVCDatabase(registry=registry, semiring=BOOLEAN)
    r = db.create_table("R", ["a", "u"])
    r.add((1, 3), Var("p0") * Var("p1"))
    r.add((1, 3), Var("p2"))  # same tuple, alternative event
    r.add((1, 5), Var("p0") + Var("p3"))
    r.add((2, 5))  # certain
    r.add((2, 7), Var("p1"))
    s = db.create_table("S", ["b", "w"])
    s.add((1, 4), Var("p0"))
    s.add((2, 4), Var("p3") * Var("p2"))
    return db


def total(spec_name="SUM"):
    return GroupAgg(relation("R"), ["a"], [AggSpec.of("g", spec_name, "u")])


PINNED = {
    # $∅ yields one tuple in every world — the monoid-neutral value
    # (0 for SUM, +∞ for MIN) where nothing is present, also on an
    # input that is empty in every world.
    "global_sum": GroupAgg(relation("S"), [], [AggSpec.of("g", "SUM", "w")]),
    "global_min": GroupAgg(relation("S"), [], [AggSpec.of("g", "MIN", "w")]),
    "global_over_nothing": GroupAgg(
        Select(relation("R"), eq("a", 9)), [], [AggSpec.of("g", "MIN", "u")]
    ),
    # Group 1 is empty in some worlds: no tuple there, not a neutral one.
    "empty_group": total("MAX"),
    "two_aggregates": GroupAgg(
        relation("R"),
        ["a"],
        [AggSpec.of("g", "SUM", "u"), AggSpec.of("n", "COUNT")],
    ),
    # Projecting the aggregate away merges what HAVING kept: per world a
    # tuple is there once, however many groups put it there.
    "projection_after_aggregation": Project(
        Select(
            GroupAgg(relation("R"), ["a", "u"], [AggSpec.of("n", "COUNT")]),
            cmp_("n", ">=", 1),
        ),
        ["u"],
    ),
    "join_then_having": Select(
        GroupAgg(
            Select(Product(relation("R"), relation("S")), eq("a", "b")),
            ["a"],
            [AggSpec.of("g", "SUM", "w")],
        ),
        cmp_("g", "<=", 4),
    ),
    # An aggregate over a filtered aggregate.
    "count_of_groups": GroupAgg(
        Select(total(), cmp_("g", ">=", 8)), [], [AggSpec.of("n", "COUNT")]
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_shapes(name):
    assert_same_counts(pinned_db(), PINNED[name], seed=5, samples=400)


def test_semimodule_values_in_base_tables_dedupe_per_world():
    """Two stored rows whose semimodule values coincide in some worlds
    are one tuple there; such tables keep the per-world loop."""
    db = pinned_db()
    t = db.create_table("V", ["k", "m"], aggregation_attributes=["m"])
    t.add((1, aggsum(SUM, [tensor(Var("p0"), MConst(SUM, 2))])))
    t.add((1, aggsum(SUM, [tensor(Var("p1"), MConst(SUM, 2))])))
    t.add((1, MConst(MIN, 0)))
    query = relation("V")
    engine = MonteCarloEngine(db, seed=3)
    referenced, drawn = draw_columns(engine, query, 300)
    assert engine._batched_counts(query, drawn, 300) is None
    counts, _ = engine._per_world_counts(query, referenced, drawn, 300)
    assert counts[(1, 0)] == 300  # never 2 per world
    estimate = MonteCarloEngine(db, seed=3).tuple_probabilities(query, 300)
    assert estimate[(1, 0)] == 1.0
