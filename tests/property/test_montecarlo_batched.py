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

Under 𝔹 a two-valued support's presence column is read straight off
its index column; every other column is gathered from its support
values.  A second differential holds the first path to the second on
the same drawn columns.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import ONE, Var, sprod, ssum
from repro.algebra.monoid import MIN, SUM
from repro.algebra.semimodule import MConst, aggsum, tensor
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.algebra.valuation import support_column
from repro.db.pvc_table import PVCDatabase
from repro.engine import montecarlo
from repro.engine.montecarlo import MonteCarloEngine
from repro.prob.distribution import Distribution
from repro.prob.variables import VariableRegistry
from repro.query.ast import AggSpec, GroupAgg, Product, Project, Select, relation
from repro.query.predicates import cmp_, eq

from tests.conftest import batch_evaluator_off, per_world_counts
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
    return fill_tables(draw, db, max_rows)


def fill_tables(draw, db, max_rows):
    """``QUERY_TABLES`` with 1–``max_rows`` rows each, annotated over
    the pool."""
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
    names = sorted(
        set().union(
            *(engine.db.tables[name].variables for name in query.base_relations())
        )
    )
    return engine._sample_index_columns(names, samples)


def assert_same_counts(db, query, seed, samples=101):
    engine = MonteCarloEngine(db, seed=seed)
    drawn = draw_columns(engine, query, samples)
    batched = engine._batched_counts(query, drawn, samples)
    assert batched is not None, "integer data must not fall back"
    oracle, _ = per_world_counts(engine, query, drawn, samples)
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
    engine = MonteCarloEngine(db, seed=seed)
    context = engine._run_context(query)
    drawn = engine._sample_index_columns(context.supports, 150)
    estimate, info = engine._evaluate_drawn(context, drawn, 150)
    assert info["batched"] is True
    with batch_evaluator_off():
        per_world = engine._run_context(query)
    assert list(per_world.supports) == list(context.supports)
    oracle, info = engine._evaluate_drawn(per_world, drawn, 150)
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
    drawn = draw_columns(engine, query, 300)
    assert engine._batched_counts(query, drawn, 300) is None
    counts, _ = per_world_counts(engine, query, drawn, 300)
    assert counts[(1, 0)] == 300  # never 2 per world
    estimate = MonteCarloEngine(db, seed=3).tuple_probabilities(query, 300)
    assert estimate[(1, 0)] == 1.0


# -- presence columns read off the draw ------------------------------------

#: A support of each kind ``_batched_counts`` tells apart: 𝔹 in both
#: value orders, point masses, and (ℕ) two values in both orders or
#: more.
BOOLEAN_SUPPORTS = st.one_of(
    probabilities.map(Distribution.bernoulli),  # (True, False)
    probabilities.map(lambda p: Distribution({False: 1.0 - p, True: p})),
    st.sampled_from([Distribution.bernoulli(0.0), Distribution.bernoulli(1.0)]),
)
NATURAL_SUPPORTS = st.one_of(
    probabilities.map(lambda p: Distribution.bernoulli(p, one=1, zero=0)),
    probabilities.map(lambda p: Distribution({0: 1.0 - p, 1: p})),
    st.just(Distribution({0: 0.2, 2: 0.3, 3: 0.5})),
)

#: Two support values that coerce to one truth value under 𝔹.
EQUAL_UNDER_BOOLEAN = [(True, 1), (0, False)]


@st.composite
def presence_databases(draw, max_rows=4):
    semiring = draw(st.sampled_from([BOOLEAN, NATURALS]))
    supports = BOOLEAN_SUPPORTS if semiring.is_boolean else NATURAL_SUPPORTS
    registry = VariableRegistry()
    for name in POOL:
        registry.declare(name, draw(supports))
    db = PVCDatabase(registry=registry, semiring=semiring)
    return fill_tables(draw, db, max_rows)


def gathered_counts(engine, query, drawn, samples):
    """``_batched_counts`` with every presence column gathered."""
    with mock.patch.object(
        montecarlo, "_presence_column", lambda *args: None
    ):
        return engine._batched_counts(query, drawn, samples)


@settings(max_examples=120, deadline=None)
@given(
    presence_databases(),
    queries(),
    st.integers(0, 999),
    st.sampled_from([1, 101]),
    st.sampled_from([200, montecarlo._BATCH_CELLS]),
    st.data(),
)
def test_read_off_presence_equals_the_gather(
    db, query, seed, samples, cells, data
):
    """101 worlds is prime, so a 200-cell chunk never divides them."""
    engine = MonteCarloEngine(db, seed=seed)
    drawn = draw_columns(engine, query, samples)
    pairs = sorted(name for name, (values, _) in drawn.items() if len(values) == 2)
    if db.semiring.is_boolean and pairs:
        # Values the registry cannot hold (they are equal keys), but the
        # evaluator must still not read them off the draw.
        for name in data.draw(st.sets(st.sampled_from(pairs))):
            pair = data.draw(st.sampled_from(EQUAL_UNDER_BOOLEAN))
            drawn[name] = (pair, drawn[name][1])
    with mock.patch.object(montecarlo, "_BATCH_CELLS", cells):
        read_off = engine._batched_counts(query, drawn, samples)
        assert read_off is not None
        assert typed(read_off) == typed(
            gathered_counts(engine, query, drawn, samples)
        )


class TestPresenceColumn:
    def indices(self):
        return (np.array([0.1, 0.9, 0.6, 0.3]) >= 0.5).view(np.uint8)

    def test_false_true_is_the_index_column_itself(self):
        indices = self.indices()
        column = montecarlo._presence_column((False, True), indices, BOOLEAN)
        assert column.dtype == bool and np.shares_memory(column, indices)
        assert column.tolist() == [False, True, True, False]

    def test_true_false_is_its_negation(self):
        column = montecarlo._presence_column(
            (True, False), self.indices(), BOOLEAN
        )
        assert column.dtype == bool
        assert column.tolist() == [True, False, False, True]

    @pytest.mark.parametrize(
        "values, semiring",
        [
            ((0, 1), NATURALS),  # ℕ keeps int64 multiplicities
            ((True, 1), BOOLEAN),  # coerce equal
            ((0, False), BOOLEAN),
            ((True,), BOOLEAN),  # one value
        ],
    )
    def test_everything_else_is_gathered(self, values, semiring):
        assert (
            montecarlo._presence_column(values, self.indices(), semiring)
            is None
        )


def test_a_bernoulli_database_gathers_nothing():
    """Every variable of ``pinned_db`` is a Bernoulli: a batched run
    reads every presence column off its draw."""
    counting = mock.Mock(wraps=support_column)
    with mock.patch.object(montecarlo, "support_column", counting):
        result = MonteCarloEngine(pinned_db(), seed=5).run(
            PINNED["join_then_having"], samples=300
        )
    assert result.stats["batched"] is True
    assert counting.call_count == 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(probabilities, st.floats(0.5, 1.0)), min_size=1, max_size=8
    )
)
def test_two_valued_cdfs_equal_the_per_variable_ones(weights):
    """One pass over the k×2 weight matrix, row for row bit-identical to
    normalising, ``cumsum`` and dividing by the last entry per variable
    (weights summing to less than 1 included)."""
    registry = VariableRegistry()
    names = [f"x{i}" for i in range(len(weights))]
    for name, (p, total) in zip(names, weights):
        registry.declare(
            name, Distribution({True: p * total, False: (1.0 - p) * total})
        )
    engine = MonteCarloEngine(PVCDatabase(registry=registry), seed=0)
    supports = engine._supports(names)
    for name in names:
        values, cdf = supports[name]
        assert values == tuple(registry[name])
        w = np.asarray([registry[name][value] for value in values], dtype=float)
        expected = (w / w.sum()).cumsum()
        expected /= expected[-1]
        assert cdf.tobytes() == expected.tobytes()
