"""The per-world path, world by world, on a corpus of query shapes.

:func:`repro.query.executor.world_evaluator` — the interpreter over the
tables a plan reads, instantiated per valuation — is the one per-world
path: the brute-force oracle and Monte-Carlo's per-world loop both run
on it.  The oracle for *it* is the possible-worlds semantics of
Definition 6 spelled out: :func:`repro.db.worlds.enumerate_database_worlds`
materialises every world of the whole database, and the interpreter
runs the plan on it.  On every world of every database × shape below:

* the evaluator returns that world's ``{values: multiplicity}`` mapping,
  equal as a dict *and* in insertion order (fingerprints serialise rows
  in that order), whatever order the worlds are asked in;
* the symbolic step-I answer, instantiated at the world, is the same
  mapping (``ν(Q(D)) = Q(ν(D))``), and so is the optimised plan's;
* the engines built on the per-world path — naive's sums, Monte-Carlo's
  per-world counts — and SPROUT's compiled answer agree with the sums
  over the materialised worlds.

The databases are small (four variables, 16 worlds); the shapes cover
every physical operator and every aggregation monoid, in 𝔹 and in ℕ.
"""

from __future__ import annotations

import pytest

from repro.algebra.expressions import SConst, Var
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.algebra.valuation import Valuation
from repro.cache import capture_stamp
from repro.db.pvc_table import PVCDatabase
from repro.db.worlds import enumerate_database_worlds
from repro.engine import MonteCarloEngine, NaiveEngine, SproutEngine
from repro.prob.space import ProbabilitySpace
from repro.prob.variables import VariableRegistry
from repro.query.ast import (
    AggSpec,
    Extend,
    GroupAgg,
    Product,
    Project,
    Select,
    Union,
    relation,
)
from repro.query.executor import (
    execute_deterministic,
    execute_symbolic,
    prepare,
    world_evaluator,
)
from repro.query.predicates import cmp_, eq, lit


def build_db(semiring):
    """Two joinable tables over four variables (16 worlds), and a
    deterministic table ``T`` that adds no variable."""
    reg = VariableRegistry()
    db = PVCDatabase(registry=reg, semiring=semiring)
    r = db.create_table("R", ["a", "b"])
    reg.bernoulli("x1", 0.4)
    reg.bernoulli("x2", 0.7)
    r.add(("u", 1), Var("x1"))
    if semiring is NATURALS:
        r.add(("u", 1), SConst(2))  # duplicate values, merged multiplicity
    r.add(("v", 2), Var("x2"))
    r.add(("w", 3), SConst(semiring.one))
    s = db.create_table("S", ["c", "d"])
    reg.bernoulli("y1", 0.5)
    reg.bernoulli("y2", 0.8)
    s.add((1, "p"), Var("y1"))
    s.add((2, "q"), Var("y2"))
    s.add((3, "p"), SConst(semiring.one))
    t = db.create_table("T", ["e", "f"])
    for row in (("r", 1), ("s", 2), ("t", 3)):
        t.add(row, SConst(semiring.one))
    return db


JOIN = Select(Product(relation("R"), relation("S")), eq("b", "c"))

#: Products require disjoint schemas and unions identical ones, hence
#: the shapes.
QUERY_SHAPES = {
    "project": Project(relation("R"), ["a"]),
    "select": Select(relation("R"), cmp_("b", ">=", 2)),
    "join": Project(JOIN, ["a", "d"]),
    "union": Union(
        Select(relation("R"), eq("a", lit("u"))),
        Select(relation("R"), cmp_("b", ">", 1)),
    ),
    "shared-subplan": Union(
        Select(relation("R"), cmp_("b", ">", 1)),
        Select(relation("R"), cmp_("b", ">", 1)),
    ),
    # Reads only the deterministic table: one world.
    "static-subplan": Union(
        Select(relation("T"), cmp_("f", ">", 1)),
        Select(relation("T"), cmp_("f", ">", 1)),
    ),
    "extend-permute": Project(Extend(relation("R"), "a2", "a"), ["a2", "b", "a"]),
    "groupby": GroupAgg(JOIN, ["d"], [AggSpec.of("n", "count")]),
    "agg-sum": GroupAgg(relation("S"), ["d"], [AggSpec.of("total", "sum", "c")]),
    "agg-max-constants": GroupAgg(
        relation("R"), ["a"], [AggSpec.of(f"m{i}", "max", "b") for i in range(8)]
    ),
    "agg-min": GroupAgg(JOIN, ["d"], [AggSpec.of("low", "min", "b")]),
    "agg-prod": GroupAgg(relation("S"), ["d"], [AggSpec.of("p", "prod", "c")]),
    # ``$∅``: one tuple in every world, neutral values where R is empty.
    "global-agg": GroupAgg(
        relation("R"), [], [AggSpec.of("total", "sum", "b"), AggSpec.of("n", "count")]
    ),
    # A condition on an aggregate value, as in the paper's queries.
    "having": Project(
        Select(
            GroupAgg(JOIN, ["d"], [AggSpec.of("total", "sum", "b")]),
            cmp_("total", ">=", 2),
        ),
        ["d"],
    ),
}

#: The shapes Monte-Carlo's batch evaluator declines: PROD is answered
#: by the per-world loop alone.
PER_WORLD_ONLY = {"agg-prod"}


@pytest.fixture(params=[BOOLEAN, NATURALS], ids=["boolean", "naturals"])
def db(request):
    return build_db(request.param)


@pytest.fixture(params=sorted(QUERY_SHAPES))
def shape(request):
    return request.param


@pytest.fixture
def query(shape):
    return QUERY_SHAPES[shape]


def _prepare(db, query, optimize=False):
    return prepare(query, db.catalog(), db.cardinalities(), optimize=optimize)


def _materialised(db, prepared):
    """``[(answer items, probability)]`` per world of the whole database:
    the interpreter on each world :func:`enumerate_database_worlds`
    materialises."""
    return [
        (list(execute_deterministic(prepared, world, db.semiring).tuples()), p)
        for world, p in enumerate_database_worlds(db)
    ]


def _valuations(db):
    """Every valuation of every variable of ``db``, in the order
    :func:`enumerate_database_worlds` builds its worlds."""
    space = ProbabilitySpace(db.registry, db.semiring)
    return list(space.enumerate_worlds(sorted(db.variables)))


def _evaluator(db, prepared, names):
    stamp = capture_stamp(db, prepared.query.base_relations())
    return world_evaluator(prepared, db, names, stamp)


def _world_sums(db, query):
    """``{values: P[values ∈ answer]}`` summed over materialised worlds."""
    sums: dict = {}
    for items, p in _materialised(db, _prepare(db, query)):
        for values, _ in items:
            sums[values] = sums.get(values, 0.0) + p
    return sums


class TestEvaluatorConformance:
    def test_every_world_matches_the_materialised_one(self, db, query):
        prepared = _prepare(db, query)
        evaluate = _evaluator(db, prepared, sorted(db.variables))
        expected = _materialised(db, prepared)
        valuations = _valuations(db)
        assert len(valuations) == len(expected)
        for (valuation, p_val), (items, p_world) in zip(valuations, expected):
            assert p_val == pytest.approx(p_world)
            actual = list(evaluate(valuation.assignment).items())
            assert actual == items  # content AND insertion order

    def test_worlds_answer_alike_in_any_order(self, db, query):
        """The plan's ``op_cache`` outlives every world: nothing one
        world leaves in it may show in another's answer."""
        evaluate = _evaluator(db, _prepare(db, query), sorted(db.variables))
        assignments = [valuation.assignment for valuation, _ in _valuations(db)]
        forward = [list(evaluate(a).items()) for a in assignments]
        backward = [list(evaluate(a).items()) for a in reversed(assignments)]
        assert backward[::-1] == forward

    def test_the_first_world_fills_the_op_cache(self, db, query):
        """What the walk memoises per operator is built once per plan,
        not once per world."""
        prepared = _prepare(db, query)
        evaluate = _evaluator(db, prepared, sorted(db.variables))
        first, *rest = [valuation.assignment for valuation, _ in _valuations(db)]
        evaluate(first)
        filled = dict(prepared.op_cache)
        for assignment in rest:
            evaluate(assignment)
        assert prepared.op_cache.keys() == filled.keys()
        for key, entry in filled.items():
            assert prepared.op_cache[key] is entry, key


class TestDomainsAgree:
    def test_symbolic_answer_instantiates_to_every_world(self, db, query):
        """``ν(Q(D)) = Q(ν(D))``: instantiating step I's pvc-table at a
        world is the interpreter's answer on that world."""
        prepared = _prepare(db, query)
        symbolic = execute_symbolic(prepared, db)
        for (valuation, _), (items, _) in zip(
            _valuations(db), _materialised(db, prepared)
        ):
            instantiated = symbolic.instantiate(valuation, db.semiring)
            assert dict(instantiated.tuples()) == dict(items)

    def test_the_optimised_plan_answers_every_world_alike(self, db, query):
        plain = _materialised(db, _prepare(db, query))
        optimised = _materialised(db, _prepare(db, query, optimize=True))
        for (items, _), (rewritten, _) in zip(plain, optimised):
            assert dict(rewritten) == dict(items)


class TestNaiveIsTheWorldSum:
    def test_tuple_probabilities(self, db, query):
        expected = _world_sums(db, query)
        actual = NaiveEngine(db).tuple_probabilities(query)
        assert actual.keys() == expected.keys()
        for values, p in expected.items():
            assert actual[values] == pytest.approx(p, abs=1e-12), values

    def test_multiplicity_distributions(self, db, query):
        engine = NaiveEngine(db)
        materialised = _materialised(db, _prepare(db, query))
        zero = db.semiring.zero
        for values in _world_sums(db, query):
            expected: dict = {}
            for items, p in materialised:
                m = dict(items).get(values, zero)
                expected[m] = expected.get(m, 0.0) + p
            actual = engine.multiplicity_distribution(query, values)
            assert actual.support() == set(expected), values
            for m, p in expected.items():
                assert actual[m] == pytest.approx(p, abs=1e-12), (values, m)

    def test_answer_relation_distribution(self, db, query):
        expected: dict = {}
        for items, p in _materialised(db, _prepare(db, query)):
            key = frozenset(values for values, _ in items)
            expected[key] = expected.get(key, 0.0) + p
        actual = NaiveEngine(db).answer_relation_distribution(query)
        assert actual.support() == set(expected)
        for key, p in expected.items():
            assert actual[key] == pytest.approx(p, abs=1e-12)

    def test_only_the_read_tables_are_enumerated(self, db, query, monkeypatch):
        seen = []
        enumerate_worlds = ProbabilitySpace.enumerate_worlds

        def record(space, names=None):
            seen.append(list(names))
            return enumerate_worlds(space, names)

        monkeypatch.setattr(ProbabilitySpace, "enumerate_worlds", record)
        NaiveEngine(db).tuple_probabilities(query)
        read = query.base_relations()
        assert seen == [
            sorted(frozenset().union(*(db.tables[name].variables for name in read)))
        ]
        if read == ["T"]:
            assert seen == [[]]  # a deterministic answer: one world


class TestEnginesAgreeWithTheWorlds:
    def test_sprout_tuple_probabilities(self, db, query):
        expected = _world_sums(db, query)
        actual = SproutEngine(db).run(query).tuple_probabilities()
        assert actual.keys() == expected.keys()
        for values, p in expected.items():
            assert actual[values] == pytest.approx(p, abs=1e-9), values

    def test_montecarlo_per_world_counts(self, db, query, shape):
        """Monte-Carlo's per-world loop on one draw: each sampled world's
        answer is the materialised world's, and the batch evaluator,
        where it applies, counts the same."""
        engine = MonteCarloEngine(db, seed=7)
        names = sorted(
            frozenset().union(
                *(db.tables[name].variables for name in query.base_relations())
            )
        )
        samples = 200
        drawn = engine._sample_index_columns(names, samples)
        prepared = _prepare(db, query)
        counts, _ = engine._per_world_counts(
            drawn, samples, _evaluator(db, prepared, list(drawn))
        )
        expected: dict = {}
        supports = {name: values for name, (values, _) in drawn.items()}
        for i in range(samples):
            assignment = {name: supports[name][drawn[name][1][i]] for name in names}
            valuation = Valuation(assignment, db.semiring)
            world = {
                table: db.tables[table].instantiate(valuation, db.semiring)
                for table in query.base_relations()
            }
            for values, _ in execute_deterministic(prepared, world, db.semiring).tuples():
                expected[values] = expected.get(values, 0) + 1
        assert counts == expected
        batched = engine._batched_counts(query, drawn, samples)
        if shape in PER_WORLD_ONLY:
            assert batched is None
        else:
            assert batched == counts
