"""Tests for the brute-force possible-worlds engine."""

import math
import time

import pytest

from repro.algebra.expressions import Var
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.db.pvc_table import PVCDatabase
from repro.db.relation import Relation
from repro.db.schema import Schema
from repro.engine.naive import NaiveEngine
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
from repro.query.executor import execute_deterministic, prepare
from repro.query.predicates import cmp_, eq
from repro.resilience.deadline import Deadline, DeadlineExceeded, deadline_scope


def simple_db():
    reg = VariableRegistry()
    db = PVCDatabase(registry=reg, semiring=BOOLEAN)
    r = db.create_table("R", ["a", "v"])
    reg.bernoulli("x", 0.5)
    reg.bernoulli("y", 0.4)
    r.add((1, 10), Var("x"))
    r.add((1, 20), Var("y"))
    return db


class TestDeterministicEvaluation:
    def world(self):
        rel = Relation(Schema(["a", "v"]), BOOLEAN)
        rel.add((1, 10), True)
        rel.add((1, 20), True)
        rel.add((2, 30), True)
        return {"R": rel}

    def evaluate(self, query):
        """Plan as written (``optimize=False``) and run on the one world."""
        world = self.world()
        prepared = prepare(
            query,
            {name: rel.schema for name, rel in world.items()},
            {name: len(rel) for name, rel in world.items()},
            optimize=False,
        )
        return execute_deterministic(prepared, world, BOOLEAN)

    def test_select(self):
        result = self.evaluate(Select(relation("R"), eq("a", 1)))
        assert result.support() == {(1, 10), (1, 20)}

    def test_project(self):
        result = self.evaluate(Project(relation("R"), ["a"]))
        assert result.support() == {(1,), (2,)}

    def test_extend(self):
        result = self.evaluate(Extend(relation("R"), "a2", "a"))
        assert (1, 10, 1) in result.support()

    def test_group_aggregate(self):
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("m", "MIN", "v")])
        result = self.evaluate(query)
        assert result.support() == {(1, 10), (2, 30)}

    def test_count_star(self):
        query = GroupAgg(relation("R"), [], [AggSpec.of("n", "COUNT")])
        result = self.evaluate(query)
        assert result.support() == {(3,)}

    def test_unknown_relation_raises(self):
        from repro.errors import QueryValidationError

        with pytest.raises(QueryValidationError):
            self.evaluate(relation("Z"))


class TestDeadlineCheckpoint:
    """Every oracle sweep runs through the one worlds iterator, so every
    sweep carries its per-world deadline checkpoint."""

    SWEEPS = {
        "tuple_probabilities": lambda e, q: e.tuple_probabilities(q),
        "multiplicity_distribution": lambda e, q: e.multiplicity_distribution(
            q, (1, 10)
        ),
        "answer_relation_distribution": lambda e, q: (
            e.answer_relation_distribution(q)
        ),
    }

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_sweep_raises_under_an_expired_scope(self, sweep):
        engine = NaiveEngine(simple_db())
        deadline = Deadline(0.001)
        time.sleep(0.005)
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceeded, match="possible-worlds"):
                self.SWEEPS[sweep](engine, relation("R"))

    def test_run_turns_the_trip_into_a_timeout_without_a_spec(self):
        from repro.errors import QueryTimeoutError

        deadline = Deadline(0.001)
        time.sleep(0.005)
        with deadline_scope(deadline):
            with pytest.raises(QueryTimeoutError) as caught:
                NaiveEngine(simple_db()).run(relation("R"))
        assert caught.value.partial is None


class TestEnumeratedVariables:
    """Only the variables of the tables a query reads are enumerated: an
    unread table's variables would multiply the worlds and change no
    answer."""

    def db(self):
        db = simple_db()
        s = db.create_table("S", ["b"])
        for i in range(3):
            db.registry.bernoulli(f"z{i}", 0.3)
            s.add((i,), Var(f"z{i}"))
        return db

    def enumerated(self, db, query, monkeypatch):
        from repro.prob.space import ProbabilitySpace

        seen = []
        original = ProbabilitySpace.enumerate_worlds

        def record(space, names=None):
            seen.append(list(names))
            return original(space, names)

        monkeypatch.setattr(ProbabilitySpace, "enumerate_worlds", record)
        probabilities = NaiveEngine(db).tuple_probabilities(query)
        return seen, probabilities

    def test_an_unread_table_adds_no_variable(self, monkeypatch):
        seen, probabilities = self.enumerated(self.db(), relation("R"), monkeypatch)
        assert seen == [["x", "y"]]
        assert probabilities == pytest.approx({(1, 10): 0.5, (1, 20): 0.4}, abs=1e-12)

    def test_every_read_table_is_enumerated(self, monkeypatch):
        query = Product(relation("R"), relation("S"))
        seen, probabilities = self.enumerated(self.db(), query, monkeypatch)
        assert seen == [["x", "y", "z0", "z1", "z2"]]
        assert probabilities[(1, 20, 2)] == pytest.approx(0.4 * 0.3, abs=1e-12)


class TestTupleProbabilities:
    def test_base_relation_probabilities(self):
        engine = NaiveEngine(simple_db())
        probs = engine.tuple_probabilities(relation("R"))
        assert probs[(1, 10)] == pytest.approx(0.5)
        assert probs[(1, 20)] == pytest.approx(0.4)

    def test_projection_merges_probability(self):
        engine = NaiveEngine(simple_db())
        probs = engine.tuple_probabilities(Project(relation("R"), ["a"]))
        assert probs[(1,)] == pytest.approx(1 - 0.5 * 0.6)

    def test_aggregate_outcomes_are_distinct_answers(self):
        engine = NaiveEngine(simple_db())
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("s", "SUM", "v")])
        probs = engine.tuple_probabilities(query)
        assert probs[(1, 30)] == pytest.approx(0.5 * 0.4)
        assert probs[(1, 10)] == pytest.approx(0.5 * 0.6)
        assert probs[(1, 20)] == pytest.approx(0.5 * 0.4)
        assert (1, 0) not in probs  # empty group produces no tuple

    def test_global_aggregate_exists_in_every_world(self):
        engine = NaiveEngine(simple_db())
        query = GroupAgg(relation("R"), [], [AggSpec.of("m", "MIN", "v")])
        probs = engine.tuple_probabilities(query)
        assert sum(probs.values()) == pytest.approx(1.0)
        assert probs[(math.inf,)] == pytest.approx(0.5 * 0.6)


class TestMultiplicityDistribution:
    def test_bag_semantics_multiplicities(self):
        reg = VariableRegistry()
        db = PVCDatabase(registry=reg, semiring=NATURALS)
        r = db.create_table("R", ["a"])
        reg.integer("m", {0: 0.25, 1: 0.5, 2: 0.25})
        r.add((1,), Var("m"))
        engine = NaiveEngine(db)
        dist = engine.multiplicity_distribution(relation("R"), (1,))
        assert dist[0] == pytest.approx(0.25)
        assert dist[2] == pytest.approx(0.25)

    def test_projection_adds_multiplicities(self):
        reg = VariableRegistry()
        db = PVCDatabase(registry=reg, semiring=NATURALS)
        r = db.create_table("R", ["a", "b"])
        reg.integer("m", {1: 0.5, 2: 0.5})
        reg.integer("n", {1: 1.0})
        r.add((1, 10), Var("m"))
        r.add((1, 20), Var("n"))
        engine = NaiveEngine(db)
        dist = engine.multiplicity_distribution(
            Project(relation("R"), ["a"]), (1,)
        )
        assert dist[2] == pytest.approx(0.5)
        assert dist[3] == pytest.approx(0.5)


class TestAnswerRelationDistribution:
    def test_full_answer_distribution(self):
        engine = NaiveEngine(simple_db())
        dist = engine.answer_relation_distribution(Project(relation("R"), ["a"]))
        assert dist[frozenset()] == pytest.approx(0.5 * 0.6)
        assert dist[frozenset({(1,)})] == pytest.approx(1 - 0.3)
