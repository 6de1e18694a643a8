"""Tests for the Monte-Carlo sampling baseline."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.algebra.expressions import Var
from repro.algebra.monoid import SUM
from repro.algebra.semimodule import MConst
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.db.pvc_table import PVCDatabase
from repro.engine import montecarlo
from repro.engine.montecarlo import MonteCarloEngine
from repro.engine.naive import NaiveEngine
from repro.engine.spec import EvalSpec
from repro.prob import kernels
from repro.prob.distribution import Distribution
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
from repro.query.sql import parse_sql
from repro.resilience.deadline import Deadline, DeadlineExceeded, deadline_scope
from tests.conftest import per_world_counts


def simple_db():
    reg = VariableRegistry()
    db = PVCDatabase(registry=reg, semiring=BOOLEAN)
    r = db.create_table("R", ["a", "v"])
    reg.bernoulli("x", 0.5)
    reg.bernoulli("y", 0.3)
    r.add((1, 10), Var("x"))
    r.add((1, 20), Var("y"))
    return db


class TestEstimation:
    def test_seeded_runs_are_reproducible(self):
        db = simple_db()
        e1 = MonteCarloEngine(db, seed=7).tuple_probabilities(relation("R"), 200)
        e2 = MonteCarloEngine(db, seed=7).tuple_probabilities(relation("R"), 200)
        assert e1 == e2

    def test_estimates_converge_to_exact(self):
        db = simple_db()
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("m", "MIN", "v")])
        exact = NaiveEngine(db).tuple_probabilities(query)
        estimate = MonteCarloEngine(db, seed=3).tuple_probabilities(query, 5000)
        for key, p in exact.items():
            assert estimate.get(key, 0.0) == pytest.approx(p, abs=0.03)

    def test_having_query(self):
        db = simple_db()
        agg = GroupAgg(relation("R"), ["a"], [AggSpec.of("m", "MAX", "v")])
        query = Project(Select(agg, cmp_("m", "<=", 15)), ["a"])
        exact = NaiveEngine(db).tuple_probabilities(query)
        p = MonteCarloEngine(db, seed=11).estimate_probability(query, (1,), 5000)
        assert p == pytest.approx(exact[(1,)], abs=0.03)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            MonteCarloEngine(simple_db()).tuple_probabilities(relation("R"), 0)

    def test_sample_valuation_covers_all_variables(self):
        db = simple_db()
        valuation = MonteCarloEngine(db, seed=1).sample_valuation()
        assert "x" in valuation and "y" in valuation

    def test_sample_valuation_advances_the_run_stream(self):
        """One world over every registered variable, drawn from the one
        stream the runs draw from: later seeded runs continue after it."""
        db = simple_db()
        engine = MonteCarloEngine(db, seed=5)
        twin = MonteCarloEngine(db, seed=5)
        valuation = engine.sample_valuation()
        drawn = twin._sample_index_columns(db.registry.names(), 1)
        assert {name: valuation[name] for name in drawn} == {
            name: values[indices[0]] for name, (values, indices) in drawn.items()
        }
        answer = engine.run(relation("R"), samples=200).tuple_probabilities()
        assert answer == twin.run(relation("R"), samples=200).tuple_probabilities()
        assert answer != MonteCarloEngine(db, seed=5).run(
            relation("R"), samples=200
        ).tuple_probabilities()


def two_table_db():
    """A database with an extra table the queries never touch."""
    db = simple_db()
    s = db.create_table("S", ["b"])
    for i in range(30):
        db.registry.bernoulli(f"s{i}", 0.5)
        s.add((i,), Var(f"s{i}"))
    return db


class TestBatchedSampler:
    def test_batched_and_per_world_paths_agree_exactly(self):
        """The vectorized batch evaluator is a pure optimisation: on the
        same sampled columns it must produce identical counts."""
        db = two_table_db()
        engine = MonteCarloEngine(db, seed=13)
        queries = [
            relation("R"),
            # global aggregates: $∅ must yield one tuple in every world,
            # with neutral values in worlds where no row is present
            GroupAgg(relation("R"), [], [AggSpec.of("t", "SUM", "v")]),
            GroupAgg(relation("R"), [], [AggSpec.of("m", "MIN", "v")]),
            GroupAgg(relation("R"), ["a"], [AggSpec.of("m", "MIN", "v")]),
            GroupAgg(relation("R"), ["a"], [AggSpec.of("t", "SUM", "v"),
                                            AggSpec.of("n", "COUNT", None)]),
            Project(
                Select(
                    GroupAgg(relation("R"), ["a"], [AggSpec.of("m", "MAX", "v")]),
                    cmp_("m", "<=", 15),
                ),
                ["a"],
            ),
        ]
        for query in queries:
            drawn = engine._sample_index_columns(
                sorted(db.tables["R"].variables), 300
            )
            batched = engine._batched_counts(query, drawn, 300)
            generic, _ = per_world_counts(engine, query, drawn, 300)
            assert batched == generic

    def test_seeded_determinism_of_batched_runs(self):
        db = two_table_db()
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("t", "SUM", "v")])
        first = MonteCarloEngine(db, seed=9).tuple_probabilities(query, 500)
        second = MonteCarloEngine(db, seed=9).tuple_probabilities(query, 500)
        assert first == second
        third = MonteCarloEngine(db, seed=10).tuple_probabilities(query, 500)
        assert first != third  # astronomically unlikely to collide

    def test_only_referenced_relations_are_sampled(self):
        """Sampling is restricted to the query's relations, so the
        unrelated table's variables must not influence the estimate."""
        db = two_table_db()
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("m", "MIN", "v")])
        with_extra = MonteCarloEngine(db, seed=4).tuple_probabilities(query, 800)
        without_extra = MonteCarloEngine(simple_db(), seed=4).tuple_probabilities(
            query, 800
        )
        assert with_extra == without_extra

    def test_batched_fast_path_engages_and_agrees_with_compiled(self):
        db = two_table_db()
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("t", "SUM", "v")])
        result = MonteCarloEngine(db, seed=2).run(query, samples=8000)
        estimate = result.tuple_probabilities()
        assert result.stats["batched"] is True
        # The oracle runs on the two-variable database: the extra table's
        # 30 variables are irrelevant to the query but would make naive
        # world enumeration intractable.
        exact = NaiveEngine(simple_db()).tuple_probabilities(query)
        for key, p in exact.items():
            assert estimate.get(key, 0.0) == pytest.approx(p, abs=0.03)

    def test_complex_annotations_are_batched(self):
        """Non-atomic (correlated) annotations valuate as columns like any
        other: the batch evaluator engages and, on the same drawn
        columns, counts exactly what the per-world loop counts."""
        db = simple_db()
        r = db.tables["R"]
        r.add((2, 30), Var("x") * Var("y"))  # conjunctive annotation
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("m", "MIN", "v")])
        engine = MonteCarloEngine(db, seed=3)
        result = engine.run(query, samples=5000)
        estimate = result.tuple_probabilities()
        assert result.stats["batched"] is True
        drawn = engine._sample_index_columns(["x", "y"], 500)
        assert engine._batched_counts(query, drawn, 500) == (
            per_world_counts(engine, query, drawn, 500)[0]
        )
        exact = NaiveEngine(db).tuple_probabilities(query)
        for key, p in exact.items():
            assert estimate.get(key, 0.0) == pytest.approx(p, abs=0.03)

    def test_float_sum_takes_generic_path(self):
        """Summation order differs between the matrix product and the
        per-world fold, so float-valued SUM columns must not be batched —
        otherwise answer keys could differ in the last ulp from the exact
        engines'."""
        db = PVCDatabase(registry=VariableRegistry(), semiring=BOOLEAN)
        r = db.create_table("R", ["a", "v"])
        for i in range(6):
            db.registry.bernoulli(f"f{i}", 0.5)
            r.add((0, 0.1 * (i + 1)), Var(f"f{i}"))
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("t", "SUM", "v")])
        result = MonteCarloEngine(db, seed=1).run(query, samples=4000)
        estimate = result.tuple_probabilities()
        assert result.stats["batched"] is False
        exact = NaiveEngine(db).tuple_probabilities(query)
        for key, p in exact.items():
            assert estimate.get(key, 0.0) == pytest.approx(p, abs=0.04)

    def test_huge_int_min_takes_generic_path(self):
        """Selection monoids cast values to float64 in the batched path;
        ints beyond 2**53 would round into fabricated answer keys."""
        db = PVCDatabase(registry=VariableRegistry(), semiring=BOOLEAN)
        r = db.create_table("R", ["a", "v"])
        db.registry.bernoulli("hx", 0.5)
        db.registry.bernoulli("hy", 0.5)
        r.add((1, 2**53 + 1), Var("hx"))
        r.add((1, 2**53 + 2), Var("hy"))
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("m", "MIN", "v")])
        result = MonteCarloEngine(db, seed=1).run(query, samples=500)
        estimate = result.tuple_probabilities()
        assert result.stats["batched"] is False
        assert all(v in (2**53 + 1, 2**53 + 2) for (_, v) in estimate)

    def test_prod_takes_generic_path(self):
        """PROD has no batched form; its aggregate runs world by world."""
        db = simple_db()
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("p", "PROD", "v")])
        result = MonteCarloEngine(db, seed=1).run(query, samples=4000)
        assert result.stats["batched"] is False
        estimate = result.tuple_probabilities()
        exact = NaiveEngine(db).tuple_probabilities(query)
        for key, p in exact.items():
            assert estimate.get(key, 0.0) == pytest.approx(p, abs=0.04)

    def test_bag_semantics_is_batched(self):
        """ℕ valuates in batch like 𝔹 — a valuation is a homomorphism
        into any semiring: a join + grouped SUM under bag semantics
        counts exactly what the per-world loop counts on the same draws."""
        registry = VariableRegistry()
        db = PVCDatabase(registry=registry, semiring=NATURALS)
        fact = db.create_table("fact", ["k", "v"])
        for i in range(6):
            registry.integer(f"m{i}", {0: 0.3, 1: 0.4, 2: 0.3})
            registry.integer(f"q{i}", {0: 0.4, 1: 0.6})
            fact.add((i % 3, i + 1), Var(f"m{i}") * Var(f"q{i}"))
        dim = db.create_table("dim", ["dk", "cat"])
        for k in range(3):
            dim.add((k, k % 2))
        join = Select(product_of(relation("fact"), relation("dim")), eq("k", "dk"))
        query = GroupAgg(
            Project(join, ["cat", "v"]), ["cat"], [AggSpec.of("t", "SUM", "v")]
        )
        result = MonteCarloEngine(db, seed=5).run(query, samples=2000)
        assert result.stats["batched"] is True
        engine = MonteCarloEngine(db, seed=5)
        drawn = engine._sample_index_columns(
            sorted(fact.variables), 2000
        )  # the run's draws
        per_world, _ = per_world_counts(engine, query, drawn, 2000)
        assert engine._batched_counts(query, drawn, 2000) == per_world
        assert result.tuple_probabilities() == {
            values: count / 2000 for values, count in per_world.items()
        }

    def test_stored_semimodule_values_are_read_from_table_facts(self):
        """Whether a read table stores semimodule values is a fact its
        write path keeps: a warm run looks at no row to decide."""
        db = two_table_db()
        table = db.tables["R"]
        engine = MonteCarloEngine(db, seed=1)
        prepared = engine._prepare(relation("R"))
        assert engine._symbolic_rows(prepared) is not None  # warms the scan
        reads = []

        class WatchedRows(list):
            def __iter__(self):
                reads.append(1)
                return super().__iter__()

        table.rows = WatchedRows(table.rows)
        assert engine._symbolic_rows(prepared) is not None
        assert reads == []
        table.add((3, MConst(SUM, 5)))  # constant: no variable inside
        assert engine._symbolic_rows(engine._prepare(relation("R"))) is None
        db.delete("R", {"a": 3})
        assert engine._symbolic_rows(engine._prepare(relation("R"))) is not None

    def test_repeated_worlds_are_memoised(self):
        db = simple_db()  # two variables: only four distinct worlds
        engine = MonteCarloEngine(db, seed=8)
        _, info = per_world_counts(
            engine,
            relation("R"),
            engine._sample_index_columns(["x", "y"], 1000),
            1000,
        )
        assert info["distinct_worlds"] <= 4
        result = engine.run(relation("R"), samples=1000)
        if not result.stats["batched"]:
            assert result.stats["distinct_worlds"] <= 4

    def test_capped_sum_saturates_in_batched_path(self):
        """CappedSumMonoid is a SumMonoid subclass: the batched matrix
        product must saturate at the cap like the per-world fold does."""
        from repro.algebra.monoid import CappedSumMonoid

        db = two_table_db()
        spec = AggSpec.of("s", CappedSumMonoid(12), "v")
        query = GroupAgg(relation("R"), ["a"], [spec])
        engine = MonteCarloEngine(db, seed=6)
        drawn = engine._sample_index_columns(
            sorted(db.tables["R"].variables), 400
        )
        batched = engine._batched_counts(query, drawn, 400)
        generic, _ = per_world_counts(engine, query, drawn, 400)
        assert batched == generic
        assert all(values[-1] <= 12 for values in batched)


def spec_for(workers, **fields):
    """``EvalSpec(workers=workers, **fields)``, or no spec at all for a
    bare ``workers=None`` (the all-defaults spec is an exact request)."""
    if workers is None and not fields:
        return None
    return EvalSpec(workers=workers, **fields)


@pytest.mark.usefixtures("per_world_monte_carlo")
class TestWorkersKnob:
    """``workers`` is accepted and ignored: no evaluator shards, so every
    value returns the ``workers=None`` answer — here on the per-world
    loop, the batched path ignores it the same way."""

    def test_counts_identical_across_worker_counts(self):
        db = two_table_db()
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("t", "SUM", "v")])
        estimates = [
            MonteCarloEngine(db, seed=7)
            .run(query, spec_for(workers), samples=2000)
            .tuple_probabilities()
            for workers in (None, 1, 2, 4, "auto")
        ]
        assert all(estimate == estimates[0] for estimate in estimates)

    def test_correlated_annotations_identical_across_worker_counts(self):
        db = simple_db()
        db.tables["R"].add((2, 30), Var("x") * Var("y"))
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("m", "MIN", "v")])
        first = MonteCarloEngine(db, seed=3).tuple_probabilities(query, 1200)
        second = (
            MonteCarloEngine(db, seed=3)
            .run(query, EvalSpec(workers=3), samples=1200)
            .tuple_probabilities()
        )
        assert first == second

    def test_runs_are_seed_reproducible_at_any_worker_count(self):
        db = two_table_db()
        query = relation("R")

        def estimate(seed):
            return (
                MonteCarloEngine(db, seed=seed)
                .run(query, EvalSpec(workers=2), samples=1000)
                .tuple_probabilities()
            )

        assert estimate(11) == estimate(11)
        assert estimate(11) != estimate(12)

    def test_estimates_converge_to_exact_at_any_worker_count(self):
        db = simple_db()
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("m", "MIN", "v")])
        exact = NaiveEngine(db).tuple_probabilities(query)
        estimate = (
            MonteCarloEngine(db, seed=3)
            .run(query, EvalSpec(workers=2), samples=5000)
            .tuple_probabilities()
        )
        for key, p in exact.items():
            assert estimate.get(key, 0.0) == pytest.approx(p, abs=0.03)

    def test_workers_none_keeps_the_legacy_stream(self):
        """The default stays byte-for-byte the pre-sharding sampler, so
        existing seeded workflows are unaffected."""
        db = simple_db()
        legacy = MonteCarloEngine(db, seed=5).tuple_probabilities(
            relation("R"), 400
        )
        explicit = MonteCarloEngine(db, seed=5).run(
            relation("R"), samples=400
        )
        assert legacy == explicit.tuple_probabilities()

    @pytest.mark.parametrize("mode", [None, "sample"])
    def test_run_stats_report_no_pool(self, mode):
        fields = {} if mode is None else {"mode": mode, "epsilon": 0.1}
        stats = MonteCarloEngine(two_table_db(), seed=2).run(
            relation("R"), spec_for(2, **fields)
        ).stats
        assert stats["batched"] is False
        assert not {"workers", "shards", "parallel_fallback"} & set(stats)

    def test_sequential_stopping_trajectory_identical_across_workers(self):
        db = simple_db()
        trajectories = []
        for workers in (None, 1, 2):
            engine = MonteCarloEngine(db, seed=19)
            trajectory = [
                (
                    {
                        row.values: (row.probability().low, row.probability().high)
                        for row in snapshot
                    },
                    snapshot.stats["samples"],
                )
                for snapshot in engine.run_iter(
                    relation("R"), spec_for(workers, mode="sample")
                )
            ]
            trajectories.append(trajectory)
        assert trajectories[0] == trajectories[1] == trajectories[2]

    def test_invalid_workers_rejected(self):
        from repro.errors import QueryValidationError

        with pytest.raises(QueryValidationError, match="workers"):
            MonteCarloEngine(simple_db()).run(
                relation("R"), EvalSpec(workers=0), samples=100
            )


class TestSequentialStopping:
    """The (ε, δ) sequential estimator behind spec mode 'sample'."""

    def test_intervals_cover_and_converge(self):
        db = simple_db()
        query = relation("R")
        exact = NaiveEngine(db).tuple_probabilities(query)
        intervals, info = MonteCarloEngine(db, seed=5).estimate_intervals(
            query, epsilon=0.08, delta=0.05
        )
        assert info["converged"]
        assert set(intervals) == set(exact)
        for key, interval in intervals.items():
            assert interval.width <= 0.08 + 1e-9
            assert interval.contains(exact[key])

    def test_budget_cap_stops_early(self):
        db = simple_db()
        intervals, info = MonteCarloEngine(db, seed=5).estimate_intervals(
            relation("R"), epsilon=1e-6, delta=0.05, max_samples=300
        )
        assert info["samples"] <= 300
        assert not info["converged"]
        assert all(i.width > 1e-6 for i in intervals.values())

    def test_rounds_double_and_snapshots_report_sample_counts(self):
        db = simple_db()
        engine = MonteCarloEngine(db, seed=9)
        samples_seen = [
            info["samples"]
            for _, info in engine.estimate_intervals_iter(
                relation("R"), epsilon=0.05, delta=0.1, initial_batch=64
            )
        ]
        assert samples_seen == sorted(samples_seen)
        assert samples_seen[0] == 64
        if len(samples_seen) > 1:
            assert samples_seen[1] == 128  # doubling schedule

    def test_seeded_sequential_runs_are_reproducible(self):
        db = simple_db()
        first = MonteCarloEngine(db, seed=21).estimate_intervals(
            relation("R"), epsilon=0.1, delta=0.1
        )
        second = MonteCarloEngine(db, seed=21).estimate_intervals(
            relation("R"), epsilon=0.1, delta=0.1
        )
        assert first[0] == second[0]
        assert first[1]["samples"] == second[1]["samples"]

    def test_invalid_parameters_rejected(self):
        engine = MonteCarloEngine(simple_db())
        with pytest.raises(ValueError):
            engine.estimate_intervals(relation("R"), epsilon=0.0)
        with pytest.raises(ValueError):
            engine.estimate_intervals(relation("R"), delta=1.5)

    def test_nan_epsilon_rejected(self):
        """NaN is no tolerance: refused before the budget is derived
        from it (``math.ceil`` of NaN raised a bare conversion error)."""
        with pytest.raises(ValueError, match="epsilon"):
            MonteCarloEngine(simple_db()).estimate_intervals(
                relation("R"), epsilon=float("nan")
            )

    @pytest.mark.parametrize("epsilon", [float("inf"), 1e300])
    def test_huge_epsilon_still_draws_a_world(self, epsilon):
        """The derived budget rounds to 0 here; it must stay ≥ 1, or
        the answer is silently empty and never converged."""
        s = connect(seed=3)
        table = s.table("R", ["a"])
        for a in range(4):
            table.insert((a,), p=0.5)
        result = s.sql("SELECT a FROM R", mode="sample", epsilon=epsilon)
        assert result.stats["samples"] >= 1
        assert result.stats["converged"] is True

    def test_zero_initial_batch_rejected(self):
        """A zero first round never draws, so the rounds never end."""
        rounds = MonteCarloEngine(simple_db()).estimate_intervals_iter(
            relation("R"), epsilon=0.1, initial_batch=0
        )
        with pytest.raises(ValueError, match="initial_batch"):
            next(rounds)

    def test_negative_initial_batch_rejected(self):
        with pytest.raises(ValueError, match="initial_batch"):
            MonteCarloEngine(simple_db()).estimate_intervals(
                relation("R"), epsilon=0.1, initial_batch=-5
            )

    def test_negative_max_samples_rejected(self):
        with pytest.raises(ValueError, match="max_samples"):
            MonteCarloEngine(simple_db()).estimate_intervals(
                relation("R"), epsilon=0.1, max_samples=-1
            )

    def test_zero_max_samples_rejected(self):
        """A zero budget is no estimate, as in ``tuple_probabilities``."""
        with pytest.raises(ValueError, match="max_samples"):
            MonteCarloEngine(simple_db()).estimate_intervals(
                relation("R"), epsilon=0.1, max_samples=0
            )


class TestTheSwitchMovesNothing:
    """The kernels switch makes the exact compiler Algorithm 1 verbatim
    and moves nothing in Monte-Carlo: one draw stream, one batch
    evaluator, so flipping it mid-run — or running with it either way —
    gives the same snapshots."""

    @staticmethod
    def intervals_per_round(start_on: bool, flip: bool, workers=None):
        """The snapshots of one seeded run whose first round happens with
        the kernels ``start_on`` and, if ``flip``, the rest with them the
        other way."""
        registry = VariableRegistry()
        db = PVCDatabase(registry=registry, semiring=BOOLEAN)
        table = db.create_table("R", ["a"])
        for i in range(4):
            registry.bernoulli(f"s{i}", 0.9)
            table.add((i,), Var(f"s{i}"))
        rounds = MonteCarloEngine(db, seed=13).run_iter(
            relation("R"),
            EvalSpec(mode="sample", epsilon=0.02, delta=0.05, workers=workers),
        )
        previous = kernels.set_numpy_enabled(start_on)
        try:
            seen = [next(rounds)]
            kernels.set_numpy_enabled(start_on != flip)
            seen.extend(rounds)
        finally:
            kernels.set_numpy_enabled(previous)
        assert all(result.stats["batched"] is True for result in seen)
        assert seen[-1].stats["converged"]
        return [
            {row.values: row.probability() for row in result} for result in seen
        ]

    @pytest.mark.parametrize("workers", [None, 1])
    @pytest.mark.parametrize("start_on", [False, True])
    def test_a_mid_run_flip_changes_nothing(self, start_on, workers):
        flipped = self.intervals_per_round(start_on, True, workers)
        assert len(flipped) > 2  # the flip happened mid-run
        for intervals in flipped:
            assert len(intervals) == 4
            assert all(i.contains(0.9) for i in intervals.values())
        assert flipped == self.intervals_per_round(start_on, False, workers)
        assert flipped == self.intervals_per_round(not start_on, False, workers)


class TestSampledJoinStreamsArePinned:
    """Seeded answers are part of the contract: an engine change must not
    reorder, re-argue or add a single RNG call.  The three statements
    mirror the ``sampled_joins`` benchmark workload (join + grouped SUM,
    join under sequential stopping, grouped SUM over a
    tuple-independent table); the values were recorded on the numpy
    stream at the commit before the pure-Python stream was deleted, and
    hold with the kernels on and off alike."""

    @staticmethod
    def database():
        rng = random.Random(5)
        registry = VariableRegistry()
        db = PVCDatabase(registry=registry, semiring=BOOLEAN)
        fact = db.create_table("fact", ["k", "v"])
        for i in range(4):
            registry.bernoulli(f"r{i}", 0.5)
            registry.bernoulli(f"q{i}", 0.6)
            fact.add(
                (rng.randrange(3), rng.randint(1, 2)),
                Var(f"r{i}") * Var(f"q{i}"),
            )
        dim = db.create_table("dim", ["dk", "cat"])
        for k in range(3):
            dim.add((k, k % 2))
        ti = db.create_table("T", ["a", "v"])
        for i in range(4):
            registry.bernoulli(f"t{i}", 0.4)
            ti.add((i % 2, rng.randint(1, 2)), Var(f"t{i}"))
        return db

    JOIN = Select(
        product_of(relation("fact"), relation("dim")), eq("k", "dk")
    )
    JOIN_FIXED = GroupAgg(
        Project(JOIN, ["cat", "v"]), ["cat"], [AggSpec.of("t", "SUM", "v")]
    )
    JOIN_SEQUENTIAL = Project(JOIN, ["k", "cat"])
    TI_BATCHED = GroupAgg(relation("T"), ["a"], [AggSpec.of("t", "SUM", "v")])

    #: Counts out of 200 worlds, seed 11.
    FIXED = {(0, 1): 33, (0, 2): 75, (0, 3): 28, (1, 1): 68}
    TI = {(0, 1): 131, (1, 1): 49, (1, 2): 52, (1, 3): 40}
    #: Intervals when ε = 0.2 stops (after 256 worlds).
    SEQUENTIAL = {(1, 1): (0.24890875160672, 0.3926389681170225),
                  (2, 0): (0.6073610318829775, 0.75109124839328)}

    @pytest.mark.parametrize("kernels_on", [True, False])
    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_estimates_equal_the_recorded_ones(self, workers, kernels_on):
        """Every ``workers`` value reproduces the recorded serial stream."""
        db = self.database()
        previous = kernels.set_numpy_enabled(kernels_on)
        try:
            for query, recorded in (
                (self.JOIN_FIXED, self.FIXED), (self.TI_BATCHED, self.TI)
            ):
                estimate = MonteCarloEngine(db, seed=11).run(
                    query, spec_for(workers), samples=200
                )
                assert {
                    row.values: round(row.probability() * 200)
                    for row in estimate
                } == recorded
            result = MonteCarloEngine(db, seed=11).run(
                self.JOIN_SEQUENTIAL,
                EvalSpec(mode="sample", epsilon=0.2, delta=0.05, workers=workers),
            )
        finally:
            kernels.set_numpy_enabled(previous)
        assert result.stats["samples"] == 256
        intervals = {row.values: row.probability() for row in result}
        assert {
            key: (interval.low, interval.high)
            for key, interval in intervals.items()
        } == self.SEQUENTIAL


@st.composite
def distributions(draw):
    """A support of 1–6 values whose weights may include zeros (kept in
    the distribution, as ``Distribution`` itself never keeps them), or a
    Bernoulli point mass."""
    if draw(st.booleans()):
        return Distribution.bernoulli(draw(st.sampled_from([0.0, 1.0, 0.3])))
    weights = draw(
        st.lists(st.integers(0, 5), min_size=1, max_size=6).filter(any)
    )
    total = sum(weights)
    return Distribution._from_clean(
        {value: weight / total for value, weight in enumerate(weights)}
    )


def choice_reference(db, names, samples, seed):
    """Per-variable ``Generator.choice`` draws — the sampler before
    block draws — and the generator's state after them."""
    twin = np.random.default_rng(seed)
    columns = {}
    for name in names:
        values, weights = zip(*db.registry[name].items())
        p = np.asarray(weights, dtype=float)
        columns[name] = twin.choice(len(values), size=samples, p=p / p.sum())
    return columns, twin.bit_generator.state


def assert_draws_match_choice(dists, samples, seed):
    registry = VariableRegistry()
    db = PVCDatabase(registry=registry, semiring=BOOLEAN)
    names = [f"v{i}" for i in range(len(dists))]
    for name, dist in zip(names, dists):
        registry.declare(name, dist)
    engine = MonteCarloEngine(db, seed=seed)
    drawn = engine._sample_index_columns(engine._supports(names), samples)
    expected, state = choice_reference(db, names, samples, seed)
    assert list(drawn) == names
    for name in names:
        assert drawn[name][0] == tuple(db.registry[name])
        assert drawn[name][1].tolist() == expected[name].tolist()
    assert engine._np_rng.bit_generator.state == state


class TestDrawsMatchGeneratorChoice:
    """Block draws are bit-identical to one ``Generator.choice(p=...)``
    per variable: the same uniforms in the same order, the same indices,
    the same final generator state — so no seeded answer moves."""

    @settings(max_examples=150, deadline=None)
    @given(
        dists=st.lists(distributions(), min_size=1, max_size=12),
        samples=st.sampled_from([0, 1, 7, 600]),
        cells=st.sampled_from([1, 16, montecarlo._DRAW_CELLS]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_indices_and_state_equal_per_variable_choice(
        self, dists, samples, cells, seed
    ):
        with mock.patch.object(montecarlo, "_DRAW_CELLS", cells):
            assert_draws_match_choice(dists, samples, seed)

    def test_a_draw_crossing_the_real_block_bound(self):
        samples = 600
        rows = montecarlo._DRAW_CELLS // samples
        rng = random.Random(4)
        dists = [
            Distribution.bernoulli(rng.random()) if i % 3 else
            Distribution({0: 0.2, 1: 0.3, 2: 0.5})
            for i in range(rows + 5)
        ]
        assert_draws_match_choice(dists, samples, seed=29)


class _CountingGenerator:
    """Wraps a ``numpy.random.Generator``, counting ``random`` calls."""

    def __init__(self, rng):
        self.rng = rng
        self.random_calls = 0

    def random(self, *args, **kwargs):
        self.random_calls += 1
        return self.rng.random(*args, **kwargs)


def test_expired_deadline_stops_between_draw_blocks(monkeypatch):
    """A round stopped by its time limit stops drawing too: the
    checkpoint between blocks raises before the second block."""
    db = two_table_db()
    engine = MonteCarloEngine(db, seed=3)
    counting = _CountingGenerator(engine._np_rng)
    engine._np_rng = counting
    monkeypatch.setattr(montecarlo, "_DRAW_CELLS", 100)
    supports = engine._supports(sorted(db.tables["S"].variables))
    deadline = Deadline(1e-6)
    while not deadline.expired():
        pass
    with deadline_scope(deadline):
        with pytest.raises(DeadlineExceeded, match="Monte-Carlo sampling"):
            engine._sample_index_columns(supports, 50)  # 2 rows a block
    assert counting.random_calls == 1


class TestNumpyStreamsArePinned:
    """Seeded answers on the numpy stream, recorded at the commit before
    block draws replaced one ``Generator.choice`` per variable, over
    supports of one, two, three and four values (bag semantics)."""

    @staticmethod
    def database():
        rng = random.Random(3)
        registry = VariableRegistry()
        db = PVCDatabase(registry=registry, semiring=NATURALS)
        fact = db.create_table("fact", ["k", "v"])
        for i in range(5):
            registry.integer(f"r{i}", {0: 0.3, 1: 0.5, 2: 0.2})
            registry.integer(f"q{i}", {0: 0.35, 1: 0.65})
            fact.add(
                (rng.randrange(3), rng.randint(1, 3)),
                Var(f"r{i}") * Var(f"q{i}"),
            )
        registry.integer("c", {1: 1.0})
        registry.integer("m", {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4})
        dim = db.create_table("dim", ["dk", "cat"])
        for k in range(3):
            dim.add((k, k % 2), Var("c") if k else Var("m"))
        return db

    JOIN = Select(
        product_of(relation("fact"), relation("dim")), eq("k", "dk")
    )
    FIXED_QUERY = GroupAgg(
        Project(JOIN, ["cat", "v"]), ["cat"], [AggSpec.of("t", "MAX", "v")]
    )
    SEQUENTIAL_QUERY = Project(JOIN, ["k", "cat"])

    #: Counts out of 300 worlds, seed 17.
    FIXED = {(0, 1): 127, (0, 3): 123, (1, 3): 199}
    #: ``(samples, {tuple: (low, high)})`` per round, seed 17, ε = 0.1.
    ROUNDS = [
        (256, {(0, 0): (0.31425140970311616, 0.46457590672217175),
               (1, 1): (0.6604496855667675, 0.7971489701050506),
               (2, 0): (0.6073610318829775, 0.75109124839328)}),
        (512, {(0, 0): (0.344137742495297, 0.4674766950254719),
               (1, 1): (0.6546338065615376, 0.768272558187757),
               (2, 0): (0.6282576944375413, 0.7446688272050184)}),
        (1024, {(0, 0): (0.3591267002219635, 0.45315703168126403),
                (1, 1): (0.6584864820585782, 0.745974343015911),
                (2, 0): (0.6403622950462462, 0.72926458337111)}),
    ]

    @pytest.fixture(autouse=True)
    def numpy_streams(self):
        previous = kernels.set_numpy_enabled(True)
        yield
        kernels.set_numpy_enabled(previous)

    def test_fixed_budget_answer(self):
        result = MonteCarloEngine(self.database(), seed=17).run(
            self.FIXED_QUERY, samples=300
        )
        assert result.stats["batched"] is True
        assert {
            row.values: round(row.probability() * 300) for row in result
        } == self.FIXED

    def test_sequential_snapshots(self):
        snapshots = MonteCarloEngine(self.database(), seed=17).run_iter(
            self.SEQUENTIAL_QUERY,
            EvalSpec(mode="sample", epsilon=0.1, delta=0.05),
        )
        seen = [
            (
                result.stats["samples"],
                {row.values: row.probability() for row in result},
            )
            for result in snapshots
        ]
        assert [samples for samples, _ in seen] == [
            samples for samples, _ in self.ROUNDS
        ]
        for (_, intervals), (_, recorded) in zip(seen, self.ROUNDS):
            assert set(intervals) == set(recorded)
            for key, (low, high) in recorded.items():
                assert intervals[key].low == pytest.approx(low, abs=1e-12)
                assert intervals[key].high == pytest.approx(high, abs=1e-12)


class TestOneDrawStream:
    """The kernels switch selects no sampler and no evaluator: a seeded
    run answers the same with the kernels on and off, on the batch
    evaluator and on the per-world loop (PROD has no batched form)."""

    @staticmethod
    def session():
        s = connect(seed=3)
        items = s.table("items", ["name", "price"])
        for i, price in enumerate([10, 25, 30, 15, 40, 20]):
            items.insert((f"n{i}", price), p=0.3 + 0.1 * i)
        return s

    STATEMENTS = [
        "SELECT name FROM items WHERE price >= 20",
        "SELECT PROD(price) FROM items WHERE price >= 20",
    ]

    @staticmethod
    def on_both_legs(run):
        answers = []
        for kernels_on in (True, False):
            previous = kernels.set_numpy_enabled(kernels_on)
            try:
                answers.append(run())
            finally:
                kernels.set_numpy_enabled(previous)
        return answers

    @pytest.mark.parametrize("statement", STATEMENTS)
    def test_fixed_budget_answer(self, statement):
        def answer():
            result = self.session().sql(
                statement, engine="montecarlo", samples=500
            )
            return result.stats["batched"], result.tuple_probabilities()

        on, off = self.on_both_legs(answer)
        assert on[0] is ("PROD" not in statement)
        assert on == off

    @pytest.mark.parametrize("statement", STATEMENTS)
    def test_sequential_snapshots(self, statement):
        def snapshots():
            return [
                (
                    result.stats["samples"],
                    {row.values: row.probability() for row in result},
                )
                for result in self.session().run_iter(
                    parse_sql(statement),
                    engine="montecarlo",
                    mode="sample",
                    epsilon=0.05,
                )
            ]

        on, off = self.on_both_legs(snapshots)
        assert len(on) > 1
        assert on == off
