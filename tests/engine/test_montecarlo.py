"""Tests for the Monte-Carlo sampling baseline."""

import pytest

from repro.algebra.expressions import Var
from repro.algebra.semiring import BOOLEAN
from repro.db.pvc_table import PVCDatabase
from repro.engine.montecarlo import MonteCarloEngine
from repro.engine.naive import NaiveEngine
from repro.engine.spec import EvalSpec
from repro.prob import kernels
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
            generic, _ = engine._per_world_counts(query, ["R"], drawn, 300)
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
        if kernels.numpy_enabled():
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
        if kernels.numpy_enabled():
            assert result.stats["batched"] is True
        drawn = engine._sample_index_columns(["x", "y"], 500)
        assert engine._batched_counts(query, drawn, 500) == (
            engine._per_world_counts(query, ["R"], drawn, 500)[0]
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

    def test_repeated_worlds_are_memoised(self):
        db = simple_db()  # two variables: only four distinct worlds
        engine = MonteCarloEngine(db, seed=8)
        _, info = engine._per_world_counts(
            relation("R"),
            ["R"],
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
        generic, _ = engine._per_world_counts(query, ["R"], drawn, 400)
        assert batched == generic
        assert all(values[-1] <= 12 for values in batched)


@pytest.mark.usefixtures("per_world_monte_carlo")
class TestShardedSampler:
    """The deterministic sharded scheme behind the ``workers`` knob —
    the per-world loop's; the batched path ignores ``workers``."""

    def test_counts_identical_across_worker_counts(self):
        db = two_table_db()
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("t", "SUM", "v")])
        estimates = [
            MonteCarloEngine(db, seed=7).tuple_probabilities(
                query, 2000, workers=workers
            )
            for workers in (1, 2, 4, "auto")
        ]
        assert all(estimate == estimates[0] for estimate in estimates)

    def test_correlated_annotations_shard_identically(self):
        db = simple_db()
        db.tables["R"].add((2, 30), Var("x") * Var("y"))
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("m", "MIN", "v")])
        first = MonteCarloEngine(db, seed=3).tuple_probabilities(
            query, 1200, workers=1
        )
        second = MonteCarloEngine(db, seed=3).tuple_probabilities(
            query, 1200, workers=3
        )
        assert first == second

    def test_sharded_runs_are_seed_reproducible(self):
        db = two_table_db()
        query = relation("R")
        first = MonteCarloEngine(db, seed=11).tuple_probabilities(
            query, 1000, workers=2
        )
        second = MonteCarloEngine(db, seed=11).tuple_probabilities(
            query, 1000, workers=2
        )
        assert first == second
        third = MonteCarloEngine(db, seed=12).tuple_probabilities(
            query, 1000, workers=2
        )
        assert first != third

    def test_sharded_estimates_converge_to_exact(self):
        db = simple_db()
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("m", "MIN", "v")])
        exact = NaiveEngine(db).tuple_probabilities(query)
        estimate = MonteCarloEngine(db, seed=3).tuple_probabilities(
            query, 5000, workers=2
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
        explicit = MonteCarloEngine(db, seed=5).tuple_probabilities(
            relation("R"), 400, workers=None
        )
        assert legacy == explicit

    def test_run_stats_report_sharding(self):
        db = two_table_db()
        engine = MonteCarloEngine(db, seed=2)
        stats = engine.run(
            relation("R"), samples=2048, spec=EvalSpec(workers=2)
        ).stats
        assert stats["shards"] == 4  # DEFAULT_SHARD_SIZE is 512
        assert stats["workers"] == 2
        assert "parallel_fallback" not in stats

    def test_sequential_stopping_trajectory_identical_across_workers(self):
        db = simple_db()
        trajectories = []
        for workers in (1, 2):
            engine = MonteCarloEngine(db, seed=19)
            trajectory = [
                (
                    {key: (i.low, i.high) for key, i in intervals.items()},
                    info["samples"],
                )
                for intervals, info in engine.estimate_intervals_iter(
                    relation("R"),
                    epsilon=0.05,
                    initial_batch=128,
                    workers=workers,
                )
            ]
            trajectories.append(trajectory)
        assert trajectories[0] == trajectories[1]

    def test_invalid_workers_rejected(self):
        from repro.errors import QueryValidationError

        with pytest.raises(QueryValidationError, match="workers"):
            MonteCarloEngine(simple_db()).tuple_probabilities(
                relation("R"), 100, workers=0
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


class TestSwitchIsReadOncePerRun:
    """A run decides sampler and evaluator when its context is built; the
    kernels switch moving mid-run must not move the later rounds onto
    the other stream (they once drew ``choice(n, p=None)`` — uniform)."""

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
        rounds = MonteCarloEngine(db, seed=13).estimate_intervals_iter(
            relation("R"), epsilon=0.02, delta=0.05, workers=workers
        )
        previous = kernels.set_numpy_enabled(start_on)
        try:
            seen = [next(rounds)]
            kernels.set_numpy_enabled(start_on != flip)
            seen.extend(rounds)
        finally:
            kernels.set_numpy_enabled(previous)
        assert all(info["batched"] is start_on for _, info in seen)
        assert seen[-1][1]["converged"]
        return [intervals for intervals, _ in seen]

    @pytest.mark.parametrize("workers", [None, 1])
    @pytest.mark.parametrize("start_on", [False, True])
    def test_run_finishes_on_the_stream_it_started_on(self, start_on, workers):
        flipped = self.intervals_per_round(start_on, True, workers)
        assert len(flipped) > 2  # the flip happened mid-run
        for intervals in flipped:
            assert len(intervals) == 4
            assert all(i.contains(0.9) for i in intervals.values())
        assert flipped == self.intervals_per_round(start_on, False, workers)


class TestSeededStreamsArePinned:
    """Seeded answers are part of the contract: an engine change must not
    reorder, re-argue or add a single RNG call.  The values below were
    recorded at the commit *before* step I moved out of the world loop
    (PR 11), on the pure-Python streams, which do not depend on a numpy
    build; the three statements mirror the ``sampled_joins`` benchmark
    workload (join + grouped SUM, join under sequential stopping, grouped
    SUM over a tuple-independent table)."""

    @staticmethod
    def database():
        import random

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

    #: ``workers`` → counts out of 200 worlds, seed 11.
    FIXED = {
        None: {(0, 1): 35, (0, 2): 58, (0, 3): 36, (1, 1): 60},
        2: {(0, 1): 19, (0, 2): 76, (0, 3): 26, (1, 1): 62},
    }
    TI = {
        None: {(0, 1): 117, (1, 1): 40, (1, 2): 51, (1, 3): 32},
        2: {(0, 1): 130, (1, 1): 55, (1, 2): 57, (1, 3): 28},
    }
    #: ``workers`` → intervals when ε = 0.2 stops (after 256 worlds).
    SEQUENTIAL = {
        None: {(1, 1): (0.266886473, 0.412794468),
               (2, 0): (0.587205532, 0.733113527)},
        2: {(1, 1): (0.270498493, 0.416809093),
            (2, 0): (0.567185819, 0.715000019)},
    }

    @pytest.fixture(autouse=True)
    def python_streams(self):
        previous = kernels.set_numpy_enabled(False)
        yield
        kernels.set_numpy_enabled(previous)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_estimates_equal_the_recorded_ones(self, workers):
        db = self.database()
        for query, recorded in (
            (self.JOIN_FIXED, self.FIXED), (self.TI_BATCHED, self.TI)
        ):
            estimate = MonteCarloEngine(db, seed=11).tuple_probabilities(
                query, 200, workers=workers
            )
            assert {k: round(p * 200) for k, p in estimate.items()} == (
                recorded[workers]
            )
        intervals, info = MonteCarloEngine(db, seed=11).estimate_intervals(
            self.JOIN_SEQUENTIAL, epsilon=0.2, delta=0.05, workers=workers
        )
        assert info["samples"] == 256
        assert set(intervals) == set(self.SEQUENTIAL[workers])
        for key, (low, high) in self.SEQUENTIAL[workers].items():
            assert intervals[key].low == pytest.approx(low, abs=1e-8)
            assert intervals[key].high == pytest.approx(high, abs=1e-8)
