"""Property tests: approximation bounds always bracket the exact value.

Three layers, matching the anytime-answers redesign:

* expression level — budgeted bounds on random Boolean expressions;
* semimodule level — bounds on random aggregation comparisons
  ``[Σ Φᵢ ⊗ mᵢ θ c]`` (the new conditional path through
  ``algebra/bounds.value_bounds``);
* engine level — every ``ProbInterval`` the approx engine reports for a
  random query under *any* budget contains the brute-force oracle
  probability, widths meet ε whenever the engine claims convergence, and
  anytime snapshots nest monotonically; plus seeded coverage of the
  (ε, δ) Monte-Carlo intervals.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.semiring import BOOLEAN
from repro.core.compile import Compiler
from repro.engine.base import create_engine
from repro.engine.naive import NaiveEngine
from repro.engine.spec import EvalSpec
from repro.prob.space import ProbabilitySpace

from tests.property.strategies import (
    boolean_registries,
    conditions,
    queries,
    query_databases,
    semiring_exprs,
)

SETTINGS = settings(max_examples=50, deadline=None)
ENGINE_SETTINGS = settings(max_examples=25, deadline=None)


def bounds_of(registry, expr, budget):
    """:meth:`Compiler.bounds` on a fresh compiler: the interval alone."""
    return Compiler(registry, BOOLEAN).bounds(expr, budget, {})[0]


class TestBoundsBracketExact:
    @SETTINGS
    @given(
        boolean_registries(),
        semiring_exprs(depth=3),
        st.integers(min_value=0, max_value=16),
    )
    def test_bounds_contain_exact_probability(self, registry, expr, budget):
        exact = Compiler(registry, BOOLEAN).probability(expr)
        bounds = bounds_of(registry, expr, budget)
        assert bounds.contains(exact, tol=1e-7)

    @SETTINGS
    @given(boolean_registries(), semiring_exprs(depth=3))
    def test_bounds_monotone_in_budget(self, registry, expr):
        widths = []
        for budget in (0, 2, 8, 64):
            bounds = bounds_of(registry, expr, budget)
            widths.append(bounds.width)
        # Widths never increase as the budget grows.
        assert all(a >= b - 1e-9 for a, b in zip(widths, widths[1:]))

    @SETTINGS
    @given(boolean_registries(), semiring_exprs(depth=2))
    def test_large_budget_is_exact(self, registry, expr):
        bounds = bounds_of(registry, expr, 1 << 12)
        exact = ProbabilitySpace(registry, BOOLEAN).probability(expr)
        assert bounds.width < 1e-9
        assert abs(bounds.low - exact) < 1e-7


class TestSemimoduleComparisons:
    """The conditional path: ``[Σ Φᵢ ⊗ mᵢ θ c]`` annotations."""

    @SETTINGS
    @given(
        boolean_registries(),
        conditions(),
        st.integers(min_value=0, max_value=16),
    )
    def test_condition_bounds_contain_exact(self, registry, condition, budget):
        exact = ProbabilitySpace(registry, BOOLEAN).probability(condition)
        bounds = bounds_of(registry, condition, budget)
        assert bounds.contains(exact, tol=1e-7)

    @SETTINGS
    @given(boolean_registries(), conditions())
    def test_condition_bounds_monotone_in_budget(self, registry, condition):
        widths = []
        for budget in (0, 1, 4, 32, 256):
            bounds = bounds_of(registry, condition, budget)
            widths.append(bounds.width)
        assert all(a >= b - 1e-9 for a, b in zip(widths, widths[1:]))

    @SETTINGS
    @given(boolean_registries(), conditions())
    def test_condition_large_budget_is_exact(self, registry, condition):
        bounds = bounds_of(registry, condition, 1 << 12)
        exact = ProbabilitySpace(registry, BOOLEAN).probability(condition)
        assert bounds.width < 1e-9
        assert abs(bounds.low - exact) < 1e-7

    @SETTINGS
    @given(
        boolean_registries(),
        st.lists(conditions(), min_size=2, max_size=3),
        st.integers(min_value=0, max_value=8),
    )
    def test_products_of_conditions(self, registry, conds, budget):
        """Annotations multiply guards into products; still bracketed."""
        from repro.algebra.expressions import sprod

        expr = sprod(conds)
        exact = ProbabilitySpace(registry, BOOLEAN).probability(expr)
        bounds = bounds_of(registry, expr, budget)
        assert bounds.contains(exact, tol=1e-7)


class TestEngineSoundness:
    """Acceptance criterion: reported intervals contain the oracle."""

    @ENGINE_SETTINGS
    @given(
        query_databases(),
        queries(),
        st.integers(min_value=1, max_value=64),
    )
    def test_any_budget_intervals_contain_oracle(self, db, query, budget):
        oracle = NaiveEngine(db).run(query).tuple_probabilities()
        engine = create_engine("approx", db)
        result = engine.run(
            query, spec=EvalSpec(mode="approx", epsilon=0.0, budget=budget)
        )
        assert result.stats["expansions"] <= budget
        for row in result:
            interval = row.probability()
            # Rows are symbolic; compare on the presence probability of
            # the row's concrete-tuple mass (oracle sums per tuple).
            total = sum(
                p for values, p in oracle.items()
                if values == row.values
            )
            if row.values in oracle:
                assert interval.low - 1e-7 <= total <= interval.high + 1e-7

    @ENGINE_SETTINGS
    @given(query_databases(), queries())
    def test_converged_widths_meet_epsilon(self, db, query):
        engine = create_engine("approx", db)
        result = engine.run(query, spec=EvalSpec(mode="approx", epsilon=0.05))
        if result.stats["converged"]:
            for row in result:
                assert row.probability().width <= 0.05 + 1e-9

    @ENGINE_SETTINGS
    @given(query_databases(), queries())
    def test_snapshots_nest_and_final_contains_oracle(self, db, query):
        oracle = NaiveEngine(db).run(query).tuple_probabilities()
        engine = create_engine("approx", db)
        previous = None
        for snapshot in engine.run_iter(
            query, spec=EvalSpec(mode="approx", epsilon=1e-9, budget=256)
        ):
            current = {}
            for row in snapshot:
                interval = row.probability()
                current.setdefault(row.values, []).append(interval)
                if previous is not None and row.values in previous:
                    prior = previous[row.values][len(current[row.values]) - 1]
                    assert interval.low >= prior.low - 1e-12
                    assert interval.high <= prior.high + 1e-12
            previous = current
        for values, p in oracle.items():
            if values in previous and len(previous[values]) == 1:
                interval = previous[values][0]
                assert interval.low - 1e-7 <= p <= interval.high + 1e-7


class TestMonteCarloCoverage:
    """Seeded (ε, δ) intervals cover the truth at the configured rate."""

    def test_coverage_rate(self):
        from repro.algebra.expressions import Var
        from repro.db.pvc_table import PVCDatabase
        from repro.engine.montecarlo import MonteCarloEngine
        from repro.prob.variables import VariableRegistry
        from repro.query.ast import relation

        registry = VariableRegistry()
        db = PVCDatabase(registry=registry, semiring=BOOLEAN)
        table = db.create_table("R", ["a"])
        for i, p in enumerate([0.5, 0.2, 0.85]):
            registry.bernoulli(f"r{i}", p)
            table.add((i,), Var(f"r{i}"))
        query = relation("R")
        exact = NaiveEngine(db).tuple_probabilities(query)

        epsilon, delta = 0.12, 0.1
        runs, misses = 40, 0
        for seed in range(runs):
            intervals, info = MonteCarloEngine(db, seed=seed).estimate_intervals(
                query, epsilon=epsilon, delta=delta
            )
            assert info["converged"]
            assert all(i.width <= epsilon + 1e-9 for i in intervals.values())
            if any(
                not intervals[key].contains(p)
                for key, p in exact.items()
                if key in intervals
            ):
                misses += 1
        # Per-interval failure probability is ≤ δ; across 3 tuples a run
        # misses with probability ≤ 3δ.  The bound is very conservative
        # (Hoeffding ∩ Wilson with round-wise δ-splitting), so observed
        # misses are far rarer; allow the nominal rate plus slack.
        assert misses / runs <= 3 * delta + 0.05
