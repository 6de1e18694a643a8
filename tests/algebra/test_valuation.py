"""Unit tests for valuations and homomorphic evaluation (Section 3)."""

import math

import pytest

from repro.algebra.conditions import compare
from repro.algebra.expressions import ONE, ZERO, SConst, Var
from repro.algebra.monoid import MAX, MIN, SUM
from repro.algebra.semimodule import MConst, aggsum, tensor
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.algebra.valuation import Valuation, evaluate
from repro.errors import AlgebraError
from tests.conftest import per_world_counts


class TestSemiringEvaluation:
    def test_boolean_sum_product(self):
        nu = Valuation({"x": True, "y": False}, BOOLEAN)
        assert nu(Var("x") + Var("y")) is True
        assert nu(Var("x") * Var("y")) is False

    def test_naturals_sum_product(self):
        nu = Valuation({"x": 2, "y": 3}, NATURALS)
        assert nu(Var("x") + Var("y")) == 5
        assert nu(Var("x") * Var("y")) == 6

    def test_constants_coerced(self):
        nu = Valuation({}, BOOLEAN)
        assert nu(ONE) is True
        assert nu(ZERO) is False
        assert Valuation({}, NATURALS)(SConst(7)) == 7

    def test_missing_variable_raises(self):
        with pytest.raises(AlgebraError, match="does not assign"):
            Valuation({}, BOOLEAN)(Var("x"))

    def test_distributivity_under_evaluation(self):
        # x(y+z) and xy+xz evaluate identically (semiring law).
        nu = Valuation({"x": 2, "y": 3, "z": 4}, NATURALS)
        lhs = Var("x") * (Var("y") + Var("z"))
        rhs = Var("x") * Var("y") + Var("x") * Var("z")
        assert nu(lhs) == nu(rhs) == 14


class TestExample6:
    """Example 6 of the paper, verbatim."""

    def test_min_semimodule_evaluation(self):
        alpha = aggsum(
            MIN,
            [
                tensor(Var("x") * Var("y"), MConst(MIN, 5)),
                tensor(Var("x") + Var("z"), MConst(MIN, 10)),
            ],
        )
        nu = Valuation({"x": 2, "y": 3, "z": 0}, NATURALS)
        assert nu(alpha) == 5

    def test_all_zero_valuation_gives_monoid_neutral(self):
        alpha = aggsum(
            MIN,
            [
                tensor(Var("x") * Var("y"), MConst(MIN, 5)),
                tensor(Var("x") + Var("z"), MConst(MIN, 10)),
            ],
        )
        nu = Valuation({"x": 0, "y": 0, "z": 0}, NATURALS)
        assert nu(alpha) == math.inf


class TestExample5Variants:
    """Example 5/6: α = z1⊗4 + z2⊗8 + z3⊗7 + z4⊗6 under different targets."""

    def _alpha(self, monoid):
        weights = {"z1": 4, "z2": 8, "z3": 7, "z4": 6}
        return aggsum(
            monoid,
            [tensor(Var(n), MConst(monoid, w)) for n, w in weights.items()],
        )

    def test_sum_aggregation_bag(self):
        nu = Valuation({"z1": 2, "z2": 2, "z3": 0, "z4": 0}, NATURALS)
        assert nu(self._alpha(SUM)) == 24

    def test_min_aggregation_boolean(self):
        nu = Valuation(
            {"z1": False, "z2": True, "z3": True, "z4": True}, BOOLEAN
        )
        assert nu(self._alpha(MIN)) == 6


class TestConditionalEvaluation:
    def test_comparison_to_semiring_values(self):
        cond = compare(
            aggsum(
                MIN,
                [
                    tensor(Var("x"), MConst(MIN, 10)),
                    tensor(Var("y"), MConst(MIN, 20)),
                ],
            ),
            "<=",
            15,
        )
        assert Valuation({"x": True, "y": True}, BOOLEAN)(cond) is True
        assert Valuation({"x": False, "y": True}, BOOLEAN)(cond) is False

    def test_semiring_comparison(self):
        guard = compare(Var("x") + Var("y"), "!=", ZERO)
        assert Valuation({"x": False, "y": False}, BOOLEAN)(guard) is False
        assert Valuation({"x": True, "y": False}, BOOLEAN)(guard) is True

    def test_naturals_conditional_gives_multiplicity(self):
        guard = compare(Var("x"), ">=", SConst(2))
        assert Valuation({"x": 3}, NATURALS)(guard) == 1
        assert Valuation({"x": 1}, NATURALS)(guard) == 0


class TestIntroductionExample:
    """The ν₁ valuation of Example 1 (the M&S annotation of Q2)."""

    def test_ms_annotation_is_satisfied(self):
        x = {f"x{i}": Var(f"x{i}") for i in (1, 2, 3)}
        y = {k: Var(k) for k in ("y11", "y12", "y21", "y22", "y33", "y34")}
        z = {k: Var(k) for k in ("z1", "z2", "z3", "z4", "z5")}
        terms = [
            (x["x1"] * y["y11"] * (z["z1"] + z["z5"]), 10),
            (x["x1"] * y["y12"] * z["z2"], 50),
            (x["x2"] * y["y21"] * (z["z1"] + z["z5"]), 11),
            (x["x2"] * y["y22"] * z["z2"], 60),
            (x["x3"] * y["y33"] * z["z3"], 60),
            (x["x3"] * y["y34"] * z["z4"], 15),
        ]
        alpha = aggsum(MAX, [tensor(phi, MConst(MAX, v)) for phi, v in terms])
        psi1 = compare(ssum_of(terms), "!=", ZERO)
        phi = compare(alpha, "<=", 50) * psi1

        true_vars = {"x1", "x2", "y11", "y21", "z1", "z2", "z5"}
        assignment = {
            name: (name in true_vars)
            for name in phi.variables
        }
        assert Valuation(assignment, BOOLEAN)(phi) is True


def ssum_of(terms):
    from repro.algebra.expressions import ssum

    return ssum([phi for phi, _ in terms])


class TestBatchedValuation:
    """``evaluate_batch`` is ``evaluate`` over all worlds at once."""

    #: Each variable's support under ℕ: multiplicities, zero included.
    BAG = (0, 1, 2, 3)

    def assert_matches_evaluate(self, expr, semiring=BOOLEAN):
        import itertools

        import numpy

        from repro.algebra.semimodule import ModuleExpr
        from repro.algebra.valuation import (
            batch_exact,
            batch_values,
            evaluate_batch,
            support_column,
        )

        names = sorted(expr.variables)
        support = (False, True) if semiring.is_boolean else self.BAG
        maxima = None if semiring.is_boolean else dict.fromkeys(names, 3)
        assert batch_exact(expr, maxima)
        worlds = list(itertools.product(range(len(support)), repeat=len(names)))
        column_of = support_column(support, semiring)
        presence = {
            name: column_of[numpy.array([world[i] for world in worlds])]
            for i, name in enumerate(names)
        }
        column = evaluate_batch(expr, presence, len(worlds), {}, semiring)
        if isinstance(expr, ModuleExpr):
            column = batch_values(expr, column)
        else:
            column = column.tolist()
        expected = [
            evaluate(
                expr,
                {name: support[i] for name, i in zip(names, world)},
                semiring,
            )
            for world in worlds
        ]
        assert column == expected
        assert [type(v) for v in column] == [type(v) for v in expected]

    def test_semiring_expressions(self):
        x, y, z = Var("x"), Var("y"), Var("z")
        self.assert_matches_evaluate(x * y + z)
        self.assert_matches_evaluate((x + y) * (y + z) * ONE)
        self.assert_matches_evaluate(compare(x + y * z, "!=", ZERO))

    def test_aggregates_keep_python_types(self):
        x, y, z = Var("x"), Var("y"), Var("z")
        total = aggsum(SUM, [tensor(x * y, MConst(SUM, 3)),
                             tensor(z, MConst(SUM, 4)), MConst(SUM, 1)])
        self.assert_matches_evaluate(total)  # ints stay ints
        low = aggsum(MIN, [tensor(x, MConst(MIN, 5)), tensor(y + z, MConst(MIN, 2))])
        self.assert_matches_evaluate(low)  # ints, and +inf where empty
        high = aggsum(MAX, [tensor(x, MConst(MAX, 2.0)), tensor(y, MConst(MAX, 0.5))])
        self.assert_matches_evaluate(high)  # floats stay floats, 2.0 is not 2
        self.assert_matches_evaluate(compare(total, "<=", 4) * compare(low, ">", 2.5))

    def test_capped_sum_saturates(self):
        from repro.algebra.monoid import CappedSumMonoid

        capped = CappedSumMonoid(5)
        expr = aggsum(capped, [tensor(Var(n), MConst(capped, 3)) for n in "xyz"])
        self.assert_matches_evaluate(expr)

    def test_inexact_aggregates_are_refused(self):
        from repro.algebra.monoid import PROD, CappedSumMonoid
        from repro.algebra.valuation import batch_exact

        def agg(monoid, *values):
            return aggsum(
                monoid,
                [tensor(Var(f"v{i}"), MConst(monoid, v)) for i, v in enumerate(values)],
            )

        assert not batch_exact(agg(SUM, 0.1, 0.2))  # float summation order
        assert not batch_exact(agg(SUM, 2**52, 1))  # beyond float64's integers
        assert not batch_exact(agg(MIN, 2**53 + 1, 2))
        assert not batch_exact(agg(MIN, 2, 2.0))  # the winner decides the type
        assert not batch_exact(agg(CappedSumMonoid(9), 4, -1))  # fold order
        assert not batch_exact(agg(PROD, 2, 3))
        assert not batch_exact(compare(agg(SUM, 0.5, 0.25), "<=", 1) * Var("x"))

    @pytest.mark.parametrize("semiring", [BOOLEAN, NATURALS], ids=["B", "N"])
    def test_semiring_columns_keep_the_carrier_type(self, semiring):
        """One operator set serves both semirings, and the 𝔹 path stays
        bool-typed: ``+``/``*`` on bool columns are ``|``/``&``."""
        import numpy

        from repro.algebra.valuation import evaluate_batch, support_column

        x, y = Var("x"), Var("y")
        column = support_column((0, 1), semiring)
        presence = {
            "x": column[numpy.array([0, 1, 1])],
            "y": column[numpy.array([1, 0, 1])],
        }
        dtype = bool if semiring.is_boolean else numpy.int64
        for expr in (x + y, x * y, compare(x, "!=", y) + ONE, SConst(1) * x):
            assert evaluate_batch(expr, presence, 3, {}, semiring).dtype == dtype
        assert evaluate_batch(x + y, presence, 3, {}, semiring).tolist() == (
            [True, True, True] if semiring.is_boolean else [1, 1, 2]
        )

    def test_a_missing_variable_raises_on_both_carriers(self):
        """An unassigned variable is named, inside a sum or a product
        too, on columns and on bitsets alike."""
        from repro.algebra.valuation import (
            all_valuation_bitsets,
            all_valuations,
            evaluate_batch,
        )

        x, y = Var("x"), Var("y")
        for presence in (all_valuations(["x"]), all_valuation_bitsets(["x"])):
            for expr in (x + y, x * y, y):
                with pytest.raises(AlgebraError, match="does not assign variable 'y'"):
                    evaluate_batch(expr, presence, 2, {})

    def test_bag_semiring_expressions(self):
        x, y, z = Var("x"), Var("y"), Var("z")
        self.assert_matches_evaluate(x * y + z, NATURALS)
        self.assert_matches_evaluate((x + y) * (y + z) * ONE, NATURALS)
        # [Φ θ Ψ] is 0/1 and adds as a multiplicity, not as a truth value.
        twice = compare(x, ">=", SConst(1)) + compare(y, "!=", ZERO)
        self.assert_matches_evaluate(twice * z, NATURALS)

    def test_bag_aggregates_scale_by_multiplicity(self):
        x, y, z = Var("x"), Var("y"), Var("z")
        total = aggsum(SUM, [tensor(x * y, MConst(SUM, 3)),
                             tensor(z, MConst(SUM, 4)), MConst(SUM, 1)])
        self.assert_matches_evaluate(total, NATURALS)  # n·m, ints stay ints
        low = aggsum(MIN, [tensor(x, MConst(MIN, 5)), tensor(y + z, MConst(MIN, 2))])
        self.assert_matches_evaluate(low, NATURALS)  # presence n > 0 only
        self.assert_matches_evaluate(
            compare(total, "<=", 20) * compare(low, ">", 2), NATURALS
        )

    @staticmethod
    def overflow_case(value):
        """ℕ's multiplicity bound of ``x⊗value + y⊗1`` with ``x ≤ 2`` and
        ``y ≤ 1`` is ``2·value + 1``; ``z`` never reaches the answer."""
        from repro.db.pvc_table import PVCDatabase
        from repro.prob.variables import VariableRegistry
        from repro.query.ast import AggSpec, GroupAgg, relation

        registry = VariableRegistry()
        registry.integer("x", {0: 0.3, 1: 0.3, 2: 0.4})
        registry.integer("y", {0: 0.5, 1: 0.5})
        db = PVCDatabase(registry=registry, semiring=NATURALS)
        table = db.create_table("R", ["a", "v"])
        table.add((1, value), Var("x"))
        table.add((1, 1), Var("y"))
        query = GroupAgg(relation("R"), ["a"], [AggSpec.of("t", "SUM", "v")])
        total = aggsum(
            SUM, [tensor(Var("x"), MConst(SUM, value)),
                  tensor(Var("y"), MConst(SUM, 1))]
        )
        return db, query, total

    def test_bag_sum_just_under_the_overflow_guard_is_batched(self, numpy_kernels):
        from repro.algebra.valuation import batch_exact
        from repro.engine.montecarlo import MonteCarloEngine

        db, query, total = self.overflow_case(2**51 - 1)  # bound 2**52 - 1
        assert batch_exact(total, {"x": 2, "y": 1})
        result = MonteCarloEngine(db, seed=4).run(query, samples=300)
        assert result.stats["batched"] is True
        engine = MonteCarloEngine(db, seed=4)
        drawn = engine._sample_index_columns(["x", "y"], 300)
        assert engine._batched_counts(query, drawn, 300) == (
            per_world_counts(engine, query, drawn, 300)[0]
        )

    def test_bag_sum_just_over_the_overflow_guard_takes_the_loop(
        self, numpy_kernels
    ):
        from unittest import mock

        from repro.algebra.valuation import batch_exact
        from repro.engine import montecarlo
        from repro.engine.montecarlo import MonteCarloEngine

        db, query, total = self.overflow_case(2**51)  # bound 2**52 + 1
        assert not batch_exact(total, {"x": 2, "y": 1})
        assert batch_exact(total)  # Boolean worlds: 2**51 + 1 fits
        engine = MonteCarloEngine(db, seed=4)
        assert engine._run_context(query).symbolic is None
        result = MonteCarloEngine(db, seed=4).run(query, samples=300)
        assert result.stats["batched"] is False
        drawn = engine._sample_index_columns(["x", "y"], 300)  # the run's
        loop, _ = per_world_counts(engine, query, drawn, 300)
        assert result.tuple_probabilities() == {
            values: count / 300 for values, count in loop.items()
        }
        # Just past the guard float64 is still exact, so the batch forced
        # past it counts what the loop counts.
        with mock.patch.object(montecarlo, "batch_exact", lambda *_: True):
            assert engine._batched_counts(query, drawn, 300) == loop

    def test_bag_multiplicities_past_the_guard_are_refused(self):
        from repro.algebra.valuation import batch_exact

        x, y = Var("x"), Var("y")
        assert batch_exact(x * y, {"x": 2**26, "y": 2**26})
        assert not batch_exact(x * y, {"x": 2**26, "y": 2**26 + 1})
        assert not batch_exact(x + y, {"x": 2**52})
        assert batch_exact(compare(x * y, ">", ZERO), {"x": 2**26, "y": 2**26})
