"""Unit tests for structural decomposition helpers."""

import pytest

from repro.algebra.expressions import ONE, SConst, Var, sprod, ssum
from repro.algebra.monoid import SUM
from repro.algebra.semimodule import MConst, tensor
from repro.core.decompose import (
    common_factor_variables,
    divide_by_variable,
    factor_variables,
    independent_groups,
)
from repro.errors import CompilationError


class TestIndependentGroups:
    def test_disjoint_expressions_split(self):
        groups = independent_groups([Var("a") * Var("b"), Var("c")])
        assert len(groups) == 2

    def test_shared_variable_connects(self):
        groups = independent_groups([Var("a") * Var("b"), Var("b") * Var("c")])
        assert len(groups) == 1

    def test_transitive_connection(self):
        exprs = [Var("a") * Var("b"), Var("b") * Var("c"), Var("c") * Var("d")]
        assert len(independent_groups(exprs)) == 1

    def test_variable_free_are_singletons(self):
        groups = independent_groups([SConst(3), SConst(4), Var("a")])
        assert len(groups) == 3

    def test_paper_example_decomposition(self):
        # α = ab⊗10 + xy⊗20 decomposes into independent sub-expressions.
        t1 = tensor(Var("a") * Var("b"), MConst(SUM, 10))
        t2 = tensor(Var("x") * Var("y"), MConst(SUM, 20))
        assert len(independent_groups([t1, t2])) == 2

    def test_groups_cover_input(self):
        exprs = [Var("a"), Var("b"), Var("a") * Var("c")]
        groups = independent_groups(exprs)
        flattened = [e for group in groups for e in group]
        assert sorted(map(repr, flattened)) == sorted(map(repr, exprs))

    def test_all_independent_summands_stay_apart_in_order(self):
        exprs = [Var(f"v{i}") for i in range(300)] + [SConst(1), SConst(1)]
        assert independent_groups(exprs) == [[e] for e in exprs]

    def test_bridging_summands_merge_components(self):
        a, b, c, d, e, f = map(Var, "abcdef")
        # c*d joins {c} to {d}; e*b*a then joins three components at
        # once, two of them older than the bridge that closes them.
        # Groups come in order of their first member, members in input
        # order -- the order the compiler's ⊕/⊙ children follow.
        exprs = [a, b, c, SConst(1), d, f, c * d, e * b * a, d * a]
        assert independent_groups(exprs) == [
            [a, b, c, d, c * d, e * b * a, d * a], [SConst(1)], [f]
        ]


class TestFactorVariables:
    def test_bare_variable(self):
        assert factor_variables(Var("x")) == {"x"}

    def test_product_factors(self):
        expr = sprod([Var("x"), Var("y"), ssum([Var("z"), Var("w")])])
        assert factor_variables(expr) == {"x", "y"}

    def test_tensor_factors_come_from_scalar(self):
        expr = tensor(Var("x") * Var("y"), MConst(SUM, 5))
        assert factor_variables(expr) == {"x", "y"}

    def test_sum_has_no_top_level_factors(self):
        assert factor_variables(ssum([Var("x"), Var("y")])) == frozenset()

    def test_common_factors(self):
        terms = [Var("x") * Var("y"), Var("x") * Var("z")]
        assert common_factor_variables(terms) == {"x"}

    def test_no_common_factor(self):
        terms = [Var("x") * Var("y"), Var("z")]
        assert common_factor_variables(terms) == frozenset()

    def test_read_once_example_14(self):
        # x1y11 + x1y12 has common factor x1.
        terms = [Var("x1") * Var("y11"), Var("x1") * Var("y12")]
        assert common_factor_variables(terms) == {"x1"}


class TestDivision:
    def test_divide_variable_by_itself(self):
        assert divide_by_variable(Var("x"), "x") == ONE

    def test_divide_product(self):
        expr = sprod([Var("x"), Var("y")])
        assert divide_by_variable(expr, "x") == Var("y")

    def test_divide_removes_single_occurrence(self):
        expr = sprod([Var("x"), Var("x"), Var("y")])
        result = divide_by_variable(expr, "x")
        assert result == sprod([Var("x"), Var("y")])

    def test_divide_tensor(self):
        expr = tensor(Var("x") * Var("y"), MConst(SUM, 5))
        result = divide_by_variable(expr, "x")
        assert result == tensor(Var("y"), MConst(SUM, 5))

    def test_divide_by_non_factor_raises(self):
        with pytest.raises(CompilationError):
            divide_by_variable(Var("x"), "y")
        with pytest.raises(CompilationError):
            divide_by_variable(sprod([Var("x"), Var("y")]), "z")

    def test_divide_sum_raises(self):
        with pytest.raises(CompilationError):
            divide_by_variable(ssum([Var("x"), Var("y")]), "x")
