"""Tests for budgeted approximate probability computation."""

import pytest

from repro.algebra.expressions import ONE, ZERO, Var, sprod, ssum
from repro.algebra.parser import parse_expr
from repro.algebra.semiring import BOOLEAN
from repro.core.approx import (
    ApproximateCompiler,
    ProbabilityBounds,
    approximate_probability,
)
from repro.core.compile import Compiler
from repro.errors import CompilationError
from repro.prob.variables import VariableRegistry
from tests.conftest import kernels_off


def registry_for(expr_vars, p=0.5):
    reg = VariableRegistry()
    for name in expr_vars:
        reg.bernoulli(name, p)
    return reg


class TestBoundsArithmetic:
    def test_exact_and_unknown(self):
        assert ProbabilityBounds.exact(0.5).width == 0
        assert ProbabilityBounds.unknown().width == 1

    def test_invalid_interval_rejected(self):
        with pytest.raises(CompilationError):
            ProbabilityBounds(0.7, 0.3)
        with pytest.raises(CompilationError):
            ProbabilityBounds(-0.1, 0.5)

    def test_disjunction_monotone(self):
        b1 = ProbabilityBounds(0.2, 0.4)
        b2 = ProbabilityBounds(0.1, 0.3)
        combined = b1.disjunction(b2)
        assert combined.low == pytest.approx(1 - 0.8 * 0.9)
        assert combined.high == pytest.approx(1 - 0.6 * 0.7)

    def test_conjunction(self):
        combined = ProbabilityBounds(0.2, 0.4).conjunction(
            ProbabilityBounds(0.5, 0.5)
        )
        assert combined.low == pytest.approx(0.1)
        assert combined.high == pytest.approx(0.2)

    def test_contains_and_midpoint(self):
        bounds = ProbabilityBounds(0.2, 0.6)
        assert bounds.contains(0.4)
        assert not bounds.contains(0.7)
        assert bounds.midpoint == pytest.approx(0.4)


class TestApproximateCompiler:
    def test_zero_budget_still_bounds(self):
        expr = parse_expr("(a+b)*(a+c)")
        reg = registry_for("abc")
        bounds = ApproximateCompiler(reg, budget=0).bounds(expr)
        exact = Compiler(reg, BOOLEAN).probability(expr)
        assert bounds.contains(exact)

    def test_read_once_needs_no_budget(self):
        # Independent structure resolves exactly without Shannon steps.
        expr = parse_expr("a*b + c*d")
        reg = registry_for("abcd", p=0.3)
        bounds = ApproximateCompiler(reg, budget=0).bounds(expr)
        exact = Compiler(reg, BOOLEAN).probability(expr)
        assert bounds.width == pytest.approx(0.0, abs=1e-12)
        assert bounds.low == pytest.approx(exact)

    def test_bounds_tighten_with_budget(self):
        expr = parse_expr("(a+b)*(a+c)*(b+d)*(c+d)")
        reg = registry_for("abcd", p=0.4)
        exact = Compiler(reg, BOOLEAN).probability(expr)
        widths = []
        for budget in (0, 1, 2, 64):
            bounds = ApproximateCompiler(reg, budget).bounds(expr)
            assert bounds.contains(exact)
            widths.append(bounds.width)
        assert widths[0] >= widths[-1]
        assert widths[-1] == pytest.approx(0.0, abs=1e-12)

    def test_constants(self):
        reg = registry_for("")
        assert ApproximateCompiler(reg, 0).bounds(ONE).low == 1.0
        assert ApproximateCompiler(reg, 0).bounds(ZERO).high == 0.0

    def test_unsupported_expression_rejected(self):
        from repro.algebra.monoid import SUM
        from repro.algebra.semimodule import MConst, aggsum, tensor

        reg = registry_for("x")
        alpha = aggsum(SUM, [tensor(Var("x"), MConst(SUM, 1))])
        with pytest.raises(CompilationError, match="semimodule comparisons"):
            ApproximateCompiler(reg, 8).bounds(alpha)


class TestRefinementLoop:
    def test_epsilon_reached(self):
        expr = parse_expr("(a+b)*(a+c) + d*e")
        reg = registry_for("abcde", p=0.45)
        bounds = approximate_probability(expr, reg, epsilon=1e-6)
        exact = Compiler(reg, BOOLEAN).probability(expr)
        assert bounds.width <= 1e-6
        assert bounds.contains(exact, tol=1e-6)

    def test_falls_back_to_exact(self):
        expr = parse_expr("(a+b)*(a+c)")
        reg = registry_for("abc")
        bounds = approximate_probability(
            expr, reg, epsilon=0.0, initial_budget=1, max_budget=1
        )
        exact = Compiler(reg, BOOLEAN).probability(expr)
        assert bounds.low == pytest.approx(exact)
        assert bounds.width == 0


class TestTabulatedResiduals:
    """Rule 6's base case inside the budgeted loop: one budget unit buys
    one resolved residual — an expansion step or a whole truth table."""

    SMALL = "(a+b)*(a+c)*(b+d)*(c+d)"
    #: 15 variables in a ring: over the table cap, so it expands first.
    WIDE = "*".join(f"(v{i}+v{(i + 1) % 15})" for i in range(15))

    def wide(self):
        reg = registry_for([f"v{i}" for i in range(15)], p=0.6)
        return parse_expr(self.WIDE), reg

    def test_zero_budget_is_unknown(self, numpy_kernels):
        bounds = ApproximateCompiler(registry_for("abcd"), budget=0).bounds(
            parse_expr(self.SMALL)
        )
        assert (bounds.low, bounds.high) == (0.0, 1.0)

    def test_expired_deadline_is_unknown(self, numpy_kernels):
        from repro.resilience.deadline import Deadline

        deadline = Deadline(1e-9)
        assert deadline.expired()
        approximator = ApproximateCompiler(
            registry_for("abcd"), budget=8, deadline=deadline
        )
        bounds = approximator.bounds(parse_expr(self.SMALL))
        assert (bounds.low, bounds.high) == (0.0, 1.0)
        assert approximator.expansions == 0

    def test_one_unit_buys_a_whole_table(self, numpy_kernels):
        reg = registry_for("abcd", p=0.4)
        approximator = ApproximateCompiler(reg, budget=1)
        bounds = approximator.bounds(parse_expr(self.SMALL))
        assert approximator.expansions == 1 and approximator.budget == 0
        assert bounds.width == 0.0
        exact = Compiler(reg, BOOLEAN).probability(parse_expr(self.SMALL))
        assert bounds.low == pytest.approx(exact, abs=1e-12)

    def test_one_unit_on_a_wide_residual_stays_sound(self, numpy_kernels):
        expr, reg = self.wide()
        approximator = ApproximateCompiler(reg, budget=1)
        bounds = approximator.bounds(expr)
        assert approximator.expansions == 1
        assert 0.0 < bounds.width
        assert bounds.contains(Compiler(reg, BOOLEAN).probability(expr))

    def test_a_capped_run_never_exceeds_its_cap(self, numpy_kernels):
        expr, reg = self.wide()
        for budget in range(8):
            approximator = ApproximateCompiler(reg, budget)
            approximator.bounds(expr)
            assert approximator.expansions <= budget

    def test_intervals_nest_across_rounds(self, numpy_kernels):
        expr, reg = self.wide()
        exact = Compiler(reg, BOOLEAN).probability(expr)
        low, high, seed = 0.0, 1.0, None
        for budget in (0, 1, 2, 4, 8, 16, 32, 64):
            approximator = ApproximateCompiler(reg, budget, seed_bounds=seed)
            bounds = approximator.bounds(expr)
            assert low - 1e-12 <= bounds.low <= exact + 1e-12
            assert exact - 1e-12 <= bounds.high <= high + 1e-12
            low, high, seed = bounds.low, bounds.high, approximator.exact_bounds()
        assert bounds.width == pytest.approx(0.0, abs=1e-12)

    def test_expansions_repeat_exactly(self, numpy_kernels):
        expr, reg = self.wide()
        runs = []
        for _ in range(2):
            approximator = ApproximateCompiler(reg, budget=64)
            bounds = approximator.bounds(expr)
            runs.append((approximator.expansions, bounds.low, bounds.high))
        assert runs[0] == runs[1]
        assert runs[0][0] > 1  # it expanded before it tabulated

    def test_same_bounds_as_algorithm_1_verbatim(self, numpy_kernels):
        expr, reg = self.wide()
        tabulated = ApproximateCompiler(reg, budget=1 << 10)
        fast = tabulated.bounds(expr)
        verbatim = ApproximateCompiler(reg, budget=1 << 10)
        with kernels_off():
            slow = verbatim.bounds(expr)
        assert fast.width == slow.width == 0.0
        assert fast.low == pytest.approx(slow.low, abs=1e-12)
        assert tabulated.expansions < verbatim.expansions
