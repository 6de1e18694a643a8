"""Tests for budgeted approximate probability computation."""

import pytest

from benchmarks.bench_approx import SHAPES, _params
from repro.algebra.expressions import ONE, ZERO, Var
from repro.algebra.parser import parse_expr
from repro.algebra.semiring import BOOLEAN
from repro.cache import CompilationCache
from repro.core import approx
from repro.core.approx import approximate_probability
from repro.core.compile import Compiler
from repro.errors import CompilationError, QueryValidationError
from repro.prob.distribution import Distribution
from repro.prob.interval import ProbInterval
from repro.prob.variables import VariableRegistry
from repro.workloads.random_expr import generate_condition
from tests.conftest import kernels_off


def registry_for(expr_vars, p=0.5):
    reg = VariableRegistry()
    for name in expr_vars:
        reg.bernoulli(name, p)
    return reg


def bounds_of(reg, expr, budget, proven=None):
    """One :meth:`Compiler.bounds` call on a fresh compiler: the interval
    and the units it spent."""
    return Compiler(reg, BOOLEAN).bounds(
        expr, budget, {} if proven is None else proven
    )


class TestBoundsArithmetic:
    def test_exact_and_unknown(self):
        assert ProbInterval.point(0.5).width == 0
        assert ProbInterval.unknown().width == 1

    def test_invalid_interval_rejected(self):
        with pytest.raises(QueryValidationError):
            ProbInterval(0.7, 0.3)
        with pytest.raises(QueryValidationError):
            ProbInterval(-0.1, 0.5)

    def test_disjunction_monotone(self):
        b1 = ProbInterval(0.2, 0.4)
        b2 = ProbInterval(0.1, 0.3)
        combined = b1.disjunction(b2)
        assert combined.low == pytest.approx(1 - 0.8 * 0.9)
        assert combined.high == pytest.approx(1 - 0.6 * 0.7)

    def test_conjunction(self):
        combined = ProbInterval(0.2, 0.4).conjunction(ProbInterval(0.5, 0.5))
        assert combined.low == pytest.approx(0.1)
        assert combined.high == pytest.approx(0.2)

    def test_contains_and_midpoint(self):
        bounds = ProbInterval(0.2, 0.6)
        assert bounds.contains(0.4)
        assert not bounds.contains(0.7)
        assert bounds.midpoint == pytest.approx(0.4)


class TestBounds:
    def test_zero_budget_still_bounds(self):
        expr = parse_expr("(a+b)*(a+c)")
        reg = registry_for("abc")
        bounds, _ = bounds_of(reg, expr, 0)
        exact = Compiler(reg, BOOLEAN).probability(expr)
        assert bounds.contains(exact)

    def test_read_once_needs_no_budget(self):
        # Independent structure resolves exactly without Shannon steps.
        expr = parse_expr("a*b + c*d")
        reg = registry_for("abcd", p=0.3)
        bounds, _ = bounds_of(reg, expr, 0)
        exact = Compiler(reg, BOOLEAN).probability(expr)
        assert bounds.width == pytest.approx(0.0, abs=1e-12)
        assert bounds.low == pytest.approx(exact)

    def test_bounds_tighten_with_budget(self):
        expr = parse_expr("(a+b)*(a+c)*(b+d)*(c+d)")
        reg = registry_for("abcd", p=0.4)
        exact = Compiler(reg, BOOLEAN).probability(expr)
        widths = []
        for budget in (0, 1, 2, 64):
            bounds, _ = bounds_of(reg, expr, budget)
            assert bounds.contains(exact)
            widths.append(bounds.width)
        assert widths[0] >= widths[-1]
        assert widths[-1] == pytest.approx(0.0, abs=1e-12)

    def test_constants(self):
        reg = registry_for("")
        assert bounds_of(reg, ONE, 0)[0].low == 1.0
        assert bounds_of(reg, ZERO, 0)[0].high == 0.0

    def test_unsupported_expression_rejected(self):
        from repro.algebra.monoid import SUM
        from repro.algebra.semimodule import MConst, aggsum, tensor

        reg = registry_for("x")
        alpha = aggsum(SUM, [tensor(Var("x"), MConst(SUM, 1))])
        with pytest.raises(CompilationError, match="semimodule comparisons"):
            bounds_of(reg, alpha, 8)

    def test_only_exact_bounds_outlive_the_call(self):
        expr = parse_expr("(a+b)*(a+c)*(b+d)*(c+d)")
        reg = registry_for("abcd", p=0.4)
        proven = {}
        with kernels_off():
            bounds, _ = bounds_of(reg, expr, 2, proven)
        assert bounds.width > 0
        assert proven and all(entry.width == 0.0 for entry in proven.values())

    def test_a_shared_cache_bounds_with_the_current_marginals(self):
        expr = parse_expr("(a+b)*(a+c)")
        reg = registry_for("abc")
        cache = CompilationCache(Compiler(reg, BOOLEAN))
        before, _ = cache.bounds(expr, 1 << 10, {})
        reg.reassign("a", Distribution.bernoulli(0.9))
        after, _ = cache.bounds(expr, 1 << 10, {})
        assert after.width == before.width == 0.0
        assert after.low == pytest.approx(Compiler(reg, BOOLEAN).probability(expr))
        assert after.low != pytest.approx(before.low)


class TestRefinementLoop:
    def test_epsilon_reached(self):
        expr = parse_expr("(a+b)*(a+c) + d*e")
        reg = registry_for("abcde", p=0.45)
        bounds = approximate_probability(expr, reg, epsilon=1e-6)
        exact = Compiler(reg, BOOLEAN).probability(expr)
        assert bounds.width <= 1e-6
        assert bounds.contains(exact, tol=1e-6)

    def test_falls_back_to_exact(self, monkeypatch):
        # One round of one unit cannot resolve the ring: only the exact
        # fallback collapses the interval.
        monkeypatch.setattr(approx, "INITIAL_BUDGET", 1)
        monkeypatch.setattr(approx, "MAX_BUDGET", 1)
        expr, reg = TestTabulatedResiduals().wide()
        bounds = approximate_probability(expr, reg, epsilon=0.0)
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
        bounds, _ = bounds_of(registry_for("abcd"), parse_expr(self.SMALL), 0)
        assert (bounds.low, bounds.high) == (0.0, 1.0)

    def test_expired_deadline_is_unknown(self, numpy_kernels):
        from repro.resilience.deadline import Deadline, deadline_scope

        deadline = Deadline(1e-9)
        assert deadline.expired()
        with deadline_scope(deadline):
            bounds, spent = bounds_of(
                registry_for("abcd"), parse_expr(self.SMALL), 8
            )
        assert (bounds.low, bounds.high) == (0.0, 1.0)
        assert spent == 0

    def test_one_unit_buys_a_whole_table(self, numpy_kernels):
        reg = registry_for("abcd", p=0.4)
        bounds, spent = bounds_of(reg, parse_expr(self.SMALL), 1)
        assert spent == 1
        assert bounds.width == 0.0
        exact = Compiler(reg, BOOLEAN).probability(parse_expr(self.SMALL))
        assert bounds.low == pytest.approx(exact, abs=1e-12)

    def test_one_unit_on_a_wide_residual_stays_sound(self, numpy_kernels):
        expr, reg = self.wide()
        bounds, spent = bounds_of(reg, expr, 1)
        assert spent == 1
        assert 0.0 < bounds.width
        assert bounds.contains(Compiler(reg, BOOLEAN).probability(expr))

    def test_a_capped_run_never_exceeds_its_cap(self, numpy_kernels):
        expr, reg = self.wide()
        for budget in range(8):
            _, spent = bounds_of(reg, expr, budget)
            assert spent <= budget

    def test_intervals_nest_across_rounds(self, numpy_kernels):
        expr, reg = self.wide()
        exact = Compiler(reg, BOOLEAN).probability(expr)
        low, high, proven = 0.0, 1.0, {}
        for budget in (0, 1, 2, 4, 8, 16, 32, 64):
            bounds, _ = bounds_of(reg, expr, budget, proven)
            assert low - 1e-12 <= bounds.low <= exact + 1e-12
            assert exact - 1e-12 <= bounds.high <= high + 1e-12
            low, high = bounds.low, bounds.high
        assert bounds.width == pytest.approx(0.0, abs=1e-12)

    def test_expansions_repeat_exactly(self, numpy_kernels):
        expr, reg = self.wide()
        runs = []
        for _ in range(2):
            bounds, spent = bounds_of(reg, expr, 64)
            runs.append((spent, bounds.low, bounds.high))
        assert runs[0] == runs[1]
        assert runs[0][0] > 1  # it expanded before it tabulated

    def test_same_bounds_as_algorithm_1_verbatim(self, numpy_kernels):
        expr, reg = self.wide()
        fast, tabulated = bounds_of(reg, expr, 1 << 10)
        with kernels_off():
            slow, verbatim = bounds_of(reg, expr, 1 << 10)
        assert fast.width == slow.width == 0.0
        assert fast.low == pytest.approx(slow.low, abs=1e-12)
        assert tabulated < verbatim


#: ``(low, high, units spent)`` per budget, and the ε = 0.05 interval of
#: :func:`approximate_probability`, on run 0 of each ``bench_approx``
#: shape with the kernels on, as the approximation computed them before
#: it became :meth:`Compiler.bounds`.
PINNED = {
    "count-center": {
        0: (0.0, 1.0, 0),
        1: (0.0, 0.5, 1),
        4: (0.0, 0.0, 3),
        16: (0.0, 0.0, 3),
        64: (0.0, 0.0, 3),
        256: (0.0, 0.0, 3),
        "epsilon": (0.0, 0.0),
    },
    "sum-center": {
        0: (0.0, 1.0, 0),
        1: (0.0, 1.0, 1),
        4: (0.0009765625, 0.5009765625, 4),
        16: (0.0029296875, 0.0029296875, 7),
        64: (0.0029296875, 0.0029296875, 7),
        256: (0.0029296875, 0.0029296875, 7),
        "epsilon": (0.0029296875, 0.0029296875),
    },
    "count-having": {
        0: (0.0, 1.0, 0),
        1: (0.0, 0.5, 1),
        4: (0.0, 0.125, 4),
        16: (0.002197265625, 0.002197265625, 6),
        64: (0.002197265625, 0.002197265625, 6),
        256: (0.002197265625, 0.002197265625, 6),
        "epsilon": (0.002197265625, 0.002197265625),
    },
    "sum-low-tail": {
        0: (0.0, 1.0, 0),
        1: (0.0, 1.0, 1),
        4: (0.0, 0.9375, 4),
        16: (0.0040283203125, 0.7540283203125, 16),
        64: (0.041015625, 0.322265625, 64),
        256: (0.14178466796875, 0.14178466796875, 96),
        "epsilon": (0.14178466796875, 0.14178466796875),
    },
    "sum-high-tail": {
        0: (0.0, 1.0, 0),
        1: (0.0, 1.0, 1),
        4: (0.0, 1.0, 4),
        16: (0.16064453125, 0.97314453125, 16),
        64: (0.37969970703125, 0.78594970703125, 64),
        256: (0.48199462890625, 0.48199462890625, 113),
        "epsilon": (0.48199462890625, 0.48199462890625),
    },
}


class TestPinnedBehaviour:
    @pytest.mark.parametrize("shape", SHAPES, ids=[shape[0] for shape in SHAPES])
    def test_bench_shapes_bound_as_pinned(self, shape, numpy_kernels):
        label, agg, theta, c, variables, terms = shape
        expr, reg = generate_condition(
            _params(agg, theta, c, variables, terms), seed=c
        )
        pinned = dict(PINNED[label])
        low, high = pinned.pop("epsilon")
        bounds = approximate_probability(expr, reg, epsilon=0.05)
        assert (bounds.low, bounds.high) == pytest.approx((low, high), abs=1e-12)
        for budget, (low, high, spent) in pinned.items():
            bounds, units = bounds_of(reg, expr, budget)
            assert units == spent, budget
            assert (bounds.low, bounds.high) == pytest.approx(
                (low, high), abs=1e-12
            ), budget
