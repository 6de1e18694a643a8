"""Tests for joint distribution compilation (Section 5):
:meth:`Compiler.joint_distribution`."""

from unittest import mock

import pytest

from repro.algebra.conditions import compare
from repro.algebra.expressions import ZERO, Var
from repro.algebra.monoid import MAX, SUM
from repro.algebra.semimodule import MConst, aggsum, tensor
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.core.compile import Compiler
from repro.errors import CompilationError
from repro.prob.space import ProbabilitySpace
from repro.prob.variables import VariableRegistry


class TestPaperExample:
    """The ⟨a+b, a·c⟩ example at the end of Section 5."""

    def test_joint_value_probability(self):
        reg = VariableRegistry()
        for name in "abc":
            reg.integer(name, {1: 0.5, 2: 0.5})
        compiler = Compiler(reg, NATURALS)
        joint = compiler.joint_distribution([Var("a") + Var("b"), Var("a") * Var("c")])
        # P⟨3, 2⟩ = Pa[2]Pb[1]Pc[1] + Pa[1]Pb[2]Pc[2]
        assert joint[(3, 2)] == pytest.approx(0.125 + 0.125)

    def test_matches_enumeration(self):
        reg = VariableRegistry()
        for name in "abc":
            reg.integer(name, {1: 0.3, 2: 0.7})
        compiler = Compiler(reg, NATURALS)
        exprs = [Var("a") + Var("b"), Var("a") * Var("c")]
        joint = compiler.joint_distribution(exprs)
        expected = ProbabilitySpace(reg, NATURALS).joint_distribution_of(exprs)
        assert joint.almost_equals(expected)


class TestIndependentComponents:
    def test_product_distribution(self):
        reg = VariableRegistry()
        reg.bernoulli("x", 0.3)
        reg.bernoulli("y", 0.8)
        compiler = Compiler(reg, BOOLEAN)
        joint = compiler.joint_distribution([Var("x"), Var("y")])
        assert joint[(True, True)] == pytest.approx(0.24)
        assert joint[(False, True)] == pytest.approx(0.56)

    def test_no_mutex_needed_for_independent(self):
        reg = VariableRegistry()
        reg.bernoulli("x", 0.3)
        reg.bernoulli("y", 0.8)
        compiler = Compiler(reg, BOOLEAN)
        compiler.joint_distribution([Var("x"), Var("y")])
        assert compiler.mutex_nodes_created == 0

    def test_single_expression(self):
        reg = VariableRegistry()
        reg.bernoulli("x", 0.3)
        compiler = Compiler(reg, BOOLEAN)
        joint = compiler.joint_distribution([Var("x")])
        assert joint[(True,)] == pytest.approx(0.3)


class TestAnnotationValueJoint:
    """The use case: joint of a tuple's annotation and aggregate value."""

    def test_presence_conditioned_aggregate(self):
        reg = VariableRegistry()
        reg.bernoulli("x", 0.5)
        reg.bernoulli("y", 0.5)
        compiler = Compiler(reg, BOOLEAN)
        alpha = aggsum(
            MAX,
            [tensor(Var("x"), MConst(MAX, 10)), tensor(Var("y"), MConst(MAX, 20))],
        )
        guard = compare(Var("x") + Var("y"), "!=", ZERO)
        joint = compiler.joint_distribution([guard, alpha])
        expected = ProbabilitySpace(reg, BOOLEAN).joint_distribution_of(
            [guard, alpha]
        )
        assert joint.almost_equals(expected)
        # Conditional P(max=10 | present) = P(x ∧ ¬y)/P(x ∨ y)
        present_mass = sum(
            p for (g, _), p in joint.items() if g
        )
        assert present_mass == pytest.approx(0.75)

    def test_memoisation_shares_restrictions(self):
        """⟨(a+b)·c, (a+b)·d⟩ reaches ⟨c, d⟩ at b ← 1 and again at
        b ← 0, a ← 1: one call computes it once."""
        reg = VariableRegistry()
        for name in "abcd":
            reg.bernoulli(name, 0.5)
        compiler = Compiler(reg, BOOLEAN)
        a, b, c, d = (Var(name) for name in "abcd")
        exprs = [(a + b) * c, (a + b) * d]
        compiled = []
        original = Compiler._compile_input

        def spy(self, expr):
            compiled.append(expr)
            return original(self, expr)

        with mock.patch.object(Compiler, "_compile_input", spy):
            joint = compiler.joint_distribution(exprs)
        assert compiled.count(c) == 1 and compiled.count(d) == 1
        assert compiler.mutex_nodes_created == 2
        expected = ProbabilitySpace(reg, BOOLEAN).joint_distribution_of(exprs)
        assert joint.almost_equals(expected)

    def test_budget_enforced(self):
        reg = VariableRegistry()
        for i in range(6):
            reg.bernoulli(f"v{i}", 0.5)
        compiler = Compiler(reg, BOOLEAN, max_mutex_nodes=0)
        entangled = [
            (Var("v0") + Var("v1")) * (Var("v0") + Var("v2")),
            Var("v0") * Var("v3"),
        ]
        with pytest.raises(CompilationError, match="budget"):
            compiler.joint_distribution(entangled)

    def test_three_way_joint(self):
        reg = VariableRegistry()
        for name in "abc":
            reg.bernoulli(name, 0.4)
        compiler = Compiler(reg, BOOLEAN)
        exprs = [Var("a"), Var("a") + Var("b"), Var("b") * Var("c")]
        joint = compiler.joint_distribution(exprs)
        expected = ProbabilitySpace(reg, BOOLEAN).joint_distribution_of(exprs)
        assert joint.almost_equals(expected)

    def test_sum_aggregate_joint_with_count(self):
        reg = VariableRegistry()
        for name in ("x", "y"):
            reg.bernoulli(name, 0.5)
        compiler = Compiler(reg, BOOLEAN)
        total = aggsum(
            SUM,
            [tensor(Var("x"), MConst(SUM, 5)), tensor(Var("y"), MConst(SUM, 7))],
        )
        count = aggsum(
            SUM,
            [tensor(Var("x"), MConst(SUM, 1)), tensor(Var("y"), MConst(SUM, 1))],
        )
        joint = compiler.joint_distribution([total, count])
        assert joint[(12, 2)] == pytest.approx(0.25)
        assert joint[(5, 1)] == pytest.approx(0.25)
        assert joint[(0, 0)] == pytest.approx(0.25)
