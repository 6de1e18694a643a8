"""The joint compiler's memo: keyed on the normalised expressions, and
its mutex branches stated as the normalised substitution."""

from unittest import mock

import pytest

from repro.algebra.expressions import SConst, Var
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.core.compile import Compiler
from repro.core.joint import JointCompiler
from repro.prob.space import ProbabilitySpace
from repro.prob.variables import VariableRegistry


def _exprs():
    """⟨a + b, a·c⟩ built afresh: equal to, but not, the last call's."""
    return [Var("a") + Var("b"), Var("a") * Var("c")]


@pytest.fixture
def compiler():
    reg = VariableRegistry()
    for name, p in zip("abc", (0.3, 0.6, 0.8)):
        reg.bernoulli(name, p)
    return Compiler(reg, BOOLEAN)


def test_a_restated_equal_tuple_hits_the_memo(compiler):
    joint = JointCompiler(compiler)
    first = joint.joint_distribution(_exprs())
    with mock.patch.object(
        JointCompiler, "_joint_uncached", side_effect=AssertionError("recomputed")
    ):
        again = joint.joint_distribution(_exprs())
        # The memo's key is the tuple of normalised expressions.
        restated = tuple(joint._normalizer(e) for e in _exprs())
        assert joint._joint(restated) is first
    assert again is first


def test_mutex_branches_are_normalised_substitutions():
    """In B, restricting ``(c·d + a)·c`` at ``a ← 0`` combines ``c·d``
    with ``c`` into ``c·c·d``; substituting first lets the smart
    constructors flatten, and normalising then gives ``c·d``.  The
    branches, and so the memo's keys and the variables chosen below
    them, are the normalised substitutions."""
    reg = VariableRegistry()
    for name, p in zip("acd", (0.3, 0.6, 0.8)):
        reg.bernoulli(name, p)
    compiler = Compiler(reg, BOOLEAN)
    a, c, d = Var("a"), Var("c"), Var("d")
    exprs = [(c * d + a) * c, a]
    joint = JointCompiler(compiler)
    result = joint.joint_distribution(exprs)
    assert joint.mutex_nodes_created == 1
    normalise = joint._normalizer
    assert set(joint._memo) == {
        tuple(normalise(e) for e in exprs),
        (c * d, SConst(0)),
        (c, SConst(1)),
    }
    expected = ProbabilitySpace(reg, BOOLEAN).joint_distribution_of(exprs)
    assert result.almost_equals(expected)


def test_branches_match_enumeration_in_n():
    reg = VariableRegistry()
    for name in "abc":
        reg.integer(name, {0: 0.2, 1: 0.3, 2: 0.5})
    compiler = Compiler(reg, NATURALS)
    exprs = [Var("a") + Var("b"), Var("a") * Var("c") + Var("b")]
    result = JointCompiler(compiler).joint_distribution(exprs)
    expected = ProbabilitySpace(reg, NATURALS).joint_distribution_of(exprs)
    assert result.almost_equals(expected)
