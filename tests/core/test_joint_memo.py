"""The joint compiler's memo: keyed on the normalised expressions, local
to one call, and its mutex branches stated as the normalised
substitution."""

from unittest import mock

import pytest

from repro.algebra.expressions import SConst, Var
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.core.compile import Compiler
from repro.prob.space import ProbabilitySpace
from repro.prob.variables import VariableRegistry


@pytest.fixture
def compiler():
    reg = VariableRegistry()
    for name, p in zip("abcd", (0.3, 0.6, 0.8, 0.4)):
        reg.bernoulli(name, p)
    return Compiler(reg, BOOLEAN)


def _tuples(compiler, exprs) -> list:
    """Every tuple ``joint_distribution(exprs)`` looks up, in order."""
    seen = []
    original = Compiler._joint

    def spy(self, key, memo, restrictions):
        seen.append((key, key in memo))
        return original(self, key, memo, restrictions)

    with mock.patch.object(Compiler, "_joint", spy):
        result = compiler.joint_distribution(exprs)
    expected = ProbabilitySpace(compiler.registry, BOOLEAN).joint_distribution_of(
        exprs
    )
    assert result.almost_equals(expected)
    return seen


def test_a_restated_equal_tuple_hits_the_memo(compiler):
    """⟨(a+b)·(a+b)·c, (b+a)·d⟩ normalises to ⟨(a+b)·c, (a+b)·d⟩, which
    reaches ⟨c, d⟩ at b ← 1 and again at b ← 0, a ← 1: the second
    lookup of the equal tuple is a hit."""
    a, b, c, d = (Var(name) for name in "abcd")
    seen = _tuples(compiler, [(a + b) * (a + b) * c, (b + a) * d])
    assert seen[0][0] == ((a + b) * c, (a + b) * d)
    assert [hit for key, hit in seen if key == (c, d)] == [False, True]
    assert compiler.mutex_nodes_created == 2


def test_the_memo_lives_for_one_call(compiler):
    a, b, c, d = (Var(name) for name in "abcd")
    first = _tuples(compiler, [(a + b) * c, (a + b) * d])
    again = _tuples(compiler, [(a + b) * c, (a + b) * d])
    assert again == first
    assert compiler.mutex_nodes_created == 4


def test_mutex_branches_are_normalised_substitutions():
    """In B, restricting ``(c·d + a)·c`` at ``a ← 0`` is the normalised
    substitution ``c·d``: the restriction flattens ``c·d`` into the
    product before it drops the duplicate ``c``.  The branches, and so
    the memo's keys and the variables chosen below them, are the
    normalised substitutions."""
    reg = VariableRegistry()
    for name, p in zip("acd", (0.3, 0.6, 0.8)):
        reg.bernoulli(name, p)
    compiler = Compiler(reg, BOOLEAN)
    a, c, d = Var("a"), Var("c"), Var("d")
    exprs = [(c * d + a) * c, a]
    seen = _tuples(compiler, exprs)
    assert compiler.mutex_nodes_created == 1
    normalise = compiler.normalize
    assert {key for key, _ in seen} == {
        tuple(normalise(e) for e in exprs),
        (c * d, SConst(0)),
        (c, SConst(1)),
    }


def test_branches_match_enumeration_in_n():
    reg = VariableRegistry()
    for name in "abc":
        reg.integer(name, {0: 0.2, 1: 0.3, 2: 0.5})
    compiler = Compiler(reg, NATURALS)
    exprs = [Var("a") + Var("b"), Var("a") * Var("c") + Var("b")]
    result = compiler.joint_distribution(exprs)
    expected = ProbabilitySpace(reg, NATURALS).joint_distribution_of(exprs)
    assert result.almost_equals(expected)
