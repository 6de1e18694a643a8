"""``Expr.has_comparison`` is the fact "a ``[θ]`` node occurs in me".

The pruning pass (Section 5) trusts it to skip every comparison-free
sub-expression, so a wrong ``False`` would silently leave a comparison
unpruned — a slower d-tree, or a saturating monoid never introduced.
The fact is checked against a walk of the expression on everything
drawn and on everything the compiler derives from it: normal forms,
restrictions, substitutions and pickle round trips (the process pool
ships annotations).  The pruning pass itself is checked against the
full-walk pass it replaced, kept below as the oracle.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.conditions import Compare, compare
from repro.algebra.expressions import Prod, SConst, Sum, Var, sprod, ssum
from repro.algebra.monoid import MAX, MIN, SUM
from repro.algebra.semimodule import (
    AggSum,
    MConst,
    Tensor,
    aggsum,
    tensor,
)
from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.algebra.simplify import Normalizer
from repro.core.pruning import prune, prune_comparison
from tests.property.strategies import (
    NAMES,
    conditions,
    repetitive_exprs,
    semiring_exprs,
)

SETTINGS = settings(max_examples=100, deadline=None)
OPERATORS = ["=", "!=", "<=", ">=", "<", ">"]
SEMIRINGS = [BOOLEAN, NATURALS]


def walked(expr) -> bool:
    """The fact by definition: some node of ``expr.walk()`` is a ``[θ]``."""
    return any(isinstance(node, Compare) for node in expr.walk())


def full_walk_prune(expr, semiring):
    """The pruning pass as it was before the fact existed: it walks every
    node and hands back what no rule changes."""
    if isinstance(expr, (Var, SConst, MConst)):
        return expr
    if isinstance(expr, (Sum, Prod, AggSum)):
        children = [full_walk_prune(c, semiring) for c in expr.children]
        if all(new is old for new, old in zip(children, expr.children)):
            return expr
        if isinstance(expr, Sum):
            return ssum(children)
        if isinstance(expr, Prod):
            return sprod(children)
        return aggsum(expr.monoid, children)
    if isinstance(expr, Tensor):
        phi = full_walk_prune(expr.phi, semiring)
        arg = full_walk_prune(expr.arg, semiring)
        if phi is expr.phi and arg is expr.arg:
            return expr
        return tensor(phi, arg)
    if isinstance(expr, Compare):
        left = full_walk_prune(expr.left, semiring)
        right = full_walk_prune(expr.right, semiring)
        if left is not expr.left or right is not expr.right:
            expr = compare(left, expr.op, right)
        return prune_comparison(expr, semiring)
    return expr


@st.composite
def scalars(draw, depth=2):
    """Semiring expressions with ``[θ]`` nodes at any depth: plain and
    repetitive expressions, HAVING-shaped ``[Σ_M Φ⊗m θ c]``, sums and
    products of these, and comparisons over aggregates whose scalars (or
    an outer tensor's) hold comparisons themselves."""
    kind = draw(st.integers(0, 5 if depth > 0 else 2))
    if kind == 0:
        return draw(semiring_exprs(depth=2))
    if kind == 1:
        return draw(repetitive_exprs(depth=1))
    if kind == 2:
        return draw(conditions())
    children = draw(st.lists(scalars(depth=depth - 1), min_size=2, max_size=3))
    if kind == 3:
        return ssum(children)
    if kind == 4:
        return sprod(children)
    alpha = draw(modules(children))
    threshold = draw(st.integers(0, 10))
    return compare(alpha, draw(st.sampled_from(OPERATORS)), MConst(alpha.monoid, threshold))


@st.composite
def modules(draw, scalars_=None):
    """``Σ_M Φᵢ⊗mᵢ`` over drawn scalars, sometimes under one more
    ``Ψ ⊗ (…)`` — a tensor whose argument is the aggregate."""
    if scalars_ is None:
        scalars_ = draw(st.lists(scalars(depth=1), min_size=1, max_size=3))
    monoid = draw(st.sampled_from([SUM, MIN, MAX]))
    alpha = aggsum(
        monoid,
        [tensor(phi, MConst(monoid, draw(st.integers(0, 8)))) for phi in scalars_],
    )
    if draw(st.booleans()):
        alpha = tensor(draw(scalars(depth=1)), alpha)
    return alpha


expressions = st.one_of(scalars(), modules())


def assert_fact(expr):
    assert expr.has_comparison == walked(expr), expr
    # Asked again, the kept answer is the same.
    assert expr.has_comparison == walked(expr), expr


class TestTheFact:
    @SETTINGS
    @given(expressions)
    def test_equals_a_walk(self, expr):
        assert_fact(expr)

    @SETTINGS
    @given(expressions, st.sampled_from(SEMIRINGS))
    def test_holds_on_normal_forms_and_restrictions(self, expr, semiring):
        normalizer = Normalizer(semiring)
        normal = normalizer(expr)
        assert_fact(normal)
        for name in sorted(normal.variables):
            for value in (0, 1):
                assert_fact(normalizer.restrict(normal, name, SConst(value)))

    @SETTINGS
    @given(expressions, st.sampled_from(NAMES), scalars(depth=1), st.integers(0, 1))
    def test_holds_on_substitutions(self, expr, name, replacement, value):
        # A condition substituted into a comparison-free expression
        # brings a [θ] into nodes that are new.
        assert_fact(expr.substitute({name: replacement}))
        assert_fact(expr.substitute({name: SConst(value)}))

    @SETTINGS
    @given(expressions, st.booleans())
    def test_holds_after_a_pickle_round_trip(self, expr, asked_first):
        if asked_first:
            assert_fact(expr)
        copy = pickle.loads(pickle.dumps(expr))
        assert copy == expr
        assert_fact(copy)

    def test_leaves_and_comparisons_answer_by_kind(self):
        assert not Var("a").has_comparison
        assert not SConst(1).has_comparison
        assert not MConst(SUM, 3).has_comparison
        condition = compare(tensor(Var("a"), MConst(SUM, 3)), "<=", 2)
        assert condition.has_comparison
        for composite in (
            Var("b") + condition,
            condition * Var("b"),
            tensor(condition, MConst(SUM, 1)),
            aggsum(SUM, [tensor(Var("b"), MConst(SUM, 1)), tensor(condition, MConst(SUM, 2))]),
            tensor(Var("b"), aggsum(SUM, [
                tensor(Var("c"), MConst(SUM, 1)), tensor(condition, MConst(SUM, 2)),
            ])),
        ):
            assert composite.has_comparison, composite
        assert not (Var("b") + Var("c")).has_comparison


class TestPruneReadsTheFact:
    @SETTINGS
    @given(expressions, st.sampled_from(SEMIRINGS))
    def test_a_comparison_free_expression_comes_back_as_is(self, expr, semiring):
        if not walked(expr):
            assert prune(expr, semiring) is expr
        for node in expr.walk():
            if not walked(node):
                assert prune(node, semiring) is node

    @SETTINGS
    @given(expressions, st.sampled_from(SEMIRINGS))
    def test_equals_the_full_walk(self, expr, semiring):
        expected = full_walk_prune(expr, semiring)
        pruned = prune(expr, semiring)
        assert pruned == expected
        assert (pruned is expr) == (expected is expr)
