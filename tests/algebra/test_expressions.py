"""Unit tests for the free-semiring expression AST."""

import pytest

from repro.algebra.expressions import (
    ONE,
    ZERO,
    Prod,
    SConst,
    Sum,
    Var,
    count_occurrences,
    sprod,
    ssum,
    variables_of,
)
from repro.errors import AlgebraError


class TestVar:
    def test_variables(self):
        assert Var("x").variables == frozenset({"x"})

    def test_variables_before_and_after_the_first_read(self):
        x = Var("x")
        assert x._vars == ("x",)  # no frozenset until someone asks
        first = x.variables
        assert first == frozenset({"x"}) and type(first) is frozenset
        assert x.variables is first  # swapped in place, built once
        assert x._vars is first
        assert "x" in ssum([x, Var("y")]).variables

    def test_pickled_before_the_first_read(self):
        import pickle

        copy = pickle.loads(pickle.dumps(Var("x")))
        assert copy == Var("x") and hash(copy) == hash(Var("x"))
        assert copy.variables == frozenset({"x"})

    def test_equality_by_name(self):
        assert Var("x") == Var("x")
        assert Var("x") != Var("y")

    def test_invalid_names_rejected(self):
        with pytest.raises(AlgebraError):
            Var("")
        with pytest.raises(AlgebraError):
            Var(42)

    def test_substitution(self):
        assert Var("x").substitute({"x": SConst(1)}) == ONE
        assert Var("x").substitute({"y": SConst(1)}) == Var("x")


class TestSConst:
    def test_bools_canonicalised_to_ints(self):
        assert SConst(True).value == 1
        assert SConst(False) == ZERO

    def test_negative_rejected(self):
        with pytest.raises(AlgebraError):
            SConst(-1)

    def test_zero_one_predicates(self):
        assert ZERO.is_zero() and not ZERO.is_one()
        assert ONE.is_one() and not ONE.is_zero()
        assert not Var("x").is_zero()


class TestSmartConstructors:
    def test_sum_flattens(self):
        expr = ssum([ssum([Var("a"), Var("b")]), Var("c")])
        assert isinstance(expr, Sum)
        assert len(expr.children) == 3

    def test_sum_drops_zero(self):
        assert ssum([Var("a"), ZERO]) == Var("a")

    def test_empty_sum_is_zero(self):
        assert ssum([]) == ZERO

    def test_singleton_sum_collapses(self):
        assert ssum([Var("a")]) == Var("a")

    def test_prod_flattens(self):
        expr = sprod([sprod([Var("a"), Var("b")]), Var("c")])
        assert isinstance(expr, Prod)
        assert len(expr.children) == 3

    def test_prod_drops_one(self):
        assert sprod([Var("a"), ONE]) == Var("a")

    def test_prod_annihilates_on_zero(self):
        assert sprod([Var("a"), ZERO, Var("b")]) == ZERO

    def test_empty_prod_is_one(self):
        assert sprod([]) == ONE

    def test_commutativity_is_canonical(self):
        # Remark 2: order must not matter for decomposition.
        assert ssum([Var("a"), Var("b")]) == ssum([Var("b"), Var("a")])
        assert sprod([Var("a"), Var("b")]) == sprod([Var("b"), Var("a")])

    def test_associativity_is_canonical(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    def test_operator_overloads_with_ints(self):
        expr = Var("a") * 1 + 0
        assert expr == Var("a")

    def test_module_expression_rejected_in_sum(self):
        from repro.algebra.monoid import SUM
        from repro.algebra.semimodule import MConst

        with pytest.raises(AlgebraError):
            ssum([Var("a"), MConst(SUM, 5)])


class TestStructure:
    def test_variables_cached_union(self):
        expr = Var("a") * Var("b") + Var("c")
        assert expr.variables == frozenset({"a", "b", "c"})

    def test_variables_of_many(self):
        assert variables_of([Var("a"), Var("b") * Var("c")]) == frozenset("abc")

    def test_count_occurrences(self):
        expr = Var("a") * (Var("b") + Var("a")) + Var("a")
        counts = count_occurrences(expr)
        assert counts["a"] == 3
        assert counts["b"] == 1

    def test_size_and_walk(self):
        expr = Var("a") * Var("b") + Var("c")
        assert expr.size() == 5  # Sum, Prod, a, b, c
        assert sum(1 for _ in expr.walk()) == 5

    def test_substitute_simplifies(self):
        expr = Var("a") * Var("b")
        assert expr.substitute({"a": ZERO}) == ZERO
        assert expr.substitute({"a": ONE}) == Var("b")

    def test_hash_consistency(self):
        e1 = Var("a") + Var("b")
        e2 = Var("b") + Var("a")
        assert hash(e1) == hash(e2)
        assert len({e1, e2}) == 1

    def test_repr_roundtrip_style(self):
        assert repr(Var("x")) == "x"
        assert "+" in repr(Var("x") + Var("y"))


class TestInlinedConstructors:
    """``Sum``/``Prod`` compute key, variables and hash inline and the
    smart constructors decide exact ``Var``/``Sum``/``Prod`` operands
    early; structure must be what the generic formulation produces."""

    @staticmethod
    def _reference(constructor_tag, neutral, absorbing, node, operands):
        """The smart constructors as they were: coerce, then test."""
        from repro.algebra.expressions import _coerce

        flat = []
        for operand in operands:
            operand = _coerce(operand)
            if absorbing is not None and operand == absorbing:
                return absorbing
            if isinstance(operand, node):
                flat.extend(operand.children)
            elif operand != neutral:
                flat.append(operand)
        if not flat:
            return neutral
        if len(flat) == 1:
            return flat[0]
        children = tuple(sorted(flat, key=lambda e: e.key))
        return constructor_tag, children

    def _check(self, built, reference):
        if not isinstance(reference, tuple):
            assert built is reference or built == reference
            return
        tag, children = reference
        assert type(built) is {"+": Sum, "*": Prod}[tag]
        assert built.children == children
        assert built.key == (tag,) + tuple(c.key for c in children)
        assert hash(built) == hash((tag,) + tuple(hash(c) for c in children))
        assert built.variables == frozenset().union(
            *(c.variables for c in children)
        )

    def test_matches_the_generic_formulation(self):
        import itertools

        class SubVar(Var):
            __slots__ = ()

        a, b, c = Var("a"), Var("b"), Var("c")
        atoms = [
            a, b, SubVar("s"), ZERO, ONE, SConst(2), 0, 1, True, 3,
            Sum((a, b)), Prod((b, c)), Sum((Prod((a, b)), c)),
            Prod((Sum((a, c)), b)),
        ]
        for operands in itertools.chain(
            itertools.product(atoms, repeat=2),
            [(), (a,), (a, b, c), (c, Prod((a, b)), Sum((a, b)), 1, a)],
        ):
            self._check(
                ssum(operands),
                self._reference("+", ZERO, None, Sum, operands),
            )
            self._check(
                sprod(operands),
                self._reference("*", ONE, ZERO, Prod, operands),
            )
