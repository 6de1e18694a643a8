"""Selection predicates for the query language ``Q`` (Section 6 syntax).

A selection condition is a conjunction of atomic comparisons whose operands
are attribute references or literals.  Evaluated on a pvc-table row, an
atom yields

* a Python ``bool`` when both operands are concrete values — the row is
  kept or dropped outright, or
* a symbolic conditional expression ``[α θ c]`` when an operand is a
  semimodule expression — the condition is multiplied into the row's
  annotation, exactly as ``σ_{AθB}`` does in Figure 4.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.algebra.conditions import COMPARISON_OPS, ComparisonOp, compare
from repro.algebra.expressions import SemiringExpr, sprod
from repro.algebra.semimodule import ModuleExpr
from repro.errors import QueryValidationError

__all__ = [
    "AttrRef",
    "Literal",
    "Param",
    "Comparison",
    "Conjunction",
    "TruePredicate",
    "attr",
    "lit",
    "eq",
    "cmp_",
    "conj",
]


class Operand:
    """Base class of comparison operands."""

    def resolve(self, row: Mapping[str, object]):
        raise NotImplementedError

    def attributes(self) -> frozenset:
        return frozenset()

    def bind(self, values) -> "Operand":
        """This operand with a parameter replaced by its value."""
        return self


class AttrRef(Operand):
    """A reference to an attribute of the input relation."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def resolve(self, row):
        try:
            return row[self.name]
        except KeyError:
            raise QueryValidationError(
                f"predicate references unknown attribute {self.name!r}"
            ) from None

    def attributes(self):
        return frozenset((self.name,))

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, AttrRef) and self.name == other.name

    def __hash__(self):
        return hash(("AttrRef", self.name))


class Literal(Operand):
    """A constant operand."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def resolve(self, row):
        return self.value

    def bind(self, values):
        value = self.value
        return Literal(values[value.index]) if isinstance(value, Param) else self

    def __repr__(self):
        return repr(self.value)

    def __eq__(self, other):
        return isinstance(other, Literal) and self.value == other.value

    def __hash__(self):
        return hash(("Literal", self.value))


class Param:
    """The value of the ``index``-th literal of a statement, in a shape's
    template (:func:`repro.query.sql.parse_template`); equal only to the
    parameter of the same position, never to a value."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self):
        return f"${self.index + 1}"

    def __eq__(self, other):
        return isinstance(other, Param) and self.index == other.index

    def __hash__(self):
        return hash(("Param", self.index))


class Predicate:
    """Base class of predicates; evaluation returns bool or an expression."""

    def evaluate(self, row: Mapping[str, object]):
        raise NotImplementedError

    def attributes(self) -> frozenset:
        """All attributes referenced by the predicate."""
        raise NotImplementedError

    def atoms(self) -> Sequence["Comparison"]:
        """The atomic comparisons of this (conjunctive) predicate."""
        raise NotImplementedError

    def bind(self, values) -> "Predicate":
        """This predicate with each :class:`Param` replaced by its value
        in ``values`` (itself when it holds none)."""
        return self


class TruePredicate(Predicate):
    """The always-true predicate (empty conjunction)."""

    def evaluate(self, row):
        return True

    def attributes(self):
        return frozenset()

    def atoms(self):
        return ()

    def __repr__(self):
        return "true"

    def __eq__(self, other):
        return isinstance(other, TruePredicate)

    def __hash__(self):
        return hash("TruePredicate")


class Comparison(Predicate):
    """An atomic comparison ``left θ right``."""

    __slots__ = ("left", "op", "right")

    def __init__(self, left: Operand, op: ComparisonOp | str, right: Operand):
        if isinstance(op, str):
            op = COMPARISON_OPS[op]
        self.left = left
        self.op = op
        self.right = right

    def evaluate(self, row):
        left = self.left.resolve(row)
        right = self.right.resolve(row)
        if isinstance(left, ModuleExpr) or isinstance(right, ModuleExpr):
            return compare(left, self.op, right)
        return bool(self.op(left, right))

    def attributes(self):
        return self.left.attributes() | self.right.attributes()

    def atoms(self):
        return (self,)

    def bind(self, values):
        left, right = self.left.bind(values), self.right.bind(values)
        if left is self.left and right is self.right:
            return self
        return Comparison(left, self.op, right)

    def is_attribute_equality(self) -> bool:
        """True for ``A = B`` atoms between two attribute references."""
        return (
            self.op.symbol == "="
            and isinstance(self.left, AttrRef)
            and isinstance(self.right, AttrRef)
        )

    def is_constant_equality(self) -> bool:
        """True for ``A = c`` atoms (either side a literal)."""
        return self.op.symbol == "=" and (
            isinstance(self.left, Literal) != isinstance(self.right, Literal)
        )

    def __repr__(self):
        return f"{self.left!r} {self.op.symbol} {self.right!r}"

    def __eq__(self, other):
        return (
            isinstance(other, Comparison)
            and self.op.symbol == other.op.symbol
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash(("Comparison", self.left, self.op.symbol, self.right))


class Conjunction(Predicate):
    """A conjunction of atomic comparisons."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Predicate]):
        flat: list[Comparison] = []
        for part in parts:
            flat.extend(part.atoms())
        self.parts = tuple(flat)

    def evaluate(self, row):
        symbolic: list[SemiringExpr] = []
        for part in self.parts:
            result = part.evaluate(row)
            if result is False:
                return False
            if result is True:
                continue
            symbolic.append(result)
        if not symbolic:
            return True
        return sprod(symbolic)

    def attributes(self):
        result: frozenset = frozenset()
        for part in self.parts:
            result |= part.attributes()
        return result

    def atoms(self):
        return self.parts

    def bind(self, values):
        parts = [part.bind(values) for part in self.parts]
        if all(new is old for new, old in zip(parts, self.parts)):
            return self
        return Conjunction(parts)

    def __repr__(self):
        if not self.parts:
            return "true"
        return " ∧ ".join(map(repr, self.parts))

    def __eq__(self, other):
        return isinstance(other, Conjunction) and self.parts == other.parts

    def __hash__(self):
        return hash(("Conjunction", self.parts))


def attr(name: str) -> AttrRef:
    """Shorthand for an attribute reference."""
    return AttrRef(name)


def lit(value) -> Literal:
    """Shorthand for a literal operand."""
    return Literal(value)


def _operand(value) -> Operand:
    if isinstance(value, Operand):
        return value
    if isinstance(value, str):
        return AttrRef(value)
    return Literal(value)


def eq(left, right) -> Comparison:
    """``left = right``; strings become attribute references."""
    return Comparison(_operand(left), "=", _operand(right))


def cmp_(left, op, right) -> Comparison:
    """``left θ right``; strings become attribute references."""
    return Comparison(_operand(left), op, _operand(right))


def conj(*predicates: Predicate) -> Predicate:
    """Conjunction of predicates; empty input yields the true predicate."""
    if not predicates:
        return TruePredicate()
    if len(predicates) == 1:
        return predicates[0]
    return Conjunction(predicates)
