"""Conditional expressions ``[Φ θ Ψ]`` and ``[α θ β]`` (Section 3, Eq. 2).

A conditional expression compares two semiring expressions, two semimodule
expressions, or an expression with a constant, and evaluates to ``1_S`` when
the comparison holds and ``0_S`` otherwise.  Conditional expressions are
themselves semiring expressions (Figure 2) — they appear multiplied into
tuple annotations, e.g. the group non-emptiness guards ``[Σ Φ ≠ 0_K]``
produced by the aggregation rewriting and the HAVING-style conditions
``[Σ_MAX Φᵢ ⊗ mᵢ ≤ 50]`` of the paper's running example.
"""

from __future__ import annotations

import operator
from typing import Callable

from repro.algebra.expressions import Expr, SConst, SemiringExpr
from repro.algebra.semimodule import MConst, ModuleExpr
from repro.errors import AlgebraError

__all__ = ["Compare", "ComparisonOp", "compare", "COMPARISON_OPS"]


class ComparisonOp:
    """A binary comparison relation θ ∈ {=, ≠, ≤, ≥, <, >}."""

    def __init__(self, symbol: str, fn: Callable, negation_symbol: str):
        self.symbol = symbol
        self._fn = fn
        self._negation_symbol = negation_symbol

    def __call__(self, a, b) -> bool:
        return self._fn(a, b)

    @property
    def negation(self) -> "ComparisonOp":
        """The complementary relation, e.g. ``≤ ↦ >``."""
        return COMPARISON_OPS[self._negation_symbol]

    def __repr__(self):
        return self.symbol

    def __eq__(self, other):
        return isinstance(other, ComparisonOp) and self.symbol == other.symbol

    def __hash__(self):
        return hash(("ComparisonOp", self.symbol))


#: The comparison relations of the Figure-2 grammar, by symbol.  The
#: alternative spellings ``==`` and ``<>`` are accepted for convenience.
COMPARISON_OPS: dict[str, ComparisonOp] = {}


def _register(symbol: str, fn: Callable, negation: str, *aliases: str):
    op = ComparisonOp(symbol, fn, negation)
    COMPARISON_OPS[symbol] = op
    for alias in aliases:
        COMPARISON_OPS[alias] = op
    return op


EQ = _register("=", operator.eq, "!=", "==")
NE = _register("!=", operator.ne, "=", "<>")
LE = _register("<=", operator.le, ">")
GE = _register(">=", operator.ge, "<")
LT = _register("<", operator.lt, ">=")
GT = _register(">", operator.gt, "<=")


def _coerce_operand(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (bool, int)):
        return SConst(int(value))
    raise AlgebraError(
        f"cannot use {value!r} as a comparison operand; expected an "
        f"expression or an integer constant"
    )


class Compare(SemiringExpr):
    """A conditional expression ``[left θ right]``.

    Both operands are expressions (semiring or semimodule); the node itself
    is a semiring expression evaluating to ``1_S`` or ``0_S`` per Eq. (2).
    Comparing a semimodule expression against a plain integer constant is
    the common case (``[Σ_MAX ... ≤ 50]``); use :func:`compare` which
    coerces integers to :class:`SConst`.
    """

    __slots__ = ("left", "op", "right", "children")
    has_comparison = True

    def __init__(self, left: Expr, op: ComparisonOp, right: Expr):
        self.left = left
        self.op = op
        self.right = right
        self.children = (left, right)
        self._finalize()

    def _compute_key(self):
        return ("?", self.op.symbol, self.left.key, self.right.key)

    def _compute_hash(self):
        return hash(("?", self.op.symbol, self.left._hash, self.right._hash))

    def _compute_vars(self):
        return self.left.variables | self.right.variables

    def substitute(self, mapping):
        variables = self.variables
        if all(name not in variables for name in mapping):
            return self
        return compare(
            self.left.substitute(mapping), self.op, self.right.substitute(mapping)
        )

    def __repr__(self):
        return f"[{self.left!r} {self.op.symbol} {self.right!r}]"


def compare(left, op, right) -> SemiringExpr:
    """Smart constructor for conditional expressions.

    ``op`` may be a :class:`ComparisonOp` or its symbol.  Variable-free
    comparisons between two constants of the *same* kind fold immediately
    to ``1_K``/``0_K``; anything involving variables stays symbolic.
    """
    if isinstance(op, str):
        try:
            op = COMPARISON_OPS[op]
        except KeyError:
            raise AlgebraError(
                f"unknown comparison operator {op!r}; "
                f"expected one of {sorted(set(COMPARISON_OPS))}"
            ) from None
    # Raw numbers compared against a semimodule side become monoid
    # constants directly — monoid carriers admit values (e.g. negatives,
    # ±∞) that the semiring constant type does not.
    if isinstance(left, ModuleExpr) and isinstance(right, (int, float)):
        right = MConst(left.monoid, right)
    if isinstance(right, ModuleExpr) and isinstance(left, (int, float)):
        left = MConst(right.monoid, left)
    left = _coerce_operand(left)
    right = _coerce_operand(right)
    if isinstance(left, ModuleExpr) != isinstance(right, ModuleExpr):
        # Mixed semimodule-vs-semiring comparisons only make sense against
        # plain constants, which stand for values of the respective carrier.
        if isinstance(left, SConst):
            left = MConst(right.monoid, left.value)
        elif isinstance(right, SConst):
            right = MConst(left.monoid, right.value)
        else:
            raise AlgebraError(
                f"cannot compare the semimodule and semiring expressions "
                f"{left!r} and {right!r}"
            )
    if not left.variables and not right.variables:
        left_value = left.value if isinstance(left, (SConst, MConst)) else None
        right_value = right.value if isinstance(right, (SConst, MConst)) else None
        if left_value is not None and right_value is not None:
            return SConst(int(op(left_value, right_value)))
    return Compare(left, op, right)
