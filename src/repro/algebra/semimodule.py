"""Semimodule expressions — the mixed annotation/value terms ``Σ Φᵢ ⊗ mᵢ``.

A pvc-table may hold, as a tuple *value*, an element of the ``K``-semimodule
generated by an aggregation monoid ``M`` (Definitions 4 and 6): expressions
of the form ::

    Φ₁ ⊗ m₁  +_op  Φ₂ ⊗ m₂  +_op  ...  +_op  Φₙ ⊗ mₙ

where each ``Φᵢ`` is a semiring expression, each ``mᵢ`` a monoid value, and
``+_op`` the monoid addition of the aggregation (``+min``, ``+max``,
``+sum``, ``+prod``).  This module implements those expressions with three
node types:

* :class:`MConst` — a constant monoid value ``m ∈ M``;
* :class:`Tensor` — a scalar action ``Φ ⊗ α`` of a semiring expression on a
  semimodule expression (canonically ``Φ ⊗ m`` with a constant right side);
* :class:`AggSum` — an n-ary monoid sum over a fixed monoid.

The smart constructors enforce the semimodule laws of Definition 4 where
they are semiring-agnostic:

* ``1_S ⊗ α = α`` and ``0_S ⊗ α = 0_M``;
* ``s₁ ⊗ (s₂ ⊗ α) = (s₁ ·_S s₂) ⊗ α`` (nested tensors merge);
* ``0_M`` summands vanish, and constant summands are pre-folded with the
  monoid addition (valid by commutativity/associativity).
"""

from __future__ import annotations

from typing import Iterable

from repro.algebra.expressions import Expr, SemiringExpr, _key_of, sprod
from repro.algebra.monoid import Monoid
from repro.errors import AlgebraError

__all__ = [
    "ModuleExpr",
    "MConst",
    "Tensor",
    "AggSum",
    "tensor",
    "aggsum",
    "module_terms",
]


class ModuleExpr(Expr):
    """An element of the ``K``-semimodule over an aggregation monoid."""

    __slots__ = ()

    #: The aggregation monoid this expression lives in.
    monoid: Monoid

    def is_module_zero(self) -> bool:
        """True if this is the constant neutral element ``0_M``."""
        return isinstance(self, MConst) and self.value == self.monoid.zero


class MConst(ModuleExpr):
    """A constant value ``m`` from the aggregation monoid ``M``."""

    __slots__ = ("monoid", "value")
    has_comparison = False

    def __init__(self, monoid: Monoid, value):
        self.monoid = monoid
        self.value = monoid.clamp(value)
        self._finalize()

    def _compute_key(self):
        return ("m", self.monoid.name, self.value)

    def _compute_hash(self):
        return hash(("m", self.monoid.name, self.value))

    def _compute_vars(self):
        return frozenset()

    def substitute(self, mapping):
        return self

    def __repr__(self):
        return f"{self.value}"


class Tensor(ModuleExpr):
    """A scalar action ``Φ ⊗ α``; use :func:`tensor` to construct.

    ``phi`` is a semiring expression and ``arg`` a semimodule expression.
    In canonical form (as produced by :func:`tensor`) ``arg`` is an
    :class:`MConst`, matching the grammar of Figure 2.
    """

    __slots__ = ("monoid", "phi", "arg", "children", "_compares")

    def __init__(self, phi: SemiringExpr, arg: ModuleExpr):
        self.phi = phi
        self.arg = arg
        self.monoid = arg.monoid
        self.children = (phi, arg)
        self._compares = None
        self._finalize()

    def _compute_key(self):
        return ("@", self.phi.key, self.arg.key)

    def _compute_hash(self):
        return hash(("@", self.phi._hash, self.arg._hash))

    def _compute_vars(self):
        return self.phi.variables | self.arg.variables

    def substitute(self, mapping):
        variables = self.variables
        if all(name not in variables for name in mapping):
            return self
        return tensor(self.phi.substitute(mapping), self.arg.substitute(mapping))

    def __repr__(self):
        return f"{self.phi!r}⊗{self.arg!r}"


class AggSum(ModuleExpr):
    """An n-ary monoid sum ``α₁ +_op ... +_op αₙ``; use :func:`aggsum`."""

    __slots__ = ("monoid", "children", "_compares")

    def __init__(self, monoid: Monoid, children: tuple):
        self.monoid = monoid
        self.children = children
        self._compares = None
        self._finalize()

    def _compute_key(self):
        return ("#", self.monoid.name) + tuple(c.key for c in self.children)

    def _compute_hash(self):
        return hash(
            ("#", self.monoid.name) + tuple(c._hash for c in self.children)
        )

    def _compute_vars(self):
        return frozenset().union(*(c.variables for c in self.children))

    def substitute(self, mapping):
        variables = self.variables
        if all(name not in variables for name in mapping):
            return self
        return aggsum(self.monoid, [c.substitute(mapping) for c in self.children])

    def __repr__(self):
        joiner = f" +{self.monoid.name.lower()} "
        return "(" + joiner.join(map(repr, self.children)) + ")"


def tensor(phi: SemiringExpr, arg) -> ModuleExpr:
    """Smart constructor for ``Φ ⊗ α`` applying the Definition-4 laws.

    ``arg`` may be a :class:`ModuleExpr` or a bare ``(monoid, value)``
    pair is *not* accepted — wrap plain values with :class:`MConst` or use
    the higher-level helpers in :mod:`repro.db`.
    """
    if not isinstance(phi, SemiringExpr):
        raise AlgebraError(f"tensor scalar must be a semiring expression, got {phi!r}")
    if not isinstance(arg, ModuleExpr):
        raise AlgebraError(
            f"tensor argument must be a semimodule expression, got {arg!r}; "
            f"wrap plain values as MConst(monoid, value)"
        )
    if phi.is_one():
        return arg
    if phi.is_zero() or arg.is_module_zero():
        return MConst(arg.monoid, arg.monoid.zero)
    if isinstance(arg, Tensor):
        # s1 ⊗ (s2 ⊗ α) = (s1 · s2) ⊗ α
        return tensor(sprod([phi, arg.phi]), arg.arg)
    return Tensor(phi, arg)


def aggsum(monoid: Monoid, terms: Iterable[ModuleExpr]) -> ModuleExpr:
    """Smart constructor for monoid sums ``α₁ +_op ... +_op αₙ``.

    Flattens nested sums over the *same* monoid, folds constant summands
    with the monoid addition, drops ``0_M``, and canonicalises the child
    order.  Mixing monoids in one sum is rejected: expressions over
    different monoids may coexist in one pvc-table but never in one sum.
    """
    flat: list[ModuleExpr] = []
    const_acc = monoid.zero
    for term in terms:
        if not isinstance(term, ModuleExpr):
            raise AlgebraError(f"aggregation sum over non-semimodule term {term!r}")
        if term.monoid is not monoid and term.monoid != monoid:
            raise AlgebraError(
                f"cannot sum a {term.monoid.name} expression into a "
                f"{monoid.name} aggregation"
            )
        kind = type(term)
        if kind is AggSum:
            flat.extend(term.children)
        elif kind is MConst:
            const_acc = monoid.add(const_acc, term.value)
        else:
            flat.append(term)
    if const_acc != monoid.zero:
        flat.append(MConst(monoid, const_acc))
    if not flat:
        return MConst(monoid, monoid.zero)
    if len(flat) == 1:
        return flat[0]
    return AggSum(monoid, tuple(sorted(flat, key=_key_of)))


def module_terms(expr: ModuleExpr) -> tuple:
    """View a semimodule expression as a tuple of ``+_op`` summands."""
    if isinstance(expr, AggSum):
        return expr.children
    return (expr,)
