"""Symbolic semiring expressions — elements of the free semiring ``K``.

The annotations of pvc-table tuples are elements of the semiring *generated*
by a set ``X`` of random variables (Section 2.2): syntactic expressions
built from variables, constants, ``+`` and ``·``, identified up to the
semiring laws.  This module implements that free semiring as an immutable
AST with four node types:

* :class:`Var` — a variable symbol ``x ∈ X``;
* :class:`SConst` — a constant from the target semiring (``0_K``/``1_K``
  and friends), stored canonically as a non-negative integer;
* :class:`Sum` — an n-ary sum ``Φ₁ + ... + Φₙ``;
* :class:`Prod` — an n-ary product ``Φ₁ · ... · Φₙ``.

Conditional expressions ``[Φ θ Ψ]`` (which are also semiring expressions,
see Figure 2) live in :mod:`repro.algebra.conditions` to avoid a circular
dependency with semimodule expressions.

Design notes
------------
* Sums and products are **n-ary and order-canonical**: the smart
  constructors :func:`ssum` and :func:`sprod` flatten nested nodes and sort
  children by a deterministic key.  This bakes associativity and
  commutativity — which Remark 2 of the paper identifies as essential for
  structural decomposition — into the representation itself.
* Every node caches its variable set, so the independence checks performed
  by the compiler are cheap set operations, and knows whether a
  conditional ``[Φ θ Ψ]`` occurs in it, so the pruning pass goes down
  only the paths that lead to one.
* Only *semiring-agnostic* simplifications happen in the constructors
  (dropping neutral elements, annihilation by zero).  Semiring-*specific*
  rewrites such as Boolean absorption live in
  :mod:`repro.algebra.simplify`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import AlgebraError

__all__ = [
    "Expr",
    "SemiringExpr",
    "Var",
    "SConst",
    "Sum",
    "Prod",
    "ZERO",
    "ONE",
    "ssum",
    "sprod",
    "variables_of",
    "count_occurrences",
]


class Expr:
    """Base class of all (semiring and semimodule) expressions.

    Expressions are immutable; equality and hashing are structural via a
    canonical key.  Key, hash and variable set are computed **eagerly** by
    :meth:`_finalize` at construction time: every composite expression
    sorts its children by key anyway, and expressions spend their lives as
    dictionary keys in the compiler's memo tables, so laziness would only
    add per-access property overhead on the hottest paths in the library.
    The fourth structural fact, :attr:`has_comparison`, is read only by
    the compiler's pruning pass, so a composite computes it on first need
    (its slot starts as ``None``): the server builds expressions on every
    read that never reach it.
    """

    __slots__ = ("_key", "_vars", "_hash")

    #: Child expressions, for generic tree walks.
    children: tuple = ()

    def _compute_key(self) -> tuple:
        raise NotImplementedError

    def _compute_vars(self) -> frozenset:
        raise NotImplementedError

    def _finalize(self):
        """Populate the structural caches; call last in every ``__init__``
        (:class:`Sum` and :class:`Prod` do the same inline)."""
        self._key = self._compute_key()
        self._vars = self._compute_vars()
        self._hash = self._compute_hash()

    def _compute_hash(self) -> int:
        """Structural hash built from the *cached* child hashes.

        Hashing the nested key tuple directly would re-walk the whole
        subtree on every construction (tuples do not cache their hash);
        combining the children's cached hashes is O(#children) and still
        consistent with key equality.
        """
        raise NotImplementedError

    @property
    def key(self) -> tuple:
        """Canonical sort/equality key of this expression."""
        return self._key

    @property
    def variables(self) -> frozenset:
        """The set of variable names occurring in this expression."""
        return self._vars

    @property
    def has_comparison(self) -> bool:
        """Whether a conditional ``[Φ θ Ψ]`` occurs in this expression.

        Leaves answer ``False`` and
        :class:`~repro.algebra.conditions.Compare` ``True``, as class
        attributes; a composite (``Sum``, ``Prod``, ``Tensor``,
        ``AggSum``) asks its children the first time and keeps the answer
        in its ``_compares`` slot.
        """
        compares = self._compares
        if compares is None:
            compares = False
            for child in self.children:
                if child.has_comparison:
                    compares = True
                    break
            self._compares = compares
        return compares

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Return this expression with variables replaced per ``mapping``.

        Unmapped variables are left untouched.  The result is rebuilt
        through the smart constructors, so neutral elements introduced by
        the substitution are simplified away.
        """
        raise NotImplementedError

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and, recursively, all descendants (pre-order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def size(self) -> int:
        """Number of AST nodes in this expression."""
        return sum(1 for _ in self.walk())

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Expr) and self._key == other._key

    def __hash__(self):
        return self._hash


class SemiringExpr(Expr):
    """An element of the free semiring ``K`` over the variables."""

    __slots__ = ()

    def __add__(self, other) -> "SemiringExpr":
        return ssum([self, _coerce(other)])

    def __radd__(self, other) -> "SemiringExpr":
        return ssum([_coerce(other), self])

    def __mul__(self, other) -> "SemiringExpr":
        return sprod([self, _coerce(other)])

    def __rmul__(self, other) -> "SemiringExpr":
        return sprod([_coerce(other), self])

    def is_zero(self) -> bool:
        """True if this is the canonical additive neutral ``0_K``."""
        return isinstance(self, SConst) and self.value == 0

    def is_one(self) -> bool:
        """True if this is the canonical multiplicative neutral ``1_K``."""
        return isinstance(self, SConst) and self.value == 1


def _coerce(value) -> SemiringExpr:
    """Coerce a raw Python value into a semiring expression."""
    if isinstance(value, SemiringExpr):
        return value
    if isinstance(value, Expr):
        raise AlgebraError(
            f"expected a semiring expression, got the semimodule "
            f"expression {value!r}"
        )
    if isinstance(value, bool):
        return SConst(int(value))
    if isinstance(value, int):
        return SConst(value)
    raise AlgebraError(f"cannot interpret {value!r} as a semiring expression")


class Var(SemiringExpr):
    """A variable symbol ``x ∈ X``; itself an element of ``K``.

    Its cached variable set starts as the 1-tuple ``(name,)``: a loaded
    tuple-independent row holds one ``Var`` per row, and a tuple of
    strings is one object the garbage collector stops tracking, where a
    ``frozenset`` stays tracked.  The first read of :attr:`variables`
    swaps the tuple for its ``frozenset`` in the same slot, so only the
    variables compilation touches pay for one.  Outside this module
    ``_vars`` is read only by ``in`` and truth tests, which both types
    answer alike (AST-checked in ``tests/test_configuration.py``).
    """

    __slots__ = ("name",)
    has_comparison = False

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise AlgebraError(f"variable name must be a non-empty string, got {name!r}")
        self.name = name
        self._finalize()

    def _compute_key(self):
        return ("v", self.name)

    def _compute_hash(self):
        return hash(("v", self.name))

    def _compute_vars(self):
        return (self.name,)

    @property
    def variables(self) -> frozenset:
        names = self._vars
        if type(names) is tuple:
            names = self._vars = frozenset(names)
        return names

    def substitute(self, mapping):
        return mapping.get(self.name, self)

    def __repr__(self):
        return self.name


class SConst(SemiringExpr):
    """A constant from the semiring carrier, canonicalised to an integer.

    Boolean constants are stored as 0/1; the concrete semiring coerces them
    back (``0 ↦ ⊥``, ``1 ↦ ⊤``) at evaluation time, so one constant
    representation serves both set and bag semantics.
    """

    __slots__ = ("value",)
    has_comparison = False

    def __init__(self, value):
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, int) or value < 0:
            raise AlgebraError(
                f"semiring constants must be non-negative integers "
                f"(or booleans), got {value!r}"
            )
        self.value = value
        self._finalize()

    def _compute_key(self):
        return ("c", self.value)

    def _compute_hash(self):
        return hash(("c", self.value))

    def _compute_vars(self):
        return frozenset()

    def substitute(self, mapping):
        return self

    def __repr__(self):
        return str(self.value)


#: The additive neutral element ``0_K`` of the free semiring.
ZERO = SConst(0)

#: The multiplicative neutral element ``1_K`` of the free semiring.
ONE = SConst(1)


class Sum(SemiringExpr):
    """An n-ary semiring sum; use :func:`ssum` to construct."""

    __slots__ = ("children", "_compares")

    def __init__(self, children: tuple):
        # What ``_finalize`` computes, inline: the join loops build one
        # of these per result row.
        self.children = children
        self._key = ("+",) + tuple([c._key for c in children])
        self._vars = frozenset().union(*[c._vars for c in children])
        self._hash = hash(("+",) + tuple([c._hash for c in children]))
        self._compares = None

    def substitute(self, mapping):
        variables = self.variables
        if all(name not in variables for name in mapping):
            return self
        return ssum([c.substitute(mapping) for c in self.children])

    def __repr__(self):
        return "(" + " + ".join(map(repr, self.children)) + ")"


class Prod(SemiringExpr):
    """An n-ary semiring product; use :func:`sprod` to construct."""

    __slots__ = ("children", "_compares")

    def __init__(self, children: tuple):
        self.children = children  # inline ``_finalize``, as in Sum
        self._key = ("*",) + tuple([c._key for c in children])
        self._vars = frozenset().union(*[c._vars for c in children])
        self._hash = hash(("*",) + tuple([c._hash for c in children]))
        self._compares = None

    def substitute(self, mapping):
        variables = self.variables
        if all(name not in variables for name in mapping):
            return self
        return sprod([c.substitute(mapping) for c in self.children])

    def __repr__(self):
        parts = []
        for child in self.children:
            if isinstance(child, Sum):
                parts.append(f"({child!r})")
            else:
                parts.append(repr(child))
        return "*".join(parts)


def _key_of(expr: Expr):
    """Canonical-sort key extractor shared by every smart constructor
    (module-level function: avoids a fresh lambda per sort call)."""
    return expr._key


def _sorted_canonical(children: Iterable[SemiringExpr]) -> tuple:
    return tuple(sorted(children, key=_key_of))


def ssum(terms: Iterable) -> SemiringExpr:
    """Smart constructor for semiring sums.

    Flattens nested sums, drops ``0_K`` summands, canonicalises the child
    order, and collapses singleton/empty sums.  Constants are *not* folded
    together here because their sum depends on the target semiring
    (``1 + 1`` is ``1`` in B but ``2`` in N); see
    :func:`repro.algebra.simplify.normalize`.
    """
    flat: list[SemiringExpr] = []
    for term in terms:
        kind = type(term)
        if kind is Var or kind is Prod:  # the common cases, decided early
            flat.append(term)
        elif kind is Sum:
            flat.extend(term.children)
        else:
            term = _coerce(term)
            if isinstance(term, Sum):
                flat.extend(term.children)
            elif not term.is_zero():
                flat.append(term)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(_sorted_canonical(flat))


def sprod(factors: Iterable) -> SemiringExpr:
    """Smart constructor for semiring products.

    Flattens nested products, drops ``1_K`` factors, annihilates on a
    ``0_K`` factor, canonicalises the child order, and collapses
    singleton/empty products.
    """
    flat: list[SemiringExpr] = []
    for factor in factors:
        kind = type(factor)
        if kind is Var or kind is Sum:  # the common cases, decided early
            flat.append(factor)
        elif kind is Prod:
            flat.extend(factor.children)
        else:
            factor = _coerce(factor)
            if factor.is_zero():
                return ZERO
            if isinstance(factor, Prod):
                flat.extend(factor.children)
            elif not factor.is_one():
                flat.append(factor)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Prod(_sorted_canonical(flat))


def variables_of(exprs: Iterable[Expr]) -> frozenset:
    """Union of the variable sets of several expressions."""
    result: frozenset = frozenset()
    for expr in exprs:
        result |= expr.variables
    return result


def count_occurrences(expr: Expr) -> dict[str, int]:
    """Count how many times each variable symbol occurs in ``expr``.

    Used by the compiler's Shannon-expansion heuristic, which eliminates
    a variable with the most occurrences (Section 5).  Variable-free
    subtrees (constants, folded aggregation values) are not descended
    into — their cached variable sets are empty.
    """
    counts: dict[str, int] = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        if type(node) is Var:
            name = node.name
            counts[name] = counts.get(name, 0) + 1
        else:
            for child in node.children:
                if child._vars:
                    stack.append(child)
    return counts
