"""Decomposition trees (d-trees) — Definition 7 of the paper.

A d-tree is a normal form for semiring and semimodule expressions whose
inner nodes reflect *structural decompositions* of the expression:

* ``⊕`` (:class:`PlusNode` / :class:`MPlusNode`) — sum of **independent**
  sub-expressions (semiring sum resp. monoid sum);
* ``⊙`` (:class:`TimesNode`) — product of independent semiring expressions;
* ``⊗`` (:class:`TensorNode`) — scalar action of an independent semiring
  expression on a semimodule expression;
* ``[θ]`` (:class:`CompareNode`) — comparison of independent expressions;
* ``⊔ₓ`` (:class:`MutexNode`) — partitioning into **mutually exclusive**
  restrictions ``Φ|x←s`` for every value ``s`` with ``P_x[s] ≠ 0``.

Leaves are variables (:class:`VarLeaf`), constants (:class:`ConstLeaf`)
or — rule 6's base case, an accelerator outside Definition 7 — small
residual expressions tabulated over all their worlds (:class:`TableLeaf`).

Given the probability distributions of its leaves, the distribution of
every inner node follows by the convolution equations (4)-(9) and the
mixture equation (10); the distribution of the whole d-tree is computed
bottom-up in one pass (Theorem 2).  Distributions are cached per node, and
because the compiler memoises structurally equal sub-expressions, a "tree"
is in general a DAG whose shared sub-DAGs are evaluated once.
"""

from __future__ import annotations

from typing import Iterator

import numpy as _np

from repro.algebra.conditions import ComparisonOp
from repro.algebra.expressions import Expr
from repro.algebra.monoid import Monoid
from repro.algebra.semiring import Semiring
from repro.algebra.valuation import (
    all_valuation_bitsets,
    batch_values,
    bitset_column,
    evaluate_batch,
)
from repro.errors import CompilationError
from repro.prob import convolution
from repro.prob.distribution import TOLERANCE, Distribution
from repro.prob.variables import VariableRegistry

__all__ = [
    "CompileContext",
    "DTree",
    "ConstLeaf",
    "VarLeaf",
    "TableLeaf",
    "PlusNode",
    "TimesNode",
    "MPlusNode",
    "TensorNode",
    "CompareNode",
    "MutexNode",
]


class CompileContext:
    """Everything a d-tree needs to turn into numbers.

    Bundles the variable registry (leaf distributions) with the concrete
    target semiring, and caches the per-variable distributions over it.
    """

    def __init__(self, registry: VariableRegistry, semiring: Semiring):
        self.registry = registry
        self.semiring = semiring
        self._var_cache: dict[str, Distribution] = {}

    def var_distribution(self, name: str) -> Distribution:
        """The distribution of variable ``name`` over semiring values.

        The registry's distribution pushed forward along
        ``semiring.coerce`` — except a Boolean marginal over ``{⊤, ⊥}``
        in B, on which ``coerce`` is the identity: it is returned as the
        registry gives it.
        """
        cached = self._var_cache.get(name)
        if cached is None:
            cached = self.registry[name]
            if not (
                self.semiring.is_boolean
                and all(type(value) is bool for value in cached)
            ):
                cached = cached.map(self.semiring.coerce)
            self._var_cache[name] = cached
        return cached


class DTree:
    """Base class of d-tree nodes.

    Nodes are immutable once built; :meth:`distribution` computes and
    caches the node's probability distribution for a given context.
    """

    __slots__ = ("_dist_ctx", "_dist")

    children: tuple = ()

    #: Single-character tag used in pretty-printing and statistics.
    tag: str = "?"

    def distribution(self, ctx: CompileContext) -> Distribution:
        """The probability distribution represented by this node.

        Computed bottom-up per Theorem 2 and cached, so shared sub-DAGs
        are evaluated once per context.
        """
        if getattr(self, "_dist_ctx", None) is ctx:
            return self._dist
        dist = self._compute_distribution(ctx)
        self._dist_ctx = ctx
        self._dist = dist
        return dist

    def _compute_distribution(self, ctx: CompileContext) -> Distribution:
        raise NotImplementedError

    # -- structure ----------------------------------------------------------

    def iter_unique(self) -> Iterator["DTree"]:
        """Yield each distinct node of the DAG exactly once."""
        seen: set[int] = set()
        stack: list[DTree] = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(node.children)

    def dag_size(self) -> int:
        """Number of distinct nodes (shared sub-DAGs counted once)."""
        return sum(1 for _ in self.iter_unique())

    def tree_size(self) -> int:
        """Number of nodes of the fully expanded tree."""
        return 1 + sum(child.tree_size() for child in self.children)

    def depth(self) -> int:
        """Length of the longest root-to-leaf path (leaf depth is 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def pretty(self, indent: str = "") -> str:
        """Multi-line indented rendering of the d-tree."""
        lines = [indent + self._label()]
        for child in self.children:
            lines.append(child.pretty(indent + "  "))
        return "\n".join(lines)

    def _label(self) -> str:
        return self.tag

    def __repr__(self):
        return f"<{type(self).__name__} {self._label()} size={self.dag_size()}>"


class ConstLeaf(DTree):
    """A leaf holding a constant semiring or monoid value."""

    __slots__ = ("value",)
    tag = "c"

    def __init__(self, value):
        self.value = value

    def _compute_distribution(self, ctx):
        return Distribution.point(self.value)

    def _label(self):
        return f"const {self.value!r}"


class VarLeaf(DTree):
    """A leaf holding a random variable ``x ∈ X``."""

    __slots__ = ("name",)
    tag = "x"

    def __init__(self, name: str):
        self.name = name

    def _compute_distribution(self, ctx):
        return ctx.var_distribution(self.name)

    def _label(self):
        return f"var {self.name}"


class TableLeaf(DTree):
    """A residual expression over a few Boolean variables, tabulated.

    Rule 6's base case (:func:`repro.core.compile.table_leaf`): instead
    of a ``⊔`` sub-tree the leaf keeps the expression and valuates it in
    all ``2^k`` worlds of its variables as one batch, on Python-int
    bitsets (:func:`~repro.algebra.valuation.all_valuation_bitsets`):
    ⊕ and ⊗ are one ``|`` or ``&`` over all worlds, and only ``[θ]``
    and ``Σ_M`` nodes unpack to numpy.  The world weights come from
    ``ctx``'s marginals when the distribution is asked for, like a
    :class:`VarLeaf`'s — nothing is frozen at compile time — and each
    mass is a masked sum of them.
    """

    __slots__ = ("expr", "names")
    tag = "table"

    def __init__(self, expr: Expr, names):
        self.expr = expr
        self.names = tuple(names)

    @property
    def worlds(self) -> int:
        return 1 << len(self.names)

    def _compute_distribution(self, ctx):
        # World w sets names[i] to bit i of w (as ``all_valuation_bitsets``),
        # so each variable doubles the weight vector: [absent half, present
        # half].
        weights = _np.ones(1)
        for name in self.names:
            p = ctx.var_distribution(name)[True]
            weights = _np.multiply.outer((1.0 - p, p), weights).ravel()
        column = evaluate_batch(
            self.expr, all_valuation_bitsets(self.names), self.worlds, {}
        )
        if type(column) is int:  # a semiring residual: two masked sums
            column = bitset_column(column, self.worlds)
            values = [False, True]
            masses = [float(weights[~column].sum()), float(weights[column].sum())]
        else:
            values, world_value = _np.unique(column, return_inverse=True)
            masses = _np.bincount(world_value, weights=weights).tolist()
            values = batch_values(self.expr, values)
        return Distribution._from_clean(
            {v: mass for v, mass in zip(values, masses) if mass > TOLERANCE}
        )

    def _label(self):
        return f"table {{{', '.join(self.names)}}} · {self.worlds} worlds"


class PlusNode(DTree):
    """``⊕`` over independent semiring expressions (Eq. 4)."""

    __slots__ = ("children",)
    tag = "⊕"

    def __init__(self, children):
        children = tuple(children)
        if len(children) < 2:
            raise CompilationError("⊕ node needs at least two children")
        self.children = children

    def _compute_distribution(self, ctx):
        return convolution.semiring_add_many(
            [child.distribution(ctx) for child in self.children], ctx.semiring
        )


class TimesNode(DTree):
    """``⊙`` over independent semiring expressions (Eq. 5)."""

    __slots__ = ("children",)
    tag = "⊙"

    def __init__(self, children):
        children = tuple(children)
        if len(children) < 2:
            raise CompilationError("⊙ node needs at least two children")
        self.children = children

    def _compute_distribution(self, ctx):
        return convolution.semiring_mul_many(
            [child.distribution(ctx) for child in self.children], ctx.semiring
        )


class MPlusNode(DTree):
    """``⊕`` over independent semimodule expressions (Eq. 6)."""

    __slots__ = ("children", "monoid")
    tag = "⊕M"

    def __init__(self, monoid: Monoid, children):
        children = tuple(children)
        if len(children) < 2:
            raise CompilationError("monoid ⊕ node needs at least two children")
        self.monoid = monoid
        self.children = children

    def _compute_distribution(self, ctx):
        return convolution.monoid_add_many(
            [child.distribution(ctx) for child in self.children], self.monoid
        )

    def _label(self):
        return f"⊕ [{self.monoid.name}]"


class TensorNode(DTree):
    """``⊗``: independent scalar action ``Φ ⊗ α`` (Eq. 7)."""

    __slots__ = ("children", "monoid")
    tag = "⊗"

    def __init__(self, monoid: Monoid, scalar: DTree, arg: DTree):
        self.monoid = monoid
        self.children = (scalar, arg)

    def _compute_distribution(self, ctx):
        scalar, arg = self.children
        return convolution.scalar_action(
            scalar.distribution(ctx),
            arg.distribution(ctx),
            self.monoid,
            ctx.semiring,
        )

    def _label(self):
        return f"⊗ [{self.monoid.name}]"


class CompareNode(DTree):
    """``[θ]``: comparison of independent expressions (Eqs. 8/9)."""

    __slots__ = ("children", "op")
    tag = "[θ]"

    def __init__(self, op: ComparisonOp, left: DTree, right: DTree):
        self.op = op
        self.children = (left, right)

    def _compute_distribution(self, ctx):
        left, right = self.children
        return convolution.comparison(
            left.distribution(ctx),
            right.distribution(ctx),
            self.op,
            ctx.semiring,
        )

    def _label(self):
        return f"[{self.op.symbol}]"


class MutexNode(DTree):
    """``⊔ₓ``: partitioning into mutually exclusive branches (Eq. 10).

    Each branch carries the eliminated value ``s``, its probability
    ``P_x[s]``, and the d-tree of the restriction ``Φ|x←s``.
    """

    __slots__ = ("children", "name", "branches")
    tag = "⊔"

    def __init__(self, name: str, branches):
        branches = tuple(branches)
        if not branches:
            raise CompilationError(f"⊔ node for {name!r} has no branches")
        self.name = name
        self.branches = branches
        self.children = tuple(child for _, _, child in branches)

    def _compute_distribution(self, ctx):
        return convolution.mutex_mixture(
            (prob, child.distribution(ctx)) for _, prob, child in self.branches
        )

    def _label(self):
        values = ", ".join(repr(v) for v, _, _ in self.branches)
        return f"⊔ {self.name} ∈ {{{values}}}"

    def pretty(self, indent: str = "") -> str:
        lines = [indent + self._label()]
        for value, prob, child in self.branches:
            lines.append(f"{indent}  {self.name}←{value!r} (p={prob:g}):")
            lines.append(child.pretty(indent + "    "))
        return "\n".join(lines)
