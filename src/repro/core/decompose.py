"""Structural decomposition helpers for the compiler (Section 5).

Two syntactic analyses drive the four independence rules of Algorithm 1:

* **Independent partitioning** of sums: the summands of
  ``Φ₁ + ... + Φₙ`` are grouped by the connected components of their
  *clause-dependency graph* — two summands are connected when they share a
  variable.  Distinct components are independent random variables and
  compile to a ``⊕`` node.
* **Common-factor extraction** for connected sums: when every summand of a
  connected (semiring or semimodule) sum contains a variable ``x`` as a
  multiplicative factor, distributivity rewrites the sum as
  ``x · (Σ residuals)`` — the factorisation step that recovers read-once
  forms such as ``x₁y₁₁ + x₁y₁₂ = x₁(y₁₁ + y₁₂)`` (Example 14).  The
  extraction is sound only when the residual no longer mentions ``x``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.algebra.expressions import (
    ONE,
    Expr,
    Prod,
    SemiringExpr,
    Var,
    sprod,
)
from repro.algebra.semimodule import Tensor, tensor
from repro.errors import CompilationError

__all__ = [
    "independent_groups",
    "factor_variables",
    "common_factor_variables",
    "divide_by_variable",
]


def independent_groups(exprs: Sequence[Expr]) -> list[list[Expr]]:
    """Partition expressions into groups connected by shared variables.

    Returns the connected components of the graph whose vertices are the
    expressions and whose edges join expressions with intersecting
    variable sets.  Variable-free expressions are singleton components.
    Expressions in different components are independent random variables.

    Instead of the quadratic pairwise variable-set intersection this is a
    union-find indexed by variable: each variable remembers the first
    expression owning it and later owners union with it, so the total
    cost is near-linear in ``Σ |vars(Φᵢ)|``.  This runs on *every* sum
    and product the compiler decomposes (rules 1 and 2, exactly or
    within an approximation's budget), so the inner loops are kept free of helper calls.
    """
    count = len(exprs)
    if count == 1:
        return [list(exprs)]
    parent = list(range(count))

    owner: dict[str, int] = {}
    for index, expr in enumerate(exprs):
        for name in expr.variables:
            prior = owner.get(name)
            if prior is None:
                owner[name] = index
                continue
            # find(prior) / find(index) with path halving, inlined.
            ri = prior
            while parent[ri] != ri:
                parent[ri] = parent[parent[ri]]
                ri = parent[ri]
            rj = index
            while parent[rj] != rj:
                parent[rj] = parent[parent[rj]]
                rj = parent[rj]
            if ri != rj:
                parent[rj] = ri

    groups: dict[int, list[Expr]] = {}
    for index, expr in enumerate(exprs):
        root = index
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        group = groups.get(root)
        if group is None:
            groups[root] = [expr]
        else:
            group.append(expr)
    return list(groups.values())


def factor_variables(expr: Expr) -> frozenset:
    """Variables occurring as top-level multiplicative factors of ``expr``.

    For a product these are its :class:`Var` factors; for a bare variable,
    the variable itself; for a tensor term ``Φ ⊗ α``, the factors of the
    scalar ``Φ``.  Other shapes (sums, comparisons, constants) expose no
    factorable variables.
    """
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Prod):
        return frozenset(f.name for f in expr.children if isinstance(f, Var))
    if isinstance(expr, Tensor):
        return factor_variables(expr.phi)
    return frozenset()


def common_factor_variables(terms: Iterable[Expr]) -> frozenset:
    """Variables available for extraction from *every* summand."""
    common: frozenset | None = None
    for term in terms:
        factors = factor_variables(term)
        if not factors:
            return frozenset()
        common = factors if common is None else common & factors
        if not common:
            return frozenset()
    return common or frozenset()


def divide_by_variable(expr: Expr, name: str) -> Expr:
    """Remove one multiplicative occurrence of ``Var(name)`` from ``expr``.

    Inverse of the distributivity rewrite: dividing every summand of
    ``x·Φ₁ + x·Φ₂`` by ``x`` yields the residual sum ``Φ₁ + Φ₂``.
    """
    if isinstance(expr, Var):
        if expr.name != name:
            raise CompilationError(f"cannot divide {expr!r} by {name}")
        return ONE
    if isinstance(expr, Prod):
        remaining: list[SemiringExpr] = []
        removed = False
        for factor in expr.children:
            if not removed and isinstance(factor, Var) and factor.name == name:
                removed = True
            else:
                remaining.append(factor)
        if not removed:
            raise CompilationError(f"{name} is not a factor of {expr!r}")
        return sprod(remaining)
    if isinstance(expr, Tensor):
        return tensor(divide_by_variable(expr.phi, name), expr.arg)
    raise CompilationError(f"cannot divide expression {expr!r} by {name}")
