"""Pruning rules for conditional expressions (Section 5).

The evaluation of ``[α θ β]`` expressions improves considerably when parts
of ``α`` or ``β`` are provably redundant for the comparison.  This module
implements the paper's pruning rules and their symmetric/dual variants for
aggregations compared against constants:

**MIN/MAX term dropping.**  For ``[Σ_MIN Φᵢ ⊗ mᵢ θ c]`` only terms whose
value can influence the comparison are kept; e.g. for ``θ`` = ``≤`` terms
with ``mᵢ > c`` can never make the minimum exceed-or-meet the bound and are
dropped (the paper's first example rule).  Dually for MAX.

**SUM/COUNT constant folding.**  ``[Σ_SUM Φᵢ ⊗ mᵢ ≤ c] ≡ 1_S`` whenever
``Σ mᵢ ≤ c`` — the sum over any subset of non-negative values is bounded
by the total (requires Boolean scalars, Proposition 3's setting); dually
``≡ 0_S`` when the bound is unreachable.

**SUM/COUNT saturation.**  When folding does not apply, the aggregation
monoid is replaced by a saturating :class:`CappedSumMonoid` with cap
``c + 1``: every partial sum strictly above ``c`` behaves identically under
every comparison operator, so the supports of all intermediate
distributions stay bounded by ``c + 2`` values.  This is the "early
pruning avoids the full materialisation of exponential-size distributions"
optimisation and the computational content of Proposition 3.
"""

from __future__ import annotations

import math

from repro.algebra.conditions import Compare, compare
from repro.algebra.expressions import Expr, Prod, SConst, Sum, sprod, ssum
from repro.algebra.monoid import (
    MAX,
    MIN,
    CappedSumMonoid,
    Monoid,
    SumMonoid,
)
from repro.algebra.semimodule import (
    AggSum,
    MConst,
    ModuleExpr,
    Tensor,
    aggsum,
    module_terms,
    tensor,
)
from repro.algebra.semiring import Semiring

__all__ = ["prune", "prune_comparison"]


def prune(expr: Expr, semiring: Semiring) -> Expr:
    """Recursively apply the pruning rules to every conditional in ``expr``.

    Returns ``expr`` itself when no rule fires anywhere in it, and
    otherwise rebuilds only the nodes on the path to a rewritten
    comparison: a node whose pruned children are all the originals is
    handed back as it was.  A (sub)expression in which no conditional
    occurs (:attr:`~repro.algebra.expressions.Expr.has_comparison`) is
    handed back without a walk, so the pass goes down only the paths
    that lead to a comparison.
    """
    if not expr.has_comparison:
        return expr
    if isinstance(expr, (Sum, Prod, AggSum)):
        children = [prune(c, semiring) for c in expr.children]
        if all(new is old for new, old in zip(children, expr.children)):
            return expr
        if isinstance(expr, Sum):
            return ssum(children)
        if isinstance(expr, Prod):
            return sprod(children)
        return aggsum(expr.monoid, children)
    if isinstance(expr, Tensor):
        phi = prune(expr.phi, semiring)
        arg = prune(expr.arg, semiring)
        if phi is expr.phi and arg is expr.arg:
            return expr
        return tensor(phi, arg)
    if isinstance(expr, Compare):
        left = prune(expr.left, semiring)
        right = prune(expr.right, semiring)
        if left is not expr.left or right is not expr.right:
            expr = compare(left, expr.op, right)
        return prune_comparison(expr, semiring)
    return expr


def prune_comparison(expr: Expr, semiring: Semiring) -> Expr:
    """Apply the pruning rules to a single (already-folded) comparison.

    A comparison no rule rewrites comes back as the object it was.
    """
    if not isinstance(expr, Compare):
        return expr
    # Normalise to "aggregation θ constant" with the aggregation on the left.
    left, op, right = expr.left, expr.op, expr.right
    if isinstance(right, ModuleExpr) and isinstance(left, MConst) and not left.variables:
        # [c θ α] ≡ [α θ⁻¹ c] with the mirrored relation.
        mirrored = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}
        return prune_comparison(
            compare(right, mirrored[op.symbol], left), semiring
        )
    if not isinstance(left, ModuleExpr) or not isinstance(right, MConst):
        return expr
    if right.variables:
        return expr
    monoid = left.monoid
    if monoid == MIN:
        return _prune_min_max(expr, keep_min=True)
    if monoid == MAX:
        return _prune_min_max(expr, keep_min=False)
    if isinstance(monoid, SumMonoid) and not isinstance(monoid, CappedSumMonoid):
        return _prune_sum(expr, semiring)
    return _restated(expr, left)


def _restated(expr: Compare, left: ModuleExpr) -> Expr:
    """``[left θ c]`` with ``c`` a constant of ``left``'s monoid, where
    ``expr`` is ``[α θ c]``: ``expr`` itself when ``left`` is ``α`` and
    ``c`` already lives in that monoid."""
    right = expr.right
    if left is expr.left and right.monoid == left.monoid:
        return expr
    return compare(left, expr.op, threshold_const(left.monoid, right.value))


def threshold_const(monoid: Monoid, value) -> MConst:
    return MConst(monoid, value)


def _prune_min_max(expr: Compare, *, keep_min: bool) -> Expr:
    """Drop terms that cannot influence ``[Σ_MIN/MAX ... θ c]``.

    ``keep_min=True`` handles MIN; MAX is the mirror image obtained by
    flipping every value comparison.
    """
    left, op, c = expr.left, expr.op, expr.right.value
    terms = module_terms(left)
    monoid = left.monoid

    def keep(m) -> bool:
        # The keep-sets derived from the MIN semantics (see module docstring
        # and tests); for MAX, mirror the orderings.
        if keep_min:
            if op.symbol in ("<=",):
                return m <= c
            if op.symbol in ("<", ">="):
                return m < c
            return m <= c  # >, =, != all keep values ≤ c
        if op.symbol in (">=",):
            return m >= c
        if op.symbol in (">", "<="):
            return m > c
        return m >= c  # <, =, != all keep values ≥ c

    kept = []
    changed = False
    for term in terms:
        value = _term_value(term)
        if value is None or keep(value):
            kept.append(term)
        else:
            changed = True
    return _restated(expr, aggsum(monoid, kept) if changed else left)


def _prune_sum(expr: Compare, semiring: Semiring) -> Expr:
    """Fold or saturate a SUM/COUNT comparison against a constant."""
    left, op, c = expr.left, expr.op, expr.right.value
    terms = module_terms(left)
    values = [_term_value(term) for term in terms]
    if any(v is None for v in values) or any(v < 0 for v in values):
        # Non-canonical summands or negative contributions: saturation and
        # folding arguments rely on monotone non-negative sums; skip.
        return _restated(expr, left)

    # A sum of non-negative contributions is always ≥ 0; comparisons with a
    # negative constant are decided outright (in any semiring).
    if c < 0:
        truth = op.symbol in (">=", ">", "!=")
        return SConst(int(truth))

    # Boolean scalars make Σ mᵢ an upper bound for the aggregate value.
    if semiring.is_boolean and all(v is not None for v in values):
        total = sum(values)
        if op.symbol in ("<=",) and total <= c:
            return SConst(1)
        if op.symbol in ("<",) and total < c:
            return SConst(1)
        if op.symbol in (">",) and total <= c:
            return SConst(0)
        if op.symbol in (">=",) and total < c:
            return SConst(0)
        if op.symbol in ("=",) and total < c:
            return SConst(0)
        if op.symbol in ("!=",) and total < c:
            return SConst(1)

    # Saturate: every partial sum above c behaves identically under θ.
    cap = math.floor(c) + 1 if not isinstance(c, int) else c + 1
    capped = CappedSumMonoid(cap)
    rebuilt = aggsum(capped, [_retag_monoid(term, capped) for term in terms])
    return compare(rebuilt, op, MConst(capped, min(c, cap)))


def _term_value(term: ModuleExpr):
    """The monoid value carried by a canonical semimodule summand."""
    if isinstance(term, MConst):
        return term.value
    if isinstance(term, Tensor) and isinstance(term.arg, MConst):
        return term.arg.value
    return None


def _retag_monoid(term: ModuleExpr, monoid: Monoid) -> ModuleExpr:
    """Rebuild a canonical summand over a different (compatible) monoid."""
    if isinstance(term, MConst):
        return MConst(monoid, term.value)
    if isinstance(term, Tensor) and isinstance(term.arg, MConst):
        return tensor(term.phi, MConst(monoid, term.arg.value))
    raise ValueError(f"cannot retag non-canonical summand {term!r}")
