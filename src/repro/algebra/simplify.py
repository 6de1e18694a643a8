"""Semiring-aware normalisation of expressions.

The smart constructors in :mod:`repro.algebra.expressions` and
:mod:`repro.algebra.semimodule` apply only simplifications valid in *every*
semiring.  During compilation, however, the target semiring is known, which
enables much stronger rewrites — most importantly after a Shannon expansion
step ``Φ|x←s`` substitutes constants into the expression:

* variable-free subexpressions fold to constants
  (``SConst``/``MConst``) by direct evaluation;
* in the **Boolean** semiring, sums absorb on ``⊤`` (``⊤ + Φ = ⊤``) and
  both sums and products are idempotent (``Φ + Φ = Φ``, ``Φ · Φ = Φ``),
  so duplicate children collapse;
* in the **naturals** semiring, constant summands/factors fold
  arithmetically.

These rewrites are what keep the residual expressions of a mutex
decomposition small; without Boolean absorption the Shannon rule would
barely shrink the expression it expands.
"""

from __future__ import annotations

from repro.algebra.bounds import fold_comparison_by_bounds
from repro.algebra.conditions import Compare, compare
from repro.algebra.expressions import (
    ONE,
    ZERO,
    Expr,
    Prod,
    SConst,
    SemiringExpr,
    Sum,
    Var,
    _key_of,
    ssum,
    sprod,
)
from repro.algebra.monoid import CappedSumMonoid, MaxMonoid, MinMonoid
from repro.algebra.semimodule import AggSum, MConst, ModuleExpr, Tensor, aggsum, tensor
from repro.algebra.semiring import Semiring
from repro.errors import AlgebraError

__all__ = ["Normalizer", "normalize"]


class Normalizer:
    """Normalise expressions relative to a fixed target semiring.

    Instances memoise results, which matters during compilation where the
    same subexpressions reappear across Shannon branches.

    A node no rule applies to is handed back as the object it was (see
    :meth:`_normalize`), so normalising a step-I annotation allocates
    only what a rule changes.  The result is a fixpoint: every
    ``_combine_*`` rule flattens children of its own kind (and in B
    drops their duplicates) *before* it folds, so a rebuilt node is its
    own normal form and is memoised under itself — normalising it again
    (a cache key, the compiler's second pass) is one dictionary hit that
    hands back the same object.

    :meth:`restrict` is the fused fast path for Shannon expansion: it
    computes the normalised restriction ``Φ|x←s`` in one pass (with its
    own memo), instead of materialising the substituted-but-unnormalised
    expression first.  Subtrees not mentioning ``x`` are returned
    untouched, which preserves object identity and therefore turns the
    subsequent normaliser/compiler memo lookups into cache hits.
    """

    def __init__(self, semiring: Semiring):
        self.semiring = semiring
        self._cache: dict[Expr, Expr] = {}
        self._restrict_cache: dict[tuple, Expr] = {}

    def __call__(self, expr: Expr) -> Expr:
        cached = self._cache.get(expr)
        if cached is None:
            cached = self._normalize(expr)
            if cached is not expr:
                cached = self._cache.setdefault(cached, cached)
            self._cache[expr] = cached
        return cached

    def _normalize(self, expr: Expr) -> Expr:
        """One normalisation step over already-normalised children.

        Hands back ``expr`` itself when the ``_combine_*`` rule it skips
        would rebuild an equal expression: every child normalised to
        itself, and no constant is left to fold nor (in B) duplicate to
        drop.  Nothing is left to flatten: only the smart constructors
        build nodes (AST-checked in ``tests/test_configuration.py``), so
        an unchanged child is never a node of its parent's kind, a
        nested :class:`Tensor` or ``0_M``.  A child counts as unchanged
        when it is the same object, or an equal leaf — the memo hands
        back the first-seen equal leaf.
        """
        if isinstance(expr, (Var, SConst, MConst)):
            return self._fold_const(expr)
        if isinstance(expr, (Sum, Prod)):
            normal = [self(c) for c in expr.children]
            if self._kept(expr.children, normal):
                return expr
            if isinstance(expr, Sum):
                return self._combine_sum(normal)
            return self._combine_prod(normal)
        if isinstance(expr, Compare):
            left, right = self(expr.left), self(expr.right)
            if _unchanged(expr.left, left) and _unchanged(expr.right, right):
                return self._fold_bounds(expr)
            return self._combine_compare(left, expr.op, right)
        if isinstance(expr, Tensor):
            phi, arg = self(expr.phi), self(expr.arg)
            if (
                _unchanged(expr.phi, phi)
                and _unchanged(expr.arg, arg)
                and not isinstance(phi, SConst)
            ):
                return expr
            return self._combine_tensor(phi, arg)
        if isinstance(expr, AggSum):
            normal = [self(c) for c in expr.children]
            for child, kid in zip(expr.children, normal):
                # A constant summand may meet a dominated term.
                if not _unchanged(child, kid) or isinstance(kid, MConst):
                    return self._combine_aggsum(expr.monoid, normal)
            return expr
        raise AlgebraError(f"cannot normalise expression of type {type(expr).__name__}")

    def _kept(self, children: tuple, normal: list) -> bool:
        """Whether ``_combine_sum``/``_combine_prod`` over ``normal`` would
        rebuild the node of ``children`` unchanged.  Children are
        key-sorted, so duplicates are neighbours."""
        boolean = self.semiring.is_boolean
        previous = None
        for child, kid in zip(children, normal):
            if not _unchanged(child, kid) or isinstance(kid, SConst):
                return False
            if boolean and previous is not None and (
                kid._hash == previous._hash and kid == previous
            ):
                return False
            previous = kid
        return True

    # -- Shannon restriction ----------------------------------------------

    def restrict(
        self, expr: Expr, name: str, constant: SConst, memo: dict | None = None
    ) -> Expr:
        """The normalised restriction ``expr|name←constant`` (Eq. 10).

        Precondition: ``expr`` is already in normal form (everything the
        compiler Shannon-expands is).  Subtrees not mentioning ``name``
        are therefore returned as-is, without re-normalisation, and the
        result is the normal form of ``expr.substitute({name: constant})``
        — the one Shannon step of both rule 6 and the joint compile.

        Results are memoised per ``(name, value)`` branch, keyed directly
        on the (shared) subexpressions, so sibling Shannon branches pay a
        dictionary hit per reused summand instead of a re-restriction;
        in ``memo`` if given, else in the normaliser's own memo.
        """
        if name not in expr.variables:
            return self(expr)
        if memo is None:
            memo = self._restrict_cache
        branch = memo.get((name, constant.value))
        if branch is None:
            branch = memo[(name, constant.value)] = {}
        cached = branch.get(expr)
        if cached is None:
            cached = self._restrict(expr, name, constant, branch)
            branch[expr] = cached
        return cached

    def _restrict(self, expr: Expr, name: str, constant: SConst, branch: dict) -> Expr:
        # ``name ∈ expr.variables`` is guaranteed by the callers; untouched
        # children are normalised already and pass through unchanged.
        kind = type(expr)
        if kind is Var:
            return self._fold_const(constant)
        out = []
        for child in expr.children:
            if name in child._vars:
                restricted = branch.get(child)
                if restricted is None:
                    restricted = branch[child] = self._restrict(
                        child, name, constant, branch
                    )
                child = restricted
            out.append(child)
        if kind is Sum:
            return self._combine_sum(out)
        if kind is Prod:
            return self._combine_prod(out)
        if kind is AggSum:
            return self._combine_aggsum(expr.monoid, out)
        if kind is Tensor:
            return self._combine_tensor(out[0], out[1])
        if kind is Compare:
            return self._combine_compare(out[0], expr.op, out[1])
        raise AlgebraError(
            f"cannot restrict expression of type {type(expr).__name__}"
        )

    # -- per-node-type combination rules ----------------------------------

    def _fold_const(self, expr: Expr) -> Expr:
        """Canonicalise constants for the target semiring."""
        if isinstance(expr, SConst) and self.semiring.is_boolean and expr.value > 1:
            return SConst(int(self.semiring.coerce(expr.value)))
        return expr

    def _combine_sum(self, children: list) -> SemiringExpr:
        # In B, ⊤ absorbs a sum (⊤ + Φ = ⊤); in ℕ nothing does.
        semiring = self.semiring
        absorbing = semiring.one if semiring.is_boolean else None
        return self._combine(children, Sum, semiring.zero, semiring.add, absorbing)

    def _combine_prod(self, children: list) -> SemiringExpr:
        semiring = self.semiring
        return self._combine(children, Prod, semiring.one, semiring.mul, semiring.zero)

    def _combine(self, children, kind, neutral, operation, absorbing) -> SemiringExpr:
        """A sum or product (``kind``) of normal ``children``: flatten,
        fold the constants with ``operation``, and in B drop duplicate
        children (idempotence: ``Φ + Φ = Φ · Φ = Φ``)."""
        semiring = self.semiring
        const_acc = neutral
        symbolic: list[SemiringExpr] = []
        seen: set = set()
        for child in _flatten(children, kind):
            if isinstance(child, SConst):
                const_acc = operation(const_acc, semiring.coerce(child.value))
            elif not semiring.is_boolean:
                symbolic.append(child)
            elif child not in seen:
                seen.add(child)
                symbolic.append(child)
        if const_acc == absorbing:
            return ONE if absorbing else ZERO
        if const_acc != neutral:
            symbolic.append(SConst(int(const_acc)))
        return ssum(symbolic) if kind is Sum else sprod(symbolic)

    def _combine_compare(self, left: Expr, op, right: Expr) -> SemiringExpr:
        folded = compare(left, op, right)
        if isinstance(folded, SConst):
            return self._fold_const(folded)
        return self._fold_bounds(folded)

    def _fold_bounds(self, folded: Compare) -> SemiringExpr:
        if isinstance(folded.left, ModuleExpr):
            # Early folding by value bounds: after Shannon substitutions
            # the attainable intervals of the two sides may separate, at
            # which point the comparison is decided in every remaining
            # world (the Experiment-E effect).
            decided = fold_comparison_by_bounds(
                folded.left,
                folded.op.symbol,
                folded.right,
                self.semiring.is_boolean,
            )
            if decided is not None:
                return SConst(int(decided))
        return folded

    def _combine_tensor(self, phi: SemiringExpr, arg: ModuleExpr) -> ModuleExpr:
        if type(arg) is Tensor:  # s₁ ⊗ (s₂ ⊗ α) = (s₁ · s₂) ⊗ α, s₁ · s₂ normal
            phi, arg = self._combine_prod([phi, arg.phi]), arg.arg
        if isinstance(phi, SConst) and isinstance(arg, MConst):
            scalar = self.semiring.coerce(phi.value)
            return MConst(arg.monoid, arg.monoid.act(scalar, arg.value, self.semiring))
        if isinstance(phi, SConst):
            scalar = self.semiring.coerce(phi.value)
            if scalar == self.semiring.one:
                return arg
            if scalar == self.semiring.zero:
                return MConst(arg.monoid, arg.monoid.zero)
        return tensor(phi, arg)

    def _combine_aggsum(self, monoid, children: list) -> ModuleExpr:
        # Trusted-input variant of :func:`repro.algebra.semimodule.aggsum`:
        # the children are already-normalised semimodule expressions of
        # this monoid (restriction and normalisation preserve both), so
        # the per-term validation is skipped on this very hot path.
        flat: list[ModuleExpr] = []
        const_acc = monoid.zero
        for term in _flatten(children, AggSum):
            if type(term) is MConst:
                const_acc = monoid.add(const_acc, term.value)
            else:
                flat.append(term)
        if const_acc != monoid.zero:
            flat.append(MConst(monoid, const_acc))
        if not flat:
            return MConst(monoid, monoid.zero)
        if len(flat) == 1:
            return flat[0]
        expr = AggSum(monoid, tuple(sorted(flat, key=_key_of)))
        folded = _dominance_fold(expr)
        if folded is not None:
            return folded
        return expr


def _flatten(children: list, kind: type) -> list:
    """``children`` with each child of type ``kind`` replaced by its own
    children: a rule folds and de-duplicates what the smart constructor
    would otherwise splice in only afterwards."""
    flat: list = []
    for child in children:
        if type(child) is kind:
            flat.extend(child.children)
        else:
            flat.append(child)
    return flat


def _unchanged(child: Expr, normal: Expr) -> bool:
    """``child`` normalised to itself: the same object, or an equal leaf."""
    return normal is child or (not child.children and normal == child)


def _canonical_term_value(term: ModuleExpr):
    """The monoid value of a canonical summand ``Φ ⊗ m``, else ``None``."""
    if isinstance(term, Tensor):
        arg = term.arg
        if isinstance(arg, MConst):
            return arg.value
    return None


def _dominance_fold(expr: AggSum) -> ModuleExpr | None:
    """Drop summands dominated by the sum's *certain* part.

    As Shannon expansion assigns variables, terms ``Φᵢ ⊗ mᵢ`` whose scalar
    folds to ``1_K`` merge into a single certain :class:`MConst`.  That
    certain value dominates optional terms under the selective monoids —
    the key fact being that an optional term contributes either its value
    or the monoid's neutral element:

    * **MIN** with certain value ``m``: a term with ``mᵢ ≥ m`` contributes
      ``min(m, mᵢ) = m`` or ``min(m, +∞) = m`` — droppable either way;
    * **MAX** dually for ``mᵢ ≤ m``;
    * **capped SUM** (:class:`~repro.algebra.monoid.CappedSumMonoid`) with
      its certain part saturated at the cap: adding any non-negative
      term leaves the sum at the cap, so the whole expression folds to
      ``MConst(cap)``.

    This is the distribution-level counterpart of the Section-5 pruning
    rules: it is what makes Shannon subtrees collapse once enough clauses
    are satisfied (the paper's Experiment-E effect).  Returns ``None``
    when no summand can be dropped.
    """
    monoid = expr.monoid
    if isinstance(monoid, MinMonoid):
        keep = lambda value, certain: value < certain  # noqa: E731
    elif isinstance(monoid, MaxMonoid):
        keep = lambda value, certain: value > certain  # noqa: E731
    elif isinstance(monoid, CappedSumMonoid):
        certain = None
        for child in expr.children:
            if isinstance(child, MConst):
                certain = child.value
                break
        if certain is None or certain < monoid.cap:
            return None
        for child in expr.children:
            if isinstance(child, MConst):
                continue
            value = _canonical_term_value(child)
            if value is None or value < 0:
                return None  # negative/opaque contribution: keep everything
        return MConst(monoid, monoid.cap)
    else:
        return None

    certain = None
    for child in expr.children:
        if isinstance(child, MConst):
            certain = child.value
            break
    if certain is None:
        return None
    kept: list[ModuleExpr] = []
    dropped = False
    for child in expr.children:
        if isinstance(child, MConst):
            continue
        value = _canonical_term_value(child)
        if value is not None and not keep(value, certain):
            dropped = True
        else:
            kept.append(child)
    if not dropped:
        return None
    kept.append(MConst(monoid, certain))
    return aggsum(monoid, kept)


def normalize(expr: Expr, semiring: Semiring) -> Expr:
    """One-shot normalisation; see :class:`Normalizer`."""
    return Normalizer(semiring)(expr)
