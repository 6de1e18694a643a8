"""Valuations ``ν : X → S`` and the homomorphisms they induce (Section 3).

A mapping of the variables into a concrete semiring ``S`` extends uniquely

* to a *semiring homomorphism* ``ν : K → S`` evaluating annotation
  expressions, and
* to a *monoid homomorphism* ``ν : K ⊗ M → M`` evaluating semimodule
  expressions,

with conditional expressions ``[Φ θ Ψ]`` evaluating to ``1_S``/``0_S``
per Equation (2).  Each valuation defines one possible world of a
pvc-database (Definition 6).

:func:`evaluate` applies one valuation; :func:`evaluate_batch` applies a
whole *batch* of valuations at once, one numpy vector per
sub-expression, into the Boolean semiring (bool columns) or the
naturals (int64 columns).  It is an accelerator in the style of
:mod:`repro.prob.kernels`: :func:`batch_exact` says for which
expressions it reproduces :func:`evaluate` exactly — same values, same
Python types — and callers keep the scalar path for everything else.
The batch is either sampled (Monte-Carlo) or, for a handful of Boolean
variables, *every* valuation there is (:func:`all_valuations` as
columns, :func:`all_valuation_bitsets` as Python-int bitsets).
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce
from typing import Mapping

import numpy as _np

from repro.algebra.conditions import Compare
from repro.algebra.expressions import ONE, Expr, Prod, SConst, Sum, Var
from repro.algebra.monoid import (
    CappedSumMonoid,
    MaxMonoid,
    MinMonoid,
    SumMonoid,
)
from repro.algebra.semimodule import (
    AggSum,
    MConst,
    ModuleExpr,
    Tensor,
    module_terms,
)
from repro.algebra.semiring import BOOLEAN, Semiring
from repro.errors import AlgebraError

__all__ = [
    "Valuation",
    "evaluate",
    "batch_exact",
    "evaluate_batch",
    "support_column",
    "all_valuations",
    "all_valuation_bitsets",
    "bitset_column",
    "batch_values",
]

#: Magnitude bounds keeping integers exact in float64: the sum of
#: magnitudes under ``Σ_SUM``, a single value where nothing is added.
_EXACT_SUM = 2**52
_EXACT_INT = 2**53


class Valuation:
    """A variable assignment together with its target semiring.

    Calling the valuation on an expression evaluates it: semiring
    expressions yield elements of ``S``, semimodule expressions yield
    monoid values.

    >>> from repro.algebra import Var, BOOLEAN
    >>> nu = Valuation({"x": True, "y": False}, BOOLEAN)
    >>> nu(Var("x") + Var("y"))
    True
    """

    __slots__ = ("assignment", "semiring")

    def __init__(self, assignment: Mapping[str, object], semiring: Semiring):
        self.assignment = dict(assignment)
        self.semiring = semiring

    def __call__(self, expr: Expr):
        return evaluate(expr, self.assignment, self.semiring)

    def __getitem__(self, name: str):
        return self.semiring.coerce(self.assignment[name])

    def __contains__(self, name: str) -> bool:
        return name in self.assignment

    def __repr__(self):
        pairs = ", ".join(f"{k}→{v}" for k, v in sorted(self.assignment.items()))
        return f"Valuation({pairs}; {self.semiring.name})"


def evaluate(expr: Expr, assignment: Mapping[str, object], semiring: Semiring):
    """Evaluate ``expr`` under ``assignment`` into ``semiring``.

    Implements the semiring/monoid homomorphisms of Section 3 and the
    conditional-expression semantics of Equation (2).  Returns a semiring
    value for semiring expressions and a monoid value for semimodule
    expressions.
    """
    if isinstance(expr, Var):
        try:
            return semiring.coerce(assignment[expr.name])
        except KeyError:
            raise AlgebraError(
                f"valuation does not assign variable {expr.name!r}"
            ) from None
    if isinstance(expr, SConst):
        return semiring.coerce(expr.value)
    if isinstance(expr, Sum):
        result = semiring.zero
        for child in expr.children:
            result = semiring.add(result, evaluate(child, assignment, semiring))
        return result
    if isinstance(expr, Prod):
        result = semiring.one
        for child in expr.children:
            result = semiring.mul(result, evaluate(child, assignment, semiring))
            if result == semiring.zero:
                return result
        return result
    if isinstance(expr, Compare):
        left = evaluate(expr.left, assignment, semiring)
        right = evaluate(expr.right, assignment, semiring)
        return semiring.from_condition(expr.op(left, right))
    if isinstance(expr, MConst):
        return expr.value
    if isinstance(expr, Tensor):
        scalar = evaluate(expr.phi, assignment, semiring)
        inner = evaluate(expr.arg, assignment, semiring)
        return expr.monoid.act(scalar, inner, semiring)
    if isinstance(expr, AggSum):
        monoid = expr.monoid
        result = monoid.zero
        for child in expr.children:
            result = monoid.add(result, evaluate(child, assignment, semiring))
        return result
    raise AlgebraError(f"cannot evaluate expression of type {type(expr).__name__}")


# -- batched valuation ---------------------------------------------------------


def _weighted_terms(expr: ModuleExpr) -> list | None:
    """``[(Φᵢ, mᵢ), ...]`` of a canonical ``Σ Φᵢ⊗mᵢ`` (Figure 2), constant
    summands as ``1_K⊗m``; ``None`` for hand-built nested shapes."""
    terms = []
    for term in module_terms(expr):
        if isinstance(term, MConst):
            terms.append((ONE, term.value))
        elif isinstance(term, Tensor) and isinstance(term.arg, MConst):
            terms.append((term.phi, term.arg.value))
        else:
            return None
    return terms


def batch_exact(expr: Expr, maxima: Mapping | None = None) -> bool:
    """True when :func:`evaluate_batch` equals :func:`evaluate` on ``expr``
    in every world, bit for bit and type for type.

    ``maxima`` maps every variable to its largest support value for a
    batch of bag-semantics (ℕ) worlds; ``None`` means Boolean worlds.
    Multiplicities are int64 columns there, kept within ``2**52``
    (:func:`_multiplicity_bound`).  Batched aggregates are computed in
    float64, so they must stay clear of everything float64 could
    change: float SUM inputs (the matrix product adds in another order
    than the per-world fold), integers beyond float64's exact range
    (``Σ|mᵢ|·max Φᵢ`` under SUM), negative values under a saturating
    SUM (order-dependent), and value sets mixing ints with floats (the
    result's Python type would depend on which value wins).  PROD and
    custom monoids have no batched form.
    """
    if not isinstance(expr, ModuleExpr):
        return _multiplicity_bound(expr, maxima) <= _EXACT_SUM
    terms = _weighted_terms(expr)
    if terms is None:
        return False
    bounds = [_multiplicity_bound(phi, maxima) for phi, _ in terms]
    if not all(bound <= _EXACT_SUM for bound in bounds):
        return False
    values = [value for _, value in terms]
    integral = all(type(v) is int for v in values)
    if isinstance(expr, MConst):  # e.g. the constant of [Γ ≤ 2.5]
        return type(values[0]) is float or (
            integral and abs(values[0]) <= _EXACT_INT
        )
    monoid = expr.monoid
    if isinstance(monoid, SumMonoid):
        total = sum(abs(v) * bound for v, bound in zip(values, bounds))
        if not integral or total > _EXACT_SUM:
            return False
        return not isinstance(monoid, CappedSumMonoid) or min(values) >= 0
    if isinstance(monoid, (MinMonoid, MaxMonoid)):
        if integral:
            return all(abs(v) <= _EXACT_INT for v in values)
        return all(type(v) is float for v in values)
    return False


def _multiplicity_bound(expr: Expr, maxima: Mapping | None) -> float:
    """An upper bound on what the semiring expression ``expr`` valuates
    to in any world — and on every partial ⊕/⊗ on the way — or ``inf``
    when :func:`evaluate_batch` cannot reproduce it.

    ℕ's ``+`` and ``·`` are monotone, so valuating at each variable's
    largest support value bounds every world (a product's factors count
    at least 1: a zero factor last does not bound the partial products
    before it); a condition is ``0`` or ``1``.  Boolean worlds
    (``maxima`` None) never exceed ``1``.
    """
    if isinstance(expr, Var):
        return 1 if maxima is None else maxima.get(expr.name, math.inf)
    if isinstance(expr, SConst):
        return 1 if maxima is None else expr.value
    if isinstance(expr, Compare):
        exact = all(batch_exact(child, maxima) for child in expr.children)
        return 1 if exact else math.inf
    if isinstance(expr, (Sum, Prod)):
        bounds = [_multiplicity_bound(child, maxima) for child in expr.children]
        if maxima is None:  # ∨ and ∧: every bound is 1 or inf
            return max(bounds)
        if isinstance(expr, Sum):
            return sum(bounds)
        return math.prod(max(bound, 1) for bound in bounds)
    return math.inf


def _carrier(semiring: Semiring):
    """The column dtype of ``semiring``'s values in a batch."""
    return bool if semiring.is_boolean else _np.int64


def support_column(values, semiring: Semiring):
    """A variable's support values, coerced, as one column of
    ``semiring``'s batch carrier (bool under 𝔹, int64 under ℕ): indexed
    by drawn support indices it is that variable's ``presence`` vector
    for :func:`evaluate_batch`."""
    return _np.fromiter(
        (semiring.coerce(v) for v in values),
        dtype=_carrier(semiring),
        count=len(values),
    )


def evaluate_batch(
    expr: Expr,
    presence: Mapping,
    size: int,
    memo: dict,
    semiring: Semiring = BOOLEAN,
):
    """Evaluate ``expr`` in ``size`` worlds of ``semiring`` at once.

    ``presence`` maps each variable to its value per world, in one of
    two carriers:

    * **columns** — a bool vector under 𝔹, an int64 multiplicity vector
      under ℕ (Monte-Carlo's sampled worlds);
    * **bitsets** — under 𝔹 only, a Python ``int`` whose bit ``w`` is
      the variable's value in world ``w`` (:func:`all_valuation_bitsets`,
      a table leaf's truth table).

    The homomorphisms of :func:`evaluate` become column operations: ⊕ →
    ``|`` and ⊗ → ``&`` under 𝔹 (on bool columns and bitsets alike), ``+``
    and ``*`` under ℕ; ``[Φ θ Ψ]`` → element-wise compare as
    ``0_S``/``1_S``, ``Φ⊗m`` → ``n·m`` under SUM and presence ``n > 0``
    under MIN/MAX, ``Σ_M`` → matrix product or min/max fold.  Only
    ``[θ]`` and ``Σ_M`` nodes unpack bitsets to bool columns
    (:func:`bitset_column`), and a ``[θ]`` packs its answer back, so
    both carriers give the same numbers.  Semiring expressions yield
    carrier values, semimodule expressions float64 vectors (see
    :func:`batch_values`).  ``memo`` caches sub-expression values across
    the calls of one batch — factors shared between result rows are
    common after joins — so returned vectors must not be written to.
    Requires :func:`batch_exact` expressions.
    """
    if isinstance(expr, Var):
        try:
            return presence[expr.name]
        except KeyError:
            raise AlgebraError(
                f"valuation does not assign variable {expr.name!r}"
            ) from None
    result = memo.get(expr)
    if result is not None:
        return result
    if isinstance(expr, SConst):
        if _on_bitsets(presence):
            result = (1 << size) - 1 if expr.value else 0
        else:
            result = _np.full(size, expr.value, dtype=_carrier(semiring))
    elif isinstance(expr, Sum):
        result = reduce(
            operator.or_ if semiring.is_boolean else operator.add,
            (evaluate_batch(c, presence, size, memo, semiring) for c in expr.children),
        )
    elif isinstance(expr, Prod):
        result = reduce(
            operator.and_ if semiring.is_boolean else operator.mul,
            (evaluate_batch(c, presence, size, memo, semiring) for c in expr.children),
        )
    elif isinstance(expr, Compare):
        left = evaluate_batch(expr.left, presence, size, memo, semiring)
        right = evaluate_batch(expr.right, presence, size, memo, semiring)
        if type(left) is int:
            left = bitset_column(left, size)
        if type(right) is int:
            right = bitset_column(right, size)
        result = expr.op(left, right).astype(_carrier(semiring), copy=False)
        if _on_bitsets(presence):
            result = int.from_bytes(
                _np.packbits(result, bitorder="little").tobytes(), "little"
            )
    elif isinstance(expr, MConst):
        result = _np.full(size, expr.value, dtype=float)
    elif isinstance(expr, ModuleExpr):
        result = _aggregate_batch(expr, presence, size, memo, semiring)
    else:
        raise AlgebraError(
            f"cannot batch-evaluate expression of type {type(expr).__name__}"
        )
    memo[expr] = result
    return result


def _on_bitsets(presence: Mapping) -> bool:
    """Whether ``presence`` holds bitsets rather than columns."""
    return type(next(iter(presence.values()), None)) is int


def bitset_column(bits: int, size: int):
    """The bool column of a bitset over ``size`` worlds (world ``w`` is
    bit ``w``)."""
    return _unpack([bits], size)[0]


def _unpack(rows: list, size: int):
    """``len(rows) × size`` bools, row ``i`` the worlds of bitset ``rows[i]``."""
    width = (size + 7) >> 3
    raw = b"".join(bits.to_bytes(width, "little") for bits in rows)
    return _np.unpackbits(
        _np.frombuffer(raw, dtype=_np.uint8).reshape(len(rows), width),
        axis=1,
        count=size,
        bitorder="little",
    ).view(bool)


def _aggregate_batch(expr: ModuleExpr, presence, size: int, memo, semiring):
    """``Σ_M Φᵢ⊗mᵢ`` over the batch: one ``terms × worlds`` matrix of
    the ``Φᵢ``, multiplicities under ℕ."""
    terms = _weighted_terms(expr)
    weights = _np.asarray([value for _, value in terms], dtype=float)
    rows = [evaluate_batch(phi, presence, size, memo, semiring) for phi, _ in terms]
    matrix = _unpack(rows, size) if type(rows[0]) is int else _np.vstack(rows)
    monoid = expr.monoid
    if isinstance(monoid, SumMonoid):
        totals = weights @ matrix
        if isinstance(monoid, CappedSumMonoid):
            # Non-negative values: the saturating fold equals the capped total.
            return _np.minimum(totals, monoid.cap)
        return totals
    if isinstance(monoid, (MinMonoid, MaxMonoid)):
        fold = _np.minimum if isinstance(monoid, MinMonoid) else _np.maximum
        return fold.reduce(
            _np.where(matrix, weights[:, None], monoid.zero),
            axis=0,
            initial=monoid.zero,
        )
    raise AlgebraError(f"no batched form for the {monoid.name} monoid")


@lru_cache(maxsize=16)
def _world_bits(count: int):
    """``count × 2^count`` bools: row ``i`` is bit ``i`` of the world number."""
    bits = (_np.arange(1 << count) >> _np.arange(count)[:, None] & 1).astype(bool)
    bits.setflags(write=False)
    return bits


def all_valuations(names) -> dict:
    """Every Boolean valuation of ``names`` as a ``presence`` mapping for
    :func:`evaluate_batch`: ``2^k`` worlds, world ``w`` setting
    ``names[i]`` to bit ``i`` of ``w``."""
    return dict(zip(names, _world_bits(len(names))))


@lru_cache(maxsize=16)
def _world_bitsets(count: int) -> tuple:
    """:func:`_world_bits`' rows as ints: bit ``w`` of row ``i`` is bit
    ``i`` of ``w``."""
    packed = _np.packbits(_world_bits(count), axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def all_valuation_bitsets(names) -> dict:
    """:func:`all_valuations` in the bitset carrier of
    :func:`evaluate_batch`: ``names[i]`` is the int whose bit ``w`` is
    bit ``i`` of ``w``."""
    return dict(zip(names, _world_bitsets(len(names))))


def batch_values(expr: ModuleExpr, column) -> list:
    """The Python values :func:`evaluate` yields for a float64 vector of
    :func:`evaluate_batch`: integer constants give ints back (``±∞``, the
    MIN/MAX neutral, stays a float); float constants stay floats."""
    values = column.tolist()
    if type(_weighted_terms(expr)[0][1]) is int:
        return [int(v) if math.isfinite(v) else v for v in values]
    return values
