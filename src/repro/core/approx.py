"""Approximate probability computation on partially compiled d-trees.

The paper notes (Section 1) that "besides exact computation, decomposition
trees also allow for approximate probability computation [18]": compiling
an expression only partially and propagating *bounds* for the unexpanded
residual expressions.  This module reproduces that scheme for the
presence probability ``P[Φ ≠ 0_S]`` of tuple annotations:

* the expression is compiled with a budget on the number of Shannon (⊔)
  expansions;
* when the budget runs out, the remaining expression becomes an *unknown*
  leaf whose probability of being non-zero lies in ``[0, 1]``;
* bounds propagate upward through the independence rules because
  ``P(Φ ∨ Ψ) = 1-(1-p)(1-q)`` and ``P(Φ ∧ Ψ) = p·q`` are monotone in both
  arguments, and through mutex nodes because mixtures are monotone too.
  (For positive semirings without zero divisors — Boolean and ℕ — the
  non-zero events of independent sums/products combine by exactly these
  formulas, so the same propagation covers bag semantics.)
* conditional sub-expressions ``[α θ β]`` over aggregation semimodules are
  decided outright by the value intervals of
  :func:`repro.algebra.bounds.value_bounds` when the two sides separate
  (the Experiment-E effect); undecided comparisons are Shannon-expanded
  within the same budget, each substitution re-tightening the value
  intervals until the comparison folds.

The budget counts *residuals resolved*: one unit buys either one
Shannon expansion step or — for a residual small enough for rule 6's
base case (:func:`repro.core.compile.table_leaf`) — its whole truth
table, which comes back as zero-width bounds.  Increasing the budget
refines the interval monotonically; with an unbounded budget the
interval collapses to the exact probability.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.bounds import fold_comparison_by_bounds
from repro.algebra.conditions import Compare
from repro.algebra.expressions import (
    Expr,
    Prod,
    SConst,
    Sum,
    Var,
    ssum,
    sprod,
)
from repro.algebra.simplify import Normalizer
from repro.algebra.semiring import BOOLEAN, Semiring
from repro.core import decompose
from repro.core.compile import HEURISTICS, Compiler, table_leaf
from repro.core.dtree import CompileContext
from repro.errors import CompilationError
from repro.prob.variables import VariableRegistry
from repro.resilience.deadline import current_deadline

__all__ = [
    "ProbabilityBounds",
    "ApproximateCompiler",
    "approximate_probability",
]


@dataclass(frozen=True)
class ProbabilityBounds:
    """An interval ``[low, high]`` bracketing a Boolean probability."""

    low: float
    high: float

    def __post_init__(self):
        if not (0.0 - 1e-9 <= self.low <= self.high + 1e-9 <= 1.0 + 1e-9):
            raise CompilationError(
                f"invalid probability bounds [{self.low}, {self.high}]"
            )

    @property
    def width(self) -> float:
        return self.high - self.low

    @property
    def midpoint(self) -> float:
        return (self.low + self.high) / 2.0

    def contains(self, p: float, tol: float = 1e-9) -> bool:
        return self.low - tol <= p <= self.high + tol

    @classmethod
    def exact(cls, p: float) -> "ProbabilityBounds":
        return cls(p, p)

    @classmethod
    def unknown(cls) -> "ProbabilityBounds":
        return cls(0.0, 1.0)

    def disjunction(self, other: "ProbabilityBounds") -> "ProbabilityBounds":
        """Bounds of ``P(Φ ∨ Ψ)`` for independent operands (monotone)."""
        return ProbabilityBounds(
            1.0 - (1.0 - self.low) * (1.0 - other.low),
            1.0 - (1.0 - self.high) * (1.0 - other.high),
        )

    def conjunction(self, other: "ProbabilityBounds") -> "ProbabilityBounds":
        """Bounds of ``P(Φ ∧ Ψ)`` for independent operands (monotone)."""
        return ProbabilityBounds(self.low * other.low, self.high * other.high)

    def __repr__(self):
        return f"[{self.low:.6g}, {self.high:.6g}]"


class ApproximateCompiler:
    """Budgeted compilation producing probability bounds.

    Bounds ``P[Φ ≠ 0_S]`` — the presence probability of an annotation —
    for expressions built from variables, sums, products and conditional
    (semimodule comparison) sub-expressions.  ``semiring`` selects bag
    vs set semantics: it drives normalisation and decides whether the
    value-interval analysis of aggregation comparisons may assume 0/1
    scalars.  Semimodule expressions may appear only *inside* comparisons
    (as they do in Figure-4 annotations); a bare semimodule expression is
    rejected.
    """

    def __init__(
        self,
        registry: VariableRegistry,
        budget: int,
        semiring: Semiring = BOOLEAN,
        normalizer: Normalizer | None = None,
        seed_bounds: dict | None = None,
    ):
        self.registry = registry
        self.budget = budget
        self.semiring = semiring
        #: Budget units actually spent — residuals resolved, by one
        #: expansion step or one table each (for diagnostics; the
        #: remaining allowance is ``budget``).
        self.expansions = 0
        self._context = CompileContext(registry, semiring)
        #: ``normalizer`` may be shared across refinement rounds (and
        #: across the rows of one query): normalisation and restriction
        #: are pure, so the fused restrict cache carries over soundly.
        self._normalizer = normalizer if normalizer is not None else Normalizer(semiring)
        self._memo: dict[Expr, ProbabilityBounds] = {}
        if seed_bounds:
            # Zero-width entries of an earlier (smaller-budget) round are
            # *exact* regardless of that round's unexpanded leaves — an
            # unknown [0, 1] factor can only surface as positive width —
            # so iterative deepening reuses them instead of re-deriving.
            self._memo.update(
                (expr, bounds)
                for expr, bounds in seed_bounds.items()
                if bounds.width == 0.0
            )

    def exact_bounds(self) -> dict:
        """The memo entries proven exact, for seeding the next round."""
        return {
            expr: bounds
            for expr, bounds in self._memo.items()
            if bounds.width == 0.0
        }

    def bounds(self, expr: Expr) -> ProbabilityBounds:
        """Bounds on ``P[expr ≠ 0_S]`` within the expansion budget."""
        return self._bounds(self._normalizer(expr))

    def _bounds(self, expr: Expr) -> ProbabilityBounds:
        cached = self._memo.get(expr)
        if cached is None:
            cached = self._bounds_uncached(expr)
            self._memo[expr] = cached
        return cached

    def _bounds_uncached(self, expr: Expr) -> ProbabilityBounds:
        if isinstance(expr, SConst):
            nonzero = self.semiring.coerce(expr.value) != self.semiring.zero
            return ProbabilityBounds.exact(float(nonzero))
        if isinstance(expr, Var):
            return ProbabilityBounds.exact(self._var_nonzero(expr.name))
        if isinstance(expr, Sum):
            return self._combine(expr.children, ssum, "disjunction")
        if isinstance(expr, Prod):
            return self._combine(expr.children, sprod, "conjunction")
        if isinstance(expr, Compare):
            decided = fold_comparison_by_bounds(
                expr.left, expr.op.symbol, expr.right, self.semiring.is_boolean
            )
            if decided is not None:
                return ProbabilityBounds.exact(float(decided))
            if expr.variables:
                return self._shannon(expr)
            return ProbabilityBounds.unknown()
        raise CompilationError(
            f"approximation supports semiring expressions (with semimodule "
            f"comparisons) only, got {type(expr).__name__}"
        )

    def _var_nonzero(self, name: str) -> float:
        zero = self.semiring.zero
        return sum(
            prob
            for value, prob in self.registry[name].items()
            if self.semiring.coerce(value) != zero
        )

    def _combine(self, children, rebuild, combiner: str) -> ProbabilityBounds:
        groups = decompose.independent_groups(children)
        if len(groups) == 1:
            # Connected: no independence rule applies, expand a variable.
            return self._shannon(rebuild(children))
        result: ProbabilityBounds | None = None
        for group in groups:
            if len(group) == 1:
                group_bounds = self._bounds(group[0])
            else:
                group_bounds = self._shannon(rebuild(group))
            result = (
                group_bounds
                if result is None
                else getattr(result, combiner)(group_bounds)
            )
        return result

    def _shannon(self, expr: Expr) -> ProbabilityBounds:
        if not expr.variables:
            return self._bounds(expr)
        if self.budget <= 0:
            return ProbabilityBounds.unknown()
        deadline = current_deadline()
        if deadline is not None and deadline.expired():
            # An expired ambient deadline behaves exactly like an
            # exhausted budget: stop expanding and report the (sound)
            # vacuous bounds, letting the caller keep whatever tightness
            # the completed expansions bought.
            return ProbabilityBounds.unknown()
        self.budget -= 1
        self.expansions += 1
        table = table_leaf(expr, self.registry, self.semiring)
        if table is not None:
            absent = table.distribution(self._context)[self.semiring.zero]
            return ProbabilityBounds.exact(1.0 - absent)
        name = HEURISTICS["most-occurrences"](expr, expr.variables)
        low = high = 0.0
        for value, prob in self.registry[name].items():
            # The fused memoised restrict-and-normalise pass of the exact
            # compiler; sibling Shannon branches share their subterms.
            restricted = self._normalizer.restrict(
                expr, name, SConst(int(value))
            )
            child = self._bounds(restricted)
            low += prob * child.low
            high += prob * child.high
        return ProbabilityBounds(low, high)


def approximate_probability(
    expr: Expr,
    registry: VariableRegistry,
    epsilon: float = 0.01,
    initial_budget: int = 8,
    max_budget: int = 1 << 20,
    semiring: Semiring = BOOLEAN,
) -> ProbabilityBounds:
    """Refine bounds on ``P[expr ≠ 0_S]`` until the interval width ≤ ε.

    Doubles the Shannon budget until the requested precision is reached;
    falls back to the exact compiler once the budget would exceed
    ``max_budget`` (at which point exact compilation is typically cheaper
    than further refinement).
    """
    budget = initial_budget
    normalizer = Normalizer(semiring)
    seed: dict | None = None
    while budget <= max_budget:
        approximator = ApproximateCompiler(
            registry, budget, semiring, normalizer=normalizer, seed_bounds=seed
        )
        bounds = approximator.bounds(expr)
        if bounds.width <= epsilon:
            return bounds
        seed = approximator.exact_bounds()
        budget *= 2
    compiler = Compiler(registry, semiring)
    exact = 1.0 - compiler.distribution(expr)[semiring.zero]
    return ProbabilityBounds.exact(exact)
