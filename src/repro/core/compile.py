"""Algorithm 1: compiling expressions into decomposition trees.

The compiler repeatedly applies six decomposition rules to an input
semiring or semimodule expression (Section 5):

1. split a sum into **independent** summands (``⊕``);
2. split a product into independent factors (``⊙``);
3. split a scalar action ``Φ ⊗ α`` with independent sides (``⊗``);
4. split a comparison ``[Φ θ Ψ]`` with independent sides (``[θ]``);
5. *(factorisation)* extract a variable occurring as a common
   multiplicative factor of every summand — the algebraic rewriting that
   recognises read-once expressions;
6. otherwise, eliminate one variable by **Shannon expansion** into
   mutually exclusive branches (``⊔ₓ``), choosing by default a variable
   with the most occurrences (the paper's heuristic) — unless the
   residual is small enough for rule 6's *base case*
   (:func:`table_leaf`): over a handful of Boolean variables it is
   cheaper to valuate the expression in all ``2^k`` worlds as one numpy
   batch than to expand it, and the residual becomes one
   :class:`~repro.core.dtree.TableLeaf`.

Rules 1-5 run in polynomial time; rule 6 is the potential exponential
blow-up, which the tractable query classes of Section 6 never trigger.
The compiler memoises structurally equal sub-expressions, so repeated
sub-problems across Shannon branches compile once and the resulting
"tree" is a DAG.  That d-tree memo is its only state: rules 1-2
partition with :func:`repro.core.decompose.independent_groups` and
rule 6 counts with :func:`~repro.algebra.expressions.count_occurrences`,
both of which read the expression alone, so what a compile costs does
not depend on what the compiler compiled before.  The base case is an
accelerator in the style of :mod:`repro.prob.kernels`, selected by the
same numpy switch and by nothing else: with the kernels off — or on a
residual it does not cover — compilation is Algorithm 1 verbatim.
"""

from __future__ import annotations

from typing import Callable

from repro.algebra.conditions import Compare
from repro.algebra.expressions import (
    Expr,
    Prod,
    SConst,
    Sum,
    Var,
    count_occurrences,
    ssum,
    sprod,
)
from repro.algebra.semimodule import AggSum, Tensor, aggsum
from repro.algebra.semiring import BOOLEAN, Semiring
from repro.algebra.simplify import Normalizer
from repro.algebra.valuation import batch_exact, evaluate
from repro.core import decompose
from repro.core.dtree import (
    CompareNode,
    CompileContext,
    ConstLeaf,
    DTree,
    MPlusNode,
    MutexNode,
    PlusNode,
    TableLeaf,
    TensorNode,
    TimesNode,
    VarLeaf,
)
from repro.core.pruning import prune
from repro.errors import CompilationError
from repro.prob import kernels
from repro.prob.distribution import Distribution
from repro.prob.variables import VariableRegistry
from repro.resilience.deadline import check_deadline

__all__ = [
    "Compiler",
    "compile_expression",
    "distribution_task",
    "table_leaf",
    "HEURISTICS",
]

#: Rule 6's base case tabulates a residual of ``nodes`` AST nodes over
#: ``k`` variables when ``nodes × 2^k`` stays within this many cells —
#: about what *one* ⊔ step (restrict, re-normalise, re-hash both
#: branches) costs, so a table never loses to the expansion it replaces.
#: Sized by Experiment C's ``#v`` sweep (EXPERIMENTS.md), whose residuals
#: straddle the budget; a larger budget was slower there.
_TABLE_CELLS = 1 << 17
#: No connected residual over more variables fits ``_TABLE_CELLS``; the
#: cap spares larger ones the size walk.
_TABLE_VARIABLES = 12


def table_leaf(
    expr: Expr, registry: VariableRegistry, semiring: Semiring
) -> TableLeaf | None:
    """Rule 6's base case: ``expr`` as a :class:`TableLeaf`, or ``None``
    when it must be Shannon-expanded.

    Shared by every Shannon loop (exact and approximate).  Applies when
    the numpy kernels are on, valuations are Boolean (semiring and every
    variable's distribution), the batch evaluator reproduces
    :func:`~repro.algebra.valuation.evaluate` exactly on ``expr``, and
    the full truth table fits ``_TABLE_CELLS``.
    """
    names = expr.variables
    if (
        not semiring.is_boolean
        or not kernels.numpy_enabled()
        or len(names) > _TABLE_VARIABLES
        or expr.size() << len(names) > _TABLE_CELLS
        or not batch_exact(expr)
        or not all(value in (0, 1) for name in names for value in registry[name])
    ):
        return None
    return TableLeaf(expr, sorted(names))


def _most_occurrences(expr: Expr, candidates: frozenset) -> str:
    """The paper's default: eliminate a variable with the most occurrences."""
    counts = count_occurrences(expr)
    return max(candidates, key=lambda name: (counts.get(name, 0), name))


def _fewest_occurrences(expr: Expr, candidates: frozenset) -> str:
    """Ablation heuristic: eliminate a variable with the fewest occurrences."""
    counts = count_occurrences(expr)
    return min(candidates, key=lambda name: (counts.get(name, 0), name))


def _lexicographic(expr: Expr, candidates: frozenset) -> str:
    """Ablation heuristic: eliminate the lexicographically first variable."""
    return min(candidates)


#: Pluggable Shannon-expansion variable-choice heuristics, each
#: ``(expr, candidates) -> name``: it reads only the expression being
#: expanded, so the choice never depends on what the compiler saw before.
HEURISTICS: dict[str, Callable[[Expr, frozenset], str]] = {
    "most-occurrences": _most_occurrences,
    "fewest-occurrences": _fewest_occurrences,
    "lexicographic": _lexicographic,
}


class Compiler:
    """Compiles expressions over a fixed probability space into d-trees.

    Parameters
    ----------
    registry:
        Distributions of the independent random variables.
    semiring:
        Target semiring of the valuations (Boolean for set semantics,
        naturals for bag semantics).
    heuristic:
        Shannon variable-choice strategy; a key of :data:`HEURISTICS` or a
        callable with the same ``(expr, candidate_names) -> name``
        signature.
    pruning:
        Apply the Section-5 pruning rules to conditional expressions
        before compilation (on by default).
    max_mutex_nodes:
        Optional safety budget on the number of ``⊔`` nodes created;
        exceeding it raises :class:`CompilationError`.  A caller's
        guard against a blow-up: nothing in the library sets it (the
        approximation module budgets its own Shannon expansions), and
        sessions pass it through ``connect(max_mutex_nodes=...)``.  A
        tabulated residual (:func:`table_leaf`) creates none.
    """

    def __init__(
        self,
        registry: VariableRegistry,
        semiring: Semiring = BOOLEAN,
        heuristic: str | Callable = "most-occurrences",
        pruning: bool = True,
        max_mutex_nodes: int | None = None,
    ):
        self.registry = registry
        self.semiring = semiring
        if isinstance(heuristic, str):
            try:
                heuristic = HEURISTICS[heuristic]
            except KeyError:
                raise CompilationError(
                    f"unknown heuristic {heuristic!r}; "
                    f"expected one of {sorted(HEURISTICS)}"
                ) from None
        self.choose_variable = heuristic
        self.pruning = pruning
        self.max_mutex_nodes = max_mutex_nodes
        self.mutex_nodes_created = 0
        self.context = CompileContext(registry, semiring)
        self._normalizer = Normalizer(semiring)
        self._memo: dict[Expr, DTree] = {}

    # -- public API ----------------------------------------------------------

    def compile(self, expr: Expr) -> DTree:
        """Compile ``expr`` into an equivalent d-tree (Proposition 4)."""
        expr = self._normalizer(expr)
        if self.pruning:
            expr = self._normalizer(prune(expr, self.semiring))
        return self._compile(expr)

    def normalize(self, expr: Expr) -> Expr:
        """Semiring-aware normal form of ``expr``.

        Public hook for per-session compilation caches, which key their
        entries on normalized annotations.
        """
        return self._normalizer(expr)

    def distribution(self, expr: Expr) -> Distribution:
        """Compile ``expr`` and compute its probability distribution."""
        return self.compile(expr).distribution(self.context)

    def probability(self, expr: Expr, value=None) -> float:
        """P[expr = value]; ``value`` defaults to the semiring's ``1_S``."""
        if value is None:
            value = self.semiring.one
        return self.distribution(expr)[value]

    # -- Algorithm 1 ----------------------------------------------------------

    def _compile(self, expr: Expr) -> DTree:
        node = self._memo.get(expr)
        if node is None:
            node = self._compile_uncached(expr)
            self._memo[expr] = node
        return node

    def _compile_uncached(self, expr: Expr) -> DTree:
        # Rule 0: variable-free expressions evaluate to constants.
        if not expr.variables:
            return ConstLeaf(evaluate(expr, {}, self.semiring))
        handler = self._DISPATCH.get(type(expr))
        if handler is None:
            raise CompilationError(f"cannot compile expression {expr!r}")
        return handler(self, expr)

    def _compile_var(self, expr: Var) -> DTree:
        return VarLeaf(expr.name)

    def _compile_sum(self, expr: Sum) -> DTree:
        groups = decompose.independent_groups(expr.children)
        if len(groups) > 1:  # Rule 1: independent summands.
            return PlusNode(self._compile(ssum(group)) for group in groups)
        factored = self._try_factor_sum(expr.children, is_module=False)
        if factored is not None:
            return factored
        return self._shannon(expr)

    def _compile_prod(self, expr: Prod) -> DTree:
        groups = decompose.independent_groups(expr.children)
        if len(groups) > 1:  # Rule 2: independent factors.
            return TimesNode(self._compile(sprod(group)) for group in groups)
        return self._shannon(expr)

    def _compile_aggsum(self, expr: AggSum) -> DTree:
        groups = decompose.independent_groups(expr.children)
        if len(groups) > 1:  # Rule 1 for semimodule sums.
            return MPlusNode(
                expr.monoid,
                (self._compile(aggsum(expr.monoid, group)) for group in groups),
            )
        factored = self._try_factor_sum(expr.children, is_module=True, monoid=expr.monoid)
        if factored is not None:
            return factored
        return self._shannon(expr)

    def _compile_tensor(self, expr: Tensor) -> DTree:
        if not (expr.phi.variables & expr.arg.variables):  # Rule 3.
            return TensorNode(
                expr.monoid, self._compile(expr.phi), self._compile(expr.arg)
            )
        return self._shannon(expr)

    def _compile_compare(self, expr: Compare) -> DTree:
        if not (expr.left.variables & expr.right.variables):  # Rule 4.
            return CompareNode(
                expr.op, self._compile(expr.left), self._compile(expr.right)
            )
        return self._shannon(expr)

    def _try_factor_sum(self, terms, *, is_module: bool, monoid=None) -> DTree | None:
        """Rule 5: extract a common multiplicative factor from a sum.

        Rewrites ``x·Φ₁ + ... + x·Φₙ`` as ``x ⊙ (Σ Φᵢ)`` (resp. as
        ``x ⊗ (Σ αᵢ)`` for semimodule sums, using the semimodule law
        ``(s₁·s₂) ⊗ m = s₁ ⊗ (s₂ ⊗ m)``).  Only applies when the residual
        sum no longer mentions the extracted variable.
        """
        common = decompose.common_factor_variables(terms)
        for name in sorted(common):
            residuals = [decompose.divide_by_variable(t, name) for t in terms]
            if is_module:
                residual_sum = self._normalizer(aggsum(monoid, residuals))
            else:
                residual_sum = self._normalizer(ssum(residuals))
            if name in residual_sum.variables:
                continue  # e.g. x·x·y: dividing once does not detach x.
            var_tree = self._compile(Var(name))
            rest_tree = self._compile(residual_sum)
            if is_module:
                return TensorNode(monoid, var_tree, rest_tree)
            return TimesNode((var_tree, rest_tree))
        return None

    def _shannon(self, expr: Expr) -> DTree:
        """Rule 6: mutually exclusive expansion ``⊔ₓ`` (Eq. 10)."""
        # Rule 6 is the only potentially exponential rule, so the ⊔-node
        # loop is where a compile that will never finish spends its time:
        # the ambient-deadline checkpoint lives here (one ContextVar read
        # per ⊔-node when no deadline is active).
        check_deadline("exact compilation")
        table = table_leaf(expr, self.registry, self.semiring)
        if table is not None:  # base case: no ⊔ node, no budget spent
            return table
        if self.max_mutex_nodes is not None and (
            self.mutex_nodes_created >= self.max_mutex_nodes
        ):
            raise CompilationError(
                f"compilation budget of {self.max_mutex_nodes} ⊔-nodes exhausted"
            )
        self.mutex_nodes_created += 1
        name = self.choose_variable(expr, expr.variables)
        branches = []
        for value, prob in sorted(
            self.registry[name].items(), key=lambda kv: repr(kv[0])
        ):
            constant = SConst(int(value))
            restricted = self._normalizer.restrict(expr, name, constant)
            branches.append((value, prob, self._compile(restricted)))
        return MutexNode(name, branches)


#: Exact-type dispatch table for :meth:`Compiler._compile_uncached` — one
#: dict lookup instead of an isinstance chain on the hottest entry point.
Compiler._DISPATCH = {
    Var: Compiler._compile_var,
    Sum: Compiler._compile_sum,
    Prod: Compiler._compile_prod,
    AggSum: Compiler._compile_aggsum,
    Tensor: Compiler._compile_tensor,
    Compare: Compiler._compile_compare,
}


def compile_expression(
    expr: Expr,
    registry: VariableRegistry,
    semiring: Semiring = BOOLEAN,
    **kwargs,
) -> DTree:
    """One-shot convenience wrapper around :class:`Compiler`."""
    return Compiler(registry, semiring, **kwargs).compile(expr)


def distribution_task(context, annotations):
    """Process-pool task: compile a chunk of annotations to distributions.

    The parallel seam of the exact engines (see
    :meth:`repro.engine.sprout.SproutEngine.run`): independent result-row
    annotations — per-group aggregates, multi-tuple answers — compile
    concurrently, one chunk per task.  ``context`` is the shared
    ``(registry, semiring, compiler_options)`` triple; the chunk shares
    one :class:`Compiler`, so overlapping annotations *within* a chunk
    still share d-tree memo entries.  Compilation is deterministic, so
    any chunking (and any worker count) yields identical distributions.

    Returns ``(distributions, stats_delta)``; the caller merges the
    distributions into the session's
    :class:`~repro.cache.CompilationCache` and the stats delta into
    the run diagnostics.
    """
    registry, semiring, options = context
    compiler = Compiler(registry, semiring, **options)
    distributions = [compiler.distribution(expr) for expr in annotations]
    return distributions, {"mutex_nodes": compiler.mutex_nodes_created}
