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
:meth:`Compiler.bounds` runs the same rules, and the same Shannon step,
within a budget: the approximation of Section 1's reference [18].
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

from collections import Counter
from typing import Callable, Sequence

from repro.algebra.bounds import fold_comparison_by_bounds
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
from repro.prob.interval import ProbInterval
from repro.prob.variables import VariableRegistry
from repro.resilience.deadline import DeadlineExceeded, check_deadline

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

    Read by the compiler's one Shannon step (a table costs
    :meth:`Compiler.bounds` one unit and compilation none).  Applies when
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
        Optional safety budget on the ``⊔`` nodes *one* top-level call
        (``compile``, ``distribution``, ``joint_distribution``) creates;
        exceeding it raises :class:`CompilationError`.  A caller's
        guard against a blow-up: nothing in the library sets it (an
        approximation's budget is an argument of :meth:`bounds`), and
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
        #: ⊔ steps over the compiler's life (:meth:`bounds` counts a
        #: table as one too: its units).
        self.mutex_nodes_created = 0
        #: ``mutex_nodes_created`` when the current top-level call began,
        #: and the steps that call may take (``None``: unbounded).
        self._call_start = 0
        self._call_budget = max_mutex_nodes
        self.context = CompileContext(registry, semiring)
        self._normalizer = Normalizer(semiring)
        self._memo: dict[Expr, DTree] = {}

    # -- public API ----------------------------------------------------------

    def compile(self, expr: Expr) -> DTree:
        """Compile ``expr`` into an equivalent d-tree (Proposition 4)."""
        self._open_call(self.max_mutex_nodes)
        return self._compile_input(expr)

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

    def joint_distribution(self, exprs: Sequence[Expr]) -> Distribution:
        """The joint distribution of ``exprs`` over value tuples ordered
        like them (Section 5): shared variables are expanded with rule
        6's restriction until the expressions are independent, and the
        joint is then the product of their distributions.  Restricted
        tuples and restrictions are memoised for this call only."""
        self._open_call(self.max_mutex_nodes)
        normal = tuple(self._normalizer(expr) for expr in exprs)
        return self._joint(normal, {}, {})

    def bounds(
        self, expr: Expr, budget: int, proven: dict
    ) -> tuple[ProbInterval, int]:
        """Bounds on ``P[expr ≠ 0_S]`` within ``budget`` units, and the
        units spent: Algorithm 1 run partially, the approximation the
        paper cites as [18].

        Independent groups of a sum or product combine as a disjunction
        or a conjunction; a comparison whose sides' value intervals
        separate is decided outright (the Experiment-E effect).  A
        connected residual costs one unit: its truth table
        (:func:`table_leaf`) or one Shannon step, whose branches are
        bounded recursively.  Past the budget or the ambient deadline a
        residual is ``[0, 1]``.  More budget never widens the interval.

        ``proven`` maps normal forms to the zero-width bounds found so
        far, which are exact however many residuals stayed open (an open
        ``[0, 1]`` only ever shows as width).  The caller owns it, as
        with ``Normalizer.restrict(memo=)``: refining round by round, it
        hands every round the same dict.  Bounds with width live for
        this call only.  Semimodule expressions may appear only inside
        comparisons; a bare one raises :class:`CompilationError`.
        """
        self._open_call(budget)
        interval = self._bounds(self._normalizer(expr), {}, proven)
        return interval, self.mutex_nodes_created - self._call_start

    def _compile_input(self, expr: Expr) -> DTree:
        expr = self._normalizer(expr)
        if self.pruning:
            expr = self._normalizer(prune(expr, self.semiring))
        return self._compile(expr)

    def _joint(self, exprs: tuple, memo: dict, restrictions: dict) -> Distribution:
        # Keyed on the normal forms themselves: their hashes are cached,
        # where hashing their nested key tuples walks every node.
        joint = memo.get(exprs)
        if joint is not None:
            return joint
        seen: set = set()
        shared: set = set()
        for expr in exprs:
            shared |= expr.variables & seen
            seen |= expr.variables
        if not shared:  # independent: the product distribution
            joint = Distribution.point(())
            for expr in exprs:
                component = self._compile_input(expr).distribution(self.context)
                joint = joint.convolve(component, lambda acc, v: acc + (v,))
        else:  # expand a shared variable with the most occurrences
            check_deadline("joint compilation")
            self._spend_mutex_node()
            counts: Counter = Counter()
            for expr in exprs:
                counts.update(count_occurrences(expr))
            name = max(shared, key=lambda shared_name: (counts[shared_name], shared_name))
            restrict = self._normalizer.restrict
            branches = [
                (p, tuple(restrict(e, name, c, restrictions) for e in exprs))
                for _, p, c in self._branches(name)
            ]
            joint = Distribution.mixture(
                (p, self._joint(branch, memo, restrictions)) for p, branch in branches
            )
        memo[exprs] = joint
        return joint

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
        table, name = self._shannon_step(
            expr, "exact compilation", tables_cost=False
        )
        if table is not None:  # base case: no ⊔ node, no budget spent
            return table
        return MutexNode(
            name,
            [
                (value, probability, self._compile(
                    self._normalizer.restrict(expr, name, constant)
                ))
                for value, probability, constant in self._branches(name)
            ],
        )

    def _shannon_step(self, expr: Expr, where: str, *, tables_cost: bool) -> tuple:
        """Rule 6's prelude, the one both :meth:`_shannon` and
        :meth:`_bounds_shannon` run: ``(table, None)`` when the base case
        tabulates ``expr``, else ``(None, name)`` to eliminate ``name``.
        A ⊔ step spends one unit of the call's budget, and so does a
        table when ``tables_cost`` (the approximation's unit is one
        resolved residual).  Raises :class:`DeadlineExceeded` past the
        ambient deadline and :class:`CompilationError` past the budget."""
        # Rule 6 is the only potentially exponential rule, so the ⊔-node
        # loop is where a compile that will never finish spends its time:
        # the ambient-deadline checkpoint lives here (one ContextVar read
        # per ⊔-node when no deadline is active).
        check_deadline(where)
        if tables_cost:
            self._spend_mutex_node()
        table = table_leaf(expr, self.registry, self.semiring)
        if table is not None:
            return table, None
        if not tables_cost:
            self._spend_mutex_node()
        return None, self.choose_variable(expr, expr.variables)

    def _open_call(self, budget: int | None) -> None:
        """Start a top-level call that may take ``budget`` ⊔ steps."""
        self._call_start = self.mutex_nodes_created
        self._call_budget = budget

    def _spend_mutex_node(self) -> None:
        """Count one ``⊔`` step against the current call's budget."""
        budget = self._call_budget
        if budget is not None and (
            self.mutex_nodes_created - self._call_start >= budget
        ):
            raise CompilationError(
                f"compilation budget of {budget} ⊔-nodes exhausted"
            )
        self.mutex_nodes_created += 1

    def _branches(self, name: str) -> list:
        """``(value, probability, constant)`` per value of ``name``, in
        the one order compilation and the joint expand it."""
        return [
            (value, probability, SConst(int(value)))
            for value, probability in sorted(
                self.registry[name].items(), key=lambda kv: repr(kv[0])
            )
        ]

    # -- the approximation ----------------------------------------------------

    def _bounds(self, expr: Expr, memo: dict, proven: dict) -> ProbInterval:
        known = proven.get(expr)
        if known is None:
            known = memo.get(expr)
        if known is None:
            known = self._bounds_uncached(expr, memo, proven)
            if known.width == 0.0:
                proven[expr] = known
            else:
                memo[expr] = known
        return known

    def _bounds_uncached(self, expr: Expr, memo: dict, proven: dict):
        zero = self.semiring.zero
        if isinstance(expr, SConst):
            present = self.semiring.coerce(expr.value) != zero
            return ProbInterval.point(float(present))
        if isinstance(expr, Var):
            marginal = self.context.var_distribution(expr.name)
            return ProbInterval.point(
                sum(p for value, p in marginal.items() if value != zero)
            )
        if isinstance(expr, (Sum, Prod)):
            groups = decompose.independent_groups(expr.children)
            if len(groups) == 1:  # connected: no independence rule applies
                return self._bounds_shannon(expr, memo, proven)
            if isinstance(expr, Sum):
                rebuild, combine = ssum, ProbInterval.disjunction
            else:
                rebuild, combine = sprod, ProbInterval.conjunction
            result = None
            for group in groups:
                if len(group) == 1:
                    bounds = self._bounds(group[0], memo, proven)
                else:
                    bounds = self._bounds_shannon(rebuild(group), memo, proven)
                result = bounds if result is None else combine(result, bounds)
            return result
        if isinstance(expr, Compare):
            decided = fold_comparison_by_bounds(
                expr.left, expr.op.symbol, expr.right, self.semiring.is_boolean
            )
            if decided is not None:
                return ProbInterval.point(float(decided))
            if expr.variables:
                return self._bounds_shannon(expr, memo, proven)
            return ProbInterval.unknown()
        raise CompilationError(
            f"approximation supports semiring expressions (with semimodule "
            f"comparisons) only, got {type(expr).__name__}"
        )

    def _bounds_shannon(self, expr: Expr, memo: dict, proven: dict):
        try:
            table, name = self._shannon_step(
                expr, "approximation", tables_cost=True
            )
        except (CompilationError, DeadlineExceeded):
            # The budget is spent or the deadline passed: stop expanding
            # and keep the sound vacuous bounds.
            return ProbInterval.unknown()
        if table is not None:
            absent = table.distribution(self.context)[self.semiring.zero]
            return ProbInterval.point(1.0 - absent)
        # The registry's order, not ``_branches``'s: with a finite budget
        # the first branch gets the units first, and in ``repr`` order
        # the bench tails come out wider at equal budget (EXPERIMENTS.md).
        low = high = 0.0
        for value, probability in self.registry[name].items():
            branch = self._normalizer.restrict(expr, name, SConst(int(value)))
            child = self._bounds(branch, memo, proven)
            low += probability * child.low
            high += probability * child.high
        return ProbInterval(low, high)


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

    Returns ``(distributions, mutex_nodes)``, ``None`` for each
    annotation the ambient deadline left uncompiled; the caller merges the
    distributions into the session's
    :class:`~repro.cache.CompilationCache` and sums the ⊔-node counts
    into the run diagnostics.
    """
    registry, semiring, options = context
    compiler = Compiler(registry, semiring, **options)
    distributions: list = []
    try:
        for expr in annotations:
            distributions.append(compiler.distribution(expr))
    except DeadlineExceeded:
        distributions += [None] * (len(annotations) - len(distributions))
    return distributions, compiler.mutex_nodes_created
