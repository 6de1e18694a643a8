"""Joint probability distributions of several expressions (Section 5).

A tuple in the result of an aggregate query may carry several semimodule
expressions *and* a conditional annotation; their joint distribution is
needed, e.g., to report the distribution of an aggregate value conditioned
on the tuple being present.  Following the paper, the joint distribution is
obtained by applying **mutex decomposition until the expressions become
independent**: the joint distribution of independent random variables is
the product of their distributions.

The result is a :class:`~repro.prob.distribution.Distribution` over value
*tuples*, ordered like the input expressions.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.expressions import Expr, SConst, count_occurrences
from repro.algebra.simplify import Normalizer
from repro.core.compile import Compiler
from repro.errors import CompilationError
from repro.prob.distribution import Distribution

__all__ = ["JointCompiler", "joint_distribution"]


class JointCompiler:
    """Computes joint distributions by mutex decomposition.

    Reuses a :class:`~repro.core.compile.Compiler` for the independent
    components, so all single-expression machinery (pruning, factorisation,
    memoisation) applies to each component.
    """

    def __init__(self, compiler: Compiler, max_mutex_nodes: int | None = None):
        self.compiler = compiler
        self._normalizer = Normalizer(compiler.semiring)
        self.max_mutex_nodes = max_mutex_nodes
        self.mutex_nodes_created = 0
        self._memo: dict[tuple[Expr, ...], Distribution] = {}

    def joint_distribution(self, exprs: Sequence[Expr]) -> Distribution:
        """The joint distribution of ``exprs`` as a distribution of tuples."""
        normalized = tuple(self._normalizer(e) for e in exprs)
        return self._joint(normalized)

    def _joint(self, exprs: tuple) -> Distribution:
        # Keyed on the normalised expressions themselves: their hashes are
        # cached, where hashing their nested key tuples walks every node.
        cached = self._memo.get(exprs)
        if cached is None:
            cached = self._joint_uncached(exprs)
            self._memo[exprs] = cached
        return cached

    def _joint_uncached(self, exprs: tuple) -> Distribution:
        shared = self._shared_variables(exprs)
        if not shared:
            # Independent components: the joint is the product distribution.
            result = Distribution.point(())
            for expr in exprs:
                dist = self.compiler.distribution(expr)
                result = result.convolve(dist, lambda acc, v: acc + (v,))
            return result
        # Mutex decomposition on a most-shared, most-occurring variable.
        name = self._choose_variable(exprs, shared)
        branches = []
        for value, prob in sorted(
            self.compiler.registry[name].items(), key=lambda kv: repr(kv[0])
        ):
            constant = SConst(int(value))
            restricted = tuple(
                self._normalizer(e.substitute({name: constant})) for e in exprs
            )
            branches.append((prob, self._joint(restricted)))
        self._count_mutex()
        return Distribution.mixture(branches)

    def _shared_variables(self, exprs: tuple) -> set:
        """Variables occurring in at least two of the expressions."""
        seen: set = set()
        shared: set = set()
        for expr in exprs:
            shared |= expr.variables & seen
            seen |= expr.variables
        return shared

    def _choose_variable(self, exprs: tuple, shared: set) -> str:
        totals: dict[str, int] = {}
        for expr in exprs:
            for name, count in count_occurrences(expr).items():
                if name in shared:
                    totals[name] = totals.get(name, 0) + count
        return max(shared, key=lambda name: (totals.get(name, 0), name))

    def _count_mutex(self):
        self.mutex_nodes_created += 1
        if self.max_mutex_nodes is not None and (
            self.mutex_nodes_created > self.max_mutex_nodes
        ):
            raise CompilationError(
                f"joint compilation budget of {self.max_mutex_nodes} "
                f"⊔-nodes exhausted"
            )


def joint_distribution(exprs: Sequence[Expr], compiler: Compiler) -> Distribution:
    """One-shot convenience wrapper around :class:`JointCompiler`."""
    return JointCompiler(compiler).joint_distribution(list(exprs))
