"""Anytime approximation: iterative deepening over :meth:`Compiler.bounds`.

The paper notes (Section 1) that "besides exact computation,
decomposition trees also allow for approximate probability computation
[18]": compile an expression partially and bound the rest.  The bounds
for one budget are :meth:`repro.core.compile.Compiler.bounds`; this
module's :func:`deepen` is the one loop refining them, behind
:func:`approximate_probability` and the approx engine.  Each round
doubles the allowance of every expression still wider than ε,
intersects the new interval with the previous one (intervals nest) and
hands on the sub-bounds proven exact so far; past :data:`MAX_BUDGET` the
stragglers are compiled exactly, unless the caller capped the run.
"""

from __future__ import annotations

from repro.algebra.expressions import Expr
from repro.algebra.semiring import BOOLEAN, Semiring
from repro.core.compile import Compiler
from repro.prob.interval import ProbInterval
from repro.prob.variables import VariableRegistry
from repro.resilience.deadline import current_deadline
from repro.resilience.faults import fault_point

__all__ = ["INITIAL_BUDGET", "MAX_BUDGET", "deepen", "approximate_probability"]

#: First-round allowance of units per expression.
INITIAL_BUDGET = 8
#: Past this allowance exact compilation is typically cheaper than
#: further refinement.
MAX_BUDGET = 1 << 20


def deepen(
    source, exprs, epsilon: float, budget: int | None = None,
    finish_exactly: bool = True,
):
    """Refine bounds on ``P[expr ≠ 0_S]`` for each of ``exprs`` until
    every width is ≤ ``epsilon``.

    ``source`` is a :class:`Compiler` or a
    :class:`~repro.cache.CompilationCache` (its ``bounds`` and
    ``distribution``).  ``budget`` caps the units of the whole loop; past
    :data:`MAX_BUDGET` the stragglers are compiled exactly when
    ``finish_exactly``, else refinement stops.  An expired ambient deadline stops
    it too.

    Yields ``(intervals, rounds, spent, stop)`` after each round: one
    :class:`ProbInterval` per expression (``[0, 1]`` before its first
    round; the list is updated in place), the rounds begun and the
    units spent so far, and ``None`` — or, on the last yield, why
    refinement stopped: ``"converged"``, ``"budget"``, ``"deadline"`` or
    ``"capped"``.
    """
    zero = source.semiring.zero
    intervals = [ProbInterval.unknown()] * len(exprs)
    proven = [{} for _ in exprs]
    pending = list(range(len(exprs)))
    allowance = INITIAL_BUDGET
    rounds = spent = 0
    while pending:
        rounds += 1
        fault_point("engine.approx.round")
        for index in pending:
            if budget is not None and spent >= budget:
                yield intervals, rounds, spent, "budget"
                return
            deadline = current_deadline()
            if deadline is not None and deadline.expired():
                yield intervals, rounds, spent, "deadline"
                return
            allowed = allowance if budget is None else min(allowance, budget - spent)
            interval, used = source.bounds(exprs[index], allowed, proven[index])
            spent += used
            intervals[index] = intervals[index].intersect(interval)
        pending = [i for i in pending if intervals[i].width > epsilon]
        if not pending:
            break
        yield intervals, rounds, spent, None
        allowance *= 2
        if allowance > MAX_BUDGET:
            if not finish_exactly:
                yield intervals, rounds, spent, "capped"
                return
            for index in pending:
                distribution = source.distribution(exprs[index])
                intervals[index] = ProbInterval.point(1.0 - distribution[zero])
            break
    yield intervals, rounds, spent, "converged"


def approximate_probability(
    expr: Expr,
    registry: VariableRegistry,
    epsilon: float = 0.01,
    semiring: Semiring = BOOLEAN,
) -> ProbInterval:
    """Bounds on ``P[expr ≠ 0_S]`` of width ≤ ``epsilon`` (:func:`deepen`
    on a fresh :class:`Compiler`)."""
    for intervals, _, _, _ in deepen(Compiler(registry, semiring), [expr], epsilon):
        pass
    return intervals[0]
