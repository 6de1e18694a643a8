"""The convolution equations (4)-(10) of Section 5, as named operations.

:meth:`Distribution.convolve` implements the generic Proposition 1; this
module provides thin, documented wrappers binding it to the six structural
cases used at d-tree nodes:

====================  ==============================================
Equation              Operation
====================  ==============================================
Eq. (4)               semiring sum of independent annotations
Eq. (5)               semiring product of independent annotations
Eq. (6)               monoid sum of independent semimodule values
Eq. (7)               scalar action ``Φ ⊗ α``
Eq. (8) / Eq. (9)     conditional expressions ``[· θ ·]``
Eq. (10)              mutex partitioning (Shannon expansion)
====================  ==============================================

Because each wrapper knows its semiring or monoid statically, it resolves
the matching vectorized kernel (:mod:`repro.prob.kernels`) once per call
instead of re-recognizing the op callable, and falls back to the generic
dict loop for symbolic semirings or non-numeric supports.

The ``*_many`` variants are the n-ary entry points used by d-tree nodes.
Theorem 2 prices a node at the sizes of its children's distributions, so
each of them is one pass over its children where it can be:

* over the Boolean semiring, ``semiring_add_many``/``semiring_mul_many``
  are Eqs. (4)/(5) in closed form — the neutral value (⊥ for ``∨``, ⊤
  for ``∧``) has the product of its masses, the absorbing value the rest
  of the product of the totals — with the kernels on or off;
* a plain SUM/COUNT ``monoid_add_many`` (and ℕ's ``semiring_add_many``)
  over integer supports is one dense fold (:func:`kernels.sum_many`)
  when the kernels are on and the supports are not sparse;
* everything else reduces pairwise, smallest operands first (the
  convolution-tree optimization), which for capped sums and sparse
  supports avoids re-convolving the full running support at every step
  of a left-to-right fold.  The dense fold keeps that order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.algebra.conditions import ComparisonOp
from repro.algebra.monoid import Monoid
from repro.algebra.semiring import Semiring
from repro.prob import kernels
from repro.prob.distribution import TOLERANCE, Distribution

__all__ = [
    "semiring_add",
    "semiring_mul",
    "monoid_add",
    "semiring_add_many",
    "semiring_mul_many",
    "monoid_add_many",
    "scalar_action",
    "comparison",
    "mutex_mixture",
]


def semiring_add(
    dist_phi: Distribution, dist_psi: Distribution, semiring: Semiring
) -> Distribution:
    """Eq. (4): distribution of ``Φ + Ψ`` for independent ``Φ``, ``Ψ``."""
    return dist_phi.convolve_with_spec(
        dist_psi, semiring.add, kernels.semiring_add_op(semiring)
    )


def semiring_mul(
    dist_phi: Distribution, dist_psi: Distribution, semiring: Semiring
) -> Distribution:
    """Eq. (5): distribution of ``Φ · Ψ`` for independent ``Φ``, ``Ψ``."""
    return dist_phi.convolve_with_spec(
        dist_psi, semiring.mul, kernels.semiring_mul_op(semiring)
    )


def monoid_add(
    dist_alpha: Distribution, dist_beta: Distribution, monoid: Monoid
) -> Distribution:
    """Eq. (6): distribution of ``α +_M β`` for independent ``α``, ``β``."""
    return dist_alpha.convolve_with_spec(
        dist_beta, monoid.add, kernels.monoid_op(monoid)
    )


def _boolean_fold(dists: Sequence[Distribution], neutral: bool) -> Distribution:
    """Eq. (4) (``neutral`` ⊥) or Eq. (5) (``neutral`` ⊤) over B.

    Only the support tuple of all-``neutral`` values yields ``neutral``,
    so its mass is the product of those masses; every other tuple yields
    the absorbing value, whose mass is the product of the totals minus
    that product — exact for sub-normalized operands too.  Masses are
    dropped at ``TOLERANCE`` once, on the result, not at every step.
    """
    neutral_mass = total = 1.0
    for dist in dists:
        probs = dist._probs
        neutral_mass *= probs.get(neutral, 0.0)
        total *= sum(probs.values())
    return Distribution(
        {not neutral: total - neutral_mass, neutral: neutral_mass}
    )


def _fold(dists, op, spec) -> Distribution:
    """Reduce pairwise, smallest supports first — or, for plain ``+``
    over integers, as one dense fold."""
    fast = kernels.sum_many(dists, spec, TOLERANCE)
    if fast is not None:
        return Distribution._from_clean(fast)
    return kernels.convolve_many(
        dists, lambda a, b: a.convolve_with_spec(b, op, spec)
    )


def semiring_add_many(
    dists: Sequence[Distribution], semiring: Semiring
) -> Distribution:
    """n-ary Eq. (4): closed form over B, else one fold (see above)."""
    if semiring.is_boolean:
        return _boolean_fold(dists, semiring.zero)
    return _fold(dists, semiring.add, kernels.semiring_add_op(semiring))


def semiring_mul_many(
    dists: Sequence[Distribution], semiring: Semiring
) -> Distribution:
    """n-ary Eq. (5): closed form over B, else reduced pairwise."""
    if semiring.is_boolean:
        return _boolean_fold(dists, semiring.one)
    return _fold(dists, semiring.mul, kernels.semiring_mul_op(semiring))


def monoid_add_many(
    dists: Sequence[Distribution], monoid: Monoid
) -> Distribution:
    """n-ary Eq. (6) in the convolution-tree order.

    Convolving the two smallest operand distributions first keeps every
    intermediate support as small as possible; a plain SUM/COUNT over
    integer supports runs that order as one dense fold.
    """
    return _fold(dists, monoid.add, kernels.monoid_op(monoid))


def scalar_action(
    dist_phi: Distribution,
    dist_alpha: Distribution,
    monoid: Monoid,
    semiring: Semiring,
) -> Distribution:
    """Eq. (7): distribution of ``Φ ⊗ α`` for independent ``Φ``, ``α``.

    For the Boolean semiring the scalar side has at most two values, so
    the result is the closed-form mixture
    ``P[Φ=⊤] · clamp(α) + P[Φ=⊥] · δ(0_M)`` — no support-pair loop at all.
    """
    if semiring.is_boolean:
        p_true = sum(p for s, p in dist_phi.items() if bool(s))
        p_false = sum(p for s, p in dist_phi.items() if not bool(s))
        accum: dict = {}
        if p_true > TOLERANCE:
            for value, p in dist_alpha.items():
                image = monoid.clamp(value)
                accum[image] = accum.get(image, 0.0) + p_true * p
        if p_false > TOLERANCE:
            # Each (⊥, m) support pair contributes p_false·p_m to 0_M, so
            # sub-normalized α scales the false branch too (as in the
            # generic convolution).
            zero = monoid.zero
            accum[zero] = accum.get(zero, 0.0) + p_false * dist_alpha.total()
        return Distribution(accum)
    return dist_phi.convolve(
        dist_alpha, lambda s, m: monoid.act(s, m, semiring)
    )


def comparison(
    dist_left: Distribution,
    dist_right: Distribution,
    op: ComparisonOp,
    semiring: Semiring,
) -> Distribution:
    """Eqs. (8)/(9): distribution of ``[left θ right]``.

    The result is a distribution over ``{0_S, 1_S}`` regardless of whether
    the operands are semiring or semimodule valued.
    """
    mass = kernels.comparison_mass(
        dist_left._probs, dist_right._probs, op.symbol
    )
    if mass is not None:
        accum = {}
        if mass > TOLERANCE:
            accum[semiring.one] = mass
        remainder = dist_left.total() * dist_right.total() - mass
        if remainder > TOLERANCE:
            accum[semiring.zero] = remainder
        if accum:
            return Distribution._from_clean(accum)
    return dist_left.convolve(
        dist_right, lambda a, b: semiring.from_condition(op(a, b))
    )


def mutex_mixture(
    branches: Iterable[tuple[float, Distribution]]
) -> Distribution:
    """Eq. (10): ``P_Φ[s] = Σ_{s'} P_x[s'] · P_{Φ|x←s'}[s]``.

    ``branches`` pairs the probability ``P_x[s']`` of each eliminated
    value with the distribution of the corresponding restriction.
    """
    return Distribution.mixture(branches)
