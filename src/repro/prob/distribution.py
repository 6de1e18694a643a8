"""Finite discrete probability distributions (Section 2.1).

A distribution is represented by its set of ``(value, probability)`` pairs
with non-zero probabilities — exactly the paper's "size of a probability
distribution is the size of its set representation".  Values may be any
hashable objects: semiring elements, monoid values (including ``±∞`` for
MIN/MAX), or tuples of values for joint distributions.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping

from repro.errors import DistributionError
from repro.prob import kernels

__all__ = ["Distribution", "TOLERANCE"]

#: Numerical tolerance used when validating and comparing probabilities.
TOLERANCE = 1e-9


class Distribution:
    """An immutable finite discrete probability distribution.

    >>> d = Distribution({True: 0.3, False: 0.7})
    >>> d[True]
    0.3
    >>> d.support() == {True, False}
    True
    """

    __slots__ = ("_probs",)

    def __init__(self, probs: Mapping[Hashable, float] | Iterable[tuple]):
        # Dicts are the common case; the ABC (not ``typing.Mapping``, whose
        # ``__instancecheck__`` is Python-level) covers the rest.
        if type(probs) is dict or isinstance(probs, Mapping):
            items = probs.items()
        else:
            items = list(probs)
        cleaned: dict = {}
        for value, p in items:
            if p < -TOLERANCE:
                raise DistributionError(
                    f"negative probability {p} for value {value!r}"
                )
            if p <= TOLERANCE:
                continue
            cleaned[value] = cleaned.get(value, 0.0) + p
        total = sum(cleaned.values())
        if total > 1.0 + 1e-6:
            raise DistributionError(f"total probability {total} exceeds 1")
        if not cleaned:
            raise DistributionError("distribution has empty support")
        self._probs = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_clean(cls, probs: dict) -> "Distribution":
        """Wrap an already-validated ``{value: probability}`` dict.

        Internal fast path for the vectorized kernels, which produce
        accumulated dicts with sub-tolerance entries already dropped;
        skips the per-item re-validation of ``__init__``.
        """
        if not probs:
            raise DistributionError("distribution has empty support")
        dist = cls.__new__(cls)
        dist._probs = probs
        return dist

    @classmethod
    def point(cls, value) -> "Distribution":
        """The deterministic distribution concentrated on ``value``."""
        return cls({value: 1.0})

    @classmethod
    def bernoulli(cls, p: float, *, one=True, zero=False) -> "Distribution":
        """A two-valued distribution: ``one`` w.p. ``p``, ``zero`` otherwise.

        With the default values this is the distribution of a Boolean
        random variable; ``bernoulli(p, one=1, zero=0)`` gives its
        naturals-semiring reduction (Table 1).
        """
        if not -TOLERANCE <= p <= 1 + TOLERANCE:
            raise DistributionError(f"Bernoulli parameter {p} outside [0, 1]")
        if p >= 1 - TOLERANCE or one == zero:
            return cls.point(one)
        if p <= TOLERANCE:
            return cls.point(zero)
        # The range checks above are ``__init__``'s validation; ``0.0 + p``
        # is the mass its accumulation would store.
        return cls._from_clean({one: 0.0 + p, zero: 1.0 - p})

    @classmethod
    def uniform(cls, values: Iterable[Hashable]) -> "Distribution":
        """The uniform distribution over distinct ``values``."""
        values = list(dict.fromkeys(values))
        if not values:
            raise DistributionError("uniform distribution over no values")
        p = 1.0 / len(values)
        return cls({v: p for v in values})

    @classmethod
    def mixture(cls, weighted: Iterable[tuple[float, "Distribution"]]) -> "Distribution":
        """The convex mixture ``Σ wᵢ · Dᵢ`` (Equation 10's outer sum)."""
        pairs = [
            (weight, dist._probs) for weight, dist in weighted if weight > TOLERANCE
        ]
        fast = kernels.mixture_dicts(pairs, tolerance=TOLERANCE)
        if fast is not None:
            total = sum(fast.values())
            if total > 1.0 + 1e-6:  # same guard as __init__
                raise DistributionError(f"total probability {total} exceeds 1")
            return cls._from_clean(fast)
        accum: dict = {}
        for weight, probs in pairs:
            for value, p in probs.items():
                accum[value] = accum.get(value, 0.0) + weight * p
        return cls(accum)

    # -- mapping interface --------------------------------------------------

    def __getitem__(self, value) -> float:
        return self._probs.get(value, 0.0)

    def get(self, value, default: float = 0.0) -> float:
        return self._probs.get(value, default)

    def items(self):
        return self._probs.items()

    def values(self):
        return self._probs.values()

    def support(self) -> set:
        """The set of values with non-zero probability."""
        return set(self._probs)

    def __iter__(self) -> Iterator:
        return iter(self._probs)

    def __len__(self) -> int:
        """Size of the distribution — the paper's ``|P|``."""
        return len(self._probs)

    def __contains__(self, value) -> bool:
        return value in self._probs

    # -- operations ---------------------------------------------------------

    def map(self, fn: Callable) -> "Distribution":
        """Push-forward along ``fn``: the distribution of ``fn(X)``.

        ``fn`` is called exactly once per support value; for large
        numeric image sets the collision accumulation is vectorized.
        """
        images = [fn(value) for value in self._probs]
        fast = kernels.bin_images(
            images, list(self._probs.values()), tolerance=TOLERANCE
        )
        if fast is not None:
            return Distribution._from_clean(fast)
        accum: dict = {}
        for image, p in zip(images, self._probs.values()):
            accum[image] = accum.get(image, 0.0) + p
        return Distribution(accum)

    def convolve(self, other: "Distribution", op: Callable) -> "Distribution":
        """Convolution with respect to ``op`` (Proposition 1, Eq. 1).

        For independent random variables ``x ~ self`` and ``y ~ other``,
        returns the distribution of ``op(x, y)``.  The sum ranges only
        over support pairs (Remark 1), so the cost is
        ``O(|self| · |other|)`` — evaluated by the vectorized kernels of
        :mod:`repro.prob.kernels` when the supports are numeric and
        ``op`` is a recognized arithmetic, and by the generic dict loop
        otherwise.
        """
        return self.convolve_with_spec(other, op, kernels.resolve_op(op))

    def convolve_with_spec(
        self, other: "Distribution", op: Callable, spec
    ) -> "Distribution":
        """Convolve with a pre-resolved kernel :class:`~repro.prob.kernels.OpSpec`.

        Used by the Eq. (4)-(10) wrappers, which know the semiring/monoid
        statically and skip per-call op recognition; ``spec=None`` selects
        the generic dict loop outright.
        """
        if spec is not None:
            fast = kernels.convolve_dicts(
                self._probs, other._probs, op, spec=spec, tolerance=TOLERANCE
            )
            if fast is not None:
                return Distribution._from_clean(fast)
        accum: dict = {}
        for a, pa in self._probs.items():
            for b, pb in other._probs.items():
                c = op(a, b)
                accum[c] = accum.get(c, 0.0) + pa * pb
        return Distribution(accum)

    def expectation(self) -> float:
        """Expected value, for numeric supports."""
        fast = kernels.expectation(self._probs)
        if fast is not None:
            return fast
        return sum(value * p for value, p in self._probs.items())

    def variance(self) -> float:
        """Variance, for numeric supports."""
        mean = self.expectation()
        return sum((value - mean) ** 2 * p for value, p in self._probs.items())

    def cdf(self, threshold) -> float:
        """``P[X ≤ threshold]``, for ordered supports."""
        return sum(p for value, p in self._probs.items() if value <= threshold)

    def quantile(self, q: float):
        """The smallest value ``v`` with ``P[X ≤ v] ≥ q`` (0 < q ≤ 1)."""
        if not 0.0 < q <= 1.0 + TOLERANCE:
            raise DistributionError(f"quantile level {q} outside (0, 1]")
        accumulated = 0.0
        for value in sorted(self._probs):
            accumulated += self._probs[value]
            if accumulated >= q - TOLERANCE:
                return value
        return max(self._probs)

    def condition(self, predicate: Callable) -> "Distribution":
        """The conditional distribution given ``predicate(X)``."""
        mass = self.probability_of(predicate)
        if mass <= TOLERANCE:
            raise DistributionError("conditioning on a null event")
        return Distribution(
            {
                value: p / mass
                for value, p in self._probs.items()
                if predicate(value)
            }
        )

    def total(self) -> float:
        """Total probability mass (1 up to numeric error)."""
        return sum(self._probs.values())

    def probability_of(self, predicate: Callable) -> float:
        """Total mass of values satisfying ``predicate``."""
        return sum(p for value, p in self._probs.items() if predicate(value))

    def almost_equals(self, other: "Distribution", tol: float = 1e-7) -> bool:
        """Pointwise comparison up to ``tol``."""
        keys = set(self._probs) | set(other._probs)
        return all(math.isclose(self[k], other[k], abs_tol=tol) for k in keys)

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.almost_equals(other, TOLERANCE)

    def __hash__(self):
        raise TypeError("distributions are not hashable; compare with almost_equals")

    def __repr__(self):
        def _sort_key(item):
            value = item[0]
            return (str(type(value)), str(value))

        pairs = ", ".join(
            f"({value!r}, {p:.6g})" for value, p in sorted(self.items(), key=_sort_key)
        )
        return f"Distribution({{{pairs}}})"
