"""Probability intervals: how every answer reports a probability.

Exact answers are zero-width :class:`ProbInterval` values; the bounds of
the approximation (:meth:`repro.core.compile.Compiler.bounds`) and the
Monte-Carlo confidence intervals have width.  The class sits below both
the compiler and the engines, so the two build the same one.
"""

from __future__ import annotations

from repro.errors import QueryValidationError

__all__ = ["ProbInterval"]

_POINT_TOL = 1e-12


class ProbInterval(float):
    """An interval ``[low, high]`` bracketing a probability.

    The float value of the instance is the midpoint, so interval-valued
    results drop into existing float call sites; ``width == 0``
    identifies exact results.  Instances are immutable.
    """

    __slots__ = ("low", "high")

    def __new__(cls, low: float, high: float) -> "ProbInterval":
        if not (low == low and high == high):  # NaN guard
            raise QueryValidationError(
                f"invalid probability interval [{low}, {high}]"
            )
        if low > high + 1e-9 or low < -1e-9 or high > 1.0 + 1e-9:
            raise QueryValidationError(
                f"invalid probability interval [{low}, {high}]"
            )
        # Clamp into 0 <= low <= high <= 1; conditionals, not min/max:
        # the approximation builds an interval per sub-expression.
        low = 0.0 if low < 0.0 else 1.0 if low > 1.0 else low
        high = low if high < low else 1.0 if high > 1.0 else high
        self = float.__new__(cls, (low + high) / 2.0)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"ProbInterval is immutable; cannot set {name!r}")

    def __reduce__(self):
        # float's default reduce reconstructs from the single float value
        # and then re-sets the slots, which immutability forbids; rebuild
        # from the real constructor arguments instead (pickle + deepcopy).
        return (ProbInterval, (self.low, self.high))

    @classmethod
    def point(cls, p: float) -> "ProbInterval":
        """The zero-width interval of an exactly known probability."""
        return cls(p, p)

    @classmethod
    def unknown(cls) -> "ProbInterval":
        """The vacuous interval ``[0, 1]``."""
        return cls(0.0, 1.0)

    @property
    def width(self) -> float:
        return self.high - self.low

    @property
    def midpoint(self) -> float:
        return (self.low + self.high) / 2.0

    @property
    def is_point(self) -> bool:
        """True when the interval has (numerically) collapsed."""
        return self.high - self.low <= _POINT_TOL

    @property
    def value(self) -> float:
        """The exact probability of a collapsed interval.

        Raises :class:`~repro.errors.QueryValidationError` when the
        interval still has width — callers that can consume intervals
        should read ``low``/``high`` (or the midpoint, ``float(self)``)
        instead.
        """
        if not self.is_point:
            raise QueryValidationError(
                f"interval {self!r} has width {self.width:.3g}; "
                f"no exact point value is known"
            )
        return float(self)

    def contains(self, p: float, tol: float = 1e-9) -> bool:
        return self.low - tol <= p <= self.high + tol

    def definitely_above(self, other: "ProbInterval") -> bool:
        """True when every probability in ``self`` ≥ every one in ``other``."""
        return self.low >= other.high

    def intersect(self, other: "ProbInterval") -> "ProbInterval":
        """The intersection of two sound intervals (still sound)."""
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if low > high:  # numerically inconsistent: keep the tighter one
            return self if self.width <= other.width else other
        return ProbInterval(low, high)

    def disjunction(self, other: "ProbInterval") -> "ProbInterval":
        """Bounds of ``P(Φ ∨ Ψ)`` for independent operands (monotone)."""
        return ProbInterval(
            1.0 - (1.0 - self.low) * (1.0 - other.low),
            1.0 - (1.0 - self.high) * (1.0 - other.high),
        )

    def conjunction(self, other: "ProbInterval") -> "ProbInterval":
        """Bounds of ``P(Φ ∧ Ψ)`` for independent operands (monotone)."""
        return ProbInterval(self.low * other.low, self.high * other.high)

    def to_json(self) -> dict:
        """The documented wire encoding: ``{"low": ..., "high": ...}``.

        A bare ``json.dumps`` of a :class:`ProbInterval` would serialise
        the float midpoint and silently lose the bracket; the codec keeps
        both endpoints (the midpoint is recomputable).
        """
        return {"low": self.low, "high": self.high}

    @classmethod
    def from_json(cls, payload) -> "ProbInterval":
        """Inverse of :meth:`to_json` (accepts any low/high mapping)."""
        try:
            low, high = float(payload["low"]), float(payload["high"])
        except (TypeError, KeyError, ValueError) as exc:
            raise QueryValidationError(
                f"cannot decode {payload!r} as a probability interval; "
                f"expected a mapping with 'low' and 'high'"
            ) from exc
        return cls(low, high)

    def __repr__(self):
        if self.is_point:
            return f"ProbInterval({float(self):.6g})"
        return f"ProbInterval({self.low:.6g}, {self.high:.6g})"
