"""The unified answer surface: evaluation specs and interval-valued results.

Two small types shared by every engine:

* :class:`EvalSpec` — *how* a query should be answered: exactly, by
  budgeted d-tree approximation with deterministic bounds (``approx``),
  or by sequential-stopping Monte-Carlo with an (ε, δ) guarantee
  (``sample``).  One spec object travels ``Session.run/sql`` → the
  :class:`~repro.engine.base.Engine` protocol, so every engine
  interprets ``epsilon``/``delta``/``budget``/``time_limit`` the
  same way.
* :class:`ProbInterval` — *what* comes back: every probability in a
  :class:`~repro.engine.sprout.QueryResult` is an interval ``[low, high]``
  guaranteed to contain the true probability.  Exact answers are
  zero-width intervals.  The class subclasses :class:`float` (its value
  is the midpoint), so existing call sites — arithmetic, comparisons,
  formatting, JSON — keep working unchanged while new code can inspect
  ``.low``/``.high``/``.width`` and ``.point``.  It lives in
  :mod:`repro.prob.interval`, below the compiler, which builds it too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import NamedTuple

from repro.errors import QueryValidationError
from repro.parallel import validate_workers
from repro.prob.interval import ProbInterval

__all__ = [
    "EvalSpec",
    "ProbInterval",
    "EVAL_MODES",
    "ENGINE_TABLE",
    "EngineRow",
    "accept",
    "check_mode",
    "degraded_mode",
    "implied_mode",
    "is_positive_int",
    "native_engine",
]

#: The recognised evaluation modes, in guarantee order.
EVAL_MODES = ("exact", "approx", "sample")


def is_positive_int(value) -> bool:
    """Whether ``value`` is a sample or work budget: an ``int``, not a
    ``bool``, and > 0 — the one rule for ``budget`` and ``samples``."""
    return (
        isinstance(value, int) and not isinstance(value, bool) and value > 0
    )


class EngineRow(NamedTuple):
    """What one engine answers — a row of :data:`ENGINE_TABLE`."""

    #: The spec modes the engine answers.
    modes: tuple
    #: The mode quality fields (``epsilon``, ``delta``, ``budget``,
    #: ``time_limit``) imply when a request names this engine and no
    #: mode; ``run_iter`` refines in it and ``engine="auto"`` sends it
    #: here (first row wins).
    implied: str
    #: The run options it takes beside the spec.
    options: tuple
    #: Its ``QueryResult.timings`` keys: the steps of its run.
    steps: tuple


_TWO_STEPS = ("rewrite_seconds", "probability_seconds")

#: The engine × mode table, in preference order — the one place that
#: says which engine answers what.  Every acceptance check, the
#: ``engine="auto"`` dispatch, the session's implied modes and the
#: server's load shedding read it (README "Engines" prints it).
ENGINE_TABLE = {
    "sprout": EngineRow(
        ("exact",), "exact", ("compute_probabilities",), _TWO_STEPS
    ),
    "approx": EngineRow(("exact", "approx"), "approx", (), _TWO_STEPS),
    "naive": EngineRow(("exact",), "exact", (), ("enumeration_seconds",)),
    "montecarlo": EngineRow(
        ("sample",), "sample", ("samples",), ("sampling_seconds",)
    ),
}


@dataclass(frozen=True)
class EvalSpec:
    """How a query should be evaluated, uniformly across engines.

    ``mode``:
        * ``"exact"`` — point answers (zero-width intervals); the default.
        * ``"approx"`` — budgeted d-tree compilation with deterministic
          bounds: every reported interval *certainly* contains the true
          probability, refined until all widths ≤ ``epsilon``.
        * ``"sample"`` — sequential-stopping Monte-Carlo: intervals are
          (ε, δ) confidence intervals, each covering its true probability
          with probability ≥ 1 − ``delta``.
    ``epsilon``:
        Target interval width (both modes stop once all widths ≤ ε).
    ``delta``:
        Per-interval failure probability of the ``sample`` mode.
    ``budget``:
        Hard work cap: Shannon expansions for ``approx``, drawn worlds
        for ``sample``.  ``None`` means engine defaults (approx falls
        back to exact compilation rather than give up; sample caps at
        the Hoeffding sample size for (ε, δ)).
    ``time_limit``:
        Wall-clock cap in seconds; refinement stops at the last completed
        round, reporting the (still sound) wider intervals.
    ``workers``:
        Multi-core execution of the one seam it pays on (the measured
        curve is in EXPERIMENTS.md): sprout's step II, which fans the
        compilation of independent result rows out across a process
        pool.  ``None`` (default) is serial, an integer ``>= 1`` runs
        the fan-out on that many processes, ``"auto"`` uses the
        machine's CPU count.  The approx, naive and Monte-Carlo engines
        ignore it: they return the ``workers=None`` answer, bit for bit.
        Sprout's answers are bit-identical for any worker count too (see
        :mod:`repro.parallel`), so ``workers`` changes *how fast* an
        answer arrives, never *what* it is; a ``max_mutex_nodes`` budget
        keeps the fan-out serial.
    ``on_timeout``:
        What happens when the ``time_limit`` deadline trips:
        ``"partial"`` (default) degrades to the best *sound* answer
        obtained so far — exact rows stay zero-width, not-yet-compiled
        rows report the vacuous ``[0, 1]`` interval — while ``"raise"``
        raises :class:`~repro.errors.QueryTimeoutError` carrying that
        same partial result (the naive engine has none and always
        raises).

    Which engine answers which mode, and what each returns on a
    ``time_limit`` trip, is :data:`ENGINE_TABLE` (README "Engines").
    """

    mode: str = "exact"
    epsilon: float = 0.05
    delta: float = 0.05
    budget: int | None = None
    time_limit: float | None = None
    workers: int | str | None = None
    on_timeout: str = "partial"

    def __post_init__(self):
        if self.mode not in EVAL_MODES:
            raise QueryValidationError(
                f"unknown evaluation mode {self.mode!r}; "
                f"expected one of {list(EVAL_MODES)}"
            )
        if not (self.epsilon >= 0.0):
            raise QueryValidationError(
                f"epsilon must be >= 0, got {self.epsilon!r}"
            )
        if not (0.0 < self.delta < 1.0):
            raise QueryValidationError(
                f"delta must be in (0, 1), got {self.delta!r}"
            )
        if self.budget is not None and not is_positive_int(self.budget):
            raise QueryValidationError(
                f"budget must be a positive integer, got {self.budget!r}"
            )
        if self.time_limit is not None and self.time_limit <= 0:
            raise QueryValidationError(
                f"time_limit must be positive, got {self.time_limit!r}"
            )
        validate_workers(self.workers)
        if self.on_timeout not in ("partial", "raise"):
            raise QueryValidationError(
                f"on_timeout must be 'partial' or 'raise', "
                f"got {self.on_timeout!r}"
            )

    @classmethod
    def make(cls, spec=None, **overrides) -> "EvalSpec":
        """Coerce ``spec`` (None, a mode string, or an EvalSpec) and apply
        keyword overrides (``mode=``, ``epsilon=``, ... with ``None``
        meaning "keep").  This is the single entry point the session uses
        to build the spec it threads through the engine protocol."""
        if spec is None:
            spec = cls()
        elif isinstance(spec, str):
            spec = cls(mode=spec)
        elif not isinstance(spec, EvalSpec):
            raise QueryValidationError(
                f"cannot use {spec!r} as an evaluation spec; expected an "
                f"EvalSpec, a mode string, or None"
            )
        supplied = {k: v for k, v in overrides.items() if v is not None}
        if supplied:
            unknown = set(supplied) - set(_SPEC_FIELDS)
            if unknown:
                raise QueryValidationError(
                    f"unknown EvalSpec fields {sorted(unknown)}"
                )
            # An epsilon/delta/budget override alone implies a non-exact
            # intent only when the caller also picks the mode; leave the
            # mode untouched here and let the session's auto policy decide.
            spec = replace(spec, **supplied)
        return spec

    def to_json(self) -> dict:
        """The documented wire encoding — one key per spec field.

        Defaults are included, so a decoded spec is exactly the encoded
        one (``EvalSpec.from_json(spec.to_json()) == spec``).
        """
        return {name: getattr(self, name) for name in _SPEC_FIELDS}

    @classmethod
    def from_json(cls, payload) -> "EvalSpec":
        """Inverse of :meth:`to_json`; missing keys take the defaults.

        Unknown keys are rejected (a mistyped field silently meaning
        "default" would be a protocol bug), and field validation is the
        constructor's — a bad wire value raises the same
        :class:`~repro.errors.QueryValidationError` a local caller gets.
        """
        if not isinstance(payload, dict):
            raise QueryValidationError(
                f"cannot decode {payload!r} as an EvalSpec; expected an "
                f"object with spec fields"
            )
        unknown = set(payload) - set(_SPEC_FIELDS)
        if unknown:
            raise QueryValidationError(
                f"unknown EvalSpec fields {sorted(unknown)}"
            )
        # Explicit null and absent both mean "the default": budget,
        # time_limit and workers legitimately default to None, and
        # clients round-tripping to_json() re-send those nulls.
        return cls(**{
            name: payload[name]
            for name in _SPEC_FIELDS
            if payload.get(name) is not None
        })

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    @property
    def execution_only(self) -> bool:
        """True when the spec only tunes *execution* (``workers``, the
        ``on_timeout`` degradation policy) and leaves the mode and every
        answer-quality field at its default.

        Such a spec asks for no mode (see :func:`accept`): every engine
        of :data:`ENGINE_TABLE` keeps the answer it gives without a spec
        — Monte-Carlo its fixed-budget estimate — while an explicit
        exact-mode request to a sampler is still an error.
        """
        return replace(self, workers=None, on_timeout="partial") == _DEFAULT_SPEC


#: The spec's field names, in declaration (and wire) order.
_SPEC_FIELDS = tuple(field.name for field in fields(EvalSpec))


_DEFAULT_SPEC = EvalSpec()


def implied_mode(engine: str | None) -> str | None:
    """The mode quality fields imply under ``engine`` — ``None`` for
    ``"auto"`` (or no engine), which dispatches on the spec instead."""
    row = ENGINE_TABLE.get(engine)
    return None if row is None else row.implied


def native_engine(mode: str) -> str:
    """The engine ``engine="auto"`` sends ``mode`` to."""
    return next(
        name for name, row in ENGINE_TABLE.items() if row.implied == mode
    )


def degraded_mode(mode: str | None) -> str:
    """The anytime mode a request is answered in when exact evaluation
    is not on offer (a query outside the tractable classes under
    ``engine="auto"``, a server past its soft limit): its own, or for
    exact intent deterministic bounds — the next guarantee down."""
    return mode if mode in EVAL_MODES[1:] else EVAL_MODES[1]


def check_mode(engine: str, mode: str) -> None:
    """Raise unless ``engine`` answers spec mode ``mode``."""
    modes = ENGINE_TABLE[engine].modes
    if mode not in modes:
        raise QueryValidationError(
            f"engine {engine!r} answers spec mode "
            f"{' or '.join(map(repr, modes))}, not {mode!r}; use "
            f"engine={native_engine(mode)!r} (or engine='auto' to dispatch "
            f"on the spec)"
        )


def accept(engine: str, spec: EvalSpec | None, options=None) -> str | None:
    """The acceptance check of every engine run; returns the mode asked.

    ``options`` are the run options the engine's signature did not take.
    No spec asks for no mode, nor does one that sets only execution
    fields: ``None`` comes back and the engine answers as it does
    unasked.  The all-defaults spec *is* an exact request.
    """
    if options:
        taken = ENGINE_TABLE[engine].options
        allowed = f"only the run options {list(taken)}" if taken else "no run options"
        raise QueryValidationError(
            f"engine {engine!r} takes {allowed} beside spec, got {sorted(options)}"
        )
    if spec is None or (spec.execution_only and spec != _DEFAULT_SPEC):
        return None
    check_mode(engine, spec.mode)
    return spec.mode
