"""The documented JSON codec of the query-server wire protocol.

Everything the server sends — and everything the async client decodes —
goes through this module, so the encoding rules live in exactly one
place:

* :class:`~repro.engine.spec.ProbInterval` → ``{"low": l, "high": h}``.
  A bare ``json.dumps`` would serialise the float midpoint and silently
  lose the bracket; the codec keeps both endpoints.
* Symbolic row values (semimodule aggregates, semiring annotations) →
  ``{"symbolic": "<repr>"}``.  They decode to :class:`SymbolicValue`
  markers — the server keeps the compiled distributions, the wire carries
  a stable textual form.
* Row value tuples → JSON arrays (decoded back to tuples).
* ``stats``/``timings`` dictionaries → sanitised recursively by
  :func:`jsonable`: numpy scalars become Python scalars, intervals become
  low/high objects, non-string keys become strings, and anything exotic
  falls back to its ``repr`` (the wire never raises ``TypeError`` on an
  engine counter).
* A whole :class:`~repro.engine.sprout.QueryResult` →
  :func:`result_to_json`, decoded by :func:`result_from_json` into a
  :class:`RemoteResult` (values + interval probabilities + stats; the
  symbolic machinery itself does not travel).

:func:`fingerprint` canonicalises an encoded result for conformance
checks — tuples, interval endpoints and deterministic stats, with
timing/caching/parallelism counters (volatile across runs by nature)
dropped.  A stats key classified neither way is refused, not guessed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.algebra.expressions import SemiringExpr
from repro.algebra.semimodule import ModuleExpr
from repro.engine.spec import EvalSpec, ProbInterval
from repro.engine.sprout import QueryResult
from repro.engine.stats import DETERMINISTIC_STAT_KEYS, VOLATILE_STAT_KEYS
from repro.errors import QueryValidationError
from repro.resilience.faults import fault_point

__all__ = [
    "SymbolicValue",
    "RemoteRow",
    "RemoteResult",
    "jsonable",
    "encode_value",
    "decode_value",
    "result_to_json",
    "result_from_json",
    "fingerprint",
]


@dataclass(frozen=True)
class SymbolicValue:
    """Client-side marker for a symbolic (semimodule) attribute value.

    The server holds the compiled distribution; the wire carries the
    expression's textual form only.
    """

    text: str

    def __repr__(self):
        return f"SymbolicValue({self.text!r})"


def _is_numpy_scalar(value) -> bool:
    return type(value).__module__.split(".")[0] == "numpy"


def jsonable(value):
    """Recursively coerce ``value`` into JSON-encodable Python objects.

    Total: every input maps to *something* encodable (exotic objects fall
    back to their ``repr``), so serialising engine diagnostics can never
    raise.
    """
    if isinstance(value, ProbInterval):
        return value.to_json()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if _is_numpy_scalar(value):
        return value.item()
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(item) for item in value), key=repr)
    if isinstance(value, (ModuleExpr, SemiringExpr)):
        return {"symbolic": repr(value)}
    return repr(value)


def encode_value(value):
    """Encode one row attribute value for the wire."""
    if isinstance(value, (ModuleExpr, SemiringExpr)):
        return {"symbolic": repr(value)}
    if isinstance(value, SymbolicValue):
        return {"symbolic": value.text}
    if _is_numpy_scalar(value):
        return value.item()
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def decode_value(value):
    """Inverse of :func:`encode_value` (symbolic markers come back as
    :class:`SymbolicValue`)."""
    if isinstance(value, dict) and set(value) == {"symbolic"}:
        return SymbolicValue(value["symbolic"])
    return value


@dataclass(frozen=True)
class RemoteRow:
    """One decoded answer tuple: concrete/symbolic values + interval."""

    values: tuple
    probability: ProbInterval


@dataclass
class RemoteResult:
    """A decoded :class:`~repro.engine.sprout.QueryResult`.

    Mirrors the local result surface a client typically consumes —
    ``columns``, rows with interval probabilities, ``stats``/``timings``
    — plus the server-side envelope: ``degraded`` is True when admission
    control rewrote the request to a budgeted anytime spec,
    ``statement_cache_hit`` when the shared prepared-statement cache
    skipped parse/plan/compile work, and ``reply_reused`` when the server
    answered with the encoded result an earlier run of the same text and
    options produced at the same database stamp.  The server never
    mutates a kept reply, so a reused result's ``timings`` and volatile
    ``stats`` (``step1_reused``, cache counters, …) are those of the run
    that produced it, not of this request.
    """

    engine: str
    columns: list[str]
    rows: list[RemoteRow]
    timings: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    degraded: bool = False
    statement_cache_hit: bool = False
    reply_reused: bool = False

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_dicts(self, include_probability: bool = True) -> list[dict]:
        records = []
        for row in self.rows:
            record = dict(zip(self.columns, row.values))
            if include_probability:
                record["probability"] = row.probability
            records.append(record)
        return records

    def to_json(self) -> dict:
        """Re-encode as the wire payload (the inverse of decoding).

        ``result_from_json(payload).to_json() == payload``, which lets
        conformance checks :func:`fingerprint` a decoded client-side
        result against a locally computed :class:`QueryResult`.
        """
        return {
            "engine": self.engine,
            "columns": list(self.columns),
            "rows": [
                {
                    "values": [encode_value(value) for value in row.values],
                    "probability": row.probability.to_json(),
                }
                for row in self.rows
            ],
            "timings": dict(self.timings),
            "stats": dict(self.stats),
        }


def result_to_json(result: QueryResult) -> dict:
    """Encode a :class:`QueryResult` as the documented wire object."""
    fault_point("server.codec.encode")
    return {
        "engine": result.engine,
        "columns": list(result.schema.attributes),
        "rows": [
            {
                "values": [encode_value(value) for value in row.values],
                "probability": row.probability().to_json(),
            }
            for row in result.rows
        ],
        "timings": jsonable(result.timings),
        "stats": jsonable(result.stats),
    }


def result_from_json(payload: dict, **envelope) -> RemoteResult:
    """Decode the wire object back into a :class:`RemoteResult`."""
    if not isinstance(payload, dict) or "rows" not in payload:
        raise QueryValidationError(
            f"cannot decode {payload!r} as a query result"
        )
    rows = [
        RemoteRow(
            values=tuple(decode_value(value) for value in row["values"]),
            probability=ProbInterval.from_json(row["probability"]),
        )
        for row in payload["rows"]
    ]
    return RemoteResult(
        engine=payload.get("engine", "unknown"),
        columns=list(payload.get("columns", ())),
        rows=rows,
        timings=dict(payload.get("timings", {})),
        stats=dict(payload.get("stats", {})),
        **envelope,
    )


_CLASSIFIED_STAT_KEYS = VOLATILE_STAT_KEYS | DETERMINISTIC_STAT_KEYS


def fingerprint(result) -> str:
    """A canonical string for answer-conformance comparison.

    Accepts a local :class:`QueryResult`, a decoded client-side
    :class:`RemoteResult`, or an already encoded wire payload.  Timings
    and the :data:`~repro.engine.stats.VOLATILE_STAT_KEYS` are dropped;
    everything that defines the *answer* — tuples, interval endpoints,
    engine, deterministic convergence counters — is kept, serialised with
    sorted keys so equal answers produce byte-equal fingerprints.

    Raises :class:`ValueError` naming any stats key that is in neither
    ``VOLATILE_STAT_KEYS`` nor ``DETERMINISTIC_STAT_KEYS``: whether it
    belongs in the fingerprint is undecided, and guessing either way
    makes two runs of one answer compare unequal (or hides a real
    difference).
    """
    if isinstance(result, QueryResult):
        payload = result_to_json(result)
    elif isinstance(result, RemoteResult):
        payload = result.to_json()
    else:
        payload = result
    stats = payload.get("stats", {})
    unclassified = sorted(set(stats) - _CLASSIFIED_STAT_KEYS)
    if unclassified:
        raise ValueError(
            f"stats keys {unclassified} are in neither VOLATILE_STAT_KEYS "
            f"nor DETERMINISTIC_STAT_KEYS (repro.engine.stats); classify them"
        )
    stable = {
        "engine": payload["engine"],
        "columns": payload["columns"],
        "rows": payload["rows"],
        "stats": {
            key: value
            for key, value in stats.items()
            if key not in VOLATILE_STAT_KEYS
        },
    }
    return json.dumps(stable, sort_keys=True)


def spec_payload(
    spec: EvalSpec | str | dict | None,
    mode: str | None = None,
    epsilon: float | None = None,
    delta: float | None = None,
    budget: int | None = None,
    time_limit: float | None = None,
    workers: int | str | None = None,
    on_timeout: str | None = None,
) -> dict | None:
    """Assemble the wire form of an evaluation spec from client inputs.

    Accepts the same shapes :meth:`EvalSpec.make` does (an
    :class:`EvalSpec`, a mode string, ``None``) plus an already encoded
    dict, and merges the inline keyword overrides the session API offers.
    Returns ``None`` when nothing was requested (the server then keeps
    the engines' legacy point-answer behavior).
    """
    overrides = {
        key: value
        for key, value in (
            ("mode", mode),
            ("epsilon", epsilon),
            ("delta", delta),
            ("budget", budget),
            ("time_limit", time_limit),
            ("workers", workers),
            ("on_timeout", on_timeout),
        )
        if value is not None
    }
    if isinstance(spec, EvalSpec):
        base = spec.to_json()
    elif isinstance(spec, str):
        base = {"mode": spec}
    elif isinstance(spec, dict):
        base = dict(spec)
    elif spec is None:
        if not overrides:
            return None
        base = {}
    else:
        raise QueryValidationError(
            f"cannot use {spec!r} as an evaluation spec; expected an "
            f"EvalSpec, a mode string, a dict, or None"
        )
    base.update(overrides)
    return base
