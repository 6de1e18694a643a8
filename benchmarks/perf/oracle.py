"""Correctness checks: no answer is compared only with the path under test.

* ``micro_check`` — on a micro instance, the engine under test against
  possible-worlds enumeration (``engine="naive"``);
* ``closed_form_check`` — single-table grouped COUNT rows against
  ``P = 1 − Π(1 − pᵢ)`` and ``E[n] = Σ pᵢ`` computed from the base rows;
* ``same_answer`` — two canonical answers agree to a tolerance (against
  the committed golden file and across passes).
"""

from __future__ import annotations

import json
import pathlib

from repro.algebra.expressions import SemiringExpr
from repro.algebra.semimodule import ModuleExpr

TOLERANCE = 1e-9
EXPECTED_DIR = pathlib.Path(__file__).resolve().parent / "expected"
#: Golden answers exist for this seed only; other seeds rely on the
#: oracles that need no stored answer.
GOLDEN_SEED = 7


def consume(result, distributions: bool) -> list:
    """Read the whole answer (called inside the timed region): every
    row's probability interval and, when asked, every aggregate's value
    distribution."""
    rows = []
    for row in result.rows:
        probability = row.probability()
        values = None
        if distributions:
            values = [
                row.value_distribution(attribute).items()
                for attribute in row.module_attributes()
            ]
        rows.append((row.values, probability.low, probability.high, values))
    return rows


def canonical(raw: list) -> list:
    """JSON-shaped, order-independent form of a consumed answer."""
    rows = []
    for values, low, high, distributions in raw:
        plain = [
            "<symbolic>" if isinstance(v, (ModuleExpr, SemiringExpr)) else v
            for v in values
        ]
        if distributions is not None:
            distributions = [
                sorted([value, p] for value, p in d) for d in distributions
            ]
        rows.append([plain, low, high, distributions])
    rows.sort(key=lambda row: json.dumps(row[0]))
    return rows


def _close(a: float, b: float, tolerance: float) -> bool:
    return abs(a - b) <= tolerance


def same_answer(got: list, want: list, tolerance: float = TOLERANCE) -> str | None:
    """``None`` when the canonical answers agree, else what differs."""
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    for (gv, gl, gh, gd), (wv, wl, wh, wd) in zip(got, want):
        if gv != wv:
            return f"row values {gv!r}, expected {wv!r}"
        if not (_close(gl, wl, tolerance) and _close(gh, wh, tolerance)):
            return f"row {gv!r}: probability [{gl}, {gh}], expected [{wl}, {wh}]"
        if (gd is None) != (wd is None):
            return f"row {gv!r}: distributions missing on one side"
        for g_dist, w_dist in zip(gd or (), wd or ()):
            if len(g_dist) != len(w_dist) or any(
                gx != wx or not _close(gp, wp, tolerance)
                for (gx, gp), (wx, wp) in zip(g_dist, w_dist)
            ):
                return f"row {gv!r}: value distribution differs"
    return None


def same_tuple_probabilities(got: dict, want: dict, tolerance: float) -> str | None:
    for key in set(got) | set(want):
        if not _close(got.get(key, 0.0), want.get(key, 0.0), tolerance):
            return (
                f"tuple {key!r}: P={got.get(key, 0.0)!r}, "
                f"oracle {want.get(key, 0.0)!r}"
            )
    return None


def micro_check(session, query, options: dict) -> str | None:
    """Engine under test vs possible-worlds enumeration on ``session``'s
    (micro) database.  Interval answers may differ from the oracle by
    their own width."""
    result = session.run(query, **options)
    width = max((row.probability().width for row in result.rows), default=0.0)
    oracle = session.run(query, engine="naive")
    return same_tuple_probabilities(
        result.tuple_probabilities(),
        oracle.tuple_probabilities(),
        TOLERANCE + width,
    )


def closed_form_check(db, raw: list, schema, spec: tuple) -> str | None:
    """Grouped COUNT over one tuple-independent table, from its base rows."""
    group_attributes, table_name, row_filter = spec
    table = db[table_name]
    absent: dict[tuple, float] = {}
    expected: dict[tuple, float] = {}
    for row in table:
        record = row.value_dict(table.schema)
        if row_filter is not None and not record[row_filter[0]] <= row_filter[1]:
            continue
        key = tuple(record[a] for a in group_attributes)
        p = db.registry[row.annotation.name][True]
        absent[key] = absent.get(key, 1.0) * (1.0 - p)
        expected[key] = expected.get(key, 0.0) + p
    positions = [schema.index(a) for a in group_attributes]
    seen = set()
    for values, low, high, distributions in raw:
        key = tuple(values[i] for i in positions)
        seen.add(key)
        if key not in absent:
            return f"group {key!r} is not in the base table"
        want = 1.0 - absent[key]
        if not (_close(low, want, TOLERANCE) and _close(high, want, TOLERANCE)):
            return f"group {key!r}: P=[{low}, {high}], closed form {want}"
        if distributions:
            mean = sum(value * p for value, p in distributions[0])
            # Convolution drops masses below its pruning threshold, so the
            # mean is compared relatively.
            if not _close(mean, expected[key], 1e-6 * expected[key]):
                return f"group {key!r}: E[n]={mean}, closed form {expected[key]}"
    if seen != set(absent):
        return f"groups {sorted(set(absent) - seen)!r} missing from the answer"
    return None


def golden_path(workload: str) -> pathlib.Path:
    return EXPECTED_DIR / f"{workload}-seed{GOLDEN_SEED}.json"


def load_golden(workload: str, seed: int = GOLDEN_SEED) -> dict | None:
    """The committed answers, when there are any for ``seed``."""
    path = golden_path(workload)
    if seed != GOLDEN_SEED or not path.exists():
        return None
    return json.loads(path.read_text())


def write_golden(workload: str, answers: dict) -> None:
    EXPECTED_DIR.mkdir(exist_ok=True)
    golden_path(workload).write_text(
        json.dumps(answers, separators=(",", ":")) + "\n"
    )
