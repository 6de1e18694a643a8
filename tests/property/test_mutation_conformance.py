"""Property: mutations never leave a stale answer behind.

Each example draws a random insert/update/delete script, applies it to a
*warm* session (caches primed before the writes), and checks that every
engine — exact, compiled-kernel, bounded-approximate, seeded
Monte-Carlo — answers fingerprint-identically to a cold session rebuilt
from scratch over the mutated data.  Any cache (scan, hash index, bound
plan, compiled distribution, tuple-independence memo) surviving a
mutation it should not have survived shows up as a fingerprint mismatch
here.
"""

from __future__ import annotations

import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect, count_, sum_
from repro.db.pvc_table import PVCDatabase, PVCTable
from repro.prob.variables import VariableRegistry
from repro.session import Session

KINDS = ("a", "b", "c")

probabilities = st.sampled_from((0.1, 0.25, 0.5, 0.7, 0.9))
kinds = st.sampled_from(KINDS)
values = st.integers(min_value=1, max_value=50)


@st.composite
def mutation_scripts(draw):
    """1-6 mutations: inserts, value updates, probability updates, deletes."""
    script = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        op = draw(
            st.sampled_from(("insert", "update_values", "update_p", "delete"))
        )
        if op == "insert":
            script.append((op, (draw(kinds), draw(values)), draw(probabilities)))
        elif op == "update_values":
            script.append((op, draw(kinds), draw(values)))
        elif op == "update_p":
            script.append((op, draw(kinds), draw(probabilities)))
        else:
            script.append((op, draw(kinds)))
    return script


def build_session(seed: int = 5) -> Session:
    s = connect(seed=seed)
    t = s.table("items", ["kind", "value"])
    for kind, value, p in [
        ("a", 10, 0.5),
        ("a", 20, 0.4),
        ("b", 30, 0.7),
        ("b", 40, 0.2),
        ("c", 5, 0.9),
    ]:
        t.insert((kind, value), p=p)
    return s


def apply_script(session: Session, script) -> None:
    t = session.table("items")
    for step in script:
        if step[0] == "insert":
            t.insert(step[1], p=step[2])
        elif step[0] == "update_values":
            t.update({"kind": step[1]}, {"value": step[2]})
        elif step[0] == "update_p":
            t.update({"kind": step[1]}, p=step[2])
        else:
            t.delete({"kind": step[1]})


def rebuilt_from_scratch(session: Session) -> Session:
    """The oracle: a cold session over copies of the mutated state."""
    registry = VariableRegistry()
    for name, dist in session.registry.items():
        registry.declare(name, dist)
    tables = {
        name: PVCTable(table.schema, list(table.rows))
        for name, table in session.db.tables.items()
    }
    db = PVCDatabase(tables=tables, registry=registry, semiring=session.semiring)
    return Session(database=db, seed=session.seed, samples=session.samples)


def queries(session: Session):
    t = session.table("items")
    return [
        t.select("kind").build(),
        t.group_by("kind").agg(n=count_()).build(),
        t.group_by().agg(total=sum_("value")).build(),
    ]


def fingerprint(result):
    return [
        (row.values, row.probability().low, row.probability().high)
        for row in result
    ]


#: The comparison grid: (engine, environment, run options) — naive, the
#: engine that evaluates per world, with the kernels off and on.  The
#: Monte-Carlo leg is seeded and must only be instantiated at comparison
#: time, so the warm and cold adapters consume identical RNG streams.
GRID = (
    ("sprout", {}, {}),
    ("naive", {"REPRO_CODEGEN": "0"}, {}),
    ("naive", {"REPRO_CODEGEN": "1"}, {}),
    ("approx", {}, {"epsilon": 0.01}),
    ("montecarlo", {}, {"epsilon": 0.1}),
)


@settings(max_examples=15, deadline=None)
@given(script=mutation_scripts())
def test_warm_session_matches_rebuilt_session_on_every_engine(script):
    warm = build_session()
    # Prime every cache layer before mutating: compiled distributions,
    # bound plans, hash indexes, the tuple-independence memo.
    for query in queries(warm):
        warm.run(query, engine="sprout")
        warm.run(query, engine="naive")
    apply_script(warm, script)
    cold = rebuilt_from_scratch(warm)
    for query in queries(warm):
        for engine, environ, options in GRID:
            with mock.patch.dict(os.environ, environ):
                left = fingerprint(warm.run(query, engine=engine, **options))
                right = fingerprint(cold.run(query, engine=engine, **options))
            assert left == right, (engine, environ, options, script)


def test_workers_grid_after_fixed_script():
    """Deterministic multi-core leg (process pools are too heavy to spin
    up per Hypothesis example): after a fixed mixed script, parallel
    warm answers equal the cold oracle's serial ones."""
    warm = build_session()
    for query in queries(warm):
        warm.run(query, engine="sprout")
    apply_script(
        warm,
        [
            ("insert", ("c", 33), 0.6),
            ("update_values", "a", 15),
            ("update_p", "b", 0.35),
            ("delete", "c"),
            ("insert", ("b", 44), 0.8),
        ],
    )
    cold = rebuilt_from_scratch(warm)
    for query in queries(warm):
        for engine in ("sprout", "naive"):
            parallel = fingerprint(
                warm.run(query, engine=engine, workers=2)
            )
            serial = fingerprint(cold.run(query, engine=engine))
            assert parallel == serial, engine


if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-v"]))
