"""The run record's envelope, clock and timeout policy, per engine.

Every engine builds one :class:`repro.engine.sprout.Run` on entry and
hands it its result: the ``stats``/``timings`` key sets below are the
ones each engine and mode reported before the record existed, the step
timings are laps of one clock (so they add up to at most
``wall_seconds``, which is at most what the caller measured), and a
``time_limit`` trip goes through one policy.
"""

from __future__ import annotations

import time

import pytest

from repro.engine.base import CompilationCache
from repro.engine.sprout import SproutEngine
from repro.errors import QueryTimeoutError
from repro.query.sql import parse_sql
from repro.resilience import FaultPlan, fault_plan
from repro.server.bootstrap import demo_session

ROWS = "SELECT kind, value FROM R"

ENVELOPE = {"wall_seconds", "rows", "db_generation"}
CODEGEN = {"kernels_compiled", "kernel_cache_hits", "codegen_compile_seconds"}
DTREE = ENVELOPE | {"step1_reused"}
APPROX = DTREE | {"rounds", "expansions", "converged", "max_width", "epsilon"}
SAMPLED = ENVELOPE | CODEGEN | {"samples", "batched"}
TWO_STEPS = {"rewrite_seconds", "probability_seconds"}

#: name → (query, run keywords, stats keys, timings keys), as reported
#: at the commit before the record (kernels on: Monte-Carlo is batched).
CASES = {
    "sprout": (
        ROWS, {"engine": "sprout"},
        DTREE | {"cache_hits", "cache_misses"}, TWO_STEPS,
    ),
    "sprout-workers": (
        ROWS, {"engine": "sprout", "workers": 1},
        DTREE | {
            "cache_hits", "cache_misses", "workers", "parallel_compiled",
            "parallel_mutex_nodes",
        },
        TWO_STEPS,
    ),
    "approx-unasked": (ROWS, {"engine": "approx"}, APPROX, TWO_STEPS),
    "approx": (
        ROWS, {"engine": "approx", "mode": "approx", "epsilon": 0.1},
        APPROX, TWO_STEPS,
    ),
    "naive": (
        "SELECT kind FROM R WHERE value >= 40", {"engine": "naive"},
        ENVELOPE | CODEGEN | {"codegen_used"}, {"enumeration_seconds"},
    ),
    "montecarlo-fixed": (
        ROWS, {"engine": "montecarlo", "samples": 50},
        SAMPLED, {"sampling_seconds"},
    ),
    "montecarlo-on_timeout": (
        ROWS, {"engine": "montecarlo", "on_timeout": "raise"},
        SAMPLED, {"sampling_seconds"},
    ),
    "montecarlo-sample": (
        ROWS, {"engine": "montecarlo", "mode": "sample", "epsilon": 0.2},
        SAMPLED | {"codegen_used", "converged", "max_width", "rounds"},
        {"sampling_seconds"},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_envelope_and_clock(case, numpy_kernels):
    query, options, stats_keys, timings_keys = CASES[case]
    session = demo_session(scale=1)
    start = time.perf_counter()
    result = session.run(query, **options)
    measured = time.perf_counter() - start
    assert set(result.stats) == stats_keys
    assert set(result.timings) == timings_keys
    assert result.stats["rows"] == len(result.rows)
    assert result.stats["db_generation"] == session.db.generation
    wall = result.stats["wall_seconds"]
    assert all(seconds >= 0.0 for seconds in result.timings.values())
    assert sum(result.timings.values()) <= wall + 1e-9
    assert wall <= measured


def test_a_bare_engine_reports_what_a_sessions_does():
    """One distribution-source type: without a session's cache the
    engine wraps its run's compiler in a private one, so the key set —
    ``cache_hits``/``cache_misses`` included — is ``CASES["sprout"]``'s
    and the rows expose the same accessors."""
    db = demo_session(scale=1).db
    result = SproutEngine(db).run(parse_sql("SELECT kind FROM R"))
    assert set(result.stats) == CASES["sprout"][2]
    # Each kind appears twice in R; nothing is repeated within one run.
    assert (result.stats["cache_hits"], result.stats["cache_misses"]) == (0, 4)
    assert isinstance(result.rows[0]._compiler, CompilationCache)
    assert result.rows[0]._compiler is result.rows[-1]._compiler
    assert result.rows[0]._compiler is not SproutEngine(db)._compiler()


def test_snapshots_share_one_clock():
    """Every ``run_iter`` snapshot is an envelope of the same run: its
    laps and its wall time only grow."""
    snapshots = list(
        demo_session(scale=1).run_iter(
            ROWS, engine="montecarlo", mode="sample", epsilon=0.05
        )
    )
    assert len(snapshots) > 1
    walls = [snapshot.stats["wall_seconds"] for snapshot in snapshots]
    laps = [snapshot.timings["sampling_seconds"] for snapshot in snapshots]
    assert walls == sorted(walls) and laps == sorted(laps)
    assert all(lap <= wall + 1e-9 for lap, wall in zip(laps, walls))


#: engine → (run keywords that cannot finish in 0.1 ms, the fault that
#: makes the trip certain on any machine).
CANNOT_FINISH = {
    "sprout": ({}, "engine.sprout.row"),
    "approx": ({"mode": "approx", "epsilon": 1e-9}, "engine.approx.round"),
    "montecarlo": (
        {"mode": "sample", "epsilon": 1e-6, "delta": 0.01},
        "engine.montecarlo.round",
    ),
}


def run_out_of_time(engine, on_timeout):
    options, point = CANNOT_FINISH[engine]
    plan = FaultPlan().add(point, "slow", delay=0.002, times=None)
    with fault_plan(plan):
        return demo_session(scale=1).run(
            ROWS, engine=engine, time_limit=1e-4, on_timeout=on_timeout,
            **options,
        )


@pytest.mark.parametrize("engine", sorted(CANNOT_FINISH))
def test_one_timeout_policy(engine):
    exact = {
        row.values: row.probability()
        for row in demo_session(scale=1).run(ROWS, engine="sprout").rows
    }

    def assert_sound_partial(result):
        assert result.engine == engine
        assert result.stats["deadline_hit"] is True
        for row in result.rows:
            interval = row.probability()
            truth = exact[row.values]
            assert interval.low - 1e-12 <= truth <= interval.high + 1e-12

    degraded = run_out_of_time(engine, "partial")
    assert_sound_partial(degraded)
    if engine != "montecarlo":  # sampled intervals never reach width 1
        assert any(row.probability().width == 1.0 for row in degraded.rows)

    start = time.perf_counter()
    with pytest.raises(QueryTimeoutError) as caught:
        run_out_of_time(engine, "raise")
    measured = time.perf_counter() - start
    partial = caught.value.partial
    assert_sound_partial(partial)
    assert set(partial.stats) == set(degraded.stats)
    assert set(partial.timings) == set(degraded.timings)
    # ``elapsed`` is read off the record's clock, after the envelope.
    assert partial.stats["wall_seconds"] <= caught.value.elapsed <= measured


@pytest.mark.parametrize("on_timeout", ["partial", "raise"])
def test_naive_has_no_sound_partial(on_timeout):
    start = time.perf_counter()
    with pytest.raises(QueryTimeoutError) as caught:
        demo_session(scale=1).run(
            "SELECT kind FROM R", engine="naive", time_limit=1e-4,
            on_timeout=on_timeout,
        )
    assert caught.value.partial is None
    assert 1e-4 <= caught.value.elapsed <= time.perf_counter() - start
