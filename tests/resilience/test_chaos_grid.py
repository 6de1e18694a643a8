"""The chaos conformance grid.

Under every injected fault the stack must *degrade*, never corrupt: a
faulted run's answer fingerprint (values, interval endpoints, engine,
deterministic stats) must be bit-identical to the fault-free baseline
of the same ``(engine, workers)`` configuration.  Worker-only faults
(crash/hang/pickle) break the pool mid-round; the parent's serial
rerun of the same pure payloads then reproduces the exact answer.
"""

import time

import pytest

from repro import EvalSpec, cmp_, parallel, sum_
from repro.resilience import FaultPlan, fault_plan
from repro.resilience.faults import clear_plan
from repro.server.bootstrap import demo_session
from repro.server.codec import fingerprint

JOIN_QUERY = "SELECT label FROM R, T WHERE kind = rkind"

#: (fault point, kind, options) legs of the grid.  Every kind of the
#: catalogue that can fire during engine evaluation is represented.
FAULTS = {
    "worker-crash": ("pool.worker", "crash", {"times": 1}),
    "worker-pickle": ("pool.worker", "pickle", {"times": 1}),
    "slow-round": ("engine.approx.round", "slow",
                   {"delay": 0.001, "times": 2}),
    "slow-row": ("engine.sprout.row", "slow", {"delay": 0.001, "times": 2}),
}

ENGINES = {
    "sprout": dict(engine="sprout"),
    "approx": dict(engine="approx", mode="approx", epsilon=0.01),
    "montecarlo": dict(
        engine="montecarlo", mode="sample", epsilon=0.05, delta=0.05,
        budget=2000,
    ),
}


@pytest.fixture(autouse=True)
def no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


def run_once(engine_key, workers):
    options = dict(ENGINES[engine_key])
    if workers is not None:
        options["workers"] = workers
    session = demo_session(scale=2)
    return fingerprint(session.sql(JOIN_QUERY, **options))


@pytest.mark.parametrize("engine_key", sorted(ENGINES))
@pytest.mark.parametrize("fault_key", sorted(FAULTS))
@pytest.mark.parametrize("workers", [1, 2, "auto"])
def test_faulted_answers_match_fault_free_baseline(
    engine_key, fault_key, workers
):
    baseline = run_once(engine_key, workers)
    point, kind, options = FAULTS[fault_key]
    plan = FaultPlan(seed=11).add(point, kind, **options)
    with fault_plan(plan):
        chaotic = run_once(engine_key, workers)
    assert chaotic == baseline


@pytest.mark.parametrize("engine_key", ["sprout", "montecarlo"])
def test_hung_worker_degrades_without_changing_answers(
    engine_key, monkeypatch
):
    """A wedged worker is the nastiest leg: only the watchdog can catch
    it.  With a short process-wide task timeout the round is abandoned,
    the pool killed, and the inline rerun must still be bit-identical."""
    monkeypatch.setattr(parallel, "DEFAULT_TASK_TIMEOUT", 1.0)
    baseline = run_once(engine_key, 2)
    plan = FaultPlan().add("pool.worker", "hang", delay=30.0, times=1)
    with fault_plan(plan):
        chaotic = run_once(engine_key, 2)
    assert chaotic == baseline


def test_hung_worker_under_a_time_limit_returns_a_sound_partial():
    """No task timeout is set: the deadline alone bounds the round.  The
    hung round is killed at ``time_limit`` + grace, is not recompiled
    after expiry, and the run returns the serial loop's partial in time;
    every row it still reports exact is the fault-free answer."""
    assert parallel.DEFAULT_TASK_TIMEOUT is None
    time_limit = 1.0

    def run():
        session = demo_session(scale=2)
        query = (
            session.table("R")
            .group_by("kind")
            .agg(total=sum_("value"))
            .where(cmp_("total", ">=", 60))
            .select("kind")
        )
        spec = EvalSpec(time_limit=time_limit, workers=2)
        return session.run(query, engine="sprout", spec=spec)

    baseline = {row.values: row.probability() for row in run()}
    plan = FaultPlan().add("pool.worker", "hang", delay=30.0, times=1)
    start = time.perf_counter()
    with fault_plan(plan):
        partial = run()
    elapsed = time.perf_counter() - start
    assert elapsed < time_limit + parallel._DEADLINE_GRACE + 5.0
    assert partial.stats["deadline_hit"] is True
    assert "rows_exact" in partial.stats
    assert {row.values for row in partial} == set(baseline)
    for row in partial:
        interval = row.probability()
        exact = baseline[row.values]
        if interval.width == 0:
            assert (interval.low, interval.high) == (exact.low, exact.high)
        else:
            assert interval.low <= exact.low and exact.high <= interval.high


def test_serial_runs_ignore_pool_faults():
    """workers=None never touches the pool: a pool.worker fault plan
    must not fire at all."""
    plan = FaultPlan().add("pool.worker", "crash", times=None)
    baseline = run_once("sprout", None)
    with fault_plan(plan):
        chaotic = run_once("sprout", None)
    assert chaotic == baseline
    assert plan.fires == {}
