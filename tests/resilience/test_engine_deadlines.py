"""End-to-end ``time_limit`` contract, per engine.

For every engine the contract is the same: with ``time_limit=T`` the
run either finishes normally or degrades/raises within ``T`` plus a
small bounded overshoot — never hangs — and under
``on_timeout="partial"`` every returned interval still *contains* the
true probability (checked against the exact answer).

The demo workload is sub-millisecond, so the deadline is made to trip
*deterministically* by injecting latency at the engines' own fault
points rather than by shrinking ``time_limit`` below scheduler noise.
"""

import time

import pytest

from repro.algebra.expressions import Var
from repro.algebra.semiring import BOOLEAN
from repro.core.compile import Compiler
from repro.engine.spec import ProbInterval
from repro.errors import QueryTimeoutError
from repro.resilience import (
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    deadline_scope,
    fault_plan,
)
from repro.resilience.faults import clear_plan
from repro.server.bootstrap import demo_session
from repro.workloads.random_expr import ExprParams, generate_condition
from tests.conftest import batch_evaluator_off

QUERY = "SELECT kind, value FROM R"
JOIN_QUERY = "SELECT label FROM R, T WHERE kind = rkind"

#: Allowed scheduling overshoot past ``time_limit``: generous for slow
#: CI machines, small enough to catch an unbounded loop outright.
OVERSHOOT = 1.0


@pytest.fixture(autouse=True)
def no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


def exact_probabilities(sql):
    result = demo_session().sql(sql, engine="sprout")
    return {row.values: row.probability() for row in result.rows}


def assert_sound(result, exact):
    """Every partial interval must bracket the exact probability."""
    for row in result.rows:
        interval = row.probability()
        assert isinstance(interval, ProbInterval)
        truth = exact[row.values]
        assert interval.low - 1e-12 <= truth <= interval.high + 1e-12


def timed(callable_, *args, **kwargs):
    start = time.perf_counter()
    outcome = callable_(*args, **kwargs)
    return outcome, time.perf_counter() - start


def slow_rows():
    """2ms per sprout row: a 10ms limit trips after a handful of rows."""
    return FaultPlan().add(
        "engine.sprout.row", "slow", delay=0.002, times=None
    )


class TestSproutDeadline:
    def test_generous_limit_is_exact(self):
        result = demo_session().sql(QUERY, engine="sprout", time_limit=60.0)
        assert "deadline_hit" not in result.stats
        assert all(row.probability().width == 0.0 for row in result.rows)

    def test_tight_limit_returns_sound_partial(self):
        exact = exact_probabilities(QUERY)
        with fault_plan(slow_rows()):
            result, elapsed = timed(
                demo_session().sql, QUERY, engine="sprout", time_limit=0.01
            )
        assert elapsed < 0.01 + OVERSHOOT
        assert result.stats["deadline_hit"] is True
        assert 0 < result.stats["rows_exact"] < result.stats["rows"]
        assert_sound(result, exact)
        # Finished rows are exact, pending rows are the full bracket.
        widths = sorted(row.probability().width for row in result.rows)
        assert widths[0] == 0.0 and widths[-1] == 1.0

    def test_raise_policy_carries_partial(self):
        exact = exact_probabilities(QUERY)
        with fault_plan(slow_rows()):
            with pytest.raises(QueryTimeoutError) as err:
                demo_session().sql(
                    QUERY, engine="sprout", time_limit=0.01,
                    on_timeout="raise",
                )
        partial = err.value.partial
        assert partial is not None
        assert partial.stats["deadline_hit"] is True
        assert err.value.elapsed is not None and err.value.elapsed > 0
        assert_sound(partial, exact)


class TestNaiveDeadline:
    def test_tight_limit_always_raises(self):
        # Possible-world enumeration has no sound intermediate state:
        # both policies raise, and the partial is explicitly absent.
        session = demo_session()
        for policy in ("partial", "raise"):
            start = time.perf_counter()
            with pytest.raises(QueryTimeoutError) as err:
                session.sql(
                    "SELECT kind FROM R",
                    engine="naive",
                    time_limit=0.01,
                    on_timeout=policy,
                )
            assert time.perf_counter() - start < 0.01 + OVERSHOOT
            assert err.value.partial is None

    def test_generous_limit_completes(self):
        result = demo_session().sql(
            "SELECT slot FROM B WHERE bid >= 50",
            engine="naive",
            time_limit=60.0,
        )
        assert "deadline_hit" not in result.stats


class TestApproxDeadline:
    def slow_round(self):
        """One 25ms stall before round 1: a 10ms limit is already spent
        when refinement starts, so every row degrades to [0, 1]."""
        return FaultPlan().add(
            "engine.approx.round", "slow", delay=0.025, times=1
        )

    def test_tight_limit_returns_sound_partial(self):
        exact = exact_probabilities(JOIN_QUERY)
        with fault_plan(self.slow_round()):
            result, elapsed = timed(
                demo_session().sql,
                JOIN_QUERY,
                engine="approx",
                mode="approx",
                epsilon=1e-9,
                time_limit=0.01,
            )
        assert elapsed < 0.01 + OVERSHOOT
        assert result.stats["deadline_hit"] is True
        assert result.stats["converged"] is False
        assert result.stats["max_width"] == 1.0
        assert_sound(result, exact)

    def test_raise_policy_carries_partial(self):
        with fault_plan(self.slow_round()):
            with pytest.raises(QueryTimeoutError) as err:
                demo_session().sql(
                    JOIN_QUERY,
                    engine="approx",
                    mode="approx",
                    epsilon=1e-9,
                    time_limit=0.01,
                    on_timeout="raise",
                )
        assert err.value.partial is not None
        assert_sound(err.value.partial, exact_probabilities(JOIN_QUERY))

    def test_snapshots_remain_sound_under_deadline(self):
        exact = exact_probabilities(JOIN_QUERY)
        with fault_plan(self.slow_round()):
            snapshots = list(
                demo_session().run_iter(
                    JOIN_QUERY,
                    engine="approx",
                    mode="approx",
                    epsilon=1e-9,
                    time_limit=0.01,
                )
            )
        assert snapshots
        for snapshot in snapshots:
            assert_sound(snapshot, exact)


class TestMonteCarloDeadline:
    def test_deadline_stops_sampling_with_bounded_overshoot(self):
        limit = 0.05
        result, elapsed = timed(
            demo_session().sql,
            JOIN_QUERY,
            engine="montecarlo",
            mode="sample",
            epsilon=1e-6,
            delta=0.01,
            time_limit=limit,
        )
        assert result.stats["deadline_hit"] is True
        assert elapsed < limit + OVERSHOOT
        # The final-round clamp keeps wall time close to the limit even
        # though a full doubled batch would have overshot it.
        assert result.stats["wall_seconds"] < limit + OVERSHOOT

    def test_raise_policy_carries_partial(self):
        with pytest.raises(QueryTimeoutError) as err:
            demo_session().sql(
                JOIN_QUERY,
                engine="montecarlo",
                mode="sample",
                epsilon=1e-6,
                delta=0.01,
                time_limit=0.02,
                on_timeout="raise",
            )
        partial = err.value.partial
        assert partial is not None
        assert partial.stats["samples"] > 0

    def test_overshoot_regression_with_slow_worlds(self):
        """The satellite regression: with injected per-world latency the
        engine used to overshoot ``time_limit`` by a whole doubled batch;
        the clamp bounds the overshoot to ~one slow sample.  The join
        would batch, so the per-world loop is forced."""
        limit = 0.1
        plan = FaultPlan().add(
            "engine.montecarlo.world", "slow", delay=0.001, times=None
        )
        with fault_plan(plan), batch_evaluator_off():
            _, elapsed = timed(
                demo_session().sql,
                JOIN_QUERY,
                engine="montecarlo",
                mode="sample",
                epsilon=1e-6,
                delta=0.01,
                time_limit=limit,
            )
        assert plan.hits["engine.montecarlo.world"] > 0
        assert elapsed < limit + OVERSHOOT


    def test_chunked_batch_valuation_stops_between_chunks(
        self, monkeypatch, numpy_kernels
    ):
        """A Boolean join valuates as one symbolic batch, in world chunks
        of bounded array size.  When valuation turns slow mid-run — so
        the final round, sized from the rate observed so far, is far too
        big — the deadline checkpoint between chunks drops that round
        instead of finishing it (which would take ~2.5s here)."""
        from repro.engine import montecarlo
        from repro.query.sql import parse_sql

        session = demo_session()
        nodes = montecarlo.MonteCarloEngine(session.db)._run_context(
            parse_sql(JOIN_QUERY)
        ).symbolic[1]
        monkeypatch.setattr(montecarlo, "_BATCH_CELLS", 100 * nodes)
        sizes = []
        valuate = montecarlo.evaluate_batch

        def slow_after_10k_worlds(expr, presence, size, *rest):
            sizes.append(size)
            if len(sizes) > 400:  # 4 answer rows per chunk of 100 worlds
                time.sleep(0.01)
            return valuate(expr, presence, size, *rest)

        monkeypatch.setattr(montecarlo, "evaluate_batch", slow_after_10k_worlds)
        limit = 0.1
        result, elapsed = timed(
            session.sql,
            JOIN_QUERY,
            engine="montecarlo",
            mode="sample",
            epsilon=1e-6,
            delta=0.01,
            time_limit=limit,
        )
        assert result.stats["batched"] is True
        assert result.stats["deadline_hit"] is True
        assert result.stats["samples"] > 0
        assert elapsed < limit + OVERSHOOT
        assert max(sizes) <= 100  # peak vector length, whatever the round

    def test_world_fault_point_fires_on_the_per_world_path(self):
        """PROD has no batched form: a join aggregated by PROD still
        runs world by world, through ``engine.montecarlo.world``, and
        the round clamp bounds its overshoot."""
        from repro import connect

        session = connect(seed=3)
        session.registry.bernoulli("m", 0.5)
        session.registry.bernoulli("n", 0.6)
        session.table("A", ["k", "x"]).insert((1, 10), annotation=Var("m"))
        session.table("B", ["j", "y"]).insert((1, 20), annotation=Var("n"))
        limit = 0.1
        plan = FaultPlan().add(
            "engine.montecarlo.world", "slow", delay=0.001, times=None
        )
        with fault_plan(plan):
            result, elapsed = timed(
                session.sql,
                "SELECT k, PROD(y) FROM A, B WHERE k = j GROUP BY k",
                engine="montecarlo",
                mode="sample",
                epsilon=1e-6,
                delta=0.01,
                time_limit=limit,
            )
        assert result.stats["batched"] is False
        assert plan.hits["engine.montecarlo.world"] == result.stats["samples"]
        assert result.stats["deadline_hit"] is True
        assert elapsed < limit + OVERSHOOT


class TestExactCompilerCheckpoint:
    def test_shannon_loop_respects_ambient_deadline(self):
        """The ⊔-node checkpoint inside exact compilation: a genuinely
        hard expression (Eq.-11 workload, exponential Shannon expansion)
        aborts within milliseconds of the deadline instead of running
        for its full compile time."""
        expr, registry = generate_condition(
            ExprParams(
                left_terms=120, variables=18, max_value=60, constant=30
            ),
            seed=3,
        )
        compiler = Compiler(registry, BOOLEAN)
        start = time.perf_counter()
        with deadline_scope(Deadline(0.01)):
            with pytest.raises(DeadlineExceeded):
                compiler.distribution(expr)
        assert time.perf_counter() - start < 0.01 + OVERSHOOT
