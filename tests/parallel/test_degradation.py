"""Engine-level degradation: pools fail, answers don't.

Every scenario asserts the same contract: when the parallel layer cannot
run (worker crash, un-picklable payload, missing fork), the engine falls
back to serial execution, records the reason in
``stats["parallel_fallback"]``, and still returns exactly the answer the
serial engine computes.  The one seam that opens a pool is sprout's
step II; the other engines never open one, so a broken pool cannot
touch them.
"""

import pickle
from contextlib import nullcontext

import pytest

from benchmarks.bench_parallel import build_compile_database, compile_query
from repro import NATURALS, EvalSpec, SproutEngine, connect, count_, parallel
from repro.algebra.expressions import Var
from repro.errors import CompilationError, QueryTimeoutError
from repro.parallel import ParallelUnavailable
from repro.resilience import FaultPlan, fault_plan

from tests.conftest import batch_evaluator_off


@pytest.fixture
def session():
    s = connect(seed=3)
    t = s.table("R", ["kind", "value"])
    for kind, value, p in [
        ("a", 10, 0.5),
        ("a", 20, 0.4),
        ("b", 30, 0.7),
        ("b", 40, 0.2),
    ]:
        t.insert((kind, value), p=p)
    return s


def _probs(result):
    return [
        (row.values, row.probability().low, row.probability().high)
        for row in result
    ]


def _broken_pool(monkeypatch, reason):
    def broken(executor, payloads, timeout):
        raise ParallelUnavailable(reason, "simulated")

    monkeypatch.setattr(parallel, "_gather", broken)


class _UnpicklableVar(Var):
    """A variable whose pickling always fails (simulates exotic payloads)."""

    def __reduce__(self):
        raise pickle.PicklingError("refusing to pickle this annotation")


class TestCompilationDegradation:
    def test_unpicklable_annotation_falls_back_and_matches_serial(
        self, monkeypatch
    ):
        """A real end-to-end pickle failure: payload chunks reach the
        call queue, fail to serialize, and the run completes serially."""
        if not parallel.fork_available():
            pytest.skip("no fork on this platform")
        from repro.core.compile import Compiler

        # The compiler dispatches on exact node types; teach it that the
        # test's unpicklable variable compiles like a plain Var.
        monkeypatch.setitem(
            Compiler._DISPATCH, _UnpicklableVar, Compiler._compile_var
        )
        results = {}
        for workers in (1, 2):
            s = connect()
            t = s.table("R", ["kind"])
            for i, name in enumerate(["u0", "u1", "u2"]):
                s.registry.bernoulli(name, 0.3 + 0.1 * i)
                s.db.tables["R"].add((f"k{i}",), _UnpicklableVar(name))
            result = s.run(t.select("kind"), engine="sprout", workers=workers)
            results[workers] = _probs(result)
            if workers == 2:
                assert result.stats["parallel_fallback"] == "pickle_error"
                assert result.stats["workers"] == 1
        assert results[1] == results[2]

    def test_sprout_simulated_crash(self, monkeypatch, session):
        query = session.table("R").group_by("kind").agg(n=count_())
        serial = _probs(session.run(query, engine="sprout", workers=1))
        _broken_pool(monkeypatch, "worker_crash")
        s2 = connect(seed=3, database=session.db)
        degraded = s2.run(query, engine="sprout", workers=2)
        assert degraded.stats["parallel_fallback"] == "worker_crash"
        assert _probs(degraded) == serial


class TestTheSerialContracts:
    """A pooled round answers what the serial loop answers: under the
    timeout policy and under a ⊔ budget alike."""

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_a_round_out_of_time_gives_the_serial_partial(self, workers):
        db = build_compile_database(8, 25, 14)
        query = compile_query(150)
        exact = {row.values: row.probability() for row in SproutEngine(db).run(query)}
        spec = EvalSpec(time_limit=0.05, workers=workers)
        partial = SproutEngine(db).run(query, spec)
        assert partial.stats["deadline_hit"] is True
        assert partial.stats["rows_exact"] < len(partial.rows)
        for row in partial:
            interval = row.probability()
            if interval.width:
                assert (interval.low, interval.high) == (0.0, 1.0)
            else:
                assert interval.low == exact[row.values].low
        with pytest.raises(QueryTimeoutError) as caught:
            SproutEngine(db).run(query, EvalSpec(
                time_limit=0.05, workers=workers, on_timeout="raise"
            ))
        assert caught.value.partial.stats["deadline_hit"] is True

    @pytest.mark.parametrize("workers", [None, 2])
    def test_a_mutex_budget_fails_where_the_serial_loop_fails(
        self, workers, algorithm1_verbatim
    ):
        """A budget belongs to one row's compile, and the costliest row
        needs 39 ⊔ nodes: 30 fails and 40 does not.  The fan-out
        declines under either, since a chunk's fresh memo is not the
        serial loop's and could spend differently."""
        db = build_compile_database(4, 10, 8)
        session = connect(database=db, max_mutex_nodes=30)
        with pytest.raises(CompilationError, match="budget"):
            session.run(compile_query(60), engine="sprout", workers=workers)
        roomy = connect(database=db, max_mutex_nodes=40)
        result = roomy.run(compile_query(60), engine="sprout", workers=workers)
        assert result.stats.get("workers") == (None if workers is None else 1)

    def test_a_budget_is_not_spent_by_an_earlier_query(self, algorithm1_verbatim):
        """``compile_query(60)`` spends 110 ⊔ nodes in all; a session
        with a budget of 120 then still compiles ``compile_query(50)``,
        as a fresh one does."""
        db = build_compile_database(4, 10, 8)
        session = connect(database=db, max_mutex_nodes=120)
        session.run(compile_query(60), engine="sprout")
        used = session.run(compile_query(50), engine="sprout")
        fresh = connect(database=db, max_mutex_nodes=120).run(
            compile_query(50), engine="sprout"
        )
        assert _probs(used) == _probs(fresh)

    def test_a_pooled_round_out_of_time_keeps_the_chunks_it_finished(self):
        """Each worker compiles its first chunk at full speed and then
        stalls past the deadline (injected latency, not the wall clock):
        the finished chunks stay exact, as the serial loop keeps the rows
        it finished, and the rest report ``[0, 1]``."""
        if not parallel.fork_available():
            pytest.skip("no fork on this platform")
        db = build_compile_database(8, 25, 14)
        query = compile_query(150)
        exact = {row.values: row.probability() for row in SproutEngine(db).run(query)}
        plan = FaultPlan().add("pool.worker", "slow", delay=0.8, after=1, times=1)
        with fault_plan(plan):
            partial = SproutEngine(db).run(
                query, EvalSpec(time_limit=0.5, workers=2)
            )
        assert partial.stats["deadline_hit"] is True
        assert 1 <= partial.stats["rows_exact"] < len(partial.rows)
        assert partial.stats["workers"] == 2
        for row in partial:
            interval = row.probability()
            if interval.width:
                assert (interval.low, interval.high) == (0.0, 1.0)
            else:
                assert interval.low == exact[row.values].low


class TestSeamsWithoutAPool:
    """``workers=`` off sprout's seam: a broken pool cannot be noticed,
    because none is opened."""

    def test_approx_never_opens_a_pool(self, monkeypatch, session):
        query = session.table("R").group_by("kind").agg(n=count_())
        serial = _probs(session.run(query, engine="approx", epsilon=0.05))
        _broken_pool(monkeypatch, "worker_crash")
        s2 = connect(seed=3, database=session.db)
        ignored = s2.run(query, engine="approx", epsilon=0.05, workers=2)
        assert "parallel_fallback" not in ignored.stats
        assert "workers" not in ignored.stats
        assert _probs(ignored) == serial

    @pytest.mark.parametrize(
        "options", [{"samples": 2000}, {"epsilon": 0.05}], ids=["fixed", "sequential"]
    )
    @pytest.mark.parametrize("setting", ["batched", "per_world", "naturals"])
    def test_montecarlo_never_opens_a_pool(
        self, monkeypatch, session, setting, options
    ):
        """Batched, on the per-world loop and under bag semantics alike:
        ``workers=`` changes nothing, and a pool that would crash is
        never reached."""
        db = session.db
        if setting == "naturals":
            bag = connect(semiring=NATURALS)
            bag.registry.integer("m", {0: 0.3, 1: 0.3, 2: 0.4})
            bag.registry.integer("n", {0: 0.5, 3: 0.5})
            table = bag.table("R", ["kind", "value"])
            table.insert(("a", 10), annotation=Var("m"))
            table.insert(("b", 20), annotation=Var("m") * Var("n"))
            db = bag.db
        query = connect(database=db).table("R").select("kind")

        def run(**workers):
            with batch_evaluator_off() if setting == "per_world" else nullcontext():
                return connect(seed=9, database=db).run(
                    query, engine="montecarlo", **workers, **options
                )

        serial = run()
        assert serial.stats["batched"] is (setting != "per_world")
        _broken_pool(monkeypatch, "worker_crash")
        ignored = run(workers=2)
        assert "parallel_fallback" not in ignored.stats
        assert "workers" not in ignored.stats
        assert _probs(ignored) == _probs(serial)


class TestNoForkPlatforms:
    def test_all_parallel_engines_degrade_without_fork(
        self, monkeypatch, session, per_world_monte_carlo
    ):
        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        query = session.table("R").group_by("kind").agg(n=count_())
        result = session.run(query, engine="sprout", workers=2)
        assert result.stats["parallel_fallback"] == "no_fork"
        # Monte-Carlo's per-world loop is serial: no pool, nothing to miss.
        mc = connect(seed=5, database=session.db).run(
            session.table("R").select("kind"),
            engine="montecarlo",
            samples=2000,
            workers=2,
        )
        assert "parallel_fallback" not in mc.stats
