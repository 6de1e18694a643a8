"""Engine-level degradation: pools fail, answers don't.

Every scenario asserts the same contract: when the parallel layer cannot
run (worker crash, un-picklable payload, missing fork), the engine falls
back to serial execution, records the reason in
``stats["parallel_fallback"]``, and still returns exactly the answer the
serial engine computes.  The two seams that open a pool are sprout's
step II and Monte-Carlo's per-world loop.
"""

import pickle

import pytest

from repro import connect, count_
from repro.algebra.expressions import Var
from repro.parallel import pool
from repro.parallel.pool import ParallelUnavailable


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
    def broken(executor, payloads):
        raise ParallelUnavailable(reason, "simulated")

    monkeypatch.setattr(pool, "_gather", broken)


@pytest.mark.usefixtures("per_world_monte_carlo")
class TestMonteCarloDegradation:
    def test_simulated_crash_falls_back_and_matches_serial(
        self, monkeypatch, session
    ):
        query = session.table("R").select("kind")
        serial = session.run(
            query, engine="montecarlo", samples=2000, workers=1
        )
        _broken_pool(monkeypatch, "worker_crash")
        crashed_session = connect(seed=3, database=session.db)
        degraded = crashed_session.run(
            query, engine="montecarlo", samples=2000, workers=2
        )
        assert degraded.stats["parallel_fallback"] == "worker_crash"
        assert degraded.stats["workers"] == 1
        assert _probs(degraded) == _probs(serial)

    def test_sequential_stopping_records_fallback(self, monkeypatch, session):
        # ε small enough that the doubling rounds reach multi-shard
        # batches, where the pool actually engages (and here, "fails").
        serial = connect(seed=9, database=session.db).engine(
            "montecarlo"
        ).estimate_intervals(
            session.table("R").select("kind").build(),
            epsilon=0.05,
            workers=1,
        )
        _broken_pool(monkeypatch, "pickle_error")
        degraded = connect(seed=9, database=session.db).engine(
            "montecarlo"
        ).estimate_intervals(
            session.table("R").select("kind").build(),
            epsilon=0.05,
            workers=4,
        )
        assert degraded[1]["parallel_fallback"] == "pickle_error"
        assert degraded[0] == serial[0]
        assert {
            key: (i.low, i.high) for key, i in degraded[0].items()
        } == {key: (i.low, i.high) for key, i in serial[0].items()}


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
        if not pool.fork_available():
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


class TestSeamsWithoutAPool:
    """``workers=`` off the two seams: a broken pool cannot be noticed,
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
    def test_batched_montecarlo_never_opens_a_pool(
        self, monkeypatch, session, numpy_kernels, options
    ):
        query = session.table("R").select("kind")
        serial = connect(seed=9, database=session.db).run(
            query, engine="montecarlo", **options
        )
        assert serial.stats["batched"] is True
        _broken_pool(monkeypatch, "worker_crash")
        ignored = connect(seed=9, database=session.db).run(
            query, engine="montecarlo", workers=2, **options
        )
        assert "parallel_fallback" not in ignored.stats
        assert "workers" not in ignored.stats
        assert _probs(ignored) == _probs(serial)


class TestNoForkPlatforms:
    def test_all_parallel_engines_degrade_without_fork(
        self, monkeypatch, session, per_world_monte_carlo
    ):
        monkeypatch.setattr(pool, "fork_available", lambda: False)
        query = session.table("R").group_by("kind").agg(n=count_())
        result = session.run(query, engine="sprout", workers=2)
        assert result.stats["parallel_fallback"] == "no_fork"
        mc = connect(seed=5, database=session.db).run(
            session.table("R").select("kind"),
            engine="montecarlo",
            samples=2000,
            workers=2,
        )
        assert mc.stats["parallel_fallback"] == "no_fork"
