"""The approx engine: anytime interval answers with deterministic bounds."""

import pytest

from repro import Var, connect
from repro.engine.approximate import ApproxEngine
from repro.engine.base import Engine, create_engine
from repro.engine.spec import EvalSpec, ProbInterval
from repro.errors import QueryValidationError


@pytest.fixture
def hard_session():
    """A session whose query is outside Q_ind/Q_hie (correlated rows).

    The annotations are non-read-once (variables shared across factors),
    so the independence rules alone cannot resolve them: real Shannon
    expansions are needed and a tiny budget leaves genuine width.
    """
    return build_hard_session(seed=7)


def build_hard_session(**options):
    s = connect(**options)
    for name, p in [("w1", 0.45), ("w2", 0.6), ("w3", 0.3), ("w4", 0.7)]:
        s.registry.bernoulli(name, p)
    w1, w2, w3, w4 = (Var(f"w{i}") for i in (1, 2, 3, 4))
    s.table("W", ["a"])
    s.db.insert("W", (1,), annotation=(w1 + w2) * (w1 + w3) * (w2 + w4))
    s.db.insert("W", (2,), annotation=(w2 + w3) * (w2 + w4) * (w3 + w1))
    s.db.insert("W", (3,), annotation=(w3 + w4) * (w3 + w1))
    return s


def hard_query(s):
    return s.table("W").select("a")


class TestEngine:
    def test_satisfies_engine_protocol(self, hard_session):
        engine = hard_session.engine("approx")
        assert isinstance(engine, Engine)
        assert isinstance(engine, ApproxEngine)
        assert isinstance(create_engine("approx", hard_session.db), ApproxEngine)

    def test_intervals_contain_the_oracle(self, hard_session):
        q = hard_query(hard_session)
        exact = hard_session.run(q, engine="naive").tuple_probabilities()
        result = hard_session.run(q, engine="approx", epsilon=0.01)
        assert result.engine == "approx"
        for row in result:
            interval = row.probability()
            assert isinstance(interval, ProbInterval)
            assert interval.contains(exact[row.values])
            assert interval.width <= 0.01 + 1e-9

    def test_stats_surface(self, hard_session):
        result = hard_session.run(hard_query(hard_session), engine="approx")
        for key in (
            "wall_seconds", "rows", "rounds", "expansions", "converged",
            "max_width", "epsilon",
        ):
            assert key in result.stats
        assert result.stats["converged"] is True
        assert result.timings["rewrite_seconds"] >= 0

    def test_budget_cap_is_honored_but_sound(self, hard_session):
        q = hard_query(hard_session)
        exact = hard_session.run(q, engine="naive").tuple_probabilities()
        result = hard_session.run(
            q, engine="approx", spec=EvalSpec(mode="approx", epsilon=0.0, budget=1)
        )
        assert result.stats["expansions"] <= 1
        assert not result.stats["converged"]
        for row in result:
            assert row.probability().contains(exact[row.values])

    def test_exact_mode_collapses_all_intervals(self, hard_session):
        q = hard_query(hard_session)
        exact = hard_session.run(q, engine="naive").tuple_probabilities()
        result = hard_session.run(q, engine="approx", spec=EvalSpec(mode="exact"))
        for row in result:
            interval = row.probability()
            assert interval.is_point
            assert interval.value == pytest.approx(exact[row.values])

    def test_rejects_sample_spec_and_options(self, hard_session):
        engine = hard_session.engine("approx")
        q = hard_query(hard_session).build()
        with pytest.raises(QueryValidationError, match="montecarlo"):
            engine.run(q, spec=EvalSpec(mode="sample"))
        with pytest.raises(QueryValidationError, match="run options"):
            engine.run(q, compute_probabilities=True)

    def test_rows_keep_symbolic_accessors(self, hard_session):
        result = hard_session.run(hard_query(hard_session), engine="approx")
        exact = hard_session.run(
            hard_query(hard_session), engine="naive"
        ).tuple_probabilities()
        row = next(r for r in result if r.values == (1,))
        # The exact accessors still work (they compile on demand).
        dist = row.annotation_distribution()
        assert 1.0 - dist[False] == pytest.approx(exact[(1,)])


class TestRunIter:
    def test_snapshots_nest_monotonically(self, hard_session):
        q = hard_query(hard_session)
        exact = hard_session.run(q, engine="naive").tuple_probabilities()
        snapshots = list(
            hard_session.run_iter(q, engine="approx", epsilon=1e-6)
        )
        assert snapshots[-1].stats["converged"]
        previous = None
        for snapshot in snapshots:
            current = {
                row.values: row.probability() for row in snapshot
            }
            for values, interval in current.items():
                assert interval.contains(exact[values])
                if previous is not None:
                    assert interval.low >= previous[values].low - 1e-12
                    assert interval.high <= previous[values].high + 1e-12
            previous = current

    def test_snapshots_are_independent_objects(self, hard_session):
        snapshots = list(
            hard_session.run_iter(
                hard_query(hard_session), engine="approx", epsilon=1e-9
            )
        )
        if len(snapshots) > 1:
            first, last = snapshots[0], snapshots[-1]
            assert first.rows[0] is not last.rows[0]

    def test_exact_engine_yields_single_result(self, hard_session):
        snapshots = list(
            hard_session.run_iter(hard_query(hard_session), engine="naive")
        )
        assert len(snapshots) == 1
        assert snapshots[0].engine == "naive"

    def test_top_k_early_termination_loop(self, hard_session):
        q = hard_query(hard_session)
        exact = hard_session.run(q, engine="naive").tuple_probabilities()
        winner = max(exact, key=exact.get)
        for snapshot in hard_session.run_iter(q, engine="approx", epsilon=1e-9):
            top = snapshot.top_k(1)
            if top.stats["top_k_decided"]:
                break
        assert top.stats["top_k_decided"]
        assert top.rows[0].values == winner


class TestCompilerOptions:
    def test_approx_follows_the_session_heuristic(self, algorithm1_verbatim):
        """The approximation's Shannon step is the compiler's: it picks
        variables with the session's ``heuristic=``."""
        chosen = []

        def lexicographic_spy(expr, candidates):
            chosen.append(min(candidates))
            return chosen[-1]

        s = build_hard_session(seed=7, heuristic=lexicographic_spy)
        q = hard_query(s)
        exact = s.run(q, engine="naive").tuple_probabilities()
        result = s.run(q, engine="approx", epsilon=0.01)
        assert chosen
        for row in result:
            assert row.probability().contains(exact[row.values])
