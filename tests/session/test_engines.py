"""The Engine protocol: four engines, one QueryResult type — and the
serial-vs-parallel conformance matrix (every engine × worker count)."""

import pytest

from repro import (
    ApproxEngine,
    Engine,
    MonteCarloEngine,
    NaiveEngine,
    SproutEngine,
    connect,
    count_,
    create_engine,
    sum_,
)
from repro.engine.base import select_engine_name
from repro.errors import CompilationError, QueryValidationError


@pytest.fixture
def session():
    s = connect(seed=3)
    t = s.table("R", ["kind", "value"])
    for kind, value, p in [
        ("a", 10, 0.5),
        ("a", 20, 0.4),
        ("b", 30, 0.7),
    ]:
        t.insert((kind, value), p=p)
    return s


def grouped(s):
    return s.table("R").group_by("kind").agg(n=count_())


class TestProtocol:
    def test_engines_satisfy_protocol(self, session):
        for name in ("sprout", "approx", "naive", "montecarlo"):
            engine = session.engine(name)
            assert isinstance(engine, Engine)
            assert engine.name == name

    def test_create_engine_dispatch(self, session):
        for name, engine_class in [
            ("sprout", SproutEngine),
            ("approx", ApproxEngine),
            ("naive", NaiveEngine),
            ("montecarlo", MonteCarloEngine),
        ]:
            assert type(create_engine(name, session.db)) is engine_class
        with pytest.raises(QueryValidationError):
            create_engine("quantum", session.db)

    def test_engines_are_cached_per_session(self, session):
        assert session.engine("naive") is session.engine("naive")


class TestResultParity:
    def test_exact_engines_agree_to_1e9(self, session):
        query = grouped(session)
        sprout = query.run(engine="sprout").tuple_probabilities()
        naive = query.run(engine="naive").tuple_probabilities()
        assert set(sprout) == set(naive)
        for key in naive:
            assert abs(sprout[key] - naive[key]) < 1e-9

    def test_montecarlo_converges(self, session):
        query = grouped(session)
        exact = query.run(engine="naive").tuple_probabilities()
        sampled = query.run(engine="montecarlo", samples=8000).tuple_probabilities()
        for key, probability in exact.items():
            assert sampled.get(key, 0.0) == pytest.approx(probability, abs=0.05)

    def test_all_engines_return_query_result_rows(self, session):
        query = session.table("R").select("kind")
        for name in ("sprout", "naive", "montecarlo"):
            result = query.run(engine=name)
            assert result.engine == name
            assert result.schema.attributes == ("kind",)
            for row in result:
                assert 0.0 <= row.probability() <= 1.0 + 1e-12

    def test_concrete_rows_reject_symbolic_accessors(self, session):
        result = session.table("R").select("kind").run(engine="naive")
        row = result.rows[0]
        assert row.probability() > 0  # precomputed, no compiler needed
        with pytest.raises(CompilationError):
            row.annotation_distribution()

    def test_naive_rejects_run_options(self, session):
        with pytest.raises(QueryValidationError):
            session.run(session.table("R").select("kind"), engine="naive", samples=10)

    def test_montecarlo_rejects_unknown_run_options(self, session):
        # In particular, an auto-fallback carrying sprout-only options must
        # fail with a library error, not a raw TypeError.
        with pytest.raises(QueryValidationError, match="samples"):
            session.run(
                session.table("R").select("kind"),
                engine="montecarlo",
                compute_probabilities=True,
            )

    def test_timings_report_engine_step(self, session):
        query = session.table("R").select("kind")
        assert "enumeration_seconds" in query.run(engine="naive").timings
        assert "sampling_seconds" in query.run(engine="montecarlo").timings
        sprout = query.run(engine="sprout").timings
        assert {"rewrite_seconds", "probability_seconds"} <= set(sprout)


class TestAutoSelection:
    def test_tractable_query_selects_sprout(self, session):
        name, classification = select_engine_name(
            session.db, grouped(session).build()
        )
        assert name == "sprout"
        assert classification.tractable

    def test_hard_query_degrades_to_guaranteed_approximation(self, session):
        # Repeating a base relation leaves Q_ind/Q_hie (Section 6); the
        # redesigned auto policy degrades to deterministic ε-bounds
        # instead of warning and sampling without a guarantee.
        import warnings

        from repro.query.ast import Product, Project, relation

        repeated = Project(Product(relation("R"), relation("R")), ["kind"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            name, classification = select_engine_name(session.db, repeated)
        assert name == "approx"
        assert not classification.tractable

    def test_hard_query_with_sample_spec_selects_montecarlo(self, session):
        from repro.engine.spec import EvalSpec
        from repro.query.ast import Product, Project, relation

        repeated = Project(Product(relation("R"), relation("R")), ["kind"])
        name, classification = select_engine_name(
            session.db, repeated, spec=EvalSpec(mode="sample")
        )
        assert name == "montecarlo"
        assert not classification.tractable


# -- the serial-vs-parallel conformance matrix --------------------------------

#: The worker grid of the conformance matrix.  Seeded results must be
#: identical across all three settings — 1 runs the sharded scheme
#: inline, 2 runs it on a real process pool, "auto" resolves to the
#: machine's CPU count.
WORKER_GRID = (1, 2, "auto")


def _zoo_session(seed=3):
    """A fresh seeded session per matrix cell (engines hold RNG state)."""
    s = connect(seed=seed)
    t = s.table("R", ["kind", "value"])
    for kind, value, p in [
        ("a", 10, 0.5),
        ("a", 20, 0.4),
        ("b", 30, 0.7),
        ("b", 40, 0.2),
        ("c", 40, 0.9),
    ]:
        t.insert((kind, value), p=p)
    u = s.table("T", ["rkind", "label"])
    u.insert(("a", "hot"), p=0.6).insert(("b", "cold"), p=0.8)
    return s


def _queries(s):
    """The query zoo: projection, join, group-agg (COUNT and SUM),
    multi-tuple and single-tuple answers."""
    from repro.query.predicates import cmp_

    return {
        "project": s.table("R").select("kind"),
        "group_count": s.table("R").group_by("kind").agg(n=count_()),
        "group_sum": s.table("R").group_by("kind").agg(total=sum_("value")),
        "filtered": s.table("R").where(cmp_("value", "<=", 30)).select("kind"),
        "join": s.table("R")
        .join(s.table("T"), on=[("kind", "rkind")])
        .select("label"),
    }


def _fingerprint(result):
    """Tuples, probabilities and intervals, exactly as reported."""
    return [
        (row.values, row.probability().low, row.probability().high)
        for row in result
    ]


class TestSerialParallelConformance:
    """Every engine × workers ∈ {1, 2, "auto"} → identical answers.

    Exact identity — not approximate: the sharded Monte-Carlo scheme and
    the parallel compilation fan-out are bit-deterministic by
    construction, so the fingerprints (values, interval low, interval
    high) must match to the last bit.
    """

    @pytest.mark.parametrize("name", list(_queries(_zoo_session())))
    def test_sprout_matrix(self, name):
        fingerprints = []
        for workers in WORKER_GRID:
            s = _zoo_session()
            result = s.run(_queries(s)[name], engine="sprout", workers=workers)
            assert result.stats.get("parallel_fallback") is None
            fingerprints.append(_fingerprint(result))
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    @pytest.mark.parametrize("name", list(_queries(_zoo_session())))
    def test_naive_matrix(self, name):
        fingerprints = []
        for workers in WORKER_GRID:
            s = _zoo_session()
            result = s.run(_queries(s)[name], engine="naive", workers=workers)
            fingerprints.append(_fingerprint(result))
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    @pytest.mark.parametrize("name", ["project", "group_count", "join"])
    def test_approx_matrix(self, name):
        fingerprints = []
        for workers in WORKER_GRID:
            s = _zoo_session()
            result = s.run(
                _queries(s)[name],
                engine="approx",
                epsilon=0.01,
                workers=workers,
            )
            assert result.stats.get("parallel_fallback") is None
            fingerprints.append(_fingerprint(result))
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    @pytest.mark.parametrize("name", ["project", "group_count", "filtered"])
    def test_montecarlo_sequential_matrix(self, name):
        fingerprints = []
        stats = []
        for workers in WORKER_GRID:
            s = _zoo_session(seed=17)
            result = s.run(
                _queries(s)[name],
                engine="montecarlo",
                workers=workers,
                epsilon=0.06,
            )
            assert result.stats.get("parallel_fallback") is None
            fingerprints.append(_fingerprint(result))
            stats.append(result.stats)
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]
        # The stopping decision itself is part of the conformance
        # guarantee: same rounds, same samples, regardless of workers.
        assert stats[0]["samples"] == stats[1]["samples"] == stats[2]["samples"]
        assert stats[0]["rounds"] == stats[1]["rounds"] == stats[2]["rounds"]

    @pytest.mark.parametrize("name", ["project", "group_sum"])
    def test_montecarlo_fixed_budget_matrix(self, name):
        fingerprints = []
        for workers in WORKER_GRID:
            s = _zoo_session(seed=23)
            result = s.run(
                _queries(s)[name],
                engine="montecarlo",
                samples=2048,
                workers=workers,
            )
            assert result.stats.get("parallel_fallback") is None
            fingerprints.append(_fingerprint(result))
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    def test_auto_engine_matrix(self):
        fingerprints = []
        for workers in WORKER_GRID:
            s = _zoo_session()
            result = s.run(
                _queries(s)["group_count"], engine="auto", workers=workers
            )
            fingerprints.append(_fingerprint(result))
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    def test_run_iter_snapshots_conform(self):
        """Anytime snapshots, not just final answers, match across the
        worker grid (Monte-Carlo sequential stopping)."""
        trajectories = []
        for workers in (1, 2):
            s = _zoo_session(seed=31)
            snaps = [
                _fingerprint(snapshot)
                for snapshot in s.run_iter(
                    _queries(s)["project"],
                    engine="montecarlo",
                    workers=workers,
                    epsilon=0.06,
                )
            ]
            trajectories.append(snaps)
        assert trajectories[0] == trajectories[1]

    def test_workers_validation_at_the_session(self):
        s = _zoo_session()
        with pytest.raises(QueryValidationError, match="workers"):
            s.run(_queries(s)["project"], engine="sprout", workers=0)
        with pytest.raises(QueryValidationError, match="workers"):
            s.run(_queries(s)["project"], engine="sprout", workers="many")

    def test_workers_alone_never_changes_the_answer_mode(self):
        """``workers`` is a pure execution knob: adding it to a bare
        Monte-Carlo run keeps the legacy fixed-budget point estimator
        (same default budget, same draws as the sharded serial run) —
        it must not flip the run into sequential-stopping mode."""
        s = _zoo_session(seed=41)
        legacy = s.run(_queries(s)["project"], engine="montecarlo")
        s2 = _zoo_session(seed=41)
        sharded = s2.run(_queries(s2)["project"], engine="montecarlo", workers=2)
        assert sharded.stats["samples"] == legacy.stats["samples"] == 1000
        assert "rounds" not in sharded.stats  # not sequential stopping
        s3 = _zoo_session(seed=41)
        serial_sharded = s3.run(
            _queries(s3)["project"], engine="montecarlo", workers=1
        )
        assert _fingerprint(sharded) == _fingerprint(serial_sharded)

    def test_explicit_exact_spec_still_rejected_by_montecarlo(self):
        """The exactness guard survives the workers knob: an explicit
        exact-mode request is an error, and adding ``workers=`` to it
        must not launder it into a sampled run."""
        from repro.engine.spec import EvalSpec

        s = _zoo_session()
        with pytest.raises(QueryValidationError, match="exact"):
            s.run(_queries(s)["project"], engine="montecarlo", mode="exact")
        with pytest.raises(QueryValidationError, match="exact"):
            s.run(
                _queries(s)["project"],
                engine="montecarlo",
                mode="exact",
                workers=2,
            )
        with pytest.raises(QueryValidationError, match="exact"):
            s.run(_queries(s)["project"], engine="montecarlo", spec="exact")
        with pytest.raises(QueryValidationError, match="exact"):
            s.run(
                _queries(s)["project"],
                engine="montecarlo",
                spec=EvalSpec(mode="exact", epsilon=0.2, workers=2),
            )
        with pytest.raises(QueryValidationError, match="exact"):
            # The all-defaults spec object is an exact request too.
            s.run(_queries(s)["project"], engine="montecarlo", spec=EvalSpec())
        # One spelling is irreducibly ambiguous: EvalSpec(mode="exact",
        # workers=2) is *value-identical* to EvalSpec(workers=2) — exact
        # is the default mode — so it resolves as a pure-execution spec
        # and shards the legacy estimator rather than raising.
        ambiguous = s.run(
            _queries(s)["project"],
            engine="montecarlo",
            spec=EvalSpec(mode="exact", workers=2),
        )
        assert ambiguous.stats["samples"] == 1000

    def test_mode_override_beats_base_spec_mode(self):
        """A ``mode=`` override applies before the exactness guard: a
        workers-only (or even "exact") base spec overridden to "sample"
        is a valid Monte-Carlo request."""
        from repro.engine.spec import EvalSpec

        s = _zoo_session(seed=7)
        r = s.run(
            _queries(s)["project"],
            engine="montecarlo",
            spec=EvalSpec(workers=2),
            mode="sample",
        )
        assert "rounds" in r.stats  # sequential stopping engaged
        s2 = _zoo_session(seed=7)
        r2 = s2.run(
            _queries(s2)["project"],
            engine="montecarlo",
            spec="exact",
            mode="sample",
        )
        assert "rounds" in r2.stats

    def test_workers_only_spec_object_runs_legacy_estimator(self):
        """``spec=EvalSpec(workers=2)`` is pure execution, not an exact
        request: it shards the legacy fixed-budget estimator."""
        from repro.engine.spec import EvalSpec

        s = _zoo_session(seed=13)
        r = s.run(
            _queries(s)["project"],
            engine="montecarlo",
            spec=EvalSpec(workers=2),
        )
        assert r.stats["samples"] == 1000
        assert "rounds" not in r.stats
