"""The unified Session facade: connect, tables, engines, caching, seeds."""

import pytest

from repro import (
    NATURALS,
    AggSpec,
    GroupAgg,
    PVCDatabase,
    QueryResult,
    SproutEngine,
    Var,
    VariableRegistry,
    cmp_,
    connect,
    count_,
    lit,
    min_,
    relation,
    sum_,
)
from repro.errors import (
    DistributionError,
    QueryValidationError,
    SchemaError,
)


@pytest.fixture
def shop_session():
    s = connect(seed=11)
    items = s.table("items", ["name", "category", "price"])
    for name, category, price, p in [
        ("inkjet", "printer", 100, 0.8),
        ("laser", "printer", 250, 0.5),
        ("ultrabook", "laptop", 900, 0.6),
        ("netbook", "laptop", 1400, 0.3),
    ]:
        items.insert((name, category, price), p=p)
    return s


def affordable(s):
    return (
        s.table("items")
        .group_by("category")
        .agg(cheapest=min_("price"))
        .where(cmp_("cheapest", "<=", lit(300)))
        .select("category")
    )


class TestTables:
    def test_insert_mints_bernoulli_variables(self, shop_session):
        table = shop_session.db["items"]
        assert len(table) == 4
        assert all(isinstance(row.annotation, Var) for row in table)
        assert len(shop_session.registry) == 4
        assert shop_session.registry["items_0"][True] == pytest.approx(0.8)

    def test_certain_and_explicit_rows(self):
        s = connect()
        t = s.table("t", ["a"])
        t.insert((1,))  # certain
        t.insert((2,), p=1.0)  # also certain
        t.insert((3,), annotation=Var("shared"))
        s.registry.bernoulli("shared", 0.5)
        annotations = [repr(r.annotation) for r in s.db["t"]]
        assert annotations == ["1", "1", "shared"]
        assert len(s.registry) == 1

    def test_insert_rejects_bad_probability(self):
        s = connect()
        t = s.table("t", ["a"])
        with pytest.raises(DistributionError):
            t.insert((1,), p=-0.2)
        with pytest.raises(DistributionError):
            t.insert((1,), p=1.5)
        with pytest.raises(DistributionError):
            t.insert((1,), p=0.5, annotation=Var("x"))

    def test_insert_dict_rows(self):
        s = connect()
        t = s.table("t", ["a", "b"])
        t.insert({"b": 2, "a": 1}, p=0.5)
        assert s.db["t"].rows[0].values == (1, 2)
        with pytest.raises(SchemaError):
            t.insert({"a": 1, "c": 3})

    def test_named_variables_and_freshness(self):
        s = connect()
        t = s.table("t", ["a"])
        t.insert((1,), p=0.3, var="x1")
        t.insert((2,), p=0.4)
        names = {repr(r.annotation) for r in s.db["t"]}
        assert "x1" in names and len(names) == 2

    def test_table_requires_existing_without_columns(self):
        s = connect()
        with pytest.raises(SchemaError):
            s.table("missing")

    def test_table_redefinition_must_match(self):
        s = connect()
        s.table("t", ["a", "b"])
        assert len(s.table("t", ["a", "b"])) == 0  # idempotent
        with pytest.raises(SchemaError):
            s.table("t", ["a", "c"])

    def test_insert_block_needs_summing_probabilities(self):
        s = connect(semiring=NATURALS)
        t = s.table("t", ["a"])
        with pytest.raises(DistributionError):
            t.insert_block([((1,), 0.7), ((2,), 0.6)])
        t.insert_block([((1,), 0.5), ((2,), 0.3)])
        assert len(t) == 2


class TestRun:
    def test_run_returns_query_result(self, shop_session):
        result = affordable(shop_session).run(engine="sprout")
        assert isinstance(result, QueryResult)
        assert result.engine == "sprout"
        assert result.tuple_probabilities()[("printer",)] == pytest.approx(0.9)

    def test_run_accepts_ast_builder_and_sql(self, shop_session):
        s = shop_session
        query = GroupAgg(relation("items"), [], [AggSpec.of("n", "COUNT")])
        from_ast = s.run(query, engine="sprout")
        from_builder = s.table("items").agg(n=count_()).run(engine="sprout")
        from_sql = s.run("SELECT COUNT(*) AS n FROM items", engine="sprout")
        for result in (from_builder, from_sql):
            assert result.tuple_probabilities() == from_ast.tuple_probabilities()

    @pytest.mark.parametrize("samples", [2.5, True, "3"])
    def test_samples_must_be_a_positive_int(self, shop_session, samples):
        """Not a float, bool or string: each used to reach the sampler
        and die there with a ``TypeError`` (or run on ``True`` as 1)."""
        with pytest.raises(QueryValidationError, match="samples"):
            shop_session.sql(
                "SELECT name FROM items", engine="montecarlo", samples=samples
            )

    @pytest.mark.parametrize("budget", [2.5, True])
    def test_budget_must_be_a_positive_int(self, shop_session, budget):
        with pytest.raises(QueryValidationError, match="budget"):
            shop_session.sql(
                "SELECT name FROM items", mode="sample", budget=budget
            )

    def test_unknown_engine_rejected(self, shop_session):
        with pytest.raises(QueryValidationError):
            shop_session.run(affordable(shop_session), engine="postgres")
        with pytest.raises(QueryValidationError):
            connect(engine="postgres")

    def test_auto_picks_sprout_for_tractable(self, shop_session):
        result = affordable(shop_session).run(engine="auto")
        assert result.engine == "sprout"
        assert shop_session.classify(affordable(shop_session)).tractable

    def test_auto_tolerates_certain_rows(self):
        # A certain row is trivially tuple-independent (variable-free
        # annotation); it must not downgrade the table to Monte-Carlo.
        s = connect()
        t = s.table("t", ["a"])
        t.insert((1,), p=0.5)
        t.insert((2,))
        result = s.table("t").select("a").run(engine="auto")
        assert result.engine == "sprout"

    def test_auto_degrades_to_guaranteed_approximation(self, shop_session):
        # Hard queries no longer warn and fall back to an unqualified
        # sample estimate: auto answers them with deterministic interval
        # bounds whose widths meet the (default) ε.
        import warnings

        sql = "SELECT name FROM items WHERE price <= (SELECT MIN(price) FROM items)"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = shop_session.sql(sql)
        assert result.engine == "approx"
        assert result.stats["converged"]
        exact = shop_session.sql(sql, engine="naive").tuple_probabilities()
        for row in result:
            interval = row.probability()
            assert interval.width <= 0.05 + 1e-9
            assert interval.contains(exact.get(row.values, 0.0))

    def test_auto_sample_spec_selects_montecarlo(self, shop_session):
        sql = "SELECT name FROM items WHERE price <= (SELECT MIN(price) FROM items)"
        result = shop_session.sql(sql, mode="sample", epsilon=0.2, delta=0.2)
        assert result.engine == "montecarlo"
        assert result.stats["converged"]
        assert all(row.probability().width <= 0.2 for row in result)

    def test_samples_budget_under_auto(self, shop_session):
        # The legacy fixed budget is harmlessly unused when auto resolves
        # to an exact or bounds-based engine, and rejected only when an
        # exact engine is chosen explicitly.
        easy = affordable(shop_session).run(engine="auto", samples=50)
        assert easy.engine == "sprout"
        sql = "SELECT name FROM items WHERE price <= (SELECT MIN(price) FROM items)"
        hard = shop_session.sql(sql, samples=50)
        assert hard.engine == "approx"
        with pytest.raises(QueryValidationError, match="sample budget"):
            affordable(shop_session).run(engine="sprout", samples=50)

    def test_tuple_independent_cache_invalidates_on_insert(self, shop_session):
        s = shop_session
        assert s.tuple_independent_relations() == {"items"}
        assert s.tuple_independent_relations() == {"items"}  # cached path
        s.table("other", ["a"]).insert((1,), p=0.5)
        assert s.tuple_independent_relations() == {"items", "other"}

    def test_old_engine_api_unchanged(self, shop_session):
        query = affordable(shop_session).build()
        old = SproutEngine(shop_session.db).run(query)
        new = shop_session.run(query, engine="sprout")
        assert old.tuple_probabilities() == pytest.approx(
            new.tuple_probabilities()
        )

    def test_adopted_database_semiring_conflict_rejected(self):
        from repro import NATURALS

        db = PVCDatabase()  # BOOLEAN
        with pytest.raises(QueryValidationError, match="semiring"):
            connect(database=db, semiring=NATURALS)

    def test_session_adopts_existing_database(self):
        reg = VariableRegistry()
        db = PVCDatabase(registry=reg)
        t = db.create_table("t", ["a"])
        reg.bernoulli("x", 0.25)
        t.add((1,), Var("x"))
        s = connect(database=db)
        result = s.run(s.table("t").select("a"), engine="sprout")
        assert result.tuple_probabilities()[(1,)] == pytest.approx(0.25)


class TestCache:
    def test_repeated_runs_hit_the_session_cache(self, shop_session):
        query = affordable(shop_session)
        query.run(engine="sprout")
        misses = shop_session.cache.misses
        assert misses > 0 and shop_session.cache.hits == 0
        query.run(engine="sprout")
        assert shop_session.cache.misses == misses
        assert shop_session.cache.hits == misses

    def test_expression_probability_through_cache(self):
        s = connect()
        s.registry.bernoulli("x", 0.3)
        s.registry.bernoulli("y", 0.5)
        expr = Var("x") + Var("y")
        assert s.probability(expr) == pytest.approx(1 - 0.7 * 0.5)
        assert s.distribution(expr)[False] == pytest.approx(0.7 * 0.5)
        assert s.cache.hits >= 1  # second call reused the first compilation


class TestSeedDeterminism:
    def test_montecarlo_reproducible_from_connect_seed(self, shop_session):
        query = affordable(shop_session).build()

        def sampled():
            s = connect(seed=99)
            items = s.table("items", ["name", "category", "price"])
            for row in shop_session.db["items"]:
                items.insert(row.values, p=0.5)
            return s.run(query, engine="montecarlo", samples=200).tuple_probabilities()

        assert sampled() == sampled()

    def test_workload_reproducible_from_connect_seed(self):
        from repro.workloads.random_expr import ExprParams

        params = ExprParams(left_terms=3, variables=4, clauses=1, literals=2)
        expr_a, reg_a = connect(seed=5).workload(params)
        expr_b, reg_b = connect(seed=5).workload(params)
        expr_c, _ = connect(seed=6).workload(params)
        assert repr(expr_a) == repr(expr_b)
        assert {n: reg_a[n][True] for n in reg_a.names()} == {
            n: reg_b[n][True] for n in reg_b.names()
        }
        assert repr(expr_a) != repr(expr_c)


class TestContextManager:
    def test_with_statement_returns_the_session(self):
        with connect() as s:
            t = s.table("items", ["name"])
            t.insert(("inkjet",), p=0.5)
            result = s.run("SELECT name FROM items")
            assert result.rows[0].probability() == pytest.approx(0.5)
        # Still usable afterwards; the caches were simply cleared.
        assert len(s.cache) == 0
        assert s.run("SELECT name FROM items").rows[0].probability() == (
            pytest.approx(0.5)
        )

    def test_close_clears_compilation_cache_and_engines(self, shop_session):
        s = shop_session
        affordable(s).run(engine="sprout")
        assert len(s.cache) > 0
        engine = s.engine("sprout")
        s.close()
        assert len(s.cache) == 0
        assert s.engine("sprout") is not engine
        assert s.compiler is s.cache.compiler

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            with connect() as s:
                raise RuntimeError("boom")


class TestRunIterAndStats:
    def test_stats_unified_across_engines(self, shop_session):
        query = affordable(shop_session)
        for engine in ("sprout", "naive", "montecarlo"):
            stats = query.run(engine=engine).stats
            assert stats["wall_seconds"] >= 0
            assert stats["rows"] == len(query.run(engine=engine).rows)
        mc = query.run(engine="montecarlo").stats
        assert "samples" in mc and "batched" in mc
        sprout = query.run(engine="sprout").stats
        assert "cache_hits" in sprout and "cache_misses" in sprout

    def test_run_iter_exact_engine_yields_once(self, shop_session):
        snapshots = list(shop_session.run_iter(affordable(shop_session)))
        assert len(snapshots) == 1
        assert snapshots[0].engine == "sprout"

    def test_run_iter_default_spec_for_refining_engines(self, shop_session):
        sql = "SELECT name FROM items WHERE price <= (SELECT MIN(price) FROM items)"
        snapshots = list(shop_session.run_iter(sql, engine="montecarlo"))
        assert snapshots[-1].engine == "montecarlo"
        assert snapshots[-1].stats["converged"]
        widths = [
            max((row.probability().width for row in snap), default=0.0)
            for snap in snapshots
        ]
        assert widths == sorted(widths, reverse=True)

    def test_spec_travels_through_sql(self, shop_session):
        sql = "SELECT name FROM items WHERE price <= (SELECT MIN(price) FROM items)"
        result = shop_session.sql(sql, mode="approx", epsilon=0.2)
        assert result.engine == "approx"
        assert result.stats["epsilon"] == 0.2

    def test_exact_engines_reject_non_exact_specs(self, shop_session):
        with pytest.raises(QueryValidationError, match="exact"):
            affordable(shop_session).run(engine="sprout", mode="approx")
        with pytest.raises(QueryValidationError, match="exact"):
            affordable(shop_session).run(engine="naive", mode="sample")

    def test_spec_fields_respect_the_session_default_engine(self):
        # epsilon= without mode= must imply the mode of the *resolved*
        # engine, not just an explicitly passed engine= argument.
        def shop(engine):
            s = connect(seed=4, engine=engine)
            t = s.table("items", ["name"])
            t.insert(("inkjet",), p=0.5).insert(("laser",), p=0.4)
            return s

        approx = shop("approx").run("SELECT name FROM items", epsilon=0.25)
        assert approx.engine == "approx"
        assert approx.stats["epsilon"] == 0.25
        sampled = shop("montecarlo").run("SELECT name FROM items", epsilon=0.25)
        assert sampled.engine == "montecarlo"
        assert sampled.stats["converged"]
