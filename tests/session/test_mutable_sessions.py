"""Session-level mutations: handles, lineage selectivity, shared caches.

Three guarantees stack here:

* **End-to-end freshness** — after ``insert``/``update``/``delete``
  through a :class:`TableHandle`, every engine's answer is identical to
  a brand-new session rebuilt from the mutated data (the from-scratch
  oracle).
* **Lineage selectivity** — value-only mutations keep every compiled
  distribution (``invalidations == 0``); a probability update drops
  exactly the dependent entries, so unrelated tables keep cache-hitting.
* **Shared-cache lifecycle** — the PR-10 regression: one tenant's
  ``close()`` must not flush a shared server-level
  :class:`CompilationCache` under the other tenants.
"""

from __future__ import annotations

import pytest

from repro import connect, count_, sum_
from repro.algebra import BOOLEAN, Var
from repro.core.compile import Compiler
from repro.db.pvc_table import PVCDatabase, PVCTable
from repro.engine.base import CompilationCache, PlanCache
from repro.prob.distribution import Distribution
from repro.prob.variables import VariableRegistry
from repro.server import demo_session
from repro.session import Session


def _fingerprint(result):
    """Tuples, probabilities and intervals, exactly as reported."""
    return [
        (row.values, row.probability().low, row.probability().high)
        for row in result
    ]


def fresh_session(session: Session) -> Session:
    """A from-scratch session over copies of ``session``'s mutated data.

    The oracle for every conformance test below: replay the registry
    into a new one, copy each table's rows into new :class:`PVCTable`
    instances, and open a cold :class:`Session` (no warm caches, no
    mutation history) with the same seed/samples.
    """
    registry = VariableRegistry()
    for name, dist in session.registry.items():
        registry.declare(name, dist)
    tables = {
        name: PVCTable(table.schema, list(table.rows))
        for name, table in session.db.tables.items()
    }
    db = PVCDatabase(tables=tables, registry=registry, semiring=session.semiring)
    return Session(
        database=db, seed=session.seed, samples=session.samples
    )


def _seeded_session(seed: int | None = 11) -> Session:
    s = connect(seed=seed)
    t = s.table("items", ["name", "price"])
    for name, price, p in [
        ("inkjet", 99, 0.7),
        ("laser", 300, 0.4),
        ("toner", 45, 0.9),
        ("drum", 120, 0.5),
    ]:
        t.insert((name, price), p=p)
    return s


class TestEndToEndMutations:
    def test_insert_is_visible_to_warm_queries(self):
        s = _seeded_session()
        query = s.table("items").group_by().agg(n=count_())
        before = s.run(query, engine="sprout")
        s.table("items").insert(("cable", 9), p=0.6)
        after = s.run(query, engine="sprout")
        assert _fingerprint(before) != _fingerprint(after)
        assert _fingerprint(after) == _fingerprint(
            fresh_session(s).run(query.build(), engine="sprout")
        )

    def test_update_values_matches_fresh_session(self):
        s = _seeded_session()
        query = s.table("items").group_by().agg(total=sum_("price"))
        s.run(query, engine="sprout")  # warm the caches first
        changed = s.table("items").update({"name": "laser"}, {"price": 250})
        assert changed == 1
        warm = s.run(query, engine="sprout")
        cold = fresh_session(s).run(query.build(), engine="sprout")
        assert _fingerprint(warm) == _fingerprint(cold)

    def test_update_probability_matches_fresh_session(self):
        s = _seeded_session()
        query = s.table("items").select("name")
        s.run(query, engine="sprout")
        assert s.table("items").update({"name": "inkjet"}, p=0.05) == 1
        warm = s.run(query, engine="sprout")
        cold = fresh_session(s).run(query.build(), engine="sprout")
        assert _fingerprint(warm) == _fingerprint(cold)
        inkjet = dict(warm.tuple_probabilities())
        assert inkjet[("inkjet",)] == pytest.approx(0.05)

    def test_delete_matches_fresh_session(self):
        s = _seeded_session()
        query = s.table("items").group_by().agg(n=count_())
        s.run(query, engine="sprout")
        assert s.table("items").delete({"name": "toner"}) == 1
        warm = s.run(query, engine="sprout")
        cold = fresh_session(s).run(query.build(), engine="sprout")
        assert _fingerprint(warm) == _fingerprint(cold)

    def test_mixed_script_conformance_across_engines(self):
        """A deterministic insert/update/delete script, then the engine
        grid: every warm answer equals the from-scratch oracle's."""
        s = _seeded_session(seed=7)
        t = s.table("items")
        warmers = [
            t.select("name"),
            t.group_by().agg(total=sum_("price")),
        ]
        for query in warmers:
            s.run(query, engine="sprout")
        t.insert(("cable", 9), p=0.6).insert(("stand", 75), p=0.3)
        t.update({"name": "drum"}, {"price": 99})
        t.update({"name": "toner"}, p=0.25)
        t.delete({"name": "laser"})
        oracle = fresh_session(s)
        for query in warmers:
            built = query.build()
            for engine, options in [
                ("sprout", {}),
                ("naive", {}),
                ("sprout", {"workers": 2}),
                ("approx", {"epsilon": 0.01}),
                ("montecarlo", {"epsilon": 0.06}),
            ]:
                warm = s.run(built, engine=engine, **options)
                cold = oracle.run(built, engine=engine, **options)
                assert _fingerprint(warm) == _fingerprint(cold), (
                    engine,
                    options,
                )


class TestLineageSelectivity:
    def test_value_updates_keep_compiled_distributions(self):
        s = _seeded_session()
        query = s.table("items").select("name")
        s.run(query, engine="sprout")
        warmed = s.cache.stats()
        assert warmed["misses"] > 0
        s.table("items").update({"name": "inkjet"}, {"price": 101})
        s.table("items").insert(("cable", 9), p=0.6)
        s.table("items").delete({"name": "drum"})
        stats = s.cache.stats()
        assert stats["invalidations"] == 0
        assert stats["entries"] == warmed["entries"]
        # Surviving rows' annotations are unchanged, so the re-run only
        # compiles the one newly inserted variable.
        s.run(query, engine="sprout")
        assert s.cache.stats()["misses"] == warmed["misses"] + 1

    def test_probability_update_invalidates_only_dependents(self):
        s = connect()
        a = s.table("a", ["x"]).insert((1,), p=0.5).insert((2,), p=0.4)
        b = s.table("b", ["y"]).insert((10,), p=0.7).insert((20,), p=0.2)
        s.run(a.select("x"), engine="sprout")
        s.run(b.select("y"), engine="sprout")
        warmed = s.cache.stats()
        assert s.db.update("a", {"x": 1}, p=0.9) == 1
        stats = s.cache.stats()
        assert stats["invalidations"] > 0
        assert stats["invalidations"] < warmed["entries"]
        # b's entries survived: its re-run is pure hits, no new compile.
        s.run(b.select("y"), engine="sprout")
        assert s.cache.stats()["misses"] == stats["misses"]
        # a recompiles its dropped entries and matches the oracle.
        warm = s.run(a.select("x"), engine="sprout")
        assert s.cache.stats()["misses"] > stats["misses"]
        cold = fresh_session(s).run(a.select("x").build(), engine="sprout")
        assert _fingerprint(warm) == _fingerprint(cold)

    def test_a_probability_update_reaches_the_session_cache(self):
        s = _seeded_session()
        s.run(s.table("items").select("name"), engine="sprout")
        compiler = s.compiler
        assert s.cache.stats()["invalidations"] == 0
        s.table("items").update({"name": "inkjet"}, p=0.2)
        assert s.cache.stats()["invalidations"] == 1
        assert s.compiler is not compiler  # the d-tree memo went with it


class TestSharedCacheLifecycle:
    """The PR-10 regression: ``Session.close()`` on a shared cache."""

    def _shared_setup(self):
        registry = VariableRegistry()
        db = PVCDatabase(registry=registry)
        db.create_table("items", ["name", "price"])
        db.insert("items", ("inkjet", 99), p=0.7)
        db.insert("items", ("laser", 300), p=0.4)
        cache = CompilationCache(Compiler(registry, db.semiring))
        tenant_a = connect(database=db, cache=cache)
        tenant_b = connect(database=db, cache=cache)
        return cache, tenant_a, tenant_b

    def test_tenant_close_keeps_other_tenants_warm(self):
        cache, tenant_a, tenant_b = self._shared_setup()
        query = tenant_a.table("items").select("name").build()
        tenant_a.run(query, engine="sprout")
        warmed = cache.stats()
        assert warmed["entries"] > 0

        tenant_a.close()

        stats = cache.stats()
        assert stats["entries"] == warmed["entries"]
        assert stats["invalidations"] == warmed["invalidations"]
        # Tenant B rides A's warm entries: hits only, zero new compiles.
        tenant_b.run(query, engine="sprout")
        after = cache.stats()
        assert after["misses"] == warmed["misses"]
        assert after["hits"] > warmed["hits"]

    def test_owned_cache_is_still_cleared_on_close(self):
        s = _seeded_session()
        s.run(s.table("items").select("name"), engine="sprout")
        assert len(s.cache) > 0
        s.close()
        assert len(s.cache) == 0

    def test_closed_tenant_stays_usable_and_fresh(self):
        cache, tenant_a, tenant_b = self._shared_setup()
        query = tenant_b.table("items").select("name").build()
        tenant_b.run(query, engine="sprout")
        tenant_a.close()
        tenant_b.db.update("items", {"name": "inkjet"}, p=0.1)
        result = tenant_b.run(query, engine="sprout")
        probabilities = dict(result.tuple_probabilities())
        assert probabilities[("inkjet",)] == pytest.approx(0.1)
        # The closed tenant can keep querying too (recompiles on demand).
        closed = tenant_a.run(query, engine="sprout")
        assert _fingerprint(closed) == _fingerprint(result)


    def test_a_cache_follows_its_registry_not_a_database(self):
        # The cache used to subscribe to a database (and once remembered
        # ``id(db)``, so a database rebuilt at a dead one's address was
        # never watched).  It reads the registry: whichever database the
        # update came through — or none — it answers the new marginal.
        registry = VariableRegistry()
        registry.bernoulli("v", 0.5)
        cache = CompilationCache(Compiler(registry, BOOLEAN))
        for p in (0.9, 0.1, 0.8, 0.2):  # build, update, drop
            db = PVCDatabase(registry=registry)
            db.create_table("items", ["name"])
            db.insert("items", ("inkjet",), annotation=Var("v"))
            cache.distribution(Var("v"))
            db.update("items", {"name": "inkjet"}, p=p)
            assert cache.distribution(Var("v"))[True] == pytest.approx(p)
            del db
        registry.reassign("v", Distribution.bernoulli(0.3))
        assert cache.distribution(Var("v"))[True] == pytest.approx(0.3)


class TestPlanMemo:
    """The session's :class:`PlanCache` is the one plan memo, keyed on the
    row counts of exactly the tables a query reads."""

    JOIN = "SELECT label FROM R, T WHERE kind = rkind"  # reads R and T, not B

    def test_same_sql_text_plans_once(self):
        s = _seeded_session()  # a plain connect(): no plan_cache= passed
        sql = "SELECT name FROM items WHERE price >= 100"
        assert _fingerprint(s.sql(sql)) == _fingerprint(s.sql(sql))
        stats = s.plan_cache.stats()
        assert (stats["misses"], stats["hits"], stats["entries"]) == (1, 1, 1)

    def test_write_to_an_unrelated_table_keeps_the_plan(self):
        s = demo_session()
        s.sql(self.JOIN, engine="sprout")
        rows = len(s.table("B"))
        s.table("B").insert((99, 70), p=0.5)
        s.table("B").delete({"slot": 0})
        assert len(s.table("B")) != rows
        before = s.plan_cache.stats()
        warm = s.sql(self.JOIN, engine="sprout")
        after = s.plan_cache.stats()
        assert (after["hits"], after["misses"]) == (
            before["hits"] + 1,
            before["misses"],
        )
        cold = fresh_session(s).sql(self.JOIN, engine="sprout")
        assert _fingerprint(warm) == _fingerprint(cold)  # row order included

    def test_write_to_a_read_table_replans(self):
        s = demo_session()
        s.sql(self.JOIN, engine="sprout")
        # T (4 rows) overtakes R (8 rows): the greedy join order flips,
        # exactly as it does for a session built on the final data.
        for i in range(6):
            s.table("T").insert(("a", f"extra-{i}"), p=0.5)
        before = s.plan_cache.stats()
        warm = s.sql(self.JOIN, engine="sprout")
        after = s.plan_cache.stats()
        assert (after["hits"], after["misses"]) == (
            before["hits"],
            before["misses"] + 1,
        )
        cold = fresh_session(s).sql(self.JOIN, engine="sprout")
        assert _fingerprint(warm) == _fingerprint(cold)  # row order included

    def test_close_clears_an_owned_plan_cache_only(self):
        shared = PlanCache()
        owner, tenant = _seeded_session(), connect(plan_cache=shared)
        tenant.table("t", ["a"]).insert((1,), p=0.5)
        owner.sql("SELECT name FROM items")
        tenant.sql("SELECT a FROM t")
        owner.close()
        tenant.close()
        assert len(owner.plan_cache) == 0
        assert len(shared) == 1


class TestTupleIndependenceMemo:
    def test_memo_is_stable_between_mutations(self):
        s = _seeded_session()
        first = s.tuple_independent_relations()
        assert "items" in first
        assert s.tuple_independent_relations() is first

    def test_memo_refreshes_after_mutation(self):
        s = connect()
        s.table("r", ["x"]).insert((1,), p=0.5)
        assert "r" in s.tuple_independent_relations()
        # Reusing the variable across rows breaks independence; the
        # generation-keyed memo must notice on the next call.
        s.db.registry.bernoulli("shared", 0.5)
        s.db.insert("r", (2,), annotation=Var("shared"))
        s.db.insert("r", (3,), annotation=Var("shared"))
        assert "r" not in s.tuple_independent_relations()

    def test_equal_size_value_update_moves_the_key(self):
        """The old (tables, rows, registry-size) fingerprint was blind to
        this: same row count, same registry size, different state."""
        s = _seeded_session()
        before = s.tuple_independent_relations()
        s.table("items").update({"name": "inkjet"}, {"price": 1})
        after = s.tuple_independent_relations()
        assert after is not before  # recomputed, not served stale
        assert after == before  # ...and still independent, of course

    def test_probability_update_keeps_the_memo(self):
        """A ``p=`` reassignment moves only the registry epoch; it cannot
        change independence, so no tenant recomputes anything."""
        s = _seeded_session()
        before = s.tuple_independent_relations()
        s.table("items").update({"name": "inkjet"}, p=0.9)
        assert s.tuple_independent_relations() is before

    def test_memo_is_shared_by_sessions_over_one_database(self):
        s = _seeded_session()
        other = connect(database=s.db)
        assert other.tuple_independent_relations() is (
            s.tuple_independent_relations()
        )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
