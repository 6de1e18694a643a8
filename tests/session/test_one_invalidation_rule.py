"""One invalidation rule: a distribution cache reads what changed from
the registry, so *how* a marginal was reassigned cannot matter.

Until the registry recorded its own reassignments, a compiled
distribution was dropped only when ``PVCDatabase.update(p=)`` pushed a
delta to the caches that had subscribed: ``reassign_probability``, a
bare ``registry.reassign`` and any cache nobody had told to ``watch``
answered the old marginal for good.  Every test here failed on that
tree, except the two sessions that each subscribed themselves; the
oracle is always a cold session over copies of the current rows and
distributions.
"""

from __future__ import annotations

import pytest

from repro import connect, sum_
from repro.core.compile import Compiler
from repro.db.tuple_independent import reassign_probability
from repro.engine.base import CompilationCache
from repro.engine.sprout import SproutEngine
from repro.prob.distribution import Distribution
from repro.server import fingerprint
from tests.property.test_mutation_conformance import rebuilt_from_scratch
from tests.server.test_reply_reuse import KIND_SQL, ask, expected, serve


def items_session(**options):
    s = connect(seed=11, **options)
    t = s.table("items", ["name", "price"])
    for name, price, p in [("inkjet", 99, 0.5), ("laser", 300, 0.4), ("toner", 45, 0.9)]:
        t.insert((name, price), p=p)
    return s


def by_helper(s):
    assert reassign_probability(s.db["items"], s.registry, ("inkjet", 99), 0.9) == "items_0"


def by_registry(s):
    s.registry.reassign("items_0", Distribution.bernoulli(0.9))


def inkjet(result) -> float:
    return dict(result.tuple_probabilities())[("inkjet",)]


@pytest.mark.parametrize("reassign", [by_helper, by_registry])
class TestAWarmSessionSeesABareReassignment:
    @pytest.mark.parametrize("engine", ["sprout", "auto"])
    def test_the_same_query_answers_the_new_marginal(self, reassign, engine):
        s = items_session()
        query = s.table("items").select("name").build()
        assert inkjet(s.run(query, engine=engine)) == pytest.approx(0.5)
        reassign(s)
        warm = s.run(query, engine=engine)
        assert inkjet(warm) == pytest.approx(0.9)
        assert fingerprint(warm) == fingerprint(
            rebuilt_from_scratch(s).run(query, engine=engine)
        )

    def test_session_distribution(self, reassign):
        s = items_session()
        annotation = s.db["items"].rows[0].annotation
        assert s.distribution(annotation)[True] == pytest.approx(0.5)
        reassign(s)
        assert s.distribution(annotation)[True] == pytest.approx(0.9)

    def test_an_accessor_that_goes_through_the_caches_compiler(self, reassign):
        s = items_session()
        query = s.table("items").group_by().agg(total=sum_("price")).build()
        held = s.run(query, engine="sprout").rows[0]
        stale = held.conditional_value_distribution("total")
        reassign(s)
        cold = rebuilt_from_scratch(s).run(query, engine="sprout").rows[0]
        oracle = cold.conditional_value_distribution("total")
        assert not stale.almost_equals(oracle)
        # The row held across the reassignment and a new run's alike.
        assert held.conditional_value_distribution("total").almost_equals(oracle)
        again = s.run(query, engine="sprout").rows[0]
        assert again.conditional_value_distribution("total").almost_equals(oracle)
        assert again.expected_value("total") == pytest.approx(cold.expected_value("total"))


class TestCachesThatWereNeverTold:
    """One database, several caches, no subscription anywhere."""

    def test_two_sessions_sharing_a_database_but_not_a_cache(self):
        one = items_session()
        other = connect(database=one.db)
        assert other.cache is not one.cache
        query = one.table("items").select("name").build()
        for session in (one, other):
            session.run(query, engine="sprout")
        for writer, p in ((one, 0.2), (other, 0.7)):
            writer.table("items").update({"name": "inkjet"}, p=p)
            for reader in (one, other):
                assert inkjet(reader.run(query, engine="sprout")) == pytest.approx(p)

    def test_a_hand_built_cache_beside_a_session(self):
        s = items_session()
        cache = CompilationCache(Compiler(s.registry, s.semiring))
        engine = SproutEngine(s.db, distribution_source=cache)
        query = s.table("items").select("name").build()
        assert inkjet(engine.run(query)) == pytest.approx(0.5)
        s.table("items").update({"name": "inkjet"}, p=0.2)
        assert inkjet(engine.run(query)) == pytest.approx(0.2)
        assert cache.stats()["invalidations"] == 1

    def test_a_cache_built_after_many_reassignments_starts_reconciled(self):
        s = items_session()
        for step in range(50):
            s.registry.reassign("items_1", Distribution.bernoulli(step / 100))
        cache = CompilationCache(Compiler(s.registry, s.semiring))
        annotation = s.db["items"].rows[1].annotation
        assert cache.distribution(annotation)[True] == pytest.approx(0.49)
        assert cache.stats()["invalidations"] == 0
        # ... and the record stays one entry per variable.
        assert s.registry.reassigned_since(0) == ["items_1"]


class TestAServedReplyFollowsTheRegistry:
    def test_a_kept_reply_after_a_mutation_and_after_a_bare_reassignment(self):
        async def scenario(server):
            outside = CompilationCache(Compiler(server.db.registry, server.db.semiring))
            reader = SproutEngine(server.db, distribution_source=outside)
            query = server.statements.get_or_parse(KIND_SQL)[0]
            rounds = []

            async def three_requests():
                replies = [await ask(server, KIND_SQL) for _ in range(3)]
                rounds.append((
                    [r["reply_reused"] for r in replies],
                    [fingerprint(r["result"]) for r in replies],
                    fingerprint(reader.run(query)),
                    expected(server, KIND_SQL),
                ))

            await three_requests()
            await server.mutate(
                {"table": "R", "action": "update", "where": {"kind": "a"}, "p": 0.9}
            )
            await three_requests()
            for name in server.db["R"].facts().annotation_rows:
                server.db.registry.reassign(name, Distribution.bernoulli(0.05))
            await three_requests()
            return rounds

        rounds = serve(scenario)
        oracles = [oracle for *_, oracle in rounds]
        assert len(set(oracles)) == 3  # each change moved the answer
        for reused, served, outside, oracle in rounds:
            assert reused == [False, False, True]
            assert served == [oracle] * 3
            assert outside == oracle
