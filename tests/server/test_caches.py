"""The shared engine-layer caches: bounded LRU, counters, thread-safety,
and the bound a shared distribution cache puts on its compiler."""

import gc
import sys
import threading
import time
import tracemalloc

import pytest

from benchmarks.bench_parallel import build_compile_database, compile_query
from repro import CompilationCache, PlanCache, connect
from repro.algebra.expressions import Var, ssum
from repro.algebra.semiring import BOOLEAN
from repro.core.compile import Compiler
from repro.engine.approximate import ApproxEngine
from repro.engine.spec import EvalSpec
from repro.engine.sprout import SproutEngine
from repro.errors import QueryValidationError
from repro.prob.variables import VariableRegistry
from repro.query.ast import Project, relation


def make_cache(max_entries=None, variables=32):
    registry = VariableRegistry()
    for i in range(variables):
        registry.bernoulli(f"x{i}", 0.5)
    return CompilationCache(Compiler(registry, BOOLEAN), max_entries=max_entries)


class TestCompilationCacheLRU:
    def test_hit_miss_counters(self):
        cache = make_cache()
        cache.distribution(Var("x0"))
        cache.distribution(Var("x0"))
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1 and stats["evictions"] == 0

    def test_eviction_past_bound(self):
        cache = make_cache(max_entries=2)
        for i in range(3):
            cache.distribution(Var(f"x{i}"))
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        # x0 was least-recently-used: recompiling it is a miss...
        cache.distribution(Var("x0"))
        assert cache.stats()["misses"] == 4
        # ...while x2 is still cached.
        before = cache.stats()["hits"]
        cache.distribution(Var("x2"))
        assert cache.stats()["hits"] == before + 1

    def test_lookup_refreshes_recency(self):
        cache = make_cache(max_entries=2)
        cache.distribution(Var("x0"))
        cache.distribution(Var("x1"))
        cache.distribution(Var("x0"))  # x0 becomes MRU
        cache.distribution(Var("x2"))  # evicts x1, not x0
        hits = cache.stats()["hits"]
        cache.distribution(Var("x0"))
        assert cache.stats()["hits"] == hits + 1

    def test_unbounded_by_default(self):
        cache = make_cache()
        for i in range(20):
            cache.distribution(Var(f"x{i}"))
        assert cache.stats()["evictions"] == 0
        assert len(cache) == 20

    def test_bad_bound_rejected(self):
        with pytest.raises(QueryValidationError):
            make_cache(max_entries=0)

    def test_absorb_counts_as_miss_and_respects_existing(self):
        cache = make_cache()
        key = cache.normalize(Var("x0"))
        dist = Compiler(cache.registry, cache.semiring).distribution(key)
        cache.absorb(key, dist)
        assert cache.stats()["misses"] == 1
        assert cache.cached(key) is dist
        # A second absorb of the same key is a no-op.
        other = Compiler(cache.registry, cache.semiring).distribution(key)
        cache.absorb(key, other)
        assert cache.cached(key) is dist
        assert cache.stats()["misses"] == 1

    def test_clear_keeps_cache_usable(self):
        cache = make_cache()
        cache.distribution(ssum([Var("x0"), Var("x1")]))
        cache.clear()
        assert len(cache) == 0
        result = cache.distribution(ssum([Var("x0"), Var("x1")]))
        assert result is not None


class TestTheCompilerIsBounded:
    """With ``max_entries`` set, the wrapped compiler is replaced once it
    has served that many calls, so its memos (d-trees, normal forms,
    restrictions) are bounded like the stored distributions."""

    @pytest.mark.parametrize(
        "engine_class, spec",
        [(SproutEngine, None), (ApproxEngine, EvalSpec(mode="approx"))],
        ids=["sprout", "approx"],
    )
    def test_retained_memory_does_not_grow_with_the_statements(
        self, engine_class, spec
    ):
        db = build_compile_database(2, 14, 8)
        cache = CompilationCache(
            Compiler(db.registry, db.semiring), max_entries=16
        )
        engine = engine_class(db, distribution_source=cache)  # no plan cache
        retained = {}
        tracemalloc.start()
        try:
            for threshold in range(1, 161):
                engine.run(compile_query(threshold), spec)
                if threshold in (40, 160):
                    gc.collect()
                    retained[threshold] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained[160] <= 2 * retained[40], retained

    def test_a_compiler_serves_at_most_max_entries_calls(self):
        cache = make_cache(max_entries=2)
        compilers = []
        for i in range(6):
            cache.distribution(ssum([Var(f"x{i}"), Var(f"x{i + 1}")]))
            compilers.append(cache.compiler)
        assert [c is compilers[0] for c in compilers[:2]] == [True, True]
        assert compilers[2] is not compilers[1]
        assert compilers[3] is compilers[2]
        assert len({id(c) for c in compilers}) == 3

    def test_a_hit_is_served_too(self):
        """A hit still normalises its input through the compiler, whose
        normal-form memo keeps every new input, so it counts as a call."""
        cache = make_cache(max_entries=2)
        expr = ssum([Var("x0"), Var("x1")])
        cache.distribution(expr)
        first = cache.compiler
        cache.distribution(expr)
        assert cache.compiler is first
        cache.distribution(expr)
        assert cache.compiler is not first
        assert cache.stats()["hits"] == 2

    def test_the_compiler_that_did_the_work_is_the_current_one(self):
        cache = make_cache(max_entries=1)
        normal_form = Compiler(cache.registry, cache.semiring).normalize
        for i in range(3):
            expr = ssum([Var(f"x{i}"), Var(f"x{i + 1}")])
            tree = cache.compile(expr)
            memo = cache.compiler._memo
            assert memo[normal_form(expr)] is tree
            assert len(memo) == 3  # this call's sum and its two leaves

    def test_threads_sharing_a_bounded_cache_answer_like_a_fresh_compiler(self):
        """Four threads on two cores replace the compiler every third
        call under a short switch interval: every answer still equals a
        from-scratch compiler's, and the call count never passes the
        bound (a lost update of it would)."""
        cache = make_cache(max_entries=3)
        exprs = [
            ssum([Var(f"x{i}"), Var(f"x{(7 * i + 3) % 32}")]) for i in range(12)
        ]
        fresh = Compiler(cache.registry, cache.semiring)
        expected = {expr: dict(fresh.distribution(expr).items()) for expr in exprs}
        errors: list = []
        done = threading.Event()

        def work(offset):
            try:
                step = offset
                while not done.is_set():
                    expr = exprs[step % len(exprs)]
                    step += 1
                    got = dict(cache.distribution(expr).items())
                    assert got.keys() == expected[expr].keys()
                    assert all(
                        abs(got[v] - expected[expr][v]) <= 1e-12 for v in got
                    )
                    interval, _ = cache.bounds(expr, 8, {})
                    assert interval.contains(1.0 - got[False])
                    assert cache._served <= cache.max_entries
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)
                done.set()

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.3)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert cache.stats()["hits"] > 0

    def test_an_unbounded_cache_keeps_its_compiler(self):
        cache = make_cache()
        compiler = cache.compiler
        for i in range(30):
            cache.distribution(ssum([Var(f"x{i}"), Var(f"x{i + 1}")]))
        assert cache.compiler is compiler


class TestCompilationCacheThreads:
    def test_concurrent_distribution_absorb_clear(self):
        cache = make_cache(max_entries=16)
        errors = []

        def reader(offset):
            try:
                for round_ in range(30):
                    for i in range(8):
                        expr = ssum(
                            [Var(f"x{(offset + i) % 32}"), Var(f"x{i}")]
                        )
                        dist = cache.distribution(expr)
                        assert abs(sum(p for _, p in dist.items()) - 1.0) < 1e-9
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def clearer():
            try:
                for _ in range(10):
                    cache.clear()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(k,)) for k in range(3)
        ] + [threading.Thread(target=clearer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16


class TestPlanCache:
    def test_structurally_equal_queries_share_plans(self):
        cache = PlanCache()
        q1 = Project(relation("R"), ["a"])
        q2 = Project(relation("R"), ["a"])  # distinct object, equal structure
        fingerprint = (("R", 3),)
        assert cache.get(q1, fingerprint) is None
        cache.put(q1, fingerprint, "prepared-plan")
        assert cache.get(q2, fingerprint) == "prepared-plan"
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_fingerprint_invalidates(self):
        cache = PlanCache()
        query = Project(relation("R"), ["a"])
        cache.put(query, (("R", 3),), "old")
        assert cache.get(query, (("R", 4),)) is None

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        queries = [Project(relation("R"), [col]) for col in ("a", "b", "c")]
        for i, query in enumerate(queries):
            cache.put(query, (), f"plan{i}")
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        assert cache.get(queries[0], ()) is None
        assert cache.get(queries[2], ()) == "plan2"

    def test_bad_bound_rejected(self):
        with pytest.raises(QueryValidationError):
            PlanCache(max_entries=-1)


class TestSharedCachesAcrossSessions:
    def test_plan_and_distribution_reuse_across_sessions(self):
        def build(cache=None, plan_cache=None):
            s = connect(cache=cache, plan_cache=plan_cache)
            t = s.table("R", ["kind", "value"])
            for kind, value, p in [("a", 10, 0.5), ("b", 30, 0.7)]:
                t.insert((kind, value), p=p)
            return s

        first = build()
        shared_plans = PlanCache()
        a = build(plan_cache=shared_plans)
        b = connect(plan_cache=shared_plans, database=a.db)
        query = "SELECT kind FROM R WHERE value >= 20"
        baseline = first.sql(query)
        r1 = a.sql(query)
        assert shared_plans.stats()["misses"] >= 1
        r2 = b.sql(query)
        assert shared_plans.stats()["hits"] >= 1
        probs = lambda r: {
            row.values: (row.probability().low, row.probability().high)
            for row in r.rows
        }
        assert probs(r1) == probs(r2) == probs(baseline)

    def test_session_rejects_foreign_cache(self):
        s1 = connect()
        s1.table("R", ["a"]).insert((1,), p=0.5)
        foreign = CompilationCache(
            Compiler(VariableRegistry(), BOOLEAN)
        )
        with pytest.raises(QueryValidationError):
            connect(cache=foreign, database=s1.db)
