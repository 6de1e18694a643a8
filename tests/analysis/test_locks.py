"""Fixture corpus for the lock-discipline / race checker.

Every rule gets a seeded violation that is flagged and a corrected
version that passes.  The final test re-introduces the PR-6
admission-race pattern (check-then-increment of an inflight counter
outside its declared lock) and proves the checker catches it.
"""

from __future__ import annotations

import pytest

from repro.analysis.checkers.locks import LockDisciplineChecker

CHECKERS = [LockDisciplineChecker()]


def rule_ids(result):
    return [finding.rule_id for finding in result.findings]

GUARDED_CLASS_HEADER = """\
    import threading

    class Counter:
        _shared_state_ = {"_lock": ("total", "events")}

        def __init__(self):
            self._lock = threading.Lock()
            self.total = 0
            self.events = []
"""


class TestUnguardedWrite:
    def test_flags_unguarded_assignment(self, analyze):
        result = analyze(
            GUARDED_CLASS_HEADER
            + """
        def bump(self):
            self.total += 1
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["race-unguarded-write"]
        assert "total" in result.findings[0].message

    def test_passes_guarded_assignment(self, analyze):
        result = analyze(
            GUARDED_CLASS_HEADER
            + """
        def bump(self):
            with self._lock:
                self.total += 1
    """,
            CHECKERS,
        )
        assert result.clean

    def test_flags_unguarded_mutating_method(self, analyze):
        result = analyze(
            GUARDED_CLASS_HEADER
            + """
        def note(self, event):
            self.events.append(event)
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["race-unguarded-write"]

    def test_flags_unguarded_subscript_store(self, analyze):
        result = analyze(
            """
    import threading

    class Stats:
        _shared_state_ = {"_lock": ("counts",)}

        def __init__(self):
            self._lock = threading.Lock()
            self.counts = {}

        def bump(self, key):
            self.counts[key] = self.counts.get(key, 0) + 1
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["race-unguarded-write"]

    def test_init_family_is_exempt(self, analyze):
        # __init__ runs before the object is shared — no findings even
        # though it assigns every declared field without the lock.
        result = analyze(GUARDED_CLASS_HEADER, CHECKERS)
        assert result.clean

    def test_locked_suffix_helper_assumes_lock_held(self, analyze):
        result = analyze(
            GUARDED_CLASS_HEADER
            + """
        def _bump_locked(self):
            self.total += 1
    """,
            CHECKERS,
        )
        assert result.clean

    def test_module_level_declaration(self, analyze):
        flagged = analyze(
            """
    import threading

    _LOCK = threading.Lock()
    _STATS = {"hits": 0}
    _shared_state_ = {"_LOCK": ("_STATS",)}

    def bump():
        _STATS["hits"] += 1
    """,
            CHECKERS,
        )
        assert rule_ids(flagged) == ["race-unguarded-write"]

        result = analyze(
            """
    import threading

    _LOCK = threading.Lock()
    _STATS = {"hits": 0}
    _shared_state_ = {"_LOCK": ("_STATS",)}

    def bump():
        with _LOCK:
            _STATS["hits"] += 1
    """,
            CHECKERS,
        )
        assert result.clean


class TestAwaitUnderLock:
    def test_flags_await_while_holding_lock(self, analyze):
        result = analyze(
            """
    import threading

    class Server:
        _shared_state_ = {"_lock": ("inflight",)}

        def __init__(self):
            self._lock = threading.Lock()
            self.inflight = 0

        async def handle(self, work):
            with self._lock:
                self.inflight += 1
                await work()
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["race-await-under-lock"]

    def test_passes_await_after_release(self, analyze):
        result = analyze(
            """
    import threading

    class Server:
        _shared_state_ = {"_lock": ("inflight",)}

        def __init__(self):
            self._lock = threading.Lock()
            self.inflight = 0

        async def handle(self, work):
            with self._lock:
                self.inflight += 1
            await work()
    """,
            CHECKERS,
        )
        assert result.clean


class TestUnlockedHelperCall:
    def test_flags_helper_called_without_lock(self, analyze):
        result = analyze(
            GUARDED_CLASS_HEADER
            + """
        def _bump_locked(self):
            self.total += 1

        def bump(self):
            self._bump_locked()
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["race-unlocked-helper-call"]

    def test_passes_helper_called_under_lock(self, analyze):
        result = analyze(
            GUARDED_CLASS_HEADER
            + """
        def _bump_locked(self):
            self.total += 1

        def bump(self):
            with self._lock:
                self._bump_locked()
    """,
            CHECKERS,
        )
        assert result.clean


class TestNestedFunctions:
    def test_nested_function_does_not_inherit_held_locks(self, analyze):
        # The closure runs later — possibly on another thread with the
        # lock long released — so the write inside it must be flagged
        # even though it is lexically under the with block.
        result = analyze(
            GUARDED_CLASS_HEADER
            + """
        def deferred(self, schedule):
            with self._lock:
                def callback():
                    self.total += 1
                schedule(callback)
    """,
            CHECKERS,
        )
        assert rule_ids(result) == ["race-unguarded-write"]


class TestAdmissionRaceRedetection:
    """Re-introduce the PR-6 admission race; the checker must catch it.

    The original bug: ``_admit`` read ``_inflight`` against the limits
    and the caller incremented it afterwards, both without a lock — a
    burst of concurrent arrivals all read the same stale count and
    overshot ``hard_limit``.  The fixed server declares ``_inflight``
    under ``_counters_lock`` in ``_shared_state_``; re-introducing the
    unlocked increment must trip ``race-unguarded-write``.
    """

    RACY = """
    import threading

    class QueryServer:
        _shared_state_ = {
            "_counters_lock": ("_counters", "_inflight", "_draining"),
        }

        def __init__(self):
            self._counters_lock = threading.Lock()
            self._counters = {"shed": 0}
            self._inflight = 0
            self._draining = False

        def _admit(self, hard_limit):
            if self._inflight >= hard_limit:
                self._counters["shed"] += 1
                raise RuntimeError("overloaded")
            return False

        async def execute(self, payload):
            degraded = self._admit(32)
            self._inflight += 1
            try:
                return await self._run(payload)
            finally:
                self._inflight -= 1
    """

    FIXED = """
    import threading

    class QueryServer:
        _shared_state_ = {
            "_counters_lock": ("_counters", "_inflight", "_draining"),
        }

        def __init__(self):
            self._counters_lock = threading.Lock()
            self._counters = {"shed": 0}
            self._inflight = 0
            self._draining = False

        def _admit(self, hard_limit):
            with self._counters_lock:
                if self._inflight >= hard_limit:
                    self._counters["shed"] += 1
                    raise RuntimeError("overloaded")
                self._inflight += 1
                return False

        def _release_slot(self):
            with self._counters_lock:
                self._inflight -= 1

        async def execute(self, payload):
            degraded = self._admit(32)
            try:
                return await self._run(payload)
            finally:
                self._release_slot()
    """

    def test_reintroduced_admission_race_is_flagged(self, analyze):
        result = analyze(self.RACY, CHECKERS)
        rules = rule_ids(result)
        # The shed-counter bump, the post-admit increment and the
        # finally-decrement are each unguarded read-modify-writes.
        assert rules.count("race-unguarded-write") == 3
        assert any("_inflight" in f.message for f in result.findings)

    def test_fixed_admission_pattern_is_clean(self, analyze):
        result = analyze(self.FIXED, CHECKERS)
        assert result.clean

    def test_shipped_server_declares_the_discipline(self):
        import repro.server.app as app

        assert "_counters_lock" in app.QueryServer._shared_state_
        assert "_inflight" in app.QueryServer._shared_state_["_counters_lock"]


class TestBoundedLRUDiscipline:
    """The one LRU carries the one declaration for its counters and map;
    the statement, plan and distribution caches inherit both."""

    def source(self):
        from pathlib import Path

        import repro.cache

        return Path(repro.cache.__file__).read_text(encoding="utf-8")

    def test_shipped_lru_is_clean(self, analyze):
        assert analyze(self.source(), CHECKERS).clean

    def test_counting_outside_the_lock_is_flagged(self, analyze):
        # One more method at the end of BoundedLRU's body.
        head, tail = self.source().split("\n\nclass CompilationCache(")
        racy = head + """
    def count_hit(self):
        self.hits += 1
""" + "\n\nclass CompilationCache(" + tail
        result = analyze(racy, CHECKERS)
        assert rule_ids(result) == ["race-unguarded-write"]
        assert "BoundedLRU field 'hits'" in result.findings[0].message

    def test_every_bounded_cache_is_the_lru(self):
        from repro.cache import BoundedLRU
        from repro.engine.base import CompilationCache, PlanCache
        from repro.server.statements import StatementCache

        assert set(BoundedLRU._shared_state_["_lock"]) == {
            "hits", "misses", "evictions", "_entries",
        }
        for cache in (CompilationCache, PlanCache, StatementCache):
            assert issubclass(cache, BoundedLRU)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
