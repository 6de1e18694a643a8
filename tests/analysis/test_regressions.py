"""Regression tests for the true positives the analysis suite found.

Each test pins the *runtime* behavior of a fix made in this PR because
the self-hosted analyzer flagged the original code:

* ``repro.codegen.runtime`` counters raced under the server's executor
  threads (lost ``+=`` updates) — now guarded by ``_STATS_LOCK``;
* ``QueryServer._admit`` was check-then-act on ``_inflight`` (a burst
  could overshoot ``hard_limit``) — now an atomic check-and-claim;
* the ``batched`` stats key (numpy-dependent) leaked into answer
  fingerprints — now declared volatile;
* ``CompilationCache._store`` was renamed ``_store_locked`` to carry
  the caller-holds-lock contract the checker enforces.
"""

from __future__ import annotations

import threading

import pytest

from repro.codegen import runtime
from repro.engine.stats import DETERMINISTIC_STAT_KEYS
from repro.server.app import QueryServer, ServerConfig, ServerOverloadedError
from repro.server.codec import VOLATILE_STAT_KEYS, fingerprint


class TestRuntimeStatsRace:
    def test_concurrent_record_compile_loses_no_updates(self):
        runtime.reset_runtime_stats()
        threads_n, per_thread = 8, 500
        start = threading.Barrier(threads_n)

        def hammer():
            start.wait()
            for _ in range(per_thread):
                runtime.record_compile(0.001)
                runtime.record_cache_hit()

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = runtime.runtime_stats()
        runtime.reset_runtime_stats()
        expected = threads_n * per_thread
        assert stats["kernels_compiled"] == expected
        assert stats["kernel_cache_hits"] == expected
        assert stats["codegen_compile_seconds"] == pytest.approx(
            expected * 0.001
        )

    def test_snapshot_is_a_copy(self):
        runtime.reset_runtime_stats()
        snapshot = runtime.runtime_stats()
        snapshot["kernels_compiled"] = 999
        assert runtime.runtime_stats()["kernels_compiled"] == 0


class TestAdmissionAtomicity:
    def _server(self, **overrides):
        from repro.db.pvc_table import PVCDatabase
        from repro.prob.variables import VariableRegistry

        db = PVCDatabase(registry=VariableRegistry())
        return QueryServer(db, ServerConfig(**overrides))

    def test_concurrent_admits_never_overshoot_hard_limit(self):
        hard = 8
        server = self._server(soft_limit=4, hard_limit=hard)
        threads_n = 32
        start = threading.Barrier(threads_n)
        admitted, shed = [], []
        record = threading.Lock()

        def arrive():
            start.wait()
            try:
                degraded = server._admit()
            except ServerOverloadedError:
                with record:
                    shed.append(1)
            else:
                with record:
                    admitted.append(degraded)

        threads = [threading.Thread(target=arrive) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The whole point of the atomic check-and-claim: a simultaneous
        # burst can never admit past the hard limit, and every arrival
        # is either admitted or shed (none lost).
        assert len(admitted) == hard
        assert len(shed) == threads_n - hard
        assert server._inflight == hard
        assert server._counters["shed"] == len(shed)
        for _ in admitted:
            server._release_slot()
        assert server._inflight == 0

    def test_soft_limit_degrades_past_threshold(self):
        server = self._server(soft_limit=2, hard_limit=8)
        flags = [server._admit() for _ in range(4)]
        assert flags == [False, False, True, True]
        for _ in flags:
            server._release_slot()

    def test_draining_server_sheds_new_arrivals(self):
        server = self._server()
        with server._counters_lock:
            server._draining = True
        with pytest.raises(ServerOverloadedError):
            server._admit()
        assert server._counters["shed"] == 1
        assert server._inflight == 0


class TestBatchedFingerprint:
    PAYLOAD = {
        "engine": "montecarlo",
        "columns": ["name"],
        "rows": [
            {"values": ["ann"], "probability": {"low": 0.4, "high": 0.4}}
        ],
        "timings": {},
    }

    def test_batched_is_declared_deterministic(self):
        assert "batched" in DETERMINISTIC_STAT_KEYS
        assert "batched" not in VOLATILE_STAT_KEYS

    def test_fingerprint_keeps_batched(self):
        # Whether the vectorised evaluator ran is a function of query
        # and data, the same on every test leg, so fingerprints keep it.
        batched = dict(
            self.PAYLOAD, stats={"samples": 1000, "batched": True}
        )
        per_world = dict(
            self.PAYLOAD, stats={"samples": 1000, "batched": False}
        )
        assert fingerprint(batched) != fingerprint(per_world)

    def test_deterministic_keys_still_fingerprint(self):
        a = dict(self.PAYLOAD, stats={"samples": 1000})
        b = dict(self.PAYLOAD, stats={"samples": 2000})
        assert fingerprint(a) != fingerprint(b)


class TestLockedHelperContract:
    def test_compilation_cache_store_helper_is_locked_suffixed(self):
        from repro.engine.base import CompilationCache

        assert hasattr(CompilationCache, "_store_locked")
        assert not hasattr(CompilationCache, "_store")

    def test_compilation_cache_still_caches(self):
        from repro.algebra.expressions import Var
        from repro.algebra.semiring import BOOLEAN
        from repro.core.compile import Compiler
        from repro.engine.base import CompilationCache
        from repro.prob.variables import VariableRegistry

        registry = VariableRegistry()
        registry.bernoulli("x", 0.5)
        cache = CompilationCache(Compiler(registry, BOOLEAN))
        first = cache.distribution(Var("x"))
        again = cache.distribution(Var("x"))
        assert first is again
        assert cache.hits == 1 and cache.misses == 1


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
