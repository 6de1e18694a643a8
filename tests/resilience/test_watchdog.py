"""The pool watchdog: hung workers are detected, killed and survived."""

import multiprocessing
import time

import pytest

from repro import parallel
from repro.resilience import Deadline, deadline_scope


def _hang_worker(context, payload):
    """Wedges forever inside a pool worker; answers instantly inline."""
    if multiprocessing.parent_process() is not None:
        time.sleep(60.0)
    return payload * 2


def _good_worker(context, payload):
    return payload + context


pytestmark = pytest.mark.skipif(
    not parallel.fork_available(), reason="fork-based pools unavailable"
)


class TestWatchdogTimeout:
    def test_module_default_wins_when_smaller(self, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_TASK_TIMEOUT", 0.2)
        assert parallel._watchdog_timeout() == 0.2
        with deadline_scope(Deadline(100.0)):
            assert parallel._watchdog_timeout() == 0.2

    def test_ambient_deadline_bounds_an_unarmed_pool(self):
        assert parallel._watchdog_timeout() is None
        with deadline_scope(Deadline(1.0)):
            timeout = parallel._watchdog_timeout()
            # remaining (<= 1s) + the 2s grace period
            assert 1.0 < timeout <= 3.0 + 0.1

    def test_module_default_arms_every_pool(self, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_TASK_TIMEOUT", 5.0)
        assert parallel._watchdog_timeout() == 5.0


class TestHungWorkerRecovery:
    def test_hang_is_detected_killed_and_rerun_inline(self, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_TASK_TIMEOUT", 0.5)
        start = time.perf_counter()
        results, info = parallel.execute(_hang_worker, None, [1, 2, 3], 2)
        elapsed = time.perf_counter() - start
        # Detected within the timeout (plus kill/fork slack), nowhere
        # near the worker's 60s sleep — and the answers are correct.
        assert elapsed < 10.0
        assert results == [2, 4, 6]
        assert info["parallel_fallback"] == "worker_hang"
        assert info["workers"] == 1

    def test_healthy_pool_is_untouched_by_the_watchdog(self, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_TASK_TIMEOUT", 5.0)
        results, info = parallel.execute(_good_worker, 10, [1, 2, 3, 4], 2)
        assert results == [11, 12, 13, 14]
        assert "parallel_fallback" not in info
        assert info["workers"] == 2
