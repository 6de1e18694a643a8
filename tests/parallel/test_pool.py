"""Pool lifecycle: pooled execution, inline execution, degradation."""

import multiprocessing
import os
import pickle
import threading

import pytest

from repro import parallel


def _double(context, payload):
    return context * payload


def _identify(context, payload):
    return payload, os.getpid(), multiprocessing.parent_process() is not None


def _explode(context, payload):
    raise ValueError(f"bad payload {payload}")


def _crash_worker(context, payload):
    """Dies hard inside a pool, answers politely inline: the pool run
    breaks with ``BrokenProcessPool`` and the inline rerun still returns
    a correct result."""
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return ("inline", payload)


class TestExecute:
    def test_inline_when_serial(self):
        results, info = parallel.execute(_double, 3, [1, 2, 3], workers=1)
        assert results == [3, 6, 9]
        assert info == {"workers": 1}

    def test_inline_when_single_payload(self):
        results, info = parallel.execute(_double, 3, [5], workers=4)
        assert results == [15]
        assert info == {"workers": 1}

    def test_pooled_preserves_payload_order(self):
        results, info = parallel.execute(_double, 2, list(range(20)), workers=2)
        assert results == [2 * i for i in range(20)]
        assert info["workers"] == 2
        assert "parallel_fallback" not in info

    def test_pooled_runs_in_child_processes(self):
        if not parallel.fork_available():
            pytest.skip("no fork on this platform")
        results, _ = parallel.execute(_identify, None, [0, 1, 2, 3], workers=2)
        assert all(in_child for _, _, in_child in results)

    def test_worker_and_context_cross_by_fork_not_by_pickle(self):
        """Only payloads and results enter the call queue: a lambda
        worker and a lock in the context reach the workers as they are."""
        if not parallel.fork_available():
            pytest.skip("no fork on this platform")
        results, info = parallel.execute(
            lambda context, payload: context[1] * payload,
            (threading.Lock(), 3),
            [1, 2, 3],
            workers=2,
        )
        assert results == [3, 6, 9]
        assert info == {"workers": 2}

    def test_worker_count_capped_by_payloads(self):
        _, info = parallel.execute(_double, 1, [1, 2], workers=16)
        assert info["workers"] == 2


class TestDegradation:
    def test_worker_crash_falls_back_to_inline(self):
        """A worker dying mid-task breaks the pool; the rerun is inline
        (where the crash helper answers instead of dying) and the reason
        is recorded."""
        if not parallel.fork_available():
            pytest.skip("no fork on this platform")
        results, info = parallel.execute(
            _crash_worker, None, ["a", "b", "c"], workers=2
        )
        assert results == [("inline", "a"), ("inline", "b"), ("inline", "c")]
        assert info["workers"] == 1
        assert info["parallel_fallback"] == "worker_crash"

    def test_unpicklable_payload_falls_back_to_inline(self):
        if not parallel.fork_available():
            pytest.skip("no fork on this platform")
        payloads = [2, lambda: 3]  # the lambda cannot enter the call queue
        results, info = parallel.execute(
            lambda_tolerant_worker, 10, payloads, workers=2
        )
        assert results == [20, 30]
        assert info["parallel_fallback"] == "pickle_error"

    def test_no_fork_falls_back_to_inline(self, monkeypatch):
        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        results, info = parallel.execute(_double, 2, [1, 2, 3], workers=4)
        assert results == [2, 4, 6]
        assert info == {"workers": 1, "parallel_fallback": "no_fork"}

    def test_deterministic_worker_error_reraises_serially(self):
        """An exception raised *by the worker* is not swallowed: the
        serial rerun reproduces it with its original type."""
        if not parallel.fork_available():
            pytest.skip("no fork on this platform")
        with pytest.raises(ValueError, match="bad payload"):
            parallel.execute(_explode, None, [1, 2], workers=2)

    def test_parallel_unavailable_reason_tags(self):
        err = parallel.ParallelUnavailable("worker_crash", "boom")
        assert err.reason == "worker_crash"
        assert "boom" in str(err)


def lambda_tolerant_worker(context, payload):
    value = payload() if callable(payload) else payload
    return context * value


class TestPicklabilityOfCorePayloads:
    """The payload types the engines actually ship must round-trip."""

    def test_expressions_pickle(self):
        from repro.algebra.expressions import Var, sprod, ssum

        expr = sprod([ssum([Var("x"), Var("y")]), Var("z")])
        clone = pickle.loads(pickle.dumps(expr))
        assert clone == expr
        assert clone.variables == expr.variables

    def test_distributions_pickle(self):
        from repro.prob.distribution import Distribution

        dist = Distribution({True: 0.3, False: 0.7})
        clone = pickle.loads(pickle.dumps(dist))
        assert clone.almost_equals(dist)

    def test_probability_bounds_pickle(self):
        from repro.core.approx import ProbabilityBounds

        bounds = ProbabilityBounds(0.25, 0.75)
        clone = pickle.loads(pickle.dumps(bounds))
        assert (clone.low, clone.high) == (0.25, 0.75)

    def test_database_pickles(self):
        from tests.conftest import build_figure1_database

        db = build_figure1_database(small=True)
        clone = pickle.loads(pickle.dumps(db))
        assert set(clone.tables) == set(db.tables)
        assert len(clone.tables["S"]) == len(db.tables["S"])
