"""One fan-out round on a fork pool, degrading to the serial loop.

Step II of the paper compiles each result-row annotation into its own
d-tree, so independent rows compile independently: sprout's one
process-pool seam, and the one that measurably pays (EXPERIMENTS.md,
"Accelerator verdicts").  The approx engine and Monte-Carlo stay serial.

:func:`execute` runs ``worker(context, payload)`` for a list of payloads
on a pool forked for that one call, and returns the results in payload
order plus an info dict.  The contract sprout relies on:

* **Purity** — workers are deterministic functions of
  ``(context, payload)``, so running inline and running on a pool give
  identical results: every failure can degrade to serial without
  changing an answer.
* **Fork-inherited context** — the pool is forked, so ``worker`` and
  the (potentially large) ``context`` reach the children through the
  fork; only payloads and results travel through the pickled queues.
* **Graceful degradation** — no ``fork``, a worker crash, a payload or
  result that fails to pickle, or an exception raised by the worker
  itself reruns the payloads inline, and the info dict carries
  ``parallel_fallback`` with the reason.  The inline rerun re-raises a
  deterministic worker exception with its original type.
* **The watchdog** — under :data:`DEFAULT_TASK_TIMEOUT` or an ambient
  :mod:`repro.resilience` deadline the round may take at most that
  long; a wedged worker is killed with the pool (reason
  ``"worker_hang"``) and the payloads rerun inline.
* **The deadline** — forked workers inherit the ambient deadline, and a
  round that fails after it expired is not rerun:
  :class:`~repro.resilience.deadline.DeadlineExceeded` propagates, and
  the caller degrades as its serial loop does.

The ``workers`` knob (``int | "auto"``, default serial) is validated
and resolved here too.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.errors import QueryValidationError
from repro.resilience.deadline import check_deadline, current_deadline
from repro.resilience.faults import fault_point

__all__ = [
    "DEFAULT_TASK_TIMEOUT",
    "ParallelUnavailable",
    "execute",
    "fork_available",
    "resolve_workers",
    "validate_workers",
]

#: Process-wide watchdog timeout (seconds) of a pooled round.  ``None``
#: leaves a round unbounded — except under an ambient resilience
#: deadline, which always bounds it.
DEFAULT_TASK_TIMEOUT: float | None = None

#: Grace added on top of an active deadline's remaining time before the
#: watchdog declares a round hung: work slightly past the deadline still
#: gets collected; only a wedged worker trips the kill path.
_DEADLINE_GRACE = 2.0


def validate_workers(workers):
    """Return ``workers`` when it is ``None``, ``"auto"`` or a positive
    integer; raise :class:`~repro.errors.QueryValidationError` otherwise.
    """
    if workers is None or workers == "auto":
        return workers
    if (
        isinstance(workers, bool)
        or not isinstance(workers, int)
        or workers < 1
    ):
        raise QueryValidationError(
            f"workers must be a positive integer or 'auto', got {workers!r}"
        )
    return workers


def resolve_workers(workers) -> int | None:
    """The worker count the ``workers`` knob asks for: ``None`` (not
    requested) as is, ``"auto"`` as the usable CPU count, a positive
    integer as given."""
    if validate_workers(workers) == "auto":
        try:
            count = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux platforms
            count = os.cpu_count() or 1
        return max(1, count)
    return workers


class ParallelUnavailable(RuntimeError):
    """The pool could not run the round; the caller reruns it inline.

    ``reason`` is a short tag (``"no_fork"``, ``"worker_crash"``,
    ``"pickle_error"``, ``"worker_error"``, ``"worker_hang"``) that
    sprout surfaces as ``stats["parallel_fallback"]``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


def fork_available() -> bool:
    """True when fork-based process pools can run on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


#: ``(worker, context)``, installed in each forked child by the pool
#: initializer: its arguments cross the fork, not the pickled queue.
_WORKER_STATE: tuple | None = None


def _install_worker_state(state: tuple) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _invoke(payload):
    """Run the installed worker on one payload, fencing its exceptions.

    A worker exception comes back as ``(False, summary)``: a raw
    exception through the result queue could not be told apart from
    pool breakage, while the sentinel marks a deterministic error the
    inline rerun reproduces with full fidelity.  The ``pool.worker``
    fault point sits outside the fence, so an injected crash, hang or
    pickle fault looks like the pool failing, not the worker.
    """
    worker, context = _WORKER_STATE
    fault_point("pool.worker")
    try:
        return True, worker(context, payload)
    except BaseException as exc:  # noqa: BLE001 - fence everything
        return False, f"{type(exc).__name__}: {exc}"


def _classify(exc: BaseException) -> ParallelUnavailable:
    """Map a pool-layer exception to a fallback reason."""
    if isinstance(exc, BrokenProcessPool):
        return ParallelUnavailable("worker_crash", str(exc))
    if isinstance(exc, pickle.PicklingError) or "pickle" in str(exc).lower():
        return ParallelUnavailable("pickle_error", str(exc))
    return ParallelUnavailable("worker_error", f"{type(exc).__name__}: {exc}")


def _gather(executor, payloads, timeout: float | None = None) -> list:
    """Submit the payloads and collect the results in order; raise
    :class:`ParallelUnavailable` on any failure.

    Every result must arrive within ``timeout`` seconds of submission or
    the round is hung (``"worker_hang"``); the caller kills the pool.
    Module-level: the one seam tests patch to break a round.
    """
    results = [None] * len(payloads)
    try:
        futures = [executor.submit(_invoke, payload) for payload in payloads]
        expires = None if timeout is None else time.monotonic() + timeout
        for index, future in enumerate(futures):
            left = None if expires is None else max(expires - time.monotonic(), 0.0)
            try:
                ok, value = future.result(timeout=left)
            except concurrent.futures.TimeoutError:
                raise ParallelUnavailable(
                    "worker_hang", f"pool task still running after {timeout:g}s"
                ) from None
            if not ok:
                raise ParallelUnavailable("worker_error", value)
            results[index] = value
    except ParallelUnavailable:
        raise
    except BaseException as exc:  # noqa: BLE001 - degrade, never crash
        raise _classify(exc) from exc
    return results


def _watchdog_timeout() -> float | None:
    """How long a round may take: :data:`DEFAULT_TASK_TIMEOUT`, capped
    under an ambient deadline by its remaining time plus the grace — a
    request with ``time_limit=T`` stays bounded even when a worker
    wedges where no cooperative checkpoint reaches."""
    timeout = DEFAULT_TASK_TIMEOUT
    deadline = current_deadline()
    if deadline is not None:
        bound = max(deadline.remaining(), 0.0) + _DEADLINE_GRACE
        timeout = bound if timeout is None else min(timeout, bound)
    return timeout


def _kill(executor) -> None:
    """Hard-stop a pool with hung workers: joining them would hang the
    parent too.  The executor's management thread reaps the children."""
    for process in list(getattr(executor, "_processes", {}).values()):
        try:
            process.kill()
        except (OSError, AttributeError):
            pass
    executor.shutdown(wait=False, cancel_futures=True)


def execute(worker, context, payloads, workers) -> tuple[list, dict]:
    """Run ``worker(context, payload)`` per payload, pooled when possible.

    Returns ``(results, info)`` with the results in payload order.
    ``info["workers"]`` is the worker count used; a round the pool could
    not run adds ``info["parallel_fallback"]``.  Serial execution is
    chosen outright when ``workers`` is ``None`` or 1 or there are fewer
    than two payloads.
    """
    payloads = list(payloads)
    if workers is None or workers <= 1 or len(payloads) <= 1:
        return [worker(context, payload) for payload in payloads], {"workers": 1}
    if not fork_available():
        reason = "no_fork"
    else:
        executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_install_worker_state,
            initargs=((worker, context),),
        )
        try:
            results = _gather(executor, payloads, _watchdog_timeout())
        except ParallelUnavailable as unavailable:
            reason = unavailable.reason
            if reason == "worker_hang":
                _kill(executor)
            else:
                # Plain shutdown: every future has completed, and
                # cancel_futures races the queue feeder after a
                # payload pickling failure.
                executor.shutdown(wait=True)
        else:
            executor.shutdown(wait=True)
            return results, {"workers": min(workers, len(payloads))}
    # No inline recompile after expiry: the caller degrades instead.
    check_deadline("parallel round")
    info = {"workers": 1, "parallel_fallback": reason}
    return [worker(context, payload) for payload in payloads], info
