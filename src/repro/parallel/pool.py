"""Process-pool lifecycle with graceful degradation to serial execution.

One entry point, :func:`execute`, runs ``worker(context, payload)`` for a
list of payloads and returns the results in payload order plus an info
dict.  The contract engines rely on:

* **Purity** — workers must be deterministic functions of
  ``(context, payload)``.  Under that contract, running inline and
  running on a pool produce identical results, which is what lets every
  failure mode degrade to serial without changing any answer.
* **Fork-based pools** — worker processes are forked, so the (potentially
  large) shared ``context`` is inherited by the children instead of being
  pickled per task; only the per-task payloads and results travel through
  the pickled call queue.
* **Graceful degradation** — a worker crash (``BrokenProcessPool``), a
  payload/result that fails to pickle, a platform without ``fork``, or
  any other pool-layer failure falls back to in-process execution, and
  the returned info carries ``parallel_fallback`` with the reason.  A
  *deterministic* exception raised by the worker itself also lands here:
  the serial rerun re-raises it with its original type and traceback.
* **The watchdog** — a wedged worker (deadlocked, stuck in a syscall,
  or fault-injected) must not hang the parent forever: when a per-task
  timeout is configured (explicitly, via :data:`DEFAULT_TASK_TIMEOUT`,
  or implicitly from the ambient :mod:`repro.resilience` deadline) the
  round is abandoned with reason ``"worker_hang"``, the stuck processes
  are killed, the payloads rerun inline, and — because a single hang
  may be transient — the *next* round gets one fresh pool before the
  handle degrades to permanent inline execution.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.resilience.deadline import current_deadline
from repro.resilience.faults import fault_point

__all__ = [
    "DEFAULT_TASK_TIMEOUT",
    "ParallelUnavailable",
    "SharedPool",
    "execute",
    "fork_available",
]

#: Process-wide default per-task watchdog timeout (seconds), used when a
#: pool has no explicit ``task_timeout``.  ``None`` disables the
#: watchdog (the pre-watchdog behavior) — except under an ambient
#: resilience deadline, which always bounds pooled rounds.
DEFAULT_TASK_TIMEOUT: float | None = None

#: Grace added on top of an active deadline's remaining time before the
#: watchdog declares a round hung: legitimate work slightly past the
#: deadline still gets collected (and the engine degrades cooperatively);
#: only a genuinely wedged worker trips the kill path.
_DEADLINE_GRACE = 2.0


class ParallelUnavailable(RuntimeError):
    """The pool could not run the tasks; callers fall back to serial.

    ``reason`` is a short machine-readable tag (``"no_fork"``,
    ``"worker_crash"``, ``"pickle_error"``, ``"worker_error"``,
    ``"worker_hang"``) that engines surface as
    ``stats["parallel_fallback"]``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


def fork_available() -> bool:
    """True when fork-based process pools can run on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


#: Shared state installed in each forked worker by the pool initializer.
#: With the fork start method the initializer arguments are inherited
#: through the fork (no pickling), so arbitrarily large contexts ship to
#: the workers for free.
_WORKER_STATE: tuple | None = None


def _install_worker_state(state: tuple) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _invoke(payload):
    """Run the installed worker on one payload, fencing its exceptions.

    Worker-raised exceptions are returned as an ``(False, summary)``
    sentinel instead of propagating: a raw exception through the result
    queue is indistinguishable from pool breakage in the parent, while
    the sentinel lets the parent classify it as a *deterministic* error
    that the serial rerun will reproduce with full fidelity.

    The ``pool.worker`` fault point sits *outside* the fence: injected
    pool-layer faults (crash/hang/pickle) must look like infrastructure
    failures — classified by reason in the parent — not like
    deterministic worker errors.
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
    """Submit the payloads and collect results in order; raise
    ParallelUnavailable on any pool-layer failure.

    ``timeout`` bounds the *round*: every result must arrive within
    ``timeout`` seconds of submission or the round is declared hung
    (reason ``"worker_hang"``) — the caller owns killing the pool.

    Module-level so tests can monkeypatch the single seam through which
    every pooled round runs.
    """
    results = [None] * len(payloads)
    try:
        futures = [executor.submit(_invoke, payload) for payload in payloads]
        expires = None if timeout is None else time.monotonic() + timeout
        for index, future in enumerate(futures):
            if expires is None:
                ok, value = future.result()
            else:
                try:
                    ok, value = future.result(
                        timeout=max(expires - time.monotonic(), 0.0)
                    )
                except concurrent.futures.TimeoutError:
                    raise ParallelUnavailable(
                        "worker_hang",
                        f"pool task still running after {timeout:g}s",
                    ) from None
            if not ok:
                raise ParallelUnavailable("worker_error", value)
            results[index] = value
    except ParallelUnavailable:
        raise
    except BaseException as exc:  # noqa: BLE001 - degrade, never crash
        raise _classify(exc) from exc
    return results


class SharedPool:
    """A reusable fork pool bound to one ``(worker, context)`` pair.

    The handle forks the worker pool once, on the first round that
    actually needs it, and reuses it for every round against the same
    shared context until :meth:`close`.  Its one user is
    :func:`execute`'s single round: sprout's step-II compile fan-out.
    Each :meth:`run` has
    the same contract as :func:`execute`: results in payload order, an
    info dict with the worker count used, and graceful degradation to
    inline execution — once degraded, later rounds stay inline with the
    same recorded reason.

    ``task_timeout`` arms the hung-worker watchdog for every round (see
    :meth:`_watchdog_timeout` for how it combines with the ambient
    deadline).  A hang kills the stuck pool and reruns the round inline,
    but — unlike every other failure — allows *one* fresh pool on the
    next round; a second hang degrades the handle permanently.
    """

    #: Lifecycle state may be poked from more than one thread (the query
    #: server drives engines from an executor pool while ``stop()`` paths
    #: close pools); ``_state_lock`` owns every mutation.  Enforced
    #: statically by the ``locks`` checker of ``repro.analysis``.
    _shared_state_ = {
        "_state_lock": ("_executor", "_fallback_reason", "_hangs"),
    }

    def __init__(self, worker, context, workers, task_timeout: float | None = None):
        self.worker = worker
        self.context = context
        self.workers = workers
        self.task_timeout = task_timeout
        self._executor = None
        self._fallback_reason: str | None = None
        self._hangs = 0
        self._state_lock = threading.Lock()

    def _inline(self, payloads) -> list:
        return [self.worker(self.context, payload) for payload in payloads]

    def _ensure_executor(self):
        with self._state_lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_install_worker_state,
                    initargs=((self.worker, self.context),),
                )
            return self._executor

    def _watchdog_timeout(self) -> float | None:
        """The effective per-round watchdog timeout.

        The explicit ``task_timeout`` (or the module default) combines
        with the ambient resilience deadline: under a deadline a round
        may take at most ``remaining + grace`` seconds, so a request
        with ``time_limit=T`` is bounded even when a worker wedges —
        the end-to-end deadline contract across the process boundary,
        where cooperative checkpoints cannot reach.
        """
        timeout = (
            self.task_timeout
            if self.task_timeout is not None
            else DEFAULT_TASK_TIMEOUT
        )
        deadline = current_deadline()
        if deadline is not None:
            bound = max(deadline.remaining(), 0.0) + _DEADLINE_GRACE
            timeout = bound if timeout is None else min(timeout, bound)
        return timeout

    def run(self, payloads) -> tuple[list, dict]:
        """One round: ``worker(context, payload)`` per payload."""
        payloads = list(payloads)
        if (
            self.workers is None
            or self.workers <= 1
            or len(payloads) <= 1
        ):
            return self._inline(payloads), {"workers": 1}
        if self._fallback_reason is not None:
            return self._inline(payloads), {
                "workers": 1,
                "parallel_fallback": self._fallback_reason,
            }
        if not fork_available():
            with self._state_lock:
                self._fallback_reason = "no_fork"
            return self._inline(payloads), {
                "workers": 1,
                "parallel_fallback": "no_fork",
            }
        timeout = self._watchdog_timeout()
        try:
            # Two-arg call when unarmed: _gather is a documented
            # monkeypatch seam and most callers never arm the watchdog.
            if timeout is None:
                results = _gather(self._ensure_executor(), payloads)
            else:
                results = _gather(self._ensure_executor(), payloads, timeout)
        except ParallelUnavailable as unavailable:
            if unavailable.reason == "worker_hang":
                # The workers are wedged: close() would join them and
                # hang the parent too — kill hard instead.  One rebuild
                # is allowed (a hang can be transient); a second hang
                # degrades the handle permanently like other failures.
                self._kill()
                with self._state_lock:
                    self._hangs += 1
                    if self._hangs >= 2:
                        self._fallback_reason = "worker_hang"
            else:
                with self._state_lock:
                    self._fallback_reason = unavailable.reason
                self.close()
            return self._inline(payloads), {
                "workers": 1,
                "parallel_fallback": unavailable.reason,
            }
        return results, {"workers": min(self.workers, len(payloads))}

    def _kill(self) -> None:
        """Hard-stop a pool with hung workers without joining them."""
        with self._state_lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except (OSError, AttributeError):
                pass
        # wait=False: the killed processes cannot be joined synchronously
        # here; the executor's management thread reaps them.
        executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down; the handle stays usable (inline or by
        forking a fresh pool on the next :meth:`run`).

        Plain ``shutdown(wait=True)``: every submitted future has
        already completed (or had its exception set) by the time
        :meth:`run` returns, and ``cancel_futures`` has a shutdown race
        against the queue-feeder after a payload pickling failure.
        Hung pools never reach here — :meth:`run` already replaced them
        via :meth:`_kill`.
        """
        with self._state_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "SharedPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def execute(
    worker, context, payloads, workers, task_timeout: float | None = None
) -> tuple[list, dict]:
    """Run ``worker(context, payload)`` per payload, pooled when possible.

    One-shot wrapper over :class:`SharedPool`, used by sprout's step-II
    compile fan-out.  Returns ``(results, info)`` with results in payload
    order.  ``info`` always carries ``"workers"`` (the worker count
    actually used) and, when the pool could not run,
    ``"parallel_fallback"`` with the reason.

    Serial execution is chosen outright when ``workers`` is None/1 or
    there are fewer than two payloads; it is *fallen back to* when the
    platform lacks ``fork`` or the pool fails mid-flight.  Because
    workers are pure, the fallback rerun returns exactly what the pool
    would have — including re-raising deterministic worker exceptions
    with their original type.
    """
    with SharedPool(worker, context, workers, task_timeout=task_timeout) as pool:
        return pool.run(payloads)


def _crash_worker(context, payload):
    """Test helper: dies hard inside a pool, answers politely inline.

    Crashing only when a parent process exists makes the degradation path
    end-to-end testable: the pool run breaks with ``BrokenProcessPool``
    and the serial rerun still returns a correct result.
    """
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    return ("inline", payload)
