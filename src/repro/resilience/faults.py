"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` binds :class:`FaultSpec` entries to *named fault
points* — bare ``fault_point("pool.worker")`` calls instrumented at
the seams of the stack.  When no plan is installed (the default, and
always in production) every fault point is a strict no-op: one module
global read and an immediate return.

Fault kinds
-----------

``crash``
    ``os._exit`` — an abrupt worker death (SIGKILL-like).
``hang``
    Sleep for a very long time — a wedged worker, caught only by the
    pool watchdog of :mod:`repro.parallel`.
``slow``
    Sleep ``delay`` seconds — injected latency.
``pickle``
    Raise :class:`pickle.PicklingError` — a payload/result that cannot
    cross the process boundary.
``io``
    Raise :class:`ConnectionError` — a transient network/IO failure
    (bound with ``times=N`` it models a fault that heals after N hits).

``crash``, ``hang`` and ``pickle`` only fire inside forked pool worker
processes (``multiprocessing.parent_process() is not None``): the
parent's serial fallback rerun of the same payloads is then fault-free,
which is what lets the chaos conformance grid assert bit-identical
answer fingerprints under injected faults.  ``slow`` and ``io`` fire
anywhere.

Determinism: hit counters and per-point seeded RNGs (for ``rate``-based
faults) live on the plan, so a given ``(plan, seed)`` always fires the
same faults at the same hits within one process.  Forked workers
inherit the plan by copy-on-write — each worker process counts its own
hits independently.

Fault-point catalogue (instrumented in this codebase):

==========================  ====================================================
``pool.worker``             per task, inside the forked worker (``repro.parallel._invoke``)
``engine.sprout.row``       per result row, before compiling its probability
``engine.approx.round``     per approximate refinement round
``engine.montecarlo.round`` per Monte-Carlo doubling round
``engine.montecarlo.world`` per sample of the per-world loop (stored
                            semimodule values, inexact aggregates);
                            batched runs valuate whole chunks and never
                            pass it
``server.http.request``     per HTTP ``POST /query`` dispatch
``server.tcp.line``         per TCP request line dispatch
``server.codec.encode``     per result encoded onto the wire
==========================  ====================================================
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import QueryValidationError

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "clear_plan",
    "fault_plan",
    "fault_point",
    "in_worker_process",
    "install_plan",
]

#: The supported fault kinds.
FAULT_KINDS = ("crash", "hang", "slow", "pickle", "io")

#: Kinds that only fire inside forked pool workers, so the parent's
#: serial fallback rerun stays fault-free and answers deterministic.
_WORKER_ONLY = frozenset({"crash", "hang", "pickle"})

#: How long a "hang" sleeps when no explicit delay is given — far past
#: any watchdog timeout, close enough to forever for a test suite.
_HANG_FOREVER = 3600.0

#: Default injected latency of a "slow" fault.
_SLOW_DEFAULT = 0.01


@dataclass(frozen=True)
class FaultSpec:
    """One fault bound to a fault point.

    ``times``
        Fire for at most this many eligible hits (None: every hit).
    ``rate``
        Fire each eligible hit with this probability, decided by the
        plan's per-point seeded RNG (None: fire deterministically).
    ``delay``
        Sleep length for ``slow``/``hang`` (None: kind default).
    ``after``
        Skip the first ``after`` hits before becoming eligible.
    """

    kind: str
    times: "int | None" = 1
    rate: "float | None" = None
    delay: "float | None" = None
    after: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise QueryValidationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.times is not None and (
            not isinstance(self.times, int) or self.times < 1
        ):
            raise QueryValidationError(
                f"fault times must be a positive int or None, "
                f"got {self.times!r}"
            )
        if self.rate is not None and not 0.0 < self.rate <= 1.0:
            raise QueryValidationError(
                f"fault rate must be in (0, 1], got {self.rate!r}"
            )
        if self.delay is not None and self.delay < 0:
            raise QueryValidationError(
                f"fault delay must be >= 0, got {self.delay!r}"
            )
        if not isinstance(self.after, int) or self.after < 0:
            raise QueryValidationError(
                f"fault after must be a non-negative int, got {self.after!r}"
            )


class FaultPlan:
    """A seeded set of faults, installable as the process-wide plan."""

    def __init__(self, faults=None, seed: int = 0):
        self.faults: "dict[str, FaultSpec]" = dict(faults or {})
        self.seed = seed
        self.hits: "dict[str, int]" = {}
        self.fires: "dict[str, int]" = {}
        #: ``(point, kind)`` log of faults that actually fired in *this*
        #: process (forked workers keep their own copies).
        self.fired: "list[tuple[str, str]]" = []
        self._rngs: "dict[str, random.Random]" = {}
        self._lock = threading.Lock()

    def add(self, point: str, kind: str, **options) -> "FaultPlan":
        """Bind a fault to a point; chainable."""
        self.faults[point] = FaultSpec(kind, **options)
        return self

    def _rng(self, point: str) -> random.Random:
        rng = self._rngs.get(point)
        if rng is None:
            # str seeds hash deterministically through random.seed().
            rng = self._rngs[point] = random.Random(f"{self.seed}:{point}")
        return rng

    def decide(self, point: str) -> "FaultSpec | None":
        """Count a hit at ``point``; return the spec iff it fires now."""
        spec = self.faults.get(point)
        if spec is None:
            return None
        with self._lock:
            hit = self.hits.get(point, 0)
            self.hits[point] = hit + 1
            if hit < spec.after:
                return None
            if spec.kind in _WORKER_ONLY and not in_worker_process():
                return None
            if spec.times is not None and self.fires.get(point, 0) >= spec.times:
                return None
            if spec.rate is not None and self._rng(point).random() >= spec.rate:
                return None
            self.fires[point] = self.fires.get(point, 0) + 1
            self.fired.append((point, spec.kind))
            return spec

    def __repr__(self) -> str:
        binding = ", ".join(
            f"{point}={spec.kind}" for point, spec in sorted(self.faults.items())
        )
        return f"FaultPlan({binding or 'empty'}, seed={self.seed})"


#: The installed plan.  Module global so forked pool workers inherit it
#: by copy-on-write; ``None`` means every fault point is a no-op.
_PLAN: "FaultPlan | None" = None


def install_plan(plan: FaultPlan) -> FaultPlan:
    global _PLAN
    _PLAN = plan
    return plan


def clear_plan() -> None:
    global _PLAN
    _PLAN = None


def active_plan() -> "FaultPlan | None":
    return _PLAN


@contextmanager
def fault_plan(plan: FaultPlan):
    """Install ``plan`` for the enclosed block, then clear it."""
    install_plan(plan)
    try:
        yield plan
    finally:
        clear_plan()


def in_worker_process() -> bool:
    """True inside a forked pool worker (has a multiprocessing parent)."""
    return multiprocessing.parent_process() is not None


def fault_point(name: str) -> None:
    """A named chaos seam.  Strict no-op unless a plan is installed."""
    if _PLAN is None:
        return
    spec = _PLAN.decide(name)
    if spec is None:
        return
    if spec.kind == "crash":
        os._exit(23)
    elif spec.kind == "hang":
        time.sleep(_HANG_FOREVER if spec.delay is None else spec.delay)
    elif spec.kind == "slow":
        time.sleep(_SLOW_DEFAULT if spec.delay is None else spec.delay)
    elif spec.kind == "pickle":
        raise pickle.PicklingError(f"injected pickle fault at {name!r}")
    elif spec.kind == "io":
        raise ConnectionError(f"injected transient IO fault at {name!r}")
