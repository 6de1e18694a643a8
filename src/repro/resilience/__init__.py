"""repro.resilience — deadlines, fault injection, bounded degradation.

The robustness layer threaded through the whole stack.  Two small,
dependency-free modules:

* :mod:`repro.resilience.deadline` — a wall-clock :class:`Deadline`
  derived from ``EvalSpec.time_limit`` and propagated into the inner
  loops of exact compilation, per-row Sprout compilation, Monte-Carlo
  rounds and approximate refinement via an ambient
  :func:`deadline_scope`.  Cooperative checkpoints
  (:func:`check_deadline`) raise :class:`DeadlineExceeded`, which the
  engines convert into either a sound partial answer
  (``spec.on_timeout == "partial"``) or a typed
  :class:`~repro.errors.QueryTimeoutError` carrying that partial answer
  (``spec.on_timeout == "raise"``).

* :mod:`repro.resilience.faults` — a deterministic fault-injection
  harness.  A seeded :class:`FaultPlan` binds crash/hang/slow/pickle/
  transient-IO :class:`FaultSpec` entries to *named fault points*
  (:func:`fault_point` calls instrumented in the pool, the engines
  and the server).  When no plan is installed every fault
  point is a strict no-op.

Together with the pool watchdog (``parallel.pool``), server drain
(``server.app``) and the client retry policy (``server.client``) these
give the stack one contract: every request either completes, returns a
sound partial answer, or fails with a typed error — within a bounded
time, even under injected chaos.
"""

from repro.resilience.deadline import (
    Deadline,
    DeadlineExceeded,
    check_deadline,
    current_deadline,
    deadline_from_spec,
    deadline_scope,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    active_plan,
    clear_plan,
    fault_plan,
    fault_point,
    install_plan,
)

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "check_deadline",
    "current_deadline",
    "deadline_from_spec",
    "deadline_scope",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "clear_plan",
    "fault_plan",
    "fault_point",
    "install_plan",
]
