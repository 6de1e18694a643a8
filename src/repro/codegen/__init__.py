"""Plan-to-code generation: fused per-plan kernels with cross-operator CSE.

Public surface:

* :func:`compile_plan` — lower a physical plan to a picklable
  :class:`CompiledPlan` (one fused Python function per plan).
* :func:`kernel_for` — the memoised entry point engines use: compiles a
  :class:`~repro.query.executor.PreparedQuery`'s plan at most once per
  semiring, caching on the prepared query's ``op_cache`` so the compiled
  function rides the existing :class:`~repro.engine.base.PlanCache` (and
  the server's shared statement cache) across sessions and tenants.
  Returns ``None`` when the plan has no compiled form (interpreter
  fallback).
* :class:`~repro.codegen.binding.BoundPlan` (via
  :meth:`CompiledPlan.bind`) — all world-invariant work hoisted, for the
  per-world engines.
* :func:`codegen_enabled` — the ``REPRO_CODEGEN`` escape hatch.

The tree-walking interpreter in :mod:`repro.query.executor` remains the
conformance oracle: every kernel reproduces its ``{values:
multiplicity}`` mappings bit-for-bit, content and insertion order.
"""

from __future__ import annotations

from repro.codegen.emit import CompiledPlan, compile_plan
from repro.codegen.runtime import (
    CodegenUnsupported,
    codegen_enabled,
    record_cache_hit,
    reset_runtime_stats,
    runtime_stats,
)

__all__ = [
    "CompiledPlan",
    "CodegenUnsupported",
    "compile_plan",
    "kernel_for",
    "bound_kernel_for",
    "codegen_enabled",
    "runtime_stats",
    "reset_runtime_stats",
]

_MISSING = object()
_KERNEL_KEY_PREFIX = "codegen"


def kernel_for(prepared, semiring) -> CompiledPlan | None:
    """The compiled kernel for a prepared query, compiled at most once.

    Cached on ``prepared.op_cache`` under a ``("codegen", semiring
    name)`` key — disjoint from the interpreter's ``id(op)`` integer
    keys — so the kernel is shared by every execution of the prepared
    plan, including plans resident in a :class:`PlanCache` or the query
    server's statement cache.  A plan that cannot be compiled caches
    ``None`` (the fallback decision is also made only once).
    """
    key = (_KERNEL_KEY_PREFIX, semiring.name)
    cache = prepared.op_cache
    entry = cache.get(key, _MISSING)
    if entry is not _MISSING:
        if entry is not None:
            record_cache_hit()
        return entry
    try:
        compiled = compile_plan(prepared.plan, semiring)
    except CodegenUnsupported:
        compiled = None
    cache[key] = compiled
    return compiled


def bound_kernel_for(prepared, db, names):
    """The prepared query's kernel bound to ``db`` for the per-world
    engines, or ``None`` when codegen is off (:func:`codegen_enabled`)
    or the plan or the database's annotations have no compiled form.

    ``names`` is as in :meth:`CompiledPlan.bind`.
    """
    if not codegen_enabled():
        return None
    kernel = kernel_for(prepared, db.semiring)
    if kernel is None:
        return None
    try:
        return kernel.bind(db, names)
    except CodegenUnsupported:
        return None
