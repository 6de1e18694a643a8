"""Runtime support for generated kernels.

The emitter (:mod:`repro.codegen.emit`) produces plain Python source; the
handful of names that source needs beyond builtins — world lookups with
the executor's exact error message, hash-index construction that reuses a
:class:`~repro.db.relation.Relation`'s cached index, the ``ModuleExpr``
marker for symbolic filter guards — live here so every kernel shares one
vetted implementation.

This module also owns the one process-wide knob, :func:`codegen_enabled`
— the ``REPRO_CODEGEN`` escape hatch (default on; ``REPRO_CODEGEN=0``
restores the tree-walking interpreter everywhere).  It is the only
selector — the interpreter CI leg and the differential tests flip it,
nothing per run does — and the only environment variable the package
reads.  The volatile counters (:func:`runtime_stats`) surfaced as
``codegen_used`` / ``codegen_compile_seconds`` / ``kernel_cache_hits`` in
result stats live here too.
"""

from __future__ import annotations

import os
import threading

from repro.algebra.semimodule import ModuleExpr
from repro.db.pvc_table import tuple_getter
from repro.errors import QueryValidationError

__all__ = [
    "CodegenUnsupported",
    "codegen_enabled",
    "kernel_table",
    "kernel_index",
    "KERNEL_GLOBALS",
    "runtime_stats",
    "reset_runtime_stats",
]


class CodegenUnsupported(Exception):
    """The plan (or its binding to a database) has no compiled form.

    Raising this is always recoverable: callers fall back to the
    tree-walking interpreter, which remains the conformance oracle.
    """


_OFF_VALUES = frozenset({"0", "false", "no", "off"})


def codegen_enabled() -> bool:
    """Whether compiled execution is active: the ``REPRO_CODEGEN``
    environment variable decides, defaulting to enabled."""
    return os.environ.get("REPRO_CODEGEN", "1").strip().lower() not in _OFF_VALUES


def _lookup(world, name: str):
    try:
        return world[name]
    except KeyError:
        raise QueryValidationError(
            f"world has no relation named {name!r}"
        ) from None


def kernel_table(world, name: str) -> dict:
    """The ``{values: multiplicity}`` mapping of one world relation.

    Accepts both :class:`~repro.db.relation.Relation` worlds (the public
    ``execute_deterministic`` surface) and the raw-dict worlds the bound
    per-world paths build, with the interpreter's exact error for a
    missing relation.
    """
    rel = _lookup(world, name)
    tuples = getattr(rel, "_tuples", None)
    return rel if tuples is None else tuples


def kernel_index(world, name: str, attributes: tuple, key_indices: tuple) -> dict:
    """Hash buckets for a base-table build side.

    For :class:`Relation` worlds this delegates to the relation's own
    (cached) ``hash_index`` — bit-identical to the interpreter's build.
    Raw-dict worlds get the same bucket construction inline.
    """
    rel = _lookup(world, name)
    hash_index = getattr(rel, "hash_index", None)
    if hash_index is not None:
        return hash_index(attributes)
    key_of = tuple_getter(list(key_indices))
    buckets: dict = {}
    for values, multiplicity in rel.items():
        key = key_of(values)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = bucket = []
        bucket.append((values, multiplicity))
    return buckets


#: Names injected into every kernel's exec namespace (plan-specific
#: constants are merged on top).
KERNEL_GLOBALS = {
    "_table": kernel_table,
    "_index": kernel_index,
    "_MX": ModuleExpr,
}


_STATS = {
    "kernels_compiled": 0,
    "kernel_cache_hits": 0,
    "codegen_compile_seconds": 0.0,
}

#: Server executor threads compile kernels concurrently, so the counters
#: need a real lock: ``+=`` on a dict entry is a read-modify-write, and
#: lost updates here skew ``codegen_compile_seconds`` in every result.
_STATS_LOCK = threading.Lock()

_shared_state_ = {"_STATS_LOCK": ("_STATS",)}


def record_compile(seconds: float) -> None:
    with _STATS_LOCK:
        _STATS["kernels_compiled"] += 1
        _STATS["codegen_compile_seconds"] += seconds


def record_cache_hit() -> None:
    with _STATS_LOCK:
        _STATS["kernel_cache_hits"] += 1


def runtime_stats() -> dict:
    """A snapshot of the process-wide codegen counters."""
    with _STATS_LOCK:
        return dict(_STATS)


def reset_runtime_stats() -> None:
    with _STATS_LOCK:
        for key in _STATS:
            _STATS[key] = 0.0 if key == "codegen_compile_seconds" else 0
