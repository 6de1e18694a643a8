"""Kept only for the benchmark harness (``benchmarks/perf``), which
imports these two names on every run.  There are no compiled kernels:
every per-world evaluation runs the interpreter,
:func:`repro.query.executor.world_evaluator`.  No module of the package
imports this one."""

from __future__ import annotations

__all__ = ["codegen_enabled", "runtime_stats"]


def codegen_enabled() -> bool:
    return False


def runtime_stats() -> dict:
    return {"kernels_compiled": 0, "kernel_cache_hits": 0, "codegen_compile_seconds": 0.0}
