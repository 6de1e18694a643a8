"""The codegen knobs, stats counters, and the kernel cache."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.algebra.semiring import BOOLEAN
from repro.codegen import (
    CodegenUnsupported,
    codegen_enabled,
    compile_plan,
    kernel_for,
    reset_runtime_stats,
    runtime_stats,
)
from repro.db.schema import Schema
from repro.query.physical import PhysicalOp


@dataclass(frozen=True)
class MysteryOp(PhysicalOp):
    """An operator the emitter has never heard of."""


class TestKnobs:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_CODEGEN", raising=False)
        assert codegen_enabled() is True

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", "False", "OFF"])
    def test_env_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CODEGEN", value)
        assert codegen_enabled() is False

    def test_env_on_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN", "1")
        assert codegen_enabled() is True


class TestUnsupportedPlans:
    def test_unknown_operator_raises(self):
        with pytest.raises(CodegenUnsupported):
            compile_plan(MysteryOp(Schema(["a"])), BOOLEAN)

    def test_kernel_for_falls_back_to_none(self):
        prepared = _FakePrepared(MysteryOp(Schema(["a"])))
        assert kernel_for(prepared, BOOLEAN) is None
        # The fallback decision is cached too.
        assert prepared.op_cache[("codegen", BOOLEAN.name)] is None


class _FakePrepared:
    def __init__(self, plan):
        self.plan = plan
        self.op_cache = {}


class TestKernelCache:
    def _prepared(self, db, query):
        from repro.query.executor import prepare

        return prepare(query, db.catalog(), db.cardinalities(), optimize=False)

    def test_compiled_once_per_prepared_query(self, db, query):
        reset_runtime_stats()
        prepared = self._prepared(db, query)
        first = kernel_for(prepared, db.semiring)
        second = kernel_for(prepared, db.semiring)
        assert first is not None and first is second
        stats = runtime_stats()
        assert stats["kernels_compiled"] == 1
        assert stats["kernel_cache_hits"] == 1
        assert stats["codegen_compile_seconds"] >= 0.0

    def test_cache_key_disjoint_from_interpreter_keys(self, db, query):
        prepared = self._prepared(db, query)
        # The interpreter memoises per-op results under id(op) integers;
        # the kernel must not collide with them.
        prepared.op_cache[id(prepared.plan)] = "interpreter-entry"
        kernel = kernel_for(prepared, db.semiring)
        assert kernel is not None
        assert prepared.op_cache[id(prepared.plan)] == "interpreter-entry"

    def test_reset_runtime_stats(self):
        reset_runtime_stats()
        stats = runtime_stats()
        assert stats == {
            "kernels_compiled": 0,
            "kernel_cache_hits": 0,
            "codegen_compile_seconds": 0.0,
        }
