"""Compiled kernels vs the interpreter, world by world.

The interpreter (:mod:`repro.query.executor`, the concrete domain) is the
conformance oracle: on every enumerated world the kernel must return the
same ``{values: multiplicity}`` mapping — equal as a dict *and* in the
same insertion order, because downstream fingerprints serialise rows in
that order.
"""

from __future__ import annotations

import os
import pickle
from unittest import mock

import pytest

from repro.codegen import compile_plan, kernel_for
from repro.db.worlds import enumerate_database_worlds
from repro.prob.space import ProbabilitySpace
from repro.query.executor import execute_deterministic, prepare


def _prepare(db, query):
    return prepare(query, db.catalog(), db.cardinalities(), optimize=False)


def _interpreted(prepared, world, semiring):
    with mock.patch.dict(os.environ, REPRO_CODEGEN="0"):
        result = execute_deterministic(prepared, world, semiring)
    return list(result.tuples())


class TestKernelConformance:
    def test_every_world_bit_identical(self, db, query):
        prepared = _prepare(db, query)
        kernel = compile_plan(prepared.plan, db.semiring)
        for world, _ in enumerate_database_worlds(db):
            expected = _interpreted(prepared, world, db.semiring)
            actual = list(kernel.execute(world).items())
            assert actual == expected  # content AND insertion order

    def test_pickled_kernel_conforms(self, db, query):
        prepared = _prepare(db, query)
        kernel = pickle.loads(pickle.dumps(compile_plan(prepared.plan, db.semiring)))
        for world, _ in enumerate_database_worlds(db):
            expected = _interpreted(prepared, world, db.semiring)
            assert list(kernel.execute(world).items()) == expected

    def test_optimized_plans_compile_too(self, db, query):
        prepared = prepare(
            query, db.catalog(), db.cardinalities(), optimize=True
        )
        kernel = kernel_for(prepared, db.semiring)
        assert kernel is not None
        for world, _ in enumerate_database_worlds(db):
            expected = _interpreted(prepared, world, db.semiring)
            assert list(kernel.execute(world).items()) == expected


class TestBoundPlanConformance:
    def test_run_assignment_matches_interpreter(self, db, query):
        prepared = _prepare(db, query)
        kernel = compile_plan(prepared.plan, db.semiring)
        names = sorted(db.variables)
        bound = kernel.bind(db, names)
        space = ProbabilitySpace(db.registry, db.semiring)
        worlds = enumerate_database_worlds(db)
        for (world, p_world), (valuation, p_val) in zip(
            worlds, space.enumerate_worlds(names)
        ):
            assert p_world == pytest.approx(p_val)
            expected = _interpreted(prepared, world, db.semiring)
            actual = list(bound.run_assignment(valuation.assignment).items())
            assert actual == expected

    def test_statics_hoisted_once(self, db, query):
        """World-invariant blocks evaluate once across all worlds."""
        prepared = _prepare(db, query)
        kernel = compile_plan(prepared.plan, db.semiring)
        bound = kernel.bind(db, sorted(db.variables))
        space = ProbabilitySpace(db.registry, db.semiring)
        fired: list[str] = []
        for valuation, _ in space.enumerate_worlds(sorted(db.variables)):
            bound.run_assignment(valuation.assignment, trace=fired.append)
        # Static blocks (deterministic tables, their hash indexes,
        # static subplans) never appear in the per-world trace: they were
        # computed during bind(), before the first world ran.
        static_keys = {
            key for key in kernel.trace_labels if key in bound.statics
        }
        assert not (set(fired) & static_keys)
