"""What a loaded tuple-independent row costs the garbage collector.

A tuple-independent row is a value tuple and one Boolean variable with
one number, ``P_x[⊤]``.  Loading one must leave two GC-tracked objects
behind — the :class:`~repro.db.pvc_table.PVCRow` and its
:class:`~repro.algebra.expressions.Var` — and nothing per row beside
them: the marginal is a float in the registry, and the variable set is
a tuple of one string, like the ``Var``'s key and the row's atomic
values, so the collector untracks those tuples on its first pass.
Counts, not timings.
"""

from __future__ import annotations

import gc

from repro.db.tuple_independent import tuple_independent_table
from repro.prob.variables import VariableRegistry

ROWS = 2_000


def _load(registry, prefix, rows):
    return tuple_independent_table(
        ["k", "name", "price"],
        (((i, f"item{i}", i * 0.5), 0.05 + (i % 90) / 100) for i in range(rows)),
        registry,
        prefix,
    )


def test_a_loaded_row_is_two_tracked_objects():
    registry = VariableRegistry()
    _load(registry, "warm", 10)  # first-call caches, interned names
    gc.collect()
    before = len(gc.get_objects())
    table = _load(registry, "t", ROWS)
    gc.collect()
    grown = len(gc.get_objects()) - before
    # The parent commit grew by 4N: a Distribution per marginal and a
    # frozenset per variable beside the row and its Var.
    assert grown <= 2 * ROWS + 50, grown
    assert len(table.rows) == ROWS and len(registry) == ROWS + 10


def test_reads_leave_only_the_variable_sets_behind():
    registry = VariableRegistry()
    table = _load(registry, "t", ROWS)
    gc.collect()
    before = len(gc.get_objects())
    total = sum(registry[row.annotation.name][True] for row in table.rows)
    gc.collect()
    assert len(gc.get_objects()) - before <= 50  # rebuilt per read, then freed
    assert 0 < total < ROWS
    for row in table.rows:
        assert row.annotation.variables == frozenset({row.annotation.name})
    gc.collect()
    # Each Var now holds its frozenset: one tracked object per row more.
    assert len(gc.get_objects()) - before <= ROWS + 50
