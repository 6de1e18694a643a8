"""Constructors for tuple-independent and BID tables.

Tuple-independent tables — every tuple annotated with its own fresh
Boolean variable — are the input class of the tractability results of
Section 6 and of all the paper's experiments.  Block-independent-disjoint
(BID) tables generalise them with blocks of mutually exclusive
alternatives; pvc-tables express a block through conditional expressions
``[x_b = i]`` over a single block variable, staying within the
independent-variable probability space of Definition 1.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.algebra.expressions import Var
from repro.db.pvc_table import PVCTable
from repro.db.schema import Schema
from repro.errors import DistributionError
from repro.prob.distribution import Distribution
from repro.prob.variables import VariableRegistry

__all__ = ["tuple_independent_table", "bid_table", "reassign_probability"]


def tuple_independent_table(
    attributes: Sequence[str],
    rows: Iterable[tuple[Sequence, float]],
    registry: VariableRegistry,
    prefix: str,
) -> PVCTable:
    """Build a tuple-independent pvc-table.

    Each ``(values, probability)`` row receives a fresh Boolean variable
    ``{prefix}{i}`` with ``P[⊤] = probability``, declared in ``registry``.

    >>> reg = VariableRegistry()
    >>> t = tuple_independent_table(["a"], [((1,), 0.5), ((2,), 0.9)], reg, "r")
    >>> [repr(row.annotation) for row in t]
    ['r0', 'r1']
    """
    table = PVCTable(Schema(attributes))
    for i, (values, probability) in enumerate(rows):
        name = f"{prefix}{i}"
        registry.bernoulli(name, probability)
        table.add(tuple(values), Var(name))
    return table


def bid_table(
    attributes: Sequence[str],
    blocks: Iterable[Sequence[tuple[Sequence, float]]],
    registry: VariableRegistry,
    prefix: str,
) -> PVCTable:
    """Build a block-independent-disjoint pvc-table.

    Each block is a sequence of ``(values, probability)`` alternatives that
    are mutually exclusive; probabilities within a block must sum to at
    most 1 (any remainder is the probability that *no* alternative is
    chosen).  Block ``b`` is driven by one integer variable ``{prefix}b``
    with ``P[i] = pᵢ`` (and ``P[0]`` the remainder), and alternative ``i``
    is annotated with the conditional expression ``[{prefix}b = i]``.

    Because the block variables range over ``{0, ..., k}``, BID databases
    must be queried under the **naturals** semiring (annotations evaluate
    to multiplicities 0/1); the Boolean semiring cannot coerce the block
    variable values.
    """
    table = PVCTable(Schema(attributes))
    for b, block in enumerate(blocks):
        table.add_block(block, registry, f"{prefix}{b}")
    return table


def reassign_probability(
    table: PVCTable,
    registry: VariableRegistry,
    values: Sequence,
    p: float,
) -> str:
    """Change the marginal probability of one tuple-independent row.

    Finds the row with exactly ``values`` (which must be annotated with a
    single Boolean variable — the tuple-independent encoding), reassigns
    its variable to ``Bernoulli(p)`` in ``registry``, and returns the
    variable name.  The registry records the reassignment, so every
    distribution cache over it answers with the new marginal on its next
    read — exactly as after
    :meth:`repro.db.pvc_table.PVCDatabase.update` with ``p=``, which
    selects rows by predicate and is the usual spelling on a database.
    """
    values = tuple(values)
    for row in table.rows:
        if row.values == values:
            if not isinstance(row.annotation, Var):
                raise DistributionError(
                    f"row {values!r} is not tuple-independent; its "
                    f"annotation is {row.annotation!r}"
                )
            registry.reassign(row.annotation.name, Distribution.bernoulli(p))
            return row.annotation.name
    raise DistributionError(f"no row with values {values!r}")
