"""Possible-worlds semantics of pvc-databases (Definition 6).

The semantics of a pvc-database ``D`` is the set of worlds
``{ν(T₁), ..., ν(Tₙ)}`` for every valuation ``ν`` of the variables,
where ``ν`` maps annotations to multiplicities and semimodule values to
monoid values.  This module enumerates those worlds explicitly — the
exponential-cost ground truth used by the brute-force query engine and
the test suite.
"""

from __future__ import annotations

from typing import Iterator

from repro.cache import capture_stamp
from repro.db.pvc_table import PVCDatabase
from repro.db.relation import Relation
from repro.errors import ConcurrentMutationError
from repro.prob.space import ProbabilitySpace

__all__ = ["enumerate_database_worlds", "world_count"]


def world_count(db: PVCDatabase) -> int:
    """Number of distinct valuations of the variables used by ``db``."""
    space = ProbabilitySpace(db.registry, db.semiring)
    return space.world_count(sorted(db.variables))


def enumerate_database_worlds(
    db: PVCDatabase,
) -> Iterator[tuple[dict[str, Relation], float]]:
    """Yield every possible world of the database with its probability.

    A world is a mapping from table names to deterministic
    :class:`~repro.db.relation.Relation` instances.  Only the variables
    actually used by the database are enumerated; unused registry
    variables are marginalised out.

    Enumeration spans many reads of the live tables, so every world is
    built from the tables captured at the start, and the stamp (every
    table, the registry) is compared before each world is built — a new
    row may name a variable the valuation does not assign — and again
    after: a mutation mid-sweep raises
    :class:`~repro.errors.ConcurrentMutationError`.
    """
    stamp = capture_stamp(db, registry=True)  # before any row is read
    space = ProbabilitySpace(db.registry, db.semiring)
    names = sorted(db.variables)

    def check():
        if capture_stamp(db, registry=True) != stamp:
            raise ConcurrentMutationError("database mutated during possible-worlds enumeration")

    for valuation, probability in space.enumerate_worlds(names):
        check()
        world = {
            table_name: table.instantiate(valuation, db.semiring)
            for table_name, table, _ in stamp[0]
        }
        check()
        yield world, probability
