"""Deterministic relations with semiring-valued multiplicities.

A possible world of a pvc-database is an ordinary relational database in
which every tuple carries a *multiplicity from the concrete semiring*
(Definition 6 and Table 1): a truth value under set semantics (Boolean
semiring) or a natural number under bag semantics.  :class:`Relation` is
the container of one such table — what ``PVCTable.instantiate`` builds
per world and what the per-world engines return.  It is not an algebra:
the operators of Figure 4 live once, in :mod:`repro.query.executor`,
whose concrete domain reads relations through :meth:`Relation.tuples`
and :meth:`Relation.hash_index`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.algebra.semiring import Semiring
from repro.db.schema import Schema
from repro.errors import SchemaError

__all__ = ["Relation"]


class Relation:
    """A deterministic relation: tuples with semiring multiplicities."""

    __slots__ = ("schema", "semiring", "_tuples", "_version", "_index_cache")

    def __init__(
        self,
        schema: Schema,
        semiring: Semiring,
        tuples: Iterable[tuple[tuple, object]] = (),
    ):
        self.schema = schema
        self.semiring = semiring
        self._tuples: dict[tuple, object] = {}
        #: Mutation counter keying the memoised hash indexes (the
        #: :class:`~repro.db.pvc_table.PVCTable` epoch discipline).  The
        #: row *count* is not a safe key: ``add`` can change a
        #: multiplicity — or cancel a tuple — without changing ``len``.
        self._version = 0
        self._index_cache: dict = {}
        for values, multiplicity in tuples:
            self.add(values, multiplicity)

    @property
    def epoch(self) -> int:
        """The relation's monotonic mutation counter (cache validity key).

        Same discipline as :attr:`repro.db.pvc_table.PVCTable.epoch`; the
        shared name lets cache layers record mixed epoch vectors.
        """
        return self._version

    def invalidate_caches(self) -> None:
        """Bump the epoch and drop the memoised hash indexes."""
        self._version += 1
        self._index_cache.clear()

    def add(self, values: Sequence, multiplicity=None):
        """Add a tuple (alternative use: multiplicities combine additively)."""
        values = tuple(values)
        if len(values) != len(self.schema):
            raise SchemaError(
                f"tuple of arity {len(values)} does not match schema "
                f"{self.schema!r}"
            )
        if multiplicity is None:
            multiplicity = self.semiring.one
        current = self._tuples.get(values, self.semiring.zero)
        combined = self.semiring.add(current, multiplicity)
        if combined == self.semiring.zero:
            self._tuples.pop(values, None)
        else:
            self._tuples[values] = combined
        self._version += 1  # after the change: readers stamp epoch-first

    @classmethod
    def from_mapping(
        cls, schema: Schema, semiring: Semiring, tuples: dict
    ) -> "Relation":
        """Adopt an already-merged ``{values: multiplicity}`` mapping.

        The fast constructor of the physical executor: callers guarantee
        the mapping holds no zero multiplicities, so the per-tuple
        :meth:`add` merging is skipped.
        """
        relation = cls(schema, semiring)
        relation._tuples = tuples
        return relation

    def hash_index(self, attributes: Sequence[str]) -> dict:
        """Buckets of ``(values, multiplicity)`` keyed on ``attributes``.

        The build side of a hash equi-join over this relation.  Built
        once per key set and memoised until the relation mutates, so
        repeated executions against the same world (the per-world
        engines, the compiled kernels) never rebuild an index.
        """
        from repro.db.pvc_table import tuple_getter

        key = tuple(attributes)
        version = self._version  # read first: the stamp of what we build
        cached = self._index_cache.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        key_of = tuple_getter([self.schema.index(a) for a in attributes])
        buckets: dict[tuple, list] = {}
        for values, multiplicity in self._tuples.items():
            bucket_key = key_of(values)
            bucket = buckets.get(bucket_key)
            if bucket is None:
                buckets[bucket_key] = bucket = []
            bucket.append((values, multiplicity))
        self._index_cache[key] = (version, buckets)
        return buckets

    def multiplicity(self, values: Sequence):
        """The multiplicity of a tuple (``0_S`` if absent)."""
        return self._tuples.get(tuple(values), self.semiring.zero)

    def tuples(self):
        """Iterate over ``(values, multiplicity)`` pairs with non-zero mult."""
        return self._tuples.items()

    def support(self) -> set:
        """The set of present tuples (non-zero multiplicity)."""
        return set(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, values) -> bool:
        return tuple(values) in self._tuples

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and self.schema.attributes == other.schema.attributes
            and self._tuples == other._tuples
        )

    def __repr__(self):
        return (
            f"Relation({self.schema!r}, {len(self._tuples)} tuples, "
            f"semiring {self.semiring.name})"
        )
