"""Unit tests for deterministic relations with semiring multiplicities.

``Relation`` is a world container; the relational operators over concrete
multiplicities are specified in ``tests/query/test_executor.py``."""

import pytest

from repro.algebra.semiring import BOOLEAN, NATURALS
from repro.db.relation import Relation
from repro.db.schema import Schema
from repro.errors import SchemaError


def bag(attrs, rows):
    return Relation(Schema(attrs), NATURALS, rows)


def setrel(attrs, rows):
    return Relation(Schema(attrs), BOOLEAN, rows)


class TestMultiplicities:
    def test_add_accumulates(self):
        rel = bag(["a"], [((1,), 2), ((1,), 3)])
        assert rel.multiplicity((1,)) == 5

    def test_boolean_add_is_or(self):
        rel = setrel(["a"], [((1,), True), ((1,), True)])
        assert rel.multiplicity((1,)) is True
        assert len(rel) == 1

    def test_zero_multiplicity_removed(self):
        rel = setrel(["a"], [((1,), False)])
        assert len(rel) == 0
        assert (1,) not in rel

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            bag(["a", "b"], [((1,), 1)])

    def test_support(self):
        rel = bag(["a"], [((1,), 2), ((2,), 1)])
        assert rel.support() == {(1,), (2,)}


class TestHashIndexMemo:
    """The per-key-set hash index is memoised until the relation mutates."""

    def rel(self):
        return bag(["a", "b"], [((1, "x"), 2), ((2, "y"), 1)])

    def test_hash_index_memoised(self):
        r = self.rel()
        index = r.hash_index(["a"])
        assert index[(1,)] == [((1, "x"), 2)]
        assert r.hash_index(["a"]) is index

    def test_mutation_invalidates(self):
        r = self.rel()
        index = r.hash_index(["a"])
        r.add((3, "z"), 1)
        assert (3,) in r.hash_index(["a"])
        assert r.hash_index(["a"]) is not index

    def test_multiplicity_change_without_len_change_invalidates(self):
        """The trap a row-count key would miss: ``add`` can change a
        multiplicity — or cancel a tuple — without changing ``len``."""
        r = self.rel()
        index = r.hash_index(["a"])
        assert index[(1,)] == [((1, "x"), 2)]
        r.add((1, "x"), 3)  # merged: same len(), new multiplicity
        assert len(r) == 2
        assert r.hash_index(["a"])[(1,)] == [((1, "x"), 5)]

    def test_from_mapping_starts_clean(self):
        r = Relation.from_mapping(
            Schema(["a"]), NATURALS, {(1,): 2, (2,): 1}
        )
        assert sorted(r.hash_index(["a"])) == [(1,), (2,)]
        r.add((3,), 1)
        assert sorted(r.hash_index(["a"])) == [(1,), (2,), (3,)]
