"""Unit tests for variable registries."""

import pytest

from repro.errors import DistributionError
from repro.prob.distribution import Distribution
from repro.prob.variables import VariableRegistry


class TestDeclaration:
    def test_bernoulli(self):
        reg = VariableRegistry()
        reg.bernoulli("x", 0.3)
        assert reg["x"][True] == pytest.approx(0.3)

    def test_integer(self):
        reg = VariableRegistry()
        reg.integer("n", {0: 0.5, 3: 0.5})
        assert reg["n"][3] == pytest.approx(0.5)

    def test_integer_rejects_negative_values(self):
        reg = VariableRegistry()
        with pytest.raises(DistributionError, match="values in N"):
            reg.integer("n", {-1: 1.0})

    def test_constant(self):
        reg = VariableRegistry()
        reg.constant("c", 7)
        assert reg["c"].support() == {7}

    def test_redeclaration_same_distribution_ok(self):
        reg = VariableRegistry()
        reg.bernoulli("x", 0.3)
        reg.bernoulli("x", 0.3)
        assert len(reg) == 1

    def test_redeclaration_conflict_rejected(self):
        reg = VariableRegistry()
        reg.bernoulli("x", 0.3)
        with pytest.raises(DistributionError, match="already declared"):
            reg.bernoulli("x", 0.4)

    def test_unknown_lookup_raises(self):
        with pytest.raises(DistributionError, match="no declared"):
            VariableRegistry()["missing"]

    def test_constructor_from_mapping(self):
        reg = VariableRegistry({"x": Distribution.bernoulli(0.2)})
        assert "x" in reg


class TestViews:
    def test_names_sorted(self):
        reg = VariableRegistry()
        reg.bernoulli("b", 0.5)
        reg.bernoulli("a", 0.5)
        assert reg.names() == ["a", "b"]

    def test_restrict(self):
        reg = VariableRegistry()
        reg.bernoulli("a", 0.1)
        reg.bernoulli("b", 0.2)
        sub = reg.restrict(["a"])
        assert "a" in sub and "b" not in sub

    def test_iteration_and_len(self):
        reg = VariableRegistry()
        reg.bernoulli("a", 0.1)
        reg.bernoulli("b", 0.2)
        assert sorted(reg) == ["a", "b"]
        assert len(reg) == 2


class TestBooleanReduction:
    """Proposition 2's variable reduction for MIN/MAX."""

    def test_integer_variable_reduces(self):
        reg = VariableRegistry()
        reg.integer("n", {0: 0.25, 1: 0.5, 7: 0.25})
        reduced = reg.boolean_reduction()
        assert reduced["n"][False] == pytest.approx(0.25)
        assert reduced["n"][True] == pytest.approx(0.75)

    def test_boolean_variable_unchanged(self):
        reg = VariableRegistry()
        reg.bernoulli("x", 0.3)
        reduced = reg.boolean_reduction()
        assert reduced["x"].almost_equals(reg["x"])


class TestEpochOrder:
    """The registry epoch is bumped *after* the change it stands for (the
    order of every ``PVCTable`` mutator): a reader that stamps what it
    builds with the epoch it read first can then never pair a new epoch
    with an old distribution."""

    class _Observed(dict):
        """``_distributions`` that records, at every store, the epoch a
        concurrent reader would see just before the store lands."""

        def __init__(self, registry, initial):
            super().__init__(initial)
            self.registry = registry
            self.epochs_at_store = []

        def __setitem__(self, name, distribution):
            self.epochs_at_store.append(self.registry.epoch)
            super().__setitem__(name, distribution)

    def _observed(self):
        reg = VariableRegistry()
        reg.bernoulli("x", 0.3)
        reg._distributions = self._Observed(reg, reg._distributions)
        return reg, reg._distributions

    def test_reassign_stores_before_it_bumps(self):
        reg, seen = self._observed()
        before = reg.epoch
        reg.reassign("x", Distribution.bernoulli(0.9))
        # While the old distribution was still in place the epoch was the
        # old one; at the parent commit it already read ``before + 1``.
        assert seen.epochs_at_store == [before]
        assert reg.epoch == before + 1
        assert reg["x"][True] == pytest.approx(0.9)

    def test_declaring_a_new_name_stores_before_it_bumps(self):
        reg, seen = self._observed()
        before = reg.epoch
        reg.bernoulli("y", 0.5)
        assert seen.epochs_at_store == [before]
        assert reg.epoch == before + 1

    def test_redeclaring_a_name_does_not_bump(self):
        reg, _ = self._observed()
        before = reg.epoch
        reg.bernoulli("x", 0.3)
        assert reg.epoch == before

    def test_reassigning_an_unknown_name_changes_nothing(self):
        reg, seen = self._observed()
        before = reg.epoch
        with pytest.raises(DistributionError, match="undeclared"):
            reg.reassign("nope", Distribution.bernoulli(0.5))
        assert reg.epoch == before and seen.epochs_at_store == []


class TestReassignmentRecord:
    """``reassigned_since``: what a distribution cache reads instead of
    being told — one entry per variable, newest last, recorded before
    the epoch that stands for it."""

    def _registry(self, count=4):
        reg = VariableRegistry()
        for i in range(count):
            reg.bernoulli(f"x{i}", 0.5)
        return reg

    def test_names_since_an_epoch_newest_first(self):
        reg = self._registry()
        start = reg.epoch
        assert reg.reassigned_since(start) == []
        reg.reassign("x1", Distribution.bernoulli(0.1))
        middle = reg.epoch
        reg.reassign("x3", Distribution.bernoulli(0.2))
        reg.bernoulli("late", 0.5)  # a declaration moves the epoch, not the record
        assert reg.reassigned_since(start) == ["x3", "x1"]
        assert reg.reassigned_since(middle) == ["x3"]
        assert reg.reassigned_since(reg.epoch) == []

    def test_the_record_is_one_entry_per_variable(self):
        reg = self._registry()
        start = reg.epoch
        for step in range(100):
            reg.reassign(f"x{step % 2}", Distribution.bernoulli(step / 100))
        assert reg.reassigned_since(start) == ["x1", "x0"]
        assert reg.reassigned_since(reg.epoch - 1) == ["x1"]
        assert len(reg._reassigned) == 2

    def test_a_scan_stops_at_the_first_name_it_has_seen(self):
        reg = self._registry(count=200)
        for i in range(200):
            reg.reassign(f"x{i}", Distribution.bernoulli(0.25))
        seen = reg.epoch
        reg.reassign("x7", Distribution.bernoulli(0.75))

        class Counting:
            def __init__(self, items):
                self.items, self.steps = items, 0

            def __reversed__(self):
                for item in reversed(self.items):
                    self.steps += 1
                    yield item

        items = Counting(reg._reassigned.items())
        reg._reassigned = type("Record", (), {"items": lambda self: items})()
        assert reg.reassigned_since(seen) == ["x7"]
        assert items.steps == 2  # the new name and the first old one

    def test_the_name_is_recorded_before_the_epoch_moves(self):
        reg = self._registry()
        epochs_at_record = []

        class Observed(type(reg._reassigned)):
            def __setitem__(self, name, at):
                epochs_at_record.append((reg.epoch, at))
                super().__setitem__(name, at)

        reg._reassigned = Observed(reg._reassigned)
        before = reg.epoch
        reg.reassign("x2", Distribution.bernoulli(0.9))
        assert epochs_at_record == [(before, before + 1)]
        assert reg.epoch == before + 1


class TestRedeclaringKeepsTheDeclaredMarginal:
    """Re-declaring a name with a distribution ``almost_equals`` the
    declared one moves no epoch, so it must not move the marginal
    either: a cache over the registry would keep the old one while a
    fresh compiler read the new."""

    def test_a_near_equal_redeclaration_is_a_no_op(self):
        from repro.algebra.expressions import Var
        from repro.algebra.semiring import BOOLEAN
        from repro.cache import CompilationCache
        from repro.core.compile import Compiler

        reg = VariableRegistry()
        reg.bernoulli("x", 0.3)
        cache = CompilationCache(Compiler(reg, BOOLEAN))
        assert cache.distribution(Var("x"))[True] == 0.3

        kept = reg.bernoulli("x", 0.30000005)
        assert reg.epoch == 1
        assert kept[True] == 0.3 and reg["x"][True] == 0.3
        # At the parent commit the cache said 0.3 and this said 0.30000005.
        fresh = Compiler(reg, BOOLEAN).distribution(Var("x"))
        assert fresh[True] == cache.distribution(Var("x"))[True] == 0.3


def _bits(distribution):
    """Items in order, each value with its type and each mass as exact
    bits: equal only for the same distribution, item for item."""
    return [
        (type(value), value, type(p), p.hex() if isinstance(p, float) else p)
        for value, p in distribution.items()
    ]


GIVEN = {
    "bernoulli": Distribution.bernoulli(0.3),
    # Bit for bit what ``bernoulli(0.3)`` builds (1.0 - 0.3 == 0.7), so
    # it is stored as 0.3 too, and must come back as these items.
    "literal": Distribution({True: 0.3, False: 0.7}),
    "reversed": Distribution({False: 0.7, True: 0.3}),
    "inexact": Distribution({True: 0.7, False: 0.3}),  # 1.0 - 0.7 != 0.3
    "tiny": Distribution.bernoulli(1e-6),
    "ones": Distribution.bernoulli(0.25, one=1, zero=0),
    "point": Distribution.point(7),
    "certain": Distribution.bernoulli(1.0),
    "integer": Distribution({0: 0.25, 1: 0.5, 7: 0.25}),
}


class TestWhatIsGivenComesBack:
    """A Boolean marginal is stored as its float; every read rebuilds
    the distribution the registry was given — same items, same order
    (Monte-Carlo draws follow it), same float bits."""

    def _registry(self):
        reg = VariableRegistry()
        for name, dist in GIVEN.items():
            reg.declare(name, dist)
        return reg

    def test_declare_and_lookup(self):
        reg = self._registry()
        for name, dist in GIVEN.items():
            assert _bits(reg[name]) == _bits(dist), name

    def test_only_the_bernoulli_shape_is_packed(self):
        stored = self._registry()._distributions
        packed = {name for name, value in stored.items() if type(value) is float}
        assert packed == {"bernoulli", "literal", "tiny"}
        assert stored["tiny"] == 1e-6

    def test_helpers(self):
        reg = VariableRegistry()
        reg.bernoulli("b", 0.1)
        reg.integer("n", {0: 0.5, 3: 0.5})
        reg.constant("c", 4)
        assert _bits(reg["b"]) == _bits(Distribution.bernoulli(0.1))
        assert _bits(reg["n"]) == _bits(Distribution({0: 0.5, 3: 0.5}))
        assert _bits(reg["c"]) == _bits(Distribution.point(4))

    def test_items(self):
        reg = self._registry()
        assert [name for name, _ in reg.items()] == list(GIVEN)
        for name, dist in reg.items():
            assert _bits(dist) == _bits(GIVEN[name]), name

    def test_reassign(self):
        reg = self._registry()
        for name, dist in GIVEN.items():
            other = GIVEN["inexact" if name == "bernoulli" else "bernoulli"]
            reg.reassign(name, other)
            assert _bits(reg[name]) == _bits(other), name
            reg.reassign(name, dist)
            assert _bits(reg[name]) == _bits(dist), name

    def test_pickle(self):
        import pickle

        copy = pickle.loads(pickle.dumps(self._registry()))
        for name, dist in GIVEN.items():
            assert _bits(copy[name]) == _bits(dist), name

    def test_restrict(self):
        names = ["literal", "reversed", "integer"]
        sub = self._registry().restrict(names)
        assert list(sub) == names
        for name in names:
            assert _bits(sub[name]) == _bits(GIVEN[name]), name

    def test_boolean_reduction(self):
        reduced = self._registry().boolean_reduction()
        for name, dist in GIVEN.items():
            p_zero = dist.probability_of(lambda v: v == 0 or v is False)
            expected = Distribution.bernoulli(1.0 - p_zero)
            assert _bits(reduced[name]) == _bits(expected), name
